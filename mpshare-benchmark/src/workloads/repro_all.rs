//! `repro_all`: `mpshare-repro all` in memory. One iteration runs every
//! experiment of the paper and encodes each as the text, CSV and JSON
//! files the command writes. The inputs are the paper's and ignore the
//! seed.

use super::{read_committed, Workload};
use crate::metrics::MetricSet;
use crate::trace::Tracer;
use mpshare_gpusim::DeviceSpec;
use mpshare_harness::experiments::{
    self, combos, ext_attrib, ext_faults, ext_hetero, ext_mechanisms, ext_node, ext_online,
    ext_powercap, fig1, fig2, fig3, fig4, fig5, table1, table2,
};
use mpshare_harness::Experiment;
use mpshare_types::Result;

/// Artifact extensions, in [`Encoded::files`] order.
const EXTENSIONS: [&str; 3] = ["txt", "csv", "json"];

type Phase = fn(&DeviceSpec) -> Result<Experiment>;

/// `experiments::run_all`'s phases before and after the combination runs,
/// in its order, with the span each is traced under.
const BEFORE_COMBOS: [(&str, Phase); 3] = [
    ("harness.table1", table1::run),
    ("harness.table2", table2::run),
    ("harness.fig1", fig1::run),
];
const AFTER_COMBOS: [(&str, Phase); 9] = [
    ("harness.fig4", fig4::run),
    ("harness.fig5", fig5::run),
    ("harness.ext_node", ext_node::run),
    ("harness.ext_mechanisms", ext_mechanisms::run),
    ("harness.ext_powercap", ext_powercap::run),
    ("harness.ext_online", ext_online::run),
    ("harness.ext_hetero", ext_hetero::run),
    ("harness.ext_faults", ext_faults::run),
    ("harness.ext_attrib", ext_attrib::run),
];

/// One experiment as `mpshare-repro` writes it.
#[derive(Debug, PartialEq)]
pub struct Encoded {
    id: String,
    files: [String; 3],
}

fn encode(experiments: &[Experiment]) -> Vec<Encoded> {
    experiments
        .iter()
        .map(|e| Encoded {
            id: e.id.clone(),
            files: [
                e.render(),
                e.table.to_csv(),
                serde_json::to_string_pretty(e).expect("experiments serialize"),
            ],
        })
        .collect()
}

/// `run_all` phase by phase, each under its own span. With recording off
/// (as here) `run_all`'s phase wrapper is a pass-through, so the output is
/// the same; the output check holds the traced run to that.
fn run_all_traced(device: &DeviceSpec, t: &mut Tracer) -> Result<Vec<Experiment>> {
    let mut out = Vec::new();
    for (span, phase) in BEFORE_COMBOS {
        out.push(t.span(span, || phase(device))?);
    }
    let (fig2, fig3) = t.span("harness.combos", || {
        combos::run_all(device).map(|r| (fig2::from_results(&r), fig3::from_results(&r)))
    })?;
    out.extend([fig2, fig3]);
    for (span, phase) in AFTER_COMBOS {
        out.push(t.span(span, || phase(device))?);
    }
    Ok(out)
}

pub struct ReproAll {
    device: DeviceSpec,
    /// The committed `results/` files of every experiment, loaded on the
    /// first check.
    expected: Vec<Encoded>,
}

impl Workload for ReproAll {
    type Output = Vec<Encoded>;

    fn prepare(_seed: u64, _tracer: &mut Tracer) -> std::result::Result<Self, String> {
        Ok(ReproAll {
            device: DeviceSpec::a100x(),
            expected: Vec::new(),
        })
    }

    fn iterate(&mut self, _k: usize, t: &mut Tracer) -> Result<Vec<Encoded>> {
        let out = if t.is_on() {
            run_all_traced(&self.device, t)?
        } else {
            experiments::run_all(&self.device)?
        };
        Ok(t.span("harness.encode", || encode(&out)))
    }

    fn check(&mut self, _k: usize, out: Vec<Encoded>) -> std::result::Result<(), String> {
        if self.expected.is_empty() {
            self.expected = out
                .iter()
                .map(|e| {
                    let read = |ext| read_committed(&format!("{}.{ext}", e.id));
                    Ok(Encoded {
                        id: e.id.clone(),
                        files: [read("txt")?, read("csv")?, read("json")?],
                    })
                })
                .collect::<std::result::Result<_, String>>()?;
        }
        if out.len() != self.expected.len() {
            return Err(format!(
                "{} experiments, {} expected",
                out.len(),
                self.expected.len()
            ));
        }
        for (got, want) in out.iter().zip(&self.expected) {
            if got.id != want.id {
                return Err(format!("experiment {}, expected {}", got.id, want.id));
            }
            for (ext, (g, w)) in EXTENSIONS.iter().zip(got.files.iter().zip(&want.files)) {
                if g != w {
                    return Err(format!("results/{}.{ext} differs", got.id));
                }
            }
        }
        Ok(())
    }

    fn extras(&mut self, layers: &mut MetricSet) -> std::result::Result<(), String> {
        let bytes: usize = self
            .expected
            .iter()
            .flat_map(|e| e.files.iter().map(String::len))
            .sum();
        layers.set("harness.encode_bytes", bytes as f64);
        Ok(())
    }
}
