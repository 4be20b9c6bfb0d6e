//! `report_recorded`: `mpshare-repro report` in memory — the only workload
//! that records. One iteration is `harness::report::generate` (recording
//! on) plus the pretty JSON of its dashboard. The timeline export that
//! `report --timeline-out` adds is measured only in the traced run, as
//! `obs.export_ms`: at about four times the rest of the iteration it would
//! cut the timed samples to a fifth. The inputs are the paper's and ignore
//! the seed.

use super::{ms_since, read_committed, Workload};
use crate::metrics::MetricSet;
use crate::stats::median;
use crate::trace::Tracer;
use mpshare_gpusim::DeviceSpec;
use mpshare_harness::experiments::{ext_mechanisms, ext_online};
use mpshare_harness::report;
use serde_json::Value;
use std::time::Instant;

/// Relative tolerance for numbers in the dashboard JSON. The committed
/// file comes from a parallel run, where the order of `gauge_add` calls,
/// and so the last digit of a sum, varies (README.md).
const REL_TOL: f64 = 1e-12;
/// Repetitions of each extra measurement in a traced run.
const EXTRA_REPS: usize = 3;

/// Dashboard text and its parsed JSON.
type Dashboard = (String, Value);

pub struct ReportRecorded {
    device: DeviceSpec,
    committed: Dashboard,
    cold_checked: bool,
    /// The first warm iteration's dashboard. A warm `ProfileCache` leaves
    /// the profiling runs out of the recording, so warm dashboards differ
    /// from the committed (cold) one.
    warm: Option<Dashboard>,
}

/// Compares two JSON trees: same shape, equal strings and booleans,
/// numbers equal to [`REL_TOL`].
fn same_json(a: &Value, b: &Value, path: &mut String) -> Result<(), String> {
    fn mismatch(path: &str) -> Result<(), String> {
        Err(format!(
            "{} differs",
            if path.is_empty() { "/" } else { path }
        ))
    }
    match (a, b) {
        (Value::Object(x), Value::Object(y)) => {
            if x.len() != y.len() {
                return mismatch(path);
            }
            for ((kx, vx), (ky, vy)) in x.iter().zip(y) {
                if kx != ky {
                    return mismatch(path);
                }
                let len = path.len();
                path.push('/');
                path.push_str(kx);
                same_json(vx, vy, path)?;
                path.truncate(len);
            }
            Ok(())
        }
        (Value::Array(x), Value::Array(y)) => {
            if x.len() != y.len() {
                return mismatch(path);
            }
            for (i, (vx, vy)) in x.iter().zip(y).enumerate() {
                let len = path.len();
                path.push_str(&format!("/{i}"));
                same_json(vx, vy, path)?;
                path.truncate(len);
            }
            Ok(())
        }
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) if (x - y).abs() <= REL_TOL * x.abs().max(y.abs()) => Ok(()),
            (Some(x), Some(y)) => Err(format!("{path}: {x} vs {y}")),
            _ if a == b => Ok(()),
            _ => mismatch(path),
        },
    }
}

fn same_dashboard(got: &Dashboard, want: &Dashboard) -> Result<(), String> {
    same_json(&got.1, &want.1, &mut String::new()).map_err(|e| format!("JSON {e}"))?;
    if got.0 != want.0 {
        return Err("text differs".to_string());
    }
    Ok(())
}

/// `ext_mechanisms` and `ext_online`: the runs `report::generate` records.
fn recorded_experiments(device: &DeviceSpec) -> mpshare_types::Result<()> {
    ext_mechanisms::run(device)?;
    ext_online::run(device).map(drop)
}

impl Workload for ReportRecorded {
    type Output = (String, String);

    fn prepare(_seed: u64, _tracer: &mut Tracer) -> Result<Self, String> {
        let json = serde_json::from_str(&read_committed("report.json")?)
            .map_err(|e| format!("results/report.json: {e}"))?;
        Ok(ReportRecorded {
            device: DeviceSpec::a100x(),
            committed: (read_committed("report.txt")?, json),
            cold_checked: false,
            warm: None,
        })
    }

    /// Traced, `report::generate` is taken apart into its recording runs
    /// and `report::build`; the output check holds it to the same result.
    fn iterate(&mut self, _k: usize, t: &mut Tracer) -> mpshare_types::Result<(String, String)> {
        let device = &self.device;
        let dashboard = if t.is_on() {
            t.span("obs.record", || {
                mpshare_obs::set_enabled(true);
                mpshare_obs::recorder().reset();
                recorded_experiments(device)
            })?;
            t.span("obs.build", || {
                report::build(mpshare_obs::timelines(), mpshare_obs::metrics())
            })
        } else {
            report::generate(device)?
        };
        let json = t.span("harness.encode", || {
            serde_json::to_string_pretty(&dashboard.json).expect("dashboards serialize")
        });
        Ok((dashboard.text, json))
    }

    fn check(&mut self, _k: usize, (text, json): (String, String)) -> Result<(), String> {
        let json = serde_json::from_str(&json).map_err(|e| format!("dashboard JSON: {e}"))?;
        let got = (text, json);
        if !self.cold_checked {
            self.cold_checked = true;
            return same_dashboard(&got, &self.committed)
                .map_err(|e| format!("cold report vs results/report.*: {e}"));
        }
        match &self.warm {
            None => {
                if let Err(e) = same_dashboard(&got, &self.committed) {
                    eprintln!("report_recorded: warm dashboard vs results/report.*: {e}");
                }
                self.warm = Some(got);
                Ok(())
            }
            Some(first) => same_dashboard(&got, first).map_err(|e| format!("warm report: {e}")),
        }
    }

    /// What one recorded iteration leaves in the recorder, the cost of
    /// exporting it, and the same runs with recording off.
    fn extras(&mut self, layers: &mut MetricSet) -> Result<(), String> {
        let device = &self.device;
        report::generate(device).map_err(|e| format!("report: {e}"))?;
        let tl = mpshare_obs::timelines();
        let samples: usize = tl
            .series_names()
            .iter()
            .filter_map(|n| tl.with_series(n, |s| s.len()))
            .sum();
        let observations: usize = tl
            .quantile_names()
            .iter()
            .filter_map(|n| tl.with_quantiles(n, |q| q.len()))
            .sum();
        layers.set("obs.records", mpshare_obs::recorder().len() as f64);
        layers.set("obs.series", tl.series_names().len() as f64);
        layers.set("obs.series_samples", samples as f64);
        layers.set("obs.quantile_obs", observations as f64);

        let mut export_ms = Vec::new();
        for _ in 0..EXTRA_REPS {
            let start = Instant::now();
            let export = serde_json::to_string_pretty(&tl.to_json()).expect("exports serialize");
            export_ms.push(ms_since(start));
            layers.set("obs.export_bytes", export.len() as f64);
        }
        layers.set("obs.export_ms", median(&export_ms).unwrap_or(0.0));

        mpshare_obs::set_enabled(false);
        mpshare_obs::recorder().reset();
        let mut unrecorded_ms = Vec::new();
        for _ in 0..EXTRA_REPS {
            let start = Instant::now();
            mpshare_obs::recorder().reset();
            recorded_experiments(device).map_err(|e| format!("unrecorded runs: {e}"))?;
            unrecorded_ms.push(ms_since(start));
        }
        let unrecorded = median(&unrecorded_ms).unwrap_or(0.0);
        layers.set("obs.unrecorded_ms", unrecorded);
        if unrecorded > 0.0 {
            layers.set(
                "obs.record_overhead",
                layers.get("obs.record_ms") / unrecorded,
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_numbers_compare_to_the_relative_tolerance() {
        let parse = |s: &str| serde_json::from_str::<Value>(s).unwrap();
        let a = parse(r#"{"x": [1.0, {"g": 4993.123456789}], "s": "a"}"#);
        let close = parse(r#"{"x": [1.0, {"g": 4993.123456789000001}], "s": "a"}"#);
        let far = parse(r#"{"x": [1.0, {"g": 4993.1234568}], "s": "a"}"#);
        let renamed = parse(r#"{"x": [1.0, {"h": 4993.123456789}], "s": "a"}"#);
        assert!(same_json(&a, &close, &mut String::new()).is_ok());
        assert_eq!(
            same_json(&a, &far, &mut String::new()),
            Err("/x/1/g: 4993.123456789 vs 4993.1234568".to_string())
        );
        assert_eq!(
            same_json(
                &a,
                &parse(r#"{"x": [1.0, {"g": 1}], "s": "b"}"#),
                &mut String::new()
            ),
            Err("/x/1/g: 4993.123456789 vs 1".to_string())
        );
        assert_eq!(
            same_json(
                &parse(r#"{"s": "a"}"#),
                &parse(r#"{"s": "b"}"#),
                &mut String::new()
            ),
            Err("/s differs".to_string())
        );
        assert!(same_json(&a, &renamed, &mut String::new()).is_err());
        assert!(same_json(&parse("[1, 2]"), &parse("[1]"), &mut String::new()).is_err());
    }
}
