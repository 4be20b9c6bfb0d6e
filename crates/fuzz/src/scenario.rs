//! Scenario model: a self-contained, serializable description of one
//! simulator or scheduler run, plus the seeded generator that produces
//! reproducible scenarios across the whole configuration space.
//!
//! Determinism contract: `Scenario::generate(seed)` draws every value
//! through [`mpshare_gpusim::unit_hash`] keyed by `(seed, lane tags)` —
//! a pure function with no process state — so the same seed produces the
//! same scenario on every machine, every run, serial or parallel. The
//! JSON form is canonical: field order is struct order, and replaying a
//! serialized scenario is bit-identical to replaying the generated one.

use mpshare_gpusim::unit_hash;
use mpshare_types::{Error, Result};
use mpshare_workloads::{BenchmarkKind, ProblemSize, SyntheticSpec};
use serde::{Deserialize, Serialize};

/// One fuzz scenario: a seed (provenance), a human-readable name, an
/// optional pinned output digest (for zoo regression replay), and the
/// run description itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Seed this scenario was generated from (0 for hand-written ones).
    pub seed: u64,
    /// Short descriptive name, e.g. `engine/mps-3c-2f`.
    pub name: String,
    /// Pinned FNV-1a digest of the oracle's canonical output. When set,
    /// replay fails if the produced digest differs (output drift).
    #[serde(default)]
    pub expected_digest: Option<String>,
    /// The run description.
    pub run: RunSpec,
}

/// What kind of run the scenario describes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RunSpec {
    /// A direct `GpuRunner` run: explicit clients, mechanism, faults.
    Engine(EngineScenario),
    /// An `OnlineScheduler` run: arriving workflows through the planner.
    Online(OnlineScenario),
}

/// A direct simulator run under one sharing mechanism.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineScenario {
    pub clients: Vec<ClientSpec>,
    pub mechanism: MechanismSpec,
    /// Per-co-runner MPS overhead (shared scheduling hardware pressure).
    #[serde(default)]
    pub sharing_overhead: f64,
    /// Override of the device software power cap, watts.
    #[serde(default)]
    pub power_cap_watts: Option<f64>,
    /// Fatal client faults to inject, by client index.
    #[serde(default)]
    pub faults: Vec<FaultPoint>,
}

/// One client process: a synthetic workload repeated `tasks` times.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientSpec {
    /// Unique client id; becomes the program label.
    pub id: String,
    /// Arrival time, seconds.
    #[serde(default)]
    pub arrival: f64,
    /// Number of identical tasks in the program.
    pub tasks: usize,
    pub workload: SyntheticSpec,
}

/// A fatal client fault at a point in simulated time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPoint {
    pub at: f64,
    pub client: usize,
}

/// Sharing-mechanism choice, mirroring `mpshare_mps::GpuSharing` but in
/// plain-JSON-friendly units.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MechanismSpec {
    Sequential,
    TimeSliced {
        quantum_us: f64,
        switch_us: f64,
    },
    Mps {
        /// Per-client SM partitions in `(0, 1]`, one per client.
        partitions: Vec<f64>,
    },
    Streams,
    Mig {
        /// MIG instance sizes in slices; each ∈ {1,2,3,4,7}, sum ≤ 7.
        slices: Vec<u32>,
        /// `assignment[i]` = instance index of client `i`.
        assignment: Vec<usize>,
    },
}

/// An online-scheduler run: a queue of arriving benchmark workflows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineScenario {
    pub workflows: Vec<OnlineEntry>,
    pub priority: PriorityChoice,
    pub strategy: StrategyChoice,
    /// Seeded dispatch-fault model (`None` = fault-free).
    #[serde(default)]
    pub fault: Option<OnlineFaultSpec>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineEntry {
    pub kind: BenchmarkKind,
    /// Problem-size scale factor (≥ 1).
    pub size: f64,
    pub iterations: usize,
    /// Arrival time, seconds.
    #[serde(default)]
    pub arrival: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PriorityChoice {
    Throughput,
    Energy,
    Product,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StrategyChoice {
    Greedy,
    BestFit,
    Auto,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineFaultSpec {
    pub seed: u64,
    pub rate: f64,
}

fn bad(msg: String) -> Error {
    Error::InvalidConfig(msg)
}

fn check_unit(ctx: &str, field: &str, v: f64, lo: f64, hi: f64) -> Result<()> {
    if !v.is_finite() || v < lo || v > hi {
        return Err(bad(format!(
            "{ctx}: {field} must be finite in [{lo}, {hi}], got {v}"
        )));
    }
    Ok(())
}

impl Scenario {
    /// Validates every field, naming the offending one in the error.
    /// This is the parse-time gate: the harness and the zoo replayer
    /// reject a scenario before any simulation runs.
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(bad("scenario: name must be non-empty".into()));
        }
        match &self.run {
            RunSpec::Engine(e) => e.validate(),
            RunSpec::Online(o) => o.validate(),
        }
    }

    /// Canonical JSON form (used for repro files and shrinker output).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario serializes")
    }

    pub fn from_json(body: &str) -> Result<Self> {
        serde_json::from_str(body).map_err(|e| bad(format!("scenario parse error: {e}")))
    }
}

impl EngineScenario {
    pub fn validate(&self) -> Result<()> {
        let n = self.clients.len();
        if n == 0 {
            return Err(bad("engine: clients must be non-empty".into()));
        }
        if n > 48 {
            return Err(bad(format!(
                "engine: clients.len() must be ≤ 48 (MPS client limit), got {n}"
            )));
        }
        for (i, c) in self.clients.iter().enumerate() {
            let ctx = format!("engine.clients[{i}]");
            if c.id.is_empty() {
                return Err(bad(format!("{ctx}: id must be non-empty")));
            }
            if let Some(j) = self.clients[..i].iter().position(|p| p.id == c.id) {
                return Err(bad(format!(
                    "{ctx}: duplicate client id {:?} (also clients[{j}])",
                    c.id
                )));
            }
            if !c.arrival.is_finite() || c.arrival < 0.0 {
                return Err(bad(format!(
                    "{ctx}: arrival must be finite and ≥ 0, got {}",
                    c.arrival
                )));
            }
            if c.tasks == 0 {
                return Err(bad(format!("{ctx}: tasks must be ≥ 1, got 0")));
            }
            c.workload.validate_fields(&format!("{ctx}.workload"))?;
        }
        check_unit(
            "engine",
            "sharing_overhead",
            self.sharing_overhead,
            0.0,
            0.5,
        )?;
        if let Some(w) = self.power_cap_watts {
            if !w.is_finite() || w <= 0.0 {
                return Err(bad(format!(
                    "engine: power_cap_watts must be finite and > 0, got {w}"
                )));
            }
        }
        for (i, f) in self.faults.iter().enumerate() {
            if !f.at.is_finite() || f.at < 0.0 {
                return Err(bad(format!(
                    "engine.faults[{i}]: at must be finite and ≥ 0, got {}",
                    f.at
                )));
            }
            if f.client >= n {
                return Err(bad(format!(
                    "engine.faults[{i}]: client {} out of range (have {n} clients)",
                    f.client
                )));
            }
        }
        match &self.mechanism {
            MechanismSpec::Sequential | MechanismSpec::Streams => {}
            MechanismSpec::TimeSliced {
                quantum_us,
                switch_us,
            } => {
                if !quantum_us.is_finite() || *quantum_us <= 0.0 {
                    return Err(bad(format!(
                        "engine.mechanism: quantum_us must be finite and > 0, got {quantum_us}"
                    )));
                }
                if !switch_us.is_finite() || *switch_us < 0.0 {
                    return Err(bad(format!(
                        "engine.mechanism: switch_us must be finite and ≥ 0, got {switch_us}"
                    )));
                }
            }
            MechanismSpec::Mps { partitions } => {
                if partitions.len() != n {
                    return Err(bad(format!(
                        "engine.mechanism: partitions.len() = {} must equal clients.len() = {n}",
                        partitions.len()
                    )));
                }
                for (i, p) in partitions.iter().enumerate() {
                    if !p.is_finite() || *p <= 0.0 || *p > 1.0 {
                        return Err(bad(format!(
                            "engine.mechanism: partitions[{i}] must be finite in (0, 1], got {p}"
                        )));
                    }
                }
            }
            MechanismSpec::Mig { slices, assignment } => {
                if slices.is_empty() {
                    return Err(bad("engine.mechanism: slices must be non-empty".into()));
                }
                let mut sum = 0u32;
                for (i, s) in slices.iter().enumerate() {
                    if ![1, 2, 3, 4, 7].contains(s) {
                        return Err(bad(format!(
                            "engine.mechanism: slices[{i}] must be one of 1/2/3/4/7, got {s}"
                        )));
                    }
                    sum += s;
                }
                if sum > 7 {
                    return Err(bad(format!(
                        "engine.mechanism: slices sum to {sum}, exceeding the 7 available"
                    )));
                }
                if assignment.len() != n {
                    return Err(bad(format!(
                        "engine.mechanism: assignment.len() = {} must equal clients.len() = {n}",
                        assignment.len()
                    )));
                }
                for (i, a) in assignment.iter().enumerate() {
                    if *a >= slices.len() {
                        return Err(bad(format!(
                            "engine.mechanism: assignment[{i}] = {a} out of range \
                             (have {} instances)",
                            slices.len()
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Total tasks across all clients.
    pub fn total_tasks(&self) -> usize {
        self.clients.iter().map(|c| c.tasks).sum()
    }
}

impl OnlineScenario {
    pub fn validate(&self) -> Result<()> {
        if self.workflows.is_empty() {
            return Err(bad("online: workflows must be non-empty".into()));
        }
        for (i, w) in self.workflows.iter().enumerate() {
            let ctx = format!("online.workflows[{i}]");
            if !ProblemSize::is_valid_factor(w.size) {
                return Err(bad(format!(
                    "{ctx}: size must be finite and in [1, {}], got {}",
                    ProblemSize::MAX.factor(),
                    w.size
                )));
            }
            if w.iterations == 0 {
                return Err(bad(format!("{ctx}: iterations must be ≥ 1, got 0")));
            }
            if !w.arrival.is_finite() || w.arrival < 0.0 {
                return Err(bad(format!(
                    "{ctx}: arrival must be finite and ≥ 0, got {}",
                    w.arrival
                )));
            }
        }
        if let Some(f) = &self.fault {
            check_unit("online.fault", "rate", f.rate, 0.0, 1.0)?;
        }
        Ok(())
    }

    pub fn total_tasks(&self) -> usize {
        self.workflows.iter().map(|w| w.iterations).sum()
    }
}

// ---------------------------------------------------------------------------
// Seeded generation.
// ---------------------------------------------------------------------------

/// Lane tags for `unit_hash` draws — distinct per field so draws are
/// independent. Values are arbitrary but must never change (they are the
/// generator's wire format: same seed must mean the same scenario
/// forever).
mod lane {
    pub const KIND: u64 = 0x01;
    pub const N_CLIENTS: u64 = 0x02;
    pub const MECHANISM: u64 = 0x03;
    pub const OVERHEAD: u64 = 0x04;
    pub const POWER_CAP: u64 = 0x05;
    pub const N_FAULTS: u64 = 0x06;
    pub const FAULT_AT: u64 = 0x07;
    pub const FAULT_CLIENT: u64 = 0x08;
    pub const PARTITION: u64 = 0x09;
    pub const MIG_LAYOUT: u64 = 0x0a;
    pub const MIG_ASSIGN: u64 = 0x0b;
    pub const TS_QUANTUM: u64 = 0x0c;
    pub const TS_SWITCH: u64 = 0x0d;
    pub const SM: u64 = 0x10;
    pub const BW: u64 = 0x11;
    pub const DUTY: u64 = 0x12;
    pub const DURATION: u64 = 0x13;
    pub const MEMORY: u64 = 0x14;
    pub const KERNELS: u64 = 0x15;
    pub const CACHE: u64 = 0x16;
    pub const CLIENT_SENS: u64 = 0x17;
    pub const TASKS: u64 = 0x18;
    pub const ARRIVAL: u64 = 0x19;
    pub const N_WORKFLOWS: u64 = 0x20;
    pub const WF_KIND: u64 = 0x21;
    pub const WF_SIZE: u64 = 0x22;
    pub const WF_ITER: u64 = 0x23;
    pub const WF_ARRIVAL: u64 = 0x24;
    pub const PRIORITY: u64 = 0x25;
    pub const STRATEGY: u64 = 0x26;
    pub const ONLINE_FAULT: u64 = 0x27;
    pub const ONLINE_RATE: u64 = 0x28;
}

/// Valid MIG layouts the generator draws from (slice sizes, sum ≤ 7).
const MIG_LAYOUTS: [&[u32]; 4] = [&[7], &[3, 4], &[2, 2, 3], &[1, 2, 4]];

fn range(u: f64, lo: f64, hi: f64) -> f64 {
    lo + u * (hi - lo)
}

fn pick(u: f64, n: usize) -> usize {
    ((u * n as f64) as usize).min(n - 1)
}

impl Scenario {
    /// Generates the scenario for `seed`. Pure: every draw goes through
    /// `unit_hash(seed, lanes)`, so generation is order-free and
    /// identical across serial and parallel campaigns.
    pub fn generate(seed: u64) -> Scenario {
        let d = |tag: u64, idx: u64| unit_hash(seed, &[tag, idx]);
        // ~1 in 6 scenarios exercises the online scheduler (slower per
        // run: profiling + planning + dispatch sims).
        if d(lane::KIND, 0) < 0.17 {
            Self::generate_online(seed)
        } else {
            Self::generate_engine(seed)
        }
    }

    fn generate_engine(seed: u64) -> Scenario {
        let d = |tag: u64, idx: u64| unit_hash(seed, &[tag, idx]);
        let n = 1 + pick(d(lane::N_CLIENTS, 0), 4);

        let clients: Vec<ClientSpec> = (0..n)
            .map(|i| {
                let di = |tag: u64| d(tag, i as u64);
                ClientSpec {
                    id: format!("c{i}"),
                    arrival: (range(di(lane::ARRIVAL), 0.0, 1.5) * 1e3).round() / 1e3,
                    tasks: 1 + pick(di(lane::TASKS), 3),
                    workload: SyntheticSpec {
                        sm_demand: range(di(lane::SM), 0.05, 1.0),
                        bw_demand: range(di(lane::BW), 0.0, 0.6),
                        duty_cycle: range(di(lane::DUTY), 0.25, 1.0),
                        duration: range(di(lane::DURATION), 0.3, 3.0),
                        memory_mib: 128 + (di(lane::MEMORY) * 8064.0) as u64,
                        kernels: 1 + pick(di(lane::KERNELS), 6),
                        cache_sensitivity: range(di(lane::CACHE), 0.0, 1.0),
                        client_sensitivity: range(di(lane::CLIENT_SENS), 0.0, 0.5),
                    },
                }
            })
            .collect();

        let mechanism = match pick(d(lane::MECHANISM, 0), 5) {
            0 => MechanismSpec::Sequential,
            1 => MechanismSpec::TimeSliced {
                quantum_us: range(d(lane::TS_QUANTUM, 0), 500.0, 5000.0).round(),
                switch_us: range(d(lane::TS_SWITCH, 0), 50.0, 200.0).round(),
            },
            2 => MechanismSpec::Mps {
                partitions: (0..n)
                    .map(|i| {
                        (range(d(lane::PARTITION, i as u64), 0.15, 1.0) * 100.0).round() / 100.0
                    })
                    .collect(),
            },
            3 => MechanismSpec::Streams,
            _ => {
                let layout = MIG_LAYOUTS[pick(d(lane::MIG_LAYOUT, 0), MIG_LAYOUTS.len())];
                MechanismSpec::Mig {
                    slices: layout.to_vec(),
                    assignment: (0..n)
                        .map(|i| pick(d(lane::MIG_ASSIGN, i as u64), layout.len()))
                        .collect(),
                }
            }
        };

        let sharing_overhead = match pick(d(lane::OVERHEAD, 0), 3) {
            0 => 0.0,
            1 => 0.002,
            _ => 0.01,
        };
        // A quarter of scenarios tighten the power cap to force DVFS
        // throttling (cap stays above the A100X 75 W idle draw).
        let power_cap_watts = if d(lane::POWER_CAP, 0) < 0.25 {
            Some(range(d(lane::POWER_CAP, 1), 150.0, 400.0).round())
        } else {
            None
        };

        let n_faults = pick(d(lane::N_FAULTS, 0), 3);
        let faults: Vec<FaultPoint> = (0..n_faults)
            .map(|i| FaultPoint {
                at: (range(d(lane::FAULT_AT, i as u64), 0.1, 4.0) * 1e3).round() / 1e3,
                client: pick(d(lane::FAULT_CLIENT, i as u64), n),
            })
            .collect();

        let mech_name = match &mechanism {
            MechanismSpec::Sequential => "seq",
            MechanismSpec::TimeSliced { .. } => "ts",
            MechanismSpec::Mps { .. } => "mps",
            MechanismSpec::Streams => "streams",
            MechanismSpec::Mig { .. } => "mig",
        };
        Scenario {
            seed,
            name: format!("engine/{mech_name}-{n}c-{n_faults}f"),
            expected_digest: None,
            run: RunSpec::Engine(EngineScenario {
                clients,
                mechanism,
                sharing_overhead,
                power_cap_watts,
                faults,
            }),
        }
    }

    fn generate_online(seed: u64) -> Scenario {
        let d = |tag: u64, idx: u64| unit_hash(seed, &[tag, idx]);
        let n = 1 + pick(d(lane::N_WORKFLOWS, 0), 3);
        const SIZES: [f64; 3] = [1.0, 2.0, 4.0];
        let workflows: Vec<OnlineEntry> = (0..n)
            .map(|i| OnlineEntry {
                kind: BenchmarkKind::ALL
                    [pick(d(lane::WF_KIND, i as u64), BenchmarkKind::ALL.len())],
                size: SIZES[pick(d(lane::WF_SIZE, i as u64), SIZES.len())],
                iterations: 1 + pick(d(lane::WF_ITER, i as u64), 3),
                arrival: range(d(lane::WF_ARRIVAL, i as u64), 0.0, 30.0).round(),
            })
            .collect();
        let priority = match pick(d(lane::PRIORITY, 0), 3) {
            0 => PriorityChoice::Throughput,
            1 => PriorityChoice::Energy,
            _ => PriorityChoice::Product,
        };
        let strategy = match pick(d(lane::STRATEGY, 0), 3) {
            0 => StrategyChoice::Greedy,
            1 => StrategyChoice::BestFit,
            _ => StrategyChoice::Auto,
        };
        let fault = if d(lane::ONLINE_FAULT, 0) < 0.3 {
            Some(OnlineFaultSpec {
                seed: seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1),
                rate: (range(d(lane::ONLINE_RATE, 0), 0.02, 0.3) * 100.0).round() / 100.0,
            })
        } else {
            None
        };
        let f_tag = if fault.is_some() { "faulty" } else { "clean" };
        Scenario {
            seed,
            name: format!("online/{n}w-{f_tag}"),
            expected_digest: None,
            run: RunSpec::Online(OnlineScenario {
                workflows,
                priority,
                strategy,
                fault,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_valid() {
        for seed in 0..200u64 {
            let a = Scenario::generate(seed);
            let b = Scenario::generate(seed);
            assert_eq!(a, b, "seed {seed} not reproducible");
            a.validate()
                .unwrap_or_else(|e| panic!("seed {seed} generated invalid scenario: {e}"));
            // JSON round-trip preserves the scenario exactly.
            let back = Scenario::from_json(&a.to_json()).unwrap();
            assert_eq!(a, back, "seed {seed} JSON round-trip drifted");
        }
    }

    #[test]
    fn generator_covers_all_mechanisms() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..300u64 {
            if let RunSpec::Engine(e) = &Scenario::generate(seed).run {
                seen.insert(match &e.mechanism {
                    MechanismSpec::Sequential => "seq",
                    MechanismSpec::TimeSliced { .. } => "ts",
                    MechanismSpec::Mps { .. } => "mps",
                    MechanismSpec::Streams => "streams",
                    MechanismSpec::Mig { .. } => "mig",
                });
            } else {
                seen.insert("online");
            }
        }
        assert_eq!(seen.len(), 6, "missing coverage: {seen:?}");
    }

    fn engine_scenario() -> Scenario {
        Scenario {
            seed: 0,
            name: "hand/one".into(),
            expected_digest: None,
            run: RunSpec::Engine(EngineScenario {
                clients: vec![ClientSpec {
                    id: "a".into(),
                    arrival: 0.0,
                    tasks: 1,
                    workload: SyntheticSpec::light(),
                }],
                mechanism: MechanismSpec::Streams,
                sharing_overhead: 0.0,
                power_cap_watts: None,
                faults: vec![],
            }),
        }
    }

    #[test]
    fn validation_names_the_offending_field() {
        let mut dup = engine_scenario();
        if let RunSpec::Engine(e) = &mut dup.run {
            let mut second = e.clients[0].clone();
            second.id = "a".into();
            e.clients.push(second);
        }
        let err = dup.validate().unwrap_err().to_string();
        assert!(
            err.contains("clients[1]") && err.contains("duplicate"),
            "{err}"
        );

        let mut zero = engine_scenario();
        if let RunSpec::Engine(e) = &mut zero.run {
            e.clients[0].tasks = 0;
        }
        let err = zero.validate().unwrap_err().to_string();
        assert!(err.contains("tasks must be ≥ 1"), "{err}");

        let mut neg = engine_scenario();
        if let RunSpec::Engine(e) = &mut neg.run {
            e.clients[0].workload.duration = -1.0;
        }
        let err = neg.validate().unwrap_err().to_string();
        assert!(err.contains("duration"), "{err}");

        let mut nan_cap = engine_scenario();
        if let RunSpec::Engine(e) = &mut nan_cap.run {
            e.power_cap_watts = Some(f64::NAN);
        }
        let err = nan_cap.validate().unwrap_err().to_string();
        assert!(err.contains("power_cap_watts"), "{err}");

        let mut bad_fault = engine_scenario();
        if let RunSpec::Engine(e) = &mut bad_fault.run {
            e.faults.push(FaultPoint { at: 1.0, client: 9 });
        }
        let err = bad_fault.validate().unwrap_err().to_string();
        assert!(
            err.contains("faults[0]") && err.contains("out of range"),
            "{err}"
        );

        let bad_online = Scenario {
            seed: 0,
            name: "hand/online".into(),
            expected_digest: None,
            run: RunSpec::Online(OnlineScenario {
                workflows: vec![OnlineEntry {
                    kind: BenchmarkKind::Kripke,
                    size: 0.0,
                    iterations: 1,
                    arrival: 0.0,
                }],
                priority: PriorityChoice::Product,
                strategy: StrategyChoice::Auto,
                fault: None,
            }),
        };
        let err = bad_online.validate().unwrap_err().to_string();
        assert!(
            err.contains("workflows[0]") && err.contains("size"),
            "{err}"
        );
    }
}
