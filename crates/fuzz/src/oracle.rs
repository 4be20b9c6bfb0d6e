//! Invariant oracle: runs one scenario through the real execution paths
//! (`GpuRunner` or `OnlineScheduler`) and checks every cross-cutting
//! invariant the simulator and scheduler promise. A passing scenario also
//! yields a canonical output digest, which the zoo replayer pins against
//! drift.
//!
//! Checks, by scenario kind:
//!
//! **Engine** (direct simulator run)
//! * `invariant` — the full [`RunResult::invariant_violations`] suite:
//!   task-ledger closure, wasted-work totals vs per-client sums,
//!   fault/victim consistency, energy = telemetry integral, timeline
//!   sanity, no kernel activity after a client's abort.
//! * `event-log` — an event-logged run with ≥ 1 task must produce a
//!   non-empty log (this is the check that caught MIG dropping its
//!   instance logs on merge).
//! * `energy-floor` — board energy ≥ idle power × covered time (non-MIG:
//!   MIG instances integrate their own sliced idle draw).
//! * `cache-vs-full` — the run repeated with the time-slice solve cache
//!   bypassed (a contention solve at every resident-set change) must be
//!   bit-identical (serialized `RunResult` equality).
//! * `order` — the canonical completion sequence must be a pure function
//!   of the completion records: seeded permutations of every per-client
//!   completion list, re-indexed, and the unindexed fallback path must
//!   all reproduce the same `(at, client, task)`-ordered sequence.
//! * `attribution` — for MPS/Streams, the per-client slowdown
//!   decomposition must close: every exactly-attributed client has
//!   |residual| ≤ 1e-9, and exactness coincides with completion.
//!
//! **Online** (planner + dispatcher)
//! * `outcome` — finiteness, goodput ≡ tasks / makespan, energy floor.
//! * `conservation` — fault-free runs complete every task and report no
//!   retries, faults, failures, or wasted energy; faulty runs never
//!   complete more than the queue holds, and failed-workflow indices are
//!   unique and in range.
//! * `determinism` — a second identical run must serialize identically.

use crate::scenario::{
    EngineScenario, MechanismSpec, OnlineScenario, PriorityChoice, RunSpec, Scenario,
    StrategyChoice,
};
use mpshare_core::{
    ArrivingWorkflow, ExecutorConfig, MetricPriority, OnlineFaultModel, OnlineOutcome,
    OnlineScheduler, Planner, PlannerStrategy, RecoveryPolicy,
};
use mpshare_gpusim::{
    ClientProgram, DeviceSpec, Engine, EngineConfig, FaultPlan, RunResult, SharingMode,
};
use mpshare_mps::{GpuRunner, GpuSharing, MigLayout, MigProfile, TimeSliceConfig};
use mpshare_profiler::ProfileStore;
use mpshare_types::{Error, Fraction, Power, Result, Seconds};
use mpshare_workloads::{ProblemSize, WorkflowSpec};

/// Attribution residual bound (the identity the paper's §V decomposition
/// promises for completed clients).
pub const ATTRIB_EPS: f64 = 1e-9;

/// One failed invariant: which check fired and what it saw.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Violation {
    pub check: String,
    pub detail: String,
}

impl Violation {
    fn new(check: &str, detail: impl Into<String>) -> Self {
        Violation {
            check: check.into(),
            detail: detail.into(),
        }
    }
}

/// Outcome of running the oracle on one scenario.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Every invariant that failed (empty = scenario is clean).
    pub violations: Vec<Violation>,
    /// FNV-1a digest of the canonical serialized output — identical
    /// across serial/parallel runs and across processes.
    pub digest: String,
}

/// FNV-1a 64-bit over bytes: tiny, dependency-free, deterministic.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Validates and runs `scenario`, returning the oracle report. `Err` is
/// reserved for malformed scenarios (validation failures) and internal
/// run errors — both count as failures for the campaign.
pub fn check_scenario(scenario: &Scenario) -> Result<OracleReport> {
    scenario.validate()?;
    match &scenario.run {
        RunSpec::Engine(e) => check_engine(e),
        RunSpec::Online(o) => check_online(o),
    }
}

fn build_device(sc: &EngineScenario) -> DeviceSpec {
    let mut device = DeviceSpec::a100x();
    if let Some(w) = sc.power_cap_watts {
        device.power_cap = Power::from_watts(w);
    }
    device
}

fn build_programs(sc: &EngineScenario, device: &DeviceSpec) -> Result<Vec<ClientProgram>> {
    sc.clients
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut p = c
                .workload
                .to_client_program(device, c.tasks, (i as u64) * 1000)?;
            p.label = c.id.clone();
            p.arrival = Seconds::new(c.arrival);
            Ok(p)
        })
        .collect()
}

fn build_sharing(sc: &EngineScenario, device: &DeviceSpec) -> Result<GpuSharing> {
    Ok(match &sc.mechanism {
        MechanismSpec::Sequential => GpuSharing::Sequential,
        MechanismSpec::Streams => GpuSharing::Streams,
        MechanismSpec::TimeSliced {
            quantum_us,
            switch_us,
        } => GpuSharing::TimeSliced(TimeSliceConfig::new(
            Seconds::new(quantum_us * 1e-6),
            Seconds::new(switch_us * 1e-6),
        )?),
        MechanismSpec::Mps { partitions } => GpuSharing::Mps {
            partitions: partitions.iter().map(|&p| Fraction::new(p)).collect(),
        },
        MechanismSpec::Mig { slices, assignment } => {
            let profiles: Vec<MigProfile> = slices
                .iter()
                .map(|s| match s {
                    1 => Ok(MigProfile::OneSlice),
                    2 => Ok(MigProfile::TwoSlice),
                    3 => Ok(MigProfile::ThreeSlice),
                    4 => Ok(MigProfile::FourSlice),
                    7 => Ok(MigProfile::SevenSlice),
                    other => Err(Error::InvalidConfig(format!("bad MIG slice count {other}"))),
                })
                .collect::<Result<_>>()?;
            GpuSharing::Mig {
                layout: MigLayout::new(device, &profiles)?,
                assignment: assignment.clone(),
            }
        }
    })
}

fn build_fault_plan(sc: &EngineScenario) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for f in &sc.faults {
        plan.push_client_fault(Seconds::new(f.at), f.client);
    }
    plan
}

fn canonical_result(result: &RunResult) -> String {
    serde_json::to_string(result).expect("RunResult serializes")
}

fn check_engine(sc: &EngineScenario) -> Result<OracleReport> {
    let device = build_device(sc);
    let programs = build_programs(sc, &device)?;
    let sharing = build_sharing(sc, &device)?;
    let faults = build_fault_plan(sc);
    let total_tasks = sc.total_tasks();

    let runner = GpuRunner::new(device.clone())
        .with_event_log(true)
        .with_sharing_overhead(sc.sharing_overhead);
    let result = runner.run_with_faults(&sharing, programs.clone(), &faults)?;

    let mut violations: Vec<Violation> = result
        .invariant_violations(Some(total_tasks))
        .into_iter()
        .map(|detail| Violation::new("invariant", detail))
        .collect();

    // Event-log presence: every scenario has ≥ 1 client with ≥ 1 task,
    // so an event-logged run must record *something* (at minimum the
    // first TaskStart or the aborting ClientFault). An empty log means a
    // mechanism path dropped it — exactly the MIG merge bug.
    if result.events.is_empty() {
        violations.push(Violation::new(
            "event-log",
            format!(
                "event logging was on and {total_tasks} tasks ran, but the merged log is empty"
            ),
        ));
    }

    // Board-energy floor: the device draws at least idle power over the
    // whole covered span. MIG is exempt — each instance integrates its
    // own sliced idle draw and the merged telemetry is a boundary sweep.
    if !matches!(sc.mechanism, MechanismSpec::Mig { .. }) {
        let covered = result.telemetry.total_time().value();
        let floor = device.idle_power.watts() * covered;
        let energy = result.telemetry.total_energy().joules();
        if energy < floor * (1.0 - 1e-9) - 1e-9 {
            violations.push(Violation::new(
                "energy-floor",
                format!(
                    "board energy {energy:.6} J below idle floor {floor:.6} J over {covered:.6} s"
                ),
            ));
        }
    }

    // Time-slice solve cache vs forced full re-solve: bit-identical.
    let full = runner
        .clone()
        .with_forced_full_resolve(true)
        .run_with_faults(&sharing, programs.clone(), &faults)?;
    let canon_cached = canonical_result(&result);
    let canon_full = canonical_result(&full);
    if canon_cached != canon_full {
        let at = canon_cached
            .bytes()
            .zip(canon_full.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| canon_cached.len().min(canon_full.len()));
        violations.push(Violation::new(
            "cache-vs-full",
            format!(
                "cached and full-resolve results diverge at byte {at} \
                 (lens {} vs {})",
                canon_cached.len(),
                canon_full.len()
            ),
        ));
    }

    // Completion-order canonicalization: the `(at, client, task)` key is
    // total over distinct records, so the canonical sequence must be a
    // pure function of the records — independent of how the per-client
    // lists were assembled and of whether the precomputed index or the
    // merge-and-sort fallback produced it. Equal-time ties across clients
    // are exactly where an underspecified key would leak insertion order.
    let completion_seq = |r: &RunResult| -> String {
        serde_json::to_string(&r.completions()).expect("completions serialize")
    };
    let reference_seq = completion_seq(&result);
    let mut fallback = result.clone();
    fallback.completion_order.clear();
    if completion_seq(&fallback) != reference_seq {
        violations.push(Violation::new(
            "order",
            "unindexed completions() fallback diverged from the precomputed index".to_string(),
        ));
    }
    for seed in 0..8u64 {
        let mut shuffled = result.clone();
        for (ci, client) in shuffled.clients.iter_mut().enumerate() {
            // Seeded Fisher-Yates via the engine's own splitmix64 stream:
            // reproducible, no external RNG.
            for i in (1..client.completions.len()).rev() {
                let draw = mpshare_gpusim::unit_hash(seed, &[ci as u64, i as u64]);
                let j = (draw * (i + 1) as f64) as usize;
                client.completions.swap(i, j.min(i));
            }
        }
        shuffled.index_completions();
        if completion_seq(&shuffled) != reference_seq {
            violations.push(Violation::new(
                "order",
                format!("completion permutation seed {seed} changed the canonical sequence"),
            ));
        }
    }

    // Attribution identity (MPS / Streams only — the modes `attribute`
    // defines the decomposition for).
    let mode = match &sc.mechanism {
        MechanismSpec::Mps { partitions } => Some(SharingMode::Mps {
            partitions: partitions.iter().map(|&p| Fraction::new(p)).collect(),
        }),
        MechanismSpec::Streams => Some(SharingMode::Streams),
        _ => None,
    };
    let mut attrib_canon = String::new();
    if let Some(mode) = mode {
        // Mirror the runner: shared-domain mechanisms widen every fault.
        let config = EngineConfig::new(device.clone(), mode)
            .with_sharing_overhead(sc.sharing_overhead)
            .with_event_log(true)
            .with_fault_plan(faults.widen_to_domain());
        let attrib_result = Engine::new(config.clone(), programs.clone())?.run()?;
        let report = mpshare_obs::attribute(&config, &programs, &attrib_result)?;
        for c in &report.clients {
            if c.exact != c.completed {
                violations.push(Violation::new(
                    "attribution",
                    format!(
                        "client {} ({}): exact={} but completed={}",
                        c.client, c.label, c.exact, c.completed
                    ),
                ));
            }
            for (name, v) in [
                ("solo_turnaround", c.solo_turnaround),
                ("shared_turnaround", c.shared_turnaround),
                ("slowdown", c.slowdown),
                ("residual", c.residual),
            ] {
                if !v.is_finite() {
                    violations.push(Violation::new(
                        "attribution",
                        format!("client {} ({}): {name} is {v}", c.client, c.label),
                    ));
                }
            }
            if c.exact && c.residual.abs() > ATTRIB_EPS {
                violations.push(Violation::new(
                    "attribution",
                    format!(
                        "client {} ({}): residual {:.3e} exceeds {ATTRIB_EPS:.0e} \
                         — the slowdown decomposition does not close",
                        c.client, c.label, c.residual
                    ),
                ));
            }
            attrib_canon.push_str(&format!(
                "{}:{}:{}:{:?}:{:?};",
                c.client, c.completed, c.exact, c.slowdown, c.residual
            ));
        }
    }

    let digest = format!(
        "{:016x}",
        fnv1a64(format!("{canon_cached}|{attrib_canon}").as_bytes())
    );
    Ok(OracleReport { violations, digest })
}

fn check_online(sc: &OnlineScenario) -> Result<OracleReport> {
    let device = DeviceSpec::a100x();
    let specs: Vec<WorkflowSpec> = sc
        .workflows
        .iter()
        .map(|w| WorkflowSpec::uniform(w.kind, ProblemSize::new(w.size), w.iterations))
        .collect();
    let mut store = ProfileStore::new();
    store.profile_workflows(&device, &specs)?;
    let arrivals: Vec<ArrivingWorkflow> = specs
        .iter()
        .zip(&sc.workflows)
        .map(|(spec, w)| ArrivingWorkflow {
            spec: spec.clone(),
            arrival: Seconds::new(w.arrival),
        })
        .collect();

    let priority = match sc.priority {
        PriorityChoice::Throughput => MetricPriority::Throughput,
        PriorityChoice::Energy => MetricPriority::Energy,
        PriorityChoice::Product => MetricPriority::balanced_product(),
    };
    let strategy = match sc.strategy {
        StrategyChoice::Greedy => PlannerStrategy::Greedy,
        StrategyChoice::BestFit => PlannerStrategy::BestFit,
        StrategyChoice::Auto => PlannerStrategy::Auto,
    };
    let run_once = |force_cold: bool| -> Result<OnlineOutcome> {
        let scheduler = OnlineScheduler::new(
            ExecutorConfig::new(device.clone()),
            Planner::new(device.clone(), priority).with_forced_cold_start(force_cold),
            strategy,
        );
        match &sc.fault {
            None => scheduler.run(&arrivals, &store),
            Some(f) => scheduler.run_with_recovery(
                &arrivals,
                &store,
                Some(&OnlineFaultModel::new(f.seed, f.rate)?),
                &RecoveryPolicy::default(),
            ),
        }
    };

    let outcome = run_once(false)?;
    let mut violations = Vec::new();
    let total_tasks = sc.total_tasks();

    for (name, v) in [
        ("makespan", outcome.makespan.value()),
        ("energy", outcome.energy.joules()),
        ("mean_wait", outcome.mean_wait.value()),
        ("wasted_energy", outcome.wasted_energy.joules()),
        ("goodput", outcome.goodput),
    ] {
        if !v.is_finite() || v < 0.0 {
            violations.push(Violation::new(
                "outcome",
                format!("{name} must be finite and ≥ 0, got {v}"),
            ));
        }
    }
    let expect_goodput = if outcome.makespan.value() > 0.0 {
        outcome.tasks as f64 / outcome.makespan.value()
    } else {
        0.0
    };
    if (outcome.goodput - expect_goodput).abs() > 1e-9 * expect_goodput.max(1.0) {
        violations.push(Violation::new(
            "outcome",
            format!(
                "goodput {} ≠ tasks/makespan {}",
                outcome.goodput, expect_goodput
            ),
        ));
    }
    let floor = device.idle_power.watts() * outcome.makespan.value();
    if outcome.energy.joules() < floor * (1.0 - 1e-9) - 1e-9 {
        violations.push(Violation::new(
            "outcome",
            format!(
                "energy {:.6} J below idle floor {floor:.6} J over the makespan",
                outcome.energy.joules()
            ),
        ));
    }

    if sc.fault.is_none() {
        if outcome.tasks != total_tasks {
            violations.push(Violation::new(
                "conservation",
                format!(
                    "fault-free run completed {} of {total_tasks} queued tasks",
                    outcome.tasks
                ),
            ));
        }
        if outcome.retries != 0
            || outcome.faults != 0
            || !outcome.failed_workflows.is_empty()
            || outcome.wasted_energy.joules() != 0.0
        {
            violations.push(Violation::new(
                "conservation",
                format!(
                    "fault-free run reports retries={} faults={} failed={:?} wasted={} J",
                    outcome.retries,
                    outcome.faults,
                    outcome.failed_workflows,
                    outcome.wasted_energy.joules()
                ),
            ));
        }
    } else {
        if outcome.tasks > total_tasks {
            violations.push(Violation::new(
                "conservation",
                format!(
                    "run completed {} tasks but the queue only holds {total_tasks}",
                    outcome.tasks
                ),
            ));
        }
        let mut seen = std::collections::BTreeSet::new();
        for &w in &outcome.failed_workflows {
            if w >= sc.workflows.len() {
                violations.push(Violation::new(
                    "conservation",
                    format!("failed workflow index {w} out of range"),
                ));
            }
            if !seen.insert(w) {
                violations.push(Violation::new(
                    "conservation",
                    format!("workflow {w} reported failed more than once"),
                ));
            }
        }
    }

    // Full-run determinism: an identical second run must serialize
    // byte-identically (planner, dispatcher, and fault draws are all
    // seeded and order-free).
    let canon = serde_json::to_string(&outcome).expect("outcome serializes");
    let second = run_once(false)?;
    let canon2 = serde_json::to_string(&second).expect("outcome serializes");
    if canon != canon2 {
        violations.push(Violation::new(
            "determinism",
            "two identical online runs produced different outcomes".to_string(),
        ));
    }

    // Warm-vs-cold planner equivalence: the scheduler replans with
    // warm-started state carried across free points; forcing every
    // planning call cold through the planner's escape hatch must yield a
    // byte-identical outcome, or the warm path changed a decision.
    let cold = run_once(true)?;
    let canon_cold = serde_json::to_string(&cold).expect("outcome serializes");
    if canon != canon_cold {
        violations.push(Violation::new(
            "warm_cold",
            "warm-started online run diverged from the forced-cold run".to_string(),
        ));
    }

    let digest = format!("{:016x}", fnv1a64(canon.as_bytes()));
    Ok(OracleReport { violations, digest })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ClientSpec, FaultPoint, OnlineEntry, OnlineFaultSpec};
    use mpshare_workloads::{BenchmarkKind, SyntheticSpec};

    fn quick_workload() -> SyntheticSpec {
        SyntheticSpec {
            sm_demand: 0.5,
            bw_demand: 0.2,
            duty_cycle: 0.8,
            duration: 0.5,
            memory_mib: 256,
            kernels: 2,
            cache_sensitivity: 0.1,
            client_sensitivity: 0.1,
        }
    }

    fn mps_scenario(faults: Vec<FaultPoint>) -> Scenario {
        Scenario {
            seed: 0,
            name: "test/mps".into(),
            expected_digest: None,
            run: RunSpec::Engine(EngineScenario {
                clients: (0..2)
                    .map(|i| ClientSpec {
                        id: format!("c{i}"),
                        arrival: 0.1 * i as f64,
                        tasks: 2,
                        workload: quick_workload(),
                    })
                    .collect(),
                mechanism: MechanismSpec::Mps {
                    partitions: vec![0.5, 0.5],
                },
                sharing_overhead: 0.002,
                power_cap_watts: None,
                faults,
            }),
        }
    }

    #[test]
    fn clean_mps_scenario_passes_all_checks() {
        let report = check_scenario(&mps_scenario(vec![])).unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.digest.len(), 16);
    }

    #[test]
    fn faulty_mps_scenario_passes_all_checks() {
        let report =
            check_scenario(&mps_scenario(vec![FaultPoint { at: 0.3, client: 1 }])).unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn oracle_is_deterministic_per_scenario() {
        let sc = mps_scenario(vec![FaultPoint { at: 0.3, client: 0 }]);
        let a = check_scenario(&sc).unwrap();
        let b = check_scenario(&sc).unwrap();
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn clean_online_scenario_passes_all_checks() {
        let sc = Scenario {
            seed: 0,
            name: "test/online".into(),
            expected_digest: None,
            run: RunSpec::Online(OnlineScenario {
                workflows: vec![OnlineEntry {
                    kind: BenchmarkKind::Kripke,
                    size: 1.0,
                    iterations: 2,
                    arrival: 0.0,
                }],
                priority: PriorityChoice::Product,
                strategy: StrategyChoice::Greedy,
                fault: None,
            }),
        };
        let report = check_scenario(&sc).unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn faulty_online_scenario_passes_all_checks() {
        let sc = Scenario {
            seed: 0,
            name: "test/online-faulty".into(),
            expected_digest: None,
            run: RunSpec::Online(OnlineScenario {
                workflows: vec![OnlineEntry {
                    kind: BenchmarkKind::Lammps,
                    size: 1.0,
                    iterations: 1,
                    arrival: 0.0,
                }],
                priority: PriorityChoice::Throughput,
                strategy: StrategyChoice::Greedy,
                fault: Some(OnlineFaultSpec { seed: 7, rate: 0.5 }),
            }),
        };
        let report = check_scenario(&sc).unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn invalid_scenario_is_rejected_before_running() {
        let mut sc = mps_scenario(vec![]);
        if let RunSpec::Engine(e) = &mut sc.run {
            e.clients[1].id = "c0".into();
        }
        let err = check_scenario(&sc).unwrap_err().to_string();
        assert!(err.contains("duplicate"), "{err}");
    }
}
