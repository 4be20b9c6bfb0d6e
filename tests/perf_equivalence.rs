//! Bitwise-equivalence properties for the engine and planner fast paths.
//!
//! The hot-path work in this repo — the time-slice solve cache and the
//! branch-and-bound exhaustive plan search — is pure optimization: each
//! must return *bit-identical* results to the from-scratch path it
//! replaces. These properties drive randomized workloads (including
//! fault-abort churn) through both paths and compare the full outputs.
//! The plan search is compared against [`brute_force_plan`], a plain
//! enumeration written here from the planner's public API only, and the
//! telemetry's running totals against [`assert_totals_match_folds`], the
//! per-aggregate folds over the segment list they replace, and the group
//! estimator's running totals against [`reference_estimate`] and
//! [`reference_predict`], the per-field folds over a member list.

use mpshare::core::{
    estimate_group, predict, InterferenceKind, InterferenceReport, MetricPriority, PlanGroup,
    Planner, PlannerStrategy, SchedulePlan, WorkflowProfile,
};
use mpshare::gpusim::{
    ClientProgram, DeviceSpec, Engine, EngineConfig, EngineRun, EngineScratch, EngineStats,
    FaultPlan, RunResult, Segment, SharingMode, Telemetry, ValidatedPrograms,
};
use mpshare::types::{Energy, MemBytes, Percent, Power, Seconds};
use mpshare::workloads::SyntheticSpec;
use proptest::prelude::*;

fn device() -> DeviceSpec {
    DeviceSpec::a100x()
}

/// Strategy generating one synthetic workload spec (same envelope as
/// tests/invariants.rs, biased toward host gaps so clients join and leave
/// the resident set many times).
fn spec_strategy() -> impl Strategy<Value = SyntheticSpec> {
    (
        0.02f64..=1.0, // sm_demand
        0.0f64..=0.6,  // bw_demand
        0.2f64..=0.9,  // duty cycle (< 1: every client has gaps)
        1.0f64..=10.0, // duration
        64u64..=4096,  // memory MiB
        2usize..=10,   // kernels
        0.0f64..=1.0,  // cache sensitivity
        0.0f64..=0.15, // client sensitivity
    )
        .prop_map(
            |(sm, bw, duty, duration, memory_mib, kernels, cache, client)| SyntheticSpec {
                sm_demand: sm,
                bw_demand: bw,
                duty_cycle: duty,
                duration,
                memory_mib,
                kernels,
                cache_sensitivity: cache,
                client_sensitivity: client,
            },
        )
}

fn programs_for(specs: &[SyntheticSpec]) -> Vec<ClientProgram> {
    let d = device();
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| s.to_client_program(&d, 1, i as u64 * 100).unwrap())
        .collect()
}

/// Upper bound on kernel starts in a run of `programs` (every kernel of
/// every task; aborted clients start fewer).
fn kernel_starts(programs: &[ClientProgram]) -> u64 {
    programs
        .iter()
        .flat_map(|p| &p.tasks)
        .map(|t| t.kernels.len() as u64)
        .sum()
}

/// Validates `programs` and runs them on fresh engine buffers.
fn run_engine(config: EngineConfig, programs: Vec<ClientProgram>) -> EngineRun {
    let roster = ValidatedPrograms::new(&config.device, programs).unwrap();
    Engine::new(config, roster, EngineScratch::default())
        .unwrap()
        .run()
        .unwrap()
}

/// Runs the programs under the given sharing mode twice — time-slice solve
/// cache allowed vs. forced full re-solve — and returns both outcomes.
fn run_both(
    mode: SharingMode,
    specs: &[SyntheticSpec],
    faults: &FaultPlan,
) -> ((RunResult, EngineStats), (RunResult, EngineStats)) {
    let run = |force: bool| {
        let config = EngineConfig::new(device(), mode.clone())
            .with_fault_plan(faults.clone())
            .with_forced_full_resolve(force);
        let run = run_engine(config, programs_for(specs));
        (run.result, run.stats)
    };
    (run(false), run(true))
}

/// Random profile pool for the plan-search property: utilizations and
/// footprints wide enough that both saturated (SM/BW > 100%) and
/// memory-infeasible groupings occur.
fn profile_strategy() -> impl Strategy<Value = WorkflowProfile> {
    (
        1.0f64..=95.0, // avg sm %
        0.0f64..=70.0, // avg bw %
        1u64..=20,     // max memory GiB
        1.0f64..=30.0, // duration s
        1usize..=6,    // task count
    )
        .prop_map(|(sm, bw, mem_gib, duration, tasks)| {
            let power = 75.0 + 1.75 * sm + bw;
            WorkflowProfile {
                label: format!("prop-{sm:.0}-{bw:.0}"),
                task_count: tasks,
                avg_sm_util: Percent::new(sm),
                avg_bw_util: Percent::new(bw),
                max_memory: MemBytes::from_gib(mem_gib),
                duration: Seconds::new(duration),
                energy: Energy::from_joules(power * duration),
                avg_power: Power::from_watts(power),
                busy_fraction: 0.8,
                saturation_partition: mpshare::types::Fraction::new(0.9),
            }
        })
}

/// Calls `visit` with every set partition of `0..n` as a restricted-growth
/// string (`assign[i]` is item `i`'s group; each item joins a group opened
/// before it or opens the next one), in lexicographic order.
fn for_each_partition(n: usize, visit: &mut impl FnMut(&[usize], usize)) {
    fn grow(
        assign: &mut Vec<usize>,
        groups: usize,
        n: usize,
        visit: &mut impl FnMut(&[usize], usize),
    ) {
        if assign.len() == n {
            visit(assign, groups);
            return;
        }
        for g in 0..=groups {
            assign.push(g);
            grow(assign, groups.max(g + 1), n, visit);
            assign.pop();
        }
    }
    grow(&mut Vec::with_capacity(n), 0, n, visit);
}

/// The exhaustive plan by brute force: every set partition of the queue
/// that fits the device (client limit and memory per group), scored with
/// [`Planner::score_plan`]; the first strictly greater score wins, and the
/// winner's partitions come from the planner's partition strategy.
fn brute_force_plan(
    planner: &Planner,
    device: &DeviceSpec,
    profiles: &[WorkflowProfile],
) -> SchedulePlan {
    let mut best: Option<(f64, SchedulePlan)> = None;
    for_each_partition(profiles.len(), &mut |assign, k| {
        let mut groups = vec![Vec::new(); k];
        for (i, &g) in assign.iter().enumerate() {
            groups[g].push(i);
        }
        let fits = groups.iter().all(|g| {
            let mem: MemBytes = g.iter().map(|&i| profiles[i].max_memory).sum();
            g.len() <= device.max_mps_clients && mem <= device.memory_capacity
        });
        if !fits {
            return;
        }
        // Scores read only the member lists; partitions are filled in for
        // the winner alone.
        let plan = SchedulePlan {
            groups: groups
                .into_iter()
                .map(|workflow_indices| PlanGroup {
                    workflow_indices,
                    partitions: Vec::new(),
                })
                .collect(),
        };
        let score = planner.score_plan(&plan, profiles);
        if best.as_ref().is_none_or(|(s, _)| score > *s) {
            best = Some((score, plan));
        }
    });
    let (_, mut plan) = best.expect("a feasible partition exists");
    for g in &mut plan.groups {
        let members: Vec<&WorkflowProfile> =
            g.workflow_indices.iter().map(|&i| &profiles[i]).collect();
        g.partitions = planner.partition_strategy().partitions(&members);
    }
    plan
}

fn priority_strategy() -> impl Strategy<Value = MetricPriority> {
    (0usize..3).prop_map(|i| match i {
        0 => MetricPriority::Throughput,
        1 => MetricPriority::Energy,
        _ => MetricPriority::balanced_product(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The time-slice solve cache must be invisible: quantum rotations and
    /// switch completions that reuse a cached `{}`/`{active}` solution
    /// produce a `RunResult` bit-identical to re-solving every
    /// resident-set change, across random rotation/fault sequences —
    /// while never running more full solves than kernel starts + 1.
    #[test]
    fn timeslice_reuse_matches_full_resolve(
        specs in prop::collection::vec(spec_strategy(), 2..5),
        fault_seed in 0u64..1000,
    ) {
        let programs = programs_for(&specs);
        let horizons: Vec<Seconds> = programs.iter().map(|p| p.solo_wall_time()).collect();
        let faults = FaultPlan::seeded(fault_seed, &horizons, 0.5).unwrap();
        let ((reuse_result, reuse_stats), (full_result, full_stats)) =
            run_both(SharingMode::timesliced_default(), &specs, &faults);
        prop_assert_eq!(
            serde_json::to_string(&reuse_result).unwrap(),
            serde_json::to_string(&full_result).unwrap(),
            "time-slice reuse vs full resolve diverged (stats {:?} vs {:?})",
            reuse_stats,
            full_stats
        );
        prop_assert_eq!(reuse_stats.events, full_stats.events);
        prop_assert!(reuse_stats.rate_solves <= kernel_starts(&programs) + 1);
    }

    /// Branch-and-bound exhaustive planning must return the *same plan* as
    /// the brute-force enumeration — not just an equally-scored one — on
    /// random workloads, across every metric priority.
    #[test]
    fn pruned_exhaustive_matches_brute_force(
        profiles in prop::collection::vec(profile_strategy(), 2..8),
        priority in priority_strategy(),
    ) {
        let planner = Planner::new(device(), priority);
        let fast = planner.plan(&profiles, PlannerStrategy::Exhaustive).unwrap();
        prop_assert_eq!(fast, brute_force_plan(&planner, &device(), &profiles));
    }
}

/// One deterministic full-width case at the n = 10 support boundary
/// (Bell(10) = 115 975 partitions), kept out of the randomized loop so the
/// suite's runtime stays bounded.
#[test]
fn pruned_exhaustive_matches_brute_force_n10() {
    let mk = |i: u64| {
        let sm = 10.0 + (i as f64 * 13.7) % 85.0;
        let bw = (i as f64 * 7.3) % 60.0;
        let duration = 2.0 + (i as f64 * 3.1) % 20.0;
        let power = 75.0 + 1.75 * sm + bw;
        WorkflowProfile {
            label: format!("n10-{i}"),
            task_count: 1 + (i as usize % 4),
            avg_sm_util: Percent::new(sm),
            avg_bw_util: Percent::new(bw),
            max_memory: MemBytes::from_gib(1 + i % 16),
            duration: Seconds::new(duration),
            energy: Energy::from_joules(power * duration),
            avg_power: Power::from_watts(power),
            busy_fraction: 0.8,
            saturation_partition: mpshare::types::Fraction::new(0.9),
        }
    };
    let profiles: Vec<WorkflowProfile> = (0..10).map(mk).collect();
    for priority in [
        MetricPriority::Throughput,
        MetricPriority::Energy,
        MetricPriority::balanced_product(),
    ] {
        let planner = Planner::new(device(), priority);
        let fast = planner
            .plan(&profiles, PlannerStrategy::Exhaustive)
            .unwrap();
        let slow = brute_force_plan(&planner, &device(), &profiles);
        assert_eq!(fast, slow, "priority {priority:?}");
    }
}

/// One deterministic sweep across every sharing mechanism the runner
/// supports — Sequential, TimeSliced, MPS, Streams, MIG — fault-free and
/// with a mid-run client fault, pinning the solve fast paths against the
/// forced full re-solve at the `GpuRunner` level. MIG matters here: it
/// runs one engine per instance and merges, so the switch threads through
/// the per-instance configs.
#[test]
fn gpu_runner_fast_paths_match_full_resolve_for_all_mechanisms() {
    use mpshare::mps::{GpuRunner, GpuSharing, MigLayout, MigProfile, TimeSliceConfig};

    let d = device();
    let specs: Vec<SyntheticSpec> = (0..4)
        .map(|i| SyntheticSpec {
            sm_demand: 0.2 + 0.15 * i as f64,
            bw_demand: 0.05 * i as f64,
            duty_cycle: 0.7,
            duration: 1.0 + 0.3 * i as f64,
            memory_mib: 256,
            kernels: 3,
            cache_sensitivity: 0.2,
            client_sensitivity: 0.05,
        })
        .collect();
    let programs = programs_for(&specs);
    let mut faults = FaultPlan::new();
    faults.push_client_fault(Seconds::new(0.9), 1);

    let layout = MigLayout::new(&d, &[MigProfile::ThreeSlice, MigProfile::FourSlice]).unwrap();
    let mechanisms: Vec<(&str, GpuSharing)> = vec![
        ("sequential", GpuSharing::Sequential),
        (
            "timesliced",
            GpuSharing::TimeSliced(TimeSliceConfig::driver_default()),
        ),
        ("mps", GpuSharing::mps_default(4)),
        ("streams", GpuSharing::Streams),
        (
            "mig",
            GpuSharing::Mig {
                layout,
                assignment: vec![0, 1, 0, 1],
            },
        ),
    ];
    for (name, sharing) in &mechanisms {
        for faulty in [false, true] {
            let plan = if faulty {
                faults.clone()
            } else {
                FaultPlan::new()
            };
            let fast = GpuRunner::new(d.clone())
                .with_event_log(true)
                .run_with_faults(sharing, programs.clone(), &plan)
                .unwrap();
            let full = GpuRunner::new(d.clone())
                .with_event_log(true)
                .with_forced_full_resolve(true)
                .run_with_faults(sharing, programs.clone(), &plan)
                .unwrap();
            assert_eq!(
                serde_json::to_string(&fast).unwrap(),
                serde_json::to_string(&full).unwrap(),
                "mechanism {name} (faulty={faulty}) diverged from the full re-solve"
            );
        }
    }
}

/// Deterministic work-counter pin on a fixed time-sliced roster (3
/// clients × 2 tasks × 6 kernels, 2 ms quantum). The event count is the
/// engine's value from before the time-slice solve cache existed: the
/// cache changes which solves run, never which events happen. The forced
/// full re-solve still solves at every resident-set change (2 407 times);
/// the cache solves each of the 36 kernels' `{active}` sets once plus the
/// drained set once — exactly the kernel-starts + 1 bound. Every event
/// records one segment; the telemetry palette holds the initial idle
/// state plus one state per solve, less the 5 solves of the last client's
/// back-to-back identical kernels once it runs alone, which re-intern the
/// state interned just before (33 = 1 + 37 − 5).
#[test]
fn timesliced_work_counters_are_pinned() {
    const EVENTS: u64 = 2_409;
    const FORCED_SOLVES: u64 = 2_407;
    const CACHED_SOLVES: u64 = 37;
    const SEGMENTS: usize = 2_409;
    const STATES: usize = 33;

    let specs: Vec<SyntheticSpec> = (0..3)
        .map(|i| SyntheticSpec {
            sm_demand: 0.3 + 0.2 * i as f64,
            bw_demand: 0.1 + 0.1 * i as f64,
            duty_cycle: 0.8,
            duration: 0.5 + 0.25 * i as f64,
            memory_mib: 512,
            kernels: 6,
            cache_sensitivity: 0.2,
            client_sensitivity: 0.05,
        })
        .collect();
    let d = device();
    let programs: Vec<ClientProgram> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| s.to_client_program(&d, 2, i as u64 * 100).unwrap())
        .collect();
    let run = |force: bool| {
        let config = EngineConfig::new(device(), SharingMode::timesliced_default())
            .with_forced_full_resolve(force);
        let run = run_engine(config, programs.clone());
        (run.result, run.stats)
    };
    let (cached, stats) = run(false);
    let (forced, forced_stats) = run(true);

    assert_eq!(
        serde_json::to_string(&cached).unwrap(),
        serde_json::to_string(&forced).unwrap()
    );
    assert_eq!(stats.events, EVENTS);
    assert_eq!(forced_stats.events, EVENTS);
    assert_eq!(forced_stats.rate_solves, FORCED_SOLVES);
    assert!(stats.rate_solves <= kernel_starts(&programs) + 1);
    assert_eq!(stats.rate_solves, CACHED_SOLVES);
    // Quantum rotations reuse the interned state of their slice solve.
    assert_eq!(cached.telemetry.len(), SEGMENTS);
    assert_eq!(cached.telemetry.state_count(), STATES);
    assert!(STATES as u64 <= CACHED_SOLVES + 1);
}

/// Deterministic work-counter pin on a fixed gap-heavy MPS roster (6
/// clients × 1 task × 24 kernels, duty cycle 0.3, staggered arrivals), so
/// clients leave and rejoin the resident set at almost every kernel
/// boundary. Both counts are the engine's values from when single
/// joins/leaves were spliced into the previous solve instead of re-solved
/// (243 incremental + 45 full solves): there is one solve path now, but
/// the same events and the same number of solves. Every event records one
/// segment, and every solve interns one new state after the initial idle
/// one.
#[test]
fn mps_work_counters_are_pinned() {
    const EVENTS: u64 = 293;
    const RATE_SOLVES: u64 = 288;
    const SEGMENTS: usize = 293;
    const STATES: usize = 289;

    let d = device();
    let programs: Vec<ClientProgram> = (0..6)
        .map(|i| {
            let mut p = SyntheticSpec {
                sm_demand: 0.05 + 0.03 * i as f64,
                bw_demand: 0.02 + 0.02 * i as f64,
                duty_cycle: 0.3,
                duration: 0.4 + 0.1 * i as f64,
                memory_mib: 256,
                kernels: 24,
                cache_sensitivity: 0.2,
                client_sensitivity: 0.05,
            }
            .to_client_program(&d, 1, i as u64 * 100)
            .unwrap();
            p.arrival = Seconds::new(0.013 * i as f64);
            p
        })
        .collect();
    let config = EngineConfig::new(device(), SharingMode::mps_uniform(programs.len()));
    let run = run_engine(config, programs);
    let stats = run.stats;
    assert_eq!(stats.events, EVENTS);
    assert_eq!(stats.rate_solves, RATE_SOLVES);
    assert_eq!(run.result.telemetry.len(), SEGMENTS);
    assert_eq!(run.result.telemetry.state_count(), STATES);
    assert!(STATES as u64 <= RATE_SOLVES + 1);
}

/// The folds `Telemetry` ran over its whole segment list per aggregate
/// before it kept running totals, written here against `segments()` only:
/// each running total must equal its fold bit for bit.
fn assert_totals_match_folds(t: &Telemetry, what: &str) {
    let segments: Vec<Segment> = t.segments().collect();
    assert_eq!(segments.len(), t.len(), "{what}: segment count");
    let time: Seconds = segments.iter().map(|s| s.duration()).sum();
    let energy: Energy = segments.iter().map(|s| s.energy()).sum();
    let capped: Seconds = segments
        .iter()
        .filter(|s| s.capped)
        .map(|s| s.duration())
        .sum();
    let idle: Seconds = segments
        .iter()
        .filter(|s| s.active_clients == 0)
        .map(|s| s.duration())
        .sum();
    let ratio = |part: f64| {
        if time == Seconds::ZERO {
            0.0
        } else {
            part / time.value()
        }
    };
    let weighted_avg = |util: fn(&Segment) -> f64| {
        if time == Seconds::ZERO {
            return Percent::ZERO;
        }
        let integral: f64 = segments
            .iter()
            .map(|s| util(s) * s.duration().value())
            .sum();
        Percent::clamped(integral / time.value() * 100.0)
    };
    let avg_power = if time == Seconds::ZERO {
        Power::ZERO
    } else {
        energy / time
    };
    let pairs = [
        ("total_time", t.total_time().value(), time.value()),
        ("total_energy", t.total_energy().joules(), energy.joules()),
        ("avg_power", t.avg_power().watts(), avg_power.watts()),
        ("capped_time", t.capped_time().value(), capped.value()),
        (
            "capped_fraction",
            t.capped_fraction(),
            ratio(capped.value()),
        ),
        ("idle_time", t.idle_time().value(), idle.value()),
        ("busy_fraction", t.busy_fraction(), {
            if time == Seconds::ZERO {
                0.0
            } else {
                1.0 - idle / time
            }
        }),
        (
            "avg_sm_util",
            t.avg_sm_util().value(),
            weighted_avg(|s| s.sm_util).value(),
        ),
        (
            "avg_bw_util",
            t.avg_bw_util().value(),
            weighted_avg(|s| s.bw_util).value(),
        ),
    ];
    for (name, running, folded) in pairs {
        assert_eq!(
            running.to_bits(),
            folded.to_bits(),
            "{what}: {name} running total {running} != fold {folded}"
        );
    }
}

/// Every `Telemetry` aggregate is a running total folded as segments are
/// recorded. Across every mechanism (MIG through the runner's merge of
/// per-instance timelines), with and without a client fault, with an idle
/// lead-in before the first arrival, and after a serde round trip of the
/// whole `RunResult`, each total equals the reference fold bit for bit.
#[test]
fn telemetry_running_totals_equal_the_reference_folds() {
    use mpshare::mps::{GpuRunner, GpuSharing, MigLayout, MigProfile, TimeSliceConfig};

    let d = device();
    let specs: Vec<SyntheticSpec> = (0..4)
        .map(|i| SyntheticSpec {
            sm_demand: 0.25 + 0.2 * i as f64,
            bw_demand: 0.1 + 0.1 * i as f64,
            duty_cycle: 0.6,
            duration: 0.8 + 0.3 * i as f64,
            memory_mib: 256,
            kernels: 4,
            cache_sensitivity: 0.3,
            client_sensitivity: 0.05,
        })
        .collect();
    let mut faults = FaultPlan::new();
    faults.push_client_fault(Seconds::new(0.7), 2);
    let layout = MigLayout::new(&d, &[MigProfile::ThreeSlice, MigProfile::FourSlice]).unwrap();
    let mechanisms: Vec<(&str, GpuSharing)> = vec![
        ("sequential", GpuSharing::Sequential),
        (
            "timesliced",
            GpuSharing::TimeSliced(TimeSliceConfig::driver_default()),
        ),
        ("mps", GpuSharing::mps_default(4)),
        ("streams", GpuSharing::Streams),
        (
            "mig",
            GpuSharing::Mig {
                layout,
                assignment: vec![0, 1, 0, 1],
            },
        ),
    ];
    for (name, sharing) in &mechanisms {
        for (variant, lead_in, plan) in [
            ("plain", 0.0, FaultPlan::new()),
            ("faulted", 0.0, faults.clone()),
            ("idle lead-in", 0.4, FaultPlan::new()),
        ] {
            let what = format!("{name} ({variant})");
            let mut programs = programs_for(&specs);
            for (i, p) in programs.iter_mut().enumerate() {
                p.arrival = Seconds::new(lead_in + 0.05 * lead_in * i as f64);
            }
            let result = GpuRunner::new(d.clone())
                .run_with_faults(sharing, programs, &plan)
                .unwrap();
            assert!(!result.telemetry.is_empty(), "{what}");
            if lead_in > 0.0 {
                let first = result.telemetry.get(0).unwrap();
                assert_eq!(first.active_clients, 0, "{what}: idle lead-in");
            }
            assert_totals_match_folds(&result.telemetry, &what);

            let json = serde_json::to_string(&result).unwrap();
            let back: RunResult = serde_json::from_str(&json).unwrap();
            assert_eq!(serde_json::to_string(&back).unwrap(), json, "{what}");
            assert_totals_match_folds(&back.telemetry, &format!("{what} round trip"));
            assert_eq!(
                back.telemetry.total_energy().joules().to_bits(),
                result.telemetry.total_energy().joules().to_bits(),
                "{what}: round-trip energy"
            );
        }
    }
}

/// `estimate_group` as per-field folds over the member list, the form the
/// running group totals replace: `.sum()` per float field and the longest
/// stretched duration by `fold(0.0, f64::max)`. Returns (makespan, energy).
fn reference_estimate(device: &DeviceSpec, group: &[&WorkflowProfile]) -> (f64, f64) {
    let sm_sum: f64 = group.iter().map(|p| p.avg_sm_util.value()).sum();
    let bw_sum: f64 = group.iter().map(|p| p.avg_bw_util.value()).sum();
    let stretch = (sm_sum / 100.0).max(bw_sum / 100.0).max(1.0);
    let makespan = group
        .iter()
        .map(|p| p.duration.value() * stretch)
        .fold(0.0, f64::max);
    let dynamic: f64 = group
        .iter()
        .map(|p| p.dynamic_energy(device.idle_power).joules())
        .sum();
    (makespan, device.idle_power.watts() * makespan + dynamic)
}

/// `predict` as per-field folds over the member list.
fn reference_predict(device: &DeviceSpec, group: &[&WorkflowProfile]) -> InterferenceReport {
    let sm_sum: f64 = group.iter().map(|p| p.avg_sm_util.value()).sum();
    let bw_sum: f64 = group.iter().map(|p| p.avg_bw_util.value()).sum();
    let memory_sum: MemBytes = group.iter().map(|p| p.max_memory).sum();
    let mut kinds = Vec::new();
    if sm_sum > 100.0 {
        kinds.push(InterferenceKind::Compute);
    }
    if bw_sum > 100.0 {
        kinds.push(InterferenceKind::MemoryBandwidth);
    }
    if memory_sum > device.memory_capacity {
        kinds.push(InterferenceKind::MemoryCapacity);
    }
    InterferenceReport {
        sm_sum,
        bw_sum,
        memory_sum,
        kinds,
    }
}

/// Profiles for the estimator folds: each field is zero in about a third
/// of draws (zero duration, utilization, memory, and so dynamic energy),
/// and the rest span saturated and memory-infeasible groups.
fn fold_profile_strategy() -> impl Strategy<Value = WorkflowProfile> {
    // Each (selector, value) pair reads 0 when its selector draws 0.
    let zero_or = |(pick, v): (u8, f64)| if pick == 0 { 0.0 } else { v };
    (
        (0u8..3, 0.0f64..=95.0),
        (0u8..3, 0.0f64..=70.0),
        (0u8..3, 1.0f64..=40.0),
        (0u8..3, 0.0f64..=30.0),
        75.0f64..=400.0,
    )
        .prop_map(move |(sm, bw, mem_gib, duration, power)| {
            let (sm, bw, duration) = (zero_or(sm), zero_or(bw), zero_or(duration));
            WorkflowProfile {
                label: format!("fold-{sm:.0}-{bw:.0}"),
                task_count: 1,
                avg_sm_util: Percent::new(sm),
                avg_bw_util: Percent::new(bw),
                max_memory: MemBytes::from_gib(zero_or(mem_gib) as u64),
                duration: Seconds::new(duration),
                energy: Energy::from_joules(power * duration),
                avg_power: Power::from_watts(power),
                busy_fraction: 0.8,
                saturation_partition: mpshare::types::Fraction::new(0.9),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The estimator and the interference rule add members to running
    /// group totals; on member lists of any order, that equals the
    /// per-field folds bit for bit.
    #[test]
    fn group_totals_equal_the_reference_folds(
        profiles in prop::collection::vec(fold_profile_strategy(), 1..=12),
    ) {
        let d = device();
        let group: Vec<&WorkflowProfile> = profiles.iter().collect();
        let e = estimate_group(&d, &group);
        let (makespan, energy) = reference_estimate(&d, &group);
        prop_assert_eq!(e.makespan.value().to_bits(), makespan.to_bits());
        prop_assert_eq!(e.energy.joules().to_bits(), energy.to_bits());

        let r = predict(&d, &group);
        let reference = reference_predict(&d, &group);
        prop_assert_eq!(r.sm_sum.to_bits(), reference.sm_sum.to_bits());
        prop_assert_eq!(r.bw_sum.to_bits(), reference.bw_sum.to_bits());
        prop_assert_eq!(r.memory_sum, reference.memory_sum);
        prop_assert_eq!(r.kinds, reference.kinds);
    }
}
