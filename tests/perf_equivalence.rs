//! Bitwise-equivalence properties for the engine and planner fast paths.
//!
//! The hot-path work in this repo — the time-slice solve cache and the
//! branch-and-bound exhaustive plan search — is pure optimization: each
//! must return *bit-identical* results to the from-scratch path it
//! replaces. These properties drive randomized workloads (including
//! fault-abort churn) through both paths and compare the full outputs.

use mpshare::core::{MetricPriority, Planner, PlannerStrategy, WorkflowProfile};
use mpshare::gpusim::{
    ClientProgram, DeviceSpec, Engine, EngineConfig, EngineStats, FaultPlan, RunResult, SharingMode,
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
        Engine::new(config, programs_for(specs))
            .unwrap()
            .run_with_stats()
            .unwrap()
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
    /// the unpruned enumeration — not just an equally-scored one — on
    /// random workloads up to n = 10, across every metric priority.
    #[test]
    fn pruned_exhaustive_matches_brute_force(
        profiles in prop::collection::vec(profile_strategy(), 2..8),
        priority in priority_strategy(),
    ) {
        let pruned = Planner::new(device(), priority);
        let brute = pruned.clone().with_exhaustive_pruning(false);
        let fast = pruned.plan(&profiles, PlannerStrategy::Exhaustive).unwrap();
        let slow = brute.plan(&profiles, PlannerStrategy::Exhaustive).unwrap();
        prop_assert_eq!(fast, slow);
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
        let pruned = Planner::new(device(), priority);
        let brute = pruned.clone().with_exhaustive_pruning(false);
        let fast = pruned.plan(&profiles, PlannerStrategy::Exhaustive).unwrap();
        let slow = brute.plan(&profiles, PlannerStrategy::Exhaustive).unwrap();
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
/// drained set once — exactly the kernel-starts + 1 bound.
#[test]
fn timesliced_work_counters_are_pinned() {
    const EVENTS: u64 = 2_409;
    const FORCED_SOLVES: u64 = 2_407;
    const CACHED_SOLVES: u64 = 37;

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
        Engine::new(config, programs.clone())
            .unwrap()
            .run_with_stats()
            .unwrap()
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
}

/// Deterministic work-counter pin on a fixed gap-heavy MPS roster (6
/// clients × 1 task × 24 kernels, duty cycle 0.3, staggered arrivals), so
/// clients leave and rejoin the resident set at almost every kernel
/// boundary. Both counts are the engine's values from when single
/// joins/leaves were spliced into the previous solve instead of re-solved
/// (243 incremental + 45 full solves): there is one solve path now, but
/// the same events and the same number of solves.
#[test]
fn mps_work_counters_are_pinned() {
    const EVENTS: u64 = 293;
    const RATE_SOLVES: u64 = 288;

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
    let (_, stats) = Engine::new(config, programs)
        .unwrap()
        .run_with_stats()
        .unwrap();
    assert_eq!(stats.events, EVENTS);
    assert_eq!(stats.rate_solves, RATE_SOLVES);
}
