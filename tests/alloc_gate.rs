//! Allocation gate: proves the perf contracts that the benches can only
//! suggest.
//!
//! * **Engine steady state is zero-alloc.** With a recycled
//!   [`EngineScratch`], every `step()` of a comparable run — contention
//!   re-solves, kernel boundaries, telemetry segments, timer churn —
//!   touches no heap. The only allowed allocations are the per-client
//!   task-completion records (whose buffers were moved into the previous
//!   run's result), so at most one allocating step per client. The same
//!   bound holds under time slicing, across thousands of quantum
//!   rotations served by the time-slice solve cache.
//! * **Warm planning allocates no more than cold planning.** A warm
//!   [`Planner::plan_warm`] call — memo translation included — must not
//!   out-allocate the cold `plan` call it replaces on the same queue.
//!
//! The assertions only fire in release builds: debug builds run the
//! engine's self-checking cross-validation paths, which allocate by
//! design. `make check` runs this gate with `--release` on one test
//! thread (the counter is process-wide, so the harness's own bookkeeping
//! for a finished test must not overlap a measured window).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use mpshare::core::{MetricPriority, PlanWarmState, Planner, PlannerStrategy, WorkflowProfile};
use mpshare::gpusim::{
    ClientProgram, DeviceSpec, Engine, EngineConfig, EngineScratch, SharingMode, ValidatedPrograms,
};
use mpshare::types::{Energy, Fraction, MemBytes, Percent, Power, Seconds};
use mpshare::workloads::SyntheticSpec;

/// Passthrough to the system allocator that counts allocations (and
/// growth reallocations) while armed.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The gates share the one global counter; the test harness runs
/// tests on separate threads, so measured regions must not overlap.
static GATE_LOCK: Mutex<()> = Mutex::new(());

fn measured<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (out, ALLOCS.load(Ordering::SeqCst) - before)
}

const CLIENTS: usize = 8;

fn gate_config() -> EngineConfig {
    EngineConfig::new(
        DeviceSpec::a100x(),
        SharingMode::Mps {
            partitions: vec![Fraction::ONE; CLIENTS],
        },
    )
}

/// One single-task client per slot, many kernel boundaries each, duty
/// cycle < 1 so gap timers churn the resident set: every steady-state
/// engine path fires, but task completions only at each client's end.
fn gate_programs() -> Vec<ClientProgram> {
    let d = DeviceSpec::a100x();
    (0..CLIENTS)
        .map(|i| {
            SyntheticSpec {
                sm_demand: 0.08 + 0.07 * i as f64,
                bw_demand: 0.15,
                duty_cycle: 0.85,
                duration: 4.0,
                memory_mib: 1024,
                kernels: 64,
                cache_sensitivity: 0.3,
                client_sensitivity: 0.05,
            }
            .to_client_program(&d, 1, i as u64 * 100)
            .unwrap()
        })
        .collect()
}

#[test]
fn steady_state_advance_is_alloc_free() {
    assert_steady_state_alloc_free(gate_config(), gate_programs());
}

/// The same contract under time slicing: every quantum rotation and
/// switch completion bumps the resident epoch, and the time-slice solve
/// cache answers those re-solves from a pre-sized per-client column, so
/// thousands of rotations still allocate nothing.
#[test]
fn timesliced_steady_state_is_alloc_free() {
    let config = EngineConfig::new(DeviceSpec::a100x(), SharingMode::timesliced_default());
    assert_steady_state_alloc_free(config, gate_programs().into_iter().take(4).collect());
}

/// Runs `programs` once to warm a scratch, then steps a recycled-scratch
/// run one `step()` at a time under the counting allocator: the recycled
/// run must be bit-identical and allocate only its per-client completion
/// pushes (release builds).
fn assert_steady_state_alloc_free(config: EngineConfig, programs: Vec<ClientProgram>) {
    let _serial = GATE_LOCK.lock().unwrap();
    let clients = programs.len();

    // Warm-up run grows every scratch buffer to this roster's size and
    // records the telemetry segment count for the recycled run's hint.
    let roster = ValidatedPrograms::new(&config.device, programs).unwrap();
    let (reference, _, roster, scratch) =
        Engine::new_prevalidated(config.clone(), roster, EngineScratch::new())
            .unwrap()
            .run_recycling()
            .unwrap();

    let mut engine = Engine::new_prevalidated(config, roster, scratch).unwrap();
    let mut per_step: Vec<u64> = Vec::with_capacity(1 << 16);
    loop {
        let (more, allocs) = measured(|| engine.step().unwrap());
        assert!(per_step.len() < per_step.capacity(), "step budget exceeded");
        per_step.push(allocs);
        if !more {
            break;
        }
    }
    let (result, ..) = engine.run_recycling().unwrap();
    assert_eq!(
        serde_json::to_string(&result).unwrap(),
        serde_json::to_string(&reference).unwrap(),
        "recycled run must be bit-identical to the warm-up run"
    );

    let total: u64 = per_step.iter().sum();
    let dirty_steps = per_step.iter().filter(|&&a| a > 0).count();
    mpshare::obs::counter_add(mpshare::obs::names::ENGINE_STEADY_STATE_ALLOCS, total);

    // Debug builds cross-validate the solve fast paths against full
    // re-solves, which allocates by design; the gate proper is release.
    if cfg!(debug_assertions) {
        return;
    }
    assert!(
        dirty_steps <= clients,
        "expected ≤ {clients} allocating steps (one completion push per \
         client), found {dirty_steps} of {} (allocs per step: {:?})",
        per_step.len(),
        per_step.iter().filter(|&&a| a > 0).collect::<Vec<_>>()
    );
    assert!(
        total <= 2 * clients as u64,
        "steady-state run allocated {total} times (> {})",
        2 * clients
    );
}

fn planner_profiles(generation: usize) -> Vec<WorkflowProfile> {
    (0..10)
        .map(|i| {
            let sm = 12.0 + 8.0 * ((i + 3 * generation) % 10) as f64;
            let power = 75.0 + 1.75 * sm + 10.0;
            WorkflowProfile {
                label: format!("wf-{generation}-{i}"),
                task_count: 4,
                avg_sm_util: Percent::new(sm),
                avg_bw_util: Percent::new(10.0),
                max_memory: MemBytes::from_gib(6 + (i % 4) as u64),
                duration: Seconds::new(40.0 + 5.0 * i as f64),
                energy: Energy::from_joules(power * (40.0 + 5.0 * i as f64)),
                avg_power: Power::from_watts(power),
                busy_fraction: 0.8,
                saturation_partition: Fraction::new(0.6),
            }
        })
        .collect()
}

#[test]
fn warm_planning_allocates_no_more_than_cold() {
    let _serial = GATE_LOCK.lock().unwrap();

    let planner = Planner::new(DeviceSpec::a100x(), MetricPriority::balanced_product());
    let mut state = PlanWarmState::new();

    // Round 0 (unmeasured): fills the warm state and spins up the
    // parallel worker pool so neither measured call pays first-use costs.
    let mut queue: Vec<(u64, WorkflowProfile)> = planner_profiles(0)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (i as u64, p))
        .collect();
    let profiles: Vec<WorkflowProfile> = queue.iter().map(|(_, p)| p.clone()).collect();
    let ids: Vec<u64> = queue.iter().map(|(id, _)| *id).collect();
    planner
        .plan_warm(&profiles, &ids, PlannerStrategy::Exhaustive, &mut state)
        .unwrap();

    // One leave (front dispatched) + one join (fresh arrival): the
    // canonical online churn step.
    queue.remove(0);
    queue.push((100, planner_profiles(1).pop().unwrap()));
    let profiles: Vec<WorkflowProfile> = queue.iter().map(|(_, p)| p.clone()).collect();
    let ids: Vec<u64> = queue.iter().map(|(id, _)| *id).collect();

    let (cold_plan, cold_allocs) = measured(|| {
        planner
            .plan(&profiles, PlannerStrategy::Exhaustive)
            .unwrap()
    });
    let (warm_plan, warm_allocs) = measured(|| {
        planner
            .plan_warm(&profiles, &ids, PlannerStrategy::Exhaustive, &mut state)
            .unwrap()
    });

    assert_eq!(state.warm_hits(), 1, "churn step must take the warm path");
    assert_eq!(
        serde_json::to_string(
            &warm_plan
                .groups
                .iter()
                .map(|g| &g.workflow_indices)
                .collect::<Vec<_>>()
        )
        .unwrap(),
        serde_json::to_string(
            &cold_plan
                .groups
                .iter()
                .map(|g| &g.workflow_indices)
                .collect::<Vec<_>>()
        )
        .unwrap(),
        "warm and cold plans must group identically"
    );

    if cfg!(debug_assertions) {
        return;
    }
    assert!(
        warm_allocs <= cold_allocs,
        "warm planning allocated {warm_allocs} times vs cold {cold_allocs}"
    );
}
