//! Allocation gate: proves the engine's steady-state zero-alloc contract,
//! which the benches can only suggest.
//!
//! With a recycled [`EngineScratch`], every `step()` of a comparable run
//! — contention re-solves, kernel boundaries, telemetry segments, timer
//! churn — touches no heap. The only allowed allocations are the
//! per-client task-completion records (whose buffers were moved into the
//! previous run's result), so at most one allocating step per client. The
//! same bound holds under time slicing, across thousands of quantum
//! rotations served by the time-slice solve cache.
//!
//! The assertions only fire in release builds: debug builds run the
//! engine's self-checking cross-validation paths, which allocate by
//! design. `make check` runs this gate with `--release`. The armed flag
//! and the counter are per thread: the engine steps on the measuring
//! thread, so every allocation it makes is counted, while the test
//! harness's bookkeeping on other threads never lands in a measured
//! window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mpshare::gpusim::{
    ClientProgram, DeviceSpec, Engine, EngineConfig, EngineScratch, SharingMode, ValidatedPrograms,
};
use mpshare::types::Fraction;
use mpshare::workloads::SyntheticSpec;

/// Passthrough to the system allocator that counts the calling thread's
/// allocations (and growth reallocations) while that thread is armed.
struct CountingAlloc;

thread_local! {
    // `const`-initialized and drop-free, so reading them from inside the
    // allocator neither allocates nor registers a destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn count_if_armed() {
    if ARMED.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` armed on this thread and returns its allocation count.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, ALLOCS.with(Cell::get) - before)
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
    let clients = programs.len();

    // Warm-up run grows every scratch buffer to this roster's size and
    // records the telemetry segment count for the recycled run's hint.
    let roster = ValidatedPrograms::new(&config.device, programs).unwrap();
    let warm_up = Engine::new(config.clone(), roster, EngineScratch::default())
        .unwrap()
        .run()
        .unwrap();
    let reference = warm_up.result;

    let mut engine = Engine::new(config, warm_up.roster, warm_up.scratch).unwrap();
    let mut per_step: Vec<u64> = Vec::with_capacity(1 << 16);
    loop {
        let (more, allocs) = measured(|| engine.step().unwrap());
        assert!(per_step.len() < per_step.capacity(), "step budget exceeded");
        per_step.push(allocs);
        if !more {
            break;
        }
    }
    let result = engine.run().unwrap().result;
    assert_eq!(
        serde_json::to_string(&result).unwrap(),
        serde_json::to_string(&reference).unwrap(),
        "recycled run must be bit-identical to the warm-up run"
    );

    let total: u64 = per_step.iter().sum();
    let dirty_steps = per_step.iter().filter(|&&a| a > 0).count();

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
