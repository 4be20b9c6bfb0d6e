//! Piecewise-constant-rate discrete-event execution engine.
//!
//! The engine advances simulated time between *events* (kernel completion,
//! host-gap expiry, client arrival, time-slice quantum expiry). Between
//! events the set of resident kernels is fixed, so the contention solver's
//! rates are constant and the time of the next completion is exact. This
//! makes the simulation deterministic and free of time-stepping error.
//!
//! Three sharing modes are supported, mirroring the paper's §II-B:
//!
//! * [`SharingMode::Mps`] — all clients resident concurrently, each with an
//!   SM partition (active thread percentage). Memory bandwidth, caches and
//!   scheduling hardware are shared (the contention model).
//! * [`SharingMode::TimeSliced`] — the default GPU scheduler: one client's
//!   kernels on the device at a time, rotated with a quantum and a context
//!   switch overhead. Host-side phases (setup, gaps) still overlap, which
//!   is why time-slicing retains *some* benefit over sequential for bursty
//!   workloads.
//! * [`SharingMode::Sequential`] — jobs run strictly one after another in
//!   queue order with no overlap of any kind: the paper's baseline for
//!   both throughput and energy-efficiency comparisons.

use crate::contention::{Allocation, ContentionSolver, PreparedContender, SolveScratch};
use crate::device::DeviceSpec;
use crate::equeue::MonotoneEventQueue;
use crate::events::{Event, EventKind, EventLog};
use crate::fault::{FaultPlan, FaultRecord, FaultScope, FaultSpec};
use crate::power::{PowerModel, PowerState};
use crate::program::{ClientProgram, ValidatedPrograms};
use crate::telemetry::{Segment, Telemetry};
use mpshare_types::{Energy, Error, Fraction, MemBytes, Result, Seconds, TaskId};
use serde::{Deserialize, Serialize};

/// How resident clients share the GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SharingMode {
    /// CUDA MPS: concurrent execution with per-client SM partitions.
    /// `partitions[i]` is client `i`'s active thread percentage as a
    /// fraction; partitions may oversubscribe (sum > 1).
    Mps { partitions: Vec<Fraction> },
    /// Default time-sliced scheduler.
    TimeSliced {
        quantum: Seconds,
        switch_overhead: Seconds,
    },
    /// Strict sequential execution in client order (the paper's baseline).
    Sequential,
    /// CUDA Streams: all "clients" are streams of one fused process. They
    /// execute concurrently with no partitions, share one address space
    /// (no memory protection — but footprints still consume capacity),
    /// and pay no per-client MPS pressure. Resource contention still
    /// applies.
    Streams,
}

impl SharingMode {
    /// MPS with every client at a 100 % partition (the MPS default).
    pub fn mps_uniform(clients: usize) -> SharingMode {
        SharingMode::Mps {
            partitions: vec![Fraction::ONE; clients],
        }
    }

    /// Time slicing with defaults representative of the driver scheduler:
    /// a 2 ms quantum and a 100 µs context-switch penalty.
    pub fn timesliced_default() -> SharingMode {
        SharingMode::TimeSliced {
            quantum: Seconds::from_millis(2.0),
            switch_overhead: Seconds::from_millis(0.1),
        }
    }
}

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    pub device: DeviceSpec,
    pub mode: SharingMode,
    /// Device-level per-co-runner slowdown (see [`ContentionSolver`]).
    pub sharing_overhead: f64,
    /// Safety valve: abort after this many events (guards against
    /// pathological quantum settings).
    pub max_events: u64,
    /// Record a discrete-event log (task/kernel boundaries, memory
    /// blocking, throttle transitions, context switches). Off by default:
    /// long sweeps don't need it and it costs memory.
    pub record_events: bool,
    /// Faults to inject (empty by default: with no plan installed, every
    /// code path behaves exactly as before).
    pub faults: FaultPlan,
    /// Testing hook: bypass the time-slice solve cache and re-solve every
    /// resident-set change from scratch. Results are bit-identical either
    /// way (that is the cache's contract); this is the reference the
    /// equivalence tests and the fuzz oracle compare the cache against.
    pub force_full_resolve: bool,
}

impl EngineConfig {
    pub fn new(device: DeviceSpec, mode: SharingMode) -> Self {
        EngineConfig {
            device,
            mode,
            sharing_overhead: 0.0,
            max_events: 50_000_000,
            record_events: false,
            faults: FaultPlan::default(),
            force_full_resolve: false,
        }
    }

    pub fn with_sharing_overhead(mut self, overhead: f64) -> Self {
        self.sharing_overhead = overhead;
        self
    }

    pub fn with_event_log(mut self, record: bool) -> Self {
        self.record_events = record;
        self
    }

    pub fn with_fault_plan(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// See [`EngineConfig::force_full_resolve`].
    pub fn with_forced_full_resolve(mut self, force: bool) -> Self {
        self.force_full_resolve = force;
        self
    }
}

/// Completion record for one workflow task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskCompletion {
    pub task: TaskId,
    pub label: String,
    pub client: usize,
    pub at: Seconds,
}

/// Per-client summary of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientOutcome {
    pub label: String,
    /// When the client's first task began setup.
    pub started: Seconds,
    /// When the client's last task completed (or was aborted).
    pub finished: Seconds,
    /// Integrated GPU progress time (Σ rate·dt over its kernels).
    pub gpu_progress: Seconds,
    pub completions: Vec<TaskCompletion>,
    /// Whether an injected fault aborted this client before completion.
    #[serde(default, skip_serializing_if = "is_false")]
    pub failed: bool,
    /// GPU progress on the task in flight when the client was aborted —
    /// work that produced no completed task.
    #[serde(default, skip_serializing_if = "seconds_is_zero")]
    pub wasted_progress: Seconds,
    /// Dynamic energy attributed to that lost in-flight work.
    #[serde(default, skip_serializing_if = "energy_is_zero")]
    pub wasted_energy: Energy,
    /// Total dynamic energy attributed to this client over the run
    /// (its share of the board's above-idle draw, integrated).
    #[serde(default, skip_serializing_if = "energy_is_zero")]
    pub dyn_energy: Energy,
}

fn is_false(b: &bool) -> bool {
    !*b
}

fn seconds_is_zero(s: &Seconds) -> bool {
    s.value() == 0.0
}

fn energy_is_zero(e: &Energy) -> bool {
    e.joules() == 0.0
}

fn usize_is_zero(n: &usize) -> bool {
    *n == 0
}

fn failures_is_empty(f: &[FaultRecord]) -> bool {
    f.is_empty()
}

/// Result of one engine run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    pub telemetry: Telemetry,
    pub clients: Vec<ClientOutcome>,
    /// Time of the last completion.
    pub makespan: Seconds,
    pub total_energy: Energy,
    pub tasks_completed: usize,
    /// Injected faults that fired, in firing order. Empty without a
    /// [`FaultPlan`] (or when every planned fault missed its target).
    #[serde(default, skip_serializing_if = "failures_is_empty")]
    pub failures: Vec<FaultRecord>,
    /// Tasks left uncompleted on aborted clients.
    #[serde(default, skip_serializing_if = "usize_is_zero")]
    pub tasks_failed: usize,
    /// GPU progress lost on tasks in flight when their client was aborted.
    #[serde(default, skip_serializing_if = "seconds_is_zero")]
    pub wasted_progress: Seconds,
    /// Dynamic energy attributed to that lost work.
    #[serde(default, skip_serializing_if = "energy_is_zero")]
    pub wasted_energy: Energy,
    /// Discrete-event log; empty unless `EngineConfig::record_events`.
    pub events: EventLog,
    /// Time-sorted `(client, completion)` index pairs, precomputed once at
    /// the end of [`Engine::run`] so [`RunResult::completions`] does not
    /// merge and re-sort on every call. Never serialized (the per-client
    /// lists are authoritative); rebuilt lazily when absent, e.g. after
    /// deserialization or literal construction.
    #[serde(default, skip_serializing_if = "completion_order_skip")]
    pub completion_order: Vec<(usize, usize)>,
}

fn completion_order_skip(_order: &[(usize, usize)]) -> bool {
    true
}

impl RunResult {
    /// Tasks completed per second over the makespan — the raw quantity
    /// behind the paper's throughput metric. Under fault injection only
    /// completed tasks count, so this is also the run's *goodput*.
    pub fn throughput(&self) -> f64 {
        if self.makespan == Seconds::ZERO {
            0.0
        } else {
            self.tasks_completed as f64 / self.makespan.value()
        }
    }

    /// Fraction of all GPU progress that was wasted on aborted in-flight
    /// tasks (per-client `gpu_progress` includes the lost work, so this is
    /// `wasted / total`). Zero for a fault-free run.
    pub fn wasted_fraction(&self) -> f64 {
        let total: f64 = self.clients.iter().map(|c| c.gpu_progress.value()).sum();
        let wasted = self.wasted_progress.value();
        if wasted == 0.0 || total <= 0.0 {
            0.0
        } else {
            wasted / total
        }
    }

    /// Canonical completion order: time, then client, then task id. The
    /// explicit tie-break makes equal-time completions across clients a
    /// pure function of the records themselves — never of flattening or
    /// insertion order (merged multi-instance results flatten in instance
    /// order, which is exactly where the old at-only sort leaked it).
    fn completion_key(c: &TaskCompletion) -> (Seconds, usize, TaskId) {
        (c.at, c.client, c.task)
    }

    /// All task completions across clients, in canonical
    /// `(at, client, task)` order.
    ///
    /// Uses the precomputed [`RunResult::completion_order`] when it is
    /// consistent with the client lists; otherwise falls back to merging
    /// and sorting in place (both paths sort by the same canonical key, so
    /// they produce identical sequences).
    pub fn completions(&self) -> Vec<&TaskCompletion> {
        let total: usize = self.clients.iter().map(|c| c.completions.len()).sum();
        if self.completion_order.len() == total && total > 0 {
            return self
                .completion_order
                .iter()
                .map(|&(c, k)| &self.clients[c].completions[k])
                .collect();
        }
        let mut all: Vec<&TaskCompletion> = self
            .clients
            .iter()
            .flat_map(|c| c.completions.iter())
            .collect();
        all.sort_by(|a, b| {
            Self::completion_key(a)
                .partial_cmp(&Self::completion_key(b))
                .expect("finite times")
        });
        all
    }

    /// (Re)builds [`RunResult::completion_order`] from the per-client
    /// completion lists, in canonical `(at, client, task)` order. Called at
    /// the end of [`Engine::run`] and after multi-instance merges.
    pub fn index_completions(&mut self) {
        let mut order: Vec<(usize, usize)> = self
            .clients
            .iter()
            .enumerate()
            .flat_map(|(c, out)| (0..out.completions.len()).map(move |k| (c, k)))
            .collect();
        order.sort_by(|&(ca, ka), &(cb, kb)| {
            let a = Self::completion_key(&self.clients[ca].completions[ka]);
            let b = Self::completion_key(&self.clients[cb].completions[kb]);
            a.partial_cmp(&b).expect("finite times")
        });
        self.completion_order = order;
    }
}

/// Progress-resolution epsilon: counters within this of zero are complete.
const EPS: f64 = 1e-9;

/// Per-client lifecycle phase. Pure tag — the associated countdowns live
/// in dense arrays ([`ClientColumns::run_rem`] for running kernels, the
/// engine's `timer_rem` for setup/gap timers), so phase dispatch never
/// touches a payload and the hot loops iterate plain `f64` slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Process not yet arrived (or not yet eligible under Sequential).
    Pending,
    /// Blocked waiting for device memory for the current task.
    WaitingMemory,
    /// Host-side setup of the current task (countdown in `timer_rem`).
    Setup,
    /// Current kernel resident on the GPU (solo-seconds in `run_rem`).
    Running,
    /// Host-side gap after a kernel (countdown in `timer_rem`).
    Gap,
    /// All tasks finished.
    Done,
    /// Aborted by an injected fault; terminal like `Done`, but the
    /// client's remaining tasks never completed.
    Failed,
}

impl Phase {
    /// Terminal either way: completed all tasks or aborted by a fault.
    #[inline]
    fn is_terminated(self) -> bool {
        matches!(self, Phase::Done | Phase::Failed)
    }
}

/// Placeholder for slots whose client has no kernel resident. Never read:
/// `prepared` is consulted only for clients in `Phase::Running`, and every
/// kernel start overwrites its slot.
const IDLE_PREPARED: PreparedContender = PreparedContender {
    speed_cap: 0.0,
    sm_demand: 0.0,
    bw_demand: 0.0,
    cache_sensitivity: 0.0,
    client_sensitivity: 0.0,
    power_scale: 0.0,
};

/// Structure-of-arrays per-client state (DESIGN.md §11).
///
/// The engine's hot loops (the event-horizon scan, the progress/energy
/// application, the timer decrement) each touch one or two scalar fields
/// of every client per event. Flattening the former per-client struct
/// into dense slot-indexed columns means those loops stream contiguous
/// `f64` arrays instead of striding across ~200-byte records, and the
/// columns are recycled across runs through [`EngineScratch`] so a
/// steady-state [`Engine::step`] allocates nothing (pinned by
/// `tests/alloc_gate.rs`).
#[derive(Debug, Default)]
struct ClientColumns {
    phase: Vec<Phase>,
    task_idx: Vec<usize>,
    kernel_idx: Vec<usize>,
    /// Solo-seconds left of the current kernel (valid while `Running`).
    run_rem: Vec<f64>,
    held_memory: Vec<MemBytes>,
    started: Vec<Option<Seconds>>,
    finished: Vec<Option<Seconds>>,
    /// Integrated GPU progress time (Σ rate·dt over the client's kernels).
    gpu_progress: Vec<f64>,
    /// GPU progress on the current (uncompleted) task; reset when the
    /// task completes, harvested as wasted work on abort.
    task_progress: Vec<f64>,
    /// Dynamic energy attributed to the current task (same lifecycle).
    task_dyn_energy: Vec<f64>,
    /// Total dynamic energy attributed to the client over the run.
    dyn_energy: Vec<f64>,
    /// Wasted work harvested at abort time.
    wasted_progress: Vec<f64>,
    wasted_energy: Vec<f64>,
    failed: Vec<bool>,
    /// Invariant solve inputs of the current kernel, computed once when it
    /// starts (valid only while the client is `Running`).
    prepared: Vec<PreparedContender>,
    /// Time-sliced solve cache: the solved state of the singleton
    /// scheduled set `{i}`, a pure function of `prepared[i]`. Filled by
    /// the first full solve of `{i}`, cleared when a kernel starts.
    slice_solution: Vec<Option<SliceSolution>>,
    completions: Vec<Vec<TaskCompletion>>,
}

/// Solved rate/power state of a time-sliced scheduled set, which is
/// always `{}` or `{active}` (DESIGN.md §6).
#[derive(Debug, Clone, Copy)]
struct SliceSolution {
    /// Clock-scaled rate and dynamic power of the scheduled client
    /// (unused for the empty set).
    rate: f64,
    dyn_power: f64,
    sm_util: f64,
    bw_util: f64,
    pstate: PowerState,
}

impl ClientColumns {
    /// Resets every column to the initial state for `n` clients, keeping
    /// allocated capacity from a previous run.
    fn reset(&mut self, n: usize) {
        self.phase.clear();
        self.phase.resize(n, Phase::Pending);
        self.task_idx.clear();
        self.task_idx.resize(n, 0);
        self.kernel_idx.clear();
        self.kernel_idx.resize(n, 0);
        self.run_rem.clear();
        self.run_rem.resize(n, 0.0);
        self.held_memory.clear();
        self.held_memory.resize(n, MemBytes::ZERO);
        self.started.clear();
        self.started.resize(n, None);
        self.finished.clear();
        self.finished.resize(n, None);
        self.gpu_progress.clear();
        self.gpu_progress.resize(n, 0.0);
        self.task_progress.clear();
        self.task_progress.resize(n, 0.0);
        self.task_dyn_energy.clear();
        self.task_dyn_energy.resize(n, 0.0);
        self.dyn_energy.clear();
        self.dyn_energy.resize(n, 0.0);
        self.wasted_progress.clear();
        self.wasted_progress.resize(n, 0.0);
        self.wasted_energy.clear();
        self.wasted_energy.resize(n, 0.0);
        self.failed.clear();
        self.failed.resize(n, false);
        self.prepared.clear();
        self.prepared.resize(n, IDLE_PREPARED);
        self.slice_solution.clear();
        self.slice_solution.resize(n, None);
        for c in &mut self.completions {
            c.clear();
        }
        self.completions.resize_with(n, Vec::new);
    }
}

/// Reusable engine buffers, recycled across runs.
///
/// [`Engine::new_prevalidated`] moves these buffers into the engine
/// (clearing and re-sizing them for the new client roster) and
/// [`Engine::run_recycling`] hands them back when the run completes, so a
/// sweep or benchmark that simulates many rosters back to back performs
/// no per-run buffer allocation beyond the results it keeps
/// ([`RunResult`] owns its telemetry, completions and failures). A
/// default-constructed scratch is empty; `Engine::new` starts from one.
#[derive(Debug, Default)]
pub struct EngineScratch {
    cols: ClientColumns,
    memory_waiters: Vec<usize>,
    agenda: Vec<usize>,
    agenda_flag: Vec<bool>,
    pass_scratch: Vec<usize>,
    running_set: Vec<usize>,
    timer_set: Vec<usize>,
    timer_pos: Vec<usize>,
    timer_rem: Vec<f64>,
    solved_scheduled: Vec<usize>,
    solved_rates: Vec<f64>,
    solved_dyn_powers: Vec<f64>,
    prepared_scratch: Vec<PreparedContender>,
    allocations_scratch: Vec<Allocation>,
    solve_scratch: SolveScratch,
    /// Telemetry segment count of the previous run; the next engine
    /// pre-reserves this many so an identical (or smaller) run never
    /// grows the telemetry vector mid-steady-state.
    segments_hint: usize,
}

impl EngineScratch {
    pub fn new() -> Self {
        EngineScratch::default()
    }
}

/// The execution engine. Construct with [`Engine::new`], then [`Engine::run`].
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    solver: ContentionSolver,
    power: PowerModel,
    /// Read-only client programs, indexed like every column.
    programs: Vec<ClientProgram>,
    /// Dense slot-indexed per-client state (SoA; see [`ClientColumns`]).
    cols: ClientColumns,
    free_memory: MemBytes,
    /// FIFO of clients blocked on memory, in blocking order.
    memory_waiters: Vec<usize>,
    now: f64,
    telemetry: Telemetry,
    // Time-slicing state.
    active: Option<usize>,
    quantum_remaining: f64,
    switch_remaining: f64,
    next_rr: usize,
    events: u64,
    log: EventLog,
    was_capped: bool,
    // Hot-path cache (see DESIGN.md §6): the solved rate/power state is
    // keyed by `resident_epoch`, which transitions bump only when the set
    // of resident kernels changes. Pure time advancement (host timers,
    // arrivals, quantum countdowns) reuses the cached solution.
    resident_epoch: u64,
    solved_epoch: u64,
    solved_scheduled: Vec<usize>,
    solved_rates: Vec<f64>,
    solved_sm_util: f64,
    solved_bw_util: f64,
    solved_pstate: PowerState,
    /// Time-sliced solve cache for the empty scheduled set (see
    /// [`ClientColumns::slice_solution`]).
    drained_solution: Option<SliceSolution>,
    rate_solves: u64,
    prepared_scratch: Vec<PreparedContender>,
    allocations_scratch: Vec<Allocation>,
    solve_scratch: SolveScratch,
    /// Per-slot dynamic power (after clock scaling) matching
    /// `solved_rates`, for per-client energy attribution.
    solved_dyn_powers: Vec<f64>,
    /// Injected faults sorted by time; `next_fault` is the cursor.
    fault_queue: Vec<FaultSpec>,
    next_fault: usize,
    failures: Vec<FaultRecord>,
    // Incremental transition machinery (DESIGN.md §9). `process_transitions`
    // only steps clients on the agenda; everything that can enable a
    // transition (timer expiry, arrival, memory grant, predecessor
    // termination, a client's own previous transition) re-arms the client.
    /// Clients that may have an enabled transition now (sorted per pass).
    agenda: Vec<usize>,
    /// Dedup flags for `agenda` (indexed by client).
    agenda_flag: Vec<bool>,
    /// Reused per-pass buffer for the agenda drain.
    pass_scratch: Vec<usize>,
    /// Ascending indices of clients in `Phase::Running` (all modes).
    running_set: Vec<usize>,
    /// Clients in `Phase::Setup`/`Phase::Gap`, unordered — the min over
    /// timer horizons and the per-client countdowns are order-independent.
    timer_set: Vec<usize>,
    /// Position of each client in `timer_set` (`usize::MAX` when absent).
    timer_pos: Vec<usize>,
    /// Authoritative countdowns for `timer_set` (parallel array). Kept
    /// dense so the per-event min scan and lockstep decrement touch
    /// contiguous memory instead of one record per timer.
    timer_rem: Vec<f64>,
    /// Count of clients in a terminal phase (replaces the per-event
    /// all-clients scan).
    terminated_count: usize,
    /// Sequential mode: first non-terminated client index, advanced on
    /// every termination. `eligible` reduces to `seq_head >= i`.
    seq_head: usize,
    /// Static arrival events, sorted by (time, client).
    arrivals: MonotoneEventQueue,
    max_queue_depth: u64,
    /// Time step planned by the last [`Engine::next_tick`], consumed by the
    /// matching [`Engine::tick_to`]. Stored rather than recomputed from the
    /// absolute horizon so the apply side uses the exact `dt` the plan
    /// derived (a `t - now` round-trip is not bit-identical). NaN = no
    /// outstanding plan.
    planned_dt: f64,
    /// Whether the planned horizon is a time-slice quantum expiry (set by
    /// the plan, consumed by the apply's end-of-step rotation).
    planned_quantum_event: bool,
}

/// Hot-path counters from one engine run (see [`Engine::run_with_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Discrete events processed (calls to the time-advancement step).
    pub events: u64,
    /// Contention/power solves run. Time-sliced resident-set changes
    /// served from the slice solve cache are not solves and do not count.
    pub rate_solves: u64,
    /// Resident-set epoch transitions (kernel starts/finishes, context
    /// switches). The cache guarantees `rate_solves <= resident_changes`:
    /// events that only advance time reuse the previous solution.
    pub resident_changes: u64,
    /// Maximum indexed event-queue depth observed across the run: running
    /// kernels + armed host timers + undelivered arrivals + pending faults.
    pub max_queue_depth: u64,
}

impl Engine {
    /// Builds an engine for the given client programs. Validates programs
    /// against the device, the partition list length, and the MPS client
    /// limit.
    pub fn new(config: EngineConfig, programs: Vec<ClientProgram>) -> Result<Self> {
        let device = config.device.clone().validated()?;
        for p in &programs {
            p.validate(&device)?;
        }
        Self::build(config, device, programs, EngineScratch::default())
    }

    /// [`Engine::new`] for a roster validated ahead of time (see
    /// [`ValidatedPrograms`]), with recycled buffers from a previous run
    /// (see [`EngineScratch`]). Skips the per-kernel validation walk, which
    /// dominates construction for large rosters. The roster must have been
    /// validated against this config's device — a mismatch is an error, not
    /// a silent trust. Behaviour is bit-identical to a fresh engine: every
    /// buffer is cleared and re-initialized; only capacity survives.
    pub fn new_prevalidated(
        config: EngineConfig,
        roster: ValidatedPrograms,
        scratch: EngineScratch,
    ) -> Result<Self> {
        if *roster.device() != config.device {
            return Err(Error::InvalidConfig(
                "pre-validated roster does not match the engine's device".into(),
            ));
        }
        let (device, programs) = roster.into_parts();
        Self::build(config, device, programs, scratch)
    }

    /// Shared construction tail: mode checks plus state/buffer setup.
    /// `device` is already validated and `programs` already validated
    /// against it.
    fn build(
        config: EngineConfig,
        device: DeviceSpec,
        programs: Vec<ClientProgram>,
        scratch: EngineScratch,
    ) -> Result<Self> {
        match &config.mode {
            SharingMode::Mps { partitions } => {
                if partitions.len() != programs.len() {
                    return Err(Error::InvalidConfig(format!(
                        "{} partitions for {} clients",
                        partitions.len(),
                        programs.len()
                    )));
                }
                if programs.len() > device.max_mps_clients {
                    return Err(Error::ClientLimitExceeded {
                        gpu: mpshare_types::GpuId::new(0),
                        limit: device.max_mps_clients,
                    });
                }
                if partitions.iter().any(|p| p.is_zero()) {
                    return Err(Error::InvalidConfig(
                        "MPS partitions must be non-zero".into(),
                    ));
                }
            }
            SharingMode::TimeSliced { quantum, .. } => {
                if quantum.value() <= 0.0 {
                    return Err(Error::InvalidConfig(
                        "time-slice quantum must be positive".into(),
                    ));
                }
            }
            SharingMode::Sequential | SharingMode::Streams => {}
        }
        let free_memory = device.memory_capacity;
        let log = if config.record_events {
            EventLog::new()
        } else {
            EventLog::with_capacity(0)
        };
        let same_process = matches!(config.mode, SharingMode::Streams);
        let solver = ContentionSolver::new(device.clone(), config.sharing_overhead)
            .with_same_process(same_process);
        let power = PowerModel::new(&device);
        // Pre-solve the empty resident set (epoch 0) so an idle GPU — e.g.
        // before the first arrival — is a cache hit, not a solve.
        let idle_pstate = power.resolve(0.0, 0);
        let fault_queue = config.faults.sorted();
        let n = programs.len();
        let arrivals = MonotoneEventQueue::new(
            programs
                .iter()
                .enumerate()
                .map(|(i, p)| (p.arrival.value(), i)),
        );
        let EngineScratch {
            mut cols,
            mut memory_waiters,
            mut agenda,
            mut agenda_flag,
            mut pass_scratch,
            mut running_set,
            mut timer_set,
            mut timer_pos,
            mut timer_rem,
            mut solved_scheduled,
            mut solved_rates,
            mut solved_dyn_powers,
            mut prepared_scratch,
            mut allocations_scratch,
            mut solve_scratch,
            segments_hint,
        } = scratch;
        // Reset recycled state and pre-size every per-client buffer to the
        // roster, so no steady-state push or sorted insert can ever grow a
        // vector (the zero-allocation contract of `tests/alloc_gate.rs`).
        cols.reset(n);
        memory_waiters.clear();
        memory_waiters.reserve(n);
        // Every client starts Pending, so all are on the initial agenda.
        agenda.clear();
        agenda.extend(0..n);
        agenda_flag.clear();
        agenda_flag.resize(n, true);
        pass_scratch.clear();
        pass_scratch.reserve(n);
        running_set.clear();
        running_set.reserve(n);
        timer_set.clear();
        timer_set.reserve(n);
        timer_pos.clear();
        timer_pos.resize(n, usize::MAX);
        timer_rem.clear();
        timer_rem.reserve(n);
        solved_scheduled.clear();
        solved_scheduled.reserve(n);
        solved_rates.clear();
        solved_rates.reserve(n);
        solved_dyn_powers.clear();
        solved_dyn_powers.reserve(n);
        prepared_scratch.clear();
        prepared_scratch.reserve(n);
        allocations_scratch.clear();
        allocations_scratch.reserve(n);
        solve_scratch.reserve(n);
        Ok(Engine {
            config,
            solver,
            power,
            programs,
            cols,
            free_memory,
            memory_waiters,
            now: 0.0,
            telemetry: Telemetry::with_capacity(segments_hint),
            active: None,
            quantum_remaining: 0.0,
            switch_remaining: 0.0,
            next_rr: 0,
            events: 0,
            log,
            was_capped: false,
            resident_epoch: 0,
            solved_epoch: 0,
            solved_scheduled,
            solved_rates,
            solved_sm_util: 0.0,
            solved_bw_util: 0.0,
            solved_pstate: idle_pstate,
            drained_solution: None,
            rate_solves: 0,
            prepared_scratch,
            allocations_scratch,
            solve_scratch,
            solved_dyn_powers,
            fault_queue,
            next_fault: 0,
            failures: Vec::new(),
            agenda,
            agenda_flag,
            pass_scratch,
            running_set,
            timer_set,
            timer_pos,
            timer_rem,
            terminated_count: 0,
            seq_head: 0,
            arrivals,
            max_queue_depth: 0,
            planned_dt: f64::NAN,
            planned_quantum_event: false,
        })
    }

    #[inline]
    fn is_running(&self, i: usize) -> bool {
        self.cols.phase[i] == Phase::Running
    }

    /// Marks the resident kernel set (or the GPU's drain state during a
    /// context switch) as changed: the next [`Engine::plan_advance`] must
    /// re-solve rates and power.
    fn bump_epoch(&mut self) {
        self.resident_epoch += 1;
    }

    /// Re-arms transition processing for client `i` (idempotent per pass).
    fn push_agenda(&mut self, i: usize) {
        if !self.agenda_flag[i] {
            self.agenda_flag[i] = true;
            self.agenda.push(i);
        }
    }

    /// Sorted-insert into the running-client index.
    fn running_insert(&mut self, i: usize) {
        if let Err(pos) = self.running_set.binary_search(&i) {
            self.running_set.insert(pos, i);
        } else {
            debug_assert!(false, "client {i} already in running set");
        }
    }

    fn running_remove(&mut self, i: usize) {
        if let Ok(pos) = self.running_set.binary_search(&i) {
            self.running_set.remove(pos);
        } else {
            debug_assert!(false, "client {i} not in running set");
        }
    }

    /// Adds client `i` to the host-timer index with the given countdown
    /// (the caller just moved it into `Setup` or `Gap`).
    fn timer_insert(&mut self, i: usize, remaining: f64) {
        debug_assert!(
            matches!(self.cols.phase[i], Phase::Setup | Phase::Gap),
            "client {i} entered timer set without a timer phase"
        );
        if self.timer_pos[i] == usize::MAX {
            self.timer_pos[i] = self.timer_set.len();
            self.timer_set.push(i);
            self.timer_rem.push(remaining);
        } else {
            debug_assert!(false, "client {i} already in timer set");
        }
    }

    /// Removes client `i` from the timer index if present (no-op
    /// otherwise, e.g. aborting a client that was not in Setup/Gap).
    fn timer_remove(&mut self, i: usize) {
        let pos = self.timer_pos[i];
        if pos == usize::MAX {
            return;
        }
        self.timer_set.swap_remove(pos);
        self.timer_rem.swap_remove(pos);
        if pos < self.timer_set.len() {
            self.timer_pos[self.timer_set[pos]] = pos;
        }
        self.timer_pos[i] = usize::MAX;
    }

    /// Bookkeeping when client `i` enters a terminal phase (Done/Failed):
    /// counts it and, under Sequential, advances the queue head and arms
    /// the successor (predecessor termination is what makes it eligible).
    fn on_termination(&mut self) {
        self.terminated_count += 1;
        if matches!(self.config.mode, SharingMode::Sequential) {
            while self.seq_head < self.programs.len()
                && self.cols.phase[self.seq_head].is_terminated()
            {
                self.seq_head += 1;
            }
            if self.seq_head < self.programs.len() {
                let head = self.seq_head;
                self.push_agenda(head);
            }
        }
    }

    fn record(&mut self, client: usize, kind: EventKind) {
        if self.config.record_events {
            self.log.record(Seconds::new(self.now), client, kind);
        }
    }

    /// Runs all clients to completion and returns the result.
    pub fn run(self) -> Result<RunResult> {
        self.run_with_stats().map(|(result, _)| result)
    }

    /// Like [`Engine::run`], but also returns the hot-path counters —
    /// useful for asserting that the rate cache actually skips re-solves.
    pub fn run_with_stats(self) -> Result<(RunResult, EngineStats)> {
        self.run_recycling()
            .map(|(result, stats, _roster, _scratch)| (result, stats))
    }

    /// Like [`Engine::run_with_stats`], but also hands back the internal
    /// buffers and the (immutable, still-valid) client roster for the next
    /// [`Engine::new_prevalidated`]. The steady-state replay loop —
    /// roster and scratch round-tripping through each run — constructs
    /// engines with no program clone and no re-validation.
    ///
    /// This is the engine's one run loop: every other run entry point
    /// delegates here.
    pub fn run_recycling(
        mut self,
    ) -> Result<(RunResult, EngineStats, ValidatedPrograms, EngineScratch)> {
        while self.step()? {}
        let segments_hint = self.telemetry.segments().len();
        let (result, stats) = self.build_result();
        let Engine {
            config,
            programs,
            cols,
            memory_waiters,
            agenda,
            agenda_flag,
            pass_scratch,
            running_set,
            timer_set,
            timer_pos,
            timer_rem,
            solved_scheduled,
            solved_rates,
            solved_dyn_powers,
            prepared_scratch,
            allocations_scratch,
            solve_scratch,
            ..
        } = self;
        // The run never touches `programs` (all mutable state lives in
        // `cols`), so the roster is as valid as it was at construction.
        let roster = ValidatedPrograms::sealed(config.device, programs);
        let scratch = EngineScratch {
            cols,
            memory_waiters,
            agenda,
            agenda_flag,
            pass_scratch,
            running_set,
            timer_set,
            timer_pos,
            timer_rem,
            solved_scheduled,
            solved_rates,
            solved_dyn_powers,
            prepared_scratch,
            allocations_scratch,
            solve_scratch,
            segments_hint,
        };
        Ok((result, stats, roster, scratch))
    }

    /// Advances the simulation by exactly one event: drains every
    /// zero-cost transition at the current time, then (unless all clients
    /// terminated) moves time to the next event horizon. Returns `false`
    /// once every client is terminal. [`Engine::run`] is this in a loop;
    /// it is public so harnesses (the allocation gate, debuggers) can
    /// drive and observe the engine stepwise.
    ///
    /// `step` is one [`Engine::next_tick`] plan immediately consumed by
    /// its [`Engine::tick_to`]. That split is the seam a future loop over
    /// several simulated components would interleave on.
    pub fn step(&mut self) -> Result<bool> {
        match self.next_tick()? {
            None => Ok(false),
            Some(t) => {
                self.tick_to(t)?;
                Ok(true)
            }
        }
    }

    /// Plan half of [`Engine::step`]: drains zero-cost transitions at the
    /// current time and, unless every client is terminal, plans the next
    /// event horizon. Returns the absolute time of the engine's next
    /// internal event, or `None` when the run is complete. The matching
    /// [`Engine::tick_to`] must be called (with the returned time) before
    /// the next `next_tick`.
    pub fn next_tick(&mut self) -> Result<Option<f64>> {
        debug_assert!(
            self.planned_dt.is_nan(),
            "next_tick called with an unconsumed plan"
        );
        self.process_transitions()?;
        if self.terminated_count == self.programs.len() {
            return Ok(None);
        }
        self.events += 1;
        if self.events > self.config.max_events {
            return Err(Error::Stalled {
                at_seconds: self.now,
                detail: format!("exceeded {} events", self.config.max_events),
            });
        }
        let dt = self.plan_advance()?;
        self.planned_dt = dt;
        Ok(Some(self.now + dt))
    }

    /// Apply half of [`Engine::step`]: advances simulated time to `now` (the
    /// horizon the preceding [`Engine::next_tick`] returned), integrating
    /// telemetry, progress, energy and countdowns over the planned step.
    pub fn tick_to(&mut self, now: f64) -> Result<()> {
        let dt = self.planned_dt;
        debug_assert!(!dt.is_nan(), "tick_to without a preceding next_tick plan");
        debug_assert!(
            now == self.now + dt,
            "tick_to horizon {now} does not match the planned {}",
            self.now + dt
        );
        self.planned_dt = f64::NAN;
        self.apply_advance(dt)
    }

    /// Assembles the [`RunResult`] and counters after the step loop ends.
    fn build_result(&mut self) -> (RunResult, EngineStats) {
        if self.was_capped {
            self.record(Event::DEVICE, EventKind::ThrottleOff);
            self.was_capped = false;
        }
        let n = self.programs.len();
        let makespan = Seconds::new(
            self.cols
                .finished
                .iter()
                .filter_map(|f| *f)
                .map(|s| s.value())
                .fold(0.0, f64::max),
        );
        let tasks_completed = self.cols.completions.iter().map(|c| c.len()).sum();
        let tasks_failed = (0..n)
            .filter(|&i| self.cols.failed[i])
            .map(|i| self.programs[i].tasks.len() - self.cols.completions[i].len())
            .sum();
        let total_energy = self.telemetry.total_energy();
        let clients: Vec<ClientOutcome> = (0..n)
            .map(|i| ClientOutcome {
                label: self.programs[i].label.clone(),
                started: self.cols.started[i].unwrap_or(Seconds::ZERO),
                finished: self.cols.finished[i].unwrap_or(Seconds::ZERO),
                gpu_progress: Seconds::new(self.cols.gpu_progress[i].max(0.0)),
                completions: std::mem::take(&mut self.cols.completions[i]),
                failed: self.cols.failed[i],
                wasted_progress: Seconds::new(self.cols.wasted_progress[i].max(0.0)),
                wasted_energy: Energy::from_joules(self.cols.wasted_energy[i].max(0.0)),
                dyn_energy: Energy::from_joules(self.cols.dyn_energy[i].max(0.0)),
            })
            .collect();
        let wasted_progress = Seconds::new(clients.iter().map(|c| c.wasted_progress.value()).sum());
        let wasted_energy =
            Energy::from_joules(clients.iter().map(|c| c.wasted_energy.joules()).sum());
        let mut result = RunResult {
            telemetry: std::mem::take(&mut self.telemetry),
            clients,
            makespan,
            total_energy,
            tasks_completed,
            failures: std::mem::take(&mut self.failures),
            tasks_failed,
            wasted_progress,
            wasted_energy,
            events: std::mem::replace(&mut self.log, EventLog::with_capacity(0)),
            completion_order: Vec::new(),
        };
        result.index_completions();
        let stats = EngineStats {
            events: self.events,
            rate_solves: self.rate_solves,
            resident_changes: self.resident_epoch,
            max_queue_depth: self.max_queue_depth,
        };
        (result, stats)
    }

    /// Is client `i` allowed to begin executing (arrival + mode gating)?
    fn eligible(&self, i: usize) -> bool {
        if self.programs[i].arrival.value() > self.now + EPS {
            return false;
        }
        match self.config.mode {
            // A crashed predecessor unblocks the queue just like a
            // completed one: the next job in line starts. `seq_head` is the
            // first non-terminated index, so `seq_head >= i` is exactly
            // "all predecessors terminated" without the scan.
            SharingMode::Sequential => {
                debug_assert_eq!(
                    self.seq_head >= i,
                    (0..i).all(|c| self.cols.phase[c].is_terminated()),
                    "sequential head index out of sync"
                );
                self.seq_head >= i
            }
            _ => true,
        }
    }

    /// Drains all zero-cost state transitions at the current time:
    /// arrivals, memory grants, task/kernel boundaries. Loops until a fixed
    /// point since one transition can enable another (e.g. a completion
    /// frees memory that unblocks a waiter).
    ///
    /// Only clients on the agenda are stepped. `step_client` is a no-op
    /// for every client off it — a client can only become steppable
    /// through an arming source (timer/kernel expiry in `advance`, arrival
    /// delivery, memory grant, predecessor termination, or its own prior
    /// transition), and each of those pushes the client. Stepping in
    /// ascending client order per pass preserves the historical per-pass
    /// iteration order.
    fn process_transitions(&mut self) -> Result<()> {
        let mut pass = std::mem::take(&mut self.pass_scratch);
        let result = loop {
            let mut changed = self.apply_due_faults();
            pass.clear();
            pass.append(&mut self.agenda);
            pass.sort_unstable();
            for &i in &pass {
                self.agenda_flag[i] = false;
            }
            let mut err = None;
            for &i in &pass {
                match self.step_client(i) {
                    Ok(stepped) => {
                        if stepped {
                            changed = true;
                            // A transition can enable the next one for the
                            // same client (e.g. Setup expiry with a
                            // zero-length first kernel).
                            self.push_agenda(i);
                        }
                    }
                    Err(e) => {
                        err = Some(e);
                        break;
                    }
                }
            }
            if let Some(e) = err {
                break Err(e);
            }
            changed |= self.grant_memory();
            if !changed {
                break Ok(());
            }
        };
        self.pass_scratch = pass;
        result?;
        self.fix_timeslice_active();
        Ok(())
    }

    /// Fires every injected fault due at the current time; returns whether
    /// any client was aborted. Faults are consumed in time order via the
    /// `next_fault` cursor, so each fires at most once.
    fn apply_due_faults(&mut self) -> bool {
        let mut changed = false;
        while let Some(&spec) = self.fault_queue.get(self.next_fault) {
            if spec.at.value() > self.now + EPS {
                break;
            }
            self.next_fault += 1;
            let origin = spec.scope.origin();
            if origin >= self.programs.len() || self.cols.phase[origin].is_terminated() {
                // An exited process cannot fault — and cannot crash the
                // server it already disconnected from.
                continue;
            }
            let victims = match spec.scope {
                FaultScope::Client(_) => {
                    self.abort_client(origin, origin);
                    1
                }
                FaultScope::Domain(_) => {
                    // Shared failure domain: the server goes down and every
                    // unfinished resident sibling dies with the origin.
                    self.record(Event::DEVICE, EventKind::ServerCrash { origin });
                    let mut count = 0;
                    for i in 0..self.programs.len() {
                        if !self.cols.phase[i].is_terminated() {
                            self.abort_client(i, origin);
                            count += 1;
                        }
                    }
                    count
                }
            };
            self.failures.push(FaultRecord {
                at: Seconds::new(self.now),
                origin,
                victims,
            });
            changed = true;
        }
        changed
    }

    /// Aborts client `i`: harvests the in-flight task's progress and energy
    /// as wasted work, frees its memory, and moves it to the terminal
    /// `Failed` phase.
    fn abort_client(&mut self, i: usize, origin: usize) {
        let was_running = self.is_running(i);
        self.cols.wasted_progress[i] += self.cols.task_progress[i];
        self.cols.wasted_energy[i] += self.cols.task_dyn_energy[i];
        self.cols.task_progress[i] = 0.0;
        self.cols.task_dyn_energy[i] = 0.0;
        self.cols.phase[i] = Phase::Failed;
        self.cols.failed[i] = true;
        self.cols.finished[i] = Some(Seconds::new(self.now));
        self.free_memory += self.cols.held_memory[i];
        self.cols.held_memory[i] = MemBytes::ZERO;
        self.memory_waiters.retain(|&w| w != i);
        self.timer_remove(i);
        if was_running {
            self.running_remove(i);
            self.bump_epoch();
        }
        self.on_termination();
        self.record(i, EventKind::ClientFault { origin });
    }

    /// Current countdown for a client in the timer set (Setup/Gap): the
    /// authoritative value lives in the dense `timer_rem` array.
    fn timer_remaining(&self, i: usize) -> f64 {
        let pos = self.timer_pos[i];
        debug_assert_ne!(
            pos,
            usize::MAX,
            "client {i} has a timer phase but no timer slot"
        );
        self.timer_rem[pos]
    }

    /// Applies at most one transition for client `i`; returns whether
    /// anything changed.
    fn step_client(&mut self, i: usize) -> Result<bool> {
        match self.cols.phase[i] {
            Phase::Pending => {
                if self.eligible(i) {
                    self.begin_task(i);
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
            Phase::Setup if self.timer_remaining(i) <= EPS => {
                self.cols.kernel_idx[i] = 0;
                self.timer_remove(i);
                self.start_kernel(i);
                Ok(true)
            }
            Phase::Running if self.cols.run_rem[i] <= EPS => {
                self.finish_kernel(i);
                Ok(true)
            }
            Phase::Gap if self.timer_remaining(i) <= EPS => {
                self.cols.kernel_idx[i] += 1;
                self.timer_remove(i);
                self.start_kernel(i);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Begins the current task of client `i`: request memory, then setup.
    fn begin_task(&mut self, i: usize) {
        if self.cols.started[i].is_none() {
            self.cols.started[i] = Some(Seconds::new(self.now));
        }
        let task = &self.programs[i].tasks[self.cols.task_idx[i]];
        let (id, need, setup) = (task.id, task.memory, task.setup.value());
        if need <= self.free_memory {
            self.free_memory = self.free_memory.saturating_sub(need);
            self.cols.held_memory[i] = need;
            self.cols.phase[i] = Phase::Setup;
            self.timer_insert(i, setup);
            // The label is cloned only when the log is on: an event-less
            // run must not pay a per-task String allocation.
            if self.config.record_events {
                let label = self.programs[i].tasks[self.cols.task_idx[i]].label.clone();
                self.record(i, EventKind::TaskStart { task: id, label });
            }
        } else {
            self.cols.phase[i] = Phase::WaitingMemory;
            self.memory_waiters.push(i);
            self.record(i, EventKind::MemoryBlocked { task: id });
        }
    }

    /// Starts kernel `kernel_idx` of the current task, or completes the
    /// task if the kernel list is exhausted.
    fn start_kernel(&mut self, i: usize) {
        let partition = self.partition_of(i);
        let ti = self.cols.task_idx[i];
        let ki = self.cols.kernel_idx[i];
        let task = &self.programs[i].tasks[ti];
        if ki < task.kernels.len() {
            let kernel = &task.kernels[ki];
            // Hoist the occupancy/partition arithmetic out of the solver:
            // these inputs are fixed for the kernel's whole residency.
            let prepared = self.solver.prepare(kernel, partition);
            let remaining = kernel.solo_duration.value();
            let id = task.id;
            self.cols.phase[i] = Phase::Running;
            self.cols.run_rem[i] = remaining;
            self.cols.prepared[i] = prepared;
            self.cols.slice_solution[i] = None;
            self.running_insert(i);
            self.bump_epoch();
            self.record(
                i,
                EventKind::KernelStart {
                    task: id,
                    kernel_index: ki,
                },
            );
        } else {
            // Task complete: free memory, record, move on.
            let completion = TaskCompletion {
                task: task.id,
                label: task.label.clone(),
                client: i,
                at: Seconds::new(self.now),
            };
            let finished_task = completion.task;
            self.free_memory += self.cols.held_memory[i];
            self.cols.held_memory[i] = MemBytes::ZERO;
            self.cols.completions[i].push(completion);
            self.cols.task_idx[i] += 1;
            self.cols.kernel_idx[i] = 0;
            self.cols.task_progress[i] = 0.0;
            self.cols.task_dyn_energy[i] = 0.0;
            if self.cols.task_idx[i] < self.programs[i].tasks.len() {
                self.cols.phase[i] = Phase::Pending;
            } else {
                self.cols.phase[i] = Phase::Done;
                self.cols.finished[i] = Some(Seconds::new(self.now));
                self.on_termination();
            }
            self.record(
                i,
                EventKind::TaskEnd {
                    task: finished_task,
                },
            );
        }
    }

    /// Moves a client whose kernel finished into its host gap (or directly
    /// to the next kernel / task end when the gap is zero).
    fn finish_kernel(&mut self, i: usize) {
        // The kernel leaves the GPU here no matter which phase follows.
        self.running_remove(i);
        self.bump_epoch();
        let ti = self.cols.task_idx[i];
        let ki = self.cols.kernel_idx[i];
        let task = &self.programs[i].tasks[ti];
        let gap = task.kernels[ki].host_gap.value();
        let id = task.id;
        self.record(
            i,
            EventKind::KernelEnd {
                task: id,
                kernel_index: ki,
            },
        );
        if gap > EPS {
            self.cols.phase[i] = Phase::Gap;
            self.timer_insert(i, gap);
        } else {
            self.cols.kernel_idx[i] += 1;
            self.start_kernel(i);
        }
    }

    /// Grants memory to blocked clients in FIFO order; returns whether any
    /// grant happened.
    fn grant_memory(&mut self) -> bool {
        let mut granted = false;
        let mut j = 0;
        while j < self.memory_waiters.len() {
            let i = self.memory_waiters[j];
            let ti = self.cols.task_idx[i];
            let need = self.programs[i].tasks[ti].memory;
            if need <= self.free_memory {
                self.free_memory = self.free_memory.saturating_sub(need);
                self.cols.held_memory[i] = need;
                let setup = self.programs[i].tasks[ti].setup.value();
                let task = self.programs[i].tasks[ti].id;
                self.cols.phase[i] = Phase::Setup;
                self.timer_insert(i, setup);
                self.push_agenda(i);
                self.memory_waiters.remove(j);
                self.record(i, EventKind::MemoryGranted { task });
                granted = true;
            } else {
                j += 1;
            }
        }
        granted
    }

    /// Keeps the time-slicing `active` pointer valid: points at a Running
    /// client, rotating round-robin when the current one stops running.
    fn fix_timeslice_active(&mut self) {
        let SharingMode::TimeSliced {
            quantum,
            switch_overhead,
        } = &self.config.mode
        else {
            return;
        };
        let quantum = quantum.value();
        let switch = switch_overhead.value();
        let still_valid = self.active.is_some_and(|a| self.is_running(a));
        if still_valid {
            return;
        }
        // Pick the next runnable client round-robin from next_rr.
        let n = self.programs.len();
        let next = (0..n)
            .map(|k| (self.next_rr + k) % n)
            .find(|&i| self.is_running(i));
        match next {
            Some(i) => {
                let switching_from_other =
                    self.active.is_some_and(|a| a != i) || self.active.is_none() && self.now > 0.0;
                self.active = Some(i);
                self.next_rr = (i + 1) % n;
                self.quantum_remaining = quantum;
                self.switch_remaining = if switching_from_other { switch } else { 0.0 };
                self.bump_epoch();
            }
            None => {
                if self.active.is_some() || self.switch_remaining > EPS {
                    self.bump_epoch();
                }
                self.active = None;
                self.quantum_remaining = 0.0;
                self.switch_remaining = 0.0;
            }
        }
    }

    /// Rotates the time-slice on quantum expiry (only meaningful when more
    /// than one client is runnable).
    fn rotate_timeslice(&mut self) {
        let SharingMode::TimeSliced {
            quantum,
            switch_overhead,
        } = self.config.mode
        else {
            return;
        };
        let (quantum, switch) = (quantum.value(), switch_overhead.value());
        let runnable = self.running_set.len();
        if runnable <= 1 {
            // A fault can abort the only other runnable client mid-quantum
            // (see `rotation_with_single_survivor_after_fault`): with zero
            // or one runnable client there is nothing to rotate to, so the
            // expiry just restarts the quantum.
            self.quantum_remaining = quantum;
            return;
        }
        let n = self.programs.len();
        let Some(next) = (0..n)
            .map(|k| (self.next_rr + k) % n)
            .find(|&i| self.is_running(i))
        else {
            // Unreachable while `running_set` is non-empty (the round-robin
            // scan covers every index), but a rotation must never be a
            // panic path: degrade to a quantum restart.
            debug_assert!(false, "non-empty running set but no runnable client found");
            self.quantum_remaining = quantum;
            return;
        };
        if Some(next) != self.active {
            self.switch_remaining = switch;
            self.bump_epoch();
            self.record(Event::DEVICE, EventKind::ContextSwitch { to_client: next });
        }
        self.active = Some(next);
        self.next_rr = (next + 1) % n;
        self.quantum_remaining = quantum;
    }

    /// Returns the indices of clients whose kernels are on the GPU now.
    fn scheduled_running(&self) -> Vec<usize> {
        match &self.config.mode {
            SharingMode::Mps { .. } | SharingMode::Sequential | SharingMode::Streams => {
                (0..self.programs.len())
                    .filter(|&i| self.is_running(i))
                    .collect()
            }
            SharingMode::TimeSliced { .. } => self.slice_scheduled().into_iter().collect(),
        }
    }

    /// The client whose kernel is on the GPU under time slicing: the
    /// active one, unless a context switch has the GPU drained.
    fn slice_scheduled(&self) -> Option<usize> {
        if self.switch_remaining > EPS {
            return None;
        }
        self.active.filter(|&a| self.is_running(a))
    }

    fn partition_of(&self, client: usize) -> Fraction {
        match &self.config.mode {
            SharingMode::Mps { partitions } => partitions[client],
            _ => Fraction::ONE,
        }
    }

    /// Re-solves contention rates and power for the current resident set
    /// into the persistent cache. All intermediate buffers are reused, so
    /// this allocates nothing after warm-up.
    ///
    /// Under time slicing, a scheduled set solved before is served from
    /// the slice cache instead (see [`Engine::reuse_slice_solution`]),
    /// unless [`EngineConfig::force_full_resolve`] is set.
    fn refresh_solution(&mut self) {
        let time_sliced = matches!(self.config.mode, SharingMode::TimeSliced { .. });
        if time_sliced && !self.config.force_full_resolve && self.reuse_slice_solution() {
            return;
        }
        self.refresh_full();
        self.apply_solution();
        if time_sliced {
            self.store_slice_solution();
        }
    }

    /// Time-sliced solve reuse (DESIGN.md §6). The scheduled set is `{}`
    /// or `{a}`, and its solved state is a pure function of `prepared[a]`
    /// — fixed while the kernel stays resident — plus the engine's fixed
    /// device, overhead and power model. So a quantum rotation or switch
    /// completion back to a set solved before installs the cached state
    /// instead of re-running the solver. Returns whether the cache served
    /// the refresh; in debug builds every reuse is checked bit for bit
    /// against a from-scratch solve.
    fn reuse_slice_solution(&mut self) -> bool {
        let scheduled = self.slice_scheduled();
        let cached = match scheduled {
            Some(a) => self.cols.slice_solution[a],
            None => self.drained_solution,
        };
        let Some(s) = cached else {
            return false;
        };
        self.solved_scheduled.clear();
        self.solved_rates.clear();
        self.solved_dyn_powers.clear();
        if let Some(a) = scheduled {
            self.solved_scheduled.push(a);
            self.solved_rates.push(s.rate);
            self.solved_dyn_powers.push(s.dyn_power);
        }
        self.solved_sm_util = s.sm_util;
        self.solved_bw_util = s.bw_util;
        self.solved_pstate = s.pstate;
        self.solved_epoch = self.resident_epoch;
        #[cfg(debug_assertions)]
        self.cross_check_slice_reuse();
        true
    }

    /// Files the solution just computed for a time-sliced set into the
    /// slice cache (see [`Engine::reuse_slice_solution`]).
    fn store_slice_solution(&mut self) {
        let s = SliceSolution {
            rate: self.solved_rates.first().copied().unwrap_or(0.0),
            dyn_power: self.solved_dyn_powers.first().copied().unwrap_or(0.0),
            sm_util: self.solved_sm_util,
            bw_util: self.solved_bw_util,
            pstate: self.solved_pstate,
        };
        match self.solved_scheduled.first() {
            Some(&a) => self.cols.slice_solution[a] = Some(s),
            None => self.drained_solution = Some(s),
        }
    }

    /// Full pipeline: rebuild the scheduled set and prepared inputs, then
    /// solve from scratch.
    fn refresh_full(&mut self) {
        let mut scheduled = std::mem::take(&mut self.solved_scheduled);
        scheduled.clear();
        match &self.config.mode {
            SharingMode::Mps { .. } | SharingMode::Sequential | SharingMode::Streams => {
                // `running_set` is exactly the ascending list of Running
                // clients the historical per-client filter produced.
                scheduled.extend_from_slice(&self.running_set);
            }
            SharingMode::TimeSliced { .. } => scheduled.extend(self.slice_scheduled()),
        }

        self.prepared_scratch.clear();
        for &i in &scheduled {
            debug_assert!(self.is_running(i), "scheduled client {i} is not running");
            self.prepared_scratch.push(self.cols.prepared[i]);
        }
        self.solver.solve_prepared_into(
            &self.prepared_scratch,
            &mut self.solve_scratch,
            &mut self.allocations_scratch,
        );
        self.solved_scheduled = scheduled;
    }

    /// Derives the cached rate/power state from `allocations_scratch` and
    /// `solved_scheduled` (see [`derive_solution`]).
    fn apply_solution(&mut self) {
        // Streams of one process interleave like a single client as far as
        // the power-peak model is concerned.
        let resident_processes = match self.config.mode {
            SharingMode::Streams => self.solved_scheduled.len().min(1),
            _ => self.solved_scheduled.len(),
        };
        let (sm_util, bw_util, pstate) = derive_solution(
            &self.power,
            &self.allocations_scratch,
            resident_processes,
            &mut self.solved_rates,
            &mut self.solved_dyn_powers,
        );
        self.solved_sm_util = sm_util;
        self.solved_bw_util = bw_util;
        self.solved_pstate = pstate;
        self.solved_epoch = self.resident_epoch;
        self.rate_solves += 1;
    }

    /// Debug-build invariant: a time-slice cache hit must equal a
    /// from-scratch solve of the same scheduled set, bit for bit.
    #[cfg(debug_assertions)]
    fn cross_check_slice_reuse(&self) {
        debug_assert_eq!(
            self.solved_scheduled,
            self.scheduled_running(),
            "time-slice cache installed the wrong scheduled set"
        );
        let prepared: Vec<PreparedContender> = self
            .solved_scheduled
            .iter()
            .map(|&i| self.cols.prepared[i])
            .collect();
        let mut allocations = Vec::new();
        self.solver
            .solve_prepared_into(&prepared, &mut SolveScratch::default(), &mut allocations);
        let (mut rates, mut dyn_powers) = (Vec::new(), Vec::new());
        let (sm_util, bw_util, pstate) = derive_solution(
            &self.power,
            &allocations,
            prepared.len(),
            &mut rates,
            &mut dyn_powers,
        );
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        let state = |rates: &[f64], dyn_powers: &[f64], sm: f64, bw: f64, p: PowerState| {
            (
                bits(rates),
                bits(dyn_powers),
                bits(&[sm, bw, p.power.watts(), p.clock_factor]),
                p.capped,
            )
        };
        debug_assert_eq!(
            state(
                &self.solved_rates,
                &self.solved_dyn_powers,
                self.solved_sm_util,
                self.solved_bw_util,
                self.solved_pstate
            ),
            state(&rates, &dyn_powers, sm_util, bw_util, pstate),
            "time-slice solve reuse diverged from a from-scratch solve"
        );
    }

    /// Plans the next time step: refreshes the rate/power solution and
    /// derives the time to the next event horizon (the body of
    /// [`Engine::next_tick`] — no state other than the solution cache, the
    /// depth counter and `planned_quantum_event` is mutated).
    fn plan_advance(&mut self) -> Result<f64> {
        // Rates/power are a pure function of the resident set (plus the
        // fixed device, partitions and overheads), so between resident-set
        // epochs the cached solution is exact — same inputs, same
        // arithmetic, bit-identical outputs.
        if self.solved_epoch != self.resident_epoch {
            self.refresh_solution();
        } else {
            debug_assert_eq!(
                self.solved_scheduled,
                self.scheduled_running(),
                "resident-set cache is stale: a transition mutated the \
                 scheduled set without bumping the epoch"
            );
        }

        // Find the next event horizon. Every scheduled slot is a Running
        // client (debug-asserted above and in `refresh_full`), so the scan
        // reads the dense remaining/rate arrays with no phase dispatch.
        let mut dt = f64::INFINITY;
        // Kernel completions.
        for slot in 0..self.solved_scheduled.len() {
            let i = self.solved_scheduled[slot];
            debug_assert!(self.is_running(i), "scheduled client {i} is not running");
            let rate = self.solved_rates[slot];
            if rate > 0.0 {
                dt = dt.min(self.cols.run_rem[i] / rate);
            }
        }
        // Host-side timers (setup and gaps) always progress. `timer_rem`
        // holds exactly the countdowns of clients in those phases; min() is
        // order-independent, so scanning the (unsorted) dense array matches
        // the historical whole-roster scan bit for bit.
        for &remaining in &self.timer_rem {
            dt = dt.min(remaining);
        }
        // Future arrivals: earliest queued arrival strictly after `now`
        // whose client has neither started nor terminated. Equivalent to
        // the historical `Pending && !eligible` scan (see equeue module),
        // and min_j (at_j - now) == (min_j at_j) - now by monotonicity of
        // subtraction, so taking only the queue head is exact.
        let cols = &self.cols;
        if let Some(at) = self.arrivals.next_horizon(self.now, |c| {
            cols.started[c].is_some() || cols.phase[c].is_terminated()
        }) {
            dt = dt.min(at - self.now);
        }
        // Pending injected faults.
        if let Some(f) = self.fault_queue.get(self.next_fault) {
            let at = f.at.value();
            if at > self.now {
                dt = dt.min(at - self.now);
            }
        }
        // Time-slice events.
        let mut quantum_event = false;
        if matches!(self.config.mode, SharingMode::TimeSliced { .. }) {
            if self.switch_remaining > EPS {
                dt = dt.min(self.switch_remaining);
            } else if !self.solved_scheduled.is_empty() {
                let runnable = self.running_set.len();
                if runnable > 1 && self.quantum_remaining > EPS {
                    if self.quantum_remaining <= dt {
                        quantum_event = true;
                    }
                    dt = dt.min(self.quantum_remaining);
                }
            }
        }

        // Event-queue depth: indexed sources the next horizon is drawn from.
        let depth = self.running_set.len()
            + self.timer_set.len()
            + self.arrivals.pending()
            + (self.fault_queue.len() - self.next_fault);
        self.max_queue_depth = self.max_queue_depth.max(depth as u64);

        if !dt.is_finite() || dt <= 0.0 {
            return Err(Error::Stalled {
                at_seconds: self.now,
                detail: format!(
                    "no progress possible ({} scheduled kernels, dt={dt})",
                    self.solved_scheduled.len()
                ),
            });
        }

        self.planned_quantum_event = quantum_event;
        Ok(dt)
    }

    /// Applies a planned time step: integrates telemetry/progress/energy,
    /// decrements countdowns, advances `now` by `dt`, delivers arrivals and
    /// rotates the time-slice on a planned quantum expiry (the body of
    /// [`Engine::tick_to`]).
    fn apply_advance(&mut self, dt: f64) -> Result<()> {
        let pstate = self.solved_pstate;
        let quantum_event = self.planned_quantum_event;
        self.planned_quantum_event = false;

        // Throttle transition events.
        if pstate.capped != self.was_capped {
            let kind = if pstate.capped {
                EventKind::ThrottleOn
            } else {
                EventKind::ThrottleOff
            };
            self.record(Event::DEVICE, kind);
            self.was_capped = pstate.capped;
        }

        // Integrate telemetry for this segment.
        self.telemetry.record(Segment {
            start: Seconds::new(self.now),
            end: Seconds::new(self.now + dt),
            sm_util: self.solved_sm_util.min(1.0),
            bw_util: self.solved_bw_util.min(1.0),
            power: pstate.power,
            clock_factor: pstate.clock_factor,
            capped: pstate.capped,
            active_clients: self.solved_scheduled.len(),
        });

        // Apply progress over the dense columns — no phase dispatch, every
        // slot is Running. Clients whose kernel or timer expires are pushed
        // onto the transition agenda so the next `process_transitions`
        // steps exactly them (plus any cascade) instead of the full roster.
        for slot in 0..self.solved_scheduled.len() {
            let i = self.solved_scheduled[slot];
            let progress = self.solved_rates[slot] * dt;
            let rem = (self.cols.run_rem[i] - progress).max(0.0);
            self.cols.run_rem[i] = rem;
            let dyn_e = self.solved_dyn_powers[slot] * dt;
            self.cols.gpu_progress[i] += progress;
            self.cols.task_progress[i] += progress;
            self.cols.dyn_energy[i] += dyn_e;
            self.cols.task_dyn_energy[i] += dyn_e;
            if rem <= EPS {
                self.push_agenda(i);
            }
        }
        for idx in 0..self.timer_rem.len() {
            let remaining = &mut self.timer_rem[idx];
            *remaining = (*remaining - dt).max(0.0);
            if *remaining <= EPS {
                let i = self.timer_set[idx];
                self.push_agenda(i);
            }
        }
        if matches!(self.config.mode, SharingMode::TimeSliced { .. }) {
            if self.switch_remaining > EPS {
                self.switch_remaining = (self.switch_remaining - dt).max(0.0);
                if self.switch_remaining <= EPS {
                    // Switch complete: the incoming client's kernel lands
                    // on the (previously drained) GPU.
                    self.bump_epoch();
                }
            } else {
                self.quantum_remaining = (self.quantum_remaining - dt).max(0.0);
            }
        }
        self.now += dt;
        // Arm transition processing for clients whose arrival entered the
        // eligibility window (arrival <= now + EPS, mirroring `eligible`).
        // Each queue entry pops exactly once; re-arming an already-started
        // client is a harmless no-op step.
        while let Some(c) = self.arrivals.pop_armed(self.now + EPS) {
            self.push_agenda(c);
        }
        if quantum_event && self.quantum_remaining <= EPS {
            self.rotate_timeslice();
        }
        Ok(())
    }
}

/// Derives the per-slot clock-scaled rates and dynamic powers (into
/// `rates`/`dyn_powers`) plus the SM/BW utilization and power state from
/// one solve's allocations.
///
/// One fused pass: the four reductions (dynamic power, SM share, BW
/// share) and two per-slot products run over the allocation slots once.
/// Each left-to-right `acc + term` chain and each per-element
/// multiplication is the same operation on the same values as the
/// historical separate passes, so every output is bit-identical.
fn derive_solution(
    power: &PowerModel,
    allocations: &[Allocation],
    resident_processes: usize,
    rates: &mut Vec<f64>,
    dyn_powers: &mut Vec<f64>,
) -> (f64, f64, PowerState) {
    let dyn_power: f64 = allocations.iter().map(|a| a.dyn_power_watts).sum();
    let pstate = power.resolve(dyn_power, resident_processes);
    let clock_factor = pstate.clock_factor;
    rates.clear();
    dyn_powers.clear();
    // -0.0 is `Sum for f64`'s identity; starting there keeps this fused
    // pass bit-identical to the historical `.sum()` reductions (an idle GPU
    // reports -0.0 utilization, and serde prints it).
    let mut sm_util = -0.0f64;
    let mut bw_util = -0.0f64;
    for a in allocations {
        rates.push(a.rate * clock_factor);
        // The clock scaling that slows rates also scales the actual dynamic
        // draw, so per-slot attributed power sums to (billed − idle).
        dyn_powers.push(a.dyn_power_watts * clock_factor);
        sm_util += a.sm_share;
        bw_util += a.bw_share;
    }
    (sm_util, bw_util, pstate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelSpec, LaunchConfig};
    use crate::program::TaskProgram;
    use mpshare_types::Percent;

    fn dev() -> DeviceSpec {
        DeviceSpec::a100x()
    }

    /// A kernel with a large grid (linear partition response), given SM and
    /// BW demand and a host gap.
    fn kernel(dur: f64, sm: f64, bw: f64, gap: f64) -> KernelSpec {
        KernelSpec::from_launch(
            &dev(),
            LaunchConfig::dense(216 * 64, 1024),
            Seconds::new(dur),
        )
        .with_sm_demand(Fraction::new(sm))
        .with_bw_demand(Fraction::new(bw))
        .with_host_gap(Seconds::new(gap))
    }

    fn one_task_client(label: &str, id: u64, kernels: Vec<KernelSpec>) -> ClientProgram {
        let mut t = TaskProgram::new(TaskId::new(id), label, MemBytes::from_mib(1024));
        for k in kernels {
            t.push_kernel(k);
        }
        let mut c = ClientProgram::new(label);
        c.push_task(t);
        c
    }

    fn run(mode: SharingMode, programs: Vec<ClientProgram>) -> RunResult {
        Engine::new(EngineConfig::new(dev(), mode), programs)
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn prevalidated_recycling_loop_is_bit_identical() {
        let programs = vec![
            one_task_client("a", 0, vec![kernel(2.0, 0.5, 0.2, 0.5); 3]),
            one_task_client("b", 1, vec![kernel(1.0, 0.7, 0.1, 0.2); 5]),
        ];
        let config = EngineConfig::new(dev(), SharingMode::mps_uniform(2));
        let reference = run(SharingMode::mps_uniform(2), programs.clone());

        // Roster + scratch round-trip through three runs; every run must
        // match the plain `Engine::new(...).run()` bit for bit.
        let mut roster = ValidatedPrograms::new(&dev(), programs).unwrap();
        let mut scratch = EngineScratch::new();
        for _ in 0..3 {
            let engine = Engine::new_prevalidated(config.clone(), roster, scratch).unwrap();
            let (result, _stats, r, s) = engine.run_recycling().unwrap();
            roster = r;
            scratch = s;
            assert_eq!(
                serde_json::to_string(&result).unwrap(),
                serde_json::to_string(&reference).unwrap()
            );
        }
        assert_eq!(roster.len(), 2);
    }

    #[test]
    fn prevalidated_roster_rejects_device_mismatch() {
        let programs = vec![one_task_client("a", 0, vec![kernel(1.0, 0.5, 0.1, 0.0)])];
        let roster = ValidatedPrograms::new(&dev(), programs).unwrap();
        let mut other = dev();
        other.num_sms += 1;
        let config = EngineConfig::new(other, SharingMode::mps_uniform(1));
        let err = Engine::new_prevalidated(config, roster, EngineScratch::new());
        assert!(err.is_err(), "device mismatch must not be trusted");
    }

    #[test]
    fn single_client_runs_for_its_solo_time() {
        let c = one_task_client("solo", 0, vec![kernel(2.0, 0.5, 0.1, 0.5)]);
        let r = run(SharingMode::mps_uniform(1), vec![c]);
        // 2.0s kernel + 0.5s gap after it.
        assert!(
            (r.makespan.value() - 2.5).abs() < 1e-9,
            "makespan {}",
            r.makespan
        );
        assert_eq!(r.tasks_completed, 1);
        assert_eq!(r.clients[0].completions.len(), 1);
    }

    #[test]
    fn non_interfering_clients_fully_overlap() {
        let a = one_task_client("a", 0, vec![kernel(4.0, 0.3, 0.1, 0.0)]);
        let b = one_task_client("b", 1, vec![kernel(4.0, 0.3, 0.1, 0.0)]);
        let r = run(SharingMode::mps_uniform(2), vec![a, b]);
        assert!(
            (r.makespan.value() - 4.0).abs() < 1e-6,
            "makespan {}",
            r.makespan
        );
    }

    #[test]
    fn oversubscribed_clients_slow_down() {
        let a = one_task_client("a", 0, vec![kernel(4.0, 0.8, 0.0, 0.0)]);
        let b = one_task_client("b", 1, vec![kernel(4.0, 0.8, 0.0, 0.0)]);
        let r = run(SharingMode::mps_uniform(2), vec![a, b]);
        // Σ demand = 1.6 -> rate 1/1.6 -> 6.4 s.
        assert!(
            (r.makespan.value() - 6.4).abs() < 1e-6,
            "makespan {}",
            r.makespan
        );
    }

    #[test]
    fn sequential_mode_runs_one_after_another() {
        let a = one_task_client("a", 0, vec![kernel(3.0, 0.3, 0.0, 1.0)]);
        let b = one_task_client("b", 1, vec![kernel(3.0, 0.3, 0.0, 1.0)]);
        let r = run(SharingMode::Sequential, vec![a, b]);
        assert!(
            (r.makespan.value() - 8.0).abs() < 1e-9,
            "makespan {}",
            r.makespan
        );
        // Client b must start only after a finishes.
        assert!(r.clients[1].started >= r.clients[0].finished);
    }

    #[test]
    fn sequential_energy_exceeds_mps_energy_for_low_util_pair() {
        // The paper's core energy result: overlapping low-utilization work
        // amortizes idle power.
        let mk = |id| one_task_client("w", id, vec![kernel(5.0, 0.2, 0.05, 2.0)]);
        let seq = run(SharingMode::Sequential, vec![mk(0), mk(1)]);
        let mps = run(SharingMode::mps_uniform(2), vec![mk(2), mk(3)]);
        assert!(mps.makespan < seq.makespan);
        assert!(
            mps.total_energy.joules() < seq.total_energy.joules(),
            "mps {} !< seq {}",
            mps.total_energy,
            seq.total_energy
        );
    }

    #[test]
    fn partition_slows_a_saturating_kernel() {
        let mk = |id| one_task_client("w", id, vec![kernel(4.0, 0.9, 0.0, 0.0)]);
        let full = run(SharingMode::mps_uniform(1), vec![mk(0)]);
        let quarter = run(
            SharingMode::Mps {
                partitions: vec![Fraction::new(0.25)],
            },
            vec![mk(1)],
        );
        assert!((full.makespan.value() - 4.0).abs() < 1e-9);
        // Large grid -> nearly linear: ~16 s at 25 % partition.
        assert!(
            (quarter.makespan.value() - 16.0).abs() < 0.5,
            "makespan {}",
            quarter.makespan
        );
    }

    #[test]
    fn power_capping_throttles_and_is_accounted() {
        // Two hot kernels: dyn power = 2 * (1.75*90 + 1.0*50) = 415 W >> cap.
        let mk = |id| one_task_client("hot", id, vec![kernel(4.0, 0.9, 0.5, 0.0)]);
        let r = run(SharingMode::mps_uniform(2), vec![mk(0), mk(1)]);
        assert!(r.telemetry.capped_time().value() > 0.0);
        assert!(r.telemetry.capped_fraction() > 0.5);
        // Power never exceeds the cap.
        for s in r.telemetry.segments() {
            assert!(s.power.watts() <= 300.0 + 1e-9);
        }
        // Throttling stretches the makespan beyond pure contention.
        // Σ sm demand 1.8 -> contention alone gives 4*1.8 = 7.2 s.
        assert!(r.makespan.value() > 7.2);
    }

    #[test]
    fn timeslicing_serializes_gpu_but_overlaps_host_gaps() {
        // Kernel 1 s + gap 1 s, two kernels per task. Solo wall = 4 s.
        let mk = |id| {
            one_task_client(
                "bursty",
                id,
                vec![kernel(1.0, 0.6, 0.0, 1.0), kernel(1.0, 0.6, 0.0, 1.0)],
            )
        };
        let seq = run(SharingMode::Sequential, vec![mk(0), mk(1)]);
        let ts = run(SharingMode::timesliced_default(), vec![mk(2), mk(3)]);
        let mps = run(SharingMode::mps_uniform(2), vec![mk(4), mk(5)]);
        assert!((seq.makespan.value() - 8.0).abs() < 1e-6);
        // Time slicing overlaps one client's gaps with the other's kernels:
        // strictly better than sequential, worse than (or equal to) MPS.
        assert!(
            ts.makespan < seq.makespan,
            "ts {} seq {}",
            ts.makespan,
            seq.makespan
        );
        assert!(mps.makespan.value() <= ts.makespan.value() + 1e-6);
    }

    #[test]
    fn memory_pressure_blocks_second_client() {
        let mut big = one_task_client("big", 0, vec![kernel(2.0, 0.2, 0.0, 0.0)]);
        big.tasks[0].memory = MemBytes::from_gib(60);
        let mut big2 = one_task_client("big2", 1, vec![kernel(2.0, 0.2, 0.0, 0.0)]);
        big2.tasks[0].memory = MemBytes::from_gib(60);
        let r = run(SharingMode::mps_uniform(2), vec![big, big2]);
        // Second can only start after first frees its 60 GiB.
        assert!(
            (r.makespan.value() - 4.0).abs() < 1e-6,
            "makespan {}",
            r.makespan
        );
        assert_eq!(r.tasks_completed, 2);
    }

    #[test]
    fn multi_task_client_respects_order_and_counts_tasks() {
        let mut c = ClientProgram::new("wf");
        for id in 0..3 {
            let mut t = TaskProgram::new(TaskId::new(id), format!("t{id}"), MemBytes::from_mib(64));
            t.push_kernel(kernel(1.0, 0.4, 0.0, 0.0));
            c.push_task(t);
        }
        let r = run(SharingMode::mps_uniform(1), vec![c]);
        assert_eq!(r.tasks_completed, 3);
        let times: Vec<f64> = r.clients[0]
            .completions
            .iter()
            .map(|x| x.at.value())
            .collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        assert!((r.makespan.value() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn arrivals_delay_start() {
        let mut c = one_task_client("late", 0, vec![kernel(1.0, 0.3, 0.0, 0.0)]);
        c.arrival = Seconds::new(5.0);
        let r = run(SharingMode::mps_uniform(1), vec![c]);
        assert!((r.clients[0].started.value() - 5.0).abs() < 1e-9);
        assert!((r.makespan.value() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn telemetry_covers_makespan_and_reports_utilization() {
        let c = one_task_client("solo", 0, vec![kernel(2.0, 0.5, 0.25, 2.0)]);
        let r = run(SharingMode::mps_uniform(1), vec![c]);
        assert!((r.telemetry.total_time().value() - r.makespan.value()).abs() < 1e-9);
        // 2 s at 50% + 2 s at 0% -> 25% average.
        assert!((r.telemetry.avg_sm_util().value() - 25.0).abs() < 0.01);
        assert!((r.telemetry.avg_bw_util().value() - 12.5).abs() < 0.01);
        assert!((r.telemetry.busy_fraction() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn partition_length_mismatch_is_rejected() {
        let c = one_task_client("a", 0, vec![kernel(1.0, 0.3, 0.0, 0.0)]);
        let cfg = EngineConfig::new(
            dev(),
            SharingMode::Mps {
                partitions: vec![Fraction::ONE, Fraction::ONE],
            },
        );
        assert!(Engine::new(cfg, vec![c]).is_err());
    }

    #[test]
    fn client_limit_is_enforced() {
        let programs: Vec<ClientProgram> = (0..49)
            .map(|id| one_task_client("c", id, vec![kernel(0.1, 0.01, 0.0, 0.0)]))
            .collect();
        let cfg = EngineConfig::new(dev(), SharingMode::mps_uniform(49));
        let err = Engine::new(cfg, programs).unwrap_err();
        assert!(matches!(err, Error::ClientLimitExceeded { limit: 48, .. }));
    }

    #[test]
    fn forty_eight_clients_run_to_completion() {
        let programs: Vec<ClientProgram> = (0..48)
            .map(|id| one_task_client("c", id, vec![kernel(0.5, 0.02, 0.01, 0.1)]))
            .collect();
        let r = run(SharingMode::mps_uniform(48), programs);
        assert_eq!(r.tasks_completed, 48);
        // 48 × 0.02 = 0.96 demand: no contention, everything overlaps.
        assert!(r.makespan.value() < 0.7, "makespan {}", r.makespan);
    }

    #[test]
    fn gpu_progress_equals_solo_duration_without_contention() {
        let c = one_task_client("solo", 0, vec![kernel(3.0, 0.4, 0.0, 1.0)]);
        let r = run(SharingMode::mps_uniform(1), vec![c]);
        assert!((r.clients[0].gpu_progress.value() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn run_result_throughput_and_sorted_completions() {
        let a = one_task_client("a", 0, vec![kernel(1.0, 0.2, 0.0, 0.0)]);
        let b = one_task_client("b", 1, vec![kernel(2.0, 0.2, 0.0, 0.0)]);
        let r = run(SharingMode::mps_uniform(2), vec![a, b]);
        assert_eq!(r.tasks_completed, 2);
        assert!((r.throughput() - 2.0 / r.makespan.value()).abs() < 1e-12);
        let completions = r.completions();
        assert!(completions[0].at <= completions[1].at);
        assert_eq!(completions[0].label, "a");
    }

    #[test]
    fn average_power_matches_hand_computation() {
        // Solo kernel: sm 0.5, bw 0.2 -> dyn = 1.75*50 + 1.0*20 = 107.5 W;
        // total 182.5 W while busy.
        let c = one_task_client("solo", 0, vec![kernel(2.0, 0.5, 0.2, 0.0)]);
        let r = run(SharingMode::mps_uniform(1), vec![c]);
        assert!((r.telemetry.avg_power().watts() - 182.5).abs() < 1e-6);
        let expected: f64 = 182.5 * 2.0;
        assert!((r.total_energy.joules() - expected).abs() < 1e-6);
    }

    #[test]
    fn streams_avoid_per_client_pressure() {
        // Two identical light kernels with high client sensitivity: under
        // MPS they pay per-client pressure; as streams of one process they
        // run at full speed.
        let mk = |id| {
            let k = kernel(2.0, 0.2, 0.05, 0.0).with_client_sensitivity(0.2);
            let mut t = TaskProgram::new(TaskId::new(id), "s", MemBytes::from_mib(64));
            t.push_kernel(k);
            let mut c = ClientProgram::new("s");
            c.push_task(t);
            c
        };
        let mps = run(SharingMode::mps_uniform(2), vec![mk(0), mk(1)]);
        let streams = run(SharingMode::Streams, vec![mk(2), mk(3)]);
        assert!(
            (streams.makespan.value() - 2.0).abs() < 1e-6,
            "streams {}",
            streams.makespan
        );
        assert!(mps.makespan.value() > 2.2, "mps {}", mps.makespan);
    }

    #[test]
    fn streams_still_contend_for_resources() {
        let mk = |id| one_task_client("s", id, vec![kernel(2.0, 0.8, 0.0, 0.0)]);
        let r = run(SharingMode::Streams, vec![mk(0), mk(1)]);
        // Σ demand 1.6 -> both slow to 1/1.6.
        assert!(
            (r.makespan.value() - 3.2).abs() < 1e-6,
            "makespan {}",
            r.makespan
        );
    }

    #[test]
    fn streams_do_not_trigger_mps_power_peaks() {
        // ~210 W dynamic: the 1.18x two-client peak factor caps MPS
        // (75 + 1.18*210 > 300) while the fused-process streams stay under
        // (75 + 210 < 300).
        let mk = |id| one_task_client("s", id, vec![kernel(2.0, 0.55, 0.2, 0.0)]);
        let mps = run(SharingMode::mps_uniform(2), vec![mk(0), mk(1)]);
        let streams = run(SharingMode::Streams, vec![mk(2), mk(3)]);
        assert!(mps.telemetry.capped_time().value() > 0.0);
        assert_eq!(streams.telemetry.capped_time().value(), 0.0);
    }

    #[test]
    fn event_log_records_task_and_kernel_boundaries() {
        let c = one_task_client(
            "solo",
            0,
            vec![kernel(1.0, 0.4, 0.0, 0.5), kernel(1.0, 0.4, 0.0, 0.0)],
        );
        let cfg = EngineConfig::new(dev(), SharingMode::mps_uniform(1)).with_event_log(true);
        let r = Engine::new(cfg, vec![c]).unwrap().run().unwrap();
        let spans = r.events.kernel_spans();
        assert_eq!(spans.len(), 2);
        // First kernel runs [0, 1), gap to 1.5, second kernel [1.5, 2.5).
        assert_eq!(spans[0].3.value(), 0.0);
        assert!((spans[0].4.value() - 1.0).abs() < 1e-9);
        assert!((spans[1].3.value() - 1.5).abs() < 1e-9);
        // Task start/end present.
        use crate::events::EventKind;
        assert!(r
            .events
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::TaskStart { .. })));
        assert!(r
            .events
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::TaskEnd { .. })));
    }

    #[test]
    fn event_log_throttle_time_matches_telemetry() {
        let mk = |id| one_task_client("hot", id, vec![kernel(4.0, 0.9, 0.5, 0.0)]);
        let cfg = EngineConfig::new(dev(), SharingMode::mps_uniform(2)).with_event_log(true);
        let r = Engine::new(cfg, vec![mk(0), mk(1)]).unwrap().run().unwrap();
        let logged = r.events.throttled_time().value();
        let integrated = r.telemetry.capped_time().value();
        assert!(logged > 0.0);
        assert!(
            (logged - integrated).abs() < 1e-6,
            "log {logged} vs telemetry {integrated}"
        );
    }

    #[test]
    fn event_log_records_memory_blocking() {
        use crate::events::EventKind;
        let mut a = one_task_client("big", 0, vec![kernel(2.0, 0.2, 0.0, 0.0)]);
        a.tasks[0].memory = MemBytes::from_gib(60);
        let mut b = one_task_client("big2", 1, vec![kernel(2.0, 0.2, 0.0, 0.0)]);
        b.tasks[0].memory = MemBytes::from_gib(60);
        let cfg = EngineConfig::new(dev(), SharingMode::mps_uniform(2)).with_event_log(true);
        let r = Engine::new(cfg, vec![a, b]).unwrap().run().unwrap();
        assert!(r
            .events
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::MemoryBlocked { .. })));
    }

    #[test]
    fn event_log_is_empty_when_disabled() {
        let c = one_task_client("solo", 0, vec![kernel(1.0, 0.4, 0.0, 0.0)]);
        let r = run(SharingMode::mps_uniform(1), vec![c]);
        assert!(r.events.is_empty());
    }

    #[test]
    fn percent_types_round_trip_through_telemetry() {
        let c = one_task_client("solo", 0, vec![kernel(1.0, 0.33, 0.11, 0.0)]);
        let r = run(SharingMode::mps_uniform(1), vec![c]);
        let sm: Percent = r.telemetry.avg_sm_util();
        assert!((sm.value() - 33.0).abs() < 0.01);
    }

    /// Gap-heavy staggered workload: many events are pure time advancement
    /// (arrivals, setup expiry, gap expiry in other clients), so the rate
    /// cache must re-solve strictly less often than once per event, and
    /// never more often than the resident set changes.
    #[test]
    fn rate_solves_bounded_by_resident_changes_on_gap_heavy_run() {
        let programs: Vec<ClientProgram> = (0..8)
            .map(|id| {
                // Distinct durations/gaps per client so no two timers ever
                // expire at the same instant (merged events would hide the
                // pure-advancement ones this test is about).
                let dur = 0.2 + id as f64 * 0.013;
                let gap = 0.45 + id as f64 * 0.017;
                let kernels = (0..6).map(|_| kernel(dur, 0.05, 0.02, gap)).collect();
                let mut c = one_task_client("gappy", id, kernels);
                c.tasks[0].setup = Seconds::new(0.3);
                c.arrival = Seconds::new(id as f64 * 0.171);
                c
            })
            .collect();
        let engine = Engine::new(
            EngineConfig::new(dev(), SharingMode::mps_uniform(8)),
            programs,
        )
        .unwrap();
        let (r, stats) = engine.run_with_stats().unwrap();
        assert_eq!(r.tasks_completed, 8);
        assert!(
            stats.rate_solves <= stats.resident_changes,
            "rate solves {} must not exceed resident-set changes {}",
            stats.rate_solves,
            stats.resident_changes
        );
        assert!(
            stats.resident_changes < stats.events,
            "expected pure time-advancement events: {} changes vs {} events",
            stats.resident_changes,
            stats.events
        );
        assert!(stats.rate_solves < stats.events);
    }

    #[test]
    fn run_with_stats_matches_run() {
        let mk = || {
            let programs: Vec<ClientProgram> = (0..4)
                .map(|id| one_task_client("c", id, vec![kernel(0.5, 0.3, 0.1, 0.2)]))
                .collect();
            Engine::new(
                EngineConfig::new(dev(), SharingMode::mps_uniform(4)),
                programs,
            )
            .unwrap()
        };
        let plain = mk().run().unwrap();
        let (with_stats, stats) = mk().run_with_stats().unwrap();
        assert_eq!(plain.makespan, with_stats.makespan);
        assert_eq!(plain.total_energy, with_stats.total_energy);
        assert!(stats.events > 0 && stats.rate_solves > 0);
    }

    #[test]
    fn client_fault_aborts_mid_run_and_accounts_waste() {
        // Solo 4 s kernel, no contention (rate 1): a fault at 1.5 s wastes
        // exactly 1.5 s of progress and all dynamic energy spent so far.
        let c = one_task_client("victim", 0, vec![kernel(4.0, 0.3, 0.1, 0.0)]);
        let mut faults = FaultPlan::new();
        faults.push_client_fault(Seconds::new(1.5), 0);
        let cfg = EngineConfig::new(dev(), SharingMode::mps_uniform(1)).with_fault_plan(faults);
        let r = Engine::new(cfg, vec![c]).unwrap().run().unwrap();
        assert_eq!(r.tasks_completed, 0);
        assert_eq!(r.tasks_failed, 1);
        assert!(r.clients[0].failed);
        assert!(
            (r.makespan.value() - 1.5).abs() < 1e-9,
            "makespan {}",
            r.makespan
        );
        assert!((r.wasted_progress.value() - 1.5).abs() < 1e-9);
        assert!((r.wasted_fraction() - 1.0).abs() < 1e-12);
        // All dynamic energy spent went to the aborted task.
        assert!(r.clients[0].dyn_energy.joules() > 0.0);
        assert_eq!(r.clients[0].wasted_energy, r.clients[0].dyn_energy);
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].origin, 0);
        assert_eq!(r.failures[0].victims, 1);
    }

    #[test]
    fn domain_fault_kills_all_resident_clients() {
        let a = one_task_client("a", 0, vec![kernel(4.0, 0.2, 0.0, 0.0)]);
        let b = one_task_client("b", 1, vec![kernel(4.0, 0.2, 0.0, 0.0)]);
        let mut faults = FaultPlan::new();
        faults.push_domain_fault(Seconds::new(1.0), 0);
        let cfg = EngineConfig::new(dev(), SharingMode::mps_uniform(2))
            .with_fault_plan(faults)
            .with_event_log(true);
        let r = Engine::new(cfg, vec![a, b]).unwrap().run().unwrap();
        assert_eq!(r.tasks_completed, 0);
        assert_eq!(r.tasks_failed, 2);
        assert!(r.clients.iter().all(|c| c.failed));
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].victims, 2);
        // Device-level ServerCrash, then a ClientFault per victim with the
        // origin attributed.
        assert!(r
            .events
            .events()
            .iter()
            .any(|e| e.client == Event::DEVICE
                && matches!(e.kind, EventKind::ServerCrash { origin: 0 })));
        let client_faults: Vec<_> = r
            .events
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ClientFault { origin: 0 }))
            .collect();
        assert_eq!(client_faults.len(), 2);
    }

    #[test]
    fn fault_after_completion_is_a_noop() {
        // Origin finishes at 1 s; a domain fault at 2 s must not fire (an
        // exited process cannot crash the server), so the sibling survives.
        let a = one_task_client("a", 0, vec![kernel(1.0, 0.1, 0.0, 0.0)]);
        let b = one_task_client("b", 1, vec![kernel(4.0, 0.1, 0.0, 0.0)]);
        let mut faults = FaultPlan::new();
        faults.push_domain_fault(Seconds::new(2.0), 0);
        let cfg = EngineConfig::new(dev(), SharingMode::mps_uniform(2)).with_fault_plan(faults);
        let r = Engine::new(cfg, vec![a, b]).unwrap().run().unwrap();
        assert_eq!(r.tasks_completed, 2);
        assert_eq!(r.tasks_failed, 0);
        assert!(r.failures.is_empty());
        assert_eq!(r.wasted_progress, Seconds::ZERO);
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let mk = |id| one_task_client("w", id, vec![kernel(2.0, 0.4, 0.1, 0.5)]);
        let plain = run(SharingMode::mps_uniform(2), vec![mk(0), mk(1)]);
        let cfg = EngineConfig::new(dev(), SharingMode::mps_uniform(2))
            .with_fault_plan(FaultPlan::default());
        let with_plan = Engine::new(cfg, vec![mk(0), mk(1)]).unwrap().run().unwrap();
        assert_eq!(plain.makespan, with_plan.makespan);
        assert_eq!(plain.total_energy, with_plan.total_energy);
        assert_eq!(plain.clients, with_plan.clients);
        assert!(with_plan.failures.is_empty());
        assert_eq!(with_plan.tasks_failed, 0);
    }

    #[test]
    fn sequential_queue_unblocks_after_predecessor_crash() {
        let a = one_task_client("a", 0, vec![kernel(3.0, 0.3, 0.0, 0.0)]);
        let b = one_task_client("b", 1, vec![kernel(3.0, 0.3, 0.0, 0.0)]);
        let mut faults = FaultPlan::new();
        faults.push_client_fault(Seconds::new(1.0), 0);
        let cfg = EngineConfig::new(dev(), SharingMode::Sequential).with_fault_plan(faults);
        let r = Engine::new(cfg, vec![a, b]).unwrap().run().unwrap();
        // a dies at 1 s; b starts right then and runs its solo 3 s.
        assert!((r.clients[1].started.value() - 1.0).abs() < 1e-9);
        assert!(
            (r.makespan.value() - 4.0).abs() < 1e-9,
            "makespan {}",
            r.makespan
        );
        assert_eq!(r.tasks_completed, 1);
        assert_eq!(r.tasks_failed, 1);
    }

    #[test]
    fn abort_frees_memory_for_blocked_waiter() {
        let mut a = one_task_client("big", 0, vec![kernel(10.0, 0.2, 0.0, 0.0)]);
        a.tasks[0].memory = MemBytes::from_gib(60);
        let mut b = one_task_client("big2", 1, vec![kernel(2.0, 0.2, 0.0, 0.0)]);
        b.tasks[0].memory = MemBytes::from_gib(60);
        let mut faults = FaultPlan::new();
        faults.push_client_fault(Seconds::new(1.0), 0);
        let cfg = EngineConfig::new(dev(), SharingMode::mps_uniform(2)).with_fault_plan(faults);
        let r = Engine::new(cfg, vec![a, b]).unwrap().run().unwrap();
        // b was blocked on memory until a's abort freed 60 GiB at 1 s.
        assert_eq!(r.tasks_completed, 1);
        assert!(!r.clients[1].failed);
        assert!(
            (r.makespan.value() - 3.0).abs() < 1e-6,
            "makespan {}",
            r.makespan
        );
    }

    #[test]
    fn timesliced_fault_releases_gpu_to_sibling() {
        let mk = |id| one_task_client("ts", id, vec![kernel(2.0, 0.6, 0.0, 0.0)]);
        let mut faults = FaultPlan::new();
        faults.push_client_fault(Seconds::new(0.5), 0);
        let cfg =
            EngineConfig::new(dev(), SharingMode::timesliced_default()).with_fault_plan(faults);
        let r = Engine::new(cfg, vec![mk(0), mk(1)]).unwrap().run().unwrap();
        assert_eq!(r.tasks_completed, 1);
        assert!(!r.clients[1].failed);
        // The survivor still finishes: the fault released the device.
        assert!(r.clients[1].completions.len() == 1);
    }

    #[test]
    fn seeded_fault_runs_are_deterministic() {
        let mk = || {
            let programs: Vec<ClientProgram> = (0..6)
                .map(|id| one_task_client("w", id, vec![kernel(2.0, 0.3, 0.1, 0.2)]))
                .collect();
            let horizons = vec![Seconds::new(2.0); 6];
            let faults = FaultPlan::seeded(99, &horizons, 0.5)
                .unwrap()
                .widen_to_domain();
            let cfg = EngineConfig::new(dev(), SharingMode::mps_uniform(6)).with_fault_plan(faults);
            Engine::new(cfg, programs).unwrap().run().unwrap()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.clients, b.clients);
        assert!(
            !a.failures.is_empty(),
            "expected at least one fault at p=0.5"
        );
    }

    /// The precomputed completion index must yield exactly the merge-sort
    /// fallback order (including ties, which both paths break by client
    /// order thanks to the stable sort).
    #[test]
    fn completion_index_matches_sort_fallback() {
        let programs: Vec<ClientProgram> = (0..6)
            .map(|id| {
                // Identical durations force completion-time ties.
                one_task_client("tie", id, vec![kernel(1.0, 0.05, 0.01, 0.1)])
            })
            .collect();
        let r = run(SharingMode::mps_uniform(6), programs);
        assert_eq!(r.completion_order.len(), r.tasks_completed);
        let fast: Vec<TaskCompletion> = r.completions().into_iter().cloned().collect();
        let mut fallback = r.clone();
        fallback.completion_order.clear();
        let slow: Vec<TaskCompletion> = fallback.completions().into_iter().cloned().collect();
        assert_eq!(fast, slow);
    }

    /// Regression for the at-only completion sort: the canonical key is the
    /// full `(at, client, task)` triple. With `at` alone, equal-time records
    /// kept whatever flatten order the clients vec happened to have — which
    /// leaks in merged multi-instance (MIG) results, where the outcome at
    /// index 0 can carry an instance-local `client` field that is not 0 and
    /// per-client lists need not be in task order.
    #[test]
    fn equal_time_completions_sort_canonically_across_clients() {
        let mut r = run(
            SharingMode::mps_uniform(2),
            vec![
                one_task_client("a", 0, vec![kernel(1.0, 0.2, 0.0, 0.0)]),
                one_task_client("b", 1, vec![kernel(1.0, 0.2, 0.0, 0.0)]),
            ],
        );
        let tc = |task: u64, client: usize, at: f64| TaskCompletion {
            task: TaskId::new(task),
            label: format!("t{task}"),
            client,
            at: Seconds::new(at),
        };
        // Mimic a merged result: flatten order (index 0 first) disagrees
        // with client-field order, within-client lists disagree with task
        // order, and every record completes at the same instant. An at-only
        // stable sort would return flatten order: clients 1,1,0,0.
        r.clients[0].completions = vec![tc(7, 1, 2.0), tc(3, 1, 2.0)];
        r.clients[1].completions = vec![tc(5, 0, 2.0), tc(1, 0, 2.0)];
        r.completion_order.clear();

        let expect = vec![(2.0, 0, 1), (2.0, 0, 5), (2.0, 1, 3), (2.0, 1, 7)];
        let observed = |r: &RunResult| -> Vec<(f64, usize, u64)> {
            r.completions()
                .iter()
                .map(|c| (c.at.value(), c.client, c.task.raw()))
                .collect()
        };
        // Merge-and-sort fallback path (completion_order empty).
        assert_eq!(observed(&r), expect);
        // Precomputed index path must agree record for record.
        r.index_completions();
        assert_eq!(r.completion_order.len(), 4);
        assert_eq!(observed(&r), expect);
    }

    /// The time-slice solve cache is per kernel: every kernel start drops
    /// the client's cached `{client}` solution. Two clients whose
    /// back-to-back kernels differ in demand (so in power), rotated every
    /// quantum, must reproduce the forced full re-solve bit for bit while
    /// solving only once per kernel start plus once for the drained GPU.
    #[test]
    fn timeslice_cache_is_per_kernel() {
        let mk = |id| {
            let kernels = vec![
                kernel(0.01, 0.3, 0.1, 0.0),
                kernel(0.01, 0.9, 0.6, 0.0),
                kernel(0.01, 0.5, 0.3, 0.0),
            ];
            one_task_client("ts", id, kernels)
        };
        let run = |force: bool| {
            let cfg = EngineConfig::new(dev(), SharingMode::timesliced_default())
                .with_forced_full_resolve(force);
            Engine::new(cfg, vec![mk(0), mk(1)])
                .unwrap()
                .run_with_stats()
                .unwrap()
        };
        let (cached, stats) = run(false);
        let (full, full_stats) = run(true);
        assert_eq!(
            serde_json::to_string(&cached).unwrap(),
            serde_json::to_string(&full).unwrap()
        );
        assert_eq!(stats.events, full_stats.events);
        assert_eq!(stats.rate_solves, 6 + 1);
        assert!(full_stats.rate_solves > 4 * stats.rate_solves);
    }

    /// Regression for the rotation panic path: a fault aborts the only
    /// other runnable client mid-quantum, so a later quantum expiry finds a
    /// single survivor. The old code `.expect`ed at least two runnable
    /// clients and panicked; rotation must instead restart the quantum and
    /// let the survivor run to completion.
    #[test]
    fn rotation_with_single_survivor_after_fault() {
        // 2 ms quantum: a 50 ms kernel guarantees many expirations after
        // the 1 ms fault leaves exactly one runnable client.
        let mk = |id| one_task_client("ts", id, vec![kernel(0.05, 0.5, 0.0, 0.0)]);
        let mut faults = FaultPlan::new();
        faults.push_client_fault(Seconds::new(0.001), 1);
        let cfg =
            EngineConfig::new(dev(), SharingMode::timesliced_default()).with_fault_plan(faults);
        let r = Engine::new(cfg, vec![mk(0), mk(1)]).unwrap().run().unwrap();
        assert_eq!(r.tasks_completed, 1);
        assert_eq!(r.tasks_failed, 1);
        assert!(r.clients[1].failed);
        assert!(!r.clients[0].failed);
        assert_eq!(r.clients[0].completions.len(), 1);
        // The survivor runs solo after the fault: no sibling to rotate to,
        // so the run still terminates at its solo duration.
        assert!(
            r.makespan.value() >= 0.05 && r.makespan.value() < 0.1,
            "makespan {}",
            r.makespan
        );
    }
}
