//! `mpshare-gpusim` — a discrete-event GPU simulator.
//!
//! This crate is the hardware substrate for the `mpshare` reproduction of
//! *"Granularity- and Interference-Aware GPU Sharing with MPS"* (SC 2024).
//! The paper's evaluation ran on NVIDIA A100X GPUs; this simulator stands in
//! for that hardware and reproduces the first-order behaviours the paper's
//! scheduling results depend on:
//!
//! * **Occupancy-limited parallelism** — a faithful CUDA occupancy
//!   calculator ([`occupancy`]) derives how many thread blocks fit on an SM
//!   from the launch configuration and device limits, and wave-quantized
//!   block scheduling produces the saturating, non-linear
//!   throughput-vs-partition curves of the paper's Figure 1.
//! * **Interference** — device memory bandwidth is a shared resource with
//!   proportional contention, SM allocations are capped by MPS partitions
//!   and scaled under oversubscription, and an optional cache-pressure model
//!   slows co-running kernels ([`contention`]).
//! * **Power and DVFS** — power is a linear function of SM and bandwidth
//!   utilization plus idle draw; when total draw exceeds the software power
//!   cap (300 W on the A100X) the clock is throttled so the cap holds, and
//!   the time spent capped is accounted ([`power`]) — the paper's Figure 3.
//! * **Energy** — power is integrated piecewise-exactly over the simulation,
//!   so idle-power amortization (the paper's main energy-efficiency driver)
//!   is emergent.
//!
//! The engine ([`engine`]) is a piecewise-constant-rate discrete-event
//! simulator: between events the set of resident kernels is fixed, so every
//! kernel's progress rate is constant and the next completion time is exact.
//! No time-stepping error, fully deterministic.

pub mod contention;
pub mod device;
pub mod engine;
mod equeue;
pub mod events;
pub mod fault;
pub mod invariant;
pub mod kernel;
pub mod occupancy;
pub mod power;
pub mod program;
pub mod telemetry;

pub use contention::{Allocation, ContentionSolver, PreparedContender, SolveScratch};
pub use device::DeviceSpec;
pub use engine::{
    ClientOutcome, Engine, EngineConfig, EngineRun, EngineScratch, EngineStats, RunResult,
    SharingMode, MAX_EVENTS,
};
pub use events::{Event, EventKind, EventLog};
pub use fault::{unit_hash, FaultPlan, FaultRecord, FaultScope, FaultSpec};
pub use kernel::{KernelSpec, LaunchConfig};
pub use occupancy::{OccupancyLimits, OccupancyReport};
pub use power::{PowerModel, PowerState};
pub use program::{ClientProgram, TaskProgram, ValidatedPrograms};
pub use telemetry::{Segment, Telemetry};
