//! `mpshare-profiler` — offline workload profiling (paper §IV-A).
//!
//! The first step of the paper's scheduling approach is offline profiling
//! of individual workflow tasks with NVIDIA Nsight Systems and
//! `nvidia-smi`: GPU compute, memory, and memory-bandwidth utilization,
//! average power, and GPU idle time. This crate reproduces that workflow
//! against the simulator, reading the engine's exact piecewise telemetry
//! integrals rather than emulating `nvidia-smi`'s sampling:
//!
//! * [`collector`] runs one task solo on a GPU and integrates its
//!   telemetry into a [`TaskProfile`] — one row of the paper's Table II,
//!   plus the occupancy columns of Table I;
//! * [`store`] is the profile database the scheduler consults, keyed by
//!   benchmark and problem size, or by a custom workload's name and spec;
//! * [`cache`] memoizes simulated profiles process-wide (sharded and
//!   thread-shareable), so each `(benchmark, size, device)` tuple is
//!   simulated exactly once no matter how many stores exist.
//!
//! Run timelines export as Chrome-tracing JSON through
//! `mpshare_obs::perfetto::chrome_trace` — the Nsight-Systems-style view
//! of a co-scheduled run.

pub mod cache;
pub mod collector;
pub mod profile;
pub mod store;

pub use cache::ProfileCache;
pub use collector::{profile_program, profile_task};
pub use profile::{OccupancyProfile, TaskProfile};
pub use store::{ProfileKey, ProfileStore};
