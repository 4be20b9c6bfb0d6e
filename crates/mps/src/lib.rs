//! `mpshare-mps` — models of NVIDIA's GPU sharing mechanisms.
//!
//! This crate configures the sharing mechanisms the paper evaluates
//! (§II-B) on top of the `mpshare-gpusim` execution engine. CUDA MPS
//! semantics — logical SM partitions, the post-Volta 48-client limit and
//! one shared failure domain — are enforced where results are produced:
//! the engine checks the client limit and partitions, and [`runner`]'s
//! [`FailureDomain`] widens client faults. There is no separate
//! daemon/server model.
//!
//! * [`timeslice`] — the default time-sliced scheduler used when MPS is
//!   not running.
//! * [`mig`] — Multi-Instance GPU: hardware partitioning into up to seven
//!   isolated instances, reconfigurable only while the GPU is idle.
//! * [`runner`] — a uniform "run these programs under this sharing
//!   mechanism" entry point used by the profiler, scheduler, and harness.

pub mod mig;
pub mod runner;
pub mod timeslice;

pub use mig::{MigInstance, MigLayout, MigProfile};
pub use runner::{FailureDomain, GpuRunner, GpuSharing};
pub use timeslice::TimeSliceConfig;
