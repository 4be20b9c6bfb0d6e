//! `mpshare-workloads` — the paper's benchmark repository, as workload
//! models.
//!
//! The paper's third contribution is "a repository of bare-metal HPC
//! benchmarks that can be run on small prototype HPC clusters … and
//! incorporates easy scaling of resources and problem size". The seven
//! codes (AthenaPK, BerkeleyGW-Epsilon, Cholla-Gravity, Cholla-MHD, Kripke,
//! LAMMPS, WarpX) cannot run here — they need real GPUs — so this crate
//! models each as a phase-level kernel mix whose *profiled* behaviour on
//! the `mpshare-gpusim` simulator reproduces the paper's published
//! measurements:
//!
//! * **Table I** — average achieved and theoretical warp occupancy, via
//!   per-benchmark launch geometries whose occupancy-calculator results
//!   land on the reported values;
//! * **Table II** — max memory, average memory-bandwidth and SM
//!   utilization, average power and energy at 1× and 4× problem sizes, via
//!   demand coefficients and duty cycles anchored to those rows.
//!
//! The anchors pin only *solo* profiles — exactly what the paper's offline
//! profiling step pins. Everything that happens under co-scheduling
//! (contention, throttling, energy amortization) is emergent from the
//! simulator's contention model.
//!
//! [`workflow`] builds multi-task workflows and the paper's Table III
//! combinations; [`synthetic`] describes parameterized artificial
//! workloads for property tests and ablations.

pub mod benchmarks;
pub mod builder;
pub mod calibration;
pub mod catalog;
pub mod generator;
pub mod spec;
pub mod synthetic;
pub mod workflow;

pub use builder::build_task;
pub use calibration::{fit_power_model, PowerFit};
pub use catalog::{all_benchmarks, benchmark, Benchmark};
pub use generator::QueueGenerator;
pub use spec::{AnchorProfile, BenchmarkKind, OccupancyTargets, ProblemSize};
pub use synthetic::SyntheticSpec;
pub use workflow::{table3_combinations, Combination, TaskSource, WorkflowSpec, WorkflowTask};
