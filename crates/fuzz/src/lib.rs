//! `mpshare-fuzz` — deterministic scenario fuzzing for the mpshare
//! stack.
//!
//! The simulator ([`mpshare_gpusim`]), mechanism layer ([`mpshare_mps`])
//! and scheduler ([`mpshare_core`]) promise a set of cross-cutting
//! invariants: task and energy ledgers close, attribution decompositions
//! sum to the measured slowdown, aborted clients go silent, and every
//! run is bit-deterministic — serial or parallel, with or without the
//! time-slice solve cache. This crate stress-tests those promises:
//!
//! * [`scenario`] — a serializable [`Scenario`] model and a pure seeded
//!   generator ([`Scenario::generate`]) covering workload mixes, arrival
//!   patterns, fault plans, power caps, and all five sharing mechanisms.
//! * [`oracle`] — [`check_scenario`] runs a scenario through the real
//!   execution paths and checks every invariant, yielding violations
//!   plus a canonical output digest.
//! * [`shrink`] — a delta-debugging [`shrink::shrink`] that minimizes a
//!   failing scenario into a self-contained repro config.
//! * [`report`] — seed-block campaigns ([`report::run_campaign`]) whose
//!   rendered report is byte-identical serial vs parallel.
//! * [`zoo`] — replay of pinned scenarios under `configs/zoo/`, failing
//!   on any violation or digest drift (`make fuzz-smoke`).
//!
//! ```
//! use mpshare_fuzz::{check_scenario, Scenario};
//!
//! let scenario = Scenario::generate(42);
//! let report = check_scenario(&scenario).unwrap();
//! assert!(report.violations.is_empty());
//! // Same seed, same scenario, same digest — forever.
//! assert_eq!(report.digest, check_scenario(&Scenario::generate(42)).unwrap().digest);
//! ```

pub mod oracle;
pub mod report;
pub mod scenario;
pub mod shrink;
pub mod zoo;

pub use oracle::{check_scenario, fnv1a64, OracleReport, Violation};
pub use report::{render_report, run_campaign, Campaign, CampaignConfig, SeedOutcome};
pub use scenario::{
    ClientSpec, EngineScenario, FaultPoint, MechanismSpec, OnlineEntry, OnlineFaultSpec,
    OnlineScenario, PriorityChoice, RunSpec, Scenario, StrategyChoice,
};
pub use shrink::shrink as shrink_scenario;
pub use zoo::{replay_file, replay_zoo, ReplayOutcome};
