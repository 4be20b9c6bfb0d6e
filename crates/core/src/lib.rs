//! `mpshare-core` — the paper's contribution: a granularity- and
//! interference-aware GPU co-scheduler using CUDA MPS.
//!
//! The scheduling approach (paper §IV):
//!
//! 1. **Offline profiling** (`mpshare-profiler`) produces per-task
//!    utilization/power profiles; [`wprofile`] aggregates them to workflow
//!    granularity.
//! 2. **Interference prediction** ([`interference`]): two workflows are
//!    predicted to interfere if their combined average SM utilization
//!    exceeds 100 %, combined average memory-bandwidth utilization exceeds
//!    100 %, or combined maximum memory exceeds device capacity.
//! 3. **Collocation planning** ([`planner`]): workflows with the lowest
//!    compute utilization are prioritized for co-scheduling; total compute
//!    utilization is kept under 100 %; combined memory stays under
//!    capacity; and the number of MPS clients follows the metric priority
//!    ([`policy`]): at most 2 for throughput, up to the 48-client maximum
//!    for energy efficiency.
//! 4. **Right-sizing** ([`rightsize`]): per-client MPS partitions (active
//!    thread percentages) are sized from the profiled SM demand, because
//!    partition granularity determines the benefit of sharing (Fig. 1).
//! 5. **Execution and evaluation** ([`executor`], [`metrics`]): plans run
//!    on the simulator; throughput and energy efficiency are measured
//!    relative to sequential scheduling, with product metrics
//!    ([`metrics::ProductMetric`]) to trade the two off (§IV-C).
//!
//! [`baseline`] provides the comparison points: sequential scheduling,
//! naive FIFO MPS packing, and time-sliced sharing.

pub mod baseline;
pub mod deps;
pub mod estimate;
pub mod executor;
pub mod interference;
pub mod metrics;
pub mod node;
pub mod online;
pub mod planner;
pub mod policy;
pub mod recommend;
pub mod rightsize;
pub mod wprofile;

pub use baseline::{fifo_plan, single_group_plan};
pub use deps::{plan_with_dependencies, validate_dependencies, Dependency};
pub use estimate::{estimate_group, GroupEstimate};
pub use executor::{EvaluationReport, Executor, ExecutorConfig, RunOutcome, WorkflowLatency};
pub use interference::{predict, InterferenceKind, InterferenceReport};
pub use metrics::{Metrics, ProductMetric};
pub use node::{distribute_plan, relative_throughput, NodeExecutor, NodeOutcome, NodePlan};
pub use online::{
    ArrivingWorkflow, DispatchRecord, OnlineFaultModel, OnlineOutcome, OnlineScheduler,
    RecoveryPolicy,
};
pub use planner::{PlanGroup, Planner, PlannerStrategy, SchedulePlan};
pub use policy::MetricPriority;
pub use recommend::{advise, Advice};
pub use rightsize::PartitionStrategy;
pub use wprofile::{workflow_profile, WorkflowProfile};
