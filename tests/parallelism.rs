//! Parallel fan-out vs. serial execution: results must be bit-identical.
//!
//! The engine is deterministic and `mpshare::par` writes results back by
//! input index, so worker count must never change any output. These tests
//! run the same planning/evaluation pipelines with fan-out enabled and
//! with the `--serial` escape hatch forced, and require exact equality —
//! not approximate agreement — across every level: plans, evaluation
//! reports, and whole harness experiments.
//!
//! `set_serial` is process-wide state; each test restores it before
//! returning, and the comparisons hold regardless of interleaving (both
//! modes produce identical values by construction).

use mpshare::core::workflow_profile;
use mpshare::core::{
    EvaluationReport, Executor, ExecutorConfig, MetricPriority, Planner, PlannerStrategy,
    SchedulePlan,
};
use mpshare::gpusim::DeviceSpec;
use mpshare::profiler::ProfileStore;
use mpshare::workloads::{BenchmarkKind, ProblemSize, WorkflowSpec};

fn device() -> DeviceSpec {
    DeviceSpec::a100x()
}

fn queue() -> Vec<WorkflowSpec> {
    vec![
        WorkflowSpec::uniform(BenchmarkKind::AthenaPk, ProblemSize::X4, 2),
        WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 10),
        WorkflowSpec::uniform(BenchmarkKind::Lammps, ProblemSize::X1, 1),
        WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X2, 4),
        WorkflowSpec::uniform(BenchmarkKind::AthenaPk, ProblemSize::X1, 3),
    ]
}

/// Runs the full pipeline — profile, plan (every strategy), evaluate
/// every plan — and returns everything it produced.
fn pipeline() -> (Vec<SchedulePlan>, Vec<EvaluationReport>) {
    let d = device();
    let workflows = queue();
    let mut store = ProfileStore::new();
    store.profile_workflows(&d, &workflows).unwrap();
    let profiles: Vec<_> = workflows
        .iter()
        .map(|w| workflow_profile(&store, w).unwrap())
        .collect();

    let planner = Planner::new(d, MetricPriority::balanced_product());
    let plans: Vec<SchedulePlan> = [
        PlannerStrategy::Greedy,
        PlannerStrategy::BestFit,
        PlannerStrategy::Auto,
        PlannerStrategy::Exhaustive,
    ]
    .iter()
    .map(|&s| planner.plan(&profiles, s).unwrap())
    .collect();

    let executor = Executor::new(ExecutorConfig::new(device()));
    let reports = plans
        .iter()
        .map(|plan| executor.evaluate_plan(&workflows, plan).unwrap())
        .collect();
    (plans, reports)
}

#[test]
fn parallel_pipeline_is_bit_identical_to_serial() {
    assert!(
        !mpshare::par::is_serial(),
        "MPSHARE_SERIAL must be unset for this test"
    );
    let (plans_par, reports_par) = pipeline();

    mpshare::par::set_serial(true);
    let (plans_ser, reports_ser) = pipeline();
    mpshare::par::set_serial(false);

    assert_eq!(plans_par, plans_ser);
    assert_eq!(reports_par, reports_ser);
}

#[test]
fn parallel_experiment_is_bit_identical_to_serial() {
    let d = device();
    let parallel = mpshare::harness::experiments::fig4::run(&d).unwrap();

    mpshare::par::set_serial(true);
    let serial = mpshare::harness::experiments::fig4::run(&d).unwrap();
    mpshare::par::set_serial(false);

    assert_eq!(parallel, serial);
}
