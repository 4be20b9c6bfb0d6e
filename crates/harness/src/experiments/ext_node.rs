//! Extension experiment: node scaling (not in the paper, enabled by the
//! multi-GPU scheduler).
//!
//! Takes a mixed queue, plans it once, distributes the groups across 1, 2
//! and 4 GPUs, and reports node-level throughput and energy against the
//! node-sequential baseline. Shows that collocation gains survive — and
//! idle-power amortization matters more — as the node grows.

use crate::table::{fmt, Experiment, TextTable};
use mpshare_core::{
    distribute_plan, workflow_profile, ExecutorConfig, MetricPriority, Metrics, NodeExecutor,
    Planner, PlannerStrategy,
};
use mpshare_gpusim::DeviceSpec;
use mpshare_profiler::ProfileStore;
use mpshare_types::Result;
use mpshare_workloads::{BenchmarkKind, ProblemSize, WorkflowSpec};

/// GPU counts swept.
pub const GPU_COUNTS: [usize; 3] = [1, 2, 4];

/// The queue used for the scaling sweep: eight mixed workflows.
pub fn queue() -> Vec<WorkflowSpec> {
    vec![
        WorkflowSpec::uniform(BenchmarkKind::AthenaPk, ProblemSize::X4, 3),
        WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 40),
        WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X2, 8),
        WorkflowSpec::uniform(BenchmarkKind::ChollaGravity, ProblemSize::X4, 2),
        WorkflowSpec::uniform(BenchmarkKind::Lammps, ProblemSize::X1, 40),
        WorkflowSpec::uniform(BenchmarkKind::WarpX, ProblemSize::X1, 4),
        WorkflowSpec::uniform(BenchmarkKind::AthenaPk, ProblemSize::X4, 2),
        WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X4, 2),
    ]
}

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Point {
    pub gpus: usize,
    pub metrics: Metrics,
    pub node_makespan_s: f64,
}

/// Runs the sweep.
pub fn points(device: &DeviceSpec) -> Result<Vec<Point>> {
    let q = queue();
    let mut store = ProfileStore::new();
    store.profile_workflows(device, &q)?;
    let profiles: Vec<_> = q
        .iter()
        .map(|w| workflow_profile(&store, w))
        .collect::<Result<Vec<_>>>()?;
    let plan = Planner::new(device.clone(), MetricPriority::balanced_product())
        .plan(&profiles, PlannerStrategy::Auto)?;

    GPU_COUNTS
        .iter()
        .map(|&gpus| {
            let devices = vec![device.clone(); gpus];
            let node_plan = distribute_plan(device, &devices, &plan, &profiles)?;
            let exec = NodeExecutor::new(ExecutorConfig::new(device.clone()), devices)?;
            let shared = exec.run_plan(&q, &node_plan)?;
            let metrics = exec.evaluate(&q, &profiles, &node_plan)?;
            Ok(Point {
                gpus,
                metrics,
                node_makespan_s: shared.makespan.value(),
            })
        })
        .collect()
}

/// Full experiment.
pub fn run(device: &DeviceSpec) -> Result<Experiment> {
    let mut table = TextTable::new([
        "GPUs",
        "Node makespan (s)",
        "Throughput vs node-seq",
        "Energy eff vs node-seq",
    ]);
    for p in points(device)? {
        table.push_row([
            p.gpus.to_string(),
            fmt(p.node_makespan_s, 1),
            fmt(p.metrics.throughput_gain, 3),
            fmt(p.metrics.energy_efficiency_gain, 3),
        ]);
    }
    Ok(Experiment::new(
        "ext_node",
        "Extension: collocation gains across node sizes (1/2/4 GPUs)",
        table,
    )
    .with_note(
        "not a paper artifact: enabled by the multi-GPU scheduler; baselines are \
         node-sequential (FIFO to first-free GPU, exclusive execution)",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_scaling_preserves_collocation_gains() {
        let pts = points(&DeviceSpec::a100x()).unwrap();
        assert_eq!(pts.len(), 3);
        for p in &pts {
            assert!(
                p.metrics.throughput_gain > 1.0,
                "{} GPUs: gain {}",
                p.gpus,
                p.metrics.throughput_gain
            );
        }
        // More GPUs -> shorter node makespan.
        assert!(pts[1].node_makespan_s < pts[0].node_makespan_s);
        assert!(pts[2].node_makespan_s <= pts[1].node_makespan_s + 1e-6);
    }
}
