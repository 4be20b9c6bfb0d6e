//! Extension experiment: heterogeneous nodes (the paper's intro motivates
//! a "heterogeneous accelerator era in HPC"; its future work names AMD
//! architectures).
//!
//! The same planned queue is distributed over three node shapes —
//! 2× A100X, 2× MI250X-GCD, and one of each — with speed-aware LPT
//! placement. Workloads are calibrated on the A100X (the profiling
//! device) and rescale on the GCD.

use crate::table::{fmt, Experiment, TextTable};
use mpshare_core::{
    distribute_plan, relative_throughput, workflow_profile, ExecutorConfig, MetricPriority,
    NodeExecutor, Planner, PlannerStrategy,
};
use mpshare_gpusim::DeviceSpec;
use mpshare_profiler::ProfileStore;
use mpshare_types::Result;
use mpshare_workloads::{BenchmarkKind, ProblemSize, WorkflowSpec};

/// The queue used across node shapes.
pub fn queue() -> Vec<WorkflowSpec> {
    vec![
        WorkflowSpec::uniform(BenchmarkKind::AthenaPk, ProblemSize::X4, 3),
        WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 40),
        WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X2, 8),
        WorkflowSpec::uniform(BenchmarkKind::ChollaGravity, ProblemSize::X4, 2),
        WorkflowSpec::uniform(BenchmarkKind::Lammps, ProblemSize::X1, 40),
        WorkflowSpec::uniform(BenchmarkKind::ChollaGravity, ProblemSize::X1, 30),
    ]
}

/// One node shape's result.
#[derive(Debug, Clone)]
pub struct Row {
    pub node: String,
    pub makespan_s: f64,
    pub energy_j: f64,
    pub relative_speed: f64,
}

/// Runs the queue on each node shape.
pub fn rows(reference: &DeviceSpec) -> Result<Vec<Row>> {
    let amd = DeviceSpec::mi250x_gcd();
    let shapes: Vec<(String, Vec<DeviceSpec>)> = vec![
        (
            "2x A100X".into(),
            vec![reference.clone(), reference.clone()],
        ),
        ("2x MI250X-GCD".into(), vec![amd.clone(), amd.clone()]),
        (
            "A100X + MI250X-GCD".into(),
            vec![reference.clone(), amd.clone()],
        ),
    ];

    let q = queue();
    let mut store = ProfileStore::new();
    store.profile_workflows(reference, &q)?;
    let profiles: Vec<_> = q
        .iter()
        .map(|w| workflow_profile(&store, w))
        .collect::<Result<Vec<_>>>()?;
    let plan = Planner::new(reference.clone(), MetricPriority::balanced_product())
        .plan(&profiles, PlannerStrategy::Auto)?;

    shapes
        .into_iter()
        .map(|(name, devices)| {
            let node = distribute_plan(reference, &devices, &plan, &profiles)?;
            let exec = NodeExecutor::new(ExecutorConfig::new(reference.clone()), devices.clone())?;
            let outcome = exec.run_plan(&q, &node)?;
            let speed: f64 = devices
                .iter()
                .map(|d| relative_throughput(d, reference))
                .sum();
            Ok(Row {
                node: name,
                makespan_s: outcome.makespan.value(),
                energy_j: outcome.energy.joules(),
                relative_speed: speed,
            })
        })
        .collect()
}

/// Full experiment.
pub fn run(device: &DeviceSpec) -> Result<Experiment> {
    let mut table = TextTable::new([
        "Node",
        "Aggregate speed (A100X=1)",
        "Makespan (s)",
        "Energy (J)",
    ]);
    for r in rows(device)? {
        table.push_row([
            r.node.clone(),
            fmt(r.relative_speed, 2),
            fmt(r.makespan_s, 1),
            fmt(r.energy_j, 0),
        ]);
    }
    Ok(Experiment::new(
        "ext_hetero",
        "Extension: the same planned queue on homogeneous and mixed GPU nodes",
        table,
    )
    .with_note(
        "workloads are profiled on the A100X; the GCD runs them rescaled (82% of the \
         bandwidth, higher idle draw); for queues that do not saturate the GCD the \
         makespans coincide and the node shapes separate on energy",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_shapes_order_by_energy_and_makespan() {
        let rows = rows(&DeviceSpec::a100x()).unwrap();
        assert_eq!(rows.len(), 3);
        let (a100, amd, mixed) = (&rows[0], &rows[1], &rows[2]);
        // This queue does not saturate the GCD's bandwidth, so makespans
        // are close; the A100X node is never slower beyond noise.
        assert!(
            a100.makespan_s <= amd.makespan_s * 1.02,
            "A100X node slower: {} vs {}",
            a100.makespan_s,
            amd.makespan_s
        );
        // Energy separates the shapes cleanly: the GCD idles at 90 W vs
        // the A100X's 75 W, so the all-GCD node costs the most and the
        // mixed node sits between.
        assert!(
            a100.energy_j < mixed.energy_j,
            "{} !< {}",
            a100.energy_j,
            mixed.energy_j
        );
        assert!(
            mixed.energy_j < amd.energy_j,
            "{} !< {}",
            mixed.energy_j,
            amd.energy_j
        );
        // Aggregate speeds reflect the bandwidth-bound rescaling.
        assert!(a100.relative_speed > mixed.relative_speed);
        assert!(mixed.relative_speed > amd.relative_speed);
    }
}
