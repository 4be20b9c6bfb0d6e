//! Multi-GPU node scheduling.
//!
//! The paper's setting is a node with several GPUs ("co-scheduling
//! workflows on the same *set* of GPUs"; its evaluation machine carried
//! two A100Xs). This module lifts the single-GPU planner to a node:
//! collocation groups are distributed across GPUs with
//! longest-processing-time-first (LPT) list scheduling on their estimated
//! makespans, each GPU executes its groups back to back, and the node
//! makespan is the maximum over GPUs.
//!
//! Energy accounting is board-accurate: a GPU that finishes early keeps
//! drawing idle power until the node completes (nodes are powered as a
//! unit), so consolidating work onto fewer GPUs *and* finishing the node
//! sooner both show up in the energy metric.

use crate::estimate::estimate_group;
use crate::executor::{Executor, ExecutorConfig, RunOutcome};
use crate::metrics::Metrics;
use crate::planner::{Planner, SchedulePlan};
use crate::wprofile::WorkflowProfile;
use mpshare_gpusim::DeviceSpec;
use mpshare_types::{Energy, Error, Power, Result, Seconds};
use mpshare_workloads::WorkflowSpec;
use serde::{Deserialize, Serialize};

/// A schedule for a whole node: one [`SchedulePlan`] per GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodePlan {
    pub per_gpu: Vec<SchedulePlan>,
}

impl NodePlan {
    /// Total workflows covered by the node plan.
    pub fn workflow_count(&self) -> usize {
        self.per_gpu.iter().map(|p| p.workflow_count()).sum()
    }

    /// Validates each GPU's plan and global exactly-once coverage.
    pub fn validate(&self, device: &DeviceSpec, profiles: &[WorkflowProfile]) -> Result<()> {
        let mut seen = vec![false; profiles.len()];
        for plan in &self.per_gpu {
            for g in &plan.groups {
                for &i in &g.workflow_indices {
                    if i >= profiles.len() {
                        return Err(Error::PlanViolation(format!("index {i} out of range")));
                    }
                    if seen[i] {
                        return Err(Error::PlanViolation(format!(
                            "workflow {i} scheduled on two GPUs"
                        )));
                    }
                    seen[i] = true;
                }
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(Error::PlanViolation(format!(
                "workflow {missing} not scheduled on any GPU"
            )));
        }
        // Per-GPU structural checks run against a filtered profile view:
        // reuse the single-GPU validation by checking group-level
        // constraints directly.
        for plan in &self.per_gpu {
            for g in &plan.groups {
                if g.workflow_indices.len() > device.max_mps_clients {
                    return Err(Error::PlanViolation("group exceeds client limit".into()));
                }
                let mem: mpshare_types::MemBytes = g
                    .workflow_indices
                    .iter()
                    .map(|&i| profiles[i].max_memory)
                    .sum();
                if mem > device.memory_capacity {
                    return Err(Error::PlanViolation("group exceeds device memory".into()));
                }
            }
        }
        Ok(())
    }
}

/// Validates `profiles` and estimates every group of `plan` on `device`,
/// returning `(makespan, group index)` pairs sorted longest first (the
/// LPT order). A `workflow_indices` entry outside `profiles` is an
/// [`Error::InvalidConfig`] naming the group and the entry.
fn lpt_order(
    device: &DeviceSpec,
    plan: &SchedulePlan,
    profiles: &[WorkflowProfile],
    sharing_overhead: f64,
) -> Result<Vec<(f64, usize)>> {
    Planner::validate_profiles(profiles)?;
    let mut estimated = plan
        .groups
        .iter()
        .enumerate()
        .map(|(idx, g)| {
            let members = g
                .workflow_indices
                .iter()
                .map(|&i| {
                    profiles.get(i).ok_or_else(|| {
                        Error::InvalidConfig(format!(
                            "group {idx}: workflow_indices entry {i} out of range for {} profiles",
                            profiles.len()
                        ))
                    })
                })
                .collect::<Result<Vec<&WorkflowProfile>>>()?;
            let e = estimate_group(device, &members, sharing_overhead);
            Ok((e.makespan.value(), idx))
        })
        .collect::<Result<Vec<(f64, usize)>>>()?;
    estimated.sort_by(|a, b| b.0.total_cmp(&a.0));
    Ok(estimated)
}

/// Distributes the groups of a single-GPU plan across `n_gpus` with LPT
/// list scheduling on estimated group makespans. Group execution order
/// within a GPU follows the LPT assignment order.
pub fn distribute_plan(
    device: &DeviceSpec,
    plan: &SchedulePlan,
    profiles: &[WorkflowProfile],
    n_gpus: usize,
    sharing_overhead: f64,
) -> Result<NodePlan> {
    if n_gpus == 0 {
        return Err(Error::InvalidConfig("node needs at least one GPU".into()));
    }
    // LPT: longest groups first, each to the currently least-loaded GPU.
    let estimated = lpt_order(device, plan, profiles, sharing_overhead)?;
    let mut loads = vec![0.0f64; n_gpus];
    let mut per_gpu: Vec<SchedulePlan> = vec![SchedulePlan { groups: Vec::new() }; n_gpus];
    for (makespan, idx) in estimated {
        let gpu = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("n_gpus > 0");
        loads[gpu] += makespan;
        per_gpu[gpu].groups.push(plan.groups[idx].clone());
    }
    // Drop empty GPUs' plans? Keep them: the node owns all GPUs and their
    // idle power either way.
    Ok(NodePlan { per_gpu })
}

/// Relative throughput of `device` for work calibrated on `reference`:
/// the binding ratio of SM count and memory bandwidth. Used as the speed
/// factor in heterogeneous load balancing.
pub fn relative_throughput(device: &DeviceSpec, reference: &DeviceSpec) -> f64 {
    let sm = device.num_sms as f64 / reference.num_sms as f64;
    let bw = device.memory_bandwidth_bytes_per_sec / reference.memory_bandwidth_bytes_per_sec;
    sm.min(bw)
}

/// Distributes a plan's groups across a *heterogeneous* set of GPUs:
/// LPT on estimated makespans divided by each device's relative
/// throughput (faster devices absorb more work).
pub fn distribute_plan_heterogeneous(
    reference: &DeviceSpec,
    devices: &[DeviceSpec],
    plan: &SchedulePlan,
    profiles: &[WorkflowProfile],
    sharing_overhead: f64,
) -> Result<NodePlan> {
    if devices.is_empty() {
        return Err(Error::InvalidConfig("node needs at least one GPU".into()));
    }
    let speeds: Vec<f64> = devices
        .iter()
        .map(|d| relative_throughput(d, reference).max(1e-6))
        .collect();
    let estimated = lpt_order(reference, plan, profiles, sharing_overhead)?;
    let mut loads = vec![0.0f64; devices.len()];
    let mut per_gpu: Vec<SchedulePlan> = vec![SchedulePlan { groups: Vec::new() }; devices.len()];
    for (makespan, idx) in estimated {
        let gpu = (0..devices.len())
            .min_by(|&a, &b| {
                let la = loads[a] + makespan / speeds[a];
                let lb = loads[b] + makespan / speeds[b];
                la.total_cmp(&lb)
            })
            .expect("non-empty devices");
        loads[gpu] += makespan / speeds[gpu];
        per_gpu[gpu].groups.push(plan.groups[idx].clone());
    }
    Ok(NodePlan { per_gpu })
}

/// Node-level outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeOutcome {
    /// Node makespan (max over GPUs).
    pub makespan: Seconds,
    /// Total energy including post-completion idle draw of early GPUs.
    pub energy: Energy,
    pub tasks: usize,
    /// Time-weighted capped fraction across GPUs.
    pub capped_fraction: f64,
}

/// Executes node plans and baselines.
#[derive(Debug, Clone)]
pub struct NodeExecutor {
    executor: Executor,
    device: DeviceSpec,
    n_gpus: usize,
}

impl NodeExecutor {
    pub fn new(config: ExecutorConfig, n_gpus: usize) -> Result<Self> {
        if n_gpus == 0 {
            return Err(Error::InvalidConfig("node needs at least one GPU".into()));
        }
        let device = config.device.clone();
        Ok(NodeExecutor {
            executor: Executor::new(config),
            device,
            n_gpus,
        })
    }

    pub fn n_gpus(&self) -> usize {
        self.n_gpus
    }

    /// Merges per-GPU outcomes into a node outcome, charging idle power to
    /// GPUs that finished before the node makespan (and to entirely idle
    /// GPUs).
    fn merge(&self, outcomes: &[RunOutcome]) -> NodeOutcome {
        let makespan = outcomes
            .iter()
            .map(|o| o.makespan)
            .fold(Seconds::ZERO, Seconds::max);
        let idle: Power = self.device.idle_power;
        let mut energy = Energy::ZERO;
        let mut capped_weighted = 0.0;
        for o in outcomes {
            energy += o.energy;
            energy += idle * makespan.saturating_sub(o.makespan);
            capped_weighted += o.capped_fraction * o.makespan.value();
        }
        // GPUs with no work at all idle for the whole node run.
        let unused = self.n_gpus.saturating_sub(outcomes.len());
        energy += idle * (makespan * unused as f64);
        NodeOutcome {
            makespan,
            energy,
            tasks: outcomes.iter().map(|o| o.tasks).sum(),
            capped_fraction: if makespan.value() > 0.0 {
                capped_weighted / (makespan.value() * self.n_gpus as f64)
            } else {
                0.0
            },
        }
    }

    /// Runs a node plan: each GPU's group sequence executes independently
    /// (in parallel here, since simulated GPUs are independent).
    pub fn run_plan(&self, workflows: &[WorkflowSpec], plan: &NodePlan) -> Result<NodeOutcome> {
        let non_empty: Vec<&SchedulePlan> = plan
            .per_gpu
            .iter()
            .filter(|p| !p.groups.is_empty())
            .collect();
        let outcomes: Vec<RunOutcome> = mpshare_par::try_par_map(&non_empty, |gpu_plan| {
            self.executor.run_plan(workflows, gpu_plan)
        })?;
        Ok(self.merge(&outcomes))
    }

    /// Node-level sequential baseline: workflows are handed out FIFO to
    /// the first free GPU and run exclusively (the paper's "jobs scheduled
    /// individually on GPUs in queue order with no parallel overlap").
    pub fn run_sequential(
        &self,
        workflows: &[WorkflowSpec],
        profiles: &[WorkflowProfile],
    ) -> Result<NodeOutcome> {
        if workflows.len() != profiles.len() {
            return Err(Error::InvalidConfig(
                "workflows and profiles must be parallel vectors".into(),
            ));
        }
        Planner::validate_profiles(profiles)?;
        // FIFO list scheduling onto the first-free GPU, by solo durations.
        let mut loads = vec![0.0f64; self.n_gpus];
        let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); self.n_gpus];
        for (i, p) in profiles.iter().enumerate() {
            let gpu = loads
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(g, _)| g)
                .expect("n_gpus > 0");
            loads[gpu] += p.duration.value();
            assignment[gpu].push(i);
        }
        let non_empty: Vec<&Vec<usize>> =
            assignment.iter().filter(|idxs| !idxs.is_empty()).collect();
        let outcomes: Vec<RunOutcome> = mpshare_par::try_par_map(&non_empty, |idxs| {
            let subset: Vec<WorkflowSpec> = idxs.iter().map(|&i| workflows[i].clone()).collect();
            self.executor.run_sequential(&subset)
        })?;
        Ok(self.merge(&outcomes))
    }

    /// Relative metrics of a node plan against the node-sequential
    /// baseline.
    pub fn evaluate(
        &self,
        workflows: &[WorkflowSpec],
        profiles: &[WorkflowProfile],
        plan: &NodePlan,
    ) -> Result<Metrics> {
        let shared = self.run_plan(workflows, plan)?;
        let seq = self.run_sequential(workflows, profiles)?;
        Ok(Metrics::relative(
            shared.makespan,
            shared.energy,
            shared.capped_fraction,
            seq.makespan,
            seq.energy,
            shared.tasks,
        ))
    }
}

/// Executes node plans on a *heterogeneous* GPU set: one executor per
/// device, all calibrated against the profiling device.
#[derive(Debug, Clone)]
pub struct HeteroNodeExecutor {
    executors: Vec<Executor>,
    devices: Vec<DeviceSpec>,
}

impl HeteroNodeExecutor {
    /// `base` supplies overheads and the calibration device (its `device`
    /// field); `devices` are the node's actual GPUs.
    pub fn new(base: ExecutorConfig, devices: Vec<DeviceSpec>) -> Result<Self> {
        if devices.is_empty() {
            return Err(Error::InvalidConfig("node needs at least one GPU".into()));
        }
        let calibration = base.device.clone();
        let executors = devices
            .iter()
            .map(|d| {
                let mut config = base.clone();
                config.device = d.clone();
                config.calibration_device = Some(calibration.clone());
                Executor::new(config)
            })
            .collect();
        Ok(HeteroNodeExecutor { executors, devices })
    }

    /// Runs a node plan (one per-GPU plan per device, by position).
    pub fn run_plan(&self, workflows: &[WorkflowSpec], plan: &NodePlan) -> Result<NodeOutcome> {
        if plan.per_gpu.len() != self.devices.len() {
            return Err(Error::InvalidConfig(format!(
                "plan has {} GPU schedules for {} devices",
                plan.per_gpu.len(),
                self.devices.len()
            )));
        }
        let indexed: Vec<(usize, &SchedulePlan)> = plan
            .per_gpu
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.groups.is_empty())
            .collect();
        let outcomes: Vec<(usize, RunOutcome)> =
            mpshare_par::try_par_map(&indexed, |&(gpu, gpu_plan)| {
                Ok((gpu, self.executors[gpu].run_plan(workflows, gpu_plan)?))
            })?;

        let makespan = outcomes
            .iter()
            .map(|(_, o)| o.makespan)
            .fold(Seconds::ZERO, Seconds::max);
        let mut energy = Energy::ZERO;
        let mut capped_weighted = 0.0;
        let mut busy = vec![false; self.devices.len()];
        let mut tasks = 0usize;
        for (gpu, o) in &outcomes {
            busy[*gpu] = true;
            energy += o.energy;
            energy += self.devices[*gpu].idle_power * makespan.saturating_sub(o.makespan);
            capped_weighted += o.capped_fraction * o.makespan.value();
            tasks += o.tasks;
        }
        for (gpu, was_busy) in busy.iter().enumerate() {
            if !was_busy {
                energy += self.devices[gpu].idle_power * makespan;
            }
        }
        Ok(NodeOutcome {
            makespan,
            energy,
            tasks,
            capped_fraction: if makespan.value() > 0.0 {
                capped_weighted / (makespan.value() * self.devices.len() as f64)
            } else {
                0.0
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{Planner, PlannerStrategy};
    use crate::policy::MetricPriority;
    use crate::wprofile::workflow_profile;
    use mpshare_profiler::ProfileStore;
    use mpshare_workloads::{BenchmarkKind, ProblemSize};

    fn device() -> DeviceSpec {
        DeviceSpec::a100x()
    }

    fn setup(queue: &[WorkflowSpec]) -> Vec<WorkflowProfile> {
        let mut store = ProfileStore::new();
        store.profile_workflows(&device(), queue).unwrap();
        queue
            .iter()
            .map(|w| workflow_profile(&store, w).unwrap())
            .collect()
    }

    fn queue() -> Vec<WorkflowSpec> {
        vec![
            WorkflowSpec::uniform(BenchmarkKind::AthenaPk, ProblemSize::X4, 2),
            WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 25),
            WorkflowSpec::uniform(BenchmarkKind::Lammps, ProblemSize::X1, 20),
            WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X4, 1),
        ]
    }

    #[test]
    fn distribute_balances_loads_across_gpus() {
        let d = device();
        let q = queue();
        let profiles = setup(&q);
        let plan = Planner::new(d.clone(), MetricPriority::Throughput)
            .plan(&profiles, PlannerStrategy::Greedy)
            .unwrap();
        let node = distribute_plan(&d, &plan, &profiles, 2, 0.0).unwrap();
        node.validate(&d, &profiles).unwrap();
        assert_eq!(node.per_gpu.len(), 2);
        assert_eq!(node.workflow_count(), q.len());
        // Both GPUs got something (the plan has ≥2 groups).
        assert!(node.per_gpu.iter().all(|p| !p.groups.is_empty()));
    }

    #[test]
    fn two_gpus_beat_one_gpu_makespan() {
        let d = device();
        let q = queue();
        let profiles = setup(&q);
        let plan = Planner::new(d.clone(), MetricPriority::Throughput)
            .plan(&profiles, PlannerStrategy::Greedy)
            .unwrap();
        let config = ExecutorConfig::new(d.clone());

        let one = NodeExecutor::new(config.clone(), 1).unwrap();
        let node1 = distribute_plan(&d, &plan, &profiles, 1, 0.0).unwrap();
        let r1 = one.run_plan(&q, &node1).unwrap();

        let two = NodeExecutor::new(config, 2).unwrap();
        let node2 = distribute_plan(&d, &plan, &profiles, 2, 0.0).unwrap();
        let r2 = two.run_plan(&q, &node2).unwrap();

        assert_eq!(r1.tasks, r2.tasks);
        assert!(
            r2.makespan < r1.makespan,
            "2 GPUs {} !< 1 GPU {}",
            r2.makespan,
            r1.makespan
        );
    }

    #[test]
    fn node_energy_charges_idle_gpus() {
        let d = device();
        let q = vec![WorkflowSpec::uniform(
            BenchmarkKind::Kripke,
            ProblemSize::X1,
            5,
        )];
        let profiles = setup(&q);
        let plan = Planner::new(d.clone(), MetricPriority::Throughput)
            .plan(&profiles, PlannerStrategy::Greedy)
            .unwrap();
        let config = ExecutorConfig::new(d.clone());

        let r1 = NodeExecutor::new(config.clone(), 1)
            .unwrap()
            .run_plan(&q, &distribute_plan(&d, &plan, &profiles, 1, 0.0).unwrap())
            .unwrap();
        let r4 = NodeExecutor::new(config, 4)
            .unwrap()
            .run_plan(&q, &distribute_plan(&d, &plan, &profiles, 4, 0.0).unwrap())
            .unwrap();
        assert_eq!(r1.makespan, r4.makespan);
        // Three extra idle GPUs burn 3 × idle × makespan more.
        let extra = 3.0 * 75.0 * r1.makespan.value();
        assert!((r4.energy.joules() - r1.energy.joules() - extra).abs() < 1.0);
    }

    #[test]
    fn planned_node_beats_node_sequential() {
        let d = device();
        let q = queue();
        let profiles = setup(&q);
        let plan = Planner::new(d.clone(), MetricPriority::balanced_product())
            .plan(&profiles, PlannerStrategy::Auto)
            .unwrap();
        let node = distribute_plan(&d, &plan, &profiles, 2, 0.0).unwrap();
        let exec = NodeExecutor::new(ExecutorConfig::new(d), 2).unwrap();
        let metrics = exec.evaluate(&q, &profiles, &node).unwrap();
        assert!(
            metrics.throughput_gain > 1.0,
            "node throughput gain {}",
            metrics.throughput_gain
        );
    }

    #[test]
    fn validation_catches_double_and_missing_assignment() {
        let d = device();
        let q = queue();
        let profiles = setup(&q);
        let plan = Planner::new(d.clone(), MetricPriority::Throughput)
            .plan(&profiles, PlannerStrategy::Greedy)
            .unwrap();
        let node = distribute_plan(&d, &plan, &profiles, 2, 0.0).unwrap();

        // Duplicate a group onto the other GPU.
        let mut bad = node.clone();
        let extra = bad.per_gpu[0].groups[0].clone();
        bad.per_gpu[1].groups.push(extra);
        assert!(bad.validate(&d, &profiles).is_err());

        // Drop a group entirely.
        let mut bad = node.clone();
        bad.per_gpu[0].groups.clear();
        assert!(bad.validate(&d, &profiles).is_err());
    }

    #[test]
    fn heterogeneous_node_prefers_the_faster_device() {
        let a100 = device();
        let amd = DeviceSpec::mi250x_gcd();
        let q = queue();
        let profiles = setup(&q);
        let plan = Planner::new(a100.clone(), MetricPriority::Throughput)
            .plan(&profiles, PlannerStrategy::Greedy)
            .unwrap();
        // The A100X is the faster device for A100X-calibrated work.
        assert!(super::relative_throughput(&amd, &a100) < 1.0);
        let devices = vec![a100.clone(), amd];
        let node =
            super::distribute_plan_heterogeneous(&a100, &devices, &plan, &profiles, 0.0).unwrap();
        node.validate(&a100, &profiles).unwrap();
        assert_eq!(node.per_gpu.len(), 2);

        let exec = super::HeteroNodeExecutor::new(ExecutorConfig::new(a100), devices).unwrap();
        let outcome = exec.run_plan(&q, &node).unwrap();
        assert_eq!(
            outcome.tasks,
            profiles.iter().map(|p| p.task_count).sum::<usize>()
        );
        assert!(outcome.makespan.value() > 0.0);
    }

    #[test]
    fn hetero_rejects_mismatched_plans_and_empty_nodes() {
        let a100 = device();
        assert!(super::HeteroNodeExecutor::new(ExecutorConfig::new(a100.clone()), vec![]).is_err());
        let exec = super::HeteroNodeExecutor::new(
            ExecutorConfig::new(a100.clone()),
            vec![a100.clone(), a100],
        )
        .unwrap();
        let plan = NodePlan {
            per_gpu: vec![SchedulePlan { groups: vec![] }],
        };
        assert!(exec.run_plan(&[], &plan).is_err());
    }

    fn synthetic_profile(duration: f64) -> WorkflowProfile {
        WorkflowProfile {
            label: "synthetic".into(),
            task_count: 1,
            avg_sm_util: mpshare_types::Percent::new(40.0),
            avg_bw_util: mpshare_types::Percent::new(10.0),
            max_memory: mpshare_types::MemBytes::from_gib(1),
            // Unchecked scaling: `Seconds::new` would refuse NaN and
            // negative values, but arithmetic can still produce them.
            duration: Seconds::new(1.0) * duration,
            energy: Energy::from_joules(100.0),
            avg_power: Power::from_watts(150.0),
            busy_fraction: 0.8,
            saturation_partition: mpshare_types::Fraction::new(0.5),
        }
    }

    fn solo_plan(indices: &[usize]) -> SchedulePlan {
        SchedulePlan {
            groups: indices
                .iter()
                .map(|&i| crate::planner::PlanGroup {
                    workflow_indices: vec![i],
                    partitions: vec![mpshare_types::Fraction::ONE],
                })
                .collect(),
        }
    }

    fn assert_invalid_naming(result: Result<impl std::fmt::Debug>, field: &str) {
        match result {
            Err(Error::InvalidConfig(msg)) => assert!(msg.contains(field), "{msg}"),
            other => panic!("expected InvalidConfig naming {field}, got {other:?}"),
        }
    }

    /// NaN, ∞ and negative durations used to panic in the LPT sorts
    /// (`partial_cmp(..).expect("finite …")`); every node entry point now
    /// rejects them as a typed error naming the field.
    #[test]
    fn degenerate_durations_are_typed_errors() {
        let d = device();
        let exec = NodeExecutor::new(ExecutorConfig::new(d.clone()), 2).unwrap();
        let workflows = &queue()[..2];
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let profiles = vec![synthetic_profile(10.0), synthetic_profile(bad)];
            let plan = solo_plan(&[0, 1]);
            assert_invalid_naming(distribute_plan(&d, &plan, &profiles, 2, 0.0), "duration");
            assert_invalid_naming(
                distribute_plan_heterogeneous(&d, std::slice::from_ref(&d), &plan, &profiles, 0.0),
                "duration",
            );
            assert_invalid_naming(exec.run_sequential(workflows, &profiles), "duration");
        }
    }

    #[test]
    fn out_of_range_workflow_index_is_a_typed_error() {
        let d = device();
        let profiles = vec![synthetic_profile(10.0)];
        let plan = solo_plan(&[0, 3]);
        assert_invalid_naming(
            distribute_plan(&d, &plan, &profiles, 2, 0.0),
            "workflow_indices",
        );
        assert_invalid_naming(
            distribute_plan_heterogeneous(&d, std::slice::from_ref(&d), &plan, &profiles, 0.0),
            "workflow_indices",
        );
    }

    #[test]
    fn zero_gpu_node_is_rejected() {
        let d = device();
        assert!(NodeExecutor::new(ExecutorConfig::new(d.clone()), 0).is_err());
        let plan = SchedulePlan { groups: vec![] };
        assert!(distribute_plan(&d, &plan, &[], 0, 0.0).is_err());
    }
}
