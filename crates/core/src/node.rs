//! Multi-GPU node scheduling.
//!
//! The paper's setting is a node with several GPUs ("co-scheduling
//! workflows on the same *set* of GPUs"; its evaluation machine carried
//! two A100Xs). This module lifts the single-GPU planner to a node of any
//! GPU set, identical or mixed: collocation groups are distributed across
//! GPUs with longest-processing-time-first (LPT) list scheduling on their
//! estimated makespans, scaled by each device's speed relative to the
//! profiling device, each GPU executes its groups back to back, and the
//! node makespan is the maximum over GPUs.
//!
//! Energy accounting is board-accurate: a GPU that finishes early keeps
//! drawing its idle power until the node completes (nodes are powered as
//! a unit), so consolidating work onto fewer GPUs *and* finishing the node
//! sooner both show up in the energy metric.

use crate::estimate::estimate_group;
use crate::executor::{Executor, ExecutorConfig, RunOutcome};
use crate::metrics::Metrics;
use crate::planner::{PlanGroup, Planner, SchedulePlan};
use crate::wprofile::WorkflowProfile;
use mpshare_gpusim::DeviceSpec;
use mpshare_types::{Energy, Error, MemBytes, Result, Seconds};
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

    /// Validates global exactly-once coverage and each GPU's plan against
    /// its own device (`devices[g]` runs `per_gpu[g]`).
    pub fn validate(&self, devices: &[DeviceSpec], profiles: &[WorkflowProfile]) -> Result<()> {
        if self.per_gpu.len() != devices.len() {
            return Err(Error::PlanViolation(format!(
                "plan has {} GPU schedules for {} devices",
                self.per_gpu.len(),
                devices.len()
            )));
        }
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
        for (gpu, (plan, device)) in self.per_gpu.iter().zip(devices).enumerate() {
            for g in &plan.groups {
                if let Some(limit) = misfit(device, g, profiles) {
                    return Err(Error::PlanViolation(format!(
                        "gpu {gpu}: group exceeds {limit}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// The hard limit of `device` that `group` breaks — its MPS client limit
/// or its memory — if any. Every index in `group` must be in `profiles`.
fn misfit(
    device: &DeviceSpec,
    group: &PlanGroup,
    profiles: &[WorkflowProfile],
) -> Option<&'static str> {
    if group.workflow_indices.len() > device.max_mps_clients {
        return Some("client limit");
    }
    let mem: MemBytes = group
        .workflow_indices
        .iter()
        .map(|&i| profiles[i].max_memory)
        .sum();
    (mem > device.memory_capacity).then_some("device memory")
}

/// Validates `profiles` and estimates every group of `plan` on `device`,
/// returning `(makespan, group index)` pairs sorted longest first (the
/// LPT order). A `workflow_indices` entry outside `profiles` is an
/// [`Error::InvalidConfig`] naming the group and the entry.
fn lpt_order(
    device: &DeviceSpec,
    plan: &SchedulePlan,
    profiles: &[WorkflowProfile],
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
            let e = estimate_group(device, &members);
            Ok((e.makespan.value(), idx))
        })
        .collect::<Result<Vec<(f64, usize)>>>()?;
    estimated.sort_by(|a, b| b.0.total_cmp(&a.0));
    Ok(estimated)
}

/// Relative throughput of `device` for work calibrated on `reference`:
/// the binding ratio of SM count and memory bandwidth. Used as the speed
/// factor in node load balancing (exactly 1 for the reference itself).
pub fn relative_throughput(device: &DeviceSpec, reference: &DeviceSpec) -> f64 {
    let sm = device.num_sms as f64 / reference.num_sms as f64;
    let bw = device.memory_bandwidth_bytes_per_sec / reference.memory_bandwidth_bytes_per_sec;
    sm.min(bw)
}

/// Each device's speed factor against `reference`, or an error for a node
/// without GPUs.
fn node_speeds(reference: &DeviceSpec, devices: &[DeviceSpec]) -> Result<Vec<f64>> {
    if devices.is_empty() {
        return Err(Error::InvalidConfig("node needs at least one GPU".into()));
    }
    Ok(devices
        .iter()
        .map(|d| relative_throughput(d, reference).max(1e-6))
        .collect())
}

/// Distributes the groups of a single-GPU plan (made on `reference`, the
/// profiling device) across the node's `devices` with LPT list scheduling:
/// longest estimated group first, each to the GPU that would finish it
/// earliest, with makespans divided by each device's relative throughput
/// (faster devices absorb more work). A group only goes to a device whose
/// memory and MPS client limit can hold it; a group no device can hold is
/// an [`Error::InvalidConfig`] naming it. Group execution order within a
/// GPU follows the LPT assignment order, and a GPU may get no groups.
pub fn distribute_plan(
    reference: &DeviceSpec,
    devices: &[DeviceSpec],
    plan: &SchedulePlan,
    profiles: &[WorkflowProfile],
) -> Result<NodePlan> {
    let speeds = node_speeds(reference, devices)?;
    let estimated = lpt_order(reference, plan, profiles)?;
    let mut loads = vec![0.0f64; devices.len()];
    let mut per_gpu: Vec<SchedulePlan> = vec![SchedulePlan { groups: Vec::new() }; devices.len()];
    for (makespan, idx) in estimated {
        let group = &plan.groups[idx];
        let gpu = (0..devices.len())
            .filter(|&g| misfit(&devices[g], group, profiles).is_none())
            .min_by(|&a, &b| {
                let la = loads[a] + makespan / speeds[a];
                let lb = loads[b] + makespan / speeds[b];
                la.total_cmp(&lb)
            })
            .ok_or_else(|| {
                Error::InvalidConfig(format!(
                    "group {idx} ({} workflows) fits no device of the node: each exceeds its \
                     memory or client limit",
                    group.workflow_indices.len()
                ))
            })?;
        loads[gpu] += makespan / speeds[gpu];
        per_gpu[gpu].groups.push(group.clone());
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

/// Executes node plans and baselines on a set of GPUs: one executor per
/// device, all calibrated on the profiling device.
#[derive(Debug, Clone)]
pub struct NodeExecutor {
    executors: Vec<Executor>,
    /// Each device's [`relative_throughput`] against the profiling device.
    speeds: Vec<f64>,
}

impl NodeExecutor {
    /// `base` supplies the calibration device (its `device` field);
    /// `devices` are the node's actual GPUs.
    pub fn new(base: ExecutorConfig, devices: Vec<DeviceSpec>) -> Result<Self> {
        let speeds = node_speeds(&base.device, &devices)?;
        let executors = devices
            .into_iter()
            .map(|device| {
                Executor::new(ExecutorConfig {
                    device,
                    calibration_device: Some(base.device.clone()),
                })
            })
            .collect();
        Ok(NodeExecutor { executors, speeds })
    }

    /// Runs each GPU's work (`work[g]` on GPU `g`, skipping GPUs with none)
    /// in parallel — simulated GPUs are independent — and merges the
    /// per-GPU outcomes into a node outcome. A GPU that finishes before the
    /// node makespan, or has no work at all, draws its idle power until the
    /// node completes.
    fn run_node<W: Sync>(
        &self,
        work: &[W],
        is_empty: impl Fn(&W) -> bool,
        run: impl Fn(&Executor, &W) -> Result<RunOutcome> + Sync,
    ) -> Result<NodeOutcome> {
        let busy: Vec<usize> = (0..work.len()).filter(|&g| !is_empty(&work[g])).collect();
        let outcomes: Vec<RunOutcome> =
            mpshare_par::try_par_map(&busy, |&g| run(&self.executors[g], &work[g]))?;
        let makespan = outcomes
            .iter()
            .map(|o| o.makespan)
            .fold(Seconds::ZERO, Seconds::max);
        let idle = |g: usize| self.executors[g].device().idle_power;
        let mut energy = Energy::ZERO;
        let mut capped_weighted = 0.0;
        for (&g, o) in busy.iter().zip(&outcomes) {
            energy += o.energy;
            energy += idle(g) * makespan.saturating_sub(o.makespan);
            capped_weighted += o.capped_fraction * o.makespan.value();
        }
        for g in (0..self.executors.len()).filter(|g| !busy.contains(g)) {
            energy += idle(g) * makespan;
        }
        Ok(NodeOutcome {
            makespan,
            energy,
            tasks: outcomes.iter().map(|o| o.tasks).sum(),
            capped_fraction: if makespan.value() > 0.0 {
                capped_weighted / (makespan.value() * self.executors.len() as f64)
            } else {
                0.0
            },
        })
    }

    /// Runs a node plan: one per-GPU plan per device, by position.
    pub fn run_plan(&self, workflows: &[WorkflowSpec], plan: &NodePlan) -> Result<NodeOutcome> {
        if plan.per_gpu.len() != self.executors.len() {
            return Err(Error::InvalidConfig(format!(
                "plan has {} GPU schedules for {} devices",
                plan.per_gpu.len(),
                self.executors.len()
            )));
        }
        self.run_node(
            &plan.per_gpu,
            |p| p.groups.is_empty(),
            |executor, gpu_plan| executor.run_plan(workflows, gpu_plan),
        )
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
        // FIFO list scheduling onto the first-free GPU, by solo durations
        // scaled to each device's speed.
        let mut loads = vec![0.0f64; self.executors.len()];
        let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); self.executors.len()];
        for (i, p) in profiles.iter().enumerate() {
            let gpu = loads
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(g, _)| g)
                .expect("a node has at least one GPU");
            loads[gpu] += p.duration.value() / self.speeds[gpu];
            assignment[gpu].push(i);
        }
        self.run_node(&assignment, Vec::is_empty, |executor, idxs| {
            let subset: Vec<WorkflowSpec> = idxs.iter().map(|&i| workflows[i].clone()).collect();
            executor.run_sequential(&subset)
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{Planner, PlannerStrategy};
    use crate::policy::MetricPriority;
    use crate::wprofile::workflow_profile;
    use mpshare_profiler::ProfileStore;
    use mpshare_types::{Fraction, Percent, Power};
    use mpshare_workloads::{BenchmarkKind, ProblemSize};

    fn device() -> DeviceSpec {
        DeviceSpec::a100x()
    }

    /// A node of `n` identical A100Xs.
    fn gpus(n: usize) -> Vec<DeviceSpec> {
        vec![device(); n]
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
        let node = distribute_plan(&d, &gpus(2), &plan, &profiles).unwrap();
        node.validate(&gpus(2), &profiles).unwrap();
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

        let one = NodeExecutor::new(config.clone(), gpus(1)).unwrap();
        let node1 = distribute_plan(&d, &gpus(1), &plan, &profiles).unwrap();
        let r1 = one.run_plan(&q, &node1).unwrap();

        let two = NodeExecutor::new(config, gpus(2)).unwrap();
        let node2 = distribute_plan(&d, &gpus(2), &plan, &profiles).unwrap();
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
        let run = |n: usize| {
            let node = distribute_plan(&d, &gpus(n), &plan, &profiles).unwrap();
            NodeExecutor::new(config.clone(), gpus(n))
                .unwrap()
                .run_plan(&q, &node)
                .unwrap()
        };
        let (r1, r4) = (run(1), run(4));
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
        let node = distribute_plan(&d, &gpus(2), &plan, &profiles).unwrap();
        let exec = NodeExecutor::new(ExecutorConfig::new(d), gpus(2)).unwrap();
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
        let node = distribute_plan(&d, &gpus(2), &plan, &profiles).unwrap();

        // Duplicate a group onto the other GPU.
        let mut bad = node.clone();
        let extra = bad.per_gpu[0].groups[0].clone();
        bad.per_gpu[1].groups.push(extra);
        assert!(bad.validate(&gpus(2), &profiles).is_err());

        // Drop a group entirely.
        let mut bad = node.clone();
        bad.per_gpu[0].groups.clear();
        assert!(bad.validate(&gpus(2), &profiles).is_err());

        // One device too few for the per-GPU schedules.
        assert!(node.validate(&gpus(1), &profiles).is_err());
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
        assert!(relative_throughput(&amd, &a100) < 1.0);
        let devices = vec![a100.clone(), amd];
        let node = distribute_plan(&a100, &devices, &plan, &profiles).unwrap();
        node.validate(&devices, &profiles).unwrap();
        assert_eq!(node.per_gpu.len(), 2);

        let exec = NodeExecutor::new(ExecutorConfig::new(a100), devices).unwrap();
        let outcome = exec.run_plan(&q, &node).unwrap();
        assert_eq!(
            outcome.tasks,
            profiles.iter().map(|p| p.task_count).sum::<usize>()
        );
        assert!(outcome.makespan.value() > 0.0);
    }

    #[test]
    fn empty_nodes_and_mismatched_plans_are_rejected() {
        let d = device();
        assert!(NodeExecutor::new(ExecutorConfig::new(d.clone()), vec![]).is_err());
        let empty = SchedulePlan { groups: vec![] };
        assert!(distribute_plan(&d, &[], &empty, &[]).is_err());
        let exec = NodeExecutor::new(ExecutorConfig::new(d), gpus(2)).unwrap();
        let plan = NodePlan {
            per_gpu: vec![empty],
        };
        assert!(exec.run_plan(&[], &plan).is_err());
    }

    fn synthetic_profile(duration: f64, mem_gib: u64) -> WorkflowProfile {
        WorkflowProfile {
            label: "synthetic".into(),
            task_count: 1,
            avg_sm_util: Percent::new(40.0),
            avg_bw_util: Percent::new(10.0),
            max_memory: MemBytes::from_gib(mem_gib),
            // Unchecked scaling: `Seconds::new` would refuse NaN and
            // negative values, but arithmetic can still produce them.
            duration: Seconds::new(1.0) * duration,
            energy: Energy::from_joules(100.0),
            avg_power: Power::from_watts(150.0),
            busy_fraction: 0.8,
            saturation_partition: Fraction::new(0.5),
        }
    }

    fn solo_plan(indices: &[usize]) -> SchedulePlan {
        SchedulePlan {
            groups: indices
                .iter()
                .map(|&i| PlanGroup {
                    workflow_indices: vec![i],
                    partitions: vec![Fraction::ONE],
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
        let exec = NodeExecutor::new(ExecutorConfig::new(d.clone()), gpus(2)).unwrap();
        let workflows = &queue()[..2];
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let profiles = vec![synthetic_profile(10.0, 1), synthetic_profile(bad, 1)];
            let plan = solo_plan(&[0, 1]);
            assert_invalid_naming(distribute_plan(&d, &gpus(2), &plan, &profiles), "duration");
            assert_invalid_naming(exec.run_sequential(workflows, &profiles), "duration");
        }
    }

    #[test]
    fn out_of_range_workflow_index_is_a_typed_error() {
        let d = device();
        let profiles = vec![synthetic_profile(10.0, 1)];
        let plan = solo_plan(&[0, 3]);
        assert_invalid_naming(
            distribute_plan(&d, &gpus(2), &plan, &profiles),
            "workflow_indices",
        );
    }

    /// A group planned for the 80 GiB A100X (two 35 GiB workflows) only
    /// goes to a GPU that can hold it: never to a 64 GiB MI250X GCD, even
    /// when the GCD is the less loaded GPU, and a node of GCDs alone
    /// cannot take it at all.
    #[test]
    fn mixed_node_places_groups_only_where_they_fit() {
        let a100 = device();
        let gcd = DeviceSpec::mi250x_gcd();
        let profiles = vec![
            synthetic_profile(10.0, 35),
            synthetic_profile(10.0, 35),
            synthetic_profile(100.0, 1),
        ];
        let pair = PlanGroup {
            workflow_indices: vec![0, 1],
            partitions: vec![Fraction::ONE, Fraction::ONE],
        };
        let long = solo_plan(&[2]).groups.remove(0);
        let plan = SchedulePlan {
            groups: vec![pair.clone(), long.clone()],
        };
        plan.validate(&a100, &profiles).unwrap();

        assert_invalid_naming(
            distribute_plan(&a100, &[gcd.clone(), gcd.clone()], &plan, &profiles),
            "group 0",
        );

        // LPT places the long solo group first, on the faster A100X; the
        // idle GCD would then finish the pair sooner, but cannot hold it.
        let devices = vec![a100.clone(), gcd.clone()];
        let node = distribute_plan(&a100, &devices, &plan, &profiles).unwrap();
        assert_eq!(node.per_gpu[0].groups, vec![long, pair]);
        assert!(node.per_gpu[1].groups.is_empty());
        node.validate(&devices, &profiles).unwrap();

        // The same per-GPU plans checked against the swapped devices: the
        // pair would sit on the GCD.
        let err = node.validate(&[gcd, a100], &profiles).unwrap_err();
        assert!(err.to_string().contains("device memory"), "{err}");
    }
}
