//! Plan execution and evaluation on the simulator.
//!
//! The executor materializes workflow specs into client programs, runs
//! them under a schedule plan (MPS groups, one after another), under
//! time-slicing, or sequentially, and computes the paper's relative
//! metrics (§IV-C) from the raw outcomes.

use crate::metrics::Metrics;
use crate::planner::SchedulePlan;
use mpshare_gpusim::{DeviceSpec, RunResult};
use mpshare_mps::{GpuRunner, GpuSharing, TimeSliceConfig};
use mpshare_types::{Energy, IdAllocator, Percent, Power, Result, Seconds};
use mpshare_workloads::WorkflowSpec;
use serde::{Deserialize, Serialize};

/// Device-level per-co-runner MPS sharing overhead every executor run
/// charges. The dominant co-runner costs are modeled per workload (each
/// kernel's `client_sensitivity` — launch-path and scheduler contention
/// under MPS); this residual covers what is workload-independent. The
/// planner's estimator does not charge it
/// (see [`crate::estimate::estimate_group`]).
pub const DEFAULT_MPS_OVERHEAD: f64 = 0.002;

/// Executor configuration. Every run charges [`DEFAULT_MPS_OVERHEAD`] per
/// co-runner, and time-sliced runs use the driver's default quantum
/// ([`TimeSliceConfig::driver_default`]).
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    pub device: DeviceSpec,
    /// Device the workloads were profiled/calibrated on, when different
    /// from the execution device (heterogeneous nodes). Programs are built
    /// against this device and carry it as their reference, so executing
    /// on `device` rescales demands and speeds.
    pub calibration_device: Option<DeviceSpec>,
}

impl ExecutorConfig {
    pub fn new(device: DeviceSpec) -> Self {
        ExecutorConfig {
            device,
            calibration_device: None,
        }
    }

    /// The device programs are built against.
    pub fn build_device(&self) -> &DeviceSpec {
        self.calibration_device.as_ref().unwrap_or(&self.device)
    }
}

/// Raw outcome of one scheduling configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    pub makespan: Seconds,
    pub energy: Energy,
    pub capped_fraction: f64,
    pub tasks: usize,
    pub avg_power: Power,
    pub avg_sm_util: Percent,
}

impl RunOutcome {
    fn from_result(r: &RunResult) -> Self {
        RunOutcome {
            makespan: r.makespan,
            energy: r.total_energy,
            capped_fraction: r.telemetry.capped_fraction(),
            tasks: r.tasks_completed,
            avg_power: r.telemetry.avg_power(),
            avg_sm_util: r.telemetry.avg_sm_util(),
        }
    }

    /// Combines sequential phases (groups run back to back): times and
    /// energies add; fractions weight by time.
    ///
    /// A chain of zero total duration (no phases, or all phases empty)
    /// yields neutral zeros for the time-weighted fields — never NaN —
    /// and the downstream ratio metrics treat that zero makespan as
    /// trivially fast, not infinitely slow (see [`Metrics::relative`]).
    fn chain(outcomes: &[RunOutcome]) -> RunOutcome {
        let total_time: f64 = outcomes.iter().map(|o| o.makespan.value()).sum();
        let energy: f64 = outcomes.iter().map(|o| o.energy.joules()).sum();
        let capped: f64 = outcomes
            .iter()
            .map(|o| o.capped_fraction * o.makespan.value())
            .sum();
        let sm: f64 = outcomes
            .iter()
            .map(|o| o.avg_sm_util.value() * o.makespan.value())
            .sum();
        let tasks = outcomes.iter().map(|o| o.tasks).sum();
        RunOutcome {
            makespan: Seconds::new(total_time),
            energy: Energy::from_joules(energy),
            capped_fraction: if total_time > 0.0 {
                capped / total_time
            } else {
                0.0
            },
            tasks,
            avg_power: if total_time > 0.0 {
                Power::from_watts(energy / total_time)
            } else {
                Power::ZERO
            },
            avg_sm_util: Percent::clamped(if total_time > 0.0 {
                sm / total_time
            } else {
                0.0
            }),
        }
    }
}

/// Per-workflow latency under a shared schedule.
///
/// The paper's §VI caveat: "if the latency of any individual workflow is
/// most important then one should carefully evaluate the cost and benefit
/// of concurrent execution" — these numbers are that evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkflowLatency {
    /// Index into the evaluated queue.
    pub workflow: usize,
    /// Completion time measured from the start of the whole schedule.
    pub turnaround: Seconds,
    /// The workflow's solo wall-clock time (exclusive GPU).
    pub solo: Seconds,
}

impl WorkflowLatency {
    /// Normalized turnaround: how many times its solo duration the
    /// workflow waited+ran under the shared schedule.
    ///
    /// Degenerate denominators follow the workspace-wide convention (see
    /// [`Metrics::relative`]): a zero-duration solo run that also finished
    /// instantly under sharing has slowdown `1.0` (trivially unchanged),
    /// while any positive turnaround against a zero solo time is
    /// `f64::INFINITY` — never `0.0`, which would read as a speedup.
    pub fn slowdown(&self) -> f64 {
        if self.solo.value() > 0.0 {
            self.turnaround.value() / self.solo.value()
        } else if self.turnaround.value() > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    }
}

/// Full evaluation of a shared configuration against the sequential
/// baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluationReport {
    pub shared: RunOutcome,
    pub sequential: RunOutcome,
    pub metrics: Metrics,
    /// Per-workflow latency under the shared plan (empty when the report
    /// was built from raw outcomes rather than a plan).
    pub latencies: Vec<WorkflowLatency>,
}

impl EvaluationReport {
    /// Worst per-workflow slowdown (1.0 when no latencies recorded).
    pub fn max_slowdown(&self) -> f64 {
        self.latencies
            .iter()
            .map(WorkflowLatency::slowdown)
            .fold(1.0, f64::max)
    }

    /// Mean per-workflow slowdown (1.0 when no latencies recorded).
    pub fn mean_slowdown(&self) -> f64 {
        if self.latencies.is_empty() {
            return 1.0;
        }
        self.latencies
            .iter()
            .map(WorkflowLatency::slowdown)
            .sum::<f64>()
            / self.latencies.len() as f64
    }
}

/// Runs workflow queues under schedule plans and baselines.
#[derive(Debug, Clone)]
pub struct Executor {
    config: ExecutorConfig,
}

impl Executor {
    pub fn new(config: ExecutorConfig) -> Self {
        Executor { config }
    }

    pub fn device(&self) -> &DeviceSpec {
        &self.config.device
    }

    fn runner(&self) -> GpuRunner {
        GpuRunner::new(self.config.device.clone()).with_sharing_overhead(DEFAULT_MPS_OVERHEAD)
    }

    fn materialize(
        &self,
        workflows: &[WorkflowSpec],
    ) -> Result<Vec<mpshare_gpusim::ClientProgram>> {
        let mut ids = IdAllocator::new();
        workflows
            .iter()
            .map(|w| w.to_client_program(self.config.build_device(), &mut ids))
            .collect()
    }

    /// Records an Executor-track leg span for one baseline/leg run.
    fn record_leg(leg: &'static str, workflows: usize, outcome: &RunOutcome) {
        if !mpshare_obs::enabled() {
            return;
        }
        let (makespan, tasks) = (outcome.makespan.value(), outcome.tasks);
        mpshare_obs::emit(
            mpshare_obs::Track::Executor,
            "executor.leg",
            Some(0.0),
            Some(makespan),
            || {
                serde_json::json!({
                    "leg": leg,
                    "workflows": workflows,
                    "tasks": tasks,
                })
            },
        );
    }

    /// Sequential baseline: all workflows one after another, queue order.
    pub fn run_sequential(&self, workflows: &[WorkflowSpec]) -> Result<RunOutcome> {
        let programs = self.materialize(workflows)?;
        let result = self.runner().run(&GpuSharing::Sequential, programs)?;
        let outcome = RunOutcome::from_result(&result);
        Self::record_leg("sequential", workflows.len(), &outcome);
        Ok(outcome)
    }

    /// Time-sliced sharing of the whole queue (the paper's non-MPS
    /// comparison point).
    pub fn run_timesliced(&self, workflows: &[WorkflowSpec]) -> Result<RunOutcome> {
        let programs = self.materialize(workflows)?;
        let result = self.runner().run(
            &GpuSharing::TimeSliced(TimeSliceConfig::driver_default()),
            programs,
        )?;
        let outcome = RunOutcome::from_result(&result);
        Self::record_leg("time-sliced", workflows.len(), &outcome);
        Ok(outcome)
    }

    /// Naive MPS: the whole queue as one concurrent group with default
    /// (100 %) partitions — what a user gets by just starting the MPS
    /// daemon without a scheduler.
    pub fn run_mps_naive(&self, workflows: &[WorkflowSpec]) -> Result<RunOutcome> {
        let programs = self.materialize(workflows)?;
        let n = programs.len();
        let result = self.runner().run(&GpuSharing::mps_default(n), programs)?;
        let outcome = RunOutcome::from_result(&result);
        Self::record_leg("mps-naive", workflows.len(), &outcome);
        Ok(outcome)
    }

    /// Runs one plan group and returns the raw engine result (for trace
    /// export and detailed inspection).
    pub fn run_group_raw(
        &self,
        workflows: &[WorkflowSpec],
        group: &crate::planner::PlanGroup,
        ids: &mut IdAllocator,
    ) -> Result<mpshare_gpusim::RunResult> {
        self.run_group_raw_with_faults(workflows, group, ids, &mpshare_gpusim::FaultPlan::default())
    }

    /// Like [`Executor::run_group_raw`], injecting `faults` (client
    /// indices are positions within the group). The group runs under MPS,
    /// so the runner widens each fault to the shared server's failure
    /// domain: one member's fatal fault aborts the whole group.
    pub fn run_group_raw_with_faults(
        &self,
        workflows: &[WorkflowSpec],
        group: &crate::planner::PlanGroup,
        ids: &mut IdAllocator,
        faults: &mpshare_gpusim::FaultPlan,
    ) -> Result<mpshare_gpusim::RunResult> {
        let programs = group
            .workflow_indices
            .iter()
            .map(|&i| workflows[i].to_client_program(self.config.build_device(), ids))
            .collect::<Result<Vec<_>>>()?;
        let sharing = GpuSharing::Mps {
            partitions: group.partitions.clone(),
        };
        self.runner().run_with_faults(&sharing, programs, faults)
    }

    /// Solo wall time per workflow — the horizon a fault model scales its
    /// per-attempt fault times by.
    pub fn solo_wall_times(&self, workflows: &[WorkflowSpec]) -> Result<Vec<Seconds>> {
        let mut ids = IdAllocator::new();
        workflows
            .iter()
            .map(|w| {
                Ok(w.to_client_program(self.config.build_device(), &mut ids)?
                    .solo_wall_time())
            })
            .collect()
    }

    /// Runs a schedule plan: each group concurrently under MPS with its
    /// partitions, groups back to back.
    pub fn run_plan(&self, workflows: &[WorkflowSpec], plan: &SchedulePlan) -> Result<RunOutcome> {
        Ok(self.run_plan_with_latencies(workflows, plan)?.0)
    }

    /// Like [`Executor::run_plan`], additionally returning per-workflow
    /// turnaround latencies (schedule start → workflow completion).
    pub fn run_plan_with_latencies(
        &self,
        workflows: &[WorkflowSpec],
        plan: &SchedulePlan,
    ) -> Result<(RunOutcome, Vec<WorkflowLatency>)> {
        let mut outcomes = Vec::with_capacity(plan.groups.len());
        let mut latencies = Vec::new();
        let mut ids = IdAllocator::new();
        let mut offset = Seconds::ZERO;
        for (group_index, group) in plan.groups.iter().enumerate() {
            let result = self.run_group_raw(workflows, group, &mut ids)?;
            if mpshare_obs::enabled() {
                let members = group.workflow_indices.clone();
                let (start, dur) = (offset.value(), result.makespan.value());
                let tasks = result.tasks_completed;
                mpshare_obs::emit(
                    mpshare_obs::Track::Executor,
                    "executor.group",
                    Some(start),
                    Some(dur),
                    || {
                        serde_json::json!({
                            "group": group_index,
                            "workflows": members,
                            "tasks": tasks,
                        })
                    },
                );
            }
            for (&workflow, client) in group.workflow_indices.iter().zip(&result.clients) {
                let solo = workflows[workflow]
                    .to_client_program(self.config.build_device(), &mut ids)?
                    .solo_wall_time();
                latencies.push(WorkflowLatency {
                    workflow,
                    turnaround: offset + client.finished,
                    solo,
                });
            }
            offset += result.makespan;
            outcomes.push(RunOutcome::from_result(&result));
        }
        latencies.sort_by_key(|l| l.workflow);
        Ok((RunOutcome::chain(&outcomes), latencies))
    }

    /// Evaluates a plan against the sequential baseline. The shared and
    /// sequential legs are independent simulations, so they run in
    /// parallel (see [`mpshare_par::join`]); results are bit-identical to
    /// the serial path.
    pub fn evaluate_plan(
        &self,
        workflows: &[WorkflowSpec],
        plan: &SchedulePlan,
    ) -> Result<EvaluationReport> {
        let (shared_leg, sequential_leg) = mpshare_par::join(
            || self.run_plan_with_latencies(workflows, plan),
            || self.run_sequential(workflows),
        );
        let (shared, latencies) = shared_leg?;
        let mut report = self.report(shared, sequential_leg?);
        report.latencies = latencies;
        Ok(report)
    }

    /// Evaluates an arbitrary shared outcome against the baseline.
    pub fn report(&self, shared: RunOutcome, sequential: RunOutcome) -> EvaluationReport {
        let metrics = Metrics::relative(
            shared.makespan,
            shared.energy,
            shared.capped_fraction,
            sequential.makespan,
            sequential.energy,
            shared.tasks,
        );
        EvaluationReport {
            shared,
            sequential,
            metrics,
            latencies: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{PlanGroup, Planner, PlannerStrategy};
    use crate::policy::MetricPriority;
    use crate::wprofile::workflow_profile;
    use mpshare_profiler::ProfileStore;
    use mpshare_types::Fraction;
    use mpshare_workloads::{BenchmarkKind, ProblemSize};

    fn dev() -> DeviceSpec {
        DeviceSpec::a100x()
    }

    fn executor() -> Executor {
        Executor::new(ExecutorConfig::new(dev()))
    }

    /// Two low-utilization workflows of comparable duration (~2 min each),
    /// so co-scheduling has real overlap to exploit.
    fn light_pair() -> Vec<WorkflowSpec> {
        vec![
            WorkflowSpec::uniform(BenchmarkKind::AthenaPk, ProblemSize::X4, 2),
            WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 30),
        ]
    }

    fn plan_for(workflows: &[WorkflowSpec], priority: MetricPriority) -> SchedulePlan {
        let mut store = ProfileStore::new();
        store.profile_workflows(&dev(), workflows).unwrap();
        let profiles: Vec<_> = workflows
            .iter()
            .map(|w| workflow_profile(&store, w).unwrap())
            .collect();
        Planner::new(dev(), priority)
            .plan(&profiles, PlannerStrategy::Greedy)
            .unwrap()
    }

    #[test]
    fn sequential_baseline_completes_all_tasks() {
        let wfs = light_pair();
        let out = executor().run_sequential(&wfs).unwrap();
        assert_eq!(out.tasks, 32);
        assert!(out.makespan.value() > 0.0);
        assert!(out.energy.joules() > 0.0);
    }

    #[test]
    fn planned_mps_beats_sequential_for_light_pair() {
        // The headline claim: interference-aware MPS collocation of
        // low-utilization workflows improves both throughput and energy.
        let wfs = light_pair();
        let plan = plan_for(&wfs, MetricPriority::Throughput);
        let report = executor().evaluate_plan(&wfs, &plan).unwrap();
        assert!(
            report.metrics.throughput_gain > 1.3,
            "throughput gain {}",
            report.metrics.throughput_gain
        );
        assert!(
            report.metrics.energy_efficiency_gain > 1.1,
            "efficiency gain {}",
            report.metrics.energy_efficiency_gain
        );
        assert_eq!(report.shared.tasks, report.sequential.tasks);
        assert_eq!(report.shared.tasks, 32);
    }

    #[test]
    fn mps_beats_timeslicing_for_light_pair() {
        let wfs = light_pair();
        let plan = plan_for(&wfs, MetricPriority::Throughput);
        let ex = executor();
        let mps = ex.run_plan(&wfs, &plan).unwrap();
        let ts = ex.run_timesliced(&wfs).unwrap();
        assert!(
            mps.makespan < ts.makespan,
            "mps {} !< ts {}",
            mps.makespan,
            ts.makespan
        );
    }

    #[test]
    fn timeslicing_still_beats_sequential_for_bursty_workloads() {
        let wfs = light_pair();
        let ex = executor();
        let ts = ex.run_timesliced(&wfs).unwrap();
        let seq = ex.run_sequential(&wfs).unwrap();
        assert!(ts.makespan < seq.makespan);
    }

    #[test]
    fn plan_execution_preserves_task_count() {
        let wfs = light_pair();
        let plan = plan_for(&wfs, MetricPriority::Energy);
        let out = executor().run_plan(&wfs, &plan).unwrap();
        assert_eq!(out.tasks, 32);
    }

    #[test]
    fn multi_group_plans_chain_groups_sequentially() {
        let wfs = vec![
            WorkflowSpec::uniform(BenchmarkKind::Lammps, ProblemSize::X1, 1),
            WorkflowSpec::uniform(BenchmarkKind::Lammps, ProblemSize::X1, 1),
        ];
        // Force a two-group plan manually.
        let plan = SchedulePlan {
            groups: vec![
                PlanGroup {
                    workflow_indices: vec![0],
                    partitions: vec![Fraction::ONE],
                },
                PlanGroup {
                    workflow_indices: vec![1],
                    partitions: vec![Fraction::ONE],
                },
            ],
        };
        let ex = executor();
        let chained = ex.run_plan(&wfs, &plan).unwrap();
        let seq = ex.run_sequential(&wfs).unwrap();
        // One workflow per group = sequential execution.
        assert!((chained.makespan.value() - seq.makespan.value()).abs() < 0.5);
        assert!((chained.energy.joules() - seq.energy.joules()).abs() / seq.energy.joules() < 0.02);
    }

    #[test]
    fn naive_mps_runs_entire_queue_at_once() {
        let wfs = light_pair();
        let out = executor().run_mps_naive(&wfs).unwrap();
        assert_eq!(out.tasks, 32);
    }

    #[test]
    fn latencies_expose_the_paper_latency_caveat() {
        // Co-scheduling boosts throughput, but individual workflows can
        // finish later than their solo time — §VI's warning, quantified.
        let wfs = light_pair();
        let plan = plan_for(&wfs, MetricPriority::Throughput);
        let report = executor().evaluate_plan(&wfs, &plan).unwrap();
        assert_eq!(report.latencies.len(), wfs.len());
        for l in &report.latencies {
            assert!(l.slowdown() >= 1.0 - 1e-6, "slowdown {}", l.slowdown());
        }
        assert!(report.max_slowdown() >= report.mean_slowdown());
        // Throughput gained overall even though someone was slowed.
        assert!(report.metrics.throughput_gain > 1.0);
    }

    #[test]
    fn singleton_groups_have_unit_slowdown() {
        let wfs = vec![WorkflowSpec::uniform(
            BenchmarkKind::Kripke,
            ProblemSize::X1,
            3,
        )];
        let plan = SchedulePlan {
            groups: vec![PlanGroup {
                workflow_indices: vec![0],
                partitions: vec![Fraction::ONE],
            }],
        };
        let report = executor().evaluate_plan(&wfs, &plan).unwrap();
        assert!((report.max_slowdown() - 1.0).abs() < 0.01);
    }

    #[test]
    fn chain_of_nothing_is_neutral() {
        let chained = RunOutcome::chain(&[]);
        assert_eq!(chained.makespan, Seconds::ZERO);
        assert_eq!(chained.capped_fraction, 0.0);
        assert_eq!(chained.tasks, 0);
        assert!(!chained.avg_sm_util.value().is_nan());
    }

    #[test]
    fn degenerate_slowdowns_are_neutral_or_infinite() {
        let trivial = WorkflowLatency {
            workflow: 0,
            turnaround: Seconds::ZERO,
            solo: Seconds::ZERO,
        };
        assert_eq!(trivial.slowdown(), 1.0);
        let stalled = WorkflowLatency {
            workflow: 0,
            turnaround: Seconds::new(1.0),
            solo: Seconds::ZERO,
        };
        assert_eq!(stalled.slowdown(), f64::INFINITY);
    }

    #[test]
    fn report_metrics_match_outcome_ratios() {
        let wfs = light_pair();
        let plan = plan_for(&wfs, MetricPriority::Throughput);
        let report = executor().evaluate_plan(&wfs, &plan).unwrap();
        let expected_tp = report.sequential.makespan.value() / report.shared.makespan.value();
        assert!((report.metrics.throughput_gain - expected_tp).abs() < 1e-12);
    }
}
