//! `plan_exhaustive`: the scheduler's decision latency. One iteration is
//! one exhaustive (branch-and-bound) `Planner::plan` over a 12-workflow
//! queue; the loop cycles over [`QUEUES`] seeded queues profiled during
//! set-up, so no engine run happens in the timed loop.

use super::Workload;
use crate::metrics::MetricSet;
use crate::stats::geomean;
use crate::trace::Tracer;
use mpshare_core::{
    workflow_profile, Executor, ExecutorConfig, MetricPriority, Planner, PlannerStrategy,
    SchedulePlan, WorkflowProfile,
};
use mpshare_gpusim::DeviceSpec;
use mpshare_profiler::ProfileStore;
use mpshare_workloads::{QueueGenerator, WorkflowSpec};

/// Queues per run; queue `i` is drawn from generator seed `seed + i`, so
/// nearby seeds share most queues. Planning cost per queue is heavy-tailed
/// (median 3.4 ms, p99 71 ms over seeds 0..1500, serial), and with 20
/// queues the run's p50 moved by a fifth between seeds.
pub const QUEUES: usize = 200;
/// Workflows per queue: the largest the exhaustive planner accepts.
pub const QUEUE_LEN: usize = 12;

pub struct PlanExhaustive {
    device: DeviceSpec,
    planner: Planner,
    queues: Vec<Vec<WorkflowSpec>>,
    profiles: Vec<Vec<WorkflowProfile>>,
    /// Each queue's first plan and its serialized form.
    reference: Vec<Option<(String, SchedulePlan)>>,
}

impl Workload for PlanExhaustive {
    type Output = SchedulePlan;

    fn prepare(seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        let device = DeviceSpec::a100x();
        let queues: Vec<Vec<WorkflowSpec>> = (0..QUEUES as u64)
            .map(|i| QueueGenerator::new(seed.wrapping_add(i)).sample_queue(QUEUE_LEN))
            .collect();
        let mut store = ProfileStore::new();
        tracer
            .span("profiler.profile", || {
                queues
                    .iter()
                    .try_for_each(|q| store.profile_workflows(&device, q).map(drop))
            })
            .map_err(|e| format!("profiling: {e}"))?;
        let profiles = queues
            .iter()
            .map(|q| q.iter().map(|w| workflow_profile(&store, w)).collect())
            .collect::<mpshare_types::Result<Vec<Vec<_>>>>()
            .map_err(|e| format!("workflow profiles: {e}"))?;
        Ok(PlanExhaustive {
            planner: Planner::new(device.clone(), MetricPriority::balanced_product()),
            device,
            queues,
            profiles,
            reference: vec![None; QUEUES],
        })
    }

    fn iterate(&mut self, k: usize, t: &mut Tracer) -> mpshare_types::Result<SchedulePlan> {
        let profiles = &self.profiles[k % QUEUES];
        t.span("planner.plan", || {
            self.planner.plan(profiles, PlannerStrategy::Exhaustive)
        })
    }

    fn check(&mut self, k: usize, plan: SchedulePlan) -> Result<(), String> {
        let i = k % QUEUES;
        plan.validate(&self.device, &self.profiles[i])
            .map_err(|e| format!("queue {i}: {e}"))?;
        let digest = serde_json::to_string(&plan).expect("plans serialize");
        match &self.reference[i] {
            None => self.reference[i] = Some((digest, plan)),
            Some((first, _)) if *first == digest => {}
            Some(_) => return Err(format!("queue {i}: plan differs from its set-up plan")),
        }
        Ok(())
    }

    fn cycle(&self) -> usize {
        QUEUES
    }

    /// Simulated gains of the set-up plans over running each queue
    /// sequentially: geometric means over the queues.
    fn extras(&mut self, layers: &mut MetricSet) -> Result<(), String> {
        let executor = Executor::new(ExecutorConfig::new(self.device.clone()));
        let mut tput = Vec::new();
        let mut energy = Vec::new();
        for (queue, reference) in self.queues.iter().zip(&self.reference) {
            let (_, plan) = reference.as_ref().ok_or("a queue has no set-up plan")?;
            let report = executor
                .evaluate_plan(queue, plan)
                .map_err(|e| format!("evaluating a plan: {e}"))?;
            tput.push(report.metrics.throughput_gain);
            energy.push(report.metrics.energy_efficiency_gain);
        }
        layers.set("sim.tput_gain", geomean(&tput).unwrap_or(0.0));
        layers.set("sim.energy_gain", geomean(&energy).unwrap_or(0.0));
        Ok(())
    }
}
