//! `online`: the replanning dispatcher over arrival processes shaped like
//! the `ext_online` experiment's. One iteration is one
//! `OnlineScheduler::run` (Auto strategy); the loop cycles over
//! [`PROCESSES`] seeded processes profiled during set-up. Each run replans
//! warm many times and simulates groups of one to four clients, so
//! per-run set-up weighs more here than in `repro_all`.

use super::Workload;
use crate::metrics::MetricSet;
use crate::stats::geomean;
use crate::trace::Tracer;
use mpshare_core::{
    ArrivingWorkflow, ExecutorConfig, MetricPriority, OnlineOutcome, OnlineScheduler, Planner,
    PlannerStrategy,
};
use mpshare_gpusim::{unit_hash, DeviceSpec};
use mpshare_profiler::ProfileStore;
use mpshare_types::Seconds;
use mpshare_workloads::{QueueGenerator, WorkflowSpec};

/// Arrival processes per run; process `j` uses seed `seed + j`, so nearby
/// seeds share most processes. As for `plan::QUEUES`, 20 were too few for
/// a steady p90.
pub const PROCESSES: usize = 200;
const BURSTS: u64 = 3;
const BURST_SIZE: usize = 4;
/// Gap between bursts, drawn uniformly, simulated seconds.
const GAP_S: (f64, f64) = (120.0, 360.0);
/// `unit_hash` lane of the burst gaps.
const GAP_LANE: u64 = 0x6761_7073;

/// Three bursts of four workflows, `GAP_S` apart. Epsilon (hour-long
/// tasks) and WarpX (60 GiB footprints) are left out, as in `ext_online`,
/// so that a backlog forms and grouping choices matter.
pub fn arrivals(seed: u64) -> Vec<ArrivingWorkflow> {
    let mut generator = QueueGenerator::new(seed);
    generator.weights[1] = 0.0;
    generator.weights[6] = 0.0;
    let mut now = 0.0;
    let mut out = Vec::new();
    for burst in 0..BURSTS {
        if burst > 0 {
            now += GAP_S.0 + (GAP_S.1 - GAP_S.0) * unit_hash(seed, &[GAP_LANE, burst]);
        }
        for _ in 0..BURST_SIZE {
            out.push(ArrivingWorkflow {
                spec: generator.sample_workflow(),
                arrival: Seconds::new(now),
            });
        }
    }
    out
}

pub struct Online {
    scheduler: OnlineScheduler,
    store: ProfileStore,
    processes: Vec<Vec<ArrivingWorkflow>>,
    /// Each process's first outcome and its serialized form.
    reference: Vec<Option<(String, OnlineOutcome)>>,
}

impl Workload for Online {
    type Output = OnlineOutcome;

    fn prepare(seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        let device = DeviceSpec::a100x();
        let processes: Vec<Vec<ArrivingWorkflow>> = (0..PROCESSES as u64)
            .map(|j| arrivals(seed.wrapping_add(j)))
            .collect();
        let specs: Vec<WorkflowSpec> = processes.iter().flatten().map(|a| a.spec.clone()).collect();
        let mut store = ProfileStore::new();
        tracer
            .span("profiler.profile", || {
                store.profile_workflows(&device, &specs)
            })
            .map_err(|e| format!("profiling: {e}"))?;
        let scheduler = OnlineScheduler::new(
            ExecutorConfig::new(device.clone()),
            Planner::new(device, MetricPriority::balanced_product()),
            PlannerStrategy::Auto,
        );
        Ok(Online {
            scheduler,
            store,
            processes,
            reference: vec![None; PROCESSES],
        })
    }

    fn iterate(&mut self, k: usize, t: &mut Tracer) -> mpshare_types::Result<OnlineOutcome> {
        let arrivals = &self.processes[k % PROCESSES];
        t.span("online.run", || self.scheduler.run(arrivals, &self.store))
    }

    fn check(&mut self, k: usize, outcome: OnlineOutcome) -> Result<(), String> {
        let j = k % PROCESSES;
        let n = self.processes[j].len();
        let mut dispatched = vec![0u32; n];
        for w in outcome.decisions.iter().flat_map(|d| &d.workflows) {
            *dispatched
                .get_mut(*w)
                .ok_or_else(|| format!("process {j}: workflow {w} out of range"))? += 1;
        }
        if !outcome.failed_workflows.is_empty() || dispatched.iter().any(|&c| c != 1) {
            return Err(format!(
                "process {j}: not every workflow dispatched exactly once"
            ));
        }
        let digest = serde_json::to_string(&outcome).expect("outcomes serialize");
        match &self.reference[j] {
            None => self.reference[j] = Some((digest, outcome)),
            Some((first, _)) if *first == digest => {}
            Some(_) => {
                return Err(format!(
                    "process {j}: outcome differs from its set-up outcome"
                ))
            }
        }
        Ok(())
    }

    fn cycle(&self) -> usize {
        PROCESSES
    }

    /// Simulated gains over FIFO dispatch of the same process: geometric
    /// means over the processes of FIFO ÷ online makespan and energy.
    fn extras(&mut self, layers: &mut MetricSet) -> Result<(), String> {
        let mut tput = Vec::new();
        let mut energy = Vec::new();
        for (arrivals, reference) in self.processes.iter().zip(&self.reference) {
            let (_, online) = reference
                .as_ref()
                .ok_or("a process has no set-up outcome")?;
            let fifo = self
                .scheduler
                .run_fifo(arrivals, &self.store)
                .map_err(|e| format!("FIFO dispatch: {e}"))?;
            tput.push(fifo.makespan / online.makespan);
            energy.push(fifo.energy.joules() / online.energy.joules());
        }
        layers.set("sim.tput_gain", geomean(&tput).unwrap_or(0.0));
        layers.set("sim.energy_gain", geomean(&energy).unwrap_or(0.0));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_processes_are_deterministic_per_seed() {
        let a = arrivals(5);
        assert_eq!(a, arrivals(5));
        assert_ne!(a, arrivals(6));
        assert_eq!(a.len(), BURSTS as usize * BURST_SIZE);
        let starts: Vec<f64> = a
            .chunks(BURST_SIZE)
            .map(|burst| {
                assert!(burst.iter().all(|w| w.arrival == burst[0].arrival));
                burst[0].arrival.value()
            })
            .collect();
        assert_eq!(starts[0], 0.0);
        for gap in starts.windows(2).map(|w| w[1] - w[0]) {
            assert!((GAP_S.0..GAP_S.1).contains(&gap), "gap {gap}");
        }
    }
}
