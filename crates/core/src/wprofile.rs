//! Workflow-granularity profiles.
//!
//! The scheduler collocates *workflows* (sequences of tasks), so per-task
//! profiles from the offline pass are aggregated: utilizations are
//! duration-weighted averages over the workflow's tasks, memory is the
//! maximum (tasks run one at a time within a workflow), and durations and
//! energies sum.

use mpshare_profiler::ProfileStore;
use mpshare_types::{Energy, Fraction, MemBytes, Percent, Power, Result, Seconds};
use mpshare_workloads::WorkflowSpec;
use serde::{Deserialize, Serialize};

/// Aggregated profile of one workflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowProfile {
    pub label: String,
    /// Total tasks the workflow completes.
    pub task_count: usize,
    /// Duration-weighted average SM utilization (solo).
    pub avg_sm_util: Percent,
    /// Duration-weighted average memory-bandwidth utilization (solo).
    pub avg_bw_util: Percent,
    /// Maximum resident memory of any task.
    pub max_memory: MemBytes,
    /// Solo wall-clock duration of the whole workflow.
    pub duration: Seconds,
    /// Solo total energy of the whole workflow.
    pub energy: Energy,
    /// Duration-weighted average power (solo).
    pub avg_power: Power,
    /// Duration-weighted GPU-busy fraction.
    pub busy_fraction: f64,
    /// Largest saturation partition over the workflow's tasks: the
    /// smallest MPS partition that keeps every task at full throughput.
    pub saturation_partition: Fraction,
}

impl WorkflowProfile {
    /// Dynamic (above-idle) energy of the workflow. In the simulator's
    /// power model this is invariant under contention stretching: dynamic
    /// power scales with progress rate while time scales inversely, so the
    /// estimator treats it as a conserved quantity.
    pub fn dynamic_energy(&self, idle_power: Power) -> Energy {
        let idle = idle_power * self.duration;
        if idle.joules() >= self.energy.joules() {
            Energy::ZERO
        } else {
            self.energy - idle
        }
    }

    /// SM utilization while the workflow's kernels actually run.
    pub fn burst_sm_util(&self) -> f64 {
        (self.avg_sm_util.value() / 100.0 / self.busy_fraction.max(1e-9)).min(1.0)
    }
}

/// Builds the workflow profile from the store (which must already contain
/// profiles for every (benchmark, size) the workflow references).
pub fn workflow_profile(store: &ProfileStore, spec: &WorkflowSpec) -> Result<WorkflowProfile> {
    let mut duration = 0.0;
    let mut energy = 0.0;
    let mut sm_weighted = 0.0;
    let mut bw_weighted = 0.0;
    let mut busy_weighted = 0.0;
    let mut max_memory = MemBytes::ZERO;
    let mut task_count = 0usize;
    let mut saturation = Fraction::ZERO;

    for entry in &spec.entries {
        let p = store.get_source(&entry.source)?;
        let n = entry.iterations as f64;
        let d = p.duration.value() * n;
        duration += d;
        energy += p.energy.joules() * n;
        sm_weighted += p.avg_sm_util.value() * d;
        bw_weighted += p.avg_bw_util.value() * d;
        busy_weighted += p.busy_fraction * d;
        max_memory = max_memory.max(p.max_memory);
        task_count += entry.iterations;
        saturation = saturation.max(p.saturation_partition);
    }

    if duration <= 0.0 {
        return Err(mpshare_types::Error::InvalidConfig(format!(
            "workflow {:?} has zero duration",
            spec.label()
        )));
    }

    Ok(WorkflowProfile {
        label: spec.label(),
        task_count,
        avg_sm_util: Percent::clamped(sm_weighted / duration),
        avg_bw_util: Percent::clamped(bw_weighted / duration),
        max_memory,
        duration: Seconds::new(duration),
        energy: Energy::from_joules(energy),
        avg_power: Power::from_watts(energy / duration),
        busy_fraction: (busy_weighted / duration).clamp(0.0, 1.0),
        saturation_partition: saturation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpshare_gpusim::DeviceSpec;
    use mpshare_workloads::{BenchmarkKind, ProblemSize, WorkflowTask};

    fn store_for(specs: &[WorkflowSpec]) -> ProfileStore {
        let mut store = ProfileStore::new();
        store
            .profile_workflows(&DeviceSpec::a100x(), specs)
            .unwrap();
        store
    }

    #[test]
    fn uniform_workflow_scales_linearly_with_iterations() {
        let w1 = WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 1);
        let w5 = WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 5);
        let store = store_for(&[w1.clone(), w5.clone()]);
        let p1 = workflow_profile(&store, &w1).unwrap();
        let p5 = workflow_profile(&store, &w5).unwrap();
        assert_eq!(p5.task_count, 5);
        assert!((p5.duration.value() - 5.0 * p1.duration.value()).abs() < 1e-6);
        assert!((p5.energy.joules() - 5.0 * p1.energy.joules()).abs() < 1e-6);
        // Averages are iteration-invariant.
        assert_eq!(p5.avg_sm_util, p1.avg_sm_util);
        assert_eq!(p5.max_memory, p1.max_memory);
    }

    #[test]
    fn mixed_workflow_weights_by_duration() {
        let mixed = WorkflowSpec::new(vec![
            WorkflowTask::new(BenchmarkKind::AthenaPk, ProblemSize::X1, 1),
            WorkflowTask::new(BenchmarkKind::Lammps, ProblemSize::X4, 1),
        ]);
        let store = store_for(std::slice::from_ref(&mixed));
        let p = workflow_profile(&store, &mixed).unwrap();
        let athena = store.get_source(&mixed.entries[0].source).unwrap();
        let lammps = store.get_source(&mixed.entries[1].source).unwrap();
        // LAMMPS 4x is ~44x longer, so the average leans hard toward it.
        assert!(p.avg_sm_util > athena.avg_sm_util);
        assert!(p.avg_sm_util.value() > 0.9 * lammps.avg_sm_util.value());
        assert_eq!(p.max_memory, lammps.max_memory.max(athena.max_memory));
        assert_eq!(p.task_count, 2);
    }

    #[test]
    fn burst_utils_divide_by_busy_fraction() {
        let w = WorkflowSpec::uniform(BenchmarkKind::AthenaPk, ProblemSize::X1, 1);
        let store = store_for(std::slice::from_ref(&w));
        let p = workflow_profile(&store, &w).unwrap();
        assert!(p.burst_sm_util() > p.avg_sm_util.value() / 100.0);
        assert!(p.burst_sm_util() <= 1.0);
    }

    #[test]
    fn dynamic_energy_subtracts_idle_floor() {
        let w = WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 2);
        let store = store_for(std::slice::from_ref(&w));
        let p = workflow_profile(&store, &w).unwrap();
        let idle = Power::from_watts(75.0);
        let dynamic = p.dynamic_energy(idle);
        assert!(dynamic.joules() > 0.0);
        assert!(dynamic.joules() < p.energy.joules());
        // Never negative, even with an absurd idle power.
        assert_eq!(p.dynamic_energy(Power::from_watts(10_000.0)), Energy::ZERO);
    }

    #[test]
    fn missing_profiles_propagate_errors() {
        let w = WorkflowSpec::uniform(BenchmarkKind::WarpX, ProblemSize::X2, 1);
        let store = ProfileStore::new();
        assert!(workflow_profile(&store, &w).is_err());
    }
}
