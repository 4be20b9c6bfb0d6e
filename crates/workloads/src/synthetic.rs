//! Synthetic workloads.
//!
//! Property tests, ablation benches and user-defined queue entries need
//! workloads whose parameters sweep ranges the seven real benchmarks do
//! not cover. A [`SyntheticSpec`] describes a workload analytically.

use mpshare_gpusim::{
    ClientProgram, DeviceSpec, KernelSpec, LaunchConfig, TaskProgram, MAX_EVENTS,
};
use mpshare_types::{Fraction, MemBytes, Result, Seconds, TaskId};
use serde::{Deserialize, Serialize};

/// An analytic workload description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyntheticSpec {
    /// SM-throughput demand while kernels run, in `[0, 1]`.
    pub sm_demand: f64,
    /// Bandwidth demand while kernels run, in `[0, 1]`.
    pub bw_demand: f64,
    /// GPU-busy fraction of wall time, in `(0, 1]`.
    pub duty_cycle: f64,
    /// Task wall-clock duration, seconds.
    pub duration: f64,
    /// Device-memory footprint, MiB.
    pub memory_mib: u64,
    /// Number of kernels in the task.
    pub kernels: usize,
    /// Cache-pressure sensitivity.
    pub cache_sensitivity: f64,
    /// Per-co-runner MPS client-pressure sensitivity.
    pub client_sensitivity: f64,
}

impl SyntheticSpec {
    /// A bursty, low-utilization workload (AthenaPK-like).
    pub fn light() -> Self {
        SyntheticSpec {
            sm_demand: 0.2,
            bw_demand: 0.02,
            duty_cycle: 0.4,
            duration: 10.0,
            memory_mib: 512,
            kernels: 16,
            cache_sensitivity: 0.2,
            client_sensitivity: 0.1,
        }
    }

    /// A streaming, high-utilization workload (LAMMPS/MHD-like).
    pub fn heavy() -> Self {
        SyntheticSpec {
            sm_demand: 0.95,
            bw_demand: 0.4,
            duty_cycle: 0.95,
            duration: 10.0,
            memory_mib: 4096,
            kernels: 16,
            cache_sensitivity: 0.8,
            client_sensitivity: 0.02,
        }
    }

    /// Checks every field against its documented range, returning an
    /// error that names the offending field. Deserialized specs bypass
    /// the constructors' range asserts, so config loaders call this
    /// before a bad value can panic (or silently misbehave) deep in the
    /// engine. `ctx` prefixes the error, e.g. `"workflows[2].entries[0]"`.
    pub fn validate_fields(&self, ctx: &str) -> Result<()> {
        let in_range = |field: &str, value: f64, lo: f64, hi: f64| -> Result<()> {
            if !value.is_finite() || value < lo || value > hi {
                return Err(mpshare_types::Error::InvalidConfig(format!(
                    "{ctx}: {field} must be finite in [{lo}, {hi}], got {value}"
                )));
            }
            Ok(())
        };
        in_range("sm_demand", self.sm_demand, 0.0, 1.0)?;
        in_range("bw_demand", self.bw_demand, 0.0, 1.0)?;
        in_range("duty_cycle", self.duty_cycle, 0.0, 1.0)?;
        if self.duty_cycle == 0.0 {
            return Err(mpshare_types::Error::InvalidConfig(format!(
                "{ctx}: duty_cycle must be positive"
            )));
        }
        if !self.duration.is_finite() || self.duration <= 0.0 {
            return Err(mpshare_types::Error::InvalidConfig(format!(
                "{ctx}: duration must be finite and positive, got {}",
                self.duration
            )));
        }
        if self.kernels == 0 {
            return Err(mpshare_types::Error::InvalidConfig(format!(
                "{ctx}: kernels must be at least 1"
            )));
        }
        // Every kernel is at least one engine event.
        if self.kernels as u64 > MAX_EVENTS {
            return Err(mpshare_types::Error::InvalidConfig(format!(
                "{ctx}.kernels: must be at most {MAX_EVENTS}, the engine's event budget, \
                 got {}",
                self.kernels
            )));
        }
        for (field, value) in [
            ("cache_sensitivity", self.cache_sensitivity),
            ("client_sensitivity", self.client_sensitivity),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(mpshare_types::Error::InvalidConfig(format!(
                    "{ctx}: {field} must be finite and non-negative, got {value}"
                )));
            }
        }
        Ok(())
    }

    /// Builds the spec into a single-task client program.
    pub fn to_task(&self, device: &DeviceSpec, id: TaskId) -> Result<TaskProgram> {
        let busy = self.duration * self.duty_cycle;
        let per_kernel = busy / self.kernels.max(1) as f64;
        let gap = per_kernel * (1.0 - self.duty_cycle) / self.duty_cycle.max(1e-6);
        // A dense grid so partition response is ~linear; synthetic
        // workloads test contention, not granularity.
        let launch = LaunchConfig::dense(device.num_sms * device.max_blocks_per_sm, 256);
        let kernel = KernelSpec::from_launch(device, launch, Seconds::new(per_kernel))
            .with_sm_demand(Fraction::clamped(self.sm_demand))
            .with_bw_demand(Fraction::clamped(self.bw_demand))
            .with_cache_sensitivity(self.cache_sensitivity)
            .with_client_sensitivity(self.client_sensitivity)
            .with_host_gap(Seconds::new(gap));
        let mut task = TaskProgram::new(
            id,
            format!(
                "synthetic(sm={:.2},bw={:.2})",
                self.sm_demand, self.bw_demand
            ),
            MemBytes::from_mib(self.memory_mib),
        );
        task.repeat_kernel(kernel, self.kernels.max(1));
        task.validate(device)?;
        Ok(task)
    }

    /// Builds a client program of `n_tasks` identical tasks.
    pub fn to_client_program(
        &self,
        device: &DeviceSpec,
        n_tasks: usize,
        first_id: u64,
    ) -> Result<ClientProgram> {
        let mut p = ClientProgram::new(format!("synthetic×{n_tasks}(sm={:.2})", self.sm_demand));
        for i in 0..n_tasks.max(1) {
            p.push_task(self.to_task(device, TaskId::new(first_id + i as u64))?);
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceSpec {
        DeviceSpec::a100x()
    }

    #[test]
    fn presets_build_valid_tasks() {
        for spec in [SyntheticSpec::light(), SyntheticSpec::heavy()] {
            let t = spec.to_task(&dev(), TaskId::new(0)).unwrap();
            assert_eq!(t.kernels.len(), spec.kernels);
            let wall = t.solo_wall_time().value();
            assert!(
                (wall - spec.duration).abs() / spec.duration < 0.05,
                "wall {wall} vs {}",
                spec.duration
            );
        }
    }

    #[test]
    fn duty_cycle_is_respected() {
        let spec = SyntheticSpec::light();
        let t = spec.to_task(&dev(), TaskId::new(0)).unwrap();
        let duty = t.solo_busy_time().value() / t.solo_wall_time().value();
        assert!((duty - spec.duty_cycle).abs() < 0.02, "duty {duty}");
    }

    #[test]
    fn client_program_replicates_tasks() {
        let p = SyntheticSpec::light()
            .to_client_program(&dev(), 4, 100)
            .unwrap();
        assert_eq!(p.task_count(), 4);
        assert_eq!(p.tasks[0].id.raw(), 100);
        assert_eq!(p.tasks[3].id.raw(), 103);
    }

    #[test]
    fn kernel_counts_past_the_event_budget_are_rejected() {
        let spec = |kernels| SyntheticSpec {
            kernels,
            ..SyntheticSpec::light()
        };
        // The engine's event budget (`MAX_EVENTS`), written out so the
        // test pins its value.
        let budget = 50_000_000;
        assert!(spec(budget).validate_fields("w").is_ok());
        let e = spec(budget + 1)
            .validate_fields("w")
            .unwrap_err()
            .to_string();
        assert!(e.contains("w.kernels"), "{e}");
    }
}
