//! Kernel launch configurations and kernel execution specifications.
//!
//! A [`KernelSpec`] describes one GPU kernel the way the scheduler's
//! profiling layer sees it: a launch configuration (which, combined with the
//! device limits, determines occupancy and how the kernel responds to SM
//! partitioning) plus resource-demand coefficients (SM throughput, memory
//! bandwidth, power) and a host-side gap that models the CPU work between
//! kernel launches.
//!
//! The demand coefficients are *solo* quantities — what the kernel consumes
//! running alone with a 100 % MPS partition at nominal clock. Everything
//! that happens under sharing (partition caps, contention, throttling) is
//! derived by the [`crate::contention`] solver.

use crate::device::DeviceSpec;
use crate::occupancy;
use mpshare_types::{Error, Fraction, Result, Seconds};
use serde::{Deserialize, Serialize};

/// CUDA-style kernel launch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid.
    pub grid_blocks: u32,
    /// Threads per block (≤ 1024 on real hardware; not enforced so tests
    /// can explore degenerate configurations).
    pub threads_per_block: u32,
    /// Registers per thread.
    pub regs_per_thread: u32,
    /// Static + dynamic shared memory per block, bytes.
    pub shared_mem_per_block: u64,
    /// Fraction of the issue slots of a fully-resident SM this kernel
    /// actually uses (models memory-latency and dependency stalls). This is
    /// the gap between theoretical and achieved occupancy that launch
    /// geometry alone cannot explain.
    pub issue_efficiency: Fraction,
}

impl LaunchConfig {
    /// A convenient dense launch: enough uniform blocks to fill the device,
    /// moderate register pressure, no shared memory.
    pub fn dense(grid_blocks: u32, threads_per_block: u32) -> Self {
        LaunchConfig {
            grid_blocks,
            threads_per_block,
            regs_per_thread: 32,
            shared_mem_per_block: 0,
            issue_efficiency: Fraction::ONE,
        }
    }

    pub fn with_issue_efficiency(mut self, eff: Fraction) -> Self {
        self.issue_efficiency = eff;
        self
    }
}

/// Full execution specification of one kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelSpec {
    /// Launch geometry; drives occupancy and partition response.
    pub launch: LaunchConfig,
    /// Execution time when run alone with a 100 % partition at nominal
    /// clock. This is the unit in which remaining work is measured.
    pub solo_duration: Seconds,
    /// Fraction of device SM throughput consumed while running solo —
    /// what `nvidia-smi` reports as SM utilization during the kernel.
    pub sm_demand: Fraction,
    /// Fraction of peak device memory bandwidth consumed while running at
    /// full rate.
    pub bw_demand: Fraction,
    /// Sensitivity of this kernel to co-runner memory/cache pressure:
    /// rate is divided by `1 + cache_sensitivity × Σ other BW pressure`.
    pub cache_sensitivity: f64,
    /// Sensitivity to the *number* of co-resident MPS clients — the cost of
    /// sharing the launch path, scheduling hardware, and L2 with other
    /// processes. Kernels launched in rapid succession (small, frequent
    /// launches) suffer this far more than long-running streaming kernels.
    /// Rate is divided by `1 + client_sensitivity × min(n−1, 6)`.
    pub client_sensitivity: f64,
    /// Per-workload multiplier on dynamic power (captures clock residency
    /// and instruction mix differences the linear utilization model misses).
    pub power_scale: f64,
    /// SM count of the device the demand coefficients were calibrated
    /// against. `solo_duration` and `sm_demand` are relative to this
    /// device; when the kernel executes on a different device (e.g. a MIG
    /// slice), the contention solver rescales. Zero means "the executing
    /// device" (uncalibrated test kernels).
    pub reference_sms: u32,
    /// Peak memory bandwidth (bytes/s) of the calibration device; zero
    /// means "the executing device".
    pub reference_bandwidth: f64,
    /// Host-side (CPU) time after this kernel before the next one launches.
    /// The GPU is idle for this client during the gap.
    pub host_gap: Seconds,
}

impl KernelSpec {
    /// Builds a kernel spec, deriving `sm_demand` from the launch geometry:
    /// the fraction of device warp slots the kernel keeps busy, scaled by
    /// its issue efficiency.
    pub fn from_launch(device: &DeviceSpec, launch: LaunchConfig, solo_duration: Seconds) -> Self {
        let rep = occupancy::report(device, &launch);
        let sm_demand = Fraction::clamped(rep.achieved.value() / 100.0);
        KernelSpec {
            launch,
            solo_duration,
            sm_demand,
            bw_demand: Fraction::ZERO,
            cache_sensitivity: 0.0,
            client_sensitivity: 0.0,
            power_scale: 1.0,
            reference_sms: device.num_sms,
            reference_bandwidth: device.memory_bandwidth_bytes_per_sec,
            host_gap: Seconds::ZERO,
        }
    }

    pub fn with_bw_demand(mut self, bw: Fraction) -> Self {
        self.bw_demand = bw;
        self
    }

    pub fn with_sm_demand(mut self, sm: Fraction) -> Self {
        self.sm_demand = sm;
        self
    }

    pub fn with_cache_sensitivity(mut self, s: f64) -> Self {
        self.cache_sensitivity = s;
        self
    }

    pub fn with_client_sensitivity(mut self, s: f64) -> Self {
        self.client_sensitivity = s;
        self
    }

    pub fn with_power_scale(mut self, s: f64) -> Self {
        self.power_scale = s;
        self
    }

    pub fn with_host_gap(mut self, gap: Seconds) -> Self {
        self.host_gap = gap;
        self
    }

    /// Checks that the kernel can execute on `device` at all (at least one
    /// block must fit on an SM) and that its coefficients are sane.
    pub fn validate(&self, device: &DeviceSpec) -> Result<()> {
        if self.launch.grid_blocks == 0 {
            return Err(Error::InvalidConfig("kernel grid must be non-empty".into()));
        }
        if self.launch.threads_per_block == 0 {
            return Err(Error::InvalidConfig(
                "threads per block must be positive".into(),
            ));
        }
        let lims = occupancy::limits(device, &self.launch);
        if lims.blocks_per_sm() == 0 {
            return Err(Error::InvalidConfig(format!(
                "kernel block cannot fit on an SM of {} (limits {lims:?})",
                device.name
            )));
        }
        if !(self.solo_duration.value() > 0.0 && self.solo_duration.is_finite()) {
            return Err(Error::InvalidConfig(
                "kernel solo duration must be positive and finite".into(),
            ));
        }
        if self.cache_sensitivity < 0.0 || !self.cache_sensitivity.is_finite() {
            return Err(Error::InvalidConfig(
                "cache sensitivity must be non-negative and finite".into(),
            ));
        }
        if self.client_sensitivity < 0.0 || !self.client_sensitivity.is_finite() {
            return Err(Error::InvalidConfig(
                "client sensitivity must be non-negative and finite".into(),
            ));
        }
        if self.power_scale < 0.0 || !self.power_scale.is_finite() {
            return Err(Error::InvalidConfig(
                "power scale must be non-negative and finite".into(),
            ));
        }
        Ok(())
    }

    /// Number of SMs the kernel can run on under an SM partition `p`
    /// (fraction of the device's SMs). MPS active-thread-percentage
    /// provisioning rounds to whole SMs; a non-zero partition always yields
    /// at least one SM.
    pub fn sms_under_partition(device: &DeviceSpec, partition: Fraction) -> u32 {
        if partition.is_zero() {
            0
        } else {
            (((partition.value() * device.num_sms as f64).floor() as u32).max(1))
                .min(device.num_sms)
        }
    }

    /// Relative execution speed (vs. solo at 100 % partition) when limited
    /// to `sms` SMs.
    ///
    /// Work-conserving block scheduling: SMs pick up new blocks as they
    /// retire old ones, so a grid of `B` blocks at `bps` resident blocks
    /// per SM takes `max(1, B / (bps·sms))` rounds of the per-wave time.
    /// The resulting speed is
    /// `min(1, bps·sms / min(B, bps·S))`:
    ///
    /// * a grid smaller than one full-device wave (`B < bps·S`) saturates
    ///   once `sms ≥ B / bps` — extra partition is wasted (the red/green
    ///   circles of the paper's Figure 1);
    /// * a multi-wave grid scales linearly in the SM count — larger
    ///   problem sizes respond more linearly, as Figure 1c observes.
    pub fn speed_at_sms(&self, device: &DeviceSpec, sms: u32) -> f64 {
        if sms == 0 {
            return 0.0;
        }
        let bps = occupancy::limits(device, &self.launch).blocks_per_sm() as u64;
        if bps == 0 {
            return 0.0;
        }
        let grid = self.launch.grid_blocks as u64;
        // Speeds are relative to solo execution on the *reference* device
        // (the one the kernel's solo_duration was calibrated on), so a
        // smaller MIG slice runs calibrated kernels proportionally slower.
        let reference_sms = if self.reference_sms > 0 {
            self.reference_sms
        } else {
            device.num_sms
        };
        let full_supply = bps * reference_sms as u64;
        let supply = bps * sms as u64;
        (supply as f64 / grid.min(full_supply) as f64).min(1.0)
    }

    /// Relative execution speed under an SM partition fraction.
    ///
    /// ```
    /// use mpshare_gpusim::{DeviceSpec, KernelSpec, LaunchConfig};
    /// use mpshare_types::{Fraction, Seconds};
    ///
    /// let device = DeviceSpec::a100x();
    /// // 54 blocks at 2 blocks/SM need only 27 of the 108 SMs...
    /// let k = KernelSpec::from_launch(&device, LaunchConfig::dense(54, 1024), Seconds::new(1.0));
    /// // ...so a 25% partition (27 SMs) already runs at full speed,
    /// assert_eq!(k.speed_at_partition(&device, Fraction::new(0.25)), 1.0);
    /// // while a 10% partition starves it.
    /// assert!(k.speed_at_partition(&device, Fraction::new(0.10)) < 0.5);
    /// ```
    pub fn speed_at_partition(&self, device: &DeviceSpec, partition: Fraction) -> f64 {
        self.speed_at_sms(device, Self::sms_under_partition(device, partition))
    }

    /// SM-throughput demand expressed as a fraction of *this* device (the
    /// calibrated demand rescaled from the reference device), capped at 1.
    pub fn sm_demand_on(&self, device: &DeviceSpec) -> f64 {
        let scale = if self.reference_sms > 0 {
            self.reference_sms as f64 / device.num_sms as f64
        } else {
            1.0
        };
        (self.sm_demand.value() * scale).min(1.0)
    }

    /// Bandwidth demand as a fraction of this device's peak, capped at 1.
    pub fn bw_demand_on(&self, device: &DeviceSpec) -> f64 {
        let scale = if self.reference_bandwidth > 0.0 {
            self.reference_bandwidth / device.memory_bandwidth_bytes_per_sec
        } else {
            1.0
        };
        (self.bw_demand.value() * scale).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceSpec {
        DeviceSpec::a100x()
    }

    fn kernel(grid: u32) -> KernelSpec {
        KernelSpec::from_launch(&dev(), LaunchConfig::dense(grid, 1024), Seconds::new(1.0))
    }

    #[test]
    fn from_launch_derives_sm_demand_from_achieved_occupancy() {
        // 216 blocks of 1024 threads exactly fill the A100X (2 blocks/SM).
        let k = kernel(216);
        assert!((k.sm_demand.value() - 1.0).abs() < 1e-12);
        // 108 blocks fill half the resident capacity.
        let k = kernel(108);
        assert!((k.sm_demand.value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn validate_accepts_reasonable_kernels() {
        kernel(216).validate(&dev()).unwrap();
    }

    #[test]
    fn validate_rejects_empty_grid_and_oversized_blocks() {
        let mut k = kernel(216);
        k.launch.grid_blocks = 0;
        assert!(k.validate(&dev()).is_err());

        let mut k = kernel(216);
        k.launch.shared_mem_per_block = 10 << 20;
        assert!(k.validate(&dev()).is_err());

        let mut k = kernel(216);
        k.solo_duration = Seconds::ZERO;
        assert!(k.validate(&dev()).is_err());
    }

    #[test]
    fn sms_under_partition_rounds_down_but_grants_at_least_one() {
        let d = dev();
        assert_eq!(KernelSpec::sms_under_partition(&d, Fraction::new(1.0)), 108);
        assert_eq!(KernelSpec::sms_under_partition(&d, Fraction::new(0.5)), 54);
        assert_eq!(KernelSpec::sms_under_partition(&d, Fraction::new(0.10)), 10);
        assert_eq!(KernelSpec::sms_under_partition(&d, Fraction::new(0.001)), 1);
        assert_eq!(KernelSpec::sms_under_partition(&d, Fraction::ZERO), 0);
    }

    #[test]
    fn small_grid_speed_saturates_early() {
        // 54 blocks, 2 blocks/SM -> needs 27 SMs; one wave down to 27 SMs.
        let d = dev();
        let k = kernel(54);
        assert_eq!(k.speed_at_sms(&d, 108), 1.0);
        assert_eq!(k.speed_at_sms(&d, 27), 1.0);
        // Below 27 SMs it needs more waves and slows down.
        assert!(k.speed_at_sms(&d, 14) < 1.0);
        assert!(k.speed_at_sms(&d, 7) < k.speed_at_sms(&d, 14));
    }

    #[test]
    fn large_grid_speed_is_nearly_linear() {
        let d = dev();
        let k = kernel(216 * 50); // 50 full waves
        let half = k.speed_at_sms(&d, 54);
        assert!((half - 0.5).abs() < 0.02, "speed at half SMs was {half}");
        let tenth = k.speed_at_sms(&d, 11);
        assert!((tenth - 0.1).abs() < 0.02, "speed at ~10% SMs was {tenth}");
    }

    #[test]
    fn speed_is_monotone_in_sms() {
        let d = dev();
        for grid in [5u32, 54, 216, 1000, 10_000] {
            let k = kernel(grid);
            let mut prev = 0.0;
            for sms in 1..=108 {
                let s = k.speed_at_sms(&d, sms);
                assert!(
                    s >= prev - 1e-12,
                    "speed not monotone for grid {grid} at {sms} SMs"
                );
                assert!(s <= 1.0 + 1e-12);
                prev = s;
            }
            assert!((prev - 1.0).abs() < 1e-12, "full-device speed must be 1");
        }
    }

    #[test]
    fn zero_partition_means_zero_speed() {
        let d = dev();
        let k = kernel(216);
        assert_eq!(k.speed_at_partition(&d, Fraction::ZERO), 0.0);
    }

    #[test]
    fn builder_methods_set_fields() {
        let k = kernel(216)
            .with_bw_demand(Fraction::new(0.4))
            .with_cache_sensitivity(0.1)
            .with_power_scale(1.2)
            .with_host_gap(Seconds::new(0.5));
        assert_eq!(k.bw_demand.value(), 0.4);
        assert_eq!(k.cache_sensitivity, 0.1);
        assert_eq!(k.power_scale, 1.2);
        assert_eq!(k.host_gap.value(), 0.5);
    }
}
