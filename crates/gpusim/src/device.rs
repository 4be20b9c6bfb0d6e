//! Device specifications for the simulated GPUs.
//!
//! The default spec models the NVIDIA A100X used in the paper's evaluation:
//! 108 SMs, 64 resident warps per SM, 80 GiB HBM, a 300 W software power
//! cap. Smaller presets are provided for fast unit tests.

use mpshare_types::{Error, MemBytes, Power, Result};
use serde::{Deserialize, Serialize};

/// Static description of a simulated GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Human-readable device name, e.g. `"A100X"`.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Maximum resident warps per SM (64 on Ampere).
    pub max_warps_per_sm: u32,
    /// Maximum resident thread blocks per SM (32 on Ampere).
    pub max_blocks_per_sm: u32,
    /// Threads per warp (32 on every NVIDIA architecture to date).
    pub warp_size: u32,
    /// Maximum threads per SM (2048 on Ampere).
    pub max_threads_per_sm: u32,
    /// Register file size per SM, in 32-bit registers (65,536 on Ampere).
    pub registers_per_sm: u32,
    /// Register allocation granularity per warp (256 on Ampere).
    pub register_alloc_unit: u32,
    /// Shared memory per SM available to kernels, in bytes (164 KiB usable
    /// on A100).
    pub shared_mem_per_sm: u64,
    /// Shared-memory allocation granularity, in bytes (128 on Ampere).
    pub shared_mem_alloc_unit: u64,
    /// Device memory capacity.
    pub memory_capacity: MemBytes,
    /// Peak device memory bandwidth, bytes per second. Used only as a
    /// normalization constant: kernels express bandwidth demand as a
    /// fraction of this peak.
    pub memory_bandwidth_bytes_per_sec: f64,
    /// Idle (static) board power draw.
    pub idle_power: Power,
    /// Software power cap: above this draw, the SW power-scaling algorithm
    /// throttles the clock (300 W on the A100X).
    pub power_cap: Power,
    /// Dynamic power per percentage point of SM utilization.
    pub power_per_sm_pct: f64,
    /// Dynamic power per percentage point of memory-bandwidth utilization.
    pub power_per_bw_pct: f64,
    /// Peak-over-average power factor when two or more MPS clients are
    /// resident. Interleaved instruction mixes produce transient power
    /// peaks above the utilization-average draw; the SW power-scaling
    /// algorithm reacts to the peaks, so capping can engage under
    /// co-scheduling even when average draw sits below the cap.
    pub mps_peak_power_factor: f64,
    /// Maximum concurrent MPS clients (48 on post-Volta hardware).
    pub max_mps_clients: usize,
    /// Maximum MIG instances (7 on A100-class hardware).
    pub max_mig_instances: u32,
}

impl DeviceSpec {
    /// The NVIDIA A100X-like device used throughout the reproduction.
    ///
    /// The power coefficients are fitted to the paper's Table II: a linear
    /// model `P = idle + a·SM% + b·BW%` with `idle ≈ 75 W`, `a ≈ 1.75 W/%`,
    /// `b ≈ 1.0 W/%` reproduces the reported average power of the profiled
    /// benchmarks to within a few percent (see `mpshare-workloads`'s
    /// calibration tests).
    pub fn a100x() -> Self {
        DeviceSpec {
            name: "A100X".to_string(),
            num_sms: 108,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 32,
            warp_size: 32,
            max_threads_per_sm: 2048,
            registers_per_sm: 65_536,
            register_alloc_unit: 256,
            shared_mem_per_sm: 164 * 1024,
            shared_mem_alloc_unit: 128,
            memory_capacity: MemBytes::from_gib(80),
            memory_bandwidth_bytes_per_sec: 1.94e12,
            idle_power: Power::from_watts(75.0),
            power_cap: Power::from_watts(300.0),
            power_per_sm_pct: 1.75,
            power_per_bw_pct: 1.0,
            mps_peak_power_factor: 1.18,
            max_mps_clients: 48,
            max_mig_instances: 7,
        }
    }

    /// An AMD MI250X-like GCD (one of the two dies): 110 CUs, 64-wide
    /// wavefronts, 64 GiB HBM2e per GCD. The paper names AMD architectures
    /// as future work; the occupancy arithmetic carries over with
    /// wavefront-sized "warps" and CU-level residency limits.
    pub fn mi250x_gcd() -> Self {
        DeviceSpec {
            name: "MI250X-GCD".to_string(),
            num_sms: 110,
            max_warps_per_sm: 32,
            max_blocks_per_sm: 16,
            warp_size: 64,
            max_threads_per_sm: 2048,
            registers_per_sm: 131_072,
            register_alloc_unit: 256,
            shared_mem_per_sm: 64 * 1024,
            shared_mem_alloc_unit: 128,
            memory_capacity: MemBytes::from_gib(64),
            memory_bandwidth_bytes_per_sec: 1.6e12,
            idle_power: Power::from_watts(90.0),
            power_cap: Power::from_watts(280.0),
            power_per_sm_pct: 1.6,
            power_per_bw_pct: 0.9,
            mps_peak_power_factor: 1.15,
            max_mps_clients: 16,
            max_mig_instances: 1, // no MIG equivalent; SR-IOV not modeled
        }
    }

    /// A deliberately tiny GPU for unit tests: 4 SMs, 1 GiB of memory,
    /// generous power headroom. Small numbers make wave quantization and
    /// occupancy limits easy to reason about by hand.
    pub fn tiny() -> Self {
        DeviceSpec {
            name: "TinyGPU".to_string(),
            num_sms: 4,
            max_warps_per_sm: 8,
            max_blocks_per_sm: 4,
            warp_size: 32,
            max_threads_per_sm: 256,
            registers_per_sm: 16_384,
            register_alloc_unit: 256,
            shared_mem_per_sm: 16 * 1024,
            shared_mem_alloc_unit: 128,
            memory_capacity: MemBytes::from_gib(1),
            memory_bandwidth_bytes_per_sec: 1.0e11,
            idle_power: Power::from_watts(10.0),
            power_cap: Power::from_watts(60.0),
            power_per_sm_pct: 0.3,
            power_per_bw_pct: 0.2,
            mps_peak_power_factor: 1.25,
            max_mps_clients: 8,
            max_mig_instances: 2,
        }
    }

    /// Validates internal consistency; returns the spec on success so this
    /// can be chained in builders.
    pub fn validated(self) -> Result<Self> {
        if self.num_sms == 0 {
            return Err(Error::InvalidConfig(
                "device must have at least one SM".into(),
            ));
        }
        if self.warp_size == 0 || self.max_warps_per_sm == 0 || self.max_blocks_per_sm == 0 {
            return Err(Error::InvalidConfig(
                "warp size, warps/SM and blocks/SM must be positive".into(),
            ));
        }
        if self.max_threads_per_sm < self.warp_size {
            return Err(Error::InvalidConfig(
                "max threads per SM must fit at least one warp".into(),
            ));
        }
        if self.memory_bandwidth_bytes_per_sec <= 0.0
            || !self.memory_bandwidth_bytes_per_sec.is_finite()
        {
            return Err(Error::InvalidConfig(
                "memory bandwidth must be positive and finite".into(),
            ));
        }
        if self.mps_peak_power_factor < 1.0 || !self.mps_peak_power_factor.is_finite() {
            return Err(Error::InvalidConfig(
                "MPS peak power factor must be ≥ 1".into(),
            ));
        }
        if self.power_cap < self.idle_power {
            return Err(Error::InvalidConfig(
                "power cap below idle power can never be satisfied".into(),
            ));
        }
        if self.max_mps_clients == 0 {
            return Err(Error::InvalidConfig(
                "MPS client limit must be positive".into(),
            ));
        }
        Ok(self)
    }

    /// Derives the sub-device seen by a MIG instance occupying
    /// `slices` out of `total_slices` of the GPU. Compute, memory capacity
    /// and bandwidth all scale with the slice count; per-SM limits are
    /// unchanged (MIG partitions whole GPCs, not SM internals).
    pub fn mig_slice(&self, slices: u32, total_slices: u32) -> Result<DeviceSpec> {
        if slices == 0 || total_slices == 0 || slices > total_slices {
            return Err(Error::InvalidConfig(format!(
                "invalid MIG slice request {slices}/{total_slices}"
            )));
        }
        let frac = slices as f64 / total_slices as f64;
        let mut spec = self.clone();
        spec.name = format!("{}-mig-{slices}g", self.name);
        spec.num_sms = ((self.num_sms as f64 * frac).floor() as u32).max(1);
        spec.memory_capacity = self.memory_capacity.scale(frac);
        spec.memory_bandwidth_bytes_per_sec = self.memory_bandwidth_bytes_per_sec * frac;
        // Power per percentage point scales with the slice: 100 % of a
        // 3/7th slice draws 3/7th of the whole device's dynamic power.
        spec.power_per_sm_pct = self.power_per_sm_pct * frac;
        spec.power_per_bw_pct = self.power_per_bw_pct * frac;
        // Idle power is board-level; attribute it proportionally so that the
        // sum over instances matches the whole device.
        spec.idle_power = self.idle_power * frac;
        spec.power_cap = self.power_cap * frac;
        spec.validated()
    }
}

impl Default for DeviceSpec {
    fn default() -> Self {
        DeviceSpec::a100x()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100x_matches_published_limits() {
        let d = DeviceSpec::a100x().validated().unwrap();
        assert_eq!(d.num_sms, 108);
        assert_eq!(d.max_warps_per_sm, 64);
        assert_eq!(d.memory_capacity, MemBytes::from_gib(80));
        assert_eq!(d.power_cap.watts(), 300.0);
        assert_eq!(d.max_mps_clients, 48);
    }

    #[test]
    fn tiny_device_is_valid() {
        DeviceSpec::tiny().validated().unwrap();
    }

    #[test]
    fn amd_preset_is_valid_and_wavefront_sized() {
        let d = DeviceSpec::mi250x_gcd().validated().unwrap();
        assert_eq!(d.warp_size, 64);
        assert_eq!((d.num_sms, d.max_warps_per_sm), (110, 32));
        assert!(d.memory_capacity < DeviceSpec::a100x().memory_capacity);
    }

    #[test]
    fn validation_rejects_zero_sms() {
        let mut d = DeviceSpec::tiny();
        d.num_sms = 0;
        assert!(d.validated().is_err());
    }

    #[test]
    fn validation_rejects_cap_below_idle() {
        let mut d = DeviceSpec::tiny();
        d.power_cap = Power::from_watts(5.0);
        assert!(d.validated().is_err());
    }

    #[test]
    fn validation_rejects_nonpositive_bandwidth() {
        let mut d = DeviceSpec::tiny();
        d.memory_bandwidth_bytes_per_sec = 0.0;
        assert!(d.validated().is_err());
    }

    #[test]
    fn mig_slice_scales_resources() {
        let d = DeviceSpec::a100x();
        let half = d.mig_slice(3, 7).unwrap();
        assert_eq!(half.num_sms, (108.0_f64 * 3.0 / 7.0).floor() as u32);
        assert!(half.memory_capacity < d.memory_capacity);
        assert!(half.memory_bandwidth_bytes_per_sec < d.memory_bandwidth_bytes_per_sec);
        // Per-SM architecture limits don't change under MIG.
        assert_eq!(half.max_warps_per_sm, d.max_warps_per_sm);
    }

    #[test]
    fn mig_slice_rejects_invalid_requests() {
        let d = DeviceSpec::a100x();
        assert!(d.mig_slice(0, 7).is_err());
        assert!(d.mig_slice(8, 7).is_err());
        assert!(d.mig_slice(1, 0).is_err());
    }

    #[test]
    fn mig_slices_sum_close_to_whole() {
        let d = DeviceSpec::a100x();
        let slices: Vec<_> = (0..7).map(|_| d.mig_slice(1, 7).unwrap()).collect();
        let total_sms: u32 = slices.iter().map(|s| s.num_sms).sum();
        assert!(total_sms <= d.num_sms);
        let total_idle: f64 = slices.iter().map(|s| s.idle_power.watts()).sum();
        assert!((total_idle - d.idle_power.watts()).abs() < 1.0);
    }
}
