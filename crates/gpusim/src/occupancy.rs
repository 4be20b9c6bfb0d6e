//! CUDA occupancy calculator.
//!
//! Implements the same resource-limit arithmetic as NVIDIA's occupancy
//! calculator: the number of thread blocks resident on one SM is the
//! minimum over four per-SM limits (blocks, warps/threads, registers,
//! shared memory), and **theoretical occupancy** is the resulting resident
//! warp count divided by the SM's warp capacity (paper §II-C).
//!
//! **Achieved occupancy** is modeled from load balance: a kernel that
//! launches too few blocks to fill every SM in every wave leaves warp slots
//! empty, and partially-filled tail waves drag the average down — the same
//! "load balancing and number of blocks launched" factors the paper cites.

use crate::device::DeviceSpec;
use crate::kernel::LaunchConfig;
use mpshare_types::Percent;
use serde::{Deserialize, Serialize};

/// Per-SM residency limits for one launch configuration on one device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OccupancyLimits {
    /// Resident blocks allowed by the block-count cap.
    pub by_blocks: u32,
    /// Resident blocks allowed by warp/thread capacity.
    pub by_warps: u32,
    /// Resident blocks allowed by the register file.
    pub by_registers: u32,
    /// Resident blocks allowed by shared memory.
    pub by_shared_mem: u32,
}

impl OccupancyLimits {
    /// The binding limit: resident blocks per SM.
    pub fn blocks_per_sm(&self) -> u32 {
        self.by_blocks
            .min(self.by_warps)
            .min(self.by_registers)
            .min(self.by_shared_mem)
    }
}

/// Full occupancy analysis of a launch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OccupancyReport {
    /// Per-resource residency limits.
    pub limits: OccupancyLimits,
    /// Resident blocks per SM (the min over limits, ≥ 0).
    pub blocks_per_sm: u32,
    /// Warps per block for this launch.
    pub warps_per_block: u32,
    /// Upper bound on active warps per SM as a percentage of capacity.
    pub theoretical: Percent,
    /// Modeled average achieved occupancy (≤ theoretical).
    pub achieved: Percent,
    /// Number of full device waves the grid needs.
    pub waves: u32,
}

/// Computes warps per block (threads rounded up to whole warps).
pub fn warps_per_block(device: &DeviceSpec, launch: &LaunchConfig) -> u32 {
    launch.threads_per_block.div_ceil(device.warp_size)
}

/// Per-SM residency limits for `launch` on `device`.
///
/// Register allocation is per-warp with the device's allocation
/// granularity; shared memory is rounded up to its allocation unit —
/// matching the CUDA occupancy calculator's arithmetic.
pub fn limits(device: &DeviceSpec, launch: &LaunchConfig) -> OccupancyLimits {
    let wpb = warps_per_block(device, launch);

    let by_blocks = device.max_blocks_per_sm;

    let by_thread_cap = device.max_threads_per_sm / launch.threads_per_block.max(1);
    let by_warp_cap = device.max_warps_per_sm / wpb.max(1);
    let by_warps = by_thread_cap.min(by_warp_cap);

    let by_registers = if launch.regs_per_thread == 0 {
        u32::MAX
    } else {
        // Registers are allocated per warp, rounded to the allocation unit.
        let regs_per_warp = launch.regs_per_thread * device.warp_size;
        let granule = device.register_alloc_unit.max(1);
        let regs_per_warp = regs_per_warp.div_ceil(granule) * granule;
        let regs_per_block = regs_per_warp as u64 * wpb as u64;
        (device.registers_per_sm as u64)
            .checked_div(regs_per_block)
            .map_or(u32::MAX, |blocks| blocks as u32)
    };

    let by_shared_mem = if launch.shared_mem_per_block == 0 {
        u32::MAX
    } else {
        let granule = device.shared_mem_alloc_unit.max(1);
        let smem = launch.shared_mem_per_block.div_ceil(granule) * granule;
        (device.shared_mem_per_sm / smem) as u32
    };

    OccupancyLimits {
        by_blocks,
        by_warps,
        by_registers,
        by_shared_mem,
    }
}

/// Full occupancy report: theoretical occupancy from the residency limits,
/// achieved occupancy from grid-level load balance.
///
/// ```
/// use mpshare_gpusim::{occupancy, DeviceSpec, LaunchConfig};
///
/// // 1024-thread blocks (32 warps): two fill an A100 SM completely.
/// let device = DeviceSpec::a100x();
/// let report = occupancy::report(&device, &LaunchConfig::dense(10_000, 1024));
/// assert_eq!(report.blocks_per_sm, 2);
/// assert_eq!(report.theoretical.value(), 100.0);
/// ```
pub fn report(device: &DeviceSpec, launch: &LaunchConfig) -> OccupancyReport {
    let lims = limits(device, launch);
    let blocks_per_sm = lims.blocks_per_sm();
    let wpb = warps_per_block(device, launch);

    let theoretical = if blocks_per_sm == 0 {
        Percent::ZERO
    } else {
        let resident_warps = (blocks_per_sm * wpb).min(device.max_warps_per_sm);
        Percent::from_fraction(resident_warps as f64 / device.max_warps_per_sm as f64)
    };

    // Achieved occupancy: average resident warps over the kernel's
    // execution, accounting for the partially filled final wave and for
    // grids smaller than one wave. `efficiency` is the mean fraction of the
    // per-wave block capacity that is actually occupied.
    let capacity_per_wave = (device.num_sms as u64 * blocks_per_sm as u64).max(1);
    let grid = launch.grid_blocks as u64;
    let waves = grid.div_ceil(capacity_per_wave).max(1) as u32;
    let efficiency = grid as f64 / (waves as u64 * capacity_per_wave) as f64;

    // Issue efficiency models intra-kernel stalls (dependencies, memory
    // latency) that keep achieved occupancy below the resident-warp bound
    // even for perfectly balanced grids.
    let achieved =
        Percent::clamped(theoretical.value() * efficiency * launch.issue_efficiency.value());

    OccupancyReport {
        limits: lims,
        blocks_per_sm,
        warps_per_block: wpb,
        theoretical,
        achieved,
        waves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpshare_types::Fraction;

    fn launch(grid: u32, tpb: u32, regs: u32, smem: u64) -> LaunchConfig {
        LaunchConfig {
            grid_blocks: grid,
            threads_per_block: tpb,
            regs_per_thread: regs,
            shared_mem_per_block: smem,
            issue_efficiency: Fraction::ONE,
        }
    }

    #[test]
    fn full_occupancy_when_nothing_binds() {
        // 1024 threads/block = 32 warps; 2 blocks fill the 64-warp SM.
        let d = DeviceSpec::a100x();
        let r = report(&d, &launch(10_000, 1024, 32, 0));
        assert_eq!(r.warps_per_block, 32);
        assert_eq!(r.blocks_per_sm, 2);
        assert_eq!(r.theoretical, Percent::HUNDRED);
    }

    #[test]
    fn register_limit_binds() {
        // 255 regs/thread: regs/warp = 8160 -> rounded 8192; 64 warps would
        // need 524288 regs but only 65536 exist -> 8 warps -> with 1 warp
        // per block (32 threads), 8 blocks resident.
        let d = DeviceSpec::a100x();
        let r = report(&d, &launch(100_000, 32, 255, 0));
        assert_eq!(r.limits.by_registers, 8);
        assert_eq!(r.blocks_per_sm, 8);
        assert_eq!(r.theoretical, Percent::new(12.5));
    }

    #[test]
    fn shared_memory_limit_binds() {
        // 48 KiB smem/block on a 164 KiB SM -> 3 blocks.
        let d = DeviceSpec::a100x();
        let r = report(&d, &launch(100_000, 128, 32, 48 * 1024));
        assert_eq!(r.limits.by_shared_mem, 3);
        assert_eq!(r.blocks_per_sm, 3);
        // 3 blocks * 4 warps = 12 / 64 warps.
        assert_eq!(r.theoretical, Percent::new(12.0 / 64.0 * 100.0));
    }

    #[test]
    fn block_cap_binds_for_tiny_blocks() {
        // 32-thread blocks, no other pressure: 32-block cap binds before the
        // 64-warp cap.
        let d = DeviceSpec::a100x();
        let r = report(&d, &launch(100_000, 32, 16, 0));
        assert_eq!(r.blocks_per_sm, 32);
        assert_eq!(r.theoretical, Percent::new(50.0));
    }

    #[test]
    fn warp_cap_binds_for_large_blocks() {
        let d = DeviceSpec::a100x();
        // 512 threads = 16 warps per block; 64/16 = 4 blocks.
        let r = report(&d, &launch(100_000, 512, 32, 0));
        assert_eq!(r.limits.by_warps, 4);
        assert_eq!(r.blocks_per_sm, 4);
        assert_eq!(r.theoretical, Percent::HUNDRED);
    }

    #[test]
    fn small_grid_lowers_achieved_not_theoretical() {
        let d = DeviceSpec::a100x();
        // One block per SM possible (2 resident), but only 27 blocks
        // launched on a 108-SM device: achieved = 27/216 of theoretical.
        let r = report(&d, &launch(27, 1024, 32, 0));
        assert_eq!(r.theoretical, Percent::HUNDRED);
        assert_eq!(r.waves, 1);
        let expected = 100.0 * 27.0 / 216.0;
        assert!((r.achieved.value() - expected).abs() < 1e-9);
    }

    #[test]
    fn tail_wave_drags_achieved_down() {
        let d = DeviceSpec::a100x();
        // Capacity per wave = 108 SMs * 2 blocks = 216. A 217-block grid
        // needs 2 waves at 217/432 efficiency.
        let r = report(&d, &launch(217, 1024, 32, 0));
        assert_eq!(r.waves, 2);
        let expected = 100.0 * 217.0 / 432.0;
        assert!((r.achieved.value() - expected).abs() < 1e-9);
    }

    #[test]
    fn issue_efficiency_scales_achieved() {
        let d = DeviceSpec::a100x();
        let mut l = launch(216 * 4, 1024, 32, 0);
        l.issue_efficiency = Fraction::new(0.5);
        let r = report(&d, &l);
        assert_eq!(r.theoretical, Percent::HUNDRED);
        assert!((r.achieved.value() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn achieved_never_exceeds_theoretical() {
        let d = DeviceSpec::a100x();
        for (grid, tpb, regs, smem) in [
            (1u32, 32u32, 0u32, 0u64),
            (1000, 256, 64, 1024),
            (216, 1024, 32, 0),
            (7, 96, 200, 100_000),
        ] {
            let r = report(&d, &launch(grid, tpb, regs, smem));
            assert!(
                r.achieved.value() <= r.theoretical.value() + 1e-9,
                "achieved {} > theoretical {} for grid {grid}",
                r.achieved,
                r.theoretical
            );
        }
    }

    #[test]
    fn oversized_shared_memory_gives_zero_occupancy() {
        let d = DeviceSpec::a100x();
        let r = report(&d, &launch(100, 128, 32, 200 * 1024));
        assert_eq!(r.blocks_per_sm, 0);
        assert_eq!(r.theoretical, Percent::ZERO);
        assert_eq!(r.achieved, Percent::ZERO);
    }
}
