//! Profile data types: what offline profiling produces.

use mpshare_types::{Energy, Fraction, MemBytes, Percent, Power, Seconds};
use serde::{Deserialize, Serialize};

/// Occupancy summary of a task's kernel mix (Table I columns).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OccupancyProfile {
    /// Duration-weighted average achieved warp occupancy.
    pub achieved: Percent,
    /// Duration-weighted average theoretical warp occupancy.
    pub theoretical: Percent,
}

impl OccupancyProfile {
    /// "% of theoretical achieved".
    pub fn achieved_ratio(&self) -> f64 {
        if self.theoretical.value() <= 0.0 {
            0.0
        } else {
            self.achieved.value() / self.theoretical.value()
        }
    }
}

/// One profiled workflow task — a row of the paper's Table II (plus
/// occupancy and idle-time columns the paper reports elsewhere).
///
/// This is the only information the scheduler sees about a workload:
/// collocation decisions are made from these aggregates, never from the
/// underlying kernel specs (matching the paper's minimal-overhead,
/// task-granularity profiling).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskProfile {
    /// Task label, e.g. `"Kripke 4x"`.
    pub label: String,
    /// Maximum resident device memory.
    pub max_memory: MemBytes,
    /// Average memory-bandwidth utilization over the task.
    pub avg_bw_util: Percent,
    /// Average SM utilization over the task.
    pub avg_sm_util: Percent,
    /// Average board power.
    pub avg_power: Power,
    /// Total GPU energy of one solo run.
    pub energy: Energy,
    /// Solo wall-clock duration.
    pub duration: Seconds,
    /// Fraction of wall time with kernels resident.
    pub busy_fraction: f64,
    /// Occupancy summary (Table I).
    pub occupancy: OccupancyProfile,
    /// Smallest MPS partition at which the task retains ≥ 95 % of its
    /// full-partition throughput — measured with a Figure-1-style sweep.
    /// This is the "green circle" of the paper's Figure 1: partitions
    /// below it hurt, partitions above it are wasted.
    pub saturation_partition: Fraction,
}

impl TaskProfile {
    /// GPU idle time during the solo run.
    pub fn idle_time(&self) -> Seconds {
        self.duration * (1.0 - self.busy_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(sm: f64) -> TaskProfile {
        TaskProfile {
            label: "t".into(),
            max_memory: MemBytes::from_mib(100),
            avg_bw_util: Percent::new(1.0),
            avg_sm_util: Percent::new(sm),
            avg_power: Power::from_watts(100.0),
            energy: Energy::from_joules(1000.0),
            duration: Seconds::new(10.0),
            busy_fraction: 0.6,
            occupancy: OccupancyProfile {
                achieved: Percent::new(20.0),
                theoretical: Percent::new(40.0),
            },
            saturation_partition: Fraction::new(0.5),
        }
    }

    #[test]
    fn idle_time_complement_of_busy() {
        let p = profile(30.0);
        assert!((p.idle_time().value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn occupancy_ratio() {
        let p = profile(30.0);
        assert!((p.occupancy.achieved_ratio() - 0.5).abs() < 1e-12);
        let zero = OccupancyProfile {
            achieved: Percent::ZERO,
            theoretical: Percent::ZERO,
        };
        assert_eq!(zero.achieved_ratio(), 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let p = profile(25.0);
        let json = serde_json::to_string(&p).unwrap();
        let back: TaskProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
