//! MPS partition right-sizing (the paper's granularity awareness).
//!
//! Figure 1 shows throughput saturating in the MPS SM-partition size:
//! beyond a workload-specific point, extra partition is wasted — and a
//! partition *below* it actively hurts (the red circle). Two right-sizing
//! strategies are provided:
//!
//! * [`PartitionStrategy::RightSized`] sizes partitions from the profiled
//!   burst SM *demand* plus headroom. Aggressive: it can throttle a task
//!   whose dense kernels legitimately span the whole device even though
//!   its average demand is low (the ablation benches quantify this).
//! * [`PartitionStrategy::SaturationAware`] (the default) additionally
//!   respects the measured saturation partition from the profiler's
//!   Figure-1-style sweep — each client gets at least the partition below
//!   which its own solo throughput would degrade.

use crate::wprofile::WorkflowProfile;
use mpshare_types::Fraction;
use serde::{Deserialize, Serialize};

/// How partitions are assigned within a collocation group.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PartitionStrategy {
    /// MPS default: every client gets 100 %.
    Uniform,
    /// Each client gets its burst SM demand scaled by `headroom`
    /// (e.g. 1.25 = 25 % margin), floored at `min_percent`, capped at 100.
    RightSized { headroom: f64, min_percent: u8 },
    /// Demand-based sizing, floored at the workload's measured saturation
    /// partition so the partition never costs solo throughput.
    SaturationAware { headroom: f64, min_percent: u8 },
}

impl PartitionStrategy {
    /// The default right-sizing used by the planner: 25 % headroom above
    /// profiled burst demand, at least a 10 % partition.
    pub fn default_rightsized() -> Self {
        PartitionStrategy::RightSized {
            headroom: 1.25,
            min_percent: 10,
        }
    }

    /// The planner's default: demand-based with a saturation floor.
    pub fn default_saturation_aware() -> Self {
        PartitionStrategy::SaturationAware {
            headroom: 1.25,
            min_percent: 10,
        }
    }

    /// Computes the partition vector for a group, in group order.
    pub fn partitions(&self, group: &[&WorkflowProfile]) -> Vec<Fraction> {
        match *self {
            PartitionStrategy::Uniform => vec![Fraction::ONE; group.len()],
            PartitionStrategy::RightSized {
                headroom,
                min_percent,
            } => group
                .iter()
                .map(|p| demand_partition(p, headroom, min_percent, None))
                .collect(),
            PartitionStrategy::SaturationAware {
                headroom,
                min_percent,
            } => group
                .iter()
                .map(|p| demand_partition(p, headroom, min_percent, Some(p.saturation_partition)))
                .collect(),
        }
    }
}

/// Demand-based partition with an optional saturation floor.
fn demand_partition(
    p: &WorkflowProfile,
    headroom: f64,
    min_percent: u8,
    saturation_floor: Option<Fraction>,
) -> Fraction {
    let mut want = (p.burst_sm_util() * headroom).clamp(0.0, 1.0);
    if let Some(floor) = saturation_floor {
        want = want.max(floor.value());
    }
    // Round up to a whole percent, the provisioning granularity of
    // `CUDA_MPS_ACTIVE_THREAD_PERCENTAGE`. Zero demand rounds to 0, which
    // is not a valid MPS partition, hence the floor of 1 %.
    let pct = ((want * 100.0).ceil() as u8).max(min_percent).max(1);
    Fraction::new(pct as f64 / 100.0)
}

impl Default for PartitionStrategy {
    fn default() -> Self {
        PartitionStrategy::default_saturation_aware()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpshare_types::{Energy, MemBytes, Percent, Power, Seconds};

    fn profile(avg_sm: f64, busy: f64) -> WorkflowProfile {
        WorkflowProfile {
            label: "w".into(),
            task_count: 1,
            avg_sm_util: Percent::new(avg_sm),
            avg_bw_util: Percent::new(1.0),
            max_memory: MemBytes::from_gib(1),
            duration: Seconds::new(10.0),
            energy: Energy::from_joules(1000.0),
            avg_power: Power::from_watts(100.0),
            busy_fraction: busy,
            saturation_partition: mpshare_types::Fraction::new(0.9),
        }
    }

    #[test]
    fn uniform_gives_everyone_full_partitions() {
        let (a, b) = (profile(10.0, 0.5), profile(90.0, 0.9));
        let parts = PartitionStrategy::Uniform.partitions(&[&a, &b]);
        assert_eq!(parts, vec![Fraction::ONE, Fraction::ONE]);
    }

    #[test]
    fn rightsizing_tracks_burst_demand() {
        // avg 20 % at 0.5 busy -> burst 0.4; ×1.25 headroom -> 50 %.
        let a = profile(20.0, 0.5);
        let parts = PartitionStrategy::default_rightsized().partitions(&[&a]);
        assert!((parts[0].value() - 0.50).abs() < 0.011, "got {}", parts[0]);
    }

    #[test]
    fn rightsizing_floors_tiny_workloads() {
        // AthenaPK-like: avg 7.5 % at 0.35 busy -> burst 0.21 -> 27 %.
        // An even tinier one hits the 10 % floor.
        let tiny = profile(1.0, 0.5);
        let parts = PartitionStrategy::default_rightsized().partitions(&[&tiny]);
        assert!((parts[0].value() - 0.10).abs() < 1e-9);
    }

    #[test]
    fn rightsizing_caps_at_full_device() {
        let hot = profile(95.0, 0.95);
        let parts = PartitionStrategy::default_rightsized().partitions(&[&hot]);
        assert_eq!(parts[0], Fraction::ONE);
    }

    #[test]
    fn partition_order_matches_group_order() {
        let (a, b) = (profile(20.0, 0.5), profile(60.0, 0.9));
        let parts = PartitionStrategy::default_rightsized().partitions(&[&a, &b]);
        assert!(parts[0] < parts[1]);
    }

    #[test]
    fn saturation_aware_floors_at_measured_saturation() {
        // Demand says 50 %, but the measured saturation is 90 %: the
        // saturation-aware strategy must not throttle below it.
        let a = profile(20.0, 0.5);
        let parts = PartitionStrategy::default_saturation_aware().partitions(&[&a]);
        assert!((parts[0].value() - 0.90).abs() < 1e-9, "got {}", parts[0]);
    }

    #[test]
    fn saturation_aware_uses_demand_when_it_exceeds_saturation() {
        let mut a = profile(80.0, 0.8); // burst 1.0 ×1.25 -> 100 %
        a.saturation_partition = Fraction::new(0.3);
        let parts = PartitionStrategy::default_saturation_aware().partitions(&[&a]);
        assert_eq!(parts[0], Fraction::ONE);
    }

    /// Demand-only sizing: no headroom, no floor.
    const FLOORLESS: PartitionStrategy = PartitionStrategy::RightSized {
        headroom: 1.0,
        min_percent: 0,
    };

    #[test]
    fn demand_rounds_up_to_whole_percent() {
        for (avg_sm, pct) in [(30.1, 0.31), (0.01, 0.01), (100.0, 1.0)] {
            let p = profile(avg_sm, 1.0);
            assert_eq!(FLOORLESS.partitions(&[&p])[0], Fraction::new(pct));
        }
    }

    #[test]
    fn zero_demand_gets_the_floor_partition() {
        // A profile with 0 % SM utilization (e.g. a custom workflow with
        // `sm_demand: 0`) demands nothing; it still gets a valid partition.
        let idle = profile(0.0, 0.5);
        let parts = PartitionStrategy::default_rightsized().partitions(&[&idle]);
        assert_eq!(parts[0], Fraction::new(0.10));
        assert_eq!(FLOORLESS.partitions(&[&idle])[0], Fraction::new(0.01));
    }

    #[test]
    fn partitions_are_whole_percent_granular() {
        let a = profile(13.0, 0.7); // burst ≈ 0.1857 ×1.25 ≈ 0.2321 -> 24 %
        let parts = PartitionStrategy::default_rightsized().partitions(&[&a]);
        let pct = parts[0].value() * 100.0;
        assert!((pct - pct.round()).abs() < 1e-9, "not whole percent: {pct}");
    }
}
