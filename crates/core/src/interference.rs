//! Interference prediction (paper §IV-B, the italicized rule).
//!
//! *"Two workflows are predicted to interfere if they have combined average
//! SM utilization over 100 %, combined average memory bandwidth utilization
//! over 100 %, or combined maximum memory utilization above the device
//! memory capacity."* The same rule generalizes to groups of any size by
//! summing.

use crate::estimate::GroupTotals;
use crate::wprofile::WorkflowProfile;
use mpshare_gpusim::DeviceSpec;
use mpshare_types::MemBytes;
use serde::{Deserialize, Serialize};

/// Which resource the predictor expects to be contended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InterferenceKind {
    /// Combined average SM utilization exceeds 100 %.
    Compute,
    /// Combined average memory-bandwidth utilization exceeds 100 %.
    MemoryBandwidth,
    /// Combined maximum memory exceeds device capacity. Unlike the other
    /// two this is a *hard* constraint: the group cannot be admitted.
    MemoryCapacity,
}

/// Prediction result for a candidate group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterferenceReport {
    /// Sum of average SM utilizations (may exceed 100).
    pub sm_sum: f64,
    /// Sum of average bandwidth utilizations (may exceed 100).
    pub bw_sum: f64,
    /// Sum of maximum memory footprints.
    pub memory_sum: MemBytes,
    /// All predicted interference kinds (empty = compatible).
    pub kinds: Vec<InterferenceKind>,
}

impl InterferenceReport {
    /// Whether the group is predicted interference-free.
    pub fn is_compatible(&self) -> bool {
        self.kinds.is_empty()
    }
}

/// Predicts interference for a candidate group of workflows.
///
/// ```
/// use mpshare_core::{predict, workflow_profile};
/// use mpshare_gpusim::DeviceSpec;
/// use mpshare_profiler::ProfileStore;
/// use mpshare_workloads::{BenchmarkKind, ProblemSize, WorkflowSpec};
///
/// let device = DeviceSpec::a100x();
/// let queue = vec![
///     WorkflowSpec::uniform(BenchmarkKind::AthenaPk, ProblemSize::X1, 1),
///     WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 1),
/// ];
/// let mut store = ProfileStore::new();
/// store.profile_workflows(&device, &queue).unwrap();
/// let a = workflow_profile(&store, &queue[0]).unwrap();
/// let k = workflow_profile(&store, &queue[1]).unwrap();
///
/// // AthenaPK 1x (7.5% SM) + Kripke 1x (26.6% SM): compatible.
/// let report = predict(&device, &[&a, &k]);
/// assert!(report.is_compatible());
/// assert!(report.sm_sum < 100.0);
/// ```
pub fn predict(device: &DeviceSpec, group: &[&WorkflowProfile]) -> InterferenceReport {
    GroupTotals::fold(device, group.iter().copied()).interference(device)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpshare_types::{Energy, Percent, Power, Seconds};

    fn profile(sm: f64, bw: f64, mem_gib: u64) -> WorkflowProfile {
        WorkflowProfile {
            label: format!("w(sm={sm})"),
            task_count: 1,
            avg_sm_util: Percent::new(sm),
            avg_bw_util: Percent::new(bw),
            max_memory: MemBytes::from_gib(mem_gib),
            duration: Seconds::new(10.0),
            energy: Energy::from_joules(1000.0),
            avg_power: Power::from_watts(100.0),
            busy_fraction: 0.8,
            saturation_partition: mpshare_types::Fraction::new(0.9),
        }
    }

    fn dev() -> DeviceSpec {
        DeviceSpec::a100x()
    }

    #[test]
    fn compatible_pair_passes_all_checks() {
        let (a, b) = (profile(30.0, 5.0, 10), profile(40.0, 10.0, 10));
        let r = predict(&dev(), &[&a, &b]);
        assert!(r.is_compatible());
        assert_eq!(r.sm_sum, 70.0);
    }

    #[test]
    fn compute_interference_detected() {
        let (a, b) = (profile(60.0, 5.0, 10), profile(50.0, 5.0, 10));
        let r = predict(&dev(), &[&a, &b]);
        assert_eq!(r.kinds, vec![InterferenceKind::Compute]);
        assert!(!r.is_compatible());
    }

    #[test]
    fn bandwidth_interference_detected() {
        let (a, b) = (profile(30.0, 60.0, 10), profile(30.0, 50.0, 10));
        let r = predict(&dev(), &[&a, &b]);
        assert_eq!(r.kinds, vec![InterferenceKind::MemoryBandwidth]);
    }

    #[test]
    fn memory_capacity_is_hard_violation() {
        // Two WarpX-like 60 GiB footprints exceed the 80 GiB device.
        let (a, b) = (profile(30.0, 5.0, 60), profile(30.0, 5.0, 60));
        let r = predict(&dev(), &[&a, &b]);
        assert_eq!(r.kinds, vec![InterferenceKind::MemoryCapacity]);
    }

    #[test]
    fn multiple_kinds_reported_together() {
        let (a, b) = (profile(80.0, 70.0, 50), profile(70.0, 60.0, 50));
        let r = predict(&dev(), &[&a, &b]);
        assert_eq!(r.kinds.len(), 3);
    }

    #[test]
    fn boundary_sums_are_compatible() {
        // Exactly 100 % is "under or at" the threshold -> compatible.
        let (a, b) = (profile(50.0, 50.0, 40), profile(50.0, 50.0, 40));
        let r = predict(&dev(), &[&a, &b]);
        assert!(r.is_compatible(), "kinds: {:?}", r.kinds);
    }

    #[test]
    fn singleton_and_empty_groups_never_interfere_on_utilization() {
        let a = profile(99.0, 99.0, 70);
        assert!(predict(&dev(), &[&a]).is_compatible());
        let r = predict(&dev(), &[]);
        assert!(r.is_compatible());
        assert_eq!(r.sm_sum, 0.0);
    }

    #[test]
    fn group_rule_generalizes_beyond_pairs() {
        let profiles: Vec<WorkflowProfile> = (0..4).map(|_| profile(30.0, 10.0, 10)).collect();
        let refs: Vec<&WorkflowProfile> = profiles.iter().collect();
        let r = predict(&dev(), &refs);
        assert_eq!(r.sm_sum, 120.0);
        assert_eq!(r.kinds, vec![InterferenceKind::Compute]);
    }
}
