//! Analytic group estimator.
//!
//! The planner needs to rank many candidate groupings without running the
//! simulator for each. This estimator predicts a collocation group's
//! makespan and energy from profiles alone:
//!
//! * **makespan** — the longest workflow, stretched by the predicted
//!   contention factor `max(1, ΣSM/100, ΣBW/100)`;
//! * **energy** — idle power over the makespan plus each workflow's
//!   dynamic energy, which is invariant under contention stretching
//!   (dynamic power scales with progress rate while time scales
//!   inversely).
//!
//! The estimator is deliberately first-order: the executor measures the
//! real thing. Its only job is to order candidates the same way the
//! simulator would, which the planner tests verify.

use crate::interference::{InterferenceKind, InterferenceReport};
use crate::wprofile::WorkflowProfile;
use mpshare_gpusim::DeviceSpec;
use mpshare_types::{Energy, MemBytes, Seconds};
use serde::{Deserialize, Serialize};

/// Predicted outcome of running one collocation group under MPS.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupEstimate {
    pub makespan: Seconds,
    pub energy: Energy,
}

/// Running sums over a group's members: everything the estimator and the
/// interference rule read of a group. Every planner strategy grows a group
/// by adding one member's precomputed totals ([`GroupTotals::of`]), so a
/// candidate group costs O(1) instead of a pass over its members.
///
/// # Bit identity
///
/// Adding members one at a time reproduces the per-field folds over the
/// member list bit for bit: the float sums start at `-0.0`, the identity
/// `Sum for f64` folds from, and add in member order; memory is an integer
/// sum. The makespan is `max_duration × stretch` where the per-member
/// form is `fold(0.0, max)` over `duration × stretch`: multiplying by the
/// stretch (≥ 1, finite) preserves every value's sign and order under
/// monotone rounding, and only merges values into bit-equal ones, so each
/// `max` picks the same (or a bit-equal) operand either way. That needs
/// non-negative, non-NaN durations: `Seconds::new` rejects the others, and
/// `Planner::validate_profiles` re-checks every profile it plans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GroupTotals {
    sm_sum: f64,
    bw_sum: f64,
    pub(crate) memory_sum: MemBytes,
    pub(crate) count: usize,
    max_duration: f64,
    dynamic_energy: f64,
}

impl GroupTotals {
    /// The empty group.
    pub(crate) const EMPTY: GroupTotals = GroupTotals {
        sm_sum: -0.0,
        bw_sum: -0.0,
        memory_sum: MemBytes::ZERO,
        count: 0,
        max_duration: 0.0,
        dynamic_energy: -0.0,
    };

    /// One workflow's contribution, to be [`GroupTotals::add`]ed to a
    /// group (starting from [`GroupTotals::EMPTY`]).
    pub(crate) fn of(device: &DeviceSpec, p: &WorkflowProfile) -> GroupTotals {
        GroupTotals {
            sm_sum: p.avg_sm_util.value(),
            bw_sum: p.avg_bw_util.value(),
            memory_sum: p.max_memory,
            count: 1,
            max_duration: p.duration.value(),
            dynamic_energy: p.dynamic_energy(device.idle_power).joules(),
        }
    }

    /// The totals of `group`, added in member order.
    pub(crate) fn fold<'a>(
        device: &DeviceSpec,
        group: impl IntoIterator<Item = &'a WorkflowProfile>,
    ) -> GroupTotals {
        let mut totals = GroupTotals::EMPTY;
        for p in group {
            totals.add(&GroupTotals::of(device, p));
        }
        totals
    }

    /// Appends one member, given as its [`GroupTotals::of`].
    pub(crate) fn add(&mut self, member: &GroupTotals) {
        self.sm_sum += member.sm_sum;
        self.bw_sum += member.bw_sum;
        self.memory_sum += member.memory_sum;
        self.count += member.count;
        self.max_duration = self.max_duration.max(member.max_duration);
        self.dynamic_energy += member.dynamic_energy;
    }

    /// The group's estimate (see [`estimate_group`]).
    pub(crate) fn estimate(&self, device: &DeviceSpec) -> GroupEstimate {
        let stretch = (self.sm_sum / 100.0).max(self.bw_sum / 100.0).max(1.0);
        // Equal bit for bit to the longest stretched duration (type docs).
        let makespan = self.max_duration * stretch;
        let energy = device.idle_power.watts() * makespan + self.dynamic_energy;
        GroupEstimate {
            makespan: Seconds::new(makespan),
            energy: Energy::from_joules(energy),
        }
    }

    /// The paper's interference rule on the group (see
    /// [`crate::interference::predict`]).
    pub(crate) fn interference(&self, device: &DeviceSpec) -> InterferenceReport {
        let mut kinds = Vec::new();
        if self.sm_sum > 100.0 {
            kinds.push(InterferenceKind::Compute);
        }
        if self.bw_sum > 100.0 {
            kinds.push(InterferenceKind::MemoryBandwidth);
        }
        if self.memory_sum > device.memory_capacity {
            kinds.push(InterferenceKind::MemoryCapacity);
        }
        InterferenceReport {
            sm_sum: self.sm_sum,
            bw_sum: self.bw_sum,
            memory_sum: self.memory_sum,
            kinds,
        }
    }
}

/// Estimates a group's makespan and energy under MPS collocation, from the
/// profiles alone.
///
/// The estimate charges no per-co-runner sharing overhead, while the
/// executor's runs do ([`crate::executor::DEFAULT_MPS_OVERHEAD`]), so
/// estimated and simulated makespans differ by that factor on top of the
/// contention model's error.
pub fn estimate_group(device: &DeviceSpec, group: &[&WorkflowProfile]) -> GroupEstimate {
    GroupTotals::fold(device, group.iter().copied()).estimate(device)
}

/// Estimates the sequential baseline for the same workflows: durations and
/// energies simply add.
pub fn estimate_sequential(group: &[&WorkflowProfile]) -> GroupEstimate {
    GroupEstimate {
        makespan: Seconds::new(group.iter().map(|p| p.duration.value()).sum()),
        energy: Energy::from_joules(group.iter().map(|p| p.energy.joules()).sum()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpshare_types::{MemBytes, Percent, Power};

    fn dev() -> DeviceSpec {
        DeviceSpec::a100x()
    }

    fn profile(sm: f64, duration: f64, power: f64) -> WorkflowProfile {
        WorkflowProfile {
            label: "w".into(),
            task_count: 2,
            avg_sm_util: Percent::new(sm),
            avg_bw_util: Percent::new(2.0),
            max_memory: MemBytes::from_gib(1),
            duration: Seconds::new(duration),
            energy: Energy::from_joules(power * duration),
            avg_power: Power::from_watts(power),
            busy_fraction: 0.8,
            saturation_partition: mpshare_types::Fraction::new(0.9),
        }
    }

    #[test]
    fn empty_group_estimates_zero() {
        let e = estimate_group(&dev(), &[]);
        assert_eq!(e.makespan, Seconds::ZERO);
        assert_eq!(e.energy, Energy::ZERO);
    }

    #[test]
    fn non_interfering_group_runs_at_longest_workflow() {
        let (a, b) = (profile(30.0, 10.0, 150.0), profile(40.0, 6.0, 160.0));
        let e = estimate_group(&dev(), &[&a, &b]);
        assert!((e.makespan.value() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn oversubscribed_group_stretches() {
        let (a, b) = (profile(80.0, 10.0, 200.0), profile(80.0, 10.0, 200.0));
        let e = estimate_group(&dev(), &[&a, &b]);
        assert!((e.makespan.value() - 16.0).abs() < 1e-9); // ×1.6
    }

    #[test]
    fn collocation_saves_idle_energy_vs_sequential() {
        let (a, b) = (profile(30.0, 10.0, 150.0), profile(30.0, 10.0, 150.0));
        let shared = estimate_group(&dev(), &[&a, &b]);
        let seq = estimate_sequential(&[&a, &b]);
        assert!(shared.energy < seq.energy);
        // Savings equal one makespan's worth of idle power.
        let expected_saving = 75.0 * 10.0;
        assert!(((seq.energy.joules() - shared.energy.joules()) - expected_saving).abs() < 1e-6);
    }

    #[test]
    fn sequential_estimate_adds_everything() {
        let (a, b) = (profile(30.0, 10.0, 150.0), profile(40.0, 5.0, 160.0));
        let e = estimate_sequential(&[&a, &b]);
        assert_eq!(e.makespan.value(), 15.0);
        assert_eq!(e.energy.joules(), 150.0 * 10.0 + 160.0 * 5.0);
    }
}
