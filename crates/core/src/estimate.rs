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

use crate::wprofile::WorkflowProfile;
use mpshare_gpusim::DeviceSpec;
use mpshare_types::{Energy, Seconds};
use serde::{Deserialize, Serialize};

/// Predicted outcome of running one collocation group under MPS.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupEstimate {
    pub makespan: Seconds,
    pub energy: Energy,
    pub tasks: usize,
}

/// Estimates a group's makespan and energy under MPS collocation, from the
/// profiles alone.
///
/// The estimate charges no per-co-runner sharing overhead, while the
/// executor's runs do ([`crate::executor::DEFAULT_MPS_OVERHEAD`]), so
/// estimated and simulated makespans differ by that factor on top of the
/// contention model's error.
pub fn estimate_group(device: &DeviceSpec, group: &[&WorkflowProfile]) -> GroupEstimate {
    if group.is_empty() {
        return GroupEstimate {
            makespan: Seconds::ZERO,
            energy: Energy::ZERO,
            tasks: 0,
        };
    }
    let sm_sum: f64 = group.iter().map(|p| p.avg_sm_util.value()).sum();
    let bw_sum: f64 = group.iter().map(|p| p.avg_bw_util.value()).sum();
    let stretch = (sm_sum / 100.0).max(bw_sum / 100.0).max(1.0);

    let makespan = group
        .iter()
        .map(|p| p.duration.value() * stretch)
        .fold(0.0, f64::max);
    let dynamic: f64 = group
        .iter()
        .map(|p| p.dynamic_energy(device.idle_power).joules())
        .sum();
    let energy = device.idle_power.watts() * makespan + dynamic;

    GroupEstimate {
        makespan: Seconds::new(makespan),
        energy: Energy::from_joules(energy),
        tasks: group.iter().map(|p| p.task_count).sum(),
    }
}

/// Estimates the sequential baseline for the same workflows: durations and
/// energies simply add.
pub fn estimate_sequential(group: &[&WorkflowProfile]) -> GroupEstimate {
    GroupEstimate {
        makespan: Seconds::new(group.iter().map(|p| p.duration.value()).sum()),
        energy: Energy::from_joules(group.iter().map(|p| p.energy.joules()).sum()),
        tasks: group.iter().map(|p| p.task_count).sum(),
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
        assert_eq!(e.tasks, 0);
    }

    #[test]
    fn non_interfering_group_runs_at_longest_workflow() {
        let (a, b) = (profile(30.0, 10.0, 150.0), profile(40.0, 6.0, 160.0));
        let e = estimate_group(&dev(), &[&a, &b]);
        assert!((e.makespan.value() - 10.0).abs() < 1e-9);
        assert_eq!(e.tasks, 4);
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
