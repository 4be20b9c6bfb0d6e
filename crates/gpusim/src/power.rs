//! Board power model and software power capping (DVFS).
//!
//! Power is modeled as `P = P_idle + Σ_k dyn_k`, where each resident
//! kernel's dynamic contribution is linear in its consumed SM-throughput
//! and bandwidth shares (coefficients fitted to the paper's Table II; see
//! [`crate::device::DeviceSpec::a100x`]).
//!
//! **Software power capping** (paper §V-C): when the uncapped draw exceeds
//! the device's cap (300 W on the A100X), the SW power-scaling algorithm
//! reduces the clock below nominal. Dynamic power is proportional to
//! progress rate in this model and progress rate is proportional to clock,
//! so the throttle factor has the closed form
//! `c = (cap − idle) / dynamic_uncapped`, clamped to `(0, 1]`.
//! The engine multiplies every kernel's rate by `c` and accounts the
//! wall-clock time during which `c < 1` — the quantity plotted in the
//! paper's Figure 3.

use crate::device::DeviceSpec;
use mpshare_types::Power;
use serde::{Deserialize, Serialize};

/// Resolved power state for one piecewise-constant segment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerState {
    /// Actual board draw after capping.
    pub power: Power,
    /// Clock factor in `(0, 1]`; `< 1` means the SW cap is active.
    pub clock_factor: f64,
    /// Whether the SW power cap throttled the clock in this segment.
    pub capped: bool,
}

/// Stateless power model bound to a device spec.
#[derive(Debug, Clone)]
pub struct PowerModel {
    idle: Power,
    cap: Power,
    mps_peak_factor: f64,
}

impl PowerModel {
    pub fn new(device: &DeviceSpec) -> Self {
        PowerModel {
            idle: device.idle_power,
            cap: device.power_cap,
            mps_peak_factor: device.mps_peak_power_factor,
        }
    }

    /// Resolves the power state given the total *uncapped* dynamic draw of
    /// all resident kernels (as computed by the contention solver at their
    /// nominal-clock rates) and the number of resident clients.
    ///
    /// With a single client, peaks track the average and capping engages
    /// when `idle + dyn > cap`. With two or more MPS clients, interleaved
    /// instruction mixes produce transient peaks `peak_factor × dyn` above
    /// idle, and the SW power-scaling algorithm reacts to the peaks — so
    /// capping engages earlier, and the *average* draw of a capped segment
    /// sits below the cap by the peak margin.
    pub fn resolve(&self, dyn_uncapped_watts: f64, resident_clients: usize) -> PowerState {
        debug_assert!(
            dyn_uncapped_watts >= 0.0 && dyn_uncapped_watts.is_finite(),
            "dynamic power must be finite and non-negative, got {dyn_uncapped_watts}"
        );
        let kappa = if resident_clients >= 2 {
            self.mps_peak_factor
        } else {
            1.0
        };
        let peak = self.idle.watts() + kappa * dyn_uncapped_watts;
        if peak <= self.cap.watts() || dyn_uncapped_watts == 0.0 {
            PowerState {
                power: Power::from_watts(self.idle.watts() + dyn_uncapped_watts),
                clock_factor: 1.0,
                capped: false,
            }
        } else {
            let headroom = (self.cap.watts() - self.idle.watts()).max(0.0);
            let clock_factor = (headroom / (kappa * dyn_uncapped_watts)).clamp(0.0, 1.0);
            PowerState {
                // Rate ∝ clock, so average dynamic draw is
                // clock_factor × dyn; the *peaks* sit exactly at the cap.
                power: Power::from_watts(self.idle.watts() + clock_factor * dyn_uncapped_watts),
                clock_factor,
                capped: true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel::new(&DeviceSpec::a100x())
    }

    #[test]
    fn idle_gpu_draws_idle_power() {
        let s = model().resolve(0.0, 0);
        assert_eq!(s.power.watts(), 75.0);
        assert_eq!(s.clock_factor, 1.0);
        assert!(!s.capped);
    }

    #[test]
    fn below_cap_no_throttling() {
        let s = model().resolve(200.0, 1); // 75 + 200 = 275 < 300
        assert_eq!(s.power.watts(), 275.0);
        assert_eq!(s.clock_factor, 1.0);
        assert!(!s.capped);
    }

    #[test]
    fn at_cap_boundary_no_throttling() {
        let s = model().resolve(225.0, 1); // exactly 300
        assert_eq!(s.power.watts(), 300.0);
        assert!(!s.capped);
    }

    #[test]
    fn above_cap_throttles_to_exactly_cap() {
        let s = model().resolve(450.0, 1); // would be 525 W
        assert_eq!(s.power.watts(), 300.0);
        assert!(s.capped);
        assert!((s.clock_factor - 225.0 / 450.0).abs() < 1e-12);
    }

    #[test]
    fn deeper_oversubscription_throttles_harder() {
        let a = model().resolve(300.0, 1);
        let b = model().resolve(600.0, 1);
        assert!(b.clock_factor < a.clock_factor);
        assert_eq!(a.power, b.power);
    }

    #[test]
    fn capped_dynamic_power_equals_headroom() {
        // Rate ∝ clock, so actual dynamic draw is clock_factor × uncapped;
        // verify the invariant that it equals cap − idle when capped solo.
        let dyn_uncapped = 500.0;
        let s = model().resolve(dyn_uncapped, 1);
        let actual_dyn = s.clock_factor * dyn_uncapped;
        assert!((actual_dyn - 225.0).abs() < 1e-9);
    }

    #[test]
    fn mps_peaks_trigger_capping_below_the_average_cap() {
        // 200 W dynamic: solo average is 275 W (no capping), but with two
        // clients the 1.18x peaks reach 311 W and the cap engages.
        let solo = model().resolve(200.0, 1);
        assert!(!solo.capped);
        let shared = model().resolve(200.0, 2);
        assert!(shared.capped);
        assert!(shared.clock_factor < 1.0);
        // Average power of a capped shared segment sits below the cap by
        // the peak margin.
        assert!(shared.power.watts() < 300.0);
        // The peaks sit exactly at the cap.
        let peak = 75.0 + 1.18 * shared.clock_factor * 200.0;
        assert!((peak - 300.0).abs() < 1e-9, "peak {peak}");
    }

    #[test]
    fn single_client_unaffected_by_peak_factor() {
        let a = model().resolve(220.0, 1);
        assert!(!a.capped);
        assert_eq!(a.power.watts(), 295.0);
    }
}
