//! Physical-unit newtypes used across the simulator and scheduler.
//!
//! The arithmetic provided on each type is deliberately restricted to the
//! operations that make dimensional sense: `Power × Seconds = Energy`,
//! `Energy / Seconds = Power`, and so on. Anything else requires an explicit
//! `.value()` escape hatch, which keeps unit errors visible in review.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Simulated wall-clock time in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Seconds(f64);

impl Seconds {
    pub const ZERO: Seconds = Seconds(0.0);

    /// A time far in the future, used as the "no next event" sentinel.
    pub const INFINITY: Seconds = Seconds(f64::INFINITY);

    /// Creates a time value. Panics on negative or NaN input: simulated time
    /// never runs backwards and a NaN timestamp would poison every
    /// comparison in the event loop.
    #[track_caller]
    pub fn new(secs: f64) -> Self {
        assert!(
            secs >= 0.0 && !secs.is_nan(),
            "Seconds must be non-negative and not NaN, got {secs}"
        );
        Seconds(secs)
    }

    /// Creates a time value from milliseconds.
    #[track_caller]
    pub fn from_millis(ms: f64) -> Self {
        Seconds::new(ms / 1e3)
    }

    pub fn value(self) -> f64 {
        self.0
    }

    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    pub fn min(self, other: Seconds) -> Seconds {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    pub fn max(self, other: Seconds) -> Seconds {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction: the result is clamped at zero rather than
    /// panicking, for use in "remaining time" computations where floating
    /// point drift can produce tiny negatives.
    pub fn saturating_sub(self, other: Seconds) -> Seconds {
        Seconds((self.0 - other.0).max(0.0))
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    #[track_caller]
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds::new(self.0 - rhs.0)
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

impl Div<f64> for Seconds {
    type Output = Seconds;
    fn div(self, rhs: f64) -> Seconds {
        Seconds(self.0 / rhs)
    }
}

impl Div<Seconds> for Seconds {
    type Output = f64;
    fn div(self, rhs: Seconds) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        // `+ 0.0` normalizes the empty sum, which is -0.0 in IEEE fadd.
        Seconds(iter.map(|s| s.0).sum::<f64>() + 0.0)
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

/// Instantaneous electrical power in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Power(f64);

impl Power {
    pub const ZERO: Power = Power(0.0);

    #[track_caller]
    pub fn from_watts(watts: f64) -> Self {
        assert!(
            watts >= 0.0 && watts.is_finite(),
            "Power must be finite and non-negative, got {watts}"
        );
        Power(watts)
    }

    pub fn watts(self) -> f64 {
        self.0
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl AddAssign for Power {
    fn add_assign(&mut self, rhs: Power) {
        self.0 += rhs.0;
    }
}

impl Sub for Power {
    type Output = Power;
    #[track_caller]
    fn sub(self, rhs: Power) -> Power {
        Power::from_watts(self.0 - rhs.0)
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    fn mul(self, rhs: f64) -> Power {
        Power(self.0 * rhs)
    }
}

impl Mul<Seconds> for Power {
    type Output = Energy;
    fn mul(self, rhs: Seconds) -> Energy {
        Energy(self.0 * rhs.value())
    }
}

impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        Power(iter.map(|p| p.0).sum::<f64>() + 0.0)
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}W", self.0)
    }
}

/// Accumulated energy in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Energy(f64);

impl Energy {
    pub const ZERO: Energy = Energy(0.0);

    #[track_caller]
    pub fn from_joules(joules: f64) -> Self {
        assert!(
            joules >= 0.0 && joules.is_finite(),
            "Energy must be finite and non-negative, got {joules}"
        );
        Energy(joules)
    }

    pub fn joules(self) -> f64 {
        self.0
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    #[track_caller]
    fn sub(self, rhs: Energy) -> Energy {
        Energy::from_joules(self.0 - rhs.0)
    }
}

impl Div<Seconds> for Energy {
    type Output = Power;
    fn div(self, rhs: Seconds) -> Power {
        Power(self.0 / rhs.value())
    }
}

impl Div<Energy> for Energy {
    type Output = f64;
    fn div(self, rhs: Energy) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        Energy(iter.map(|e| e.0).sum::<f64>() + 0.0)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}J", self.0)
    }
}

/// GPU memory sizes, stored in bytes. Constructors accept MiB/GiB because
/// that is how the paper (and `nvidia-smi`) report them.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct MemBytes(u64);

impl MemBytes {
    pub const ZERO: MemBytes = MemBytes(0);

    pub fn from_mib(mib: u64) -> Self {
        MemBytes(mib * 1024 * 1024)
    }

    pub fn from_gib(gib: u64) -> Self {
        MemBytes(gib * 1024 * 1024 * 1024)
    }

    pub fn bytes(self) -> u64 {
        self.0
    }

    pub fn mib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    pub fn gib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    pub fn saturating_sub(self, other: MemBytes) -> MemBytes {
        MemBytes(self.0.saturating_sub(other.0))
    }

    /// Scales a footprint by a (non-negative) factor, rounding to bytes.
    #[track_caller]
    pub fn scale(self, factor: f64) -> MemBytes {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "scale factor must be finite and non-negative, got {factor}"
        );
        MemBytes((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for MemBytes {
    type Output = MemBytes;
    fn add(self, rhs: MemBytes) -> MemBytes {
        MemBytes(self.0 + rhs.0)
    }
}

impl AddAssign for MemBytes {
    fn add_assign(&mut self, rhs: MemBytes) {
        self.0 += rhs.0;
    }
}

impl SubAssign for MemBytes {
    #[track_caller]
    fn sub_assign(&mut self, rhs: MemBytes) {
        assert!(self.0 >= rhs.0, "MemBytes subtraction would underflow");
        self.0 -= rhs.0;
    }
}

impl Sum for MemBytes {
    fn sum<I: Iterator<Item = MemBytes>>(iter: I) -> MemBytes {
        MemBytes(iter.map(|m| m.0).sum())
    }
}

impl fmt::Display for MemBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0}MiB", self.mib())
    }
}

/// A utilization percentage in `[0, 100]`.
///
/// Used for SM utilization, memory-bandwidth utilization, and occupancy.
/// Sums of percentages (e.g. combined SM demand of co-scheduled workflows)
/// are represented as plain `f64` because they may legitimately exceed 100.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Percent(f64);

impl Percent {
    pub const ZERO: Percent = Percent(0.0);
    pub const HUNDRED: Percent = Percent(100.0);

    /// Compile-time constructor for literal percentages. No validation —
    /// use only with constants known to be in `[0, 100]`.
    pub const fn new_const(pct: f64) -> Self {
        Percent(pct)
    }

    /// Creates a percentage, panicking when outside `[0, 100]` or NaN.
    #[track_caller]
    pub fn new(pct: f64) -> Self {
        assert!(
            (0.0..=100.0).contains(&pct),
            "Percent must be within [0, 100], got {pct}"
        );
        Percent(pct)
    }

    /// Creates a percentage, clamping into `[0, 100]` (NaN becomes 0).
    pub fn clamped(pct: f64) -> Self {
        if pct.is_nan() {
            Percent(0.0)
        } else {
            Percent(pct.clamp(0.0, 100.0))
        }
    }

    /// Converts a `[0, 1]` fraction into a percentage (clamping).
    pub fn from_fraction(frac: f64) -> Self {
        Percent::clamped(frac * 100.0)
    }

    pub fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Percent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}%", self.0)
    }
}

/// A ratio in `[0, 1]`, e.g. an SM allocation share or a clock factor.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Fraction(f64);

impl Fraction {
    pub const ZERO: Fraction = Fraction(0.0);
    pub const ONE: Fraction = Fraction(1.0);

    /// Creates a fraction, panicking when outside `[0, 1]` or NaN.
    #[track_caller]
    pub fn new(frac: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&frac),
            "Fraction must be within [0, 1], got {frac}"
        );
        Fraction(frac)
    }

    /// Creates a fraction, clamping into `[0, 1]` (NaN becomes 0).
    pub fn clamped(frac: f64) -> Self {
        if frac.is_nan() {
            Fraction(0.0)
        } else {
            Fraction(frac.clamp(0.0, 1.0))
        }
    }

    pub fn value(self) -> f64 {
        self.0
    }

    pub fn max(self, other: Fraction) -> Fraction {
        Fraction(self.0.max(other.0))
    }

    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Default for Fraction {
    fn default() -> Self {
        Fraction::ZERO
    }
}

impl Mul for Fraction {
    type Output = Fraction;
    fn mul(self, rhs: Fraction) -> Fraction {
        Fraction(self.0 * rhs.0)
    }
}

impl Mul<f64> for Fraction {
    type Output = f64;
    fn mul(self, rhs: f64) -> f64 {
        self.0 * rhs
    }
}

impl Neg for Fraction {
    type Output = f64;
    fn neg(self) -> f64 {
        -self.0
    }
}

impl fmt::Display for Fraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_arithmetic_and_ordering() {
        let a = Seconds::new(1.5);
        let b = Seconds::new(0.5);
        assert_eq!((a + b).value(), 2.0);
        assert_eq!((a - b).value(), 1.0);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
        assert_eq!((a * 2.0).value(), 3.0);
        assert_eq!((a / 3.0).value(), 0.5);
        assert_eq!(a / b, 3.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn seconds_rejects_negative() {
        let _ = Seconds::new(-0.1);
    }

    #[test]
    fn seconds_saturating_sub_clamps_at_zero() {
        let a = Seconds::new(1.0);
        let b = Seconds::new(2.0);
        assert_eq!(a.saturating_sub(b), Seconds::ZERO);
        assert_eq!(b.saturating_sub(a).value(), 1.0);
    }

    #[test]
    fn seconds_sum() {
        let total: Seconds = [1.0, 2.0, 3.0].into_iter().map(Seconds::new).sum();
        assert_eq!(total.value(), 6.0);
    }

    #[test]
    fn empty_sums_are_positive_zero() {
        // IEEE fadd's identity is -0.0; the unit types must normalize it
        // so downstream ratios and formatting never see a negative zero.
        let t: Seconds = std::iter::empty().sum();
        assert!(!t.value().is_sign_negative());
        let p: Power = std::iter::empty().sum();
        assert!(!p.watts().is_sign_negative());
        let e: Energy = std::iter::empty().sum();
        assert!(!e.joules().is_sign_negative());
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = Power::from_watts(100.0) * Seconds::new(3.0);
        assert_eq!(e.joules(), 300.0);
    }

    #[test]
    fn energy_over_time_is_power() {
        let p = Energy::from_joules(300.0) / Seconds::new(3.0);
        assert_eq!(p.watts(), 100.0);
    }

    #[test]
    fn energy_ratio_is_dimensionless() {
        let ratio = Energy::from_joules(200.0) / Energy::from_joules(100.0);
        assert_eq!(ratio, 2.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn power_rejects_nan() {
        let _ = Power::from_watts(f64::NAN);
    }

    #[test]
    fn membytes_conversions_round_trip() {
        let m = MemBytes::from_mib(2048);
        assert_eq!(m.mib(), 2048.0);
        assert_eq!(m.gib(), 2.0);
        assert_eq!(MemBytes::from_gib(2), m);
    }

    #[test]
    fn membytes_scale_rounds() {
        let m = MemBytes(10);
        assert_eq!(m.scale(1.26).bytes(), 13);
        assert_eq!(m.scale(0.0), MemBytes::ZERO);
    }

    #[test]
    fn percent_clamping_behaviour() {
        assert_eq!(Percent::clamped(150.0), Percent::HUNDRED);
        assert_eq!(Percent::clamped(-3.0), Percent::ZERO);
        assert_eq!(Percent::clamped(f64::NAN), Percent::ZERO);
        assert_eq!(Percent::from_fraction(0.5).value(), 50.0);
    }

    #[test]
    #[should_panic(expected = "within [0, 100]")]
    fn percent_new_rejects_out_of_range() {
        let _ = Percent::new(100.1);
    }

    #[test]
    fn fraction_algebra() {
        let half = Fraction::new(0.5);
        let quarter = half * half;
        assert_eq!(quarter.value(), 0.25);
        assert_eq!(half * 8.0, 4.0);
    }

    #[test]
    fn serde_round_trips_are_transparent() {
        let s = Seconds::new(1.25);
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, "1.25");
        let back: Seconds = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);

        let m = MemBytes::from_mib(3);
        let json = serde_json::to_string(&m).unwrap();
        let back: MemBytes = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
