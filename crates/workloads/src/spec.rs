//! Benchmark specifications: identity, anchors, and scaling laws.
//!
//! Each benchmark carries *anchor profiles* at the paper's measured
//! problem sizes (1× always, 4× where Table II reports one) and derives
//! profiles at other sizes (2×, 8×, …) by fitting power laws between the
//! anchors — the paper's §IV-A observation that "scaling is well-understood
//! for a vast majority of HPC codes" and larger sizes can be inferred from
//! smaller profiles.

use mpshare_types::{Energy, MemBytes, Percent, Power, Seconds};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The seven benchmarks of the paper's evaluation (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BenchmarkKind {
    /// Astrophysical fluid dynamics (Athena++ solvers on Parthenon/Kokkos).
    AthenaPk,
    /// BerkeleyGW Epsilon module: dielectric-function computation.
    BerkeleyGwEpsilon,
    /// Cholla gravitational-collapse test problem.
    ChollaGravity,
    /// Cholla magnetohydrodynamics (advecting field loop).
    ChollaMhd,
    /// LLNL neutral-particle-transport proxy app.
    Kripke,
    /// Molecular dynamics (the ParSplice workhorse).
    Lammps,
    /// Electromagnetic particle-in-cell (PWFA test problem).
    WarpX,
}

impl BenchmarkKind {
    pub const ALL: [BenchmarkKind; 7] = [
        BenchmarkKind::AthenaPk,
        BenchmarkKind::BerkeleyGwEpsilon,
        BenchmarkKind::ChollaGravity,
        BenchmarkKind::ChollaMhd,
        BenchmarkKind::Kripke,
        BenchmarkKind::Lammps,
        BenchmarkKind::WarpX,
    ];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkKind::AthenaPk => "AthenaPK",
            BenchmarkKind::BerkeleyGwEpsilon => "BerkeleyGW-Epsilon",
            BenchmarkKind::ChollaGravity => "Cholla-Gravity",
            BenchmarkKind::ChollaMhd => "Cholla-MHD",
            BenchmarkKind::Kripke => "Kripke",
            BenchmarkKind::Lammps => "LAMMPS",
            BenchmarkKind::WarpX => "WarpX",
        }
    }
}

impl fmt::Display for BenchmarkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A problem-size multiplier (the paper's 1x/2x/4x/8x notation).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ProblemSize(f64);

impl ProblemSize {
    pub const X1: ProblemSize = ProblemSize(1.0);
    pub const X2: ProblemSize = ProblemSize(2.0);
    pub const X4: ProblemSize = ProblemSize(4.0);
    pub const X8: ProblemSize = ProblemSize(8.0);
    /// The largest size the profile store can tell apart: it keys sizes
    /// by [`ProblemSize::centis`], a `u32`.
    pub const MAX: ProblemSize = ProblemSize(u32::MAX as f64 / 100.0);

    #[track_caller]
    pub fn new(factor: f64) -> Self {
        assert!(
            Self::is_valid_factor(factor),
            "problem size factor must be ≥ 1 and ≤ {}, got {factor}",
            Self::MAX.0
        );
        ProblemSize(factor)
    }

    /// Whether `factor` is a size the pipeline accepts: finite and in
    /// `[1, MAX]`.
    pub fn is_valid_factor(factor: f64) -> bool {
        (1.0..=Self::MAX.0).contains(&factor)
    }

    pub fn factor(self) -> f64 {
        self.0
    }

    /// The factor in hundredths, rounded: the profile store's size key.
    /// It does not saturate for any factor up to [`ProblemSize::MAX`].
    pub fn centis(self) -> u32 {
        (self.0 * 100.0).round() as u32
    }
}

impl fmt::Display for ProblemSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if (self.0 - self.0.round()).abs() < 1e-9 {
            write!(f, "{}x", self.0.round() as i64)
        } else {
            write!(f, "{:.2}x", self.0)
        }
    }
}

/// One row of the paper's Table II: a solo utilization/power profile at a
/// fixed problem size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnchorProfile {
    pub size: ProblemSize,
    /// Maximum resident device memory.
    pub max_memory: MemBytes,
    /// Average memory-bandwidth utilization over the whole task.
    pub avg_bw_util: Percent,
    /// Average SM utilization over the whole task.
    pub avg_sm_util: Percent,
    /// Average board power over the whole task.
    pub avg_power: Power,
    /// Total GPU energy of one task.
    pub energy: Energy,
    /// Fraction of wall-clock time with kernels resident (GPU busy). Not in
    /// Table II directly; chosen per benchmark from the workload's
    /// character (bursty AMR vs. streaming stencil) and exposed so the
    /// calibration tests can check the decomposition stays consistent.
    pub duty_cycle: f64,
}

impl AnchorProfile {
    /// Task wall-clock duration implied by the anchor: energy / power.
    pub fn duration(&self) -> Seconds {
        Seconds::new(self.energy.joules() / self.avg_power.watts())
    }

    /// SM utilization *while kernels run* (the average divided by the duty
    /// cycle), capped at 100 %.
    pub fn active_sm_util(&self) -> f64 {
        (self.avg_sm_util.value() / 100.0 / self.duty_cycle).min(1.0)
    }

    /// Bandwidth utilization while kernels run.
    pub fn active_bw_util(&self) -> f64 {
        (self.avg_bw_util.value() / 100.0 / self.duty_cycle).min(1.0)
    }
}

/// One row of the paper's Table I: occupancy targets at 1×.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OccupancyTargets {
    pub achieved: Percent,
    pub theoretical: Percent,
}

impl OccupancyTargets {
    /// "% of theoretical achieved" — the paper's third column.
    pub fn achieved_ratio(&self) -> f64 {
        self.achieved.value() / self.theoretical.value()
    }
}

/// Power-law interpolation between two anchor points `(x1, y1)`, `(x2, y2)`
/// evaluated at `x`: `y = y1 · (x/x1)^β` with `β = ln(y2/y1)/ln(x2/x1)`.
/// Falls back to a constant when either anchor value is ~zero.
pub fn power_law(x1: f64, y1: f64, x2: f64, y2: f64, x: f64) -> f64 {
    if y1 <= 1e-12 || y2 <= 1e-12 || (x2 - x1).abs() < 1e-12 {
        // Degenerate anchors: interpolate linearly instead.
        if (x2 - x1).abs() < 1e-12 {
            return y1;
        }
        return y1 + (y2 - y1) * (x - x1) / (x2 - x1);
    }
    let beta = (y2 / y1).ln() / (x2 / x1).ln();
    y1 * (x / x1).powf(beta)
}

/// Linear interpolation in `ln(x)` between two anchors — used for bounded
/// quantities like duty cycles and power scales where a power law would
/// extrapolate wildly.
pub fn log_lerp(x1: f64, y1: f64, x2: f64, y2: f64, x: f64) -> f64 {
    if (x2 - x1).abs() < 1e-12 {
        return y1;
    }
    let t = (x.ln() - x1.ln()) / (x2.ln() - x1.ln());
    y1 + (y2 - y1) * t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_names_match_paper() {
        assert_eq!(BenchmarkKind::AthenaPk.name(), "AthenaPK");
        assert_eq!(
            BenchmarkKind::BerkeleyGwEpsilon.to_string(),
            "BerkeleyGW-Epsilon"
        );
        assert_eq!(BenchmarkKind::ALL.len(), 7);
    }

    #[test]
    fn problem_size_displays_like_paper_notation() {
        assert_eq!(ProblemSize::X1.to_string(), "1x");
        assert_eq!(ProblemSize::X4.to_string(), "4x");
        assert_eq!(ProblemSize::new(2.5).to_string(), "2.50x");
    }

    #[test]
    #[should_panic(expected = "must be ≥ 1")]
    fn problem_size_rejects_sub_unity() {
        let _ = ProblemSize::new(0.5);
    }

    #[test]
    fn anchor_duration_is_energy_over_power() {
        let a = AnchorProfile {
            size: ProblemSize::X1,
            max_memory: MemBytes::from_mib(100),
            avg_bw_util: Percent::new(2.0),
            avg_sm_util: Percent::new(20.0),
            avg_power: Power::from_watts(100.0),
            energy: Energy::from_joules(500.0),
            duty_cycle: 0.5,
        };
        assert_eq!(a.duration().value(), 5.0);
        assert!((a.active_sm_util() - 0.4).abs() < 1e-12);
        assert!((a.active_bw_util() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn active_utils_cap_at_one() {
        let a = AnchorProfile {
            size: ProblemSize::X1,
            max_memory: MemBytes::ZERO,
            avg_bw_util: Percent::new(90.0),
            avg_sm_util: Percent::new(95.0),
            avg_power: Power::from_watts(100.0),
            energy: Energy::from_joules(100.0),
            duty_cycle: 0.9,
        };
        assert_eq!(a.active_sm_util(), 1.0);
    }

    #[test]
    fn occupancy_ratio_matches_paper_column() {
        let t = OccupancyTargets {
            achieved: Percent::new(23.97),
            theoretical: Percent::new(41.67),
        };
        assert!((t.achieved_ratio() - 0.5752).abs() < 1e-3);
    }

    #[test]
    fn power_law_hits_both_anchors() {
        let f = |x| power_law(1.0, 10.0, 4.0, 40.0, x);
        assert!((f(1.0) - 10.0).abs() < 1e-9);
        assert!((f(4.0) - 40.0).abs() < 1e-9);
        assert!((f(2.0) - 20.0).abs() < 1e-9); // linear case β = 1
    }

    #[test]
    fn power_law_superlinear_growth() {
        // y ∝ x²: anchors (1, 1), (4, 16).
        let f = |x| power_law(1.0, 1.0, 4.0, 16.0, x);
        assert!((f(2.0) - 4.0).abs() < 1e-9);
        assert!((f(8.0) - 64.0).abs() < 1e-6);
    }

    #[test]
    fn power_law_degenerates_safely() {
        assert_eq!(power_law(1.0, 0.0, 4.0, 8.0, 2.0), 0.0 + 8.0 * (1.0 / 3.0));
        assert_eq!(power_law(1.0, 5.0, 1.0, 9.0, 3.0), 5.0);
    }

    #[test]
    fn log_lerp_hits_anchors_and_midpoint() {
        let f = |x| log_lerp(1.0, 0.4, 4.0, 0.8, x);
        assert!((f(1.0) - 0.4).abs() < 1e-12);
        assert!((f(4.0) - 0.8).abs() < 1e-12);
        assert!((f(2.0) - 0.6).abs() < 1e-12); // ln-midpoint of 1 and 4
    }
}
