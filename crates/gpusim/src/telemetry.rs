//! Telemetry: piecewise-exact integration of utilization, power and energy.
//!
//! The engine appends one [`Segment`] per piecewise-constant interval of
//! the simulation. Because rates, utilizations and power are constant
//! within a segment, time integrals (energy, average utilization, capped
//! time) are exact sums — no sampling error.

use mpshare_types::{Energy, Percent, Power, Seconds};
use serde::{Deserialize, Serialize};

/// One piecewise-constant interval of GPU state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Segment start time.
    pub start: Seconds,
    /// Segment end time (`> start` except for degenerate zero-length
    /// segments, which the recorder drops).
    pub end: Seconds,
    /// Device SM-throughput utilization in `[0, 1]`.
    pub sm_util: f64,
    /// Device memory-bandwidth utilization in `[0, 1]`.
    pub bw_util: f64,
    /// Board power draw.
    pub power: Power,
    /// Clock factor (1.0 = nominal; < 1 = SW power cap active).
    pub clock_factor: f64,
    /// Whether the SW power cap throttled this segment.
    pub capped: bool,
    /// Number of clients with a kernel resident on the GPU.
    pub active_clients: usize,
}

impl Segment {
    pub fn duration(&self) -> Seconds {
        self.end.saturating_sub(self.start)
    }

    pub fn energy(&self) -> Energy {
        self.power * self.duration()
    }
}

/// Accumulated telemetry of one engine run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Telemetry {
    segments: Vec<Segment>,
}

impl Telemetry {
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// An empty telemetry with room for `capacity` segments — engines
    /// recycling buffers pass the previous run's segment count so a
    /// comparable run never reallocates mid-flight.
    pub fn with_capacity(capacity: usize) -> Self {
        Telemetry {
            segments: Vec::with_capacity(capacity),
        }
    }

    /// Records a segment; zero-length segments are dropped.
    pub fn record(&mut self, segment: Segment) {
        if segment.end > segment.start {
            debug_assert!(
                self.segments
                    .last()
                    .is_none_or(|prev| segment.start >= prev.end),
                "segments must be appended in time order"
            );
            self.segments.push(segment);
        }
    }

    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total covered wall-clock time.
    pub fn total_time(&self) -> Seconds {
        self.segments.iter().map(|s| s.duration()).sum()
    }

    /// Exact integral of power over time.
    pub fn total_energy(&self) -> Energy {
        self.segments.iter().map(|s| s.energy()).sum()
    }

    /// Time-weighted average power (zero if no time has passed).
    pub fn avg_power(&self) -> Power {
        let t = self.total_time();
        if t == Seconds::ZERO {
            Power::ZERO
        } else {
            self.total_energy() / t
        }
    }

    /// Time-weighted average SM utilization.
    pub fn avg_sm_util(&self) -> Percent {
        self.time_weighted_avg(|s| s.sm_util)
    }

    /// Time-weighted average memory-bandwidth utilization.
    pub fn avg_bw_util(&self) -> Percent {
        self.time_weighted_avg(|s| s.bw_util)
    }

    /// Wall-clock time during which the SW power cap throttled the clock —
    /// the numerator of the paper's Figure 3 metric.
    pub fn capped_time(&self) -> Seconds {
        self.segments
            .iter()
            .filter(|s| s.capped)
            .map(|s| s.duration())
            .sum()
    }

    /// Fraction of time spent power-capped.
    pub fn capped_fraction(&self) -> f64 {
        let total = self.total_time();
        if total == Seconds::ZERO {
            0.0
        } else {
            self.capped_time() / total
        }
    }

    /// Wall-clock time during which no kernel was resident (GPU idle).
    pub fn idle_time(&self) -> Seconds {
        self.segments
            .iter()
            .filter(|s| s.active_clients == 0)
            .map(|s| s.duration())
            .sum()
    }

    /// GPU-busy fraction (any kernel resident).
    pub fn busy_fraction(&self) -> f64 {
        let total = self.total_time();
        if total == Seconds::ZERO {
            0.0
        } else {
            1.0 - self.idle_time() / total
        }
    }

    fn time_weighted_avg(&self, f: impl Fn(&Segment) -> f64) -> Percent {
        let total = self.total_time();
        if total == Seconds::ZERO {
            return Percent::ZERO;
        }
        let integral: f64 = self
            .segments
            .iter()
            .map(|s| f(s) * s.duration().value())
            .sum();
        Percent::clamped(integral / total.value() * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(start: f64, end: f64, sm: f64, bw: f64, power: f64, capped: bool, n: usize) -> Segment {
        Segment {
            start: Seconds::new(start),
            end: Seconds::new(end),
            sm_util: sm,
            bw_util: bw,
            power: Power::from_watts(power),
            clock_factor: if capped { 0.8 } else { 1.0 },
            capped,
            active_clients: n,
        }
    }

    fn sample_telemetry() -> Telemetry {
        let mut t = Telemetry::new();
        t.record(seg(0.0, 2.0, 0.5, 0.2, 100.0, false, 1));
        t.record(seg(2.0, 3.0, 1.0, 0.8, 300.0, true, 2));
        t.record(seg(3.0, 5.0, 0.0, 0.0, 75.0, false, 0));
        t
    }

    #[test]
    fn totals_integrate_exactly() {
        let t = sample_telemetry();
        assert_eq!(t.total_time().value(), 5.0);
        assert_eq!(t.total_energy().joules(), 200.0 + 300.0 + 150.0);
        assert_eq!(t.avg_power().watts(), 650.0 / 5.0);
    }

    #[test]
    fn averages_are_time_weighted() {
        let t = sample_telemetry();
        // (0.5*2 + 1.0*1 + 0*2) / 5 = 0.4 -> 40%
        assert!((t.avg_sm_util().value() - 40.0).abs() < 1e-9);
        // (0.2*2 + 0.8*1) / 5 = 0.24 -> 24%
        assert!((t.avg_bw_util().value() - 24.0).abs() < 1e-9);
    }

    #[test]
    fn capped_and_idle_accounting() {
        let t = sample_telemetry();
        assert_eq!(t.capped_time().value(), 1.0);
        assert!((t.capped_fraction() - 0.2).abs() < 1e-12);
        assert_eq!(t.idle_time().value(), 2.0);
        assert!((t.busy_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn zero_length_segments_are_dropped() {
        let mut t = Telemetry::new();
        t.record(seg(1.0, 1.0, 0.5, 0.5, 100.0, false, 1));
        assert!(t.is_empty());
        assert_eq!(t.avg_power(), Power::ZERO);
        assert_eq!(t.avg_sm_util(), Percent::ZERO);
        assert_eq!(t.capped_fraction(), 0.0);
    }
}
