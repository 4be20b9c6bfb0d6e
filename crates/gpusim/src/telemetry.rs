//! Telemetry: piecewise-exact integration of utilization, power and energy.
//!
//! The engine appends one [`Segment`] per piecewise-constant interval of
//! the simulation. Because rates, utilizations and power are constant
//! within a segment, time integrals (energy, average utilization, capped
//! time) are exact sums — no sampling error.
//!
//! Each sum is folded as its segment is recorded, in append order and from
//! the identity a fold over the segment list starts at, so every aggregate
//! is bit-identical to that fold and costs O(1) to read. A segment is
//! stored as its time span plus the id of its device state in an interned
//! palette: the engine interns one state per contention solve and appends
//! only `(start, end, id)` per event (DESIGN.md §9).

use mpshare_types::{Energy, Percent, Power, Seconds};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

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

    /// The segment's device state: everything but its time span.
    pub fn state(&self) -> SegmentState {
        SegmentState {
            sm_util: self.sm_util,
            bw_util: self.bw_util,
            power: self.power,
            clock_factor: self.clock_factor,
            capped: self.capped,
            active_clients: self.active_clients,
        }
    }
}

/// The device state of a [`Segment`]: everything but its time span.
#[derive(Debug, Clone, Copy)]
pub struct SegmentState {
    pub sm_util: f64,
    pub bw_util: f64,
    pub power: Power,
    pub clock_factor: f64,
    pub capped: bool,
    pub active_clients: usize,
}

impl SegmentState {
    /// Bitwise equality: `-0.0 == 0.0` would merge states that serialize
    /// differently.
    fn same_bits(&self, other: &SegmentState) -> bool {
        self.sm_util.to_bits() == other.sm_util.to_bits()
            && self.bw_util.to_bits() == other.bw_util.to_bits()
            && self.power.watts().to_bits() == other.power.watts().to_bits()
            && self.clock_factor.to_bits() == other.clock_factor.to_bits()
            && self.capped == other.capped
            && self.active_clients == other.active_clients
    }

    /// Field by field, each float in the IEEE total order.
    fn total_cmp(&self, other: &SegmentState) -> Ordering {
        self.sm_util
            .total_cmp(&other.sm_util)
            .then(self.bw_util.total_cmp(&other.bw_util))
            .then(self.power.watts().total_cmp(&other.power.watts()))
            .then(self.clock_factor.total_cmp(&other.clock_factor))
            .then(self.capped.cmp(&other.capped))
            .then(self.active_clients.cmp(&other.active_clients))
    }
}

/// A recorded segment: its time span and the palette id of its state,
/// packed to 20 bytes. One vector of spans rather than three parallel
/// columns: a fresh telemetry grows every vector it has from empty, and
/// three columns made each `record` about three times dearer (DESIGN.md
/// §9). Fields are read by value (`{ span.end }`): a reference to a
/// packed field would be unaligned.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Span {
    start: Seconds,
    end: Seconds,
    state: u32,
}

/// Running time integrals over the recorded segments.
#[derive(Debug, Clone, Copy)]
struct Totals {
    time: Seconds,
    energy: Energy,
    capped: Seconds,
    idle: Seconds,
    /// Σ sm_util·dt and Σ bw_util·dt. They start at `-0.0`, the identity
    /// an `f64` sum starts at, so an empty or all-zero integral keeps the
    /// sign such a sum gives it.
    sm: f64,
    bw: f64,
}

impl Default for Totals {
    fn default() -> Self {
        Totals {
            time: Seconds::ZERO,
            energy: Energy::ZERO,
            capped: Seconds::ZERO,
            idle: Seconds::ZERO,
            sm: -0.0,
            bw: -0.0,
        }
    }
}

/// Accumulated telemetry of one engine run.
///
/// Serializes as `{"segments": [...]}`, one full [`Segment`] per entry.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(from = "TelemetryOnDisk", into = "TelemetryOnDisk")]
pub struct Telemetry {
    spans: Vec<Span>,
    /// Interned device states the spans index.
    palette: Vec<SegmentState>,
    totals: Totals,
}

/// Serialization surrogate keeping the JSON a flat segment list.
#[derive(Serialize, Deserialize)]
struct TelemetryOnDisk {
    segments: Vec<Segment>,
}

impl From<Telemetry> for TelemetryOnDisk {
    fn from(telemetry: Telemetry) -> Self {
        TelemetryOnDisk {
            segments: telemetry.segments().collect(),
        }
    }
}

impl From<TelemetryOnDisk> for Telemetry {
    fn from(disk: TelemetryOnDisk) -> Self {
        let mut telemetry = Telemetry::with_capacity(disk.segments.len(), 0);
        for segment in disk.segments {
            telemetry.record(segment);
        }
        telemetry
    }
}

impl Telemetry {
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// An empty telemetry with room for `segments` segments over `states`
    /// distinct device states — engines recycling buffers pass the
    /// previous run's counts so a comparable run never reallocates
    /// mid-flight.
    pub fn with_capacity(segments: usize, states: usize) -> Self {
        Telemetry {
            spans: Vec::with_capacity(segments),
            palette: Vec::with_capacity(states),
            totals: Totals::default(),
        }
    }

    /// Records a segment; zero-length segments are dropped.
    pub fn record(&mut self, segment: Segment) {
        if segment.end > segment.start {
            let state = self.intern(segment.state());
            self.append(segment.start, segment.end, state);
        }
    }

    /// Interns a device state, returning its palette id. A state bitwise
    /// equal to the last one interned reuses its id.
    pub(crate) fn intern(&mut self, state: SegmentState) -> u32 {
        if !self
            .palette
            .last()
            .is_some_and(|last| last.same_bits(&state))
        {
            self.palette.push(state);
        }
        u32::try_from(self.palette.len() - 1).expect("palette ids fit in u32")
    }

    /// Records the segment `[start, end)` in the interned `state`;
    /// zero-length segments are dropped.
    pub(crate) fn push(&mut self, start: Seconds, end: Seconds, state: u32) {
        if end > start {
            self.append(start, end, state);
        }
    }

    /// Appends a positive-length segment and folds it into the totals.
    fn append(&mut self, start: Seconds, end: Seconds, state: u32) {
        debug_assert!(
            self.spans.last().is_none_or(|prev| start >= { prev.end }),
            "segments must be appended in time order"
        );
        let s = self.palette[state as usize];
        let dur = end.saturating_sub(start);
        let t = &mut self.totals;
        t.time += dur;
        t.energy += s.power * dur;
        if s.capped {
            t.capped += dur;
        }
        if s.active_clients == 0 {
            t.idle += dur;
        }
        t.sm += s.sm_util * dur.value();
        t.bw += s.bw_util * dur.value();
        self.spans.push(Span { start, end, state });
    }

    /// The recorded segments in time order.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.spans.iter().map(|&span| self.segment(span))
    }

    /// The `i`-th recorded segment.
    pub fn get(&self, i: usize) -> Option<Segment> {
        self.spans.get(i).map(|&span| self.segment(span))
    }

    fn segment(&self, span: Span) -> Segment {
        let s = &self.palette[span.state as usize];
        Segment {
            start: span.start,
            end: span.end,
            sm_util: s.sm_util,
            bw_util: s.bw_util,
            power: s.power,
            clock_factor: s.clock_factor,
            capped: s.capped,
            active_clients: s.active_clients,
        }
    }

    /// Number of recorded segments.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of distinct device states interned (at most one per
    /// contention solve, plus the initial idle state, for an engine run).
    pub fn state_count(&self) -> usize {
        self.palette.len()
    }

    /// Each interned state some segment is in, in palette order, with the
    /// time spent in it: its segments' durations summed in append order.
    pub fn time_per_state(&self) -> impl Iterator<Item = (SegmentState, Seconds)> + '_ {
        let mut times = vec![None; self.palette.len()];
        for span in &self.spans {
            let time = times[span.state as usize].get_or_insert(Seconds::ZERO);
            *time += { span.end }.saturating_sub(span.start);
        }
        self.palette
            .iter()
            .zip(times)
            .filter_map(|(&state, time)| Some((state, time?)))
    }

    /// A total order on what is stored: the segment and state counts, the
    /// spans (start, end, state id) in append order, then the palette
    /// states, each float in the IEEE total order. Telemetries that compare
    /// equal hold the same bits, so any fold over either gives the same
    /// result.
    pub fn total_cmp(&self, other: &Telemetry) -> Ordering {
        let spans = self.spans.iter().zip(&other.spans).map(|(a, b)| {
            { a.start }
                .value()
                .total_cmp(&{ b.start }.value())
                .then({ a.end }.value().total_cmp(&{ b.end }.value()))
                .then({ a.state }.cmp(&{ b.state }))
        });
        let states = (self.palette.iter().zip(&other.palette)).map(|(a, b)| a.total_cmp(b));
        self.spans
            .len()
            .cmp(&other.spans.len())
            .then(self.palette.len().cmp(&other.palette.len()))
            .then_with(|| {
                spans
                    .chain(states)
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
            })
    }

    /// Total covered wall-clock time.
    pub fn total_time(&self) -> Seconds {
        self.totals.time
    }

    /// Exact integral of power over time.
    pub fn total_energy(&self) -> Energy {
        self.totals.energy
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

    /// Exact integral of SM utilization over time, `Σ sm_util·dt`.
    pub fn sm_integral(&self) -> f64 {
        self.totals.sm
    }

    /// Exact integral of memory-bandwidth utilization over time.
    pub fn bw_integral(&self) -> f64 {
        self.totals.bw
    }

    /// Time-weighted average SM utilization.
    pub fn avg_sm_util(&self) -> Percent {
        self.time_weighted_avg(self.totals.sm)
    }

    /// Time-weighted average memory-bandwidth utilization.
    pub fn avg_bw_util(&self) -> Percent {
        self.time_weighted_avg(self.totals.bw)
    }

    /// Wall-clock time during which the SW power cap throttled the clock —
    /// the numerator of the paper's Figure 3 metric.
    pub fn capped_time(&self) -> Seconds {
        self.totals.capped
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
        self.totals.idle
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

    fn time_weighted_avg(&self, integral: f64) -> Percent {
        let total = self.total_time();
        if total == Seconds::ZERO {
            return Percent::ZERO;
        }
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
        assert_eq!(t.state_count(), 0);
        assert_eq!(t.avg_power(), Power::ZERO);
        assert_eq!(t.avg_sm_util(), Percent::ZERO);
        assert_eq!(t.capped_fraction(), 0.0);
    }

    #[test]
    fn segments_read_back_through_the_palette() {
        let mut t = sample_telemetry();
        // A repeat of the last state reuses its palette entry; a state
        // differing only in the sign of zero does not.
        t.record(seg(5.0, 6.0, 0.0, 0.0, 75.0, false, 0));
        t.record(seg(6.0, 7.0, -0.0, 0.0, 75.0, false, 0));
        assert_eq!(t.len(), 5);
        assert_eq!(t.state_count(), 4);
        assert_eq!(t.get(1), Some(seg(2.0, 3.0, 1.0, 0.8, 300.0, true, 2)));
        assert_eq!(t.get(5), None);
        let segments: Vec<Segment> = t.segments().collect();
        assert_eq!(segments.len(), 5);
        assert!(segments[4].sm_util.is_sign_negative());
        assert_eq!(segments[3], seg(5.0, 6.0, 0.0, 0.0, 75.0, false, 0));
    }

    #[test]
    fn time_per_state_sums_each_interned_state_in_palette_order() {
        let mut t = sample_telemetry();
        // Interned against the last entry only: the first state recurs
        // under a new id, and an interned state no span uses is skipped.
        t.record(seg(5.0, 5.5, 0.5, 0.2, 100.0, false, 1));
        let idle = t.intern(seg(0.0, 1.0, 0.9, 0.9, 90.0, false, 3).state());
        assert_eq!(t.state_count(), 5);
        let times: Vec<(f64, f64)> = t
            .time_per_state()
            .map(|(s, dt)| (s.sm_util, dt.value()))
            .collect();
        assert_eq!(times, vec![(0.5, 2.0), (1.0, 1.0), (0.0, 2.0), (0.5, 0.5)]);
        t.push(Seconds::new(6.0), Seconds::new(7.0), idle);
        assert_eq!(t.time_per_state().count(), 5);
    }

    #[test]
    fn total_cmp_orders_by_stored_bits() {
        let t = sample_telemetry();
        assert!(t.total_cmp(&t.clone()).is_eq());
        let mut longer = t.clone();
        longer.record(seg(5.0, 6.0, 0.0, 0.0, 75.0, false, 0));
        assert!(t.total_cmp(&longer).is_lt());
        let mut signed = Telemetry::new();
        signed.record(seg(0.0, 2.0, 0.5, 0.2, 100.0, false, 1));
        signed.record(seg(2.0, 3.0, 1.0, 0.8, 300.0, true, 2));
        signed.record(seg(3.0, 5.0, -0.0, 0.0, 75.0, false, 0));
        assert!(signed.total_cmp(&t).is_lt(), "-0.0 sorts before 0.0");
        assert_eq!(t.total_cmp(&signed), Ordering::Greater);
    }

    #[test]
    fn json_is_a_flat_segment_list_and_round_trips() {
        let t = sample_telemetry();
        let json = serde_json::to_string(&t).unwrap();
        assert!(
            json.starts_with(r#"{"segments":[{"start":0.0,"end":2.0,"#),
            "{json}"
        );
        let back: Telemetry = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(back.total_energy(), t.total_energy());
        assert_eq!(back.state_count(), t.state_count());
    }
}
