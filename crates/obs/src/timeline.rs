//! Deterministic timeline metrics: simulated-time series, exact
//! quantiles, and utilization CDFs.
//!
//! The counters and fixed-bucket histograms in [`crate::metrics`](mod@crate::metrics) answer
//! "how much, in total"; this layer answers the time-resolved questions
//! the paper's interference argument (§IV) is built on — what did
//! utilization look like *over time*, what is the exact p99/p999
//! turnaround, how much capacity was stranded. Three building blocks:
//!
//! * [`RunTable`] — one entry per recorded engine run: its mechanism,
//!   makespan and [`Telemetry`]. The device series (`device.*`,
//!   `occupancy.{mode}`) are folds over it: covered time and integrals
//!   from each telemetry's running totals, stranded capacity from one pass
//!   per run, a CDF from the time spent in each interned device state.
//! * [`TimeSeries`] — span samples `(t, dur, v)` against **simulated**
//!   time, for the small per-client series and the scheduler's points.
//!   The state is piecewise-constant, so integrals and CDFs are *exact*
//!   sums; point samples (`dur == 0`) hold instantaneous observations.
//! * [`QuantileTrack`] — *exact* quantiles: every observation is kept and
//!   sorted-merge-consolidated on demand, so `p50/p90/p99/p999` are true
//!   order statistics, bit-identical to a naive sort of the same
//!   observations (pinned by property tests in `tests/observability.rs`).
//!
//! # Determinism rules
//!
//! Everything here must be a pure function of the *multiset* of
//! observations: worker count and insertion order must not matter. Runs
//! are folded in **content order** — mode, then makespan, then the
//! telemetry's bits ([`Telemetry::total_cmp`]) — so any multiset of runs
//! sums in one order, serial and parallel alike. Series samples are
//! canonically sorted by `(t, dur, v)` before any read, and quantile
//! tracks keep a sorted multiset. So serial and parallel runs export
//! byte-identical JSON (the trace-smoke gate `cmp`s a serial against a
//! parallel timeline artifact), and the report built from the store is
//! byte-identical too (`make golden`).
//!
//! # Cost and the alloc-gate
//!
//! Nothing in this module is on an engine hot path. Instrumentation sites
//! (the runner, the online scheduler) feed the store *after* a run from
//! the immutable [`RunResult`](mpshare_gpusim::RunResult), behind
//! [`crate::enabled()`]; buffers live in the recorder-side
//! [`TimelineStore`], never in `EngineScratch`, so the zero-alloc
//! steady-state contract (`make alloc-gate`) is untouched. All buffers are
//! capacity-capped with dropped-sample accounting, like the recorder's
//! shards.
//!
//! Recording a run copies its 20-byte telemetry spans and state palette.
//! Reads sort the runs, never the samples (a CDF sorts only the distinct
//! values); the samples are expanded from the runs only for the export.

use crate::metrics::upsert;
use mpshare_gpusim::{SegmentState, Telemetry};
use serde_json::Value;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

/// Canonical series and quantile-track names. Instrumentation sites, the
/// report renderer, and `validate-obs` share these so they cannot drift.
pub mod series {
    /// Device SM-throughput utilization in `[0, 1]`, one span per segment
    /// of every run in the [`RunTable`](super::RunTable), like [`occupancy`].
    pub const DEVICE_SM_UTIL: &str = "device.sm_util";
    /// Device memory-bandwidth utilization in `[0, 1]`.
    pub const DEVICE_BW_UTIL: &str = "device.bw_util";
    /// Board power draw in watts.
    pub const DEVICE_POWER_W: &str = "device.power_w";
    /// Online-scheduler pending-queue depth at each dispatch (points).
    pub const SCHED_QUEUE_DEPTH: &str = "sched.queue_depth";
    /// Queue-wait seconds per workflow, observed at first dispatch.
    pub const SCHED_QUEUE_WAIT: &str = "sched.queue_wait_s";
    /// Turnaround seconds per completed workflow (completion − arrival).
    pub const SCHED_TURNAROUND: &str = "sched.turnaround_s";
    /// Turnaround seconds per completed client, across all mechanisms.
    pub const CLIENT_TURNAROUND: &str = "client.turnaround_s";

    /// Per-mechanism occupancy series (`occupancy.mps`, …): the device
    /// SM utilization of every run executed under that mechanism.
    pub fn occupancy(mechanism: &str) -> String {
        format!("occupancy.{mechanism}")
    }

    /// Per-mechanism turnaround quantile track (`turnaround.mps_s`, …).
    pub fn mechanism_turnaround(mechanism: &str) -> String {
        format!("turnaround.{mechanism}_s")
    }

    /// Per-client-label series (`client.<label>.resident`, `.sm_share`,
    /// `.dyn_power_w`). Labels recur across runs of the same workload
    /// class; their spans accumulate into one per-class distribution.
    pub fn client(label: &str, metric: &str) -> String {
        format!("client.{label}.{metric}")
    }
}

/// One sample: a value `v` holding from `t` for `dur` simulated seconds
/// (`dur == 0` marks an instantaneous point observation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub t: f64,
    pub dur: f64,
    pub v: f64,
}

/// The canonical `(t, dur, v)` order, each field in the IEEE total order.
/// Later fields are compared only on ties, so most comparisons read `t`
/// alone.
fn canonical(a: &Sample, b: &Sample) -> Ordering {
    a.t.total_cmp(&b.t)
        .then_with(|| a.dur.total_cmp(&b.dur))
        .then_with(|| a.v.total_cmp(&b.v))
}

/// The CDF steps of `(value, weight)` pairs sorted by value: for each
/// distinct value, the fraction of the total weight at a value `<=` it.
/// Equal values (`-0.0 == 0.0` included) collapse to one step. Empty when
/// the weights sum to nothing.
fn cdf_steps(weighted: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    let total: f64 = weighted.iter().map(|(_, w)| w).sum();
    if total <= 0.0 {
        return Vec::new();
    }
    let mut out: Vec<(f64, f64)> = Vec::new();
    let mut acc = 0.0;
    for (v, w) in weighted {
        acc += w;
        match out.last_mut() {
            Some(last) if last.0 == v => last.1 = acc / total,
            _ => out.push((v, acc / total)),
        }
    }
    out
}

/// Per-series sample cap, and the run table's segment cap: bounds store
/// memory like the recorder's shard capacity (what lands past the cap is
/// counted and dropped).
const SERIES_CAPACITY: usize = 1 << 18;

/// A series of values against simulated time. Observation order is
/// irrelevant: samples are canonically sorted by `(t, dur, v)` before any
/// read, so every derived quantity is a pure function of the sample
/// multiset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    samples: Vec<Sample>,
    /// True while `samples` is known to be canonically sorted.
    sorted: bool,
    dropped: u64,
}

impl TimeSeries {
    pub fn new() -> Self {
        TimeSeries {
            samples: Vec::new(),
            sorted: true,
            dropped: 0,
        }
    }

    /// Records `v` holding from `t` for `dur` seconds (`dur == 0` for an
    /// instantaneous observation). Rejects non-finite fields and negative
    /// durations, counted in [`TimeSeries::dropped`] (the same poisoning
    /// guard as `Histogram::observe`).
    pub fn push_span(&mut self, t: f64, dur: f64, v: f64) {
        if !t.is_finite() || !dur.is_finite() || !v.is_finite() || dur < 0.0 {
            self.dropped += 1;
            return;
        }
        if self.samples.len() >= SERIES_CAPACITY {
            self.dropped += 1;
            return;
        }
        let sample = Sample { t, dur, v };
        if let Some(last) = self.samples.last() {
            if canonical(last, &sample).is_gt() {
                self.sorted = false;
            }
        }
        self.samples.push(sample);
    }

    fn finalize(&mut self) {
        if !self.sorted {
            self.samples.sort_by(canonical);
            self.sorted = true;
        }
    }

    /// The samples in canonical `(t, dur, v)` order.
    pub fn samples(&mut self) -> &[Sample] {
        self.finalize();
        &self.samples
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Observations rejected (non-finite / negative duration) or past the
    /// capacity cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total covered time `Σ dur` (point samples contribute nothing).
    pub fn covered(&mut self) -> f64 {
        self.samples().iter().map(|s| s.dur).sum()
    }

    /// Exact time integral `Σ v·dur`.
    pub fn integral(&mut self) -> f64 {
        self.samples().iter().map(|s| s.v * s.dur).sum()
    }

    /// Time-weighted cumulative distribution of the series value: for
    /// each distinct value `v` (ascending), the fraction of covered time
    /// spent at a value `<= v`. Exact, because samples are
    /// piecewise-constant. Point-only series fall back to equal weights
    /// per sample. Empty for an empty series.
    pub fn cdf(&mut self) -> Vec<(f64, f64)> {
        let covered = self.covered();
        let mut weighted: Vec<(f64, f64)> = self
            .samples
            .iter()
            .map(|s| (s.v, if covered > 0.0 { s.dur } else { 1.0 }))
            .collect();
        weighted.sort_by(|a, b| a.0.total_cmp(&b.0));
        cdf_steps(weighted)
    }
}

/// A device quantity every recorded run's telemetry carries: what one
/// run-backed series measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// SM-throughput utilization in `[0, 1]`.
    SmUtil,
    /// Memory-bandwidth utilization in `[0, 1]`.
    BwUtil,
    /// Board power draw in watts.
    PowerW,
}

impl Gauge {
    fn of(self, state: &SegmentState) -> f64 {
        match self {
            Gauge::SmUtil => state.sm_util,
            Gauge::BwUtil => state.bw_util,
            Gauge::PowerW => state.power.watts(),
        }
    }

    /// `Σ v·dt` over one run, as its telemetry folded it while recording.
    fn integral(self, telemetry: &Telemetry) -> f64 {
        match self {
            Gauge::SmUtil => telemetry.sm_integral(),
            Gauge::BwUtil => telemetry.bw_integral(),
            Gauge::PowerW => telemetry.total_energy().joules(),
        }
    }
}

/// One recorded engine run.
#[derive(Debug)]
struct Run {
    mode: &'static str,
    makespan: f64,
    telemetry: Telemetry,
}

/// The content order: mode, then makespan, then the telemetry's bits.
/// Runs equal under it are bitwise the same, so the order in which any
/// multiset of runs is folded is fixed.
fn content_order(a: &Run, b: &Run) -> Ordering {
    a.mode
        .cmp(b.mode)
        .then(a.makespan.total_cmp(&b.makespan))
        .then_with(|| a.telemetry.total_cmp(&b.telemetry))
}

/// The recorded engine runs, from which the device series are folded.
/// Every fold visits the runs in content order, so its result is a pure
/// function of the run multiset.
#[derive(Debug, Default)]
pub struct RunTable {
    runs: Vec<Run>,
    /// Segments held, against `SERIES_CAPACITY`.
    segments: usize,
    /// Segments of the dropped runs, per mode.
    dropped: BTreeMap<&'static str, u64>,
}

impl RunTable {
    /// Adds one run, or drops it whole and counts its segments when one
    /// has a non-finite field or they would take the table past its cap.
    fn record(&mut self, mode: &'static str, makespan: f64, telemetry: Telemetry) {
        let len = telemetry.len();
        let finite = telemetry
            .segments()
            .all(|s| s.end.is_finite() && s.sm_util.is_finite() && s.bw_util.is_finite());
        if finite && self.segments + len <= SERIES_CAPACITY {
            self.segments += len;
            self.runs.push(Run {
                mode,
                makespan,
                telemetry,
            });
        } else {
            *self.dropped.entry(mode).or_default() += len as u64;
        }
    }

    /// Puts the runs in content order, which every fold relies on.
    fn sort(&mut self) {
        self.runs.sort_by(content_order);
    }

    /// No run recorded, stored or dropped.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty() && self.dropped.is_empty()
    }

    /// Total simulated seconds: the stored runs' makespans, summed in
    /// content order (`0.0` for an empty table).
    pub fn makespan(&self) -> f64 {
        self.runs.iter().fold(0.0, |acc, r| acc + r.makespan)
    }

    /// The series of `gauge` over every stored run (`mode == None`) or
    /// over the runs of one mode.
    pub fn series<'a>(&'a self, gauge: Gauge, mode: Option<&'a str>) -> RunSeries<'a> {
        RunSeries {
            table: self,
            gauge,
            mode,
        }
    }

    /// The run-backed series the export lists, in name order: the three
    /// device series, and one occupancy series per mode, each once a run
    /// stored or dropped a segment for it.
    fn named_series(&self) -> Vec<(String, RunSeries<'_>)> {
        let mut modes: BTreeSet<&str> = self.dropped.keys().copied().collect();
        modes.extend(
            self.runs
                .iter()
                .filter(|r| !r.telemetry.is_empty())
                .map(|r| r.mode),
        );
        let device = [
            (series::DEVICE_BW_UTIL, Gauge::BwUtil),
            (series::DEVICE_POWER_W, Gauge::PowerW),
            (series::DEVICE_SM_UTIL, Gauge::SmUtil),
        ];
        let device = (device.into_iter().filter(|_| !modes.is_empty()))
            .map(|(name, gauge)| (name.to_string(), self.series(gauge, None)));
        let occupancy = (modes.iter()).map(|&mode| {
            (
                series::occupancy(mode),
                self.series(Gauge::SmUtil, Some(mode)),
            )
        });
        device.chain(occupancy).collect()
    }
}

/// One run-backed series: a [`Gauge`] over a [`RunTable`]'s runs, all of
/// them or one mode's. Every fold is exact and visits the runs in content
/// order; within a run it is the fold the telemetry made in append order.
#[derive(Debug, Clone, Copy)]
pub struct RunSeries<'a> {
    table: &'a RunTable,
    gauge: Gauge,
    mode: Option<&'a str>,
}

impl RunSeries<'_> {
    fn runs(&self) -> impl Iterator<Item = &Telemetry> + '_ {
        self.table
            .runs
            .iter()
            .filter(|r| self.mode.is_none_or(|m| m == r.mode) && !r.telemetry.is_empty())
            .map(|r| &r.telemetry)
    }

    /// `Σ` of `per_run` over the runs, from the `-0.0` an `f64` sum
    /// starts at.
    fn fold(&self, per_run: impl Fn(&Telemetry) -> f64) -> f64 {
        self.runs().fold(-0.0, |acc, t| acc + per_run(t))
    }

    pub fn is_empty(&self) -> bool {
        self.runs().next().is_none()
    }

    /// Segments of the dropped runs (non-finite, or past the cap).
    pub fn dropped(&self) -> u64 {
        let dropped = &self.table.dropped;
        match self.mode {
            Some(mode) => dropped.get(mode).copied().unwrap_or(0),
            None => dropped.values().sum(),
        }
    }

    /// Total covered time `Σ dur`.
    pub fn covered(&self) -> f64 {
        self.fold(|t| t.total_time().value())
    }

    /// Exact time integral `Σ v·dur`.
    pub fn integral(&self) -> f64 {
        self.fold(|t| self.gauge.integral(t))
    }

    /// `integral / covered`; `None` when no time is covered.
    pub fn time_weighted_mean(&self) -> Option<f64> {
        let covered = self.covered();
        (covered > 0.0).then(|| self.integral() / covered)
    }

    /// Stranded-capacity integral: `Σ max(0, capacity − v)·dur` — the
    /// capacity-seconds left unused against a ceiling of `capacity`
    /// (1.0 for utilization series). One pass over each run.
    pub fn stranded(&self, capacity: f64) -> f64 {
        self.fold(|t| {
            t.segments()
                .map(|s| (capacity - self.gauge.of(&s.state())).max(0.0) * s.duration().value())
                .sum()
        })
    }

    /// Time-weighted CDF of the value, as [`TimeSeries::cdf`]: the time
    /// at each distinct value (by its bits) is summed per palette state,
    /// run by run, then only the distinct values are sorted.
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let mut time: BTreeMap<u64, f64> = BTreeMap::new();
        for t in self.runs() {
            for (state, dt) in t.time_per_state() {
                *time.entry(self.gauge.of(&state).to_bits()).or_insert(-0.0) += dt.value();
            }
        }
        let mut weighted: Vec<(f64, f64)> = time
            .into_iter()
            .map(|(bits, w)| (f64::from_bits(bits), w))
            .collect();
        weighted.sort_by(|a, b| a.0.total_cmp(&b.0));
        cdf_steps(weighted)
    }

    /// Every segment as a sample, in canonical `(t, dur, v)` order.
    pub fn samples(&self) -> Vec<Sample> {
        let mut samples: Vec<Sample> = self
            .runs()
            .flat_map(|t| t.segments())
            .map(|s| Sample {
                t: s.start.value(),
                dur: s.duration().value(),
                v: self.gauge.of(&s.state()),
            })
            .collect();
        samples.sort_by(canonical);
        samples
    }
}

/// Per-track observation cap (far above any current producer; turnaround
/// observations arrive one per completed client/workflow).
const QUANTILE_CAPACITY: usize = 1 << 18;

/// Exact quantiles over a multiset of observations. New observations land
/// in an unsorted pending buffer; any read sorts the pending run and
/// merges it into the sorted spine (a classic sorted-merge), so reads are
/// exact order statistics and amortize to `O(n log n)` total. Insertion
/// order and worker interleaving cannot matter: the sorted multiset is
/// the only state reads see.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuantileTrack {
    sorted: Vec<f64>,
    pending: Vec<f64>,
    dropped: u64,
}

impl QuantileTrack {
    pub fn new() -> Self {
        QuantileTrack::default()
    }

    /// Records one observation. Non-finite values are rejected and
    /// counted as dropped — a NaN must never poison the order statistics.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() || self.len() >= QUANTILE_CAPACITY {
            self.dropped += 1;
            return;
        }
        self.pending.push(v);
    }

    fn consolidate(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.pending.sort_by(f64::total_cmp);
        let old = std::mem::take(&mut self.sorted);
        let run = std::mem::take(&mut self.pending);
        self.sorted = Vec::with_capacity(old.len() + run.len());
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < run.len() {
            if old[i].total_cmp(&run[j]).is_le() {
                self.sorted.push(old[i]);
                i += 1;
            } else {
                self.sorted.push(run[j]);
                j += 1;
            }
        }
        self.sorted.extend_from_slice(&old[i..]);
        self.sorted.extend_from_slice(&run[j..]);
    }

    pub fn len(&self) -> usize {
        self.sorted.len() + self.pending.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exact nearest-rank quantile for `q ∈ (0, 1]`: the
    /// `⌈q·n⌉`-th smallest observation. `None` while empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q) && q > 0.0, "q must be in (0, 1]");
        self.consolidate();
        if self.sorted.is_empty() {
            return None;
        }
        let n = self.sorted.len();
        let rank = (q * n as f64).ceil() as usize;
        Some(self.sorted[rank.clamp(1, n) - 1])
    }

    pub fn p50(&mut self) -> Option<f64> {
        self.quantile(0.50)
    }

    pub fn p90(&mut self) -> Option<f64> {
        self.quantile(0.90)
    }

    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }

    pub fn p999(&mut self) -> Option<f64> {
        self.quantile(0.999)
    }

    pub fn min(&mut self) -> Option<f64> {
        self.consolidate();
        self.sorted.first().copied()
    }

    pub fn max(&mut self) -> Option<f64> {
        self.consolidate();
        self.sorted.last().copied()
    }

    /// The empirical CDF: for each distinct observed value (ascending),
    /// the fraction of observations `<= v`. The last entry's fraction is
    /// exactly 1.
    pub fn cdf(&mut self) -> Vec<(f64, f64)> {
        self.consolidate();
        let n = self.sorted.len();
        let mut out: Vec<(f64, f64)> = Vec::new();
        for (i, &v) in self.sorted.iter().enumerate() {
            let frac = (i + 1) as f64 / n as f64;
            match out.last_mut() {
                Some(last) if last.0 == v => last.1 = frac,
                _ => out.push((v, frac)),
            }
        }
        out
    }

    /// Fraction of observations `<= threshold` — SLO attainment at that
    /// deadline. `None` while empty.
    pub fn attainment(&mut self, threshold: f64) -> Option<f64> {
        self.consolidate();
        if self.sorted.is_empty() {
            return None;
        }
        let within = self.sorted.partition_point(|&v| v <= threshold);
        Some(within as f64 / self.sorted.len() as f64)
    }
}

/// Distinct named series / tracks cap: bounds the store against
/// label-cardinality explosions (new names past the cap are dropped and
/// counted).
const STORE_NAME_CAPACITY: usize = 512;

/// Whether `name` is one of the series the run table backs. Samples
/// pushed under such a name are refused: the export lists each name once.
fn is_run_backed(name: &str) -> bool {
    name.starts_with("device.") || name.starts_with("occupancy.")
}

#[derive(Debug, Default)]
struct StoreInner {
    series: BTreeMap<String, TimeSeries>,
    quantiles: BTreeMap<String, QuantileTrack>,
    runs: RunTable,
    dropped_names: u64,
}

/// The process-wide home of every timeline: the run table, named series
/// and quantile tracks behind one mutex (feeding happens post-run, never
/// on an engine hot path). Owned by the [`Recorder`](crate::Recorder) so
/// `reset()` and lifecycle match the rest of the observability state.
#[derive(Debug, Default)]
pub struct TimelineStore {
    inner: Mutex<StoreInner>,
}

impl TimelineStore {
    pub fn new() -> Self {
        TimelineStore::default()
    }

    fn with_inner<R>(&self, f: impl FnOnce(&mut StoreInner) -> R) -> R {
        f(&mut self.inner.lock().expect("timeline store poisoned"))
    }

    /// Records one engine run into the run table: its mode, its makespan
    /// in simulated seconds, and a copy of its telemetry. The copy is made
    /// before the lock is taken.
    pub fn record_run(&self, mode: &'static str, makespan: f64, telemetry: &Telemetry) {
        let telemetry = telemetry.clone();
        self.with_inner(|inner| inner.runs.record(mode, makespan, telemetry));
    }

    /// Runs `f` over the run table in content order. `f` runs under the
    /// store's lock, so it must not call back into the store.
    pub fn with_runs<R>(&self, f: impl FnOnce(&RunTable) -> R) -> R {
        self.with_inner(|inner| {
            inner.runs.sort();
            f(&inner.runs)
        })
    }

    /// Records an instantaneous sample into the named series.
    pub fn series_push(&self, name: &str, t: f64, v: f64) {
        self.series_push_span(name, t, 0.0, v);
    }

    /// Records a span sample into the named series, creating it on first
    /// use. Samples for a name the run table backs are refused, counted in
    /// [`TimelineStore::dropped_names`].
    pub fn series_push_span(&self, name: &str, t: f64, dur: f64, v: f64) {
        self.with_inner(|inner| {
            if let Some(series) = inner.series.get_mut(name) {
                return series.push_span(t, dur, v);
            }
            if inner.series.len() >= STORE_NAME_CAPACITY || is_run_backed(name) {
                inner.dropped_names += 1;
                return;
            }
            let mut series = TimeSeries::new();
            series.push_span(t, dur, v);
            inner.series.insert(name.to_string(), series);
        });
    }

    /// Records an observation into the named quantile track, creating it
    /// on first use.
    pub fn quantile_observe(&self, name: &str, v: f64) {
        self.with_inner(|inner| {
            if inner.quantiles.len() >= STORE_NAME_CAPACITY && !inner.quantiles.contains_key(name) {
                inner.dropped_names += 1;
                return;
            }
            upsert(&mut inner.quantiles, name, QuantileTrack::new, |q| {
                q.observe(v)
            });
        });
    }

    /// Runs `f` over the named sample series in place (run-backed series
    /// are read through [`TimelineStore::with_runs`]), or returns `None` if
    /// absent. `f` runs under the store's lock, as in `with_runs`.
    pub fn with_series<R>(&self, name: &str, f: impl FnOnce(&mut TimeSeries) -> R) -> Option<R> {
        self.with_inner(|inner| inner.series.get_mut(name).map(f))
    }

    /// Runs `f` over the named quantile track in place, or `None` if
    /// absent. `f` runs under the store's lock, as in `with_runs`.
    pub fn with_quantiles<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut QuantileTrack) -> R,
    ) -> Option<R> {
        self.with_inner(|inner| inner.quantiles.get_mut(name).map(f))
    }

    /// Names of the sample series, in canonical (BTreeMap) order.
    pub fn series_names(&self) -> Vec<String> {
        self.with_inner(|inner| inner.series.keys().cloned().collect())
    }

    /// Names of all quantile tracks, in canonical order.
    pub fn quantile_names(&self) -> Vec<String> {
        self.with_inner(|inner| inner.quantiles.keys().cloned().collect())
    }

    /// Visits every series the export lists, sample and run-backed alike,
    /// in name order with its samples in canonical order (for the Perfetto
    /// counter-track export). `f` runs under the store's lock, as in
    /// `with_runs`.
    pub fn visit_series(&self, mut f: impl FnMut(&str, &[Sample])) {
        self.with_inner(|inner| {
            inner.runs.sort();
            let runs: Vec<_> = (inner.runs.named_series().into_iter())
                .map(|(name, s)| (name, s.samples()))
                .collect();
            let stored = (inner.series.iter_mut()).map(|(name, s)| (name.as_str(), s.samples()));
            let mut all: Vec<(&str, &[Sample])> =
                (runs.iter().map(|(name, v)| (name.as_str(), &v[..])))
                    .chain(stored)
                    .collect();
            all.sort_by_key(|&(name, _)| name);
            for (name, samples) in all {
                f(name, samples);
            }
        });
    }

    /// Samples and observations refused by name: new names past the
    /// store's capacity of distinct series or tracks
    /// (`STORE_NAME_CAPACITY`), and samples for a run-backed name.
    pub fn dropped_names(&self) -> u64 {
        self.with_inner(|inner| inner.dropped_names)
    }

    pub fn is_empty(&self) -> bool {
        self.with_inner(|i| i.series.is_empty() && i.quantiles.is_empty() && i.runs.is_empty())
    }

    /// Empties the store.
    pub fn reset(&self) {
        self.with_inner(|inner| *inner = StoreInner::default());
    }

    /// The full timeline export: every series (canonical sample order,
    /// integral, time-weighted mean, CDF) and every quantile track
    /// (count, p50/p90/p99/p999, full CDF). Deterministic: a pure
    /// function of the observation and run multisets, byte-identical
    /// across serial and parallel runs (`make check`'s trace-smoke gate
    /// pins this).
    pub fn to_json(&self) -> Value {
        self.with_inner(|inner| {
            inner.runs.sort();
            let mut series: Vec<(String, Value)> = (inner.series.iter_mut())
                .map(|(name, s)| {
                    let (covered, integral, cdf, dropped) =
                        (s.covered(), s.integral(), s.cdf(), s.dropped());
                    let json = series_json(s.samples(), dropped, covered, integral, &cdf);
                    (name.clone(), json)
                })
                .collect();
            series.extend(inner.runs.named_series().into_iter().map(|(name, s)| {
                let (covered, integral) = (s.covered(), s.integral());
                let json = series_json(&s.samples(), s.dropped(), covered, integral, &s.cdf());
                (name, json)
            }));
            series.sort_by(|a, b| a.0.cmp(&b.0));
            let quantiles = inner
                .quantiles
                .iter_mut()
                .map(|(name, q)| (name.clone(), quantile_json(q)))
                .collect();
            Value::Object(vec![
                ("series".to_string(), Value::Object(series)),
                ("quantiles".to_string(), Value::Object(quantiles)),
                ("dropped_names".to_string(), Value::U64(inner.dropped_names)),
            ])
        })
    }
}

fn pairs_json(pairs: &[(f64, f64)]) -> Value {
    Value::Array(
        pairs
            .iter()
            .map(|&(a, b)| Value::Array(vec![Value::F64(a), Value::F64(b)]))
            .collect(),
    )
}

fn opt_f64(v: Option<f64>) -> Value {
    match v {
        Some(x) => Value::F64(x),
        None => Value::Null,
    }
}

fn series_json(
    samples: &[Sample],
    dropped: u64,
    covered: f64,
    integral: f64,
    cdf: &[(f64, f64)],
) -> Value {
    let span = match samples.first() {
        Some(first) => {
            let end = (samples.iter().map(|s| s.t + s.dur)).fold(f64::NEG_INFINITY, f64::max);
            Value::Array(vec![Value::F64(first.t), Value::F64(end)])
        }
        None => Value::Null,
    };
    let samples = samples
        .iter()
        .map(|s| Value::Array(vec![Value::F64(s.t), Value::F64(s.dur), Value::F64(s.v)]));
    let mean = (covered > 0.0).then(|| integral / covered);
    Value::Object(vec![
        ("count".to_string(), Value::U64(samples.len() as u64)),
        ("dropped".to_string(), Value::U64(dropped)),
        ("span".to_string(), span),
        ("covered_s".to_string(), Value::F64(covered)),
        ("integral".to_string(), Value::F64(integral)),
        ("time_weighted_mean".to_string(), opt_f64(mean)),
        ("cdf".to_string(), pairs_json(cdf)),
        ("samples".to_string(), Value::Array(samples.collect())),
    ])
}

fn quantile_json(q: &mut QuantileTrack) -> Value {
    Value::Object(vec![
        ("count".to_string(), Value::U64(q.len() as u64)),
        ("dropped".to_string(), Value::U64(q.dropped())),
        ("min".to_string(), opt_f64(q.min())),
        ("p50".to_string(), opt_f64(q.p50())),
        ("p90".to_string(), opt_f64(q.p90())),
        ("p99".to_string(), opt_f64(q.p99())),
        ("p999".to_string(), opt_f64(q.p999())),
        ("max".to_string(), opt_f64(q.max())),
        ("cdf".to_string(), pairs_json(&q.cdf())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64 — the same keyed-draw idiom as `fault::unit_hash`, for
    /// seeded permutations without host randomness.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e3779b97f4a7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
        let mut out = items.to_vec();
        for i in (1..out.len()).rev() {
            let j = (mix(seed.wrapping_add(i as u64)) % (i as u64 + 1)) as usize;
            out.swap(i, j);
        }
        out
    }

    #[test]
    fn series_integrals_and_means_are_exact() {
        let mut s = TimeSeries::new();
        s.push_span(0.0, 2.0, 0.5);
        s.push_span(2.0, 1.0, 1.0);
        s.push_span(3.0, 2.0, 0.0);
        assert_eq!(s.covered(), 5.0);
        assert_eq!(s.integral(), 2.0);
    }

    #[test]
    fn series_canonical_order_is_insertion_invariant() {
        let samples: Vec<Sample> = (0..64)
            .map(|i| Sample {
                t: (mix(i) % 100) as f64 * 0.5,
                dur: (mix(i + 1000) % 10) as f64 * 0.1,
                v: (mix(i + 2000) % 1000) as f64 / 1000.0,
            })
            .collect();
        let build = |order: &[Sample]| {
            let mut s = TimeSeries::new();
            for smp in order {
                s.push_span(smp.t, smp.dur, smp.v);
            }
            (s.samples().to_vec(), s.integral(), s.cdf())
        };
        let reference = build(&samples);
        for seed in 1..8u64 {
            assert_eq!(build(&shuffled(&samples, seed)), reference);
        }
    }

    #[test]
    fn series_rejects_non_finite_and_counts_drops() {
        let mut s = TimeSeries::new();
        s.push_span(f64::NAN, 0.0, 1.0);
        s.push_span(1.0, 0.0, f64::INFINITY);
        s.push_span(0.0, -1.0, 0.5);
        s.push_span(0.0, f64::NAN, 0.5);
        assert!(s.is_empty());
        assert_eq!(s.dropped(), 4);
        s.push_span(1.0, 0.0, 2.0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn series_cdf_is_time_weighted_and_monotone() {
        let mut s = TimeSeries::new();
        s.push_span(0.0, 3.0, 0.2);
        s.push_span(3.0, 1.0, 0.8);
        s.push_span(4.0, 1.0, 0.2);
        let cdf = s.cdf();
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf[0], (0.2, 0.8));
        assert_eq!(cdf[1], (0.8, 1.0));
    }

    #[test]
    fn quantiles_match_naive_sorted_reference_under_permutations() {
        let values: Vec<f64> = (0..257).map(|i| (mix(i) % 10_000) as f64 / 7.0).collect();
        let mut naive = values.clone();
        naive.sort_by(f64::total_cmp);
        let qs = [0.5, 0.9, 0.99, 0.999, 0.001, 1.0];
        for seed in 0..8u64 {
            let mut track = QuantileTrack::new();
            for v in shuffled(&values, seed) {
                track.observe(v);
            }
            for &q in &qs {
                let rank = ((q * naive.len() as f64).ceil() as usize).clamp(1, naive.len());
                assert_eq!(
                    track.quantile(q),
                    Some(naive[rank - 1]),
                    "q={q} seed={seed}"
                );
            }
            assert_eq!(track.min(), naive.first().copied());
            assert_eq!(track.max(), naive.last().copied());
        }
    }

    #[test]
    fn quantile_reads_interleave_with_observes() {
        // The sorted-merge consolidation must stay exact when reads and
        // writes interleave (pending runs merged into the spine).
        let mut track = QuantileTrack::new();
        let mut all = Vec::new();
        for i in 0..100u64 {
            let v = (mix(i) % 1000) as f64;
            track.observe(v);
            all.push(v);
            if i % 7 == 0 {
                let mut naive = all.clone();
                naive.sort_by(f64::total_cmp);
                let rank = ((0.9 * naive.len() as f64).ceil() as usize).clamp(1, naive.len());
                assert_eq!(track.p90(), Some(naive[rank - 1]));
            }
        }
    }

    #[test]
    fn quantile_track_rejects_non_finite() {
        let mut track = QuantileTrack::new();
        track.observe(f64::NAN);
        track.observe(f64::INFINITY);
        track.observe(f64::NEG_INFINITY);
        assert!(track.is_empty());
        assert_eq!(track.dropped(), 3);
        track.observe(1.0);
        assert_eq!(track.quantile(0.5), Some(1.0));
    }

    #[test]
    fn quantile_ordering_and_cdf_are_monotone() {
        let mut track = QuantileTrack::new();
        for i in 0..1000u64 {
            track.observe((mix(i) % 100_000) as f64 / 13.0);
        }
        let (p50, p90, p99, p999) = (
            track.p50().unwrap(),
            track.p90().unwrap(),
            track.p99().unwrap(),
            track.p999().unwrap(),
        );
        assert!(p50 <= p90 && p90 <= p99 && p99 <= p999);
        let cdf = track.cdf();
        for w in cdf.windows(2) {
            assert!(w[0].0 < w[1].0, "cdf values strictly ascending");
            assert!(w[0].1 <= w[1].1, "cdf fractions non-decreasing");
        }
        assert_eq!(cdf.last().unwrap().1, 1.0);
        // Attainment agrees with the CDF at every knot.
        for &(v, frac) in &cdf {
            assert_eq!(track.attainment(v), Some(frac));
        }
    }

    #[test]
    fn store_exports_deterministically_across_insertion_orders() {
        let entries: Vec<(f64, f64)> = (0..50)
            .map(|i| ((mix(i) % 100) as f64, (mix(i + 99) % 50) as f64))
            .collect();
        let build = |seed: u64| {
            let store = TimelineStore::new();
            for (t, v) in shuffled(&entries, seed) {
                store.series_push_span("util", t, 1.0, v / 50.0);
                store.quantile_observe(series::SCHED_TURNAROUND, v);
            }
            for (mode, makespan, telemetry) in shuffled(&messy_runs(0, 20), seed) {
                store.record_run(mode, makespan, &telemetry);
            }
            serde_json::to_string(&store.to_json()).unwrap()
        };
        let reference = build(0);
        for seed in 1..4 {
            assert_eq!(build(seed), reference);
        }
        assert!(reference.contains("\"p99\""));
        assert!(reference.contains(series::DEVICE_SM_UTIL));
        assert!(reference.contains("occupancy.mps"));
    }

    #[test]
    fn store_caps_distinct_names() {
        let store = TimelineStore::new();
        for i in 0..(STORE_NAME_CAPACITY + 5) {
            store.series_push(&format!("s{i}"), 0.0, 1.0);
        }
        assert_eq!(store.series_names().len(), STORE_NAME_CAPACITY);
        assert_eq!(store.dropped_names(), 5);
        store.reset();
        assert!(store.is_empty());
        assert_eq!(store.dropped_names(), 0);
    }

    #[test]
    fn store_reads_and_visits() {
        let store = TimelineStore::new();
        store.series_push_span("util", 2.0, 2.0, 1.0);
        store.series_push_span("util", 0.0, 2.0, 0.5);
        store.series_push("idle", 1.0, 0.0);
        store.quantile_observe("lat", 3.0);
        assert_eq!(store.with_series("util", |s| s.integral()), Some(3.0));
        assert_eq!(store.with_quantiles("lat", |q| q.p50()), Some(Some(3.0)));
        assert_eq!(store.with_series("missing", |s| s.integral()), None);
        let mut visited = Vec::new();
        store.visit_series(|name, samples| {
            visited.push((name.to_string(), samples.iter().map(|s| s.t).collect()))
        });
        let starts: Vec<(String, Vec<f64>)> = vec![
            ("idle".to_string(), vec![1.0]),
            ("util".to_string(), vec![0.0, 2.0]),
        ];
        assert_eq!(visited, starts, "name order, canonical sample order");
        assert_eq!(store.quantile_names(), vec!["lat".to_string()]);
    }

    /// `n` samples drawn from a palette that hits every rejection path
    /// (NaN/±∞ fields, negative durations) plus signed zeros, repeats and
    /// out-of-order times.
    fn messy_samples(seed: u64, n: usize) -> Vec<Sample> {
        const PALETTE: [f64; 10] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            0.5,
            1.0,
            2.5,
            3.0,
        ];
        let draw = |i: u64, lane: u64| PALETTE[(mix(seed ^ mix(i * 3 + lane)) % 10) as usize];
        (0..n as u64)
            .map(|i| Sample {
                t: draw(i, 0),
                dur: draw(i, 1),
                v: draw(i, 2),
            })
            .collect()
    }

    fn export(store: &TimelineStore) -> String {
        serde_json::to_string(&store.to_json()).unwrap()
    }

    #[test]
    fn reading_mid_way_leaves_the_export_unchanged() {
        let (read, unread) = (TimelineStore::new(), TimelineStore::new());
        for (i, s) in messy_samples(11, 400).iter().enumerate() {
            let (mode, makespan, telemetry) = messy_run(i as u64);
            for store in [&read, &unread] {
                store.record_run(mode, makespan, &telemetry);
                store.series_push_span("util", s.t, s.dur, s.v);
                store.series_push("point", s.t, s.v);
                store.quantile_observe("lat", s.v);
            }
            if i % 90 == 45 {
                read.with_series("util", |s| s.cdf());
                read.with_series("point", |s| s.cdf());
                read.with_runs(|runs| runs.series(Gauge::SmUtil, None).cdf());
                read.with_quantiles("lat", |q| q.p99());
                read.visit_series(|_, _| {});
            }
        }
        assert_eq!(export(&read), export(&unread));
    }

    #[test]
    fn reset_store_reads_like_a_fresh_one() {
        let record = |store: &TimelineStore, names: &[&str]| {
            for (k, name) in names.iter().enumerate() {
                let (mode, makespan, telemetry) = messy_run(k as u64);
                store.record_run(mode, makespan, &telemetry);
                for s in messy_samples(k as u64, 50) {
                    store.series_push_span(name, s.t, s.dur, s.v);
                    store.quantile_observe(&format!("{name}.q"), s.v);
                }
            }
        };
        let store = TimelineStore::new();
        record(&store, &["a", "b", "c"]);
        let first = export(&store);
        store.reset();
        let fresh = TimelineStore::new();
        assert_eq!(store.series_names(), fresh.series_names());
        assert_eq!(store.quantile_names(), fresh.quantile_names());
        assert!(store.is_empty());
        assert_eq!(export(&store), export(&fresh));
        record(&store, &["b", "d"]);
        record(&fresh, &["b", "d"]);
        assert_eq!(store.series_names(), fresh.series_names());
        assert_eq!(export(&store), export(&fresh));
        store.reset();
        record(&store, &["a", "b", "c"]);
        assert_eq!(export(&store), first);
    }

    use mpshare_gpusim::Segment;
    use mpshare_types::{Power, Seconds};

    const MODES: [&str; 3] = ["mps", "streams", "time-sliced"];

    /// A run drawn to hit the folds' edge cases: signed zeros, states that
    /// recur across runs and within one, empty runs, zero-length segments
    /// (the telemetry drops them), non-finite utilizations and an infinite
    /// end (the run table drops and counts them).
    fn messy_run(seed: u64) -> (&'static str, f64, Telemetry) {
        const DURS: [f64; 5] = [0.0, 0.25, 0.5, 1.0, 3.0];
        const UTILS: [f64; 8] = [-0.0, 0.0, 0.25, 0.5, 1.0, 1.0 / 3.0, 0.1, 0.7];
        const WATTS: [f64; 3] = [50.0, 75.5, 250.0];
        let draw = |i: u64, lane: u64, n: u64| (mix(seed ^ mix(i * 7 + lane)) % n) as usize;
        let mut telemetry = Telemetry::new();
        let mut t = 0.0;
        for i in 0..draw(0, 0, 12) as u64 {
            let end = match draw(i, 1, 40) {
                0 => f64::INFINITY,
                _ => t + DURS[draw(i, 2, 5)],
            };
            let util = |lane| match draw(i, lane, 50) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                k => UTILS[k % UTILS.len()],
            };
            telemetry.record(Segment {
                start: Seconds::new(t),
                end: Seconds::new(end),
                sm_util: util(3),
                bw_util: util(4),
                power: Power::from_watts(WATTS[draw(i, 5, 3)]),
                clock_factor: 1.0,
                capped: draw(i, 6, 4) == 0,
                active_clients: draw(i, 7, 3),
            });
            if !end.is_finite() {
                break;
            }
            t = end;
        }
        (MODES[draw(0, 8, 3)], t, telemetry)
    }

    fn messy_runs(seed: u64, n: u64) -> Vec<(&'static str, f64, Telemetry)> {
        (0..n).map(|i| messy_run(mix(seed) ^ i)).collect()
    }

    /// Every series a run table backs: each gauge over all runs and over
    /// each mode.
    fn scopes() -> Vec<(Gauge, Option<&'static str>)> {
        let mut out = Vec::new();
        for gauge in [Gauge::SmUtil, Gauge::BwUtil, Gauge::PowerW] {
            out.push((gauge, None));
            out.extend(MODES.map(|m| (gauge, Some(m))));
        }
        out
    }

    /// Every fold of every scope, by bit pattern.
    fn fold_bits(store: &TimelineStore) -> Vec<u64> {
        store.with_runs(|runs| {
            let mut bits = vec![runs.makespan().to_bits()];
            for (gauge, mode) in scopes() {
                let s = runs.series(gauge, mode);
                bits.extend([s.samples().len() as u64, s.dropped()]);
                bits.extend([s.covered(), s.integral(), s.stranded(1.0)].map(f64::to_bits));
                bits.push(s.time_weighted_mean().map_or(u64::MAX, f64::to_bits));
                for (v, frac) in s.cdf() {
                    bits.extend([v.to_bits(), frac.to_bits()]);
                }
            }
            bits
        })
    }

    #[test]
    fn run_folds_are_bitwise_invariant_under_insertion_order() {
        for seed in 0..12u64 {
            let runs = messy_runs(seed, 40);
            let record = |order: &[(&'static str, f64, Telemetry)]| {
                let store = TimelineStore::new();
                for (mode, makespan, telemetry) in order {
                    store.record_run(mode, *makespan, telemetry);
                }
                (fold_bits(&store), export(&store))
            };
            let reference = record(&runs);
            for perm in 1..6 {
                let order = shuffled(&runs, seed * 100 + perm);
                assert!(
                    record(&order) == reference,
                    "seed {seed} permutation {perm}"
                );
            }
        }
    }

    #[test]
    fn run_folds_agree_with_the_sorted_sample_fold() {
        // Two orders of the same n positive terms differ by at most
        // 2(n−1)ε relative (ε = 2⁻⁵³); a mean or CDF fraction divides two
        // such sums. 8nε bounds every comparison below.
        const EPS: f64 = f64::EPSILON / 2.0;
        let close =
            |a: f64, b: f64, n: usize| (a - b).abs() <= 8.0 * n as f64 * EPS * a.abs().max(b.abs());
        for seed in 0..12u64 {
            let runs = messy_runs(seed, 40);
            let store = TimelineStore::new();
            for (mode, makespan, telemetry) in &runs {
                store.record_run(mode, *makespan, telemetry);
            }
            for (gauge, mode) in scopes() {
                // The old fold over the runs the table keeps (every field
                // finite): one sample per segment, sorted on read.
                let (mut old, mut dropped) = (TimeSeries::new(), 0);
                for (_, _, telemetry) in runs.iter().filter(|r| mode.is_none_or(|m| m == r.0)) {
                    let finite = |s: &Segment| {
                        s.end.is_finite() && s.sm_util.is_finite() && s.bw_util.is_finite()
                    };
                    if !telemetry.segments().all(|s| finite(&s)) {
                        dropped += telemetry.len() as u64;
                        continue;
                    }
                    for seg in telemetry.segments() {
                        let v = gauge.of(&seg.state());
                        old.push_span(seg.start.value(), seg.duration().value(), v);
                    }
                }
                let n = old.len().max(1);
                let old_stranded: f64 = old
                    .samples()
                    .iter()
                    .map(|s| (1.0 - s.v).max(0.0) * s.dur)
                    .sum();
                let (old_cdf, old_samples) = (old.cdf(), old.samples().to_vec());
                store.with_runs(|table| {
                    let new = table.series(gauge, mode);
                    let at = format!("seed {seed} {gauge:?} {mode:?}");
                    assert_eq!(new.dropped(), dropped, "{at}");
                    assert_eq!(new.samples(), old_samples, "{at}");
                    assert!(close(new.covered(), old.covered(), n), "{at}");
                    assert!(close(new.integral(), old.integral(), n), "{at}");
                    assert!(close(new.stranded(1.0), old_stranded, n), "{at}");
                    let new_cdf = new.cdf();
                    let values =
                        |cdf: &[(f64, f64)]| cdf.iter().map(|c| c.0.to_bits()).collect::<Vec<_>>();
                    assert_eq!(values(&new_cdf), values(&old_cdf), "{at}");
                    for (a, b) in new_cdf.iter().zip(&old_cdf) {
                        assert!(close(a.1, b.1, n), "{at}: {a:?} vs {b:?}");
                    }
                    assert_eq!(
                        new_cdf.last().map(|c| c.1),
                        old_cdf.last().map(|_| 1.0),
                        "{at}"
                    );
                });
            }
        }
    }

    #[test]
    fn signed_zeros_collapse_to_one_cdf_step_and_empty_runs_add_only_makespan() {
        let run = |sm: f64, secs: f64| {
            let mut t = Telemetry::new();
            t.record(Segment {
                start: Seconds::ZERO,
                end: Seconds::new(secs),
                sm_util: sm,
                bw_util: 0.0,
                power: Power::from_watts(50.0),
                clock_factor: 1.0,
                capped: false,
                active_clients: 0,
            });
            t
        };
        let store = TimelineStore::new();
        store.record_run("mps", 1.0, &run(0.0, 1.0));
        store.record_run("mps", 3.0, &run(-0.0, 3.0));
        store.record_run("mps", 4.0, &run(1.0, 4.0));
        store.record_run("streams", 2.5, &Telemetry::new());
        store.with_runs(|runs| {
            assert_eq!(runs.makespan(), 10.5);
            let sm = runs.series(Gauge::SmUtil, None);
            let cdf = sm.cdf();
            assert_eq!(cdf, vec![(-0.0, 0.5), (1.0, 1.0)]);
            assert!(
                cdf[0].0.is_sign_negative(),
                "the first of equal values names the step"
            );
            assert_eq!((sm.covered(), sm.stranded(1.0)), (8.0, 4.0));
            assert!(runs.series(Gauge::SmUtil, Some("streams")).is_empty());
        });
        // The empty run creates no series: only the mode with segments has
        // an occupancy series.
        let json = export(&store);
        assert!(json.contains("occupancy.mps") && !json.contains("occupancy.streams"));
    }

    #[test]
    fn runs_past_the_segment_cap_are_dropped_whole_and_counted() {
        let run = |segments: usize| {
            let mut t = Telemetry::new();
            for i in 0..segments {
                t.record(Segment {
                    start: Seconds::new(i as f64),
                    end: Seconds::new(i as f64 + 1.0),
                    sm_util: 0.5,
                    bw_util: 0.25,
                    power: Power::from_watts(100.0),
                    clock_factor: 1.0,
                    capped: false,
                    active_clients: 1,
                });
            }
            t
        };
        let store = TimelineStore::new();
        store.record_run("mps", 1.0, &run(SERIES_CAPACITY - 5));
        store.record_run("streams", 1.0, &run(10));
        store.record_run("mps", 1.0, &run(5));
        store.with_runs(|runs| {
            let all = runs.series(Gauge::SmUtil, None);
            assert_eq!((all.samples().len(), all.dropped()), (SERIES_CAPACITY, 10));
            let streams = runs.series(Gauge::SmUtil, Some("streams"));
            assert!(streams.is_empty() && streams.dropped() == 10);
            assert_eq!(runs.series(Gauge::BwUtil, Some("mps")).dropped(), 0);
        });
        // A mode whose every segment was dropped still lists its series.
        assert!(export(&store).contains("occupancy.streams"));
    }

    #[test]
    fn sample_pushes_to_run_backed_names_are_refused() {
        let store = TimelineStore::new();
        store.series_push_span(series::DEVICE_SM_UTIL, 0.0, 1.0, 0.5);
        store.series_push(&series::occupancy("mps"), 1.0, 0.5);
        assert!(store.is_empty());
        assert_eq!(store.dropped_names(), 2);
    }
}
