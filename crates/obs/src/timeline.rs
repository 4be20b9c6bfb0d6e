//! Deterministic timeline metrics: simulated-time series, exact
//! quantiles, and utilization CDFs.
//!
//! The counters and fixed-bucket histograms in [`crate::metrics`](mod@crate::metrics) answer
//! "how much, in total"; this layer answers the time-resolved questions
//! the paper's interference argument (§IV) is built on — what did
//! utilization look like *over time*, what is the exact p99/p999
//! turnaround, how much capacity was stranded. Two building blocks:
//!
//! * [`TimeSeries`] — values sampled against **simulated** time (the same
//!   no-wall-clocks discipline as the recorder). Samples carry an explicit
//!   duration, because the simulation's state is piecewise-constant: a
//!   telemetry segment becomes one span sample, and time integrals,
//!   time-weighted means and utilization CDFs are then *exact* sums, never
//!   sampling approximations. Point samples (`dur == 0`) are supported for
//!   instantaneous observations such as queue depth.
//!   [`TimeSeries::rollup`] folds a series into fixed-window
//!   count/mean/min/max/sum stats, for dashboard-style downsampling.
//! * [`QuantileTrack`] — *exact* quantiles: every observation is kept and
//!   sorted-merge-consolidated on demand, so `p50/p90/p99/p999` are true
//!   order statistics, bit-identical to a naive sort of the same
//!   observations (pinned by property tests in `tests/observability.rs`).
//!
//! # Determinism rules
//!
//! Everything here must be a pure function of the *multiset* of
//! observations: worker count and insertion order must not matter. Series
//! samples are canonically sorted by `(t, dur, v)` before any read, and
//! quantile tracks keep a sorted multiset, so serial and parallel runs
//! export byte-identical JSON (the trace-smoke gate `cmp`s a serial
//! against a parallel timeline artifact). Sums (integrals, window sums)
//! are always folded over the canonical order.
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

use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Canonical series and quantile-track names. Instrumentation sites, the
/// report renderer, and `validate-obs` share these so they cannot drift.
pub mod series {
    /// Device SM-throughput utilization in `[0, 1]`, one span per
    /// telemetry segment, aggregated over every recorded engine run.
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

fn sample_key(s: &Sample) -> (u64, u64, u64) {
    // total_cmp-compatible ordering keys: all fields are finite and
    // non-negative durations by construction, but map through the IEEE
    // total order anyway so the sort is unconditionally well-defined.
    (total_bits(s.t), total_bits(s.dur), total_bits(s.v))
}

fn total_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// Per-series sample cap: bounds store memory like the recorder's shard
/// capacity (samples past the cap are counted and dropped).
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

    /// Records an instantaneous observation. Non-finite times or values
    /// are rejected and counted in [`TimeSeries::dropped`] (the same
    /// poisoning guard as `Histogram::observe`).
    pub fn push(&mut self, t: f64, v: f64) {
        self.push_span(t, 0.0, v);
    }

    /// Records `v` holding from `t` for `dur` seconds. Rejects non-finite
    /// fields and negative durations (counted as dropped).
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
            if sample_key(last) > sample_key(&sample) {
                self.sorted = false;
            }
        }
        self.samples.push(sample);
    }

    fn finalize(&mut self) {
        if !self.sorted {
            self.samples.sort_by_key(sample_key);
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

    /// `(earliest start, latest end)` over all samples.
    pub fn span(&mut self) -> Option<(f64, f64)> {
        self.finalize();
        let first = *self.samples.first()?;
        let end = self
            .samples
            .iter()
            .map(|s| s.t + s.dur)
            .fold(f64::NEG_INFINITY, f64::max);
        Some((first.t, end))
    }

    /// Total covered time `Σ dur` (point samples contribute nothing).
    pub fn covered(&mut self) -> f64 {
        self.finalize();
        self.samples.iter().map(|s| s.dur).sum()
    }

    /// Exact time integral `Σ v·dur`.
    pub fn integral(&mut self) -> f64 {
        self.finalize();
        self.samples.iter().map(|s| s.v * s.dur).sum()
    }

    /// `integral / covered`; `None` when no time is covered.
    pub fn time_weighted_mean(&mut self) -> Option<f64> {
        let covered = self.covered();
        if covered > 0.0 {
            Some(self.integral() / covered)
        } else {
            None
        }
    }

    /// Fixed-window roll-ups: one [`WindowStat`] per `window`-second
    /// bucket (keyed by the sample *start*), in time order. Windows with
    /// no samples are omitted. Deterministic: folded over the canonical
    /// sample order.
    pub fn rollup(&mut self, window: f64) -> Vec<WindowStat> {
        assert!(
            window.is_finite() && window > 0.0,
            "rollup window must be positive"
        );
        self.finalize();
        let mut out: Vec<WindowStat> = Vec::new();
        for s in &self.samples {
            let bucket = (s.t / window).floor();
            let start = bucket * window;
            match out.last_mut() {
                Some(last) if last.start == start => last.fold(s),
                _ => out.push(WindowStat::seed(start, start + window, s)),
            }
        }
        out
    }

    /// Time-weighted cumulative distribution of the series value: for
    /// each distinct value `v` (ascending), the fraction of covered time
    /// spent at a value `<= v`. Exact, because samples are
    /// piecewise-constant. Point-only series fall back to equal weights
    /// per sample. Empty for an empty series.
    pub fn cdf(&mut self) -> Vec<(f64, f64)> {
        self.finalize();
        if self.samples.is_empty() {
            return Vec::new();
        }
        let covered: f64 = self.samples.iter().map(|s| s.dur).sum();
        let mut weighted: Vec<(f64, f64)> = self
            .samples
            .iter()
            .map(|s| (s.v, if covered > 0.0 { s.dur } else { 1.0 }))
            .collect();
        weighted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: f64 = weighted.iter().map(|(_, w)| w).sum();
        if total <= 0.0 {
            return Vec::new();
        }
        let mut out: Vec<(f64, f64)> = Vec::new();
        let mut acc = 0.0;
        for (v, w) in weighted {
            acc += w;
            match out.last_mut() {
                // Equal values collapse to one CDF step.
                Some(last) if last.0 == v => last.1 = acc / total,
                _ => out.push((v, acc / total)),
            }
        }
        out
    }

    /// Stranded-capacity integral: `Σ max(0, capacity − v)·dur` — the
    /// capacity-seconds left unused against a ceiling of `capacity`
    /// (1.0 for utilization series).
    pub fn stranded(&mut self, capacity: f64) -> f64 {
        self.finalize();
        self.samples
            .iter()
            .map(|s| (capacity - s.v).max(0.0) * s.dur)
            .sum()
    }
}

/// One fixed-window aggregate of a [`TimeSeries`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStat {
    pub start: f64,
    pub end: f64,
    pub count: u64,
    pub min: f64,
    pub max: f64,
    pub sum: f64,
    /// Sample mean (`sum / count`).
    pub mean: f64,
}

impl WindowStat {
    fn seed(start: f64, end: f64, s: &Sample) -> Self {
        WindowStat {
            start,
            end,
            count: 1,
            min: s.v,
            max: s.v,
            sum: s.v,
            mean: s.v,
        }
    }

    fn fold(&mut self, s: &Sample) {
        self.count += 1;
        self.min = self.min.min(s.v);
        self.max = self.max.max(s.v);
        self.sum += s.v;
        self.mean = self.sum / self.count as f64;
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

#[derive(Debug, Default)]
struct StoreInner {
    series: BTreeMap<String, TimeSeries>,
    quantiles: BTreeMap<String, QuantileTrack>,
    dropped_names: u64,
}

/// The process-wide home of every timeline: named series and quantile
/// tracks behind one mutex (feeding happens post-run, never on an engine
/// hot path). Owned by the [`Recorder`](crate::Recorder) so `reset()` and
/// lifecycle match the rest of the observability state.
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

    /// Records an instantaneous sample into the named series.
    pub fn series_push(&self, name: &str, t: f64, v: f64) {
        self.series_push_span(name, t, 0.0, v);
    }

    /// Records a span sample into the named series, creating it on first
    /// use.
    pub fn series_push_span(&self, name: &str, t: f64, dur: f64, v: f64) {
        self.with_inner(|inner| {
            if !inner.series.contains_key(name) && inner.series.len() >= STORE_NAME_CAPACITY {
                inner.dropped_names += 1;
                return;
            }
            inner
                .series
                .entry(name.to_string())
                .or_default()
                .push_span(t, dur, v);
        });
    }

    /// Records an observation into the named quantile track, creating it
    /// on first use.
    pub fn quantile_observe(&self, name: &str, v: f64) {
        self.with_inner(|inner| {
            if !inner.quantiles.contains_key(name) && inner.quantiles.len() >= STORE_NAME_CAPACITY {
                inner.dropped_names += 1;
                return;
            }
            inner
                .quantiles
                .entry(name.to_string())
                .or_default()
                .observe(v);
        });
    }

    /// Runs `f` over a clone of the named series (canonically sorted), or
    /// returns `None` if absent.
    pub fn with_series<R>(&self, name: &str, f: impl FnOnce(&mut TimeSeries) -> R) -> Option<R> {
        self.with_inner(|inner| inner.series.get(name).cloned())
            .map(|mut s| f(&mut s))
    }

    /// Runs `f` over a clone of the named quantile track, or `None` if
    /// absent.
    pub fn with_quantiles<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut QuantileTrack) -> R,
    ) -> Option<R> {
        self.with_inner(|inner| inner.quantiles.get(name).cloned())
            .map(|mut q| f(&mut q))
    }

    /// Names of all series, in canonical (BTreeMap) order.
    pub fn series_names(&self) -> Vec<String> {
        self.with_inner(|inner| inner.series.keys().cloned().collect())
    }

    /// Names of all quantile tracks, in canonical order.
    pub fn quantile_names(&self) -> Vec<String> {
        self.with_inner(|inner| inner.quantiles.keys().cloned().collect())
    }

    /// A canonically-sorted copy of every series (for the Perfetto
    /// counter-track export).
    pub fn series_snapshot(&self) -> Vec<(String, Vec<Sample>)> {
        self.with_inner(|inner| {
            inner
                .series
                .iter_mut()
                .map(|(name, series)| (name.clone(), series.samples().to_vec()))
                .collect()
        })
    }

    /// Names silently refused because the store already held its capacity
    /// of distinct series or tracks (`STORE_NAME_CAPACITY`).
    pub fn dropped_names(&self) -> u64 {
        self.with_inner(|inner| inner.dropped_names)
    }

    pub fn is_empty(&self) -> bool {
        self.with_inner(|inner| inner.series.is_empty() && inner.quantiles.is_empty())
    }

    pub fn reset(&self) {
        self.with_inner(|inner| *inner = StoreInner::default());
    }

    /// The full timeline export: every series (canonical sample order,
    /// integral, time-weighted mean, CDF) and every quantile track
    /// (count, p50/p90/p99/p999, full CDF). Deterministic: a pure
    /// function of the observation multisets, byte-identical across
    /// serial and parallel runs (`make check`'s trace-smoke gate pins
    /// this).
    pub fn to_json(&self) -> Value {
        self.with_inner(|inner| {
            let series = inner
                .series
                .iter_mut()
                .map(|(name, s)| (name.clone(), series_json(s)))
                .collect();
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

fn series_json(s: &mut TimeSeries) -> Value {
    let samples = Value::Array(
        s.samples()
            .iter()
            .map(|smp| {
                Value::Array(vec![
                    Value::F64(smp.t),
                    Value::F64(smp.dur),
                    Value::F64(smp.v),
                ])
            })
            .collect(),
    );
    let span = match s.span() {
        Some((a, b)) => Value::Array(vec![Value::F64(a), Value::F64(b)]),
        None => Value::Null,
    };
    Value::Object(vec![
        ("count".to_string(), Value::U64(s.len() as u64)),
        ("dropped".to_string(), Value::U64(s.dropped())),
        ("span".to_string(), span),
        ("covered_s".to_string(), Value::F64(s.covered())),
        ("integral".to_string(), Value::F64(s.integral())),
        (
            "time_weighted_mean".to_string(),
            opt_f64(s.time_weighted_mean()),
        ),
        ("cdf".to_string(), pairs_json(&s.cdf())),
        ("samples".to_string(), samples),
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
        assert_eq!(s.time_weighted_mean(), Some(0.4));
        assert_eq!(s.span(), Some((0.0, 5.0)));
        assert_eq!(s.stranded(1.0), 3.0);
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
            (s.samples().to_vec(), s.integral(), s.cdf(), s.rollup(5.0))
        };
        let reference = build(&samples);
        for seed in 1..8u64 {
            assert_eq!(build(&shuffled(&samples, seed)), reference);
        }
    }

    #[test]
    fn series_rejects_non_finite_and_counts_drops() {
        let mut s = TimeSeries::new();
        s.push(f64::NAN, 1.0);
        s.push(1.0, f64::INFINITY);
        s.push_span(0.0, -1.0, 0.5);
        s.push_span(0.0, f64::NAN, 0.5);
        assert!(s.is_empty());
        assert_eq!(s.dropped(), 4);
        s.push(1.0, 2.0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn rollups_fold_per_window() {
        let mut s = TimeSeries::new();
        s.push(1.0, 2.0);
        s.push(2.0, 4.0);
        s.push(15.0, 10.0);
        let windows = s.rollup(10.0);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].start, 0.0);
        assert_eq!(windows[0].count, 2);
        assert_eq!(windows[0].min, 2.0);
        assert_eq!(windows[0].max, 4.0);
        assert_eq!(windows[0].sum, 6.0);
        assert_eq!(windows[0].mean, 3.0);
        assert_eq!(windows[1].start, 10.0);
        assert_eq!(windows[1].count, 1);
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
                store.series_push_span(series::DEVICE_SM_UTIL, t, 1.0, v / 50.0);
                store.quantile_observe(series::SCHED_TURNAROUND, v);
            }
            serde_json::to_string(&store.to_json()).unwrap()
        };
        let reference = build(0);
        for seed in 1..4 {
            assert_eq!(build(seed), reference);
        }
        assert!(reference.contains("\"p99\""));
        assert!(reference.contains(series::DEVICE_SM_UTIL));
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
    fn store_reads_and_snapshot() {
        let store = TimelineStore::new();
        store.series_push_span("util", 0.0, 2.0, 0.5);
        store.series_push_span("util", 2.0, 2.0, 1.0);
        store.quantile_observe("lat", 3.0);
        assert_eq!(store.with_series("util", |s| s.integral()), Some(3.0));
        assert_eq!(store.with_quantiles("lat", |q| q.p50()), Some(Some(3.0)));
        assert_eq!(store.with_series("missing", |s| s.integral()), None);
        let snapshot = store.series_snapshot();
        assert_eq!(snapshot.len(), 1);
        assert_eq!(snapshot[0].1.len(), 2);
        assert_eq!(store.quantile_names(), vec!["lat".to_string()]);
    }
}
