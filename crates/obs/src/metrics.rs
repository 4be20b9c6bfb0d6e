//! Metrics registry: counters, gauges, and fixed-bucket histograms with
//! Prometheus text exposition and JSON export.
//!
//! Every value here is deterministic: counters count simulation facts
//! (cache hits, rate solves, faults), gauges hold simulation-derived
//! values (goodput), and histograms observe *simulated* durations — never
//! wall-clock readings, which are banned by the recorder's determinism
//! rules (DESIGN.md "Observability"). Exports iterate `BTreeMap`s, so two
//! identical runs render byte-identical artifacts.

use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Canonical metric names. Instrumentation sites and the trace-smoke
/// validator both reference these constants so they cannot drift apart.
pub mod names {
    // Cache hit rates.
    pub const PROFILE_CACHE_HITS: &str = "mpshare_profile_cache_hits_total";
    pub const PROFILE_CACHE_MISSES: &str = "mpshare_profile_cache_misses_total";
    /// No longer emitted (the planner keeps no estimate memo); kept,
    /// reading 0, because `mpshare-benchmark/src/main.rs` reads it by name.
    pub const ESTIMATE_MEMO_HITS: &str = "mpshare_estimate_memo_hits_total";
    /// No longer emitted; kept for the same reader as
    /// [`ESTIMATE_MEMO_HITS`].
    pub const ESTIMATE_MEMO_MISSES: &str = "mpshare_estimate_memo_misses_total";
    // Engine hot-path counters (from `EngineStats`).
    pub const ENGINE_RUNS: &str = "mpshare_engine_runs_total";
    pub const ENGINE_EVENTS: &str = "mpshare_engine_events_total";
    pub const ENGINE_RATE_SOLVES: &str = "mpshare_engine_rate_solves_total";
    /// No longer emitted (the engine has one solve path); kept so existing
    /// readers still resolve the name, which reads 0.
    pub const ENGINE_INCREMENTAL_SOLVES: &str = "mpshare_engine_incremental_solves_total";
    /// Emitted from `EngineStats::rate_solves`: every solve is a full solve.
    pub const ENGINE_FULL_SOLVES: &str = "mpshare_engine_full_solves_total";
    pub const ENGINE_RESIDENT_CHANGES: &str = "mpshare_engine_resident_changes_total";
    pub const ENGINE_SIM_SECONDS: &str = "mpshare_engine_sim_seconds_total";
    // Fault / recovery accounting.
    pub const FAULTS_INJECTED: &str = "mpshare_faults_injected_total";
    pub const CLIENTS_FAILED: &str = "mpshare_clients_failed_total";
    pub const TASKS_COMPLETED: &str = "mpshare_tasks_completed_total";
    pub const TASKS_FAILED: &str = "mpshare_tasks_failed_total";
    pub const SCHED_DISPATCHES: &str = "mpshare_scheduler_dispatches_total";
    pub const SCHED_RETRIES: &str = "mpshare_scheduler_retries_total";
    pub const SCHED_FAULTS: &str = "mpshare_scheduler_faults_total";
    pub const SCHED_ABANDONED: &str = "mpshare_scheduler_abandoned_total";
    // Plan search.
    pub const PLAN_CALLS: &str = "mpshare_plan_calls_total";
    /// No longer emitted (the planner has one cold plan path); kept so
    /// existing readers still resolve the name, which reads 0.
    pub const PLAN_WARM_START_HITS: &str = "mpshare_plan_warm_start_hits_total";
    pub const PLAN_CANDIDATES: &str = "mpshare_plan_candidates_total";
    pub const PLAN_REJECTS: &str = "mpshare_plan_rejects_total";
    // Failure domains.
    pub const FAULT_DOMAIN_REWRITES: &str = "mpshare_fault_domain_rewrites_total";
    // Gauges.
    pub const GOODPUT: &str = "mpshare_goodput";
    pub const WASTED_ENERGY_JOULES: &str = "mpshare_wasted_energy_joules";
    // Histograms (simulated seconds / dimensionless).
    pub const GROUP_MAKESPAN_SECONDS: &str = "mpshare_group_makespan_sim_seconds";
    pub const QUEUE_DEPTH: &str = "mpshare_scheduler_queue_depth";
    pub const ENGINE_QUEUE_DEPTH: &str = "mpshare_engine_event_queue_depth";
    pub const PHASE_SIM_SECONDS: &str = "mpshare_experiment_phase_sim_seconds";
}

/// Fixed bucket layout for simulated-duration histograms (seconds).
pub const SIM_SECONDS_BUCKETS: [f64; 8] = [0.1, 1.0, 10.0, 60.0, 300.0, 1800.0, 7200.0, 43200.0];
/// Fixed bucket layout for small cardinalities (queue depth, group size).
pub const DEPTH_BUCKETS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 48.0];

/// One fixed-bucket histogram: `counts[i]` observes `v <= bounds[i]`
/// cumulative-style at render time; the final implicit bucket is `+Inf`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; `counts.len() == bounds.len() + 1`.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
    /// Non-finite observations rejected by [`Histogram::observe`].
    dropped: u64,
}

impl Histogram {
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
            dropped: 0,
        }
    }

    /// The bucket bounds this histogram was created with.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Observes one value. Non-finite values are rejected and counted in
    /// [`Histogram::dropped`]: a NaN would otherwise land in the `+Inf`
    /// bucket (every `v <= b` comparison is false) and poison `sum`
    /// forever, and ±Inf would poison `sum` the same way.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            self.dropped += 1;
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Non-finite observations rejected (never counted in `count`/`sum`).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Cumulative counts per bound, Prometheus `le` semantics (the
    /// trailing `+Inf` bucket equals `count`).
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(self.bounds.len() + 1);
        for (i, &b) in self.bounds.iter().enumerate() {
            acc += self.counts[i];
            out.push((b, acc));
        }
        out.push((f64::INFINITY, self.count));
        out
    }
}

/// Applies `update` to the entry for `name`, creating it with `init` on
/// first use. The key is allocated only when the entry is created, never
/// on a hit.
pub(crate) fn upsert<V>(
    map: &mut BTreeMap<String, V>,
    name: &str,
    init: impl FnOnce() -> V,
    update: impl FnOnce(&mut V),
) {
    match map.get_mut(name) {
        Some(value) => update(value),
        None => update(map.entry(name.to_string()).or_insert_with(init)),
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// The registry. All methods are cheap no-ops in the sense that callers
/// guard them behind `obs::enabled()`; the registry itself is always
/// willing to record.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers every known metric family at zero so exports are
    /// complete (and byte-stable) even when a subsystem never ran.
    pub fn register_defaults(&self) {
        use names::*;
        let mut inner = self.inner.lock().expect("metrics poisoned");
        for name in [
            PROFILE_CACHE_HITS,
            PROFILE_CACHE_MISSES,
            ENGINE_RUNS,
            ENGINE_EVENTS,
            ENGINE_RATE_SOLVES,
            ENGINE_FULL_SOLVES,
            ENGINE_RESIDENT_CHANGES,
            FAULTS_INJECTED,
            CLIENTS_FAILED,
            TASKS_COMPLETED,
            TASKS_FAILED,
            SCHED_DISPATCHES,
            SCHED_RETRIES,
            SCHED_FAULTS,
            SCHED_ABANDONED,
            PLAN_CALLS,
            PLAN_CANDIDATES,
            PLAN_REJECTS,
            FAULT_DOMAIN_REWRITES,
        ] {
            inner.counters.entry(name.to_string()).or_insert(0);
        }
        inner.gauges.entry(GOODPUT.to_string()).or_insert(0.0);
        inner
            .gauges
            .entry(WASTED_ENERGY_JOULES.to_string())
            .or_insert(0.0);
        // Simulated-seconds counter is a float series, kept with gauges
        // for rendering but documented as a counter.
        inner
            .gauges
            .entry(ENGINE_SIM_SECONDS.to_string())
            .or_insert(0.0);
        for (name, bounds) in [
            (GROUP_MAKESPAN_SECONDS, &SIM_SECONDS_BUCKETS[..]),
            (PHASE_SIM_SECONDS, &SIM_SECONDS_BUCKETS[..]),
            (QUEUE_DEPTH, &DEPTH_BUCKETS[..]),
            (ENGINE_QUEUE_DEPTH, &DEPTH_BUCKETS[..]),
        ] {
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Histogram::new(bounds));
        }
    }

    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        upsert(&mut inner.counters, name, || 0, |c| *c += delta);
    }

    pub fn counter_get(&self, name: &str) -> u64 {
        let inner = self.inner.lock().expect("metrics poisoned");
        inner.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge_set(&self, name: &str, v: f64) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        upsert(&mut inner.gauges, name, || v, |g| *g = v);
    }

    pub fn gauge_add(&self, name: &str, v: f64) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        upsert(&mut inner.gauges, name, || 0.0, |g| *g += v);
    }

    pub fn gauge_get(&self, name: &str) -> f64 {
        let inner = self.inner.lock().expect("metrics poisoned");
        inner.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Observes into a histogram, creating it with `bounds` on first use.
    ///
    /// Layouts are fixed at creation — **first wins**: a later call with
    /// different `bounds` for the same name observes into the original
    /// layout (the passed bounds are ignored). Disagreeing layouts are a
    /// call-site bug — two sites sharing a name must share a `names`-style
    /// bounds constant — so debug builds assert the layouts agree.
    pub fn histogram_observe(&self, name: &str, bounds: &[f64], v: f64) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        let init = || Histogram::new(bounds);
        upsert(&mut inner.histograms, name, init, |h| {
            debug_assert_eq!(
                h.bounds(),
                bounds,
                "histogram {name:?} observed with a different bucket layout \
                 than it was created with (first layout wins)"
            );
            h.observe(v);
        });
    }

    pub fn histogram_count(&self, name: &str) -> u64 {
        let inner = self.inner.lock().expect("metrics poisoned");
        inner.histograms.get(name).map(|h| h.count()).unwrap_or(0)
    }

    /// Non-finite observations rejected by the named histogram.
    pub fn histogram_dropped(&self, name: &str) -> u64 {
        let inner = self.inner.lock().expect("metrics poisoned");
        inner.histograms.get(name).map(|h| h.dropped()).unwrap_or(0)
    }

    pub fn reset(&self) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        *inner = Inner::default();
    }

    /// Prometheus text exposition (version 0.0.4). Deterministic: metric
    /// families render in name order, floats in shortest-roundtrip form.
    pub fn to_prometheus(&self) -> String {
        let inner = self.inner.lock().expect("metrics poisoned");
        let mut out = String::new();
        for (name, value) in &inner.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &inner.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, h) in &inner.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            for (le, c) in h.cumulative() {
                if le.is_infinite() {
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {c}\n"));
                } else {
                    out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {c}\n"));
                }
            }
            out.push_str(&format!("{name}_sum {}\n", h.sum()));
            out.push_str(&format!("{name}_count {}\n", h.count()));
            out.push_str(&format!("{name}_dropped {}\n", h.dropped()));
        }
        out
    }

    /// JSON export: `{"counters": {...}, "gauges": {...},
    /// "histograms": {name: {"buckets": [[le, cum], ...], "sum", "count"}}}`.
    pub fn to_json(&self) -> Value {
        let inner = self.inner.lock().expect("metrics poisoned");
        let counters = Value::Object(
            inner
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), Value::U64(v)))
                .collect(),
        );
        let gauges = Value::Object(
            inner
                .gauges
                .iter()
                .map(|(k, &v)| (k.clone(), Value::F64(v)))
                .collect(),
        );
        let histograms = Value::Object(
            inner
                .histograms
                .iter()
                .map(|(k, h)| {
                    let buckets = Value::Array(
                        h.cumulative()
                            .into_iter()
                            .map(|(le, c)| {
                                Value::Array(vec![
                                    if le.is_infinite() {
                                        Value::String("+Inf".to_string())
                                    } else {
                                        Value::F64(le)
                                    },
                                    Value::U64(c),
                                ])
                            })
                            .collect(),
                    );
                    (
                        k.clone(),
                        Value::Object(vec![
                            ("buckets".to_string(), buckets),
                            ("sum".to_string(), Value::F64(h.sum())),
                            ("count".to_string(), Value::U64(h.count())),
                            ("dropped".to_string(), Value::U64(h.dropped())),
                        ]),
                    )
                })
                .collect(),
        );
        Value::Object(vec![
            ("counters".to_string(), counters),
            ("gauges".to_string(), gauges),
            ("histograms".to_string(), histograms),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let m = MetricsRegistry::new();
        m.counter_add("a_total", 2);
        m.counter_add("a_total", 3);
        assert_eq!(m.counter_get("a_total"), 5);
        let text = m.to_prometheus();
        assert!(text.contains("# TYPE a_total counter"));
        assert!(text.contains("a_total 5"));
    }

    #[test]
    fn gauges_set_and_add() {
        let m = MetricsRegistry::new();
        m.gauge_set("g", 1.5);
        m.gauge_add("g", 0.25);
        assert_eq!(m.gauge_get("g"), 1.75);
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_inf() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(100.0);
        let cum = h.cumulative();
        assert_eq!(cum[0], (1.0, 1));
        assert_eq!(cum[1], (10.0, 2));
        assert!(cum[2].0.is_infinite());
        assert_eq!(cum[2].1, 3);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 105.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn histogram_rejects_non_finite_observations() {
        // Regression: a NaN used to land in the +Inf bucket and poison
        // `sum` forever (NaN `<=` anything is false); ±Inf poisoned `sum`
        // the same way.
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(f64::NEG_INFINITY);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.dropped(), 3);
        assert_eq!(
            h.cumulative().last().unwrap().1,
            0,
            "+Inf bucket stays empty"
        );
        h.observe(5.0);
        assert_eq!(h.count(), 1);
        assert!(h.sum().is_finite());
        assert_eq!(h.dropped(), 3);
    }

    #[test]
    fn registry_counts_histogram_drops() {
        let m = MetricsRegistry::new();
        m.histogram_observe("h", &[1.0], f64::NAN);
        m.histogram_observe("h", &[1.0], 0.5);
        assert_eq!(m.histogram_count("h"), 1);
        assert_eq!(m.histogram_dropped("h"), 1);
        let text = m.to_prometheus();
        assert!(text.contains("h_dropped 1"));
        let json = serde_json::to_string(&m.to_json()).unwrap();
        assert!(json.contains("\"dropped\":1"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "different bucket layout")]
    fn histogram_bounds_mismatch_asserts_in_debug() {
        let m = MetricsRegistry::new();
        m.histogram_observe("h", &[1.0, 2.0], 0.5);
        m.histogram_observe("h", &[5.0], 0.5);
    }

    #[test]
    fn histogram_first_bounds_win() {
        // Release-mode semantics of a layout mismatch: the creating
        // call's bounds stay authoritative.
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(1.5);
        assert_eq!(h.bounds(), &[1.0, 2.0]);
        assert_eq!(h.cumulative()[1], (2.0, 1));
    }

    #[test]
    fn register_defaults_exposes_all_required_series() {
        let m = MetricsRegistry::new();
        m.register_defaults();
        let text = m.to_prometheus();
        for required in [
            names::PROFILE_CACHE_HITS,
            names::ENGINE_RATE_SOLVES,
            names::FAULTS_INJECTED,
            names::SCHED_RETRIES,
            names::GOODPUT,
            names::GROUP_MAKESPAN_SECONDS,
        ] {
            assert!(text.contains(required), "missing {required}");
        }
        let json = serde_json::to_string(&m.to_json()).unwrap();
        assert!(json.contains(names::GOODPUT));
        assert!(json.contains(names::QUEUE_DEPTH));
    }

    #[test]
    fn exports_are_deterministic() {
        let build = || {
            let m = MetricsRegistry::new();
            m.register_defaults();
            m.counter_add(names::ENGINE_RUNS, 7);
            m.gauge_set(names::GOODPUT, 0.321);
            m.histogram_observe(names::QUEUE_DEPTH, &DEPTH_BUCKETS, 3.0);
            (
                m.to_prometheus(),
                serde_json::to_string(&m.to_json()).unwrap(),
            )
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn json_parses_back() {
        let m = MetricsRegistry::new();
        m.register_defaults();
        let s = serde_json::to_string(&m.to_json()).unwrap();
        let v: Value = serde_json::from_str(&s).unwrap();
        assert!(v.get("counters").is_some());
        assert!(v.get("histograms").is_some());
    }
}
