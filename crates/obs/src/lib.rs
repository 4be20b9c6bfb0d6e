//! `mpshare-obs` — cross-layer observability for the mpshare simulator.
//!
//! The paper's evaluation is built on *measurement*: Nsight timelines,
//! `nvidia-smi` power/utilization logs, and per-client slowdown
//! decompositions. This crate is the simulator-side equivalent, threaded
//! through every layer above the engine:
//!
//! * [`recorder`](mod@recorder) — a process-wide structured span/event recorder the
//!   planner, online scheduler, MPS runner, executor and
//!   harness emit into. Zero-cost when disabled (one relaxed
//!   atomic load; payloads behind closures), deterministic when enabled
//!   (simulated time + monotonic sequence numbers, never wall clocks).
//! * [`metrics`](mod@metrics) — a counters/gauges/histograms registry exported as
//!   Prometheus text exposition and JSON.
//! * [`perfetto`] — Chrome-tracing / Perfetto export: the engine kernel
//!   timeline, and a merged trace that adds planner/scheduler/daemon/
//!   executor process tracks so one artifact answers "why was this group
//!   formed and what did it do to the GPU?".
//! * [`attrib`] — exact interference attribution: decomposes each
//!   client's co-run slowdown into SM-partition, bandwidth-contention,
//!   power-throttle and memory-wait seconds from the piecewise segments
//!   and event log.
//!
//! # Determinism rules
//!
//! Everything recorded here must be a pure function of the simulation:
//! no wall-clock reads, no host randomness. "Timing" metrics are
//! *simulated* seconds. Under serial execution two identical runs produce
//! byte-identical trace and metrics artifacts (the trace-smoke gate in
//! `make check` pins this); parallel execution varies only the sequence
//! interleaving, never the set of records or any metric value.
//!
//! # Convenience layer
//!
//! The free functions below proxy the global recorder so instrumentation
//! sites need a single import:
//!
//! ```
//! use mpshare_obs as obs;
//! obs::emit(obs::Track::Planner, "plan.call", None, None, || {
//!     serde_json::json!({ "strategy": "greedy" })
//! });
//! obs::counter_add(obs::names::PLAN_CALLS, 1);
//! ```

pub mod attrib;
pub mod metrics;
pub mod perfetto;
pub mod recorder;
pub mod timeline;

pub use attrib::{attribute, AttributionReport, ClientAttribution};
pub use metrics::{names, Histogram, MetricsRegistry, DEPTH_BUCKETS, SIM_SECONDS_BUCKETS};
pub use perfetto::{
    chrome_trace, control_events, engine_events, merged_chrome_trace_with_timelines, TraceEvent,
};
pub use recorder::{global as recorder, ObsRecord, Recorder, Track};
pub use timeline::{series, Gauge, QuantileTrack, Sample, TimeSeries, TimelineStore};

use serde_json::Value;

/// Is global recording enabled? The one branch every instrumentation
/// site pays on the disabled path.
#[inline]
pub fn enabled() -> bool {
    recorder().is_enabled()
}

/// Enables or disables global recording (and default metric families).
pub fn set_enabled(on: bool) {
    recorder().set_enabled(on);
}

/// The global metrics registry.
pub fn metrics() -> &'static MetricsRegistry {
    recorder().metrics()
}

/// Emits a record into the global recorder (no-op while disabled).
#[inline]
pub fn emit(
    track: Track,
    name: &str,
    sim_start: Option<f64>,
    sim_dur: Option<f64>,
    payload: impl FnOnce() -> Value,
) {
    recorder().emit(track, name, sim_start, sim_dur, payload);
}

/// Adds to a counter in the global registry (no-op while disabled).
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if enabled() {
        metrics().counter_add(name, delta);
    }
}

/// Sets a gauge in the global registry (no-op while disabled).
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if enabled() {
        metrics().gauge_set(name, value);
    }
}

/// Adds to a float series in the global registry (no-op while disabled).
#[inline]
pub fn gauge_add(name: &str, value: f64) {
    if enabled() {
        metrics().gauge_add(name, value);
    }
}

/// Observes into a histogram in the global registry (no-op while
/// disabled).
#[inline]
pub fn observe(name: &str, bounds: &[f64], value: f64) {
    if enabled() {
        metrics().histogram_observe(name, bounds, value);
    }
}

/// The global timeline store (simulated-time series + exact quantiles).
pub fn timelines() -> &'static TimelineStore {
    recorder().timelines()
}

/// Records an instantaneous timeline sample (no-op while disabled).
#[inline]
pub fn series_push(name: &str, t: f64, v: f64) {
    if enabled() {
        timelines().series_push(name, t, v);
    }
}

/// Records a span timeline sample: `v` holding from `t` for `dur`
/// simulated seconds (no-op while disabled).
#[inline]
pub fn series_push_span(name: &str, t: f64, dur: f64, v: f64) {
    if enabled() {
        timelines().series_push_span(name, t, dur, v);
    }
}

/// Records an observation into a named exact-quantile track (no-op while
/// disabled).
#[inline]
pub fn quantile_observe(name: &str, v: f64) {
    if enabled() {
        timelines().quantile_observe(name, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convenience_layer_is_noop_while_disabled() {
        // The global recorder starts disabled; a fresh private registry
        // check would race other tests, so just verify the guard logic
        // via a private recorder.
        let r = Recorder::new();
        assert!(!r.is_enabled());
        r.emit(Track::Executor, "x", None, None, || {
            panic!("payload must not be built while disabled")
        });
        assert!(r.is_empty());
    }
}
