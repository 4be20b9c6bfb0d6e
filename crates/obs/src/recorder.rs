//! The span/event recorder: structured control-plane telemetry.
//!
//! Every layer above the engine (planner, online scheduler, MPS runner,
//! executor, harness) emits [`ObsRecord`]s into one
//! process-wide [`Recorder`]. The design constraints, in order:
//!
//! * **Zero-cost when disabled.** Recording is off by default; the only
//!   cost on a hot path is one relaxed atomic load, and payload
//!   construction is behind a closure that never runs while disabled.
//!   Simulation outputs are bit-identical either way — the recorder
//!   observes, it never participates.
//! * **Deterministic.** No wall-clock reads anywhere: records carry the
//!   *simulated* time of the subsystem that emitted them (when one
//!   exists) and a process-wide monotonic sequence number. Under
//!   `mpshare_par::set_serial(true)` two identical runs produce
//!   byte-identical drains; under parallel execution only the sequence
//!   interleaving varies, never the set of records.
//! * **Std-only and sharded**, like `mpshare-profiler`'s `ProfileCache`:
//!   records land in one of 16 mutex-guarded shards selected by sequence
//!   number, so concurrent emitters rarely contend; [`Recorder::drain`]
//!   restores the global order by sequence number.

use crate::metrics::MetricsRegistry;
use crate::timeline::TimelineStore;
use serde_json::Value;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Which control-plane subsystem a record belongs to. Tracks map 1:1 to
/// Perfetto process tracks in the merged export (see [`crate::perfetto`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Track {
    /// Collocation plan search: greedy/best-fit/exhaustive decision
    /// audits.
    Planner,
    /// The online dispatcher: dispatch, retry, backoff.
    Scheduler,
    /// The MPS runner: one span per engine run, fault-domain rewrites.
    Daemon,
    /// Plan execution legs and harness experiment phases.
    Executor,
}

impl Track {
    /// Stable display name (also the Perfetto process name).
    pub fn name(self) -> &'static str {
        match self {
            Track::Planner => "planner",
            Track::Scheduler => "scheduler",
            Track::Daemon => "daemon",
            Track::Executor => "executor",
        }
    }

    /// The pid of this track in the merged Perfetto export. Pids 0–2 are
    /// taken by the engine timeline (device counters, task spans, kernel
    /// spans).
    pub fn pid(self) -> u64 {
        match self {
            Track::Planner => 3,
            Track::Scheduler => 4,
            Track::Daemon => 5,
            Track::Executor => 6,
        }
    }
}

/// One recorded span or point event.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsRecord {
    /// Process-wide monotonic sequence number (drain order).
    pub seq: u64,
    pub track: Track,
    /// Dotted event name, e.g. `"plan.candidate"` or `"sched.dispatch"`.
    pub name: String,
    /// Simulated time in seconds, when the emitting subsystem has one
    /// (the online scheduler, the engine-facing runner). `None` for
    /// offline work such as plan search.
    pub sim_start: Option<f64>,
    /// Simulated duration in seconds; `Some` makes this a span, `None` a
    /// point event.
    pub sim_dur: Option<f64>,
    /// Structured payload — the decision audit, queue state, etc.
    pub payload: Value,
}

const SHARDS: usize = 16;
/// Per-shard record cap: bounds recorder memory like `EventLog`'s
/// capacity bounds the engine log (records past the cap are counted and
/// dropped).
const SHARD_CAPACITY: usize = 1 << 16;

/// The sharded recorder. One process-wide instance lives behind
/// [`global`]; tests may construct private ones.
#[derive(Debug)]
pub struct Recorder {
    enabled: AtomicBool,
    seq: AtomicU64,
    shards: [Mutex<Vec<ObsRecord>>; SHARDS],
    dropped: AtomicU64,
    metrics: MetricsRegistry,
    timelines: TimelineStore,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            enabled: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
            dropped: AtomicU64::new(0),
            metrics: MetricsRegistry::new(),
            timelines: TimelineStore::new(),
        }
    }

    /// The single relaxed load every instrumentation site pays.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Enabling also registers the default
    /// metric families so exports always carry the full series set (at
    /// zero) even when a code path never ran.
    pub fn set_enabled(&self, on: bool) {
        if on {
            self.metrics.register_defaults();
        }
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The metrics registry that shares this recorder's lifecycle.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The timeline store (simulated-time series and exact quantile
    /// tracks) that shares this recorder's lifecycle.
    pub fn timelines(&self) -> &TimelineStore {
        &self.timelines
    }

    /// Emits one record (no-op while disabled). The payload closure only
    /// runs when recording is on, so call sites pay nothing to build
    /// decision audits on the disabled path.
    pub fn emit(
        &self,
        track: Track,
        name: &str,
        sim_start: Option<f64>,
        sim_dur: Option<f64>,
        payload: impl FnOnce() -> Value,
    ) {
        if !self.is_enabled() {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let record = ObsRecord {
            seq,
            track,
            name: name.to_string(),
            sim_start,
            sim_dur,
            payload: payload(),
        };
        let mut shard = self.shards[(seq as usize) % SHARDS]
            .lock()
            .expect("recorder shard poisoned");
        if shard.len() >= SHARD_CAPACITY {
            drop(shard);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        shard.push(record);
    }

    /// Records dropped after a shard hit its capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Takes every record out of the shards, restoring the global
    /// sequence order.
    pub fn drain(&self) -> Vec<ObsRecord> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.append(&mut shard.lock().expect("recorder shard poisoned"));
        }
        out.sort_by_key(|r| r.seq);
        out
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("recorder shard poisoned").len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears all records, the sequence counter, the drop counter, and
    /// the metrics registry — a fresh start for tests and repeated
    /// harness invocations.
    pub fn reset(&self) {
        for shard in &self.shards {
            shard.lock().expect("recorder shard poisoned").clear();
        }
        self.seq.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
        self.metrics.reset();
        self.timelines.reset();
        if self.is_enabled() {
            self.metrics.register_defaults();
        }
    }
}

/// The process-wide recorder every crate emits into.
pub fn global() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(Recorder::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn disabled_recorder_ignores_emits() {
        let r = Recorder::new();
        let mut built = false;
        r.emit(Track::Planner, "x", None, None, || {
            built = true;
            Value::Null
        });
        assert!(!built, "payload closure must not run while disabled");
        assert!(r.is_empty());
    }

    #[test]
    fn records_drain_in_sequence_order() {
        let r = Recorder::new();
        r.set_enabled(true);
        for i in 0..100 {
            r.emit(
                Track::Scheduler,
                "e",
                Some(i as f64),
                None,
                || json!({"i": i}),
            );
        }
        let drained = r.drain();
        assert_eq!(drained.len(), 100);
        for (i, rec) in drained.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
            assert_eq!(rec.sim_start, Some(i as f64));
        }
        assert!(r.is_empty(), "drain removes everything");
    }

    #[test]
    fn reset_clears_buffered_records() {
        let r = Recorder::new();
        r.set_enabled(true);
        r.emit(Track::Daemon, "a", None, None, || Value::Null);
        assert_eq!(r.len(), 1);
        r.reset();
        assert!(r.is_empty());
    }

    #[test]
    fn spans_and_instants_are_distinguished() {
        let r = Recorder::new();
        r.set_enabled(true);
        r.emit(Track::Executor, "span", Some(1.0), Some(2.0), || {
            Value::Null
        });
        r.emit(Track::Executor, "instant", Some(3.0), None, || Value::Null);
        let d = r.drain();
        assert_eq!(d[0].sim_dur, Some(2.0));
        assert_eq!(d[1].sim_dur, None);
    }

    #[test]
    fn concurrent_emitters_never_lose_records() {
        let r = Recorder::new();
        r.set_enabled(true);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let r = &r;
                scope.spawn(move || {
                    for i in 0..200 {
                        r.emit(Track::Planner, "p", None, None, || json!({"t": t, "i": i}));
                    }
                });
            }
        });
        let drained = r.drain();
        assert_eq!(drained.len(), 8 * 200);
        // Sequence numbers are exactly 0..n after a drain.
        for (i, rec) in drained.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
        }
    }

    #[test]
    fn capacity_drops_are_counted() {
        let r = Recorder::new();
        r.set_enabled(true);
        // One shard fills after SHARD_CAPACITY records land in it; with
        // sequence-striped sharding that takes 16 * capacity emits total.
        for _ in 0..(SHARDS * SHARD_CAPACITY + SHARDS) {
            r.emit(Track::Planner, "x", None, None, || Value::Null);
        }
        assert_eq!(r.dropped(), SHARDS as u64);
        assert_eq!(r.len(), SHARDS * SHARD_CAPACITY);
    }

    #[test]
    fn track_names_and_pids_are_stable() {
        assert_eq!(Track::Planner.pid(), 3);
        assert_eq!(Track::Scheduler.pid(), 4);
        assert_eq!(Track::Daemon.pid(), 5);
        assert_eq!(Track::Executor.pid(), 6);
        assert_eq!(Track::Daemon.name(), "daemon");
    }
}
