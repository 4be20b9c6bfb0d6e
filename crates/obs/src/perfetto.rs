//! Unified Chrome-tracing / Perfetto export.
//!
//! This module owns the full timeline story: the engine-only export,
//! [`chrome_trace`] (pids 0–2: device counters, task spans, kernel
//! spans), and the merged export that adds
//! one process track per control-plane [`Track`] (pids 3–6) so a single
//! trace shows *why* a group was formed (planner decision audits), *how*
//! it was dispatched (scheduler/daemon spans), and *what* it did to the
//! GPU (kernel timeline + counters).
//!
//! Open either artifact at <https://ui.perfetto.dev> (drag-and-drop) or
//! `chrome://tracing`.
//!
//! Faulted work is rendered rather than dropped: a client aborted
//! mid-task gets a span for the in-flight work colored `terrible` (the
//! Chrome tracing red), each `ClientFault` becomes a thread-scoped
//! instant marker, and `ServerCrash` a global-scoped one.

use crate::recorder::{ObsRecord, Track};
use crate::timeline::TimelineStore;
use mpshare_gpusim::{EventKind, RunResult};
use serde::Serialize;
use serde_json::Value;

/// The pid of the timeline-store counter tracks in the merged export
/// (pids 0–2 are the engine timeline, 3–6 the control-plane tracks).
pub const TIMELINE_PID: u64 = 7;

/// One Chrome-tracing event (the subset of fields we emit). Field names
/// match the Chrome tracing JSON schema exactly (`cname` is the Chrome
/// color name, `s` the instant scope).
#[derive(Debug, Clone, Serialize)]
pub struct TraceEvent {
    pub name: String,
    pub ph: &'static str,
    /// Timestamp, microseconds.
    pub ts: f64,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub dur: Option<f64>,
    pub pid: u64,
    pub tid: u64,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub args: Option<Value>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub cname: Option<&'static str>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub s: Option<&'static str>,
}

const SECONDS_TO_US: f64 = 1e6;

impl TraceEvent {
    fn span(name: String, ts: f64, dur: f64, pid: u64, tid: u64, args: Option<Value>) -> Self {
        TraceEvent {
            name,
            ph: "X",
            ts,
            dur: Some(dur.max(0.0)),
            pid,
            tid,
            args,
            cname: None,
            s: None,
        }
    }

    fn meta(name: &'static str, pid: u64, tid: u64, value: &str) -> Self {
        TraceEvent {
            name: name.to_string(),
            ph: "M",
            ts: 0.0,
            dur: None,
            pid,
            tid,
            args: Some(serde_json::json!({ "name": value })),
            cname: None,
            s: None,
        }
    }
}

/// The engine timeline: device counters (pid 0), per-client task spans
/// (pid 1), kernel spans (pid 2), and — new in this layer — failed
/// in-flight work plus fault/crash instant markers.
pub fn engine_events(result: &RunResult) -> Vec<TraceEvent> {
    let mut events: Vec<TraceEvent> = Vec::new();

    // Thread/track names.
    for (i, client) in result.clients.iter().enumerate() {
        events.push(TraceEvent::meta("thread_name", 1, i as u64, &client.label));
    }

    // Task spans, reconstructed from completion times: a task occupies the
    // client from its predecessor's completion (or the client's start).
    for (i, client) in result.clients.iter().enumerate() {
        let mut cursor = client.started;
        for completion in &client.completions {
            let start = cursor;
            let end = completion.at;
            events.push(TraceEvent::span(
                completion.label.clone(),
                start.value() * SECONDS_TO_US,
                (end.value() - start.value()) * SECONDS_TO_US,
                1,
                i as u64,
                Some(serde_json::json!({ "task": completion.task.to_string() })),
            ));
            cursor = end;
        }
        // An aborted client's in-flight task produced no completion but
        // did occupy the GPU until the abort: render the lost work as a
        // red span instead of leaving a timeline hole.
        if client.failed && client.finished > cursor {
            let mut span = TraceEvent::span(
                "aborted task".to_string(),
                cursor.value() * SECONDS_TO_US,
                (client.finished.value() - cursor.value()) * SECONDS_TO_US,
                1,
                i as u64,
                Some(serde_json::json!({
                    "failed": true,
                    "wasted_progress_s": client.wasted_progress.value(),
                })),
            );
            span.cname = Some("terrible");
            events.push(span);
        }
    }

    // Kernel-level spans (pid 2) when the run carried an event log.
    for (client, task, kernel_index, start, end) in result.events.kernel_spans() {
        events.push(TraceEvent::span(
            format!("kernel {kernel_index}"),
            start.value() * SECONDS_TO_US,
            (end.value() - start.value()) * SECONDS_TO_US,
            2,
            client as u64,
            Some(serde_json::json!({ "task": task.to_string() })),
        ));
    }

    // Fault instants from the event log: per-client faults are
    // thread-scoped markers on the client's track, server crashes are
    // global-scoped markers on the device track.
    for event in result.events.events() {
        match &event.kind {
            EventKind::ClientFault { origin } => {
                events.push(TraceEvent {
                    name: "client fault".to_string(),
                    ph: "i",
                    ts: event.at.value() * SECONDS_TO_US,
                    dur: None,
                    pid: 1,
                    tid: event.client as u64,
                    args: Some(serde_json::json!({ "origin": origin })),
                    cname: Some("terrible"),
                    s: Some("t"),
                });
            }
            EventKind::ServerCrash { origin } => {
                events.push(TraceEvent {
                    name: "server crash".to_string(),
                    ph: "i",
                    ts: event.at.value() * SECONDS_TO_US,
                    dur: None,
                    pid: 0,
                    tid: 0,
                    args: Some(serde_json::json!({ "origin": origin })),
                    cname: Some("terrible"),
                    s: Some("g"),
                });
            }
            _ => {}
        }
    }

    // Device counters from the exact segments.
    for segment in result.telemetry.segments() {
        let ts = segment.start.value() * SECONDS_TO_US;
        let counters = [
            ("sm_util", segment.sm_util * 100.0),
            ("bw_util", segment.bw_util * 100.0),
            ("power_w", segment.power.watts()),
            ("clock", segment.clock_factor * 100.0),
        ];
        for (name, value) in counters {
            events.push(TraceEvent {
                name: name.into(),
                ph: "C",
                ts,
                dur: None,
                pid: 0,
                tid: 0,
                args: Some(serde_json::json!({ name: value })),
                cname: None,
                s: None,
            });
        }
    }

    events
}

/// Control-plane records as trace events on their track's pid. Records
/// with a simulated time land at that time; offline records (plan search
/// has no simulation clock) land at their sequence number in
/// microseconds, which keeps them ordered and near the origin.
pub fn control_events(records: &[ObsRecord]) -> Vec<TraceEvent> {
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut seen: Vec<Track> = Vec::new();
    for record in records {
        if !seen.contains(&record.track) {
            seen.push(record.track);
            events.push(TraceEvent::meta(
                "process_name",
                record.track.pid(),
                0,
                record.track.name(),
            ));
        }
        let ts = match record.sim_start {
            Some(at) => at * SECONDS_TO_US,
            None => record.seq as f64,
        };
        let args = if record.payload == Value::Null {
            None
        } else {
            Some(record.payload.clone())
        };
        match record.sim_dur {
            Some(dur) => events.push(TraceEvent::span(
                record.name.clone(),
                ts,
                dur * SECONDS_TO_US,
                record.track.pid(),
                0,
                args,
            )),
            None => events.push(TraceEvent {
                name: record.name.clone(),
                ph: "i",
                ts,
                dur: None,
                pid: record.track.pid(),
                tid: 0,
                args,
                cname: None,
                s: Some("t"),
            }),
        }
    }
    events
}

/// Timeline-store series as Perfetto counter tracks (ph `"C"`) on
/// [`TIMELINE_PID`]: one counter track per series, one sample per span
/// start, values in the series' native unit. Deterministic — series
/// iterate in name order, samples in canonical `(t, dur, v)` order.
pub fn timeline_events(store: &TimelineStore) -> Vec<TraceEvent> {
    let snapshot = store.series_snapshot();
    if snapshot.is_empty() {
        return Vec::new();
    }
    let mut events = vec![TraceEvent::meta(
        "process_name",
        TIMELINE_PID,
        0,
        "timeline",
    )];
    for (tid, (name, samples)) in snapshot.iter().enumerate() {
        for s in samples {
            events.push(TraceEvent {
                name: name.clone(),
                ph: "C",
                ts: s.t * SECONDS_TO_US,
                dur: None,
                pid: TIMELINE_PID,
                tid: tid as u64,
                args: Some(serde_json::json!({ "value": s.v })),
                cname: None,
                s: None,
            });
        }
    }
    events
}

fn render(events: &[TraceEvent]) -> String {
    let events = serde_json::to_value(&events.to_vec());
    serde_json::to_string(&serde_json::json!({ "traceEvents": events }))
        .expect("trace serialization cannot fail")
}

/// Engine-only Chrome-tracing JSON of one run (what `mpshare-sched
/// --trace` writes per group).
pub fn chrome_trace(result: &RunResult) -> String {
    render(&engine_events(result))
}

/// The unified export — the full picture in one artifact: the engine
/// timeline (when a run is given), the control-plane tracks, and the
/// timeline store's counter tracks on [`TIMELINE_PID`] (none for an empty
/// store). Engine process tracks get process names here (the engine-only
/// export leaves them implicit).
pub fn merged_chrome_trace_with_timelines(
    result: Option<&RunResult>,
    records: &[ObsRecord],
    timelines: &TimelineStore,
) -> String {
    let mut events: Vec<TraceEvent> = Vec::new();
    if let Some(result) = result {
        events.push(TraceEvent::meta("process_name", 0, 0, "device"));
        events.push(TraceEvent::meta("process_name", 1, 0, "clients"));
        events.push(TraceEvent::meta("process_name", 2, 0, "kernels"));
        events.extend(engine_events(result));
    }
    events.extend(control_events(records));
    events.extend(timeline_events(timelines));
    render(&events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use serde_json::json;

    fn sample_records() -> Vec<ObsRecord> {
        let r = Recorder::new();
        r.set_enabled(true);
        r.emit(
            Track::Planner,
            "plan.candidate",
            None,
            None,
            || json!({"accepted": true}),
        );
        r.emit(
            Track::Scheduler,
            "sched.dispatch",
            Some(1.0),
            Some(2.5),
            || json!({"queue_depth": 3}),
        );
        r.emit(Track::Daemon, "daemon.spawn", Some(0.5), None, || {
            Value::Null
        });
        r.drain()
    }

    #[test]
    fn control_events_cover_all_tracks_with_names() {
        let events = control_events(&sample_records());
        let metas: Vec<&TraceEvent> = events.iter().filter(|e| e.ph == "M").collect();
        assert_eq!(metas.len(), 3, "one process_name per distinct track");
        assert!(metas.iter().any(|m| m.pid == Track::Planner.pid()));
        assert!(metas.iter().any(|m| m.pid == Track::Scheduler.pid()));
        assert!(metas.iter().any(|m| m.pid == Track::Daemon.pid()));
    }

    #[test]
    fn spans_use_sim_time_and_instants_mark_points() {
        let events = control_events(&sample_records());
        let span = events.iter().find(|e| e.ph == "X").expect("one span");
        assert_eq!(span.ts, 1.0 * SECONDS_TO_US);
        assert_eq!(span.dur, Some(2.5 * SECONDS_TO_US));
        assert_eq!(span.pid, Track::Scheduler.pid());
        let instants = events.iter().filter(|e| e.ph == "i").count();
        assert_eq!(instants, 2, "offline planner record + daemon point event");
    }

    #[test]
    fn offline_records_fall_back_to_sequence_timestamps() {
        let events = control_events(&sample_records());
        let planner = events
            .iter()
            .find(|e| e.pid == Track::Planner.pid() && e.ph == "i")
            .unwrap();
        assert_eq!(planner.ts, 0.0, "seq 0 lands at the origin");
    }

    #[test]
    fn timeline_counter_tracks_render_on_their_own_pid() {
        let store = TimelineStore::new();
        store.series_push_span("device.sm_util", 0.0, 2.0, 0.5);
        store.series_push_span("device.sm_util", 2.0, 1.0, 1.0);
        store.quantile_observe("lat", 3.0); // quantiles are JSON-only
        let events = timeline_events(&store);
        assert_eq!(events[0].ph, "M");
        assert_eq!(events[0].pid, TIMELINE_PID);
        let counters: Vec<&TraceEvent> = events.iter().filter(|e| e.ph == "C").collect();
        assert_eq!(counters.len(), 2);
        assert_eq!(counters[0].ts, 0.0);
        assert_eq!(counters[1].ts, 2.0 * SECONDS_TO_US);
        let trace = merged_chrome_trace_with_timelines(None, &sample_records(), &store);
        let parsed: Value = serde_json::from_str(&trace).unwrap();
        assert!(parsed.get("traceEvents").is_some());
        assert!(trace.contains("device.sm_util"));
    }

    #[test]
    fn merged_trace_is_valid_json() {
        let trace =
            merged_chrome_trace_with_timelines(None, &sample_records(), &TimelineStore::new());
        let parsed: Value = serde_json::from_str(&trace).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        // Null payloads are omitted entirely rather than serialized.
        assert!(!trace.contains("\"args\":null"));
    }
}
