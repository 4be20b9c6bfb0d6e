//! Cross-crate observability integration through the facade crate: the
//! recorder must be invisible to simulation results, and — when enabled —
//! must cover every control-plane track and the required metric series.
//! The engine-only Chrome-tracing export (`obs::chrome_trace`) is checked
//! here too, on runs made through the MPS runner.

use mpshare::core::{
    ArrivingWorkflow, ExecutorConfig, MetricPriority, OnlineScheduler, Planner, PlannerStrategy,
};
use mpshare::gpusim::{
    ClientProgram, DeviceSpec, Engine, EngineConfig, EngineScratch, FaultPlan, KernelSpec,
    LaunchConfig, RunResult, SharingMode, TaskProgram, ValidatedPrograms,
};
use mpshare::mps::{GpuRunner, GpuSharing};
use mpshare::obs;
use mpshare::obs::chrome_trace;
use mpshare::profiler::ProfileStore;
use mpshare::types::{Fraction, IdAllocator, MemBytes, Seconds, TaskId};
use mpshare::workloads::{BenchmarkKind, ProblemSize, WorkflowSpec};
use std::sync::{Mutex, MutexGuard};

fn device() -> DeviceSpec {
    DeviceSpec::a100x()
}

/// Serializes the tests that run through `GpuRunner`: the global recorder
/// is process-wide, and a runner call on another test thread while the
/// recording test has it enabled would land in that test's timelines.
fn recorder_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn queue() -> Vec<WorkflowSpec> {
    vec![
        WorkflowSpec::uniform(BenchmarkKind::AthenaPk, ProblemSize::X4, 2),
        WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 20),
    ]
}

fn evaluate() -> String {
    let d = device();
    let specs = queue();
    let mut store = ProfileStore::new();
    store.profile_workflows(&d, &specs).unwrap();
    let profiles: Vec<_> = specs
        .iter()
        .map(|w| mpshare::core::workflow_profile(&store, w).unwrap())
        .collect();
    let plan = Planner::new(d.clone(), MetricPriority::Throughput)
        .plan(&profiles, PlannerStrategy::Greedy)
        .unwrap();
    let executor = mpshare::core::Executor::new(ExecutorConfig::new(d));
    let report = executor.evaluate_plan(&specs, &plan).unwrap();
    serde_json::to_string(&report).unwrap()
}

/// The whole enabled-recorder story lives in one test: the global
/// recorder is process-wide, so splitting this into several #[test]
/// functions would race on the enabled flag.
#[test]
fn recording_is_invisible_to_results_and_covers_all_tracks() {
    let _guard = recorder_lock();
    // 1. Bit-identity: the exact same pipeline, recorded vs. not,
    //    serializes to the same bytes. Recording must observe, never
    //    perturb.
    let silent = evaluate();
    obs::set_enabled(true);
    obs::recorder().drain();
    let recorded = evaluate();
    assert_eq!(
        silent, recorded,
        "enabling the recorder changed simulation results"
    );

    // 2. Exercise the online scheduler so the Scheduler track and
    //    goodput gauge fill in too.
    let run_online = || {
        let d = device();
        let arrivals: Vec<ArrivingWorkflow> = queue()
            .into_iter()
            .map(|spec| ArrivingWorkflow {
                spec,
                arrival: Seconds::ZERO,
            })
            .collect();
        let mut store = ProfileStore::new();
        let specs: Vec<WorkflowSpec> = arrivals.iter().map(|a| a.spec.clone()).collect();
        store.profile_workflows(&d, &specs).unwrap();
        let scheduler = OnlineScheduler::new(
            ExecutorConfig::new(d.clone()),
            Planner::new(d, MetricPriority::balanced_product()),
            PlannerStrategy::Auto,
        );
        scheduler.run(&arrivals, &store).unwrap()
    };
    let outcome = run_online();
    assert!(outcome.goodput > 0.0);

    // 3. Every control-plane track recorded something.
    let records = obs::recorder().drain();
    obs::set_enabled(false);
    for track in [
        obs::Track::Planner,
        obs::Track::Scheduler,
        obs::Track::Daemon,
        obs::Track::Executor,
    ] {
        assert!(
            records.iter().any(|r| r.track == track),
            "no records on the {track:?} track"
        );
    }
    // Plan-search spans carry decision audits.
    assert!(records
        .iter()
        .any(|r| r.name == "plan.candidate" && r.payload.get("accepted").is_some()));
    // The merged trace renders the control tracks under their pids.
    let trace = obs::merged_chrome_trace_with_timelines(None, &records, &obs::TimelineStore::new());
    let parsed: serde_json::Value = serde_json::from_str(&trace).unwrap();
    let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
    for pid in [3u64, 4, 5, 6] {
        assert!(
            events
                .iter()
                .any(|e| e.get("pid").and_then(|p| p.as_u64()) == Some(pid)),
            "merged trace is missing pid {pid}"
        );
    }

    // 4. The metric families the paper's evaluation needs are populated.
    let metrics = obs::metrics();
    for counter in [
        obs::names::PROFILE_CACHE_HITS,
        obs::names::ENGINE_RUNS,
        obs::names::ENGINE_RATE_SOLVES,
        obs::names::PLAN_CALLS,
        obs::names::PLAN_CANDIDATES,
        obs::names::SCHED_DISPATCHES,
        obs::names::TASKS_COMPLETED,
    ] {
        assert!(
            metrics.counter_get(counter) > 0,
            "counter {counter} never incremented"
        );
    }
    assert!(metrics.gauge_get(obs::names::GOODPUT) > 0.0);
    assert!(metrics.gauge_get(obs::names::ENGINE_SIM_SECONDS) > 0.0);
    // Fault counters exist (zero here: nothing faulted) so dashboards
    // never see a missing series.
    let prom = metrics.to_prometheus();
    assert!(prom.contains(obs::names::FAULTS_INJECTED));
    assert!(prom.contains(obs::names::CLIENTS_FAILED));
    assert!(prom.contains(obs::names::GROUP_MAKESPAN_SECONDS));

    // 5. Timelines: the export is a pure function of the observation
    //    multiset, so the same pipeline run serially and with the
    //    worker pool serializes to byte-identical JSON.
    let timeline_json = |serial: bool| {
        mpshare::par::set_serial(serial);
        obs::set_enabled(true);
        obs::recorder().reset();
        let _ = evaluate();
        let _ = run_online();
        let json = serde_json::to_string(&obs::timelines().to_json()).unwrap();
        obs::set_enabled(false);
        mpshare::par::set_serial(false);
        json
    };
    let parallel = timeline_json(false);
    let serial = timeline_json(true);
    assert_eq!(
        serial, parallel,
        "timeline export depends on the worker schedule"
    );

    // The tracks the report and validate-obs consume are present, with
    // exact quantiles in percentile order.
    let parsed: serde_json::Value = serde_json::from_str(&serial).unwrap();
    let series = parsed.get("series").unwrap();
    for name in [
        obs::series::DEVICE_SM_UTIL,
        obs::series::DEVICE_BW_UTIL,
        obs::series::DEVICE_POWER_W,
        obs::series::SCHED_QUEUE_DEPTH,
    ] {
        assert!(series.get(name).is_some(), "missing timeline series {name}");
    }
    let quantiles = parsed.get("quantiles").unwrap();
    for name in [
        obs::series::SCHED_QUEUE_WAIT,
        obs::series::SCHED_TURNAROUND,
        obs::series::CLIENT_TURNAROUND,
    ] {
        let q = quantiles
            .get(name)
            .unwrap_or_else(|| panic!("missing quantile track {name}"));
        let p = |key: &str| q.get(key).and_then(|v| v.as_f64()).unwrap();
        assert!(
            p("p50") <= p("p90") && p("p90") <= p("p99") && p("p99") <= p("p999"),
            "quantile ordering violated for {name}"
        );
    }
}

#[test]
fn attribution_components_close_the_slowdown_identity() {
    // attribute() needs no recorder: it is a pure function of the run.
    let d = device();
    let mut ids = IdAllocator::new();
    let programs: Vec<_> = queue()
        .iter()
        .map(|w| w.to_client_program(&d, &mut ids).unwrap())
        .collect();
    let config = EngineConfig::new(d, SharingMode::mps_uniform(2)).with_event_log(true);
    let roster = ValidatedPrograms::new(&config.device, programs.clone()).unwrap();
    let result = Engine::new(config.clone(), roster, EngineScratch::default())
        .unwrap()
        .run()
        .unwrap()
        .result;
    let report = obs::attribute(&config, &programs, &result).unwrap();
    assert_eq!(report.clients.len(), 2);
    for c in &report.clients {
        assert!(c.exact);
        let total = c.sm_partition + c.bandwidth_contention + c.power_throttle + c.memory_wait;
        assert!(
            (c.excess - total).abs() < 1e-9,
            "client {}: residual {}",
            c.client,
            c.excess - total
        );
    }
}

fn run_pair() -> RunResult {
    let device = device();
    let mut ids = IdAllocator::new();
    let programs = vec![
        WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 2)
            .to_client_program(&device, &mut ids)
            .unwrap(),
        WorkflowSpec::uniform(BenchmarkKind::AthenaPk, ProblemSize::X1, 3)
            .to_client_program(&device, &mut ids)
            .unwrap(),
    ];
    let _guard = recorder_lock();
    GpuRunner::new(device)
        .run(&GpuSharing::mps_default(2), programs)
        .unwrap()
}

fn trace_events(result: &RunResult) -> Vec<serde_json::Value> {
    let parsed: serde_json::Value = serde_json::from_str(&chrome_trace(result)).unwrap();
    parsed["traceEvents"].as_array().unwrap().clone()
}

#[test]
fn trace_is_valid_json_with_expected_structure() {
    let result = run_pair();
    let events = trace_events(&result);
    assert!(!events.is_empty());

    let spans: Vec<&serde_json::Value> = events.iter().filter(|e| e["ph"] == "X").collect();
    assert_eq!(spans.len(), 5, "2 Kripke + 3 AthenaPK tasks");
    // All spans have non-negative durations and land within the run.
    let makespan_us = result.makespan.value() * 1e6;
    for s in &spans {
        let ts = s["ts"].as_f64().unwrap();
        let dur = s["dur"].as_f64().unwrap();
        assert!(dur >= 0.0);
        assert!(ts + dur <= makespan_us + 1.0);
    }

    let counters = events.iter().filter(|e| e["ph"] == "C").count();
    assert!(counters >= 4, "counter samples present");
    let metas = events.iter().filter(|e| e["ph"] == "M").count();
    assert_eq!(metas, 2, "one thread-name record per client");
}

#[test]
fn kernel_spans_appear_when_event_log_recorded() {
    let device = device();
    let mut ids = IdAllocator::new();
    let program = WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 1)
        .to_client_program(&device, &mut ids)
        .unwrap();
    let kernels = program.tasks[0].kernels.len();
    let result = {
        let _guard = recorder_lock();
        GpuRunner::new(device)
            .with_event_log(true)
            .run(&GpuSharing::mps_default(1), vec![program])
            .unwrap()
    };
    let kernel_spans = trace_events(&result)
        .iter()
        .filter(|e| e["ph"] == "X" && e["pid"] == 2)
        .count();
    assert_eq!(kernel_spans, kernels);
}

#[test]
fn task_spans_tile_each_client_timeline() {
    let result = run_pair();
    for client in &result.clients {
        let mut cursor = client.started;
        for completion in &client.completions {
            assert!(completion.at >= cursor);
            cursor = completion.at;
        }
        assert_eq!(cursor, client.finished);
    }
}

fn long_program(label: &str, id: u64) -> ClientProgram {
    let device = device();
    let kernel = KernelSpec::from_launch(
        &device,
        LaunchConfig::dense(216 * 64, 1024),
        Seconds::new(4.0),
    )
    .with_sm_demand(Fraction::new(0.3));
    let mut task = TaskProgram::new(TaskId::new(id), label, MemBytes::from_mib(256));
    task.push_kernel(kernel);
    let mut program = ClientProgram::new(label);
    program.push_task(task);
    program
}

/// Two long MPS clients with a client fault on client 0 at t = 1 s.
fn faulted_pair(event_log: bool) -> RunResult {
    let mut faults = FaultPlan::new();
    faults.push_client_fault(Seconds::new(1.0), 0);
    let _guard = recorder_lock();
    GpuRunner::new(device())
        .with_event_log(event_log)
        .run_with_faults(
            &GpuSharing::mps_default(2),
            vec![long_program("victim", 0), long_program("sibling", 1)],
            &faults,
        )
        .unwrap()
}

/// Faulted work is rendered, not dropped. An MPS-widened client fault
/// must produce red "aborted task" spans for the lost in-flight work, a
/// thread-scoped `client fault` instant per victim, and a global-scoped
/// `server crash` instant on the device track.
#[test]
fn faulted_run_renders_aborted_spans_and_fault_markers() {
    let result = faulted_pair(true);
    assert!(result.clients.iter().all(|c| c.failed), "MPS widens faults");
    let events = trace_events(&result);

    let aborted: Vec<&serde_json::Value> = events
        .iter()
        .filter(|e| e["ph"] == "X" && e["name"] == "aborted task")
        .collect();
    assert_eq!(aborted.len(), 2, "both clients lose in-flight work");
    for span in &aborted {
        assert_eq!(span["cname"], "terrible", "aborted work renders red");
        assert_eq!(span["args"]["failed"], true);
    }

    let client_faults = events
        .iter()
        .filter(|e| e["ph"] == "i" && e["name"] == "client fault")
        .count();
    assert_eq!(client_faults, 2, "one instant marker per victim");

    let crash = events
        .iter()
        .find(|e| e["ph"] == "i" && e["name"] == "server crash")
        .expect("shared-server crash marker");
    assert_eq!(crash["pid"], 0, "crash lands on the device track");
    assert_eq!(crash["s"], "g", "global-scoped instant");
}

/// A contained fault (no event log) still renders the aborted span from
/// the client outcome alone — markers need the log, spans do not.
#[test]
fn aborted_span_renders_without_event_log() {
    let events = trace_events(&faulted_pair(false));
    assert!(events
        .iter()
        .any(|e| e["ph"] == "X" && e["name"] == "aborted task"));
    assert!(
        !events.iter().any(|e| e["ph"] == "i"),
        "no instants without an event log"
    );
}
