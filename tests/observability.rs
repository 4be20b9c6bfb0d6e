//! Cross-crate observability integration through the facade crate: the
//! recorder must be invisible to simulation results, and — when enabled —
//! must cover every control-plane track and the required metric series.

use mpshare::core::{
    ArrivingWorkflow, ExecutorConfig, MetricPriority, OnlineScheduler, Planner, PlannerStrategy,
};
use mpshare::gpusim::{
    DeviceSpec, Engine, EngineConfig, EngineScratch, SharingMode, ValidatedPrograms,
};
use mpshare::obs;
use mpshare::profiler::ProfileStore;
use mpshare::types::{IdAllocator, Seconds};
use mpshare::workloads::{BenchmarkKind, ProblemSize, WorkflowSpec};

fn device() -> DeviceSpec {
    DeviceSpec::a100x()
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
    let trace = obs::merged_chrome_trace(None, &records);
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
