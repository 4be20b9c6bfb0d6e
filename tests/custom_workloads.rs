//! User-defined (non-benchmark) workloads through the full pipeline:
//! profiling, interference prediction, advice, planning, and execution
//! all operate on [`TaskSource::Custom`] entries exactly like on the
//! paper's seven calibrated benchmarks.

use mpshare::core::{
    workflow_profile, Executor, ExecutorConfig, MetricPriority, Planner, PlannerStrategy,
};
use mpshare::gpusim::DeviceSpec;
use mpshare::profiler::{ProfileKey, ProfileStore};
use mpshare::workloads::{
    BenchmarkKind, ProblemSize, SyntheticSpec, TaskSource, WorkflowSpec, WorkflowTask,
};

fn device() -> DeviceSpec {
    DeviceSpec::a100x()
}

fn custom(name: &str, sm: f64, duty: f64, duration: f64) -> WorkflowTask {
    WorkflowTask::custom(
        name,
        SyntheticSpec {
            sm_demand: sm,
            bw_demand: 0.05,
            duty_cycle: duty,
            duration,
            memory_mib: 2048,
            kernels: 16,
            cache_sensitivity: 0.2,
            client_sensitivity: 0.05,
        },
        3,
    )
}

#[test]
fn custom_workloads_flow_through_profiling_planning_and_execution() {
    let d = device();
    let queue = vec![
        WorkflowSpec::new(vec![custom("cfd-a", 0.25, 0.5, 30.0)]),
        WorkflowSpec::new(vec![custom("cfd-b", 0.30, 0.6, 25.0)]),
        WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 15),
    ];
    let mut store = ProfileStore::new();
    let runs = store.profile_workflows(&d, &queue).unwrap();
    assert_eq!(runs, 3);

    let profiles: Vec<_> = queue
        .iter()
        .map(|w| workflow_profile(&store, w).unwrap())
        .collect();
    // The custom profile reflects the spec's declared character.
    assert!(
        (profiles[0].avg_sm_util.value() - 12.5).abs() < 2.0,
        "cfd-a avg SM {} (expected ~0.25 × 0.5 duty)",
        profiles[0].avg_sm_util
    );
    assert!(profiles[0].label.contains("cfd-a"));

    let planner = Planner::new(d.clone(), MetricPriority::balanced_product());
    let plan = planner.plan(&profiles, PlannerStrategy::Auto).unwrap();
    plan.validate(&d, &profiles).unwrap();

    let executor = Executor::new(ExecutorConfig::new(d));
    let report = executor.evaluate_plan(&queue, &plan).unwrap();
    assert_eq!(report.shared.tasks, 3 + 3 + 15);
    assert!(
        report.metrics.throughput_gain > 1.3,
        "custom queue gain {}",
        report.metrics.throughput_gain
    );
}

#[test]
fn custom_profiles_are_cached_by_name() {
    let d = device();
    let queue = vec![
        WorkflowSpec::new(vec![custom("same-name", 0.25, 0.5, 10.0)]),
        WorkflowSpec::new(vec![custom("same-name", 0.25, 0.5, 10.0)]),
        WorkflowSpec::new(vec![custom("other", 0.4, 0.7, 10.0)]),
    ];
    let mut store = ProfileStore::new();
    let runs = store.profile_workflows(&d, &queue).unwrap();
    assert_eq!(runs, 2, "duplicate names deduplicate");
}

/// Asserts that `store` holds `task`'s own profile: the SM average and
/// solo duration its spec declares, not another spec's.
fn assert_profile_matches_spec(store: &ProfileStore, task: &WorkflowTask, sm: f64, duration: f64) {
    let profile = store.get_source(&task.source).unwrap();
    assert!(
        (profile.avg_sm_util.value() - sm).abs() < 2.0,
        "avg SM {} (expected ~{sm})",
        profile.avg_sm_util
    );
    assert!(
        (profile.duration.value() - duration).abs() / duration < 0.05,
        "duration {} (expected ~{duration} s)",
        profile.duration
    );
}

#[test]
fn custom_workloads_sharing_a_name_keep_their_own_profiles() {
    let d = device();
    let first = custom("clash", 0.10, 0.3, 30.0);
    let second = custom("clash", 0.90, 0.95, 50.0);

    // Across two stores: the process-wide profile cache sits behind both.
    let mut store_a = ProfileStore::new();
    store_a
        .profile_workflows(&d, &[WorkflowSpec::new(vec![first.clone()])])
        .unwrap();
    assert_profile_matches_spec(&store_a, &first, 3.0, 30.0);
    let mut store_b = ProfileStore::new();
    store_b
        .profile_workflows(&d, &[WorkflowSpec::new(vec![second.clone()])])
        .unwrap();
    assert_profile_matches_spec(&store_b, &second, 85.5, 50.0);

    // Within one queue: both specs are profiled, each under its own key.
    let mut store = ProfileStore::new();
    let queue = vec![
        WorkflowSpec::new(vec![first.clone()]),
        WorkflowSpec::new(vec![second.clone()]),
    ];
    assert_eq!(store.profile_workflows(&d, &queue).unwrap(), 2);
    assert_profile_matches_spec(&store, &first, 3.0, 30.0);
    assert_profile_matches_spec(&store, &second, 85.5, 50.0);
}

#[test]
fn stores_keyed_by_custom_name_alone_never_answer_for_another_spec() {
    let d = device();
    let old = custom("legacy", 0.10, 0.3, 30.0);
    let new = custom("legacy", 0.90, 0.95, 50.0);
    let mut store = ProfileStore::new();
    let queue = vec![
        WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 1),
        WorkflowSpec::new(vec![old]),
    ];
    store.profile_workflows(&d, &queue).unwrap();

    // The same entries in the shape older stores saved, where a custom
    // workload was keyed by its name alone: `{"Custom": "legacy"}`.
    let entry = |key: String, source: &TaskSource| {
        let profile = serde_json::to_string(store.get_source(source).unwrap()).unwrap();
        format!("[{key}, {profile}]")
    };
    let benchmark_key =
        serde_json::to_string(&ProfileKey::new(BenchmarkKind::Kripke, ProblemSize::X1)).unwrap();
    let legacy = format!(
        "{{\"profiles\": [{}, {}]}}",
        entry(benchmark_key, &queue[0].entries[0].source),
        entry(
            "{\"Custom\": \"legacy\"}".to_string(),
            &queue[1].entries[0].source
        ),
    );
    let path = std::env::temp_dir().join(format!("mpshare-legacy-{}.json", std::process::id()));
    std::fs::write(&path, legacy).unwrap();
    let mut loaded = ProfileStore::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    // The benchmark entry survives; the name-only entry answers nothing.
    assert_eq!(loaded.len(), 1);
    assert!(loaded.get_source(&queue[0].entries[0].source).is_ok());
    assert!(loaded.get_source(&new.source).is_err());
    let queue = vec![WorkflowSpec::new(vec![new.clone()])];
    assert_eq!(loaded.profile_workflows(&d, &queue).unwrap(), 1);
    assert_profile_matches_spec(&loaded, &new, 85.5, 50.0);
}

#[test]
fn queue_spec_with_mixed_sources_round_trips_through_json() {
    let queue = vec![
        WorkflowSpec::uniform(BenchmarkKind::WarpX, ProblemSize::X2, 2),
        WorkflowSpec::new(vec![custom("mixed", 0.5, 0.8, 40.0)]),
    ];
    let json = serde_json::to_string(&queue).unwrap();
    let back: Vec<WorkflowSpec> = serde_json::from_str(&json).unwrap();
    assert_eq!(back, queue);
    // Benchmark entries stay in the flat legacy shape.
    assert!(json.contains("\"kind\":\"WarpX\""), "{json}");
    assert!(json.contains("\"name\":\"mixed\""));
}
