//! The `mpshare-sched` command line, run as a subprocess: its error paths,
//! the multi-GPU node path, the per-group trace export and the persistent
//! profile store.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `mpshare-sched` on the queue file at `path`.
fn sched_path(path: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mpshare-sched"))
        .arg(path)
        .args(args)
        .output()
        .expect("mpshare-sched runs")
}

/// Runs `mpshare-sched` on `configs/<queue>`.
fn sched_queue(queue: &str, args: &[&str]) -> Output {
    let configs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../configs");
    sched_path(&configs.join(queue), args)
}

fn sched(args: &[&str]) -> Output {
    sched_queue("example_queue.json", args)
}

#[test]
fn zero_gpus_is_a_usage_error() {
    let out = sched(&["--gpus", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--gpus"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no plan may be printed");
}

/// Profiles are keyed by the size in hundredths as a `u32`, so a larger
/// size would saturate the key: two such workflows shared one profile,
/// and a size past `f64` energy range panicked the profiler. Both must be
/// a typed error naming the field.
#[test]
fn sizes_the_profile_key_cannot_hold_are_rejected() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-oversize");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (name, sizes) in [
        ("merge", &["1e8", "1e12"][..]),
        ("overflow", &["1e200"][..]),
    ] {
        let workflows: Vec<String> = sizes
            .iter()
            .map(|size| {
                format!(r#"{{"entries": [{{"kind": "Kripke", "size": {size}, "iterations": 1}}]}}"#)
            })
            .collect();
        let queue = dir.join(format!("{name}.json"));
        std::fs::write(
            &queue,
            format!(r#"{{"workflows": [{}]}}"#, workflows.join(", ")),
        )
        .unwrap();
        let out = sched_path(&queue, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: stderr: {stderr}");
        assert!(
            stderr.contains("workflows[0].entries[0].size"),
            "{name}: stderr: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{name}: stderr: {stderr}");
        assert!(out.stdout.is_empty(), "{name}: no plan may be printed");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every kernel is at least one engine event, so a workflow of more
/// kernels than the event budget can never finish; building one tried to
/// allocate every task up front (hundreds of GB, an abort or an OOM kill).
/// It must be a typed error naming the field, before anything is built.
#[test]
fn queues_past_the_event_budget_are_rejected() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-event-budget");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = r#"{"sm_demand": 0.2, "bw_demand": 0.02, "duty_cycle": 0.4, "duration": 10.0,
        "memory_mib": 512, "kernels": 4000000000, "cache_sensitivity": 0.2,
        "client_sensitivity": 0.1}"#;
    for (field, entry) in [
        (
            "kernels",
            format!(r#"{{"name": "huge", "spec": {spec}, "iterations": 1}}"#),
        ),
        (
            "iterations",
            r#"{"kind": "Kripke", "size": 1.0, "iterations": 4000000000}"#.to_string(),
        ),
    ] {
        let queue = dir.join(format!("{field}.json"));
        std::fs::write(
            &queue,
            format!(r#"{{"workflows": [{{"entries": [{entry}]}}]}}"#),
        )
        .unwrap();
        let out = sched_path(&queue, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{field}: stderr: {stderr}");
        assert!(
            stderr.contains(&format!("workflows[0].entries[0].{field}")),
            "{field}: stderr: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{field}: stderr: {stderr}");
        assert!(
            !stderr.contains("memory allocation"),
            "{field}: stderr: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{field}: no plan may be printed");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn two_gpu_node_prints_the_plan_and_metrics_as_json() {
    let out = sched(&["--gpus", "2", "--json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let parsed: serde_json::Value =
        serde_json::from_str(&stdout).expect("stdout is one JSON document");
    assert!(!parsed["plan"]["groups"].as_array().unwrap().is_empty());
    assert!(parsed["metrics"]["throughput_gain"].as_f64().unwrap() > 0.0);
}

#[test]
fn trace_prefix_writes_one_chrome_trace_per_group() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-trace");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let prefix = dir.join("queue");
    let out = sched(&["--trace", prefix.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");

    let traces: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with(".trace.json"))
        .collect();
    assert!(
        !traces.is_empty(),
        "no *.trace.json written; stderr: {stderr}"
    );
    for path in &traces {
        let trace: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let events = trace["traceEvents"].as_array().unwrap();
        assert!(!events.is_empty(), "{} has no trace events", path.display());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn custom_queue_reloads_its_profile_store_and_prints_identical_json() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-store");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("profiles.json");
    let run = || {
        let out = sched_queue(
            "custom_queue.json",
            &["--json", "--store", store.to_str().unwrap()],
        );
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
        (out.stdout, stderr)
    };

    let (first, stderr) = run();
    assert!(stderr.contains("saved profile cache"), "stderr: {stderr}");
    assert!(store.exists());
    let (second, stderr) = run();
    assert!(
        stderr.contains("loaded 3 cached profiles"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("profiled 0 distinct"), "stderr: {stderr}");
    assert_eq!(
        String::from_utf8(first).unwrap(),
        String::from_utf8(second).unwrap()
    );
}
