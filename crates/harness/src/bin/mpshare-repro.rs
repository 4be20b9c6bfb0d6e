//! `mpshare-repro` — regenerates the paper's tables and figures.
//!
//! Usage:
//! ```text
//! mpshare-repro <experiment|all> [--out DIR] [--serial]
//!               [--trace-out FILE] [--metrics-out FILE] [--timeline-out FILE]
//! mpshare-repro report [--out DIR] [--serial] [--timeline-out FILE]
//! mpshare-repro validate-obs --trace-out FILE --metrics-out FILE
//!               [--timeline-out FILE]
//! ```
//!
//! Each experiment prints its table to stdout and writes `.txt`, `.csv`,
//! and `.json` artifacts under the output directory (default `results/`).
//!
//! `--trace-out` (or `MPSHARE_TRACE_OUT`) enables the observability
//! recorder and writes the unified Chrome-tracing/Perfetto artifact —
//! control-plane tracks (planner/scheduler/daemon/executor), merged with
//! the engine timeline of the attributed run when the experiment is
//! `ext_attrib`. `--metrics-out` (or `MPSHARE_METRICS_OUT`) writes the
//! metrics registry as JSON at the given path and as Prometheus text at
//! the same path with `.prom` appended. Recording never changes results:
//! every artifact under `--out` is byte-identical with and without it.
//!
//! `--timeline-out` (or `MPSHARE_TIMELINE_OUT`) writes the timeline
//! store's full JSON export — every simulated-time series with its exact
//! integral/CDF, every quantile track with p50/p90/p99/p999 and full CDF.
//! The export is a pure function of the observation multiset: serial and
//! parallel runs produce byte-identical files (the trace-smoke gate pins
//! this).
//!
//! `report` runs the timeline-instrumented experiments and writes the
//! utilization/SLO dashboard (`report.txt` + `report.json`) under the
//! output directory — utilization CDF, stranded-capacity integral, and
//! per-mechanism tail-latency/SLO tables.
//!
//! `validate-obs` re-opens the artifacts and checks the invariants the
//! trace-smoke gate relies on: the control tracks are present in the
//! trace, the required metric families exist in the export, and (when
//! `--timeline-out` is given) the timeline export is well-formed —
//! monotone sample times, monotone CDFs, quantile ordering
//! p50 ≤ p90 ≤ p99 ≤ p999.
//!
//! Sweep points fan out across worker threads by default; `--serial` (or
//! `MPSHARE_SERIAL=1`) forces single-threaded execution. Both modes
//! produce bit-identical results — the flag only trades wall-clock time.

use mpshare_gpusim::DeviceSpec;
use mpshare_harness::experiments;
use mpshare_harness::{write_report, write_results, Experiment};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: mpshare-repro <table1|table2|fig1|fig2|fig3|fig4|fig5|ext_node|ext_mechanisms|ext_powercap|ext_online|ext_hetero|ext_faults|ext_attrib|all> [--out DIR] [--serial] [--trace-out FILE] [--metrics-out FILE] [--timeline-out FILE]\n       mpshare-repro report [--out DIR] [--serial] [--timeline-out FILE]\n       mpshare-repro validate-obs --trace-out FILE --metrics-out FILE [--timeline-out FILE]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Option<String> = None;
    let mut out_dir = PathBuf::from("results");
    let mut trace_out = std::env::var("MPSHARE_TRACE_OUT").ok().map(PathBuf::from);
    let mut metrics_out = std::env::var("MPSHARE_METRICS_OUT").ok().map(PathBuf::from);
    let mut timeline_out = std::env::var("MPSHARE_TIMELINE_OUT")
        .ok()
        .map(PathBuf::from);
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => usage(),
            },
            "--trace-out" => match it.next() {
                Some(path) => trace_out = Some(PathBuf::from(path)),
                None => usage(),
            },
            "--metrics-out" => match it.next() {
                Some(path) => metrics_out = Some(PathBuf::from(path)),
                None => usage(),
            },
            "--timeline-out" => match it.next() {
                Some(path) => timeline_out = Some(PathBuf::from(path)),
                None => usage(),
            },
            "--serial" => mpshare_par::set_serial(true),
            "-h" | "--help" => usage(),
            other if which.is_none() => which = Some(other.to_string()),
            _ => usage(),
        }
    }
    let which = which.unwrap_or_else(|| usage());

    if which == "validate-obs" {
        return match (trace_out, metrics_out) {
            (Some(trace), Some(metrics)) => validate_obs(&trace, &metrics, timeline_out.as_ref()),
            _ => usage(),
        };
    }

    if which == "report" {
        return run_report(&out_dir, timeline_out);
    }

    // Any observability sink enables recording for the whole run.
    if trace_out.is_some() || metrics_out.is_some() || timeline_out.is_some() {
        mpshare_obs::set_enabled(true);
    }

    let device = DeviceSpec::a100x();
    let started = Instant::now();
    let result: mpshare_types::Result<Vec<Experiment>> =
        experiments::run_named(&device, &which).unwrap_or_else(|| usage());

    let experiments = match result {
        Ok(e) => e,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    };

    for e in &experiments {
        println!("{}", e.render());
    }
    if let Err(err) = write_obs_artifacts(&device, &which, trace_out, metrics_out, timeline_out) {
        eprintln!("failed to write observability artifacts: {err}");
        return ExitCode::FAILURE;
    }
    if which == "all" {
        match write_report(&out_dir, &experiments) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(err) => eprintln!("failed to write REPORT.md: {err}"),
        }
    }
    match write_results(&out_dir, &experiments) {
        Ok(paths) => {
            eprintln!(
                "wrote {} files to {} in {:.1}s",
                paths.len(),
                out_dir.display(),
                started.elapsed().as_secs_f64()
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("failed to write results: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Drains the recorder and writes the merged trace, metric, and timeline
/// exports.
fn write_obs_artifacts(
    device: &DeviceSpec,
    which: &str,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    timeline_out: Option<PathBuf>,
) -> std::io::Result<()> {
    if let Some(path) = trace_out {
        // The ext_attrib run is the one experiment with a canonical
        // engine timeline to merge under the control tracks; it is
        // deterministic, so re-running it reproduces the exact result
        // the experiment attributed.
        let engine = if which == "ext_attrib" || which == "all" {
            match experiments::ext_attrib::traced_run(device) {
                Ok((_, _, result)) => Some(result),
                Err(err) => {
                    return Err(std::io::Error::other(format!(
                        "re-running ext_attrib for the trace failed: {err}"
                    )));
                }
            }
        } else {
            None
        };
        let records = mpshare_obs::recorder().drain();
        let trace = mpshare_obs::perfetto::merged_chrome_trace_with_timelines(
            engine.as_ref(),
            &records,
            mpshare_obs::timelines(),
        );
        std::fs::write(&path, trace)?;
        eprintln!("wrote {}", path.display());
    }
    if let Some(path) = timeline_out {
        let json = serde_json::to_string_pretty(&mpshare_obs::timelines().to_json())
            .expect("timeline export is valid JSON");
        std::fs::write(&path, json)?;
        eprintln!("wrote {}", path.display());
    }
    if let Some(path) = metrics_out {
        let metrics = mpshare_obs::metrics();
        let json =
            serde_json::to_string_pretty(&metrics.to_json()).expect("metrics export is valid JSON");
        std::fs::write(&path, json)?;
        let mut prom = path.as_os_str().to_owned();
        prom.push(".prom");
        std::fs::write(&prom, metrics.to_prometheus())?;
        eprintln!("wrote {} (+ .prom)", path.display());
    }
    Ok(())
}

/// Runs the timeline-instrumented experiments and writes the dashboard
/// (`report.txt` + `report.json`) under `out_dir`; `--timeline-out` also
/// dumps the full timeline export from the same recorded run.
fn run_report(out_dir: &std::path::Path, timeline_out: Option<PathBuf>) -> ExitCode {
    let device = DeviceSpec::a100x();
    let report = match mpshare_harness::report::generate(&device) {
        Ok(r) => r,
        Err(err) => {
            eprintln!("report failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.text);
    if let Err(err) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {}: {err}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let txt = out_dir.join("report.txt");
    let json = out_dir.join("report.json");
    let body = serde_json::to_string_pretty(&report.json).expect("report export is valid JSON");
    if let Err(err) = std::fs::write(&txt, &report.text).and_then(|()| std::fs::write(&json, body))
    {
        eprintln!("failed to write report artifacts: {err}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {} and {}", txt.display(), json.display());
    if let Some(path) = timeline_out {
        let export = serde_json::to_string_pretty(&mpshare_obs::timelines().to_json())
            .expect("timeline export is valid JSON");
        if let Err(err) = std::fs::write(&path, export) {
            eprintln!("failed to write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

/// Checks the trace and metrics artifacts a recorded run produced: the
/// planner/scheduler/daemon tracks must be present in the trace, and the
/// cache/fault/goodput metric families in the export. With a timeline
/// export, additionally checks the timeline invariants (see
/// [`validate_timeline`]).
fn validate_obs(
    trace_path: &PathBuf,
    metrics_path: &PathBuf,
    timeline_path: Option<&PathBuf>,
) -> ExitCode {
    let mut failures: Vec<String> = Vec::new();

    match std::fs::read_to_string(trace_path)
        .map_err(|e| e.to_string())
        .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).map_err(|e| e.to_string()))
    {
        Ok(trace) => {
            let events = trace
                .get("traceEvents")
                .and_then(|v| v.as_array())
                .cloned()
                .unwrap_or_default();
            if events.is_empty() {
                failures.push("trace has no traceEvents".to_string());
            }
            for (pid, track) in [(3u64, "planner"), (4, "scheduler"), (5, "daemon")] {
                let present = events
                    .iter()
                    .any(|e| e.get("pid").and_then(|p| p.as_u64()) == Some(pid));
                if !present {
                    failures.push(format!("trace is missing the {track} track (pid {pid})"));
                }
            }
        }
        Err(err) => failures.push(format!("cannot parse {}: {err}", trace_path.display())),
    }

    match std::fs::read_to_string(metrics_path)
        .map_err(|e| e.to_string())
        .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).map_err(|e| e.to_string()))
    {
        Ok(metrics) => {
            use mpshare_obs::names;
            let has = |section: &str, name: &str| {
                metrics.get(section).and_then(|s| s.get(name)).is_some()
            };
            for counter in [
                names::PROFILE_CACHE_HITS,
                names::PROFILE_CACHE_MISSES,
                names::ENGINE_RUNS,
                names::ENGINE_RATE_SOLVES,
                names::FAULTS_INJECTED,
                names::CLIENTS_FAILED,
                names::SCHED_DISPATCHES,
                names::PLAN_CALLS,
                names::FAULT_DOMAIN_REWRITES,
            ] {
                if !has("counters", counter) {
                    failures.push(format!("metrics export is missing counter {counter}"));
                }
            }
            for gauge in [names::GOODPUT, names::WASTED_ENERGY_JOULES] {
                if !has("gauges", gauge) {
                    failures.push(format!("metrics export is missing gauge {gauge}"));
                }
            }
            for histogram in [names::GROUP_MAKESPAN_SECONDS, names::PHASE_SIM_SECONDS] {
                if !has("histograms", histogram) {
                    failures.push(format!("metrics export is missing histogram {histogram}"));
                }
            }
        }
        Err(err) => failures.push(format!("cannot parse {}: {err}", metrics_path.display())),
    }

    if let Some(path) = timeline_path {
        match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).map_err(|e| e.to_string()))
        {
            Ok(timeline) => validate_timeline(&timeline, &mut failures),
            Err(err) => failures.push(format!("cannot parse {}: {err}", path.display())),
        }
    }

    if failures.is_empty() {
        eprintln!("observability artifacts OK");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("validate-obs: {f}");
        }
        ExitCode::FAILURE
    }
}

/// Timeline-export invariants: required series/track families present,
/// per-series sample times monotone non-decreasing, every CDF monotone
/// (values strictly ascending, fractions non-decreasing, last fraction 1),
/// and quantile ordering p50 ≤ p90 ≤ p99 ≤ p999 on every track.
fn validate_timeline(timeline: &serde_json::Value, failures: &mut Vec<String>) {
    use mpshare_obs::series;
    let f64_at = |v: &serde_json::Value| v.as_f64();

    let series_map = timeline.get("series");
    for required in [series::DEVICE_SM_UTIL, series::DEVICE_BW_UTIL] {
        if series_map.and_then(|s| s.get(required)).is_none() {
            failures.push(format!("timeline export is missing series {required}"));
        }
    }
    for required in [series::SCHED_QUEUE_WAIT, series::SCHED_TURNAROUND] {
        if timeline
            .get("quantiles")
            .and_then(|q| q.get(required))
            .is_none()
        {
            failures.push(format!(
                "timeline export is missing quantile track {required}"
            ));
        }
    }

    let check_cdf = |name: &str, cdf: &serde_json::Value, failures: &mut Vec<String>| {
        let Some(pairs) = cdf.as_array() else {
            failures.push(format!("{name}: cdf is not an array"));
            return;
        };
        let knots: Vec<(f64, f64)> = pairs
            .iter()
            .filter_map(|p| {
                let pair = p.as_array()?;
                Some((f64_at(pair.first()?)?, f64_at(pair.get(1)?)?))
            })
            .collect();
        if knots.len() != pairs.len() {
            failures.push(format!("{name}: malformed cdf knots"));
            return;
        }
        for w in knots.windows(2) {
            if w[1].0 <= w[0].0 {
                failures.push(format!("{name}: cdf values not strictly ascending"));
                break;
            }
            if w[1].1 < w[0].1 {
                failures.push(format!("{name}: cdf fractions decrease"));
                break;
            }
        }
        if let Some(last) = knots.last() {
            if (last.1 - 1.0).abs() > 1e-9 {
                failures.push(format!("{name}: cdf does not end at 1 (got {})", last.1));
            }
        }
    };

    // Per-series: monotone sample times, monotone CDF.
    if let Some(entries) = series_map.and_then(|s| s.as_object()) {
        for (name, entry) in entries {
            if let Some(samples) = entry.get("samples").and_then(|s| s.as_array()) {
                let times: Vec<f64> = samples
                    .iter()
                    .filter_map(|s| s.as_array().and_then(|a| a.first()).and_then(f64_at))
                    .collect();
                if times.len() != samples.len() {
                    failures.push(format!("series {name}: malformed samples"));
                } else if times.windows(2).any(|w| w[1] < w[0]) {
                    failures.push(format!("series {name}: sample times not monotone"));
                }
            } else {
                failures.push(format!("series {name}: missing samples"));
            }
            if let Some(cdf) = entry.get("cdf") {
                check_cdf(&format!("series {name}"), cdf, failures);
            }
        }
    }

    // Per-track: quantile ordering and CDF monotonicity.
    if let Some(entries) = timeline.get("quantiles").and_then(|q| q.as_object()) {
        for (name, entry) in entries {
            let qs: Vec<Option<f64>> = ["p50", "p90", "p99", "p999"]
                .iter()
                .map(|k| entry.get(k).and_then(f64_at))
                .collect();
            let present: Vec<f64> = qs.iter().filter_map(|q| *q).collect();
            if present.windows(2).any(|w| w[1] < w[0]) {
                failures.push(format!(
                    "quantiles {name}: ordering violated (p50 <= p90 <= p99 <= p999)"
                ));
            }
            if let Some(cdf) = entry.get("cdf") {
                check_cdf(&format!("quantiles {name}"), cdf, failures);
            }
        }
    }
}
