//! `mpshare-benchmark` — end-to-end and per-layer benchmark of the commands
//! that reproduce the paper. See README.md for the workloads and metrics.
//!
//! Usage (from the repository root):
//! ```text
//! cargo run --release --manifest-path mpshare-benchmark/Cargo.toml -- \
//!     --workload <repro_all|plan_exhaustive|online|report_recorded> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//! ```
//!
//! One workload per process. The driver is a closed loop: it issues the
//! next iteration when the previous one returns, times each iteration from
//! outside, and checks every output. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics, or with `--trace 1` the per-layer ones.
//!
//! The program's `mpshare-par` fan-out runs serially (as under
//! `mpshare-repro --serial`), so one thread does all the work. With the
//! fan-out on, `iter_ms_p50` varied several times more between runs on a
//! shared 2-vCPU host (README.md), too much to gate on.
//!
//! Set-up (inputs, profiling, one cold pass over the inputs) is timed
//! [`SETUP_SAMPLES`] times: once here and in fresh child processes of this
//! binary (`--setup-probe`), since the profile cache is per process.
//!
//! A traced run alternates untraced and traced iterations for `--seconds`,
//! then runs one pass with recording on to read the program's counters.
//! Its spans are written to `--trace-out` (default
//! `.bench_out/<workload>-<seed>.trace.json`).

mod metrics;
mod stats;
mod trace;
mod workloads;

use metrics::{MetricSet, END_TO_END, PER_LAYER};
use mpshare_obs::names;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::{Summary, Tracer};
use workloads::{ms_since, Workload};

/// Set-up timings per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 3;
/// Floor on timed iterations per loop, whatever `--seconds` says.
const MIN_ITERATIONS: usize = 5;
/// A traced run fails when layer spans cover less of the iteration time.
const MIN_COVERAGE: f64 = 0.90;
/// Program counters read after the recorded pass, per iteration.
const COUNTERS: [(&str, &str); 12] = [
    ("engine.runs", names::ENGINE_RUNS),
    ("engine.events", names::ENGINE_EVENTS),
    ("engine.rate_solves", names::ENGINE_RATE_SOLVES),
    ("engine.full_solves", names::ENGINE_FULL_SOLVES),
    (
        "engine.incremental_solves",
        names::ENGINE_INCREMENTAL_SOLVES,
    ),
    ("planner.calls", names::PLAN_CALLS),
    ("planner.candidates", names::PLAN_CANDIDATES),
    ("planner.rejects", names::PLAN_REJECTS),
    ("planner.memo_hits", names::ESTIMATE_MEMO_HITS),
    ("planner.memo_misses", names::ESTIMATE_MEMO_MISSES),
    ("planner.warm_hits", names::PLAN_WARM_START_HITS),
    ("online.dispatches", names::SCHED_DISPATCHES),
];

const USAGE: &str = "usage: mpshare-benchmark --workload <repro_all|plan_exhaustive|online|report_recorded> [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    ReproAll,
    PlanExhaustive,
    Online,
    ReportRecorded,
}

impl Kind {
    const ALL: [Kind; 4] = [
        Kind::ReproAll,
        Kind::PlanExhaustive,
        Kind::Online,
        Kind::ReportRecorded,
    ];

    fn name(self) -> &'static str {
        match self {
            Kind::ReproAll => "repro_all",
            Kind::PlanExhaustive => "plan_exhaustive",
            Kind::Online => "online",
            Kind::ReportRecorded => "report_recorded",
        }
    }

    /// Whether `--seed` changes the inputs (the other workloads run the
    /// paper's fixed inputs).
    fn seeded(self) -> bool {
        matches!(self, Kind::PlanExhaustive | Kind::Online)
    }
}

#[derive(Debug)]
struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    setup_probe: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut parsed = Args {
            workload: Kind::ReproAll,
            seed: 0,
            seconds: 10.0,
            trace: false,
            trace_out: None,
            setup_probe: false,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            if flag == "--setup-probe" {
                parsed.setup_probe = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Kind::ALL
                            .into_iter()
                            .find(|k| k.name() == value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    parsed.seconds = value.parse().map_err(|_| bad())?;
                    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--trace-out" => parsed.trace_out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        parsed.workload = workload.ok_or("--workload is required")?;
        Ok(parsed)
    }
}

#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("iteration {} failed: {e}", self.attempted);
            }
        }
    }
}

/// Runs and checks iteration `k`; returns its host time in ms (the check
/// is not timed).
fn run_checked<W: Workload>(w: &mut W, k: usize, t: &mut Tracer, tally: &mut Tally) -> f64 {
    let start = Instant::now();
    let out = t.iteration(|t| w.iterate(k, t));
    let ms = ms_since(start);
    tally.record(
        out.map_err(|e| e.to_string())
            .and_then(|out| w.check(k, out)),
    );
    ms
}

/// Closed loop for `seconds` (and at least [`MIN_ITERATIONS`]), cycling
/// over the inputs from the first. Returns each iteration's ms.
fn timed_loop<W: Workload>(w: &mut W, seconds: f64, t: &mut Tracer, tally: &mut Tally) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_ITERATIONS || start.elapsed().as_secs_f64() < seconds {
        times.push(run_checked(w, times.len(), t, tally));
    }
    times
}

/// Builds the workload and runs one cold pass over its inputs (untraced:
/// set-up spans are the profiling pass only). Returns it with the set-up
/// seconds.
fn set_up<W: Workload>(seed: u64, t: &mut Tracer, tally: &mut Tally) -> Result<(W, f64), String> {
    let start = Instant::now();
    let mut w = W::prepare(seed, t)?;
    let mut off = Tracer::new(false);
    for k in 0..w.cycle() {
        run_checked(&mut w, k, &mut off, tally);
    }
    Ok((w, start.elapsed().as_secs_f64()))
}

/// Set-up seconds measured by a fresh child process of this binary.
fn probe_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed"])
        .arg(args.seed.to_string())
        .arg("--setup-probe")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running a set-up probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up probe failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .trim()
        .parse()
        .map_err(|_| format!("set-up probe printed {stdout:?}"))
}

/// Peak resident set of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn end_to_end(setup_s: f64, times: &[f64]) -> Result<MetricSet, String> {
    let times_sorted = sorted(times.to_vec());
    let q = |p| stats::nearest_rank(&times_sorted, p).unwrap_or(0.0);
    let mut m = MetricSet::new(&END_TO_END);
    m.set("setup_s", setup_s);
    m.set("iter_ms_p50", q(0.5));
    m.set("iter_ms_p90", q(0.9));
    m.set(
        "iters_per_s",
        times.len() as f64 / (times.iter().sum::<f64>() / 1e3),
    );
    m.set("peak_rss_mib", peak_rss_mib()?);
    Ok(m)
}

/// A traced run: a closed loop alternating an untraced and a traced
/// iteration on the same input (so host drift hits both alike), then the
/// recorded counter pass and the workload's extra measurements.
fn per_layer<W: Workload>(
    w: &mut W,
    args: &Args,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<MetricSet, String> {
    let start = Instant::now();
    let mut off = Tracer::new(false);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while traced.len() < MIN_ITERATIONS || start.elapsed().as_secs_f64() < args.seconds {
        let k = traced.len();
        untraced.push(run_checked(w, k, &mut off, tally));
        traced.push(run_checked(w, k, tracer, tally));
    }
    let spans = tracer.spans();
    let summary = Summary::of(spans);

    let mut layers = MetricSet::new(&PER_LAYER);
    for &(name, unit) in &PER_LAYER {
        let Some(span) = name.strip_suffix("_ms").filter(|_| unit == "ms") else {
            continue;
        };
        let in_iterations = trace::layer_ms(spans, span, summary.iterations);
        let in_setup = trace::setup_ms(spans, span);
        if in_iterations > 0.0 {
            layers.set(name, in_iterations);
        } else if in_setup > 0.0 {
            layers.set(name, in_setup);
        }
    }
    let p50 = |t: Vec<f64>| stats::nearest_rank(&sorted(t), 0.5).unwrap_or(0.0);
    let mean_ms = untraced.iter().sum::<f64>() / untraced.len() as f64;
    layers.set("trace.overhead", p50(traced) / p50(untraced));
    layers.set("trace.coverage", summary.coverage());
    layers.set("trace.self_ms", summary.self_ms());

    // One pass with recording on, for the program's own counters.
    mpshare_obs::set_enabled(true);
    mpshare_obs::recorder().reset();
    let n = w.cycle();
    for k in 0..n {
        run_checked(w, k, &mut off, tally);
    }
    let registry = mpshare_obs::metrics();
    for (metric, counter) in COUNTERS {
        layers.set(metric, registry.counter_get(counter) as f64 / n as f64);
    }
    let sim_s = registry.gauge_get(names::ENGINE_SIM_SECONDS) / n as f64;
    mpshare_obs::set_enabled(false);
    mpshare_obs::recorder().reset();

    let events = layers.get("engine.events");
    if events > 0.0 {
        layers.set("engine.ns_per_event", mean_ms * 1e6 / events);
    }
    layers.set("engine.sim_s_per_host_s", sim_s / (mean_ms / 1e3));
    let candidates = layers.get("planner.candidates");
    if candidates > 0.0 {
        layers.set(
            "planner.accept_ratio",
            1.0 - layers.get("planner.rejects") / candidates,
        );
    }
    let probes = layers.get("planner.memo_hits") + layers.get("planner.memo_misses");
    if probes > 0.0 {
        layers.set(
            "planner.memo_hit_ratio",
            layers.get("planner.memo_hits") / probes,
        );
    }
    w.extras(&mut layers)?;
    Ok(layers)
}

fn write_trace(args: &Args, tracer: &Tracer) -> Result<PathBuf, String> {
    let path = args.trace_out.clone().unwrap_or_else(|| {
        PathBuf::from(".bench_out").join(format!(
            "{}-{}.trace.json",
            args.workload.name(),
            args.seed
        ))
    });
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let body = serde_json::to_string(&tracer.to_json()).expect("spans serialize");
    std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

fn drive<W: Workload>(args: &Args) -> Result<(), String> {
    if args.setup_probe {
        let (_, setup_s) = set_up::<W>(args.seed, &mut Tracer::new(false), &mut Tally::default())?;
        println!("{setup_s}");
        return Ok(());
    }
    let name = args.workload.name();
    if args.workload.seeded() {
        eprintln!("{name}: seed {}", args.seed);
    } else {
        eprintln!("{name}: the paper's fixed inputs; --seed is ignored");
    }
    let mut setup_samples = (1..SETUP_SAMPLES)
        .map(|_| probe_setup(args))
        .collect::<Result<Vec<f64>, String>>()?;

    let mut tracer = Tracer::new(args.trace);
    let mut tally = Tally::default();
    let cache_before = mpshare_profiler::cache::global().stats();
    let (mut w, setup_s) = set_up::<W>(args.seed, &mut tracer, &mut tally)?;
    let cache_after = mpshare_profiler::cache::global().stats();
    setup_samples.push(setup_s);
    let setup_s = stats::median(&setup_samples).unwrap_or(setup_s);

    let mut correct = true;
    let metrics = if args.trace {
        let mut layers = per_layer(&mut w, args, &mut tracer, &mut tally)?;
        layers.set(
            "profiler.cache_hits",
            (cache_after.0 - cache_before.0) as f64,
        );
        layers.set(
            "profiler.cache_misses",
            (cache_after.1 - cache_before.1) as f64,
        );
        let coverage = layers.get("trace.coverage");
        let path = write_trace(args, &tracer)?;
        eprintln!(
            "{name}: {} spans written to {}; layer spans cover {:.1}% of iteration time",
            tracer.spans().len(),
            path.display(),
            coverage * 100.0
        );
        if coverage < MIN_COVERAGE {
            eprintln!("{name}: coverage below {:.0}%", MIN_COVERAGE * 100.0);
            correct = false;
        }
        layers
    } else {
        let times = timed_loop(&mut w, args.seconds, &mut tracer, &mut tally);
        let n = times.len();
        eprintln!("{name}: {n} timed iterations, set-up samples {setup_samples:?} s");
        if !stats::tail_is_resolved(n, 0.9) {
            eprintln!(
                "{name}: only {} samples beyond p90 (fewer than {})",
                n - stats::rank(n, 0.9),
                stats::MIN_BEYOND
            );
        }
        end_to_end(setup_s, &times)?
    };
    correct &= tally.failed == 0;
    let result = serde_json::Value::Object(vec![
        ("correct".to_string(), serde_json::Value::Bool(correct)),
        (
            "attempted".to_string(),
            serde_json::Value::U64(tally.attempted),
        ),
        ("failed".to_string(), serde_json::Value::U64(tally.failed)),
        ("metrics".to_string(), metrics.to_json()),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("results serialize")
    );
    Ok(())
}

fn main() -> ExitCode {
    mpshare_par::set_serial(true);
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Kind::ReproAll => drive::<workloads::repro_all::ReproAll>(&args),
        Kind::PlanExhaustive => drive::<workloads::plan::PlanExhaustive>(&args),
        Kind::Online => drive::<workloads::online::Online>(&args),
        Kind::ReportRecorded => drive::<workloads::report::ReportRecorded>(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_arguments() {
        let a = parse(&[
            "--workload",
            "online",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Kind::Online);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert!(parse(&["--seed", "1"]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "online", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "online", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "online", "--seed"]).is_err());
    }

    #[test]
    fn workload_names_are_valid_metric_style_names() {
        for k in Kind::ALL {
            assert!(metrics::valid_name(k.name()));
        }
    }
}
