//! The `mpshare report` dashboard: utilization CDFs, stranded capacity,
//! and per-mechanism tail latency from the timeline store.
//!
//! [`generate`] runs the two timeline-instrumented experiments
//! (`ext_mechanisms` for per-mechanism device timelines, `ext_online` for
//! scheduler queue-wait/turnaround) with recording enabled, then
//! [`build`]s a text + JSON dashboard from the recorded series and exact
//! quantile tracks. `build` itself is a pure function of the store and
//! registry, so the rendering is unit-testable without the global
//! recorder and the whole report is deterministic — serial and parallel
//! runs produce byte-identical artifacts.
//!
//! The JSON artifact carries the full CDFs and quantile summaries but not
//! the raw samples (those are the `--timeline-out` export's job), so
//! `results/report.json` stays compact enough to commit.

use crate::table::TextTable;
use mpshare_gpusim::DeviceSpec;
use mpshare_obs::{series, Gauge, MetricsRegistry, TimelineStore};
use mpshare_types::Result;
use serde_json::Value;

/// Deadline grid (simulated seconds) for the SLO-attainment table: the
/// fraction of completed clients whose turnaround beat each deadline.
pub const SLO_GRID_S: [f64; 5] = [30.0, 60.0, 120.0, 300.0, 600.0];

/// A rendered report: aligned text dashboard plus its JSON counterpart.
#[derive(Debug, Clone)]
pub struct Report {
    pub text: String,
    pub json: Value,
}

/// Runs the timeline-instrumented experiments with recording enabled and
/// builds the dashboard from what they recorded. Resets the recorder
/// first so the report covers exactly these runs, and leaves the recorded
/// state in place afterwards (the caller may also want `--timeline-out`
/// or a merged trace from the same run).
pub fn generate(device: &DeviceSpec) -> Result<Report> {
    mpshare_obs::set_enabled(true);
    mpshare_obs::recorder().reset();
    crate::experiments::ext_mechanisms::run(device)?;
    crate::experiments::ext_online::run(device)?;
    Ok(build(mpshare_obs::timelines(), mpshare_obs::metrics()))
}

/// Builds the dashboard from a timeline store and metrics registry. Pure:
/// no global state, no side effects.
pub fn build(tl: &TimelineStore, metrics: &MetricsRegistry) -> Report {
    let mut text = String::from("# mpshare report — timeline dashboard\n\n");
    let mut json_sections: Vec<(String, Value)> = Vec::new();

    // -- Device utilization ------------------------------------------------
    // Every device number is a fold over the run table in content order,
    // so it does not depend on the worker schedule.
    let mechanisms: Vec<String> = tl
        .quantile_names()
        .into_iter()
        .filter_map(|n| {
            n.strip_prefix("turnaround.")
                .and_then(|rest| rest.strip_suffix("_s"))
                .map(str::to_string)
        })
        .collect();
    let (device, means, cdf, occupancy, sim_seconds) = tl.with_runs(|runs| {
        let sm = runs.series(Gauge::SmUtil, None);
        let means = [Gauge::SmUtil, Gauge::BwUtil, Gauge::PowerW]
            .map(|gauge| runs.series(gauge, None).time_weighted_mean());
        let occupancy: Vec<Option<f64>> = (mechanisms.iter())
            .map(|m| runs.series(Gauge::SmUtil, Some(m)).time_weighted_mean())
            .collect();
        let device = (!sm.is_empty()).then(|| (sm.covered(), sm.stranded(1.0)));
        (device, means, sm.cdf(), occupancy, runs.makespan())
    });
    let ((covered, stranded), [mean_sm, mean_bw, mean_power]) = (device.unzip(), means);

    let mut util = TextTable::new(["metric", "value"]);
    let fmt = |v: Option<f64>| match v {
        Some(x) => format!("{x:.4}"),
        None => "-".to_string(),
    };
    util.push_row(["covered sim-seconds".to_string(), fmt(covered)]);
    util.push_row(["mean SM utilization".to_string(), fmt(mean_sm)]);
    util.push_row(["stranded SM-seconds".to_string(), fmt(stranded)]);
    let stranded_fraction = match (stranded, covered) {
        (Some(s), Some(c)) if c > 0.0 => Some(s / c),
        _ => None,
    };
    util.push_row(["stranded fraction".to_string(), fmt(stranded_fraction)]);
    util.push_row(["mean BW utilization".to_string(), fmt(mean_bw)]);
    util.push_row(["mean power (W)".to_string(), fmt(mean_power)]);
    text.push_str("## Device utilization (time-weighted, exact)\n\n");
    text.push_str(&util.render());
    text.push('\n');

    // The CDF rendered at deciles for the text view; the JSON carries
    // every knot.
    if !cdf.is_empty() {
        let mut cdf_table = TextTable::new(["fraction of time", "SM util <="]);
        for decile in 1..=10u32 {
            let p = decile as f64 / 10.0;
            // Smallest value whose cumulative fraction reaches p.
            let v = cdf
                .iter()
                .find(|&&(_, frac)| frac >= p - 1e-12)
                .map(|&(v, _)| v)
                .unwrap_or(cdf.last().unwrap().0);
            // `+ 0.0` normalizes -0.0 so the text table never prints "-0.0000".
            cdf_table.push_row([format!("{p:.1}"), format!("{:.4}", v + 0.0)]);
        }
        text.push_str("## SM-utilization CDF (time-weighted)\n\n");
        text.push_str(&cdf_table.render());
        text.push('\n');
    }

    json_sections.push((
        "utilization".to_string(),
        Value::Object(vec![
            ("covered_s".to_string(), opt(covered)),
            ("mean_sm_util".to_string(), opt(mean_sm)),
            ("stranded_sm_seconds".to_string(), opt(stranded)),
            ("stranded_fraction".to_string(), opt(stranded_fraction)),
            ("mean_bw_util".to_string(), opt(mean_bw)),
            ("mean_power_w".to_string(), opt(mean_power)),
            ("sm_util_cdf".to_string(), pairs(&cdf)),
        ]),
    ));

    // -- Per-mechanism tail latency and SLO attainment ---------------------
    let mut tail = TextTable::new([
        "mechanism",
        "n",
        "p50",
        "p90",
        "p99",
        "p999",
        "max",
        "mean util",
    ]);
    let mut slo = {
        let mut headers = vec!["mechanism".to_string()];
        headers.extend(SLO_GRID_S.iter().map(|d| format!("<={d}s")));
        TextTable::new(headers)
    };
    let mut mech_json: Vec<(String, Value)> = Vec::new();
    for (mech, occupancy_mean) in mechanisms.iter().zip(occupancy) {
        let track = series::mechanism_turnaround(mech);
        let stats = tl.with_quantiles(&track, |q| {
            (
                q.len(),
                q.p50(),
                q.p90(),
                q.p99(),
                q.p999(),
                q.max(),
                q.cdf(),
                SLO_GRID_S.map(|d| q.attainment(d)),
            )
        });
        let Some((n, p50, p90, p99, p999, max, cdf, attainment)) = stats else {
            continue;
        };
        tail.push_row([
            mech.clone(),
            n.to_string(),
            fmt(p50),
            fmt(p90),
            fmt(p99),
            fmt(p999),
            fmt(max),
            fmt(occupancy_mean),
        ]);
        let mut slo_row = vec![mech.clone()];
        slo_row.extend(attainment.iter().map(|a| fmt(*a)));
        slo.push_row(slo_row);
        mech_json.push((
            mech.clone(),
            Value::Object(vec![
                ("count".to_string(), Value::U64(n as u64)),
                ("p50".to_string(), opt(p50)),
                ("p90".to_string(), opt(p90)),
                ("p99".to_string(), opt(p99)),
                ("p999".to_string(), opt(p999)),
                ("max".to_string(), opt(max)),
                ("mean_occupancy".to_string(), opt(occupancy_mean)),
                ("turnaround_cdf".to_string(), pairs(&cdf)),
                (
                    "slo_attainment".to_string(),
                    Value::Object(
                        SLO_GRID_S
                            .iter()
                            .zip(attainment)
                            .map(|(d, a)| (format!("{d}"), opt(a)))
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    if !tail.is_empty() {
        text.push_str(
            "## Turnaround tail latency per mechanism (sim-seconds, exact quantiles)\n\n",
        );
        text.push_str(&tail.render());
        text.push('\n');
        text.push_str("## SLO attainment per mechanism (fraction of clients within deadline)\n\n");
        text.push_str(&slo.render());
        text.push('\n');
    }
    json_sections.push(("mechanisms".to_string(), Value::Object(mech_json)));

    // -- Online scheduler --------------------------------------------------
    // Goodput is recomputed from deterministic sums (completed tasks over
    // the runs' makespans, folded in content order), not the GOODPUT
    // gauge, whose last write depends on the order of parallel sweeps, nor
    // the ENGINE_SIM_SECONDS gauge, which sums in thread order.
    let tasks = metrics.counter_get(mpshare_obs::names::TASKS_COMPLETED);
    let goodput = (sim_seconds > 0.0).then(|| tasks as f64 / sim_seconds);
    let mut sched = TextTable::new(["metric", "n", "p50", "p90", "p99", "p999"]);
    let mut sched_json: Vec<(String, Value)> = Vec::new();
    for (label, track) in [
        ("queue wait (s)", series::SCHED_QUEUE_WAIT),
        ("turnaround (s)", series::SCHED_TURNAROUND),
    ] {
        let stats = tl.with_quantiles(track, |q| (q.len(), q.p50(), q.p90(), q.p99(), q.p999()));
        let Some((n, p50, p90, p99, p999)) = stats else {
            continue;
        };
        sched.push_row([
            label.to_string(),
            n.to_string(),
            fmt(p50),
            fmt(p90),
            fmt(p99),
            fmt(p999),
        ]);
        sched_json.push((
            track.to_string(),
            Value::Object(vec![
                ("count".to_string(), Value::U64(n as u64)),
                ("p50".to_string(), opt(p50)),
                ("p90".to_string(), opt(p90)),
                ("p99".to_string(), opt(p99)),
                ("p999".to_string(), opt(p999)),
            ]),
        ));
    }
    if !sched.is_empty() {
        text.push_str("## Online scheduler (workflow-level, exact quantiles)\n\n");
        text.push_str(&sched.render());
        text.push('\n');
    }
    text.push_str(&format!(
        "goodput: {} tasks over {sim_seconds:.2} sim-seconds = {}\n",
        tasks,
        fmt(goodput)
    ));
    sched_json.push(("tasks_completed".to_string(), Value::U64(tasks)));
    sched_json.push(("engine_sim_seconds".to_string(), Value::F64(sim_seconds)));
    sched_json.push(("goodput".to_string(), opt(goodput)));
    json_sections.push(("scheduler".to_string(), Value::Object(sched_json)));

    Report {
        text,
        json: Value::Object(json_sections),
    }
}

fn opt(v: Option<f64>) -> Value {
    match v {
        Some(x) => Value::F64(x),
        None => Value::Null,
    }
}

fn pairs(p: &[(f64, f64)]) -> Value {
    Value::Array(
        p.iter()
            .map(|&(a, b)| Value::Array(vec![Value::F64(a), Value::F64(b)]))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpshare_gpusim::{Segment, Telemetry};
    use mpshare_types::{Power, Seconds};

    /// One run of `secs` seconds at a constant SM and BW utilization and
    /// board power.
    fn run(tl: &TimelineStore, mode: &'static str, secs: f64, sm: f64, bw: f64, watts: f64) {
        let mut telemetry = Telemetry::new();
        telemetry.record(Segment {
            start: Seconds::ZERO,
            end: Seconds::new(secs),
            sm_util: sm,
            bw_util: bw,
            power: Power::from_watts(watts),
            clock_factor: 1.0,
            capped: false,
            active_clients: 1,
        });
        tl.record_run(mode, secs, &telemetry);
    }

    fn seeded_store() -> (TimelineStore, MetricsRegistry) {
        let tl = TimelineStore::new();
        // Two runs: 60% util for 10s, 30% for 10s.
        run(&tl, "mps", 10.0, 0.6, 0.2, 250.0);
        run(&tl, "sequential", 10.0, 0.3, 0.2, 250.0);
        for v in [20.0, 45.0, 100.0, 500.0] {
            tl.quantile_observe(&series::mechanism_turnaround("mps"), v);
        }
        tl.quantile_observe(series::SCHED_QUEUE_WAIT, 5.0);
        tl.quantile_observe(series::SCHED_TURNAROUND, 50.0);
        let metrics = MetricsRegistry::new();
        metrics.counter_add(mpshare_obs::names::TASKS_COMPLETED, 40);
        (tl, metrics)
    }

    #[test]
    fn report_carries_every_section_and_is_deterministic() {
        let (tl, metrics) = seeded_store();
        let a = build(&tl, &metrics);
        let b = build(&tl, &metrics);
        assert_eq!(a.text, b.text);
        assert_eq!(
            serde_json::to_string(&a.json).unwrap(),
            serde_json::to_string(&b.json).unwrap()
        );
        for needle in [
            "Device utilization",
            "SM-utilization CDF",
            "tail latency per mechanism",
            "SLO attainment",
            "Online scheduler",
            "goodput",
            "mps",
        ] {
            assert!(a.text.contains(needle), "missing section {needle:?}");
        }
        let rendered = serde_json::to_string(&a.json).unwrap();
        assert!(rendered.contains("\"stranded_sm_seconds\""));
        assert!(rendered.contains("\"slo_attainment\""));
        assert!(rendered.contains("\"goodput\""));
    }

    #[test]
    fn report_numbers_are_exact() {
        let (tl, metrics) = seeded_store();
        let report = build(&tl, &metrics);
        // Mean util = (0.6*10 + 0.3*10) / 20 = 0.45; stranded = 11.0.
        assert!(report.text.contains("0.4500"));
        assert!(report.text.contains("11.0000"));
        // Goodput = 40 / 20 = 2.0.
        assert!(report.text.contains("2.0000"));
        // mps attainment at 60s: 2 of 4 turnarounds within deadline.
        assert!(report.text.contains("0.5000"));
    }

    #[test]
    fn empty_store_renders_without_panicking() {
        let report = build(&TimelineStore::new(), &MetricsRegistry::new());
        assert!(report.text.contains("mpshare report"));
        assert!(report.text.contains("goodput"));
        let rendered = serde_json::to_string(&report.json).unwrap();
        assert!(rendered.contains("\"utilization\""));
    }
}
