//! The metric names the benchmark reports, with their units.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("iter_ms_p50", "ms"),
    ("iter_ms_p90", "ms"),
    ("iters_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by a traced run. Times and counts are per
/// timed iteration unless the README says otherwise; a metric that does not
/// apply to the workload reads 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("harness.table1_ms", "ms"),
    ("harness.table2_ms", "ms"),
    ("harness.fig1_ms", "ms"),
    ("harness.combos_ms", "ms"),
    ("harness.fig4_ms", "ms"),
    ("harness.fig5_ms", "ms"),
    ("harness.ext_node_ms", "ms"),
    ("harness.ext_mechanisms_ms", "ms"),
    ("harness.ext_powercap_ms", "ms"),
    ("harness.ext_online_ms", "ms"),
    ("harness.ext_hetero_ms", "ms"),
    ("harness.ext_faults_ms", "ms"),
    ("harness.ext_attrib_ms", "ms"),
    ("harness.encode_ms", "ms"),
    ("harness.encode_bytes", "B"),
    ("engine.runs", "count"),
    ("engine.events", "count"),
    ("engine.rate_solves", "count"),
    ("engine.full_solves", "count"),
    ("engine.incremental_solves", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.sim_s_per_host_s", "s/s"),
    ("planner.plan_ms", "ms"),
    ("planner.calls", "count"),
    ("planner.candidates", "count"),
    ("planner.rejects", "count"),
    ("planner.accept_ratio", "ratio"),
    ("planner.memo_hits", "count"),
    ("planner.memo_misses", "count"),
    ("planner.memo_hit_ratio", "ratio"),
    ("planner.warm_hits", "count"),
    ("online.run_ms", "ms"),
    ("online.dispatches", "count"),
    ("profiler.profile_ms", "ms"),
    ("profiler.cache_misses", "count"),
    ("profiler.cache_hits", "count"),
    ("obs.record_ms", "ms"),
    ("obs.unrecorded_ms", "ms"),
    ("obs.record_overhead", "ratio"),
    ("obs.build_ms", "ms"),
    ("obs.export_ms", "ms"),
    ("obs.export_bytes", "B"),
    ("obs.records", "count"),
    ("obs.series", "count"),
    ("obs.series_samples", "count"),
    ("obs.quantile_obs", "count"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.self_ms", "ms"),
    ("sim.tput_gain", "x"),
    ("sim.energy_gain", "x"),
];

/// Whether `name` is a valid metric name: a letter or digit, then at most
/// 63 letters, digits, `_`, `.` or `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Values of one metric set, keyed by name. Setting a name outside the set
/// is a bug in the benchmark and panics.
#[derive(Debug)]
pub struct MetricSet {
    known: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl MetricSet {
    pub fn new(known: &'static [(&'static str, &'static str)]) -> Self {
        MetricSet {
            known,
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.known.iter().any(|&(n, _)| n == name),
            "metric {name} is not declared"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` in declaration order; unset
    /// metrics read 0.
    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::Value;
        Value::Object(
            self.known
                .iter()
                .map(|&(name, unit)| {
                    (
                        name.to_string(),
                        Value::Object(vec![
                            ("value".to_string(), Value::F64(self.get(name))),
                            ("unit".to_string(), Value::String(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;
    use std::collections::BTreeSet;

    #[test]
    fn metric_names_match_the_contract_pattern() {
        for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "ü", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
        assert!(valid_name("9.a_b-c"));
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        json.get(section)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        for (section, emitted) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: BTreeSet<(String, String)> = declared(section).into_iter().collect();
            let emitted: BTreeSet<(String, String)> = emitted
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, emitted, "{section}");
        }
    }

    #[test]
    fn every_declared_metric_is_printed() {
        let mut set = MetricSet::new(&PER_LAYER);
        set.set("trace.overhead", 1.25);
        let json = set.to_json();
        let printed = json.as_object().unwrap();
        assert_eq!(printed.len(), PER_LAYER.len());
        assert_eq!(
            json.get("trace.overhead")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(1.25)
        );
        assert_eq!(
            json.get("obs.records")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("count")
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_panics() {
        MetricSet::new(&END_TO_END).set("latency_ms", 1.0);
    }
}
