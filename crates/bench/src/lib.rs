//! Shared helpers for the criterion benchmark suite.
//!
//! `ablations` quantifies the design choices called out in DESIGN.md, and
//! `engine_performance` measures the simulator and plan-search hot paths
//! (the `bench-gate` scenarios). The time to regenerate each paper table
//! and figure is reported per experiment by the end-to-end benchmark's
//! traced `repro_all` workload (`harness.<experiment>_ms`).

use criterion::Criterion;

/// Criterion configuration for the ablation benches: these run whole
/// simulations per iteration, so small sample counts keep
/// `cargo bench` turnaround sane.
pub fn experiment_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(5))
        .warm_up_time(std::time::Duration::from_millis(500))
}

#[cfg(test)]
mod tests {
    #[test]
    fn config_builds() {
        let _ = super::experiment_criterion();
    }
}
