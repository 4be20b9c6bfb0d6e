//! The four workloads. Each owns its inputs, runs one iteration through
//! the program's public functions, and checks the iteration's output.

pub mod online;
pub mod plan;
pub mod report;
pub mod repro_all;

use crate::metrics::MetricSet;
use crate::trace::Tracer;
use std::path::PathBuf;

pub trait Workload: Sized {
    type Output;

    /// Builds the inputs from `seed` and runs any profiling pass. The cold
    /// iterations that complete set-up are run by the caller.
    fn prepare(seed: u64, tracer: &mut Tracer) -> Result<Self, String>;

    /// One iteration. Calls into a layer go through `tracer.span`.
    fn iterate(&mut self, k: usize, tracer: &mut Tracer) -> mpshare_types::Result<Self::Output>;

    /// Checks iteration `k`'s output. Where the reference is the first
    /// result for that input, the first call records it.
    fn check(&mut self, k: usize, out: Self::Output) -> Result<(), String>;

    /// Iterations in one pass over the inputs: set-up runs one pass cold.
    fn cycle(&self) -> usize {
        1
    }

    /// Per-layer metrics measured after the timed loops of a traced run.
    fn extras(&mut self, _layers: &mut MetricSet) -> Result<(), String> {
        Ok(())
    }
}

/// A committed artifact under the repository's `results/`.
pub fn read_committed(file: &str) -> Result<String, String> {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "results", file]
        .iter()
        .collect();
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

pub fn ms_since(start: std::time::Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}
