//! Extension experiment: exact interference attribution.
//!
//! The paper reports co-run slowdowns as single numbers (Tables I–III);
//! this artifact decomposes them. A four-client MPS group runs with the
//! engine's event log on, and [`mpshare_obs::attribute`] splits each
//! client's excess turnaround over its solo run into four physically
//! meaningful components — SM-partition restriction, bandwidth
//! contention, power throttling, and memory waits — computed *exactly*
//! from the piecewise-constant segments (the components sum to the
//! observed excess to floating-point roundoff, pinned at 1e-9 below).

use crate::table::{fmt, Experiment, TextTable};
use mpshare_gpusim::{
    ClientProgram, DeviceSpec, Engine, EngineConfig, EngineScratch, RunResult, SharingMode,
    ValidatedPrograms,
};
use mpshare_obs::AttributionReport;
use mpshare_types::{Fraction, IdAllocator, Result};
use mpshare_workloads::{BenchmarkKind, ProblemSize, WorkflowSpec};

/// MPS partition each client gets: restricted below 100 % so the
/// granularity (SM-partition) component is visibly non-zero, large
/// enough that the group still oversubscribes and contends.
pub const PARTITION: f64 = 0.5;

/// The attributed group: the ext_faults quartet — two light solver
/// pairs with enough concurrent residency that every component of the
/// decomposition has something to measure.
fn workloads() -> Vec<WorkflowSpec> {
    vec![
        WorkflowSpec::uniform(BenchmarkKind::AthenaPk, ProblemSize::X4, 2),
        WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 30),
        WorkflowSpec::uniform(BenchmarkKind::AthenaPk, ProblemSize::X4, 2),
        WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 30),
    ]
}

fn programs(device: &DeviceSpec) -> Result<Vec<ClientProgram>> {
    let mut ids = IdAllocator::new();
    workloads()
        .iter()
        .map(|w| w.to_client_program(device, &mut ids))
        .collect()
}

fn config(device: &DeviceSpec, clients: usize) -> EngineConfig {
    EngineConfig::new(
        device.clone(),
        SharingMode::Mps {
            partitions: vec![Fraction::new(PARTITION); clients],
        },
    )
    .with_sharing_overhead(mpshare_core::executor::DEFAULT_MPS_OVERHEAD)
    .with_event_log(true)
}

/// The shared run the attribution decomposes, with its exact config and
/// programs. Also the engine timeline `--trace-out` merges into the
/// unified Perfetto artifact.
pub fn traced_run(device: &DeviceSpec) -> Result<(EngineConfig, Vec<ClientProgram>, RunResult)> {
    let programs = programs(device)?;
    let config = config(device, programs.len());
    let roster = ValidatedPrograms::new(&config.device, programs.clone())?;
    let result = Engine::new(config.clone(), roster, EngineScratch::default())?
        .run()?
        .result;
    Ok((config, programs, result))
}

/// Runs the group and attributes every client's slowdown.
pub fn report(device: &DeviceSpec) -> Result<AttributionReport> {
    let (config, programs, result) = traced_run(device)?;
    mpshare_obs::attribute(&config, &programs, &result)
}

/// Full experiment.
pub fn run(device: &DeviceSpec) -> Result<Experiment> {
    let report = report(device)?;
    let mut table = TextTable::new([
        "Client",
        "Label",
        "Solo (s)",
        "Turnaround (s)",
        "Slowdown",
        "SM Part (s)",
        "Contention (s)",
        "Throttle (s)",
        "Mem Wait (s)",
        "Residual (s)",
    ]);
    for c in &report.clients {
        table.push_row([
            c.client.to_string(),
            c.label.clone(),
            fmt(c.solo_turnaround, 2),
            fmt(c.shared_turnaround, 2),
            fmt(c.slowdown, 4),
            fmt(c.sm_partition, 3),
            fmt(c.bandwidth_contention, 3),
            fmt(c.power_throttle, 3),
            fmt(c.memory_wait, 3),
            format!("{:.1e}", c.residual),
        ]);
    }
    Ok(Experiment::new(
        "ext_attrib",
        "Extension: per-client slowdown attribution under a shared MPS group",
        table,
    )
    .with_note(
        "each client's excess turnaround over its measured solo run is \
         decomposed exactly from the engine's piecewise-constant segments \
         and event log into SM-partition, bandwidth-contention, \
         power-throttle, and memory-wait seconds; the four components sum \
         to the observed excess to floating-point roundoff (|residual| \
         < 1e-9), so nothing of the slowdown is left unexplained",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_sum_to_observed_slowdown() {
        let report = report(&DeviceSpec::a100x()).unwrap();
        assert_eq!(report.mode, "mps");
        assert_eq!(report.clients.len(), 4);
        for c in &report.clients {
            assert!(c.completed && c.exact, "fault-free run: all exact");
            let total = c.sm_partition + c.bandwidth_contention + c.power_throttle + c.memory_wait;
            assert!(
                (c.excess - total).abs() < 1e-9,
                "client {}: excess {} vs components {}",
                c.client,
                c.excess,
                total
            );
            assert!(c.residual.abs() < 1e-9);
            assert!(c.slowdown >= 1.0 - 1e-9, "slowdown {}", c.slowdown);
            // Restricted partitions cost real time.
            assert!(c.sm_partition > 0.0);
        }
        // A four-way group must show some contention somewhere.
        assert!(report.clients.iter().any(|c| c.bandwidth_contention > 0.0));
    }

    #[test]
    fn experiment_renders_one_row_per_client() {
        let experiment = run(&DeviceSpec::a100x()).unwrap();
        let rendered = experiment.render();
        assert!(rendered.contains("ext_attrib"));
        assert!(rendered.contains("Contention (s)"));
        for client in ["0", "1", "2", "3"] {
            assert!(rendered.contains(client));
        }
    }
}
