//! Interference attribution: exact per-client slowdown decomposition.
//!
//! For a shared [`RunResult`] recorded with an event log, this module
//! decomposes each client's *excess turnaround* (shared turnaround minus
//! solo turnaround) into four physically meaningful components, the way
//! the paper's Tables I–III decompose co-run slowdowns:
//!
//! * **SM partition** — time lost because the client ran at a restricted
//!   MPS partition instead of the full device (granularity cost, present
//!   even with idle co-runners).
//! * **Bandwidth contention** — time lost to resource contention with
//!   resident co-runners: memory-bandwidth arbitration, SM
//!   oversubscription, cache/client pressure, and the device sharing
//!   overhead (everything the contention solver charges beyond the
//!   client's own partition response).
//! * **Power throttle** — time lost to the SW power cap's clock scaling,
//!   net of any throttling the client would have suffered running solo.
//! * **Memory wait** — time spent blocked waiting for device memory held
//!   by co-runners, net of solo memory waits.
//!
//! The decomposition is computed *exactly* from the piecewise-constant
//! segments and the event log — no sampling, no fitting. Within each
//! telemetry segment the resident kernel set is fixed (residency changes
//! always cut a segment boundary), so re-solving the contention model for
//! that set reproduces the engine's rates bit-for-bit, and the per-segment
//! integrands below are constants:
//!
//! ```text
//! 1 − r_b·c/r_s  =  (1 − r_p/r_s)  +  (r_p − r_b)/r_s  +  r_b·(1 − c)/r_s
//!     excess          SM partition      contention          throttle
//! ```
//!
//! where `r_s` is the kernel's solo rate (full partition), `r_p` its
//! rate alone at its *shared* partition, `r_b` its re-solved contention
//! rate in the resident set, and `c` the segment's clock factor. Summing
//! over a kernel's residency gives its span excess over `W/r_s`; the solo
//! engine run supplies the matching solo spans (whose own excess over
//! `W/r_s` is pure solo throttle), so for every completed client
//!
//! ```text
//! excess = sm_partition + bandwidth_contention + power_throttle + memory_wait
//! ```
//!
//! holds to floating-point roundoff (pinned at 1e-9 by tests). Clients
//! aborted by faults get `exact: false`: their shared turnaround ends at
//! the abort, so comparing it against a full solo run is not an identity —
//! but their resident kernels still participate in their victims'
//! contention terms, which stay exact.
//!
//! Supported sharing modes: [`SharingMode::Mps`] and
//! [`SharingMode::Streams`] (concurrent residency). Sequential and
//! time-sliced runs interleave clients in time, where "interference" is
//! queueing, not contention — attribution rejects them.

use mpshare_gpusim::{
    ClientProgram, ContentionSolver, Engine, EngineConfig, EngineScratch, EventKind,
    PreparedContender, RunResult, SharingMode, SolveScratch, ValidatedPrograms,
};
use mpshare_types::{Error, Fraction, Result, TaskId};
use std::collections::HashMap;

/// One client's slowdown decomposition, all components in seconds of
/// turnaround time (divide by `solo_turnaround` for slowdown units).
#[derive(Debug, Clone, PartialEq)]
pub struct ClientAttribution {
    pub client: usize,
    pub label: String,
    /// False when the client was aborted by a fault.
    pub completed: bool,
    /// Turnaround of the client running alone on the same device
    /// (computed by an actual solo engine run, not an estimate).
    pub solo_turnaround: f64,
    /// Turnaround observed in the shared run (`finished - started`).
    pub shared_turnaround: f64,
    /// `shared_turnaround - solo_turnaround`.
    pub excess: f64,
    /// `shared_turnaround / solo_turnaround`.
    pub slowdown: f64,
    pub sm_partition: f64,
    pub bandwidth_contention: f64,
    pub power_throttle: f64,
    pub memory_wait: f64,
    /// `excess - Σ components`; ~0 (|residual| < 1e-9) when `exact`.
    pub residual: f64,
    /// Whether the identity `excess = Σ components` is guaranteed (true
    /// exactly for completed clients).
    pub exact: bool,
}

/// The full report for one shared run.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionReport {
    /// Sharing-mode name the run used (`"mps"` or `"streams"`).
    pub mode: String,
    pub clients: Vec<ClientAttribution>,
}

/// One contiguous residency of a kernel on the GPU (aborted clients'
/// in-flight kernels are closed at the abort time: they contended until
/// the moment they died).
struct ResidencySpan {
    client: usize,
    start: f64,
    end: f64,
    prepared: PreparedContender,
    /// Solo rate at full partition (the profile baseline's rate).
    r_solo: f64,
    /// Rate running alone at the client's *shared* partition.
    r_part: f64,
}

/// Decomposes each client's slowdown in `result` against its solo
/// profile. `config` and `programs` must be exactly the ones the shared
/// run used; `result` must carry an event log
/// (`EngineConfig::record_events`).
pub fn attribute(
    config: &EngineConfig,
    programs: &[ClientProgram],
    result: &RunResult,
) -> Result<AttributionReport> {
    let (mode_name, partition_of): (&str, Box<dyn Fn(usize) -> Fraction>) = match &config.mode {
        SharingMode::Mps { partitions } => {
            if partitions.len() != programs.len() {
                return Err(Error::InvalidConfig(format!(
                    "{} partitions for {} programs",
                    partitions.len(),
                    programs.len()
                )));
            }
            let parts = partitions.clone();
            ("mps", Box::new(move |i| parts[i]))
        }
        SharingMode::Streams => ("streams", Box::new(|_| Fraction::ONE)),
        other => {
            return Err(Error::InvalidConfig(format!(
                "attribution requires concurrent residency (MPS or Streams); run used {other:?}"
            )));
        }
    };
    if result.events.is_empty() {
        return Err(Error::InvalidConfig(
            "attribution requires an event log: run with EngineConfig::record_events".into(),
        ));
    }
    if result.clients.len() != programs.len() {
        return Err(Error::InvalidConfig(format!(
            "{} programs for {} client outcomes",
            programs.len(),
            result.clients.len()
        )));
    }

    let same_process = matches!(config.mode, SharingMode::Streams);
    let solver = ContentionSolver::new(config.device.clone(), config.sharing_overhead)
        .with_same_process(same_process);
    let mut scratch = SolveScratch::default();
    let mut allocs = Vec::new();
    let mut solve_single = |p: PreparedContender| -> f64 {
        solver.solve_prepared_into(&[p], &mut scratch, &mut allocs);
        allocs[0].rate
    };

    // Reconstruct residency spans from the event log, closing aborted
    // clients' in-flight kernels at their fault time.
    let kernel_of = |client: usize, task: TaskId, kernel_index: usize| {
        programs[client]
            .tasks
            .iter()
            .find(|t| t.id == task)
            .and_then(|t| t.kernels.get(kernel_index))
            .ok_or_else(|| {
                Error::InvalidConfig(format!(
                    "event log references unknown kernel {kernel_index} of task {task} on client {client}"
                ))
            })
    };
    let mut spans: Vec<ResidencySpan> = Vec::new();
    let mut open: HashMap<(usize, TaskId, usize), usize> = HashMap::new();
    // Memory-wait bookkeeping: blocked time per client.
    let mut mem_wait = vec![0.0f64; programs.len()];
    let mut blocked_since: Vec<Option<f64>> = vec![None; programs.len()];
    for event in result.events.events() {
        let at = event.at.value();
        match &event.kind {
            EventKind::KernelStart { task, kernel_index } => {
                let kernel = kernel_of(event.client, *task, *kernel_index)?;
                let partition = partition_of(event.client);
                let prepared = PreparedContender::new(&config.device, kernel, partition);
                let prepared_solo = PreparedContender::new(&config.device, kernel, Fraction::ONE);
                let r_part = solve_single(prepared);
                let r_solo = solve_single(prepared_solo);
                open.insert((event.client, *task, *kernel_index), spans.len());
                spans.push(ResidencySpan {
                    client: event.client,
                    start: at,
                    end: f64::INFINITY,
                    prepared,
                    r_solo,
                    r_part,
                });
            }
            EventKind::KernelEnd { task, kernel_index } => {
                if let Some(idx) = open.remove(&(event.client, *task, *kernel_index)) {
                    spans[idx].end = at;
                }
            }
            EventKind::MemoryBlocked { .. } => {
                blocked_since[event.client] = Some(at);
            }
            EventKind::MemoryGranted { .. } => {
                if let Some(since) = blocked_since[event.client].take() {
                    mem_wait[event.client] += at - since;
                }
            }
            EventKind::ClientFault { .. } => {
                // The abort removes the client's kernel from the GPU and
                // ends any memory wait.
                open.retain(|&(client, _, _), &mut idx| {
                    if client == event.client {
                        spans[idx].end = at;
                        false
                    } else {
                        true
                    }
                });
                if let Some(since) = blocked_since[event.client].take() {
                    mem_wait[event.client] += at - since;
                }
            }
            _ => {}
        }
    }
    for (_, idx) in open {
        // Unterminated span (log capacity overflow): close at makespan so
        // the integrals stay finite; exactness for its client is already
        // void in that case.
        spans[idx].end = result.makespan.value();
    }

    // Integrate the decomposition over every (segment × resident span)
    // cell. Resident sets are constant within a segment, so one solve per
    // distinct set (memoized) covers all its cells.
    let mut sm_partition = vec![0.0f64; programs.len()];
    let mut contention = vec![0.0f64; programs.len()];
    let mut throttle_shared = vec![0.0f64; programs.len()];
    let mut solved: HashMap<Vec<usize>, Vec<f64>> = HashMap::new();
    for segment in result.telemetry.segments() {
        let (s0, s1) = (segment.start.value(), segment.end.value());
        // Spans resident during this segment (positive overlap implies
        // whole-segment residency: residency changes cut segments).
        let mut resident: Vec<usize> = spans
            .iter()
            .enumerate()
            .filter(|(_, sp)| sp.start < s1 && sp.end > s0)
            .map(|(i, _)| i)
            .collect();
        if resident.is_empty() {
            continue;
        }
        // The engine schedules running clients in ascending index order;
        // replicate it so the solve is bit-identical.
        resident.sort_by_key(|&i| spans[i].client);
        let rates = solved.entry(resident.clone()).or_insert_with(|| {
            let prepared: Vec<PreparedContender> =
                resident.iter().map(|&i| spans[i].prepared).collect();
            solver.solve_prepared_into(&prepared, &mut scratch, &mut allocs);
            allocs.iter().map(|a| a.rate).collect()
        });
        for (slot, &i) in resident.iter().enumerate() {
            let span = &spans[i];
            let dt = span.end.min(s1) - span.start.max(s0);
            if dt <= 0.0 {
                continue;
            }
            let r_b = rates[slot];
            let c = span.client;
            sm_partition[c] += dt * (1.0 - span.r_part / span.r_solo);
            contention[c] += dt * (span.r_part - r_b) / span.r_solo;
            throttle_shared[c] += dt * r_b * (1.0 - segment.clock_factor) / span.r_solo;
        }
    }

    // Solo baselines: actually run each client alone (same device, full
    // partition, no faults) and measure its turnaround, throttle time and
    // memory waits from its own log and segments.
    let mut clients = Vec::with_capacity(programs.len());
    for (i, program) in programs.iter().enumerate() {
        let mut solo_config = EngineConfig::new(config.device.clone(), SharingMode::mps_uniform(1))
            .with_sharing_overhead(config.sharing_overhead)
            .with_event_log(true);
        solo_config.max_events = config.max_events;
        let roster = ValidatedPrograms::new(&solo_config.device, vec![program.clone()])?;
        let solo = Engine::new(solo_config, roster, EngineScratch::default())?
            .run()?
            .result;
        let solo_client = &solo.clients[0];
        let solo_turnaround = (solo_client.finished - solo_client.started).value();

        // Solo throttle: Σ over solo kernel residency of (1 − clock')·dt.
        let mut solo_throttle = 0.0f64;
        for (_, _, _, start, end) in solo.events.kernel_spans() {
            let (k0, k1) = (start.value(), end.value());
            for segment in solo.telemetry.segments() {
                let dt = segment.end.value().min(k1) - segment.start.value().max(k0);
                if dt > 0.0 {
                    solo_throttle += dt * (1.0 - segment.clock_factor);
                }
            }
        }
        // Solo memory waits (a client can self-block only if a task barely
        // fits; include it for completeness).
        let mut solo_mem_wait = 0.0f64;
        let mut since: Option<f64> = None;
        for event in solo.events.events() {
            match event.kind {
                EventKind::MemoryBlocked { .. } => since = Some(event.at.value()),
                EventKind::MemoryGranted { .. } => {
                    if let Some(s) = since.take() {
                        solo_mem_wait += event.at.value() - s;
                    }
                }
                _ => {}
            }
        }

        let outcome = &result.clients[i];
        let shared_turnaround = (outcome.finished - outcome.started).value();
        let excess = shared_turnaround - solo_turnaround;
        let power_throttle = throttle_shared[i] - solo_throttle;
        let memory_wait = mem_wait[i] - solo_mem_wait;
        let total = sm_partition[i] + contention[i] + power_throttle + memory_wait;
        let completed = !outcome.failed;
        clients.push(ClientAttribution {
            client: i,
            label: outcome.label.clone(),
            completed,
            solo_turnaround,
            shared_turnaround,
            excess,
            slowdown: if solo_turnaround > 0.0 {
                shared_turnaround / solo_turnaround
            } else {
                1.0
            },
            sm_partition: sm_partition[i],
            bandwidth_contention: contention[i],
            power_throttle,
            memory_wait,
            residual: excess - total,
            exact: completed,
        });
    }

    Ok(AttributionReport {
        mode: mode_name.to_string(),
        clients,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpshare_gpusim::{DeviceSpec, FaultPlan, KernelSpec, LaunchConfig, TaskProgram};
    use mpshare_types::{MemBytes, Seconds};

    fn dev() -> DeviceSpec {
        DeviceSpec::a100x()
    }

    fn kernel(dur: f64, sm: f64, bw: f64) -> KernelSpec {
        KernelSpec::from_launch(
            &dev(),
            LaunchConfig::dense(216 * 64, 1024),
            Seconds::new(dur),
        )
        .with_sm_demand(Fraction::new(sm))
        .with_bw_demand(Fraction::new(bw))
    }

    fn program(label: &str, id: u64, kernels: Vec<KernelSpec>, memory: MemBytes) -> ClientProgram {
        let mut task = TaskProgram::new(mpshare_types::TaskId::new(id), label, memory)
            .with_setup(Seconds::new(0.5));
        for k in kernels {
            task.push_kernel(k);
        }
        let mut p = ClientProgram::new(label);
        p.push_task(task);
        p
    }

    fn shared_run(config: &EngineConfig, programs: &[ClientProgram]) -> RunResult {
        let roster = ValidatedPrograms::new(&config.device, programs.to_vec()).unwrap();
        Engine::new(config.clone(), roster, EngineScratch::default())
            .unwrap()
            .run()
            .unwrap()
            .result
    }

    fn assert_exact(report: &AttributionReport) {
        for c in &report.clients {
            assert!(c.exact, "client {} should be exact", c.client);
            assert!(
                c.residual.abs() < 1e-9,
                "client {}: residual {} (excess {}, components {} {} {} {})",
                c.client,
                c.residual,
                c.excess,
                c.sm_partition,
                c.bandwidth_contention,
                c.power_throttle,
                c.memory_wait
            );
        }
    }

    #[test]
    fn contention_heavy_pair_decomposes_exactly() {
        let programs = vec![
            program(
                "bw-hog-a",
                1,
                vec![kernel(4.0, 0.4, 0.8); 3],
                MemBytes::from_gib(2),
            ),
            program(
                "bw-hog-b",
                2,
                vec![kernel(3.0, 0.5, 0.7); 4],
                MemBytes::from_gib(2),
            ),
        ];
        let config = EngineConfig::new(
            dev(),
            SharingMode::Mps {
                partitions: vec![Fraction::new(0.5), Fraction::new(0.5)],
            },
        )
        .with_sharing_overhead(0.002)
        .with_event_log(true);
        let result = shared_run(&config, &programs);
        let report = attribute(&config, &programs, &result).unwrap();
        assert_exact(&report);
        for c in &report.clients {
            assert!(c.slowdown > 1.0, "co-run must slow client {}", c.client);
            assert!(c.sm_partition > 0.0, "half partitions cost time");
            assert!(
                c.bandwidth_contention > 0.0,
                "oversubscribed bandwidth must show up as contention"
            );
        }
    }

    #[test]
    fn throttled_run_attributes_power_component() {
        // High power-scale kernels push the board past the cap only when
        // co-resident: the throttle component is pure sharing cost.
        let hot = |dur: f64| kernel(dur, 0.45, 0.2).with_power_scale(1.6);
        let programs = vec![
            program("hot-a", 1, vec![hot(5.0); 2], MemBytes::from_gib(2)),
            program("hot-b", 2, vec![hot(4.0); 3], MemBytes::from_gib(2)),
        ];
        let config = EngineConfig::new(dev(), SharingMode::mps_uniform(2)).with_event_log(true);
        let result = shared_run(&config, &programs);
        assert!(
            result.telemetry.capped_time().value() > 0.0,
            "test needs an actually-throttled shared run"
        );
        let report = attribute(&config, &programs, &result).unwrap();
        assert_exact(&report);
        assert!(
            report.clients.iter().any(|c| c.power_throttle > 1e-6),
            "throttled segments must surface as a power component"
        );
    }

    #[test]
    fn memory_blocked_client_attributes_wait() {
        // Each task wants 60% of device memory: the second client must
        // wait for the first to finish.
        let big = MemBytes::from_gib(48);
        let programs = vec![
            program("mem-a", 1, vec![kernel(3.0, 0.3, 0.2); 2], big),
            program("mem-b", 2, vec![kernel(3.0, 0.3, 0.2); 2], big),
        ];
        let config = EngineConfig::new(dev(), SharingMode::mps_uniform(2)).with_event_log(true);
        let result = shared_run(&config, &programs);
        let report = attribute(&config, &programs, &result).unwrap();
        assert_exact(&report);
        assert!(
            report.clients[1].memory_wait > 1.0,
            "blocked client must report memory wait, got {}",
            report.clients[1].memory_wait
        );
        assert!(report.clients[0].memory_wait.abs() < 1e-9);
    }

    #[test]
    fn survivors_stay_exact_when_a_corunner_is_aborted() {
        let programs = vec![
            program(
                "victim",
                1,
                vec![kernel(4.0, 0.4, 0.8); 3],
                MemBytes::from_gib(2),
            ),
            program(
                "survivor",
                2,
                vec![kernel(3.0, 0.5, 0.7); 4],
                MemBytes::from_gib(2),
            ),
        ];
        let mut faults = FaultPlan::new();
        faults.push_client_fault(Seconds::new(5.0), 0);
        let config = EngineConfig::new(dev(), SharingMode::mps_uniform(2))
            .with_event_log(true)
            .with_fault_plan(faults);
        let result = shared_run(&config, &programs);
        assert!(result.clients[0].failed && !result.clients[1].failed);
        let report = attribute(&config, &programs, &result).unwrap();
        assert!(
            !report.clients[0].exact,
            "aborted client is flagged inexact"
        );
        let survivor = &report.clients[1];
        assert!(survivor.exact);
        assert!(
            survivor.residual.abs() < 1e-9,
            "survivor residual {} — aborted co-runner's residency must still count",
            survivor.residual
        );
    }

    #[test]
    fn rejects_unsupported_modes_and_missing_logs() {
        let programs = vec![program(
            "solo",
            1,
            vec![kernel(1.0, 0.3, 0.2)],
            MemBytes::from_gib(1),
        )];
        let ts = EngineConfig::new(dev(), SharingMode::timesliced_default()).with_event_log(true);
        let result = shared_run(&ts, &programs);
        assert!(attribute(&ts, &programs, &result).is_err());

        let mps = EngineConfig::new(dev(), SharingMode::mps_uniform(1));
        let result = shared_run(&mps, &programs);
        // No event log recorded -> rejected.
        assert!(attribute(&mps, &programs, &result).is_err());
    }
}
