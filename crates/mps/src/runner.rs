//! A uniform entry point for running client programs under any sharing
//! mechanism.
//!
//! The profiler, scheduler, and experiment harness all execute workloads
//! through [`GpuRunner::run`], selecting the mechanism with [`GpuSharing`]:
//! sequential (the paper's baseline), time slicing, MPS with per-client
//! partitions, or MIG with an instance layout and a program→instance
//! assignment.
//!
//! For MIG, each instance is an isolated sub-device simulated by its own
//! engine; the per-instance timelines are merged into a single board-level
//! [`Telemetry`] (utilizations weighted by slice size, powers summed, with
//! idle instances and unused slices drawing their share of idle power) so
//! that every mechanism reports comparable metrics.

use crate::mig::MigLayout;
use crate::timeslice::TimeSliceConfig;
use mpshare_gpusim::{
    ClientOutcome, ClientProgram, DeviceSpec, Engine, EngineConfig, EngineRun, EngineScratch,
    EngineStats, FaultPlan, RunResult, Segment, SharingMode, Telemetry, ValidatedPrograms,
};
use mpshare_types::{Error, Fraction, Power, Result, Seconds};
use serde::{Deserialize, Serialize};

/// Observability hook for one engine run: hot-path counters from
/// [`EngineStats`], fault/goodput accounting, the timeline (the run's
/// telemetry in the run table, per-client state over simulated time and
/// per-mechanism turnaround — see `mpshare_obs::timeline`), and a
/// Daemon-track span covering the simulated makespan. A no-op unless
/// recording is enabled.
///
/// `shares[i]` is client `i`'s SM-partition fraction under the mechanism
/// (empty slice ⇒ unpartitioned, i.e. 1.0 for everyone). Emission happens
/// here, post-run, derived exactly from the immutable [`RunResult`]'s
/// piecewise-constant telemetry segments and client outcomes: the engine
/// itself stays observability-free, so the zero-alloc steady state and
/// bit-identity of results are untouched by recording.
fn record_engine_run(
    mode: &'static str,
    clients: usize,
    faults_planned: u64,
    result: &RunResult,
    stats: EngineStats,
    shares: &[f64],
) {
    if !mpshare_obs::enabled() {
        return;
    }
    use mpshare_obs::names;
    mpshare_obs::counter_add(names::ENGINE_RUNS, 1);
    mpshare_obs::counter_add(names::ENGINE_EVENTS, stats.events);
    mpshare_obs::counter_add(names::ENGINE_RATE_SOLVES, stats.rate_solves);
    mpshare_obs::counter_add(names::ENGINE_FULL_SOLVES, stats.rate_solves);
    mpshare_obs::counter_add(names::ENGINE_RESIDENT_CHANGES, stats.resident_changes);
    mpshare_obs::observe(
        names::ENGINE_QUEUE_DEPTH,
        &mpshare_obs::DEPTH_BUCKETS,
        stats.max_queue_depth as f64,
    );
    mpshare_obs::gauge_add(names::ENGINE_SIM_SECONDS, result.makespan.value());
    mpshare_obs::observe(
        names::GROUP_MAKESPAN_SECONDS,
        &mpshare_obs::SIM_SECONDS_BUCKETS,
        result.makespan.value(),
    );
    mpshare_obs::counter_add(names::FAULTS_INJECTED, faults_planned);
    let failed = result.clients.iter().filter(|c| c.failed).count() as u64;
    mpshare_obs::counter_add(names::CLIENTS_FAILED, failed);
    mpshare_obs::counter_add(names::TASKS_COMPLETED, result.tasks_completed as u64);
    mpshare_obs::counter_add(names::TASKS_FAILED, result.tasks_failed as u64);
    mpshare_obs::gauge_add(names::WASTED_ENERGY_JOULES, result.wasted_energy.joules());

    // The run table keeps the run's telemetry itself: the device series
    // (`device.*`, `occupancy.{mode}`) are exact folds over it, read in
    // the table's content order whatever the worker schedule.
    use mpshare_obs::series;
    let tl = mpshare_obs::timelines();
    tl.record_run(mode, result.makespan.value(), &result.telemetry);
    // Per-client state over the client's [started, finished] residency:
    // residency itself, the mechanism-granted SM share, and the mean
    // dynamic power over the residency (dyn_energy ÷ residency — exact as
    // an integral, since energy was integrated exactly engine-side).
    // Turnarounds feed the exact quantile tracks; failed clients are
    // excluded (their "finish" is the abort, not a completion).
    let mech_turnaround = series::mechanism_turnaround(mode);
    for (i, c) in result.clients.iter().enumerate() {
        let share = shares.get(i).copied().unwrap_or(1.0);
        let start = c.started.value();
        let dur = (c.finished.value() - start).max(0.0);
        tl.series_push_span(&series::client(&c.label, "resident"), start, dur, 1.0);
        tl.series_push_span(&series::client(&c.label, "sm_share"), start, dur, share);
        if dur > 0.0 {
            tl.series_push_span(
                &series::client(&c.label, "dyn_power_w"),
                start,
                dur,
                c.dyn_energy.joules() / dur,
            );
        }
        if !c.failed {
            tl.quantile_observe(series::CLIENT_TURNAROUND, c.finished.value());
            tl.quantile_observe(&mech_turnaround, c.finished.value());
        }
    }
    let (completed, failed_tasks) = (result.tasks_completed, result.tasks_failed);
    let (events, solves) = (stats.events, stats.rate_solves);
    let queue_depth = stats.max_queue_depth;
    let makespan = result.makespan.value();
    mpshare_obs::emit(
        mpshare_obs::Track::Daemon,
        "engine.run",
        Some(0.0),
        Some(makespan),
        || {
            serde_json::json!({
                "mode": mode,
                "clients": clients,
                "tasks_completed": completed,
                "tasks_failed": failed_tasks,
                "events": events,
                "rate_solves": solves,
                "max_queue_depth": queue_depth,
            })
        },
    );
}

/// Records a fault-domain rewrite: the mechanism's [`FailureDomain`]
/// transforming the submitted client-fault plan (widening under a shared
/// server/process, restriction to instance members under MIG).
fn record_domain_rewrite(mechanism: &'static str, domain: FailureDomain, faults: &FaultPlan) {
    if faults.is_empty() || !mpshare_obs::enabled() {
        return;
    }
    mpshare_obs::counter_add(mpshare_obs::names::FAULT_DOMAIN_REWRITES, 1);
    let n = faults.len();
    mpshare_obs::emit(
        mpshare_obs::Track::Daemon,
        "daemon.fault_domain_rewrite",
        None,
        None,
        || {
            serde_json::json!({
                "mechanism": mechanism,
                "domain": format!("{domain:?}"),
                "faults": n,
            })
        },
    );
}

/// How far a fatal client fault spreads under a sharing mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureDomain {
    /// One shared MPS server: a fatal fault kills every resident client
    /// (the documented MPS semantics — no fault containment).
    SharedServer,
    /// One fused process (CUDA Streams): a fault in any stream kills the
    /// process, and with it every stream.
    SharedProcess,
    /// The fault is contained to the faulting client (sequential and
    /// time-sliced execution: separate processes, separate contexts).
    PerClient,
    /// The fault is contained to the clients sharing the faulting
    /// client's MIG instance; other instances are hardware-isolated.
    PerInstance,
}

/// Which sharing mechanism to run under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GpuSharing {
    /// Jobs run one after another in queue order — the paper's baseline.
    Sequential,
    /// The driver's default time-sliced scheduler.
    TimeSliced(TimeSliceConfig),
    /// CUDA MPS with per-client SM partitions (`partitions[i]` for
    /// program `i`).
    Mps { partitions: Vec<Fraction> },
    /// CUDA Streams: the programs run as streams of one fused process —
    /// concurrent, no partitions, no per-client MPS pressure, but also no
    /// memory protection between them (§II-B).
    Streams,
    /// MIG: `assignment[i]` is the index of the instance program `i` runs
    /// on. Programs sharing an instance run under MPS (full partitions)
    /// within it.
    Mig {
        layout: MigLayout,
        assignment: Vec<usize>,
    },
}

impl GpuSharing {
    /// MPS with all clients unrestricted (the MPS default).
    pub fn mps_default(clients: usize) -> GpuSharing {
        GpuSharing::Mps {
            partitions: vec![Fraction::ONE; clients],
        }
    }

    /// The mechanism's failure domain: how far a fatal client fault
    /// spreads. This is what makes the mechanism taxonomy failure-aware —
    /// collocation gains trade against blast radius.
    pub fn failure_domain(&self) -> FailureDomain {
        match self {
            GpuSharing::Mps { .. } => FailureDomain::SharedServer,
            GpuSharing::Streams => FailureDomain::SharedProcess,
            GpuSharing::Sequential | GpuSharing::TimeSliced(_) => FailureDomain::PerClient,
            GpuSharing::Mig { .. } => FailureDomain::PerInstance,
        }
    }
}

/// Runs client programs on one GPU under a chosen sharing mechanism.
///
/// ```
/// use mpshare_gpusim::{ClientProgram, DeviceSpec, KernelSpec, LaunchConfig, TaskProgram};
/// use mpshare_mps::{GpuRunner, GpuSharing};
/// use mpshare_types::{Fraction, MemBytes, Seconds, TaskId};
///
/// let device = DeviceSpec::a100x();
/// let kernel = KernelSpec::from_launch(&device, LaunchConfig::dense(216, 1024), Seconds::new(1.0))
///     .with_sm_demand(Fraction::new(0.3));
/// let mut task = TaskProgram::new(TaskId::new(0), "demo", MemBytes::from_mib(256));
/// task.push_kernel(kernel);
/// let mut program = ClientProgram::new("demo");
/// program.push_task(task);
///
/// let result = GpuRunner::new(device)
///     .run(&GpuSharing::mps_default(1), vec![program])
///     .unwrap();
/// assert_eq!(result.tasks_completed, 1);
/// assert!((result.makespan.value() - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct GpuRunner {
    device: DeviceSpec,
    sharing_overhead: f64,
    record_events: bool,
    force_full_resolve: bool,
}

impl GpuRunner {
    pub fn new(device: DeviceSpec) -> Self {
        GpuRunner {
            device,
            sharing_overhead: 0.0,
            record_events: false,
            force_full_resolve: false,
        }
    }

    /// Records a discrete-event log on every run (task/kernel boundaries,
    /// throttle transitions) — needed for kernel-level trace export.
    pub fn with_event_log(mut self, record: bool) -> Self {
        self.record_events = record;
        self
    }

    /// Bypasses the engine's time-slice solve cache on every run
    /// (including each MIG instance engine), forcing a contention solve at
    /// every resident-set change. Results are bit-identical with the cache
    /// — the fuzz harness runs both and compares.
    pub fn with_forced_full_resolve(mut self, force: bool) -> Self {
        self.force_full_resolve = force;
        self
    }

    /// Sets the device-level per-co-runner MPS overhead (shared scheduling
    /// hardware / L2 pressure); see `mpshare-gpusim`'s contention model.
    pub fn with_sharing_overhead(mut self, overhead: f64) -> Self {
        self.sharing_overhead = overhead;
        self
    }

    /// Executes `programs` under `sharing` and returns the merged result.
    pub fn run(&self, sharing: &GpuSharing, programs: Vec<ClientProgram>) -> Result<RunResult> {
        self.run_with_faults(sharing, programs, &FaultPlan::default())
    }

    /// Like [`GpuRunner::run`], but injects `faults`. The plan lists
    /// *client* faults (by program index); this is where the mechanism's
    /// [`FailureDomain`] takes effect:
    ///
    /// * MPS and Streams widen every fault to the shared domain — the
    ///   origin's fatal fault takes down every unfinished sibling.
    /// * Sequential and time slicing keep faults contained to the origin.
    /// * MIG restricts each instance's engine to the faults of its own
    ///   members, widened within the instance (programs collocated on one
    ///   instance share its MPS server); other instances never see them.
    pub fn run_with_faults(
        &self,
        sharing: &GpuSharing,
        programs: Vec<ClientProgram>,
        faults: &FaultPlan,
    ) -> Result<RunResult> {
        match sharing {
            GpuSharing::Sequential => self.run_engine(
                "sequential",
                SharingMode::Sequential,
                programs,
                faults.clone(),
            ),
            GpuSharing::TimeSliced(cfg) => self.run_engine(
                "time-sliced",
                cfg.to_sharing_mode(),
                programs,
                faults.clone(),
            ),
            GpuSharing::Mps { partitions } => {
                record_domain_rewrite("mps", sharing.failure_domain(), faults);
                self.run_engine(
                    "mps",
                    SharingMode::Mps {
                        partitions: partitions.clone(),
                    },
                    programs,
                    faults.widen_to_domain(),
                )
            }
            GpuSharing::Streams => {
                record_domain_rewrite("streams", sharing.failure_domain(), faults);
                self.run_engine(
                    "streams",
                    SharingMode::Streams,
                    programs,
                    faults.widen_to_domain(),
                )
            }
            GpuSharing::Mig { layout, assignment } => {
                record_domain_rewrite("mig", sharing.failure_domain(), faults);
                self.run_mig(layout, assignment, programs, faults)
            }
        }
    }

    fn run_engine(
        &self,
        mode_label: &'static str,
        mode: SharingMode,
        programs: Vec<ClientProgram>,
        faults: FaultPlan,
    ) -> Result<RunResult> {
        let clients = programs.len();
        let faults_planned = faults.len() as u64;
        // Per-client SM shares for the timeline, captured before `mode`
        // moves into the config; built only when recording is on.
        let shares: Option<Vec<f64>> = mpshare_obs::enabled().then(|| match &mode {
            SharingMode::Mps { partitions } => partitions.iter().map(|p| p.value()).collect(),
            _ => Vec::new(),
        });
        let config = EngineConfig::new(self.device.clone(), mode)
            .with_sharing_overhead(self.sharing_overhead)
            .with_event_log(self.record_events)
            .with_forced_full_resolve(self.force_full_resolve)
            .with_fault_plan(faults);
        let roster = ValidatedPrograms::new(&config.device, programs)?;
        let EngineRun { result, stats, .. } =
            Engine::new(config, roster, EngineScratch::default())?.run()?;
        record_engine_run(
            mode_label,
            clients,
            faults_planned,
            &result,
            stats,
            shares.as_deref().unwrap_or(&[]),
        );
        Ok(result)
    }

    fn run_mig(
        &self,
        layout: &MigLayout,
        assignment: &[usize],
        programs: Vec<ClientProgram>,
        faults: &FaultPlan,
    ) -> Result<RunResult> {
        if assignment.len() != programs.len() {
            return Err(Error::InvalidConfig(format!(
                "{} assignments for {} programs",
                assignment.len(),
                programs.len()
            )));
        }
        let n_instances = layout.instances().len();
        if let Some(&bad) = assignment.iter().find(|&&a| a >= n_instances) {
            return Err(Error::InvalidConfig(format!(
                "assignment to instance {bad}, but only {n_instances} exist"
            )));
        }

        // Partition the programs per instance, remembering original order.
        let mut per_instance: Vec<Vec<(usize, ClientProgram)>> = vec![Vec::new(); n_instances];
        for (idx, (program, &inst)) in programs.into_iter().zip(assignment).enumerate() {
            per_instance[inst].push((idx, program));
        }

        let mut sub_results: Vec<(usize, RunResult, Vec<usize>)> = Vec::new();
        for (inst, batch) in per_instance.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let (orig_indices, progs): (Vec<usize>, Vec<ClientProgram>) = batch.into_iter().unzip();
            let device = layout.instances()[inst].device.clone();
            // The instance sees only its members' faults, widened within
            // the instance: collocated programs share the instance's MPS
            // server, but the hardware wall stops anything wider.
            let instance_faults = faults.restrict(&orig_indices).widen_to_domain();
            let config = EngineConfig::new(
                device,
                SharingMode::Mps {
                    partitions: vec![Fraction::ONE; progs.len()],
                },
            )
            .with_sharing_overhead(self.sharing_overhead)
            .with_event_log(self.record_events)
            .with_forced_full_resolve(self.force_full_resolve)
            .with_fault_plan(instance_faults.clone());
            let clients = progs.len();
            let roster = ValidatedPrograms::new(&config.device, progs)?;
            let EngineRun { result, stats, .. } =
                Engine::new(config, roster, EngineScratch::default())?.run()?;
            record_engine_run(
                "mig-instance",
                clients,
                instance_faults.len() as u64,
                &result,
                stats,
                // Instance members run under full MPS partitions.
                &[],
            );
            sub_results.push((inst, result, orig_indices));
        }

        self.merge_mig_results(layout, sub_results)
    }

    /// Merges per-instance results into one board-level result. Unused
    /// slices and instances that finished early keep drawing their share
    /// of idle power until the board-level makespan.
    fn merge_mig_results(
        &self,
        layout: &MigLayout,
        sub_results: Vec<(usize, RunResult, Vec<usize>)>,
    ) -> Result<RunResult> {
        let makespan = sub_results
            .iter()
            .map(|(_, r, _)| r.makespan)
            .fold(Seconds::ZERO, Seconds::max);

        // Board-level idle power not covered by any busy instance:
        // unused slices, plus the whole-board fraction MIG cannot slice.
        let covered_idle: f64 = sub_results
            .iter()
            .map(|(inst, _, _)| layout.instances()[*inst].device.idle_power.watts())
            .sum();
        let uncovered_idle = (self.device.idle_power.watts() - covered_idle).max(0.0);

        let parts: Vec<(&RunResult, &DeviceSpec)> = sub_results
            .iter()
            .map(|(inst, r, _)| (r, &layout.instances()[*inst].device))
            .collect();
        let telemetry = merge_parallel_telemetries(&self.device, &parts, makespan, uncovered_idle);

        // Client outcomes keep their original submission order.
        let mut clients: Vec<(usize, ClientOutcome)> = Vec::new();
        for (_, result, orig_indices) in &sub_results {
            for (client, &orig) in result.clients.iter().zip(orig_indices) {
                clients.push((orig, client.clone()));
            }
        }
        clients.sort_by_key(|(orig, _)| *orig);
        let clients: Vec<ClientOutcome> = clients.into_iter().map(|(_, c)| c).collect();
        let tasks_completed = clients.iter().map(|c| c.completions.len()).sum();
        let total_energy = telemetry.total_energy();

        // Fault records come back instance-local; remap origins to the
        // original submission indices and merge in firing order.
        let mut failures: Vec<mpshare_gpusim::FaultRecord> = Vec::new();
        for (_, result, orig_indices) in &sub_results {
            for rec in &result.failures {
                failures.push(mpshare_gpusim::FaultRecord {
                    at: rec.at,
                    origin: orig_indices[rec.origin],
                    victims: rec.victims,
                });
            }
        }
        failures.sort_by(|a, b| {
            a.at.partial_cmp(&b.at)
                .expect("finite fault times")
                .then_with(|| a.origin.cmp(&b.origin))
        });
        // Merge per-instance event logs, remapping instance-local client
        // indices (including fault origins in the payload) back to the
        // original submission indices. A stable sort by time keeps
        // same-instant events in instance order — deterministic, since
        // instances are visited in index order.
        let events = if self.record_events {
            let mut merged: Vec<mpshare_gpusim::Event> = Vec::new();
            for (_, result, orig_indices) in &sub_results {
                for ev in result.events.events() {
                    let mut ev = ev.clone();
                    if ev.client != mpshare_gpusim::Event::DEVICE {
                        ev.client = orig_indices[ev.client];
                    }
                    match &mut ev.kind {
                        mpshare_gpusim::EventKind::ClientFault { origin }
                        | mpshare_gpusim::EventKind::ServerCrash { origin } => {
                            *origin = orig_indices[*origin];
                        }
                        mpshare_gpusim::EventKind::ContextSwitch { to_client } => {
                            *to_client = orig_indices[*to_client];
                        }
                        _ => {}
                    }
                    merged.push(ev);
                }
            }
            merged.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite event times"));
            let mut log = mpshare_gpusim::EventLog::new();
            for ev in merged {
                log.record(ev.at, ev.client, ev.kind);
            }
            log
        } else {
            mpshare_gpusim::EventLog::default()
        };

        let tasks_failed = sub_results.iter().map(|(_, r, _)| r.tasks_failed).sum();
        let wasted_progress = Seconds::new(
            sub_results
                .iter()
                .map(|(_, r, _)| r.wasted_progress.value())
                .sum(),
        );
        let wasted_energy = mpshare_types::Energy::from_joules(
            sub_results
                .iter()
                .map(|(_, r, _)| r.wasted_energy.joules())
                .sum(),
        );

        Ok(RunResult {
            telemetry,
            clients,
            makespan,
            total_energy,
            tasks_completed,
            failures,
            tasks_failed,
            wasted_progress,
            wasted_energy,
            events,
        })
    }
}

/// Merges parallel per-instance telemetries into one board-level timeline.
///
/// Utilizations are weighted by each instance's share of the parent's SMs
/// (for SM util) and bandwidth (for BW util); powers are summed. An
/// instance contributes its idle power after its own timeline ends, and
/// `uncovered_idle_watts` (unused slices) is added throughout.
fn merge_parallel_telemetries(
    parent: &DeviceSpec,
    parts: &[(&RunResult, &DeviceSpec)],
    horizon: Seconds,
    uncovered_idle_watts: f64,
) -> Telemetry {
    let mut boundaries: Vec<f64> = vec![0.0, horizon.value()];
    for (r, _) in parts {
        for s in r.telemetry.segments() {
            boundaries.push(s.start.value());
            boundaries.push(s.end.value());
        }
    }
    boundaries.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    boundaries.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

    let mut merged = Telemetry::new();
    // Per-part sweep cursor over its segments.
    let mut cursors = vec![0usize; parts.len()];
    for w in boundaries.windows(2) {
        let (t0, t1) = (w[0], w[1]);
        if t1 - t0 <= 1e-12 || t0 >= horizon.value() {
            continue;
        }
        let mid = 0.5 * (t0 + t1);
        let mut sm = 0.0;
        let mut bw = 0.0;
        let mut power = uncovered_idle_watts;
        let mut capped = false;
        let mut active = 0usize;
        for (pi, (r, dev)) in parts.iter().enumerate() {
            let segs = &r.telemetry;
            while segs.get(cursors[pi]).is_some_and(|s| s.end.value() <= mid) {
                cursors[pi] += 1;
            }
            let sm_weight = dev.num_sms as f64 / parent.num_sms as f64;
            let bw_weight =
                dev.memory_bandwidth_bytes_per_sec / parent.memory_bandwidth_bytes_per_sec;
            match segs.get(cursors[pi]) {
                Some(s) if s.start.value() <= mid => {
                    sm += s.sm_util * sm_weight;
                    bw += s.bw_util * bw_weight;
                    power += s.power.watts();
                    capped |= s.capped;
                    active += s.active_clients;
                }
                _ => {
                    // Instance idle (finished or not yet started).
                    power += dev.idle_power.watts();
                }
            }
        }
        merged.record(Segment {
            start: Seconds::new(t0),
            end: Seconds::new(t1),
            sm_util: sm.min(1.0),
            bw_util: bw.min(1.0),
            power: Power::from_watts(power),
            clock_factor: 1.0,
            capped,
            active_clients: active,
        });
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mig::MigProfile;
    use mpshare_gpusim::{KernelSpec, LaunchConfig, TaskProgram};
    use mpshare_types::{MemBytes, TaskId};

    fn dev() -> DeviceSpec {
        DeviceSpec::a100x()
    }

    fn program(label: &str, id: u64, dur: f64, sm: f64) -> ClientProgram {
        let kernel = KernelSpec::from_launch(
            &dev(),
            LaunchConfig::dense(216 * 64, 1024),
            Seconds::new(dur),
        )
        .with_sm_demand(Fraction::new(sm));
        let mut t = TaskProgram::new(TaskId::new(id), label, MemBytes::from_mib(256));
        t.push_kernel(kernel);
        let mut c = ClientProgram::new(label);
        c.push_task(t);
        c
    }

    #[test]
    fn sequential_and_mps_agree_with_engine_semantics() {
        let runner = GpuRunner::new(dev());
        let seq = runner
            .run(
                &GpuSharing::Sequential,
                vec![program("a", 0, 2.0, 0.3), program("b", 1, 2.0, 0.3)],
            )
            .unwrap();
        assert!((seq.makespan.value() - 4.0).abs() < 1e-9);

        let mps = runner
            .run(
                &GpuSharing::mps_default(2),
                vec![program("a", 0, 2.0, 0.3), program("b", 1, 2.0, 0.3)],
            )
            .unwrap();
        assert!((mps.makespan.value() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn timesliced_runs_through_config() {
        let runner = GpuRunner::new(dev());
        let r = runner
            .run(
                &GpuSharing::TimeSliced(TimeSliceConfig::driver_default()),
                vec![program("a", 0, 0.5, 0.3), program("b", 1, 0.5, 0.3)],
            )
            .unwrap();
        // GPU work serializes: makespan ≈ 1.0 plus switch overheads.
        assert!(r.makespan.value() >= 1.0);
        assert!(r.makespan.value() < 1.2, "makespan {}", r.makespan);
    }

    #[test]
    fn streams_run_concurrently_without_client_pressure() {
        let runner = GpuRunner::new(dev());
        let r = runner
            .run(
                &GpuSharing::Streams,
                vec![program("a", 0, 2.0, 0.3), program("b", 1, 2.0, 0.3)],
            )
            .unwrap();
        assert!((r.makespan.value() - 2.0).abs() < 1e-6);
        assert_eq!(r.tasks_completed, 2);
    }

    #[test]
    fn mig_isolates_instances() {
        let runner = GpuRunner::new(dev());
        let layout =
            MigLayout::new(&dev(), &[MigProfile::ThreeSlice, MigProfile::FourSlice]).unwrap();
        // Two kernels that would contend heavily under MPS run isolated
        // under MIG (each slowed only by its smaller instance).
        let r = runner
            .run(
                &GpuSharing::Mig {
                    layout,
                    assignment: vec![0, 1],
                },
                vec![program("a", 0, 2.0, 0.9), program("b", 1, 2.0, 0.9)],
            )
            .unwrap();
        assert_eq!(r.tasks_completed, 2);
        // Each instance is slower than the full device but both run in
        // parallel; makespan is bounded by the smaller instance's slowdown.
        assert!(r.makespan.value() > 2.0);
        assert!(r.makespan.value() < 8.0);
    }

    #[test]
    fn mig_board_power_includes_idle_instances() {
        let runner = GpuRunner::new(dev());
        let layout =
            MigLayout::new(&dev(), &[MigProfile::OneSlice, MigProfile::FourSlice]).unwrap();
        // Only instance 0 gets work; instance 1 and the 2 unused slices
        // must still draw idle power.
        let r = runner
            .run(
                &GpuSharing::Mig {
                    layout,
                    assignment: vec![0],
                },
                vec![program("a", 0, 1.0, 0.5)],
            )
            .unwrap();
        // Board power strictly above the busy slice's own draw.
        let one_slice_idle = dev().idle_power.watts() / 7.0;
        assert!(r.telemetry.avg_power().watts() > one_slice_idle + 10.0);
        // And at least the full board idle power.
        assert!(r.telemetry.avg_power().watts() >= dev().idle_power.watts() - 1.0);
    }

    #[test]
    fn mig_rejects_bad_assignments() {
        let runner = GpuRunner::new(dev());
        let layout = MigLayout::new(&dev(), &[MigProfile::SevenSlice]).unwrap();
        let err = runner
            .run(
                &GpuSharing::Mig {
                    layout: layout.clone(),
                    assignment: vec![1],
                },
                vec![program("a", 0, 1.0, 0.5)],
            )
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)));
        let err = runner
            .run(
                &GpuSharing::Mig {
                    layout,
                    assignment: vec![0, 0],
                },
                vec![program("a", 0, 1.0, 0.5)],
            )
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)));
    }

    #[test]
    fn mig_preserves_client_order() {
        let runner = GpuRunner::new(dev());
        let layout =
            MigLayout::new(&dev(), &[MigProfile::ThreeSlice, MigProfile::ThreeSlice]).unwrap();
        let r = runner
            .run(
                &GpuSharing::Mig {
                    layout,
                    assignment: vec![1, 0, 1],
                },
                vec![
                    program("first", 0, 0.5, 0.2),
                    program("second", 1, 0.5, 0.2),
                    program("third", 2, 0.5, 0.2),
                ],
            )
            .unwrap();
        let labels: Vec<&str> = r.clients.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, vec!["first", "second", "third"]);
    }

    /// Regression for the at-only completion sort: merged MIG results keep
    /// instance-local `client` ids in their completion records, so exact
    /// cross-instance completion-time ties must be broken by the canonical
    /// `(at, client, task)` key — never by the order the merge flattened
    /// the instances in.
    #[test]
    fn mig_merged_equal_time_ties_sort_canonically() {
        let runner = GpuRunner::new(dev());
        let layout =
            MigLayout::new(&dev(), &[MigProfile::ThreeSlice, MigProfile::ThreeSlice]).unwrap();
        // Identical programs on identical isolated instances complete at
        // bit-identical times; task ids are chosen so the canonical order
        // (tied on `at` and on the instance-local client id 0) reverses
        // submission order.
        let r = runner
            .run(
                &GpuSharing::Mig {
                    layout,
                    assignment: vec![0, 1],
                },
                vec![program("a", 9, 0.5, 0.2), program("b", 2, 0.5, 0.2)],
            )
            .unwrap();
        assert_eq!(r.tasks_completed, 2);
        let completions: Vec<_> = r.completions().into_iter().cloned().collect();
        assert_eq!(
            completions[0].at, completions[1].at,
            "expected an exact cross-instance completion tie"
        );
        assert!(
            completions.iter().all(|c| c.client == 0),
            "merged records keep instance-local client ids"
        );
        // Tie broken by task id: task 2 ("b") before task 9 ("a"), even
        // though the merge flattens instance 0 ("a") first — an at-only
        // stable sort would have kept flatten order.
        assert_eq!(completions[0].label, "b");
        assert_eq!(completions[1].label, "a");
    }

    #[test]
    fn mig_slices_run_calibrated_kernels_proportionally_slower() {
        // A kernel calibrated on the full A100X must not run at full
        // speed on a 3/7th slice: its reference device is the whole GPU.
        let runner = GpuRunner::new(dev());
        let layout = MigLayout::new(&dev(), &[MigProfile::ThreeSlice]).unwrap();
        let slice_sms = layout.instances()[0].device.num_sms;
        let solo = runner
            .run(
                &GpuSharing::mps_default(1),
                vec![program("a", 0, 10.0, 0.9)],
            )
            .unwrap();
        let sliced = runner
            .run(
                &GpuSharing::Mig {
                    layout,
                    assignment: vec![0],
                },
                vec![program("a", 0, 10.0, 0.9)],
            )
            .unwrap();
        let expected_slowdown = 108.0 / slice_sms as f64;
        let actual = sliced.makespan.value() / solo.makespan.value();
        assert!(
            (actual - expected_slowdown).abs() / expected_slowdown < 0.05,
            "slowdown {actual:.3} vs expected {expected_slowdown:.3}"
        );
    }

    #[test]
    fn failure_domains_match_mechanism_semantics() {
        assert_eq!(
            GpuSharing::mps_default(2).failure_domain(),
            FailureDomain::SharedServer
        );
        assert_eq!(
            GpuSharing::Streams.failure_domain(),
            FailureDomain::SharedProcess
        );
        assert_eq!(
            GpuSharing::Sequential.failure_domain(),
            FailureDomain::PerClient
        );
        assert_eq!(
            GpuSharing::TimeSliced(TimeSliceConfig::driver_default()).failure_domain(),
            FailureDomain::PerClient
        );
        let layout = MigLayout::new(&dev(), &[MigProfile::SevenSlice]).unwrap();
        assert_eq!(
            GpuSharing::Mig {
                layout,
                assignment: vec![0]
            }
            .failure_domain(),
            FailureDomain::PerInstance
        );
    }

    /// The tentpole's core contrast: the same client fault takes down all
    /// siblings under MPS (shared server), only the origin under time
    /// slicing, and only the origin's instance under MIG.
    #[test]
    fn same_fault_has_mechanism_dependent_blast_radius() {
        let runner = GpuRunner::new(dev());
        let programs = || {
            vec![
                program("a", 0, 4.0, 0.2),
                program("b", 1, 4.0, 0.2),
                program("c", 2, 4.0, 0.2),
            ]
        };
        let mut faults = FaultPlan::new();
        faults.push_client_fault(Seconds::new(1.0), 0);

        let mps = runner
            .run_with_faults(&GpuSharing::mps_default(3), programs(), &faults)
            .unwrap();
        assert_eq!(mps.tasks_completed, 0, "MPS: server crash kills everyone");
        assert!(mps.clients.iter().all(|c| c.failed));
        assert_eq!(mps.failures[0].victims, 3);

        let ts = runner
            .run_with_faults(
                &GpuSharing::TimeSliced(TimeSliceConfig::driver_default()),
                programs(),
                &faults,
            )
            .unwrap();
        assert_eq!(ts.tasks_completed, 2, "TS: fault contained to origin");
        assert!(ts.clients[0].failed && !ts.clients[1].failed && !ts.clients[2].failed);
        assert_eq!(ts.failures[0].victims, 1);

        let layout =
            MigLayout::new(&dev(), &[MigProfile::ThreeSlice, MigProfile::FourSlice]).unwrap();
        let mig = runner
            .run_with_faults(
                &GpuSharing::Mig {
                    layout,
                    // a and b share instance 0; c is isolated on 1.
                    assignment: vec![0, 0, 1],
                },
                programs(),
                &faults,
            )
            .unwrap();
        assert_eq!(mig.tasks_completed, 1, "MIG: instance 1 is isolated");
        assert!(mig.clients[0].failed, "origin dies");
        assert!(
            mig.clients[1].failed,
            "instance-mate dies with the shared server"
        );
        assert!(!mig.clients[2].failed, "other instance survives");
        assert_eq!(mig.failures.len(), 1);
        assert_eq!(
            mig.failures[0].origin, 0,
            "origin remapped to submission index"
        );
        assert_eq!(mig.failures[0].victims, 2);
        assert_eq!(mig.tasks_failed, 2);
        assert!(mig.wasted_progress.value() > 0.0);
    }

    #[test]
    fn empty_fault_plan_matches_plain_run() {
        let runner = GpuRunner::new(dev());
        let layout =
            MigLayout::new(&dev(), &[MigProfile::ThreeSlice, MigProfile::FourSlice]).unwrap();
        let sharing = GpuSharing::Mig {
            layout,
            assignment: vec![0, 1],
        };
        let programs = || vec![program("a", 0, 1.0, 0.5), program("b", 1, 2.0, 0.5)];
        let plain = runner.run(&sharing, programs()).unwrap();
        let faulted = runner
            .run_with_faults(&sharing, programs(), &FaultPlan::default())
            .unwrap();
        assert_eq!(plain.makespan, faulted.makespan);
        assert_eq!(plain.total_energy, faulted.total_energy);
        assert_eq!(plain.clients, faulted.clients);
        assert!(faulted.failures.is_empty());
    }

    /// Regression (fuzz-found): `with_event_log` used to be silently
    /// ignored under MIG — instance engines never recorded, and the merged
    /// result hardcoded an empty log. The merged log must carry every
    /// instance's events with client indices remapped to submission order.
    #[test]
    fn mig_merges_instance_event_logs() {
        let runner = GpuRunner::new(dev()).with_event_log(true);
        let layout =
            MigLayout::new(&dev(), &[MigProfile::ThreeSlice, MigProfile::FourSlice]).unwrap();
        let mut faults = FaultPlan::new();
        faults.push_client_fault(Seconds::new(0.5), 1);
        let r = runner
            .run_with_faults(
                &GpuSharing::Mig {
                    layout,
                    // Client 1 is alone on instance 0; clients 0 and 2
                    // share instance 1.
                    assignment: vec![1, 0, 1],
                },
                vec![
                    program("a", 0, 1.0, 0.3),
                    program("b", 1, 2.0, 0.3),
                    program("c", 2, 1.0, 0.3),
                ],
                &faults,
            )
            .unwrap();
        assert!(!r.events.is_empty(), "merged MIG log must not be empty");
        // Every submitted client appears in the log under its original
        // index, and no instance-local index leaks through.
        for client in 0..3 {
            assert!(
                r.events.for_client(client).count() > 0,
                "client {client} missing from merged log"
            );
        }
        // The fault hit client 1; its ClientFault event must carry the
        // remapped origin.
        let fault_events: Vec<_> = r
            .events
            .events()
            .iter()
            .filter(|e| matches!(e.kind, mpshare_gpusim::EventKind::ClientFault { .. }))
            .collect();
        assert_eq!(fault_events.len(), 1);
        assert_eq!(fault_events[0].client, 1);
        assert!(
            matches!(
                fault_events[0].kind,
                mpshare_gpusim::EventKind::ClientFault { origin: 1 }
            ),
            "{:?}",
            fault_events[0].kind
        );
        // Time never rewinds in the merged log.
        let times: Vec<f64> = r.events.events().iter().map(|e| e.at.value()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // And the merged result still satisfies every engine invariant.
        assert_eq!(r.invariant_violations(Some(3)), Vec::<String>::new());
    }

    #[test]
    fn merged_telemetry_covers_makespan() {
        let runner = GpuRunner::new(dev());
        let layout =
            MigLayout::new(&dev(), &[MigProfile::ThreeSlice, MigProfile::FourSlice]).unwrap();
        let r = runner
            .run(
                &GpuSharing::Mig {
                    layout,
                    assignment: vec![0, 1],
                },
                vec![program("short", 0, 0.5, 0.5), program("long", 1, 3.0, 0.5)],
            )
            .unwrap();
        assert!((r.telemetry.total_time().value() - r.makespan.value()).abs() < 1e-6);
    }
}
