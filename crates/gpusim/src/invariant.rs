//! Self-check hooks: the conservation laws a [`RunResult`] must satisfy.
//!
//! The engine promises a set of accounting identities — task counts close,
//! wasted-work totals equal the per-client sums they were folded from,
//! energy equals the telemetry integral, aborted clients stay silent after
//! their fault. The fuzz harness (`mpshare-fuzz`) runs every generated
//! scenario through [`RunResult::invariant_violations`]; each check returns
//! a human-readable description of the broken identity so a violation is
//! actionable without re-running the scenario under a debugger.
//!
//! The checks are pure functions of the result (plus the optional expected
//! task total only the caller knows), so tests can deliberately corrupt a
//! result and assert the matching check fires — the oracle is itself under
//! test.

use crate::engine::RunResult;
use crate::events::{Event, EventKind};
use mpshare_types::Seconds;

/// Absolute slack for time comparisons, matching the engine's
/// progress-resolution epsilon.
const TIME_EPS: f64 = 1e-9;

/// Relative slack for energy comparisons: totals are folded in the same
/// order as the per-part sums, so only serialization round-trips could
/// perturb them, and those are exact for finite doubles.
const ENERGY_REL_EPS: f64 = 1e-9;

fn energy_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= ENERGY_REL_EPS * a.abs().max(b.abs()).max(1.0)
}

impl RunResult {
    /// Checks every conservation and consistency identity the engine
    /// promises, returning one message per violated identity (empty when
    /// the result is sound). `total_tasks`, when known by the caller, is
    /// the number of tasks submitted across all client programs and closes
    /// the completed-plus-failed ledger.
    pub fn invariant_violations(&self, total_tasks: Option<usize>) -> Vec<String> {
        let mut v = Vec::new();
        self.check_finiteness(&mut v);
        self.check_task_conservation(total_tasks, &mut v);
        self.check_wasted_totals(&mut v);
        self.check_fault_consistency(&mut v);
        self.check_energy(&mut v);
        self.check_timeline(&mut v);
        self.check_events(&mut v);
        v
    }

    fn check_finiteness(&self, v: &mut Vec<String>) {
        let scalars = [
            ("makespan", self.makespan.value()),
            ("total_energy", self.total_energy.joules()),
            ("wasted_progress", self.wasted_progress.value()),
            ("wasted_energy", self.wasted_energy.joules()),
        ];
        for (name, value) in scalars {
            if !value.is_finite() || value < 0.0 {
                v.push(format!(
                    "{name} must be finite and non-negative, got {value}"
                ));
            }
        }
        for (i, c) in self.clients.iter().enumerate() {
            for (name, value) in [
                ("started", c.started.value()),
                ("finished", c.finished.value()),
                ("gpu_progress", c.gpu_progress.value()),
                ("wasted_progress", c.wasted_progress.value()),
                ("wasted_energy", c.wasted_energy.joules()),
                ("dyn_energy", c.dyn_energy.joules()),
            ] {
                if !value.is_finite() || value < 0.0 {
                    v.push(format!(
                        "client {i} ({}): {name} must be finite and non-negative, got {value}",
                        c.label
                    ));
                }
            }
        }
    }

    fn check_task_conservation(&self, total_tasks: Option<usize>, v: &mut Vec<String>) {
        let completed: usize = self.clients.iter().map(|c| c.completions.len()).sum();
        if completed != self.tasks_completed {
            v.push(format!(
                "tasks_completed is {} but per-client completions sum to {completed}",
                self.tasks_completed
            ));
        }
        if let Some(total) = total_tasks {
            if self.tasks_completed + self.tasks_failed != total {
                v.push(format!(
                    "task ledger does not close: {} completed + {} failed != {total} submitted",
                    self.tasks_completed, self.tasks_failed
                ));
            }
        }
    }

    fn check_wasted_totals(&self, v: &mut Vec<String>) {
        // Same fold order as the engine (and the MIG merge after its
        // client re-sort is a permutation — tolerate reassociation there
        // only up to the energy epsilon).
        let progress_sum: f64 = self.clients.iter().map(|c| c.wasted_progress.value()).sum();
        if !energy_close(progress_sum, self.wasted_progress.value()) {
            v.push(format!(
                "wasted_progress is {} but per-client sum is {progress_sum}",
                self.wasted_progress.value()
            ));
        }
        let energy_sum: f64 = self.clients.iter().map(|c| c.wasted_energy.joules()).sum();
        if !energy_close(energy_sum, self.wasted_energy.joules()) {
            v.push(format!(
                "wasted_energy is {} J but per-client sum is {energy_sum} J",
                self.wasted_energy.joules()
            ));
        }
        for (i, c) in self.clients.iter().enumerate() {
            if c.wasted_energy.joules() > c.dyn_energy.joules() * (1.0 + ENERGY_REL_EPS) + 1e-9 {
                v.push(format!(
                    "client {i} ({}): wasted_energy {} J exceeds its dyn_energy {} J",
                    c.label,
                    c.wasted_energy.joules(),
                    c.dyn_energy.joules()
                ));
            }
            if c.wasted_progress.value() > c.gpu_progress.value() + TIME_EPS {
                v.push(format!(
                    "client {i} ({}): wasted_progress {} exceeds its gpu_progress {}",
                    c.label,
                    c.wasted_progress.value(),
                    c.gpu_progress.value()
                ));
            }
        }
    }

    fn check_fault_consistency(&self, v: &mut Vec<String>) {
        let failed_clients = self.clients.iter().filter(|c| c.failed).count();
        if self.failures.is_empty() {
            if failed_clients > 0 {
                v.push(format!(
                    "{failed_clients} clients failed but no fault fired"
                ));
            }
            if self.tasks_failed > 0 {
                v.push(format!(
                    "tasks_failed is {} but no fault fired",
                    self.tasks_failed
                ));
            }
            if self.wasted_progress.value() > 0.0 || self.wasted_energy.joules() > 0.0 {
                v.push(format!(
                    "wasted work ({} s, {} J) without any fault firing",
                    self.wasted_progress.value(),
                    self.wasted_energy.joules()
                ));
            }
        } else {
            let victims: usize = self.failures.iter().map(|f| f.victims).sum();
            if victims != failed_clients {
                v.push(format!(
                    "fault records claim {victims} victims but {failed_clients} clients failed"
                ));
            }
            for rec in &self.failures {
                if rec.origin != Event::DEVICE && rec.origin >= self.clients.len() {
                    v.push(format!(
                        "fault record origin {} out of range ({} clients)",
                        rec.origin,
                        self.clients.len()
                    ));
                }
            }
        }
        for (i, c) in self.clients.iter().enumerate() {
            if !c.failed && (c.wasted_progress.value() > 0.0 || c.wasted_energy.joules() > 0.0) {
                v.push(format!(
                    "client {i} ({}): wasted work on a client that did not fail",
                    c.label
                ));
            }
        }
    }

    fn check_energy(&self, v: &mut Vec<String>) {
        if self.telemetry.is_empty() {
            return;
        }
        // Folded here rather than read from the telemetry's running total,
        // which `total_energy` was copied from: the check stays independent.
        let integral: f64 = self.telemetry.segments().map(|s| s.energy().joules()).sum();
        if !energy_close(integral, self.total_energy.joules()) {
            v.push(format!(
                "total_energy {} J disagrees with the telemetry integral {integral} J",
                self.total_energy.joules()
            ));
        }
        let dyn_sum: f64 = self.clients.iter().map(|c| c.dyn_energy.joules()).sum();
        if dyn_sum > self.total_energy.joules() * (1.0 + ENERGY_REL_EPS) + 1e-9 {
            v.push(format!(
                "attributed dynamic energy {dyn_sum} J exceeds total board energy {} J",
                self.total_energy.joules()
            ));
        }
    }

    fn check_timeline(&self, v: &mut Vec<String>) {
        let makespan = self.makespan.value();
        for (i, c) in self.clients.iter().enumerate() {
            if c.finished.value() > makespan + TIME_EPS {
                v.push(format!(
                    "client {i} ({}): finished at {} after the makespan {makespan}",
                    c.label,
                    c.finished.value()
                ));
            }
            if c.started.value() > c.finished.value() + TIME_EPS {
                v.push(format!(
                    "client {i} ({}): started at {} after finishing at {}",
                    c.label,
                    c.started.value(),
                    c.finished.value()
                ));
            }
            let mut prev = Seconds::ZERO;
            for comp in &c.completions {
                if comp.at < prev {
                    v.push(format!(
                        "client {i} ({}): completions out of time order at {}",
                        c.label,
                        comp.at.value()
                    ));
                    break;
                }
                prev = comp.at;
            }
            if let Some(last) = c.completions.last() {
                if last.at.value() > makespan + TIME_EPS {
                    v.push(format!(
                        "client {i} ({}): completion at {} after the makespan {makespan}",
                        c.label,
                        last.at.value()
                    ));
                }
            }
        }
        if !self.telemetry.is_empty() {
            let covered: f64 = self
                .telemetry
                .segments()
                .map(|s| s.duration().value())
                .sum();
            if covered > makespan + 1e-6 {
                v.push(format!(
                    "telemetry covers {covered} s, past the makespan {makespan} s"
                ));
            }
        }
    }

    /// Aborted clients must go silent: after a client's fault time, the
    /// log may contain no further activity for it and its completion list
    /// may not grow. Only meaningful when the run recorded events.
    fn check_events(&self, v: &mut Vec<String>) {
        if self.events.is_empty() {
            return;
        }
        for (i, c) in self.clients.iter().enumerate() {
            if !c.failed {
                continue;
            }
            let fault_at = self.events.for_client(i).find_map(|e| match e.kind {
                EventKind::ClientFault { .. } => Some(e.at),
                _ => None,
            });
            let Some(fault_at) = fault_at else {
                v.push(format!(
                    "client {i} ({}): failed but the log has no ClientFault event for it",
                    c.label
                ));
                continue;
            };
            for e in self.events.for_client(i) {
                let active = matches!(
                    e.kind,
                    EventKind::TaskStart { .. }
                        | EventKind::TaskEnd { .. }
                        | EventKind::KernelStart { .. }
                        | EventKind::KernelEnd { .. }
                        | EventKind::MemoryGranted { .. }
                );
                if active && e.at.value() > fault_at.value() + TIME_EPS {
                    v.push(format!(
                        "client {i} ({}): {:?} at {} — activity after its abort at {}",
                        c.label,
                        e.kind,
                        e.at.value(),
                        fault_at.value()
                    ));
                }
            }
            if let Some(last) = c.completions.last() {
                if last.at.value() > fault_at.value() + TIME_EPS {
                    v.push(format!(
                        "client {i} ({}): completion at {} after its abort at {}",
                        c.label,
                        last.at.value(),
                        fault_at.value()
                    ));
                }
            }
        }
        // The log is appended in simulation order; time must never rewind.
        let mut prev = Seconds::ZERO;
        for e in self.events.events() {
            if e.at < prev {
                v.push(format!("event log rewinds time at {}", e.at.value()));
                break;
            }
            prev = e.at;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::device::DeviceSpec;
    use crate::engine::{Engine, EngineConfig, EngineScratch, RunResult, SharingMode};
    use crate::events::EventKind;
    use crate::fault::FaultPlan;
    use crate::kernel::{KernelSpec, LaunchConfig};
    use crate::program::{ClientProgram, TaskProgram, ValidatedPrograms};
    use mpshare_types::{Energy, Fraction, MemBytes, Seconds, TaskId};

    fn program(label: &str, id: u64, dur: f64) -> ClientProgram {
        let device = DeviceSpec::a100x();
        let kernel = KernelSpec::from_launch(
            &device,
            LaunchConfig::dense(216 * 32, 256),
            Seconds::new(dur),
        )
        .with_sm_demand(Fraction::new(0.4));
        let mut t = TaskProgram::new(TaskId::new(id), label, MemBytes::from_mib(128));
        t.push_kernel(kernel);
        let mut c = ClientProgram::new(label);
        c.push_task(t);
        c
    }

    fn run(config: EngineConfig, programs: Vec<ClientProgram>) -> RunResult {
        let roster = ValidatedPrograms::new(&config.device, programs).unwrap();
        let engine = Engine::new(config, roster, EngineScratch::default()).unwrap();
        engine.run().unwrap().result
    }

    fn run_with_fault() -> RunResult {
        let device = DeviceSpec::a100x();
        let mut faults = FaultPlan::new();
        faults.push_client_fault(Seconds::new(1.0), 0);
        let config = EngineConfig::new(
            device,
            SharingMode::Mps {
                partitions: vec![Fraction::ONE; 2],
            },
        )
        .with_event_log(true)
        .with_fault_plan(faults.widen_to_domain());
        run(config, vec![program("a", 0, 3.0), program("b", 1, 3.0)])
    }

    #[test]
    fn sound_runs_have_no_violations() {
        let r = run_with_fault();
        assert_eq!(r.invariant_violations(Some(2)), Vec::<String>::new());
    }

    #[test]
    fn mutated_task_total_fires() {
        let mut r = run_with_fault();
        r.tasks_completed += 1;
        let v = r.invariant_violations(None);
        assert!(v.iter().any(|m| m.contains("tasks_completed")), "{v:?}");
    }

    #[test]
    fn broken_task_ledger_fires() {
        let r = run_with_fault();
        let v = r.invariant_violations(Some(99));
        assert!(v.iter().any(|m| m.contains("ledger")), "{v:?}");
    }

    #[test]
    fn energy_leak_fires() {
        let mut r = run_with_fault();
        r.total_energy = Energy::from_joules(r.total_energy.joules() + 1.0);
        let v = r.invariant_violations(Some(2));
        assert!(v.iter().any(|m| m.contains("telemetry integral")), "{v:?}");
    }

    #[test]
    fn wasted_total_drift_fires() {
        let mut r = run_with_fault();
        r.wasted_energy = Energy::from_joules(r.wasted_energy.joules() * 2.0 + 1.0);
        let v = r.invariant_violations(Some(2));
        assert!(v.iter().any(|m| m.contains("wasted_energy")), "{v:?}");
    }

    #[test]
    fn post_abort_activity_fires() {
        let mut r = run_with_fault();
        assert!(r.clients[0].failed);
        let after = Seconds::new(r.makespan.value() + 0.5);
        r.events.record(
            after,
            0,
            EventKind::KernelStart {
                task: TaskId::new(0),
                kernel_index: 0,
            },
        );
        let v = r.invariant_violations(Some(2));
        assert!(
            v.iter().any(|m| m.contains("activity after its abort")),
            "{v:?}"
        );
    }

    #[test]
    fn wasted_work_without_fault_fires() {
        let device = DeviceSpec::a100x();
        let config = EngineConfig::new(
            device,
            SharingMode::Mps {
                partitions: vec![Fraction::ONE],
            },
        );
        let mut r = run(config, vec![program("a", 0, 1.0)]);
        assert!(r.invariant_violations(Some(1)).is_empty());
        r.wasted_progress = Seconds::new(0.5);
        let v = r.invariant_violations(Some(1));
        assert!(v.iter().any(|m| m.contains("without any fault")), "{v:?}");
    }
}
