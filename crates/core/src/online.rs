//! Online scheduling: workflows arriving over time.
//!
//! The paper assumes "a pre-existing queue of workflows to be scheduled"
//! (§IV-B) and names a comprehensive scheduling framework as future work.
//! This module provides that extension: a dispatcher that replans every
//! time the GPU frees, over whatever has arrived by then.
//!
//! The loop is group-at-a-time: when the GPU becomes free at time *t*,
//! the planner runs on all workflows that have arrived and not yet been
//! dispatched; the first group of the resulting plan executes to
//! completion; repeat. If nothing is pending, the GPU idles (drawing idle
//! power) until the next arrival. This preserves the paper's task-level
//! granularity — no preemption of resident groups — while handling open
//! arrival processes.

use crate::executor::{Executor, ExecutorConfig, RunOutcome};
use crate::planner::{PlanGroup, Planner, PlannerStrategy, SchedulePlan};
use crate::wprofile::{workflow_profile, WorkflowProfile};
use mpshare_gpusim::{unit_hash, DeviceSpec, FaultPlan};
use mpshare_profiler::ProfileStore;
use mpshare_types::{Energy, Error, Fraction, IdAllocator, Result, Seconds};
use mpshare_workloads::WorkflowSpec;
use serde::{Deserialize, Serialize};

/// A workflow with an arrival time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivingWorkflow {
    pub spec: WorkflowSpec,
    pub arrival: Seconds,
}

/// One dispatch decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DispatchRecord {
    /// When the group started on the GPU.
    pub at: Seconds,
    /// Indices (into the arrival list) of the workflows in the group.
    pub workflows: Vec<usize>,
    /// The group's makespan.
    pub duration: Seconds,
}

/// Result of an online run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineOutcome {
    /// Completion time of the last group.
    pub makespan: Seconds,
    /// Total energy including idle gaps between dispatches.
    pub energy: Energy,
    /// Tasks that actually completed (failed attempts contribute nothing).
    pub tasks: usize,
    pub decisions: Vec<DispatchRecord>,
    /// Mean time workflows spent queued (first dispatch − arrival).
    pub mean_wait: Seconds,
    /// Dispatches that had to be repeated after a fault.
    #[serde(default)]
    pub retries: usize,
    /// Injected faults that fired across all dispatches.
    #[serde(default)]
    pub faults: usize,
    /// Workflows abandoned after exhausting the retry budget.
    #[serde(default)]
    pub failed_workflows: Vec<usize>,
    /// Dynamic energy spent on attempts that were later discarded.
    #[serde(default)]
    pub wasted_energy: Energy,
    /// Completed tasks per second of makespan — the throughput that
    /// survives faults.
    #[serde(default)]
    pub goodput: f64,
}

/// Seeded fault model for online runs: on each dispatch, every group
/// member faults independently with probability `rate`, at a time uniform
/// in `[0, solo_wall)` of that member. Draws are keyed by
/// `(seed, workflow, attempt)` only, so a retried workflow re-rolls its
/// fate while the schedule stays a pure function of the seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineFaultModel {
    pub seed: u64,
    pub rate: f64,
}

impl OnlineFaultModel {
    pub fn new(seed: u64, rate: f64) -> Result<Self> {
        let model = OnlineFaultModel { seed, rate };
        model.validate()?;
        Ok(model)
    }

    pub fn validate(&self) -> Result<()> {
        if !self.rate.is_finite() || !(0.0..=1.0).contains(&self.rate) {
            return Err(Error::InvalidConfig(format!(
                "online fault rate must be in [0, 1], got {}",
                self.rate
            )));
        }
        Ok(())
    }
}

/// How the dispatcher recovers from failed dispatches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Total attempts per workflow (first dispatch included) before it is
    /// abandoned.
    pub max_attempts: usize,
    /// Base of the exponential dispatch backoff: after attempt *k* fails,
    /// the workflow is not redispatched before
    /// `backoff_base * 2^(k-1)` has passed.
    pub backoff_base: Seconds,
    /// Once a workflow has *originated* this many faults it degrades to
    /// exclusive execution — it runs alone so its next crash cannot take
    /// innocent group-mates down with the shared server.
    pub exclusive_after: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 3,
            backoff_base: Seconds::new(30.0),
            exclusive_after: 2,
        }
    }
}

impl RecoveryPolicy {
    pub fn validate(&self) -> Result<()> {
        if self.max_attempts == 0 {
            return Err(Error::InvalidConfig(
                "recovery policy needs at least one attempt".into(),
            ));
        }
        if self.exclusive_after == 0 {
            return Err(Error::InvalidConfig(
                "exclusive_after must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// The plan's first group, as a typed error instead of a panic when the
/// planner returns no groups.
fn first_group(plan: &SchedulePlan) -> Result<&PlanGroup> {
    plan.groups.first().ok_or_else(|| {
        Error::PlanViolation("planner returned an empty plan: no group to dispatch".into())
    })
}

/// Rejects an empty arrival list and any arrival time that is not a
/// finite, non-negative number. `Seconds` deserializes without the
/// checks in `Seconds::new`, so a config file can carry either; an
/// infinite arrival would otherwise be silently never dispatched.
fn validate_arrivals(arrivals: &[ArrivingWorkflow]) -> Result<()> {
    if arrivals.is_empty() {
        return Err(Error::InvalidConfig("no arrivals".into()));
    }
    for (i, a) in arrivals.iter().enumerate() {
        let t = a.arrival.value();
        if !t.is_finite() || t < 0.0 {
            return Err(Error::InvalidConfig(format!(
                "arrivals[{i}].arrival must be finite and non-negative, got {t}"
            )));
        }
    }
    Ok(())
}

/// Online dispatcher: replans over the pending set at every free point.
#[derive(Debug, Clone)]
pub struct OnlineScheduler {
    device: DeviceSpec,
    planner: Planner,
    strategy: PlannerStrategy,
    executor: Executor,
}

impl OnlineScheduler {
    pub fn new(config: ExecutorConfig, planner: Planner, strategy: PlannerStrategy) -> Self {
        OnlineScheduler {
            device: config.device.clone(),
            planner,
            strategy,
            executor: Executor::new(config),
        }
    }

    /// Runs the arrival process to completion. `store` must already hold
    /// profiles for every referenced (benchmark, size) pair — call
    /// [`ProfileStore::profile_workflows`] first (the offline pass).
    pub fn run(
        &self,
        arrivals: &[ArrivingWorkflow],
        store: &ProfileStore,
    ) -> Result<OnlineOutcome> {
        self.run_with_recovery(arrivals, store, None, &RecoveryPolicy::default())
    }

    /// Like [`OnlineScheduler::run`], with fault injection and recovery.
    ///
    /// With `faults`, each dispatched group member may suffer a fatal
    /// fault; the group runs under one MPS server, so one member's fault
    /// aborts the whole group (the shared failure domain). Failed
    /// workflows are requeued with exponential dispatch backoff until the
    /// policy's retry budget runs out; workflows that keep originating
    /// faults degrade to exclusive execution. With `faults = None` the
    /// outcome is identical to [`OnlineScheduler::run`].
    pub fn run_with_recovery(
        &self,
        arrivals: &[ArrivingWorkflow],
        store: &ProfileStore,
        faults: Option<&OnlineFaultModel>,
        policy: &RecoveryPolicy,
    ) -> Result<OnlineOutcome> {
        validate_arrivals(arrivals)?;
        policy.validate()?;
        if let Some(model) = faults {
            model.validate()?;
        }
        let profiles: Vec<WorkflowProfile> = arrivals
            .iter()
            .map(|a| workflow_profile(store, &a.spec))
            .collect::<Result<Vec<_>>>()?;

        let specs: Vec<WorkflowSpec> = arrivals.iter().map(|a| a.spec.clone()).collect();
        // Fault times scale with each workflow's solo wall time; only
        // needed when a fault model is installed.
        let solo_walls: Vec<Seconds> = if faults.is_some() {
            self.executor.solo_wall_times(&specs)?
        } else {
            Vec::new()
        };

        let n = arrivals.len();
        let mut done = vec![false; n];
        let mut abandoned = vec![false; n];
        let mut attempts = vec![0usize; n];
        // Faults *originated* by each workflow (collateral victims of a
        // group-mate's crash don't count toward exclusive degradation).
        let mut own_faults = vec![0usize; n];
        let mut ready_at: Vec<Seconds> = arrivals.iter().map(|a| a.arrival).collect();
        let mut ids = IdAllocator::new();
        let mut now = Seconds::ZERO;
        let mut energy = Energy::ZERO;
        let mut tasks = 0usize;
        let mut decisions = Vec::new();
        let mut wait_total = 0.0f64;
        let mut retries = 0usize;
        let mut fault_count = 0usize;
        let mut wasted_energy = Energy::ZERO;

        loop {
            // Pending = arrived (or requeued past its backoff), not yet
            // finished, not abandoned.
            let pending: Vec<usize> = (0..n)
                .filter(|&i| !done[i] && !abandoned[i] && ready_at[i] <= now)
                .collect();
            if pending.is_empty() {
                // Jump to the next arrival / backoff expiry (GPU idles).
                let next = (0..n)
                    .filter(|&i| !done[i] && !abandoned[i])
                    .map(|i| ready_at[i])
                    .fold(Seconds::INFINITY, Seconds::min);
                if !next.is_finite() {
                    break;
                }
                energy += self.device.idle_power * next.saturating_sub(now);
                now = next;
                continue;
            }

            // Repeat offenders run alone: their next crash must not take
            // innocent group-mates down with the shared server.
            let offender = pending
                .iter()
                .copied()
                .find(|&i| own_faults[i] >= policy.exclusive_after);
            let local_group = match offender {
                Some(w) => PlanGroup {
                    workflow_indices: vec![w],
                    partitions: vec![Fraction::ONE],
                },
                None => {
                    // Plan the pending set and dispatch its first group.
                    let pending_profiles: Vec<WorkflowProfile> =
                        pending.iter().map(|&i| profiles[i].clone()).collect();
                    let plan = self.planner.plan(&pending_profiles, self.strategy)?;
                    let group = first_group(&plan)?;
                    // Map local plan indices back to arrival indices.
                    PlanGroup {
                        workflow_indices: group
                            .workflow_indices
                            .iter()
                            .map(|&l| pending[l])
                            .collect(),
                        partitions: group.partitions.clone(),
                    }
                }
            };
            let members = local_group.workflow_indices.clone();

            // Per-dispatch fault plan: one draw per (workflow, attempt),
            // pure in the seed — bit-identical on any worker count.
            let mut dispatch_faults = FaultPlan::default();
            if let Some(model) = faults {
                for (local, &w) in members.iter().enumerate() {
                    let attempt = attempts[w] as u64;
                    if unit_hash(model.seed, &[w as u64, attempt, 0]) < model.rate {
                        let frac = unit_hash(model.seed, &[w as u64, attempt, 1]);
                        let at = Seconds::new(frac * solo_walls[w].value());
                        dispatch_faults.push_client_fault(at, local);
                    }
                }
            }

            let result = self.executor.run_group_raw_with_faults(
                &specs,
                &local_group,
                &mut ids,
                &dispatch_faults,
            )?;
            let outcome = RunOutcome {
                makespan: result.makespan,
                energy: result.total_energy,
                capped_fraction: result.telemetry.capped_fraction(),
                tasks: result.tasks_completed,
                avg_power: result.telemetry.avg_power(),
                avg_sm_util: result.telemetry.avg_sm_util(),
            };
            // Queue wait accrues at the first dispatch only; a retry is
            // the dispatcher's fault, not queueing delay.
            for &w in &members {
                if attempts[w] == 0 {
                    let wait = (now.saturating_sub(arrivals[w].arrival)).value();
                    wait_total += wait;
                    mpshare_obs::quantile_observe(mpshare_obs::series::SCHED_QUEUE_WAIT, wait);
                }
            }
            for record in &result.failures {
                own_faults[members[record.origin]] += 1;
                fault_count += 1;
                mpshare_obs::counter_add(mpshare_obs::names::SCHED_FAULTS, 1);
            }
            let end = now + outcome.makespan;
            for (local, &w) in members.iter().enumerate() {
                attempts[w] += 1;
                let client = &result.clients[local];
                if client.failed {
                    // The whole attempt is discarded: everything this
                    // client burned above idle was for nothing.
                    wasted_energy += client.dyn_energy;
                    if attempts[w] >= policy.max_attempts {
                        abandoned[w] = true;
                        mpshare_obs::counter_add(mpshare_obs::names::SCHED_ABANDONED, 1);
                        let attempt = attempts[w];
                        mpshare_obs::emit(
                            mpshare_obs::Track::Scheduler,
                            "sched.abandon",
                            Some(end.value()),
                            None,
                            || {
                                serde_json::json!({
                                    "workflow": w,
                                    "attempts": attempt,
                                    "reason": "retry budget exhausted",
                                })
                            },
                        );
                    } else {
                        retries += 1;
                        let backoff =
                            policy.backoff_base.value() * 2f64.powi(attempts[w] as i32 - 1);
                        ready_at[w] = end + Seconds::new(backoff);
                        mpshare_obs::counter_add(mpshare_obs::names::SCHED_RETRIES, 1);
                        let attempt = attempts[w];
                        mpshare_obs::emit(
                            mpshare_obs::Track::Scheduler,
                            "sched.retry",
                            Some(end.value()),
                            None,
                            || {
                                serde_json::json!({
                                    "workflow": w,
                                    "attempt": attempt,
                                    "backoff_s": backoff,
                                })
                            },
                        );
                    }
                } else {
                    done[w] = true;
                    tasks += client.completions.len();
                    // Turnaround = completion − arrival, including queue
                    // wait and any earlier failed attempts' backoff.
                    mpshare_obs::quantile_observe(
                        mpshare_obs::series::SCHED_TURNAROUND,
                        (end.saturating_sub(arrivals[w].arrival)).value(),
                    );
                }
            }
            mpshare_obs::counter_add(mpshare_obs::names::SCHED_DISPATCHES, 1);
            if mpshare_obs::enabled() {
                mpshare_obs::observe(
                    mpshare_obs::names::QUEUE_DEPTH,
                    &mpshare_obs::DEPTH_BUCKETS,
                    pending.len() as f64,
                );
                mpshare_obs::series_push(
                    mpshare_obs::series::SCHED_QUEUE_DEPTH,
                    now.value(),
                    pending.len() as f64,
                );
                let (group, depth) = (members.clone(), pending.len());
                let (start, dur) = (now.value(), outcome.makespan.value());
                let exclusive = offender.is_some();
                mpshare_obs::emit(
                    mpshare_obs::Track::Scheduler,
                    "sched.dispatch",
                    Some(start),
                    Some(dur),
                    || {
                        serde_json::json!({
                            "workflows": group,
                            "queue_depth": depth,
                            "exclusive": exclusive,
                            "tasks_completed": result.tasks_completed,
                            "tasks_failed": result.tasks_failed,
                        })
                    },
                );
            }
            decisions.push(DispatchRecord {
                at: now,
                workflows: members,
                duration: outcome.makespan,
            });
            energy += outcome.energy;
            now = end;
        }

        let goodput = if now == Seconds::ZERO {
            0.0
        } else {
            tasks as f64 / now.value()
        };
        mpshare_obs::gauge_set(mpshare_obs::names::GOODPUT, goodput);
        Ok(OnlineOutcome {
            makespan: now,
            energy,
            tasks,
            decisions,
            mean_wait: Seconds::new(wait_total / arrivals.len() as f64),
            retries,
            faults: fault_count,
            failed_workflows: (0..n).filter(|&i| abandoned[i]).collect(),
            wasted_energy,
            goodput,
        })
    }

    /// FIFO baseline: one workflow at a time, arrival order, no
    /// collocation — the online analogue of sequential scheduling.
    pub fn run_fifo(
        &self,
        arrivals: &[ArrivingWorkflow],
        store: &ProfileStore,
    ) -> Result<OnlineOutcome> {
        validate_arrivals(arrivals)?;
        // Order by arrival (stable on ties).
        let mut order: Vec<usize> = (0..arrivals.len()).collect();
        order.sort_by(|&a, &b| {
            let (ta, tb) = (arrivals[a].arrival.value(), arrivals[b].arrival.value());
            ta.total_cmp(&tb).then(a.cmp(&b))
        });
        let specs: Vec<WorkflowSpec> = arrivals.iter().map(|a| a.spec.clone()).collect();
        let mut ids = IdAllocator::new();
        let mut now = Seconds::ZERO;
        let mut energy = Energy::ZERO;
        let mut tasks = 0usize;
        let mut decisions = Vec::new();
        let mut wait_total = 0.0f64;
        for &i in &order {
            if arrivals[i].arrival > now {
                energy += self.device.idle_power * (arrivals[i].arrival.saturating_sub(now));
                now = arrivals[i].arrival;
            }
            let group = crate::planner::PlanGroup {
                workflow_indices: vec![i],
                partitions: vec![mpshare_types::Fraction::ONE],
            };
            let result = self.executor.run_group_raw(&specs, &group, &mut ids)?;
            mpshare_obs::counter_add(mpshare_obs::names::SCHED_DISPATCHES, 1);
            wait_total += now.saturating_sub(arrivals[i].arrival).value();
            decisions.push(DispatchRecord {
                at: now,
                workflows: vec![i],
                duration: result.makespan,
            });
            energy += result.total_energy;
            tasks += result.tasks_completed;
            now += result.makespan;
        }
        let _ = store; // profiles not needed for FIFO; kept for symmetry
        let goodput = if now == Seconds::ZERO {
            0.0
        } else {
            tasks as f64 / now.value()
        };
        mpshare_obs::gauge_set(mpshare_obs::names::GOODPUT, goodput);
        Ok(OnlineOutcome {
            makespan: now,
            energy,
            tasks,
            decisions,
            mean_wait: Seconds::new(wait_total / arrivals.len() as f64),
            retries: 0,
            faults: 0,
            failed_workflows: Vec::new(),
            wasted_energy: Energy::ZERO,
            goodput,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::MetricPriority;
    use mpshare_workloads::{BenchmarkKind, ProblemSize};

    fn device() -> DeviceSpec {
        DeviceSpec::a100x()
    }

    fn scheduler() -> OnlineScheduler {
        let d = device();
        OnlineScheduler::new(
            ExecutorConfig::new(d.clone()),
            Planner::new(d, MetricPriority::balanced_product()),
            PlannerStrategy::Auto,
        )
    }

    fn arrivals() -> (Vec<ArrivingWorkflow>, ProfileStore) {
        let mk = |kind, size, iters, at: f64| ArrivingWorkflow {
            spec: WorkflowSpec::uniform(kind, size, iters),
            arrival: Seconds::new(at),
        };
        let arrivals = vec![
            mk(BenchmarkKind::Kripke, ProblemSize::X1, 10, 0.0),
            mk(BenchmarkKind::AthenaPk, ProblemSize::X4, 1, 0.0),
            mk(BenchmarkKind::Kripke, ProblemSize::X1, 10, 5.0),
            mk(BenchmarkKind::AthenaPk, ProblemSize::X4, 1, 200.0),
        ];
        let mut store = ProfileStore::new();
        let specs: Vec<WorkflowSpec> = arrivals.iter().map(|a| a.spec.clone()).collect();
        store.profile_workflows(&device(), &specs).unwrap();
        (arrivals, store)
    }

    #[test]
    fn online_completes_everything_and_beats_fifo() {
        let (arrivals, store) = arrivals();
        let s = scheduler();
        let online = s.run(&arrivals, &store).unwrap();
        let fifo = s.run_fifo(&arrivals, &store).unwrap();
        assert_eq!(online.tasks, 22);
        assert_eq!(fifo.tasks, 22);
        assert!(
            online.makespan <= fifo.makespan,
            "online {} !<= fifo {}",
            online.makespan,
            fifo.makespan
        );
        assert!(online.mean_wait <= fifo.mean_wait);
    }

    #[test]
    fn dispatches_respect_arrival_times() {
        let (arrivals, store) = arrivals();
        let online = scheduler().run(&arrivals, &store).unwrap();
        for record in &online.decisions {
            for &w in &record.workflows {
                assert!(
                    record.at >= arrivals[w].arrival,
                    "workflow {w} dispatched at {} before arrival {}",
                    record.at,
                    arrivals[w].arrival
                );
            }
        }
        // Every workflow dispatched exactly once.
        let mut seen = vec![false; arrivals.len()];
        for record in &online.decisions {
            for &w in &record.workflows {
                assert!(!seen[w]);
                seen[w] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gpu_idles_until_late_arrival() {
        let d = device();
        let late = vec![ArrivingWorkflow {
            spec: WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 2),
            arrival: Seconds::new(100.0),
        }];
        let mut store = ProfileStore::new();
        store
            .profile_workflows(&d, std::slice::from_ref(&late[0].spec))
            .unwrap();
        let online = scheduler().run(&late, &store).unwrap();
        assert_eq!(online.decisions[0].at, Seconds::new(100.0));
        // Energy includes 100 s of idle draw before the dispatch.
        assert!(online.energy.joules() > 100.0 * 75.0);
        assert_eq!(online.mean_wait, Seconds::ZERO);
    }

    #[test]
    fn empty_arrivals_error() {
        let store = ProfileStore::new();
        assert!(scheduler().run(&[], &store).is_err());
        assert!(scheduler().run_fifo(&[], &store).is_err());
    }

    /// Satellite regression: an empty plan must surface as a typed error,
    /// not an index panic (`plan.groups[0]`).
    #[test]
    fn empty_plan_yields_typed_error_not_panic() {
        let plan = crate::planner::SchedulePlan { groups: vec![] };
        let err = super::first_group(&plan).unwrap_err();
        assert!(matches!(err, Error::PlanViolation(_)), "got {err:?}");
    }

    #[test]
    fn fault_free_recovery_path_matches_plain_run() {
        let (arrivals, store) = arrivals();
        let s = scheduler();
        let plain = s.run(&arrivals, &store).unwrap();
        let zero_rate = s
            .run_with_recovery(
                &arrivals,
                &store,
                Some(&OnlineFaultModel::new(7, 0.0).unwrap()),
                &RecoveryPolicy::default(),
            )
            .unwrap();
        assert_eq!(plain, zero_rate, "rate-0 model must be a no-op");
        assert_eq!(plain.retries, 0);
        assert_eq!(plain.faults, 0);
        assert!(plain.failed_workflows.is_empty());
        assert_eq!(plain.wasted_energy, Energy::ZERO);
        assert!(plain.goodput > 0.0);
        assert!((plain.goodput - plain.tasks as f64 / plain.makespan.value()).abs() < 1e-12);
    }

    #[test]
    fn injected_failure_requeues_and_eventually_completes() {
        let (arrivals, store) = arrivals();
        let s = scheduler();
        // Sweep seeds until one produces faults but no budget exhaustion:
        // the interesting middle where recovery does its job. Seeded draws
        // make the scan deterministic.
        let policy = RecoveryPolicy {
            max_attempts: 10,
            backoff_base: Seconds::new(5.0),
            exclusive_after: 2,
        };
        let outcome = (0..64u64)
            .map(|seed| {
                s.run_with_recovery(
                    &arrivals,
                    &store,
                    Some(&OnlineFaultModel::new(seed, 0.3).unwrap()),
                    &policy,
                )
                .unwrap()
            })
            .find(|o| o.faults > 0 && o.failed_workflows.is_empty())
            .expect("some seed in 0..64 recovers fully at rate 0.3");
        // Everything completed despite faults: full task count, retries
        // recorded, wasted energy attributed.
        assert_eq!(outcome.tasks, 22);
        assert!(outcome.retries > 0);
        assert!(outcome.wasted_energy.joules() > 0.0);
        assert!(outcome.makespan.value() > 0.0);
        // Every workflow's last dispatch succeeded; total dispatches
        // exceed the workflow count because of the retries.
        let dispatch_count: usize = outcome.decisions.iter().map(|d| d.workflows.len()).sum();
        assert_eq!(dispatch_count, arrivals.len() + outcome.retries);
    }

    #[test]
    fn retry_budget_exhaustion_reports_failure_and_balances() {
        let (arrivals, store) = arrivals();
        let s = scheduler();
        // Rate 1: every attempt of every workflow faults; nothing can
        // ever complete.
        let policy = RecoveryPolicy {
            max_attempts: 2,
            backoff_base: Seconds::new(1.0),
            exclusive_after: 2,
        };
        let outcome = s
            .run_with_recovery(
                &arrivals,
                &store,
                Some(&OnlineFaultModel::new(3, 1.0).unwrap()),
                &policy,
            )
            .unwrap();
        assert_eq!(outcome.tasks, 0);
        assert_eq!(outcome.goodput, 0.0);
        assert_eq!(outcome.failed_workflows, vec![0, 1, 2, 3]);
        // Accounting balances: every workflow burned its full budget, and
        // retries + first attempts + abandoned == dispatch slots.
        let dispatch_count: usize = outcome.decisions.iter().map(|d| d.workflows.len()).sum();
        assert_eq!(dispatch_count, arrivals.len() * policy.max_attempts);
        assert_eq!(outcome.retries, arrivals.len() * (policy.max_attempts - 1));
        // A shared-server fault takes down every group member in a single
        // record, so the record count tracks dispatches, not dispatch slots.
        assert!(outcome.faults >= outcome.decisions.len());
        assert!(outcome.wasted_energy.joules() > 0.0);
        assert!(outcome.wasted_energy.joules() <= outcome.energy.joules());
    }

    #[test]
    fn repeat_offender_degrades_to_exclusive_execution() {
        let (arrivals, store) = arrivals();
        let s = scheduler();
        let policy = RecoveryPolicy {
            max_attempts: 8,
            backoff_base: Seconds::new(1.0),
            exclusive_after: 2,
        };
        let outcome = s
            .run_with_recovery(
                &arrivals,
                &store,
                Some(&OnlineFaultModel::new(11, 1.0).unwrap()),
                &policy,
            )
            .unwrap();
        // At rate 1 every workflow soon crosses exclusive_after, so late
        // dispatches must all be solo.
        let solo_dispatches = outcome
            .decisions
            .iter()
            .filter(|d| d.workflows.len() == 1)
            .count();
        assert!(
            solo_dispatches > outcome.decisions.len() / 2,
            "expected mostly exclusive dispatches, got {solo_dispatches}/{}",
            outcome.decisions.len()
        );
        assert_eq!(outcome.tasks, 0);
    }

    #[test]
    fn recovery_runs_are_deterministic() {
        let (arrivals, store) = arrivals();
        let s = scheduler();
        let model = OnlineFaultModel::new(42, 0.5).unwrap();
        let policy = RecoveryPolicy::default();
        let a = s
            .run_with_recovery(&arrivals, &store, Some(&model), &policy)
            .unwrap();
        let b = s
            .run_with_recovery(&arrivals, &store, Some(&model), &policy)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fault_model_and_policy_validate_inputs() {
        assert!(OnlineFaultModel::new(0, -0.1).is_err());
        assert!(OnlineFaultModel::new(0, 1.5).is_err());
        assert!(OnlineFaultModel::new(0, f64::NAN).is_err());
        assert!(RecoveryPolicy {
            max_attempts: 0,
            ..RecoveryPolicy::default()
        }
        .validate()
        .is_err());
        assert!(RecoveryPolicy {
            exclusive_after: 0,
            ..RecoveryPolicy::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn non_finite_or_negative_arrivals_are_rejected() {
        let s = scheduler();
        // `Seconds` deserializes unchecked, so a config can carry either.
        let negative: Seconds = serde_json::from_str("-1.0").unwrap();
        for (bad, at) in [(Seconds::INFINITY, 2), (negative, 3)] {
            let (mut arrivals, store) = arrivals();
            arrivals[at].arrival = bad;
            let expected = format!("arrivals[{at}].arrival");
            for result in [s.run(&arrivals, &store), s.run_fifo(&arrivals, &store)] {
                match result {
                    Err(Error::InvalidConfig(msg)) => assert!(msg.contains(&expected), "{msg}"),
                    other => panic!("arrival {bad:?} accepted: {other:?}"),
                }
            }
        }
    }
}
