//! The collocation planner (paper §IV-B).
//!
//! Given a queue of workflows with profiles, produces a [`SchedulePlan`]:
//! an ordered list of collocation groups, each executed on the GPU under
//! MPS with right-sized partitions, one group after another.
//!
//! Planning strategies:
//!
//! * [`PlannerStrategy::Greedy`] — the paper's algorithm: workflows with
//!   the lowest compute utilization are prioritized; a group accepts the
//!   next lowest-utilization workflow while combined SM ≤ 100 %, combined
//!   BW ≤ 100 %, combined memory ≤ capacity, and the group is under the
//!   metric-priority cardinality cap (2 for throughput, 48 for energy; the
//!   product priority sweeps caps and keeps the best estimated score).
//! * [`PlannerStrategy::Exhaustive`] — enumerates every set partition of
//!   the queue (n ≤ 12), scores each with the analytic estimator, and
//!   returns the best. Ground truth for small queues; the planner tests
//!   check greedy stays close to it.

use crate::estimate::{estimate_sequential, GroupEstimate, GroupTotals};
use crate::policy::MetricPriority;
use crate::rightsize::PartitionStrategy;
use crate::wprofile::WorkflowProfile;
use mpshare_gpusim::DeviceSpec;
use mpshare_types::{Error, Fraction, Result};
use serde::{Deserialize, Serialize};

/// One collocation group: workflow queue indices plus their partitions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanGroup {
    /// Indices into the planner's workflow queue.
    pub workflow_indices: Vec<usize>,
    /// MPS partitions, parallel to `workflow_indices`.
    pub partitions: Vec<Fraction>,
}

/// A complete schedule: groups run one after another on the GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulePlan {
    pub groups: Vec<PlanGroup>,
}

impl SchedulePlan {
    /// Total workflows covered.
    pub fn workflow_count(&self) -> usize {
        self.groups.iter().map(|g| g.workflow_indices.len()).sum()
    }

    /// Largest group size (the plan's cardinality).
    pub fn max_cardinality(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.workflow_indices.len())
            .max()
            .unwrap_or(0)
    }

    /// Checks structural validity against a queue of `n` workflows:
    /// every index covered exactly once, group sizes within the client
    /// limit, and no group violating the hard memory constraint.
    pub fn validate(&self, device: &DeviceSpec, profiles: &[WorkflowProfile]) -> Result<()> {
        let n = profiles.len();
        let mut seen = vec![false; n];
        for g in &self.groups {
            if g.workflow_indices.is_empty() {
                return Err(Error::PlanViolation("empty group".into()));
            }
            if g.workflow_indices.len() != g.partitions.len() {
                return Err(Error::PlanViolation(
                    "partition vector length mismatch".into(),
                ));
            }
            if g.workflow_indices.len() > device.max_mps_clients {
                return Err(Error::PlanViolation(format!(
                    "group of {} exceeds the {}-client limit",
                    g.workflow_indices.len(),
                    device.max_mps_clients
                )));
            }
            let mut mem = mpshare_types::MemBytes::ZERO;
            for &i in &g.workflow_indices {
                if i >= n {
                    return Err(Error::PlanViolation(format!("index {i} out of range")));
                }
                if seen[i] {
                    return Err(Error::PlanViolation(format!(
                        "workflow {i} scheduled twice"
                    )));
                }
                seen[i] = true;
                mem += profiles[i].max_memory;
            }
            if mem > device.memory_capacity {
                return Err(Error::PlanViolation(format!(
                    "group memory {mem} exceeds capacity {}",
                    device.memory_capacity
                )));
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(Error::PlanViolation(format!(
                "workflow {missing} not scheduled"
            )));
        }
        Ok(())
    }
}

/// Which search strategy the planner uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlannerStrategy {
    /// The paper's greedy lowest-utilization-first packing under the hard
    /// 100 %-sum interference rule (§IV-B).
    Greedy,
    /// Estimator-guided best-fit packing: groups are grown by the
    /// candidate with the largest predicted makespan saving, subject only
    /// to the *hard* constraints (memory capacity, client limit). This
    /// implements the paper's future-work direction — an interference
    /// *model* recommending combinations — and can profitably accept mild
    /// oversubscription the 100 %-sum rule forbids.
    BestFit,
    /// Runs both [`PlannerStrategy::Greedy`] and
    /// [`PlannerStrategy::BestFit`] and keeps the better-scoring plan.
    Auto,
    /// Full set-partition enumeration scored by the estimator (n ≤ 12).
    Exhaustive,
}

/// The collocation planner.
#[derive(Debug, Clone)]
pub struct Planner {
    device: DeviceSpec,
    priority: MetricPriority,
    partition_strategy: PartitionStrategy,
}

impl Planner {
    pub fn new(device: DeviceSpec, priority: MetricPriority) -> Self {
        Planner {
            device,
            priority,
            partition_strategy: PartitionStrategy::default_saturation_aware(),
        }
    }

    pub fn with_partition_strategy(mut self, s: PartitionStrategy) -> Self {
        self.partition_strategy = s;
        self
    }

    pub fn partition_strategy(&self) -> PartitionStrategy {
        self.partition_strategy
    }

    /// Plans with the configured strategy.
    pub fn plan(
        &self,
        profiles: &[WorkflowProfile],
        strategy: PlannerStrategy,
    ) -> Result<SchedulePlan> {
        if profiles.is_empty() {
            return Err(Error::InvalidConfig("empty workflow queue".into()));
        }
        Self::validate_profiles(profiles)?;
        mpshare_obs::counter_add(mpshare_obs::names::PLAN_CALLS, 1);
        let greedy = || self.best_over_caps(profiles, |cap| self.greedy_with_cap(profiles, cap));
        let bestfit = || self.best_over_caps(profiles, |cap| self.bestfit_capped(profiles, cap));
        let plan = match strategy {
            PlannerStrategy::Greedy => greedy()?,
            PlannerStrategy::BestFit => bestfit()?,
            PlannerStrategy::Auto => {
                let (greedy, bestfit) = mpshare_par::join(greedy, bestfit);
                let (greedy, bestfit) = (greedy?, bestfit?);
                if self.score_plan(&bestfit, profiles) > self.score_plan(&greedy, profiles) {
                    bestfit
                } else {
                    greedy
                }
            }
            PlannerStrategy::Exhaustive => self.plan_exhaustive(profiles)?,
        };
        plan.validate(&self.device, profiles)?;
        self.emit_plan_obs(strategy, &plan, profiles);
        Ok(plan)
    }

    fn emit_plan_obs(
        &self,
        strategy: PlannerStrategy,
        plan: &SchedulePlan,
        profiles: &[WorkflowProfile],
    ) {
        if mpshare_obs::enabled() {
            let (workflows, groups, cardinality) =
                (profiles.len(), plan.groups.len(), plan.max_cardinality());
            let score = self.score_plan(plan, profiles);
            mpshare_obs::emit(mpshare_obs::Track::Planner, "plan", None, None, || {
                serde_json::json!({
                    "strategy": format!("{strategy:?}"),
                    "workflows": workflows,
                    "groups": groups,
                    "max_cardinality": cardinality,
                    "score": score,
                })
            });
        }
    }

    /// Rejects profiles the packing heuristics cannot order: non-finite or
    /// negative durations, utilizations, energies, or powers. Degenerate
    /// values would otherwise poison the sort comparators and the
    /// estimator, so the planner (and node placement) refuses them up
    /// front with an error naming the offending profile and field.
    pub(crate) fn validate_profiles(profiles: &[WorkflowProfile]) -> Result<()> {
        for (i, p) in profiles.iter().enumerate() {
            let checks = [
                ("duration", p.duration.value()),
                ("avg_sm_util", p.avg_sm_util.value()),
                ("avg_bw_util", p.avg_bw_util.value()),
                ("energy", p.energy.joules()),
                ("avg_power", p.avg_power.watts()),
                ("busy_fraction", p.busy_fraction),
                ("saturation_partition", p.saturation_partition.value()),
            ];
            for (field, value) in checks {
                if !value.is_finite() || value < 0.0 {
                    return Err(Error::InvalidConfig(format!(
                        "profile {i} ({}): {field} must be finite and non-negative, got {value}",
                        p.label
                    )));
                }
            }
        }
        Ok(())
    }

    /// Builds one plan per cardinality cap the priority calls for (the
    /// paper's greedy algorithm or best-fit) and keeps the best-scoring
    /// one. Caps are independent candidates, so they are built and scored
    /// on worker threads; the in-order strictly-greater reduction keeps
    /// the earliest maximum, matching the serial sweep bit for bit.
    fn best_over_caps(
        &self,
        profiles: &[WorkflowProfile],
        plan_with_cap: impl Fn(usize) -> SchedulePlan + Sync,
    ) -> Result<SchedulePlan> {
        let seq = Self::sequential_baseline(profiles);
        let caps = self.priority.candidate_caps(&self.device);
        let scored = mpshare_par::par_map(&caps, |&cap| {
            let plan = plan_with_cap(cap);
            let score = self.score_groups(&plan, profiles, &seq);
            (score, plan)
        });
        Self::first_best(scored).ok_or_else(|| {
            Error::PlanViolation(format!(
                "priority {:?} produced no cardinality-cap candidates",
                self.priority
            ))
        })
    }

    /// In-order reduction keeping the first candidate with the maximal
    /// score — the same winner a serial strictly-greater sweep selects.
    fn first_best<P>(scored: impl IntoIterator<Item = (f64, P)>) -> Option<P> {
        let mut best: Option<(f64, P)> = None;
        for (score, plan) in scored {
            if best.as_ref().is_none_or(|(s, _)| score > *s) {
                best = Some((score, plan));
            }
        }
        best.map(|(_, plan)| plan)
    }

    /// Best-fit packing with an explicit cardinality cap: seeds each group
    /// with the longest unassigned workflow (the makespan driver), then
    /// repeatedly adds the candidate whose predicted *time saving* —
    /// its solo duration minus the predicted growth of the group's
    /// makespan — is largest and positive. Only the hard constraints
    /// (memory, client cap) gate admission.
    fn bestfit_capped(&self, profiles: &[WorkflowProfile], cap: usize) -> SchedulePlan {
        let cap = cap.clamp(1, self.device.max_mps_clients.max(1));
        let mut order: Vec<usize> = (0..profiles.len()).collect();
        // NaN durations are rejected by `validate_profiles` before any
        // planning entry point that reaches this sort; treating an
        // unexpected incomparable pair as equal keeps index order instead
        // of panicking, and is identical to `partial_cmp` for finite data.
        order.sort_by(|&a, &b| {
            profiles[b]
                .duration
                .partial_cmp(&profiles[a].duration)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        // A candidate's saving never exceeds its solo duration: the
        // estimator's makespan is append-monotone (float included) when
        // demands and durations are non-negative, so the growth term subtracted from the duration is ≥ 0. Under
        // that precondition the duration-descending candidate order admits
        // an early break once the incumbent saving reaches the next
        // candidate's duration.
        let saving_bound_ok = profiles.iter().all(|p| {
            p.duration.value() >= 0.0
                && p.avg_sm_util.value() >= 0.0
                && p.avg_bw_util.value() >= 0.0
        });

        let member_totals = self.member_totals(profiles);
        let mut assigned = vec![false; profiles.len()];
        let mut groups = Vec::new();
        for &seed in &order {
            if assigned[seed] {
                continue;
            }
            assigned[seed] = true;
            let mut members = vec![seed];
            let mut group_totals = GroupTotals::EMPTY;
            group_totals.add(&member_totals[seed]);
            loop {
                if members.len() >= cap {
                    break;
                }
                let current = group_totals.estimate(&self.device);

                let mut best_candidate: Option<(f64, usize)> = None;
                for &cand in &order {
                    if assigned[cand] {
                        continue;
                    }
                    // Duration bound: later candidates are shorter still, so
                    // none can *strictly* beat the incumbent saving — the
                    // selection is unchanged. Only taken with observability
                    // off: the audit stream must see every candidate.
                    if saving_bound_ok && !mpshare_obs::enabled() {
                        if let Some((best, _)) = best_candidate {
                            if profiles[cand].duration.value() <= best {
                                break;
                            }
                        }
                    }
                    let mut trial = group_totals;
                    trial.add(&member_totals[cand]);
                    if trial.memory_sum > self.device.memory_capacity {
                        if mpshare_obs::enabled() {
                            mpshare_obs::counter_add(mpshare_obs::names::PLAN_CANDIDATES, 1);
                            mpshare_obs::counter_add(mpshare_obs::names::PLAN_REJECTS, 1);
                            let group = members.clone();
                            mpshare_obs::emit(
                                mpshare_obs::Track::Planner,
                                "plan.candidate",
                                None,
                                None,
                                || {
                                    serde_json::json!({
                                        "strategy": "bestfit",
                                        "cap": cap,
                                        "group": group,
                                        "candidate": cand,
                                        "accepted": false,
                                        "reason": "group memory would exceed capacity",
                                    })
                                },
                            );
                        }
                        continue;
                    }
                    let with = trial.estimate(&self.device);
                    // Saving = sequential cost of the candidate minus the
                    // growth it causes in the group's makespan.
                    let saving = profiles[cand].duration.value()
                        - (with.makespan.value() - current.makespan.value());
                    if mpshare_obs::enabled() {
                        mpshare_obs::counter_add(mpshare_obs::names::PLAN_CANDIDATES, 1);
                        if saving <= 0.0 {
                            mpshare_obs::counter_add(mpshare_obs::names::PLAN_REJECTS, 1);
                        }
                        let group = members.clone();
                        mpshare_obs::emit(
                            mpshare_obs::Track::Planner,
                            "plan.candidate",
                            None,
                            None,
                            || {
                                serde_json::json!({
                                    "strategy": "bestfit",
                                    "cap": cap,
                                    "group": group,
                                    "candidate": cand,
                                    "accepted": saving > 0.0,
                                    "reason": if saving > 0.0 {
                                        "positive predicted time saving"
                                    } else {
                                        "predicted makespan growth outweighs saving"
                                    },
                                    "predicted_saving_s": saving,
                                    "predicted_makespan_s": with.makespan.value(),
                                })
                            },
                        );
                    }
                    if saving > 0.0 && best_candidate.is_none_or(|(best, _)| saving > best) {
                        best_candidate = Some((saving, cand));
                    }
                }
                match best_candidate {
                    Some((_, cand)) => {
                        assigned[cand] = true;
                        members.push(cand);
                        group_totals.add(&member_totals[cand]);
                    }
                    None => break,
                }
            }
            groups.push(self.plan_group(members, profiles));
        }
        SchedulePlan { groups }
    }

    /// Greedy packing with an explicit cardinality cap (public so the
    /// harness can sweep cardinality for the paper's Figures 4/5).
    pub fn greedy_with_cap(&self, profiles: &[WorkflowProfile], cap: usize) -> SchedulePlan {
        // Criterion 1: lowest compute utilization first.
        let mut order: Vec<usize> = (0..profiles.len()).collect();
        // See the duration sort in `bestfit_capped`: NaN is
        // rejected upstream, and incomparable pairs fall back to index
        // order rather than panicking.
        order.sort_by(|&a, &b| {
            profiles[a]
                .avg_sm_util
                .value()
                .partial_cmp(&profiles[b].avg_sm_util.value())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });

        let cap = cap.clamp(1, self.device.max_mps_clients.max(1));
        let member_totals = self.member_totals(profiles);
        let mut assigned = vec![false; profiles.len()];
        let mut groups = Vec::new();
        for &seed in &order {
            if assigned[seed] {
                continue;
            }
            assigned[seed] = true;
            let mut members = vec![seed];
            let mut group_totals = GroupTotals::EMPTY;
            group_totals.add(&member_totals[seed]);
            for &cand in &order {
                if assigned[cand] || members.len() >= cap {
                    continue;
                }
                let mut trial = group_totals;
                trial.add(&member_totals[cand]);
                // Criteria 2 & 3: stay under 100 % combined compute/BW and
                // under memory capacity.
                let prediction = trial.interference(&self.device);
                let accepted = prediction.is_compatible();
                if mpshare_obs::enabled() {
                    mpshare_obs::counter_add(mpshare_obs::names::PLAN_CANDIDATES, 1);
                    if !accepted {
                        mpshare_obs::counter_add(mpshare_obs::names::PLAN_REJECTS, 1);
                    }
                    let group = members.clone();
                    mpshare_obs::emit(
                        mpshare_obs::Track::Planner,
                        "plan.candidate",
                        None,
                        None,
                        || {
                            serde_json::json!({
                                "strategy": "greedy",
                                "cap": cap,
                                "group": group,
                                "candidate": cand,
                                "accepted": accepted,
                                "reason": if accepted {
                                    "within combined SM/BW/memory limits"
                                } else {
                                    "interference rule: combined demand over 100%"
                                },
                                "combined_sm": prediction.sm_sum,
                                "combined_bw": prediction.bw_sum,
                            })
                        },
                    );
                }
                if accepted {
                    assigned[cand] = true;
                    members.push(cand);
                    group_totals = trial;
                }
            }
            groups.push(self.plan_group(members, profiles));
        }
        SchedulePlan { groups }
    }

    /// Exhaustive set-partition search, scored by the analytic estimator.
    ///
    /// The restricted-growth-string enumeration is split by fixed-length
    /// prefixes: every prefix roots an independent sub-enumeration, and the
    /// sub-trees are searched on worker threads. Prefixes are generated in
    /// the serial recursion's visit order and reduced in that order with a
    /// strictly-greater comparison, so the winning partition is exactly the
    /// one the serial search returns.
    ///
    /// Each sub-tree is searched branch-and-bound ([`BranchAndBound`]):
    /// partial groupings carry an admissible score upper bound, and
    /// sub-trees that cannot *strictly* beat the worker's incumbent are
    /// pruned. The surviving leaf visit order and the strictly-greater
    /// incumbent rule are those of a plain brute-force enumeration, so the
    /// returned plan is identical to it; `tests/perf_equivalence.rs` holds
    /// that brute-force reference and pins the equality.
    fn plan_exhaustive(&self, profiles: &[WorkflowProfile]) -> Result<SchedulePlan> {
        const MAX_N: usize = 12;
        // 4 fixed positions → 15 independent sub-enumerations (Bell(4)).
        const PREFIX_LEN: usize = 4;
        let n = profiles.len();
        if n > MAX_N {
            return Err(Error::InvalidConfig(format!(
                "exhaustive planning supports ≤ {MAX_N} workflows, got {n}"
            )));
        }

        let prefix_len = PREFIX_LEN.min(n);
        let mut prefixes: Vec<(Vec<usize>, usize)> = Vec::new();
        let mut prefix = vec![0usize; prefix_len];
        enumerate_prefixes(&mut prefix, 0, 0, &mut |assign, max_used| {
            prefixes.push((assign.to_vec(), max_used));
        });

        let seq = Self::sequential_baseline(profiles);
        let bound = self.exhaustive_bound(profiles, &seq);
        let local_bests = mpshare_par::par_map(&prefixes, |(prefix, max_used)| {
            self.exhaustive_worker_pruned(profiles, &seq, bound.as_ref(), prefix, *max_used)
        });

        let groups = Self::first_best(local_bests.into_iter().flatten())
            .ok_or_else(|| Error::PlanViolation("no feasible partition exists".into()))?;
        Ok(SchedulePlan {
            groups: groups
                .into_iter()
                .map(|members| self.plan_group(members, profiles))
                .collect(),
        })
    }

    /// One worker's branch-and-bound sub-enumeration: a DFS in
    /// restricted-growth-string order (as [`enumerate_prefixes`] visits
    /// full-length strings), with hard constraints checked at assignment
    /// time (a violating group only grows down-tree, so no leaf below it
    /// is feasible) and, when `bound` is available, admissible score-bound
    /// pruning against the worker-local incumbent.
    fn exhaustive_worker_pruned(
        &self,
        profiles: &[WorkflowProfile],
        seq: &GroupEstimate,
        bound: Option<&ExhaustiveBound>,
        prefix: &[usize],
        prefix_max: usize,
    ) -> Option<(f64, Vec<Vec<usize>>)> {
        let mut search = BranchAndBound {
            planner: self,
            member_totals: self.member_totals(profiles),
            seq,
            bound,
            groups: Vec::new(),
            slots: Vec::new(),
            best: None,
        };
        // Seed the fixed prefix positions. A hard-constraint violation
        // here voids the whole sub-tree — exactly as every leaf below it
        // would have early-returned in the brute force.
        for (pos, &g) in prefix.iter().enumerate() {
            search.push_member(pos, g)?;
        }
        search.dfs(prefix.len(), prefix_max);
        search.best
    }

    /// Precomputes the admissible-bound ingredients for one exhaustive
    /// call, or `None` when the preconditions for bound validity do not
    /// hold (non-finite or negative idle power, non-positive baseline) —
    /// the search then runs without score pruning.
    fn exhaustive_bound(
        &self,
        profiles: &[WorkflowProfile],
        seq: &GroupEstimate,
    ) -> Option<ExhaustiveBound> {
        let seq_makespan = seq.makespan.value();
        let seq_energy = seq.energy.joules();
        let idle = self.device.idle_power;
        // Every comparison is written positively so NaN anywhere fails it.
        let preconditions_ok = seq_makespan > 0.0
            && seq_makespan.is_finite()
            && seq_energy > 0.0
            && seq_energy.is_finite()
            && idle.watts() >= 0.0
            && idle.watts().is_finite();
        if !preconditions_ok {
            return None;
        }
        let n = profiles.len();
        let mut r_total = 0.0;
        // `validate_profiles` ran first, so every duration, utilization
        // and energy is finite and non-negative, and with a finite idle
        // power so is every dynamic energy.
        for p in profiles {
            // Any group's makespan ≥ max_dur · (Σsm/100) ≥ Σ dur_i·sm_i/100,
            // so the whole-queue sum floors every partition's total.
            r_total += p.duration.value() * (p.avg_sm_util.value() / 100.0);
        }
        let mut dyn_suffix = vec![0.0; n + 1];
        for i in (0..n).rev() {
            dyn_suffix[i] = profiles[i].dynamic_energy(idle).joules() + dyn_suffix[i + 1];
        }
        Some(ExhaustiveBound {
            // The bounds combine float sums folded in a different order
            // than the leaf scores; the (1 − 1e-9) deflation swamps the
            // ~1e-15 relative rounding drift, keeping them admissible
            // bit for bit.
            r_total: r_total * (1.0 - 1e-9),
            dyn_suffix,
            seq_makespan,
            seq_energy,
        })
    }

    /// The plan group of `members`, with right-sized partitions.
    fn plan_group(&self, members: Vec<usize>, profiles: &[WorkflowProfile]) -> PlanGroup {
        let member_profiles: Vec<&WorkflowProfile> =
            members.iter().map(|&i| &profiles[i]).collect();
        PlanGroup {
            partitions: self.partition_strategy.partitions(&member_profiles),
            workflow_indices: members,
        }
    }

    /// Scores a plan with the analytic estimator under the priority.
    pub fn score_plan(&self, plan: &SchedulePlan, profiles: &[WorkflowProfile]) -> f64 {
        self.score_groups(plan, profiles, &Self::sequential_baseline(profiles))
    }

    /// The score's reference point: everything run sequentially.
    fn sequential_baseline(profiles: &[WorkflowProfile]) -> GroupEstimate {
        let all: Vec<&WorkflowProfile> = profiles.iter().collect();
        estimate_sequential(&all)
    }

    /// Every workflow's [`GroupTotals::of`], indexed like `profiles`.
    fn member_totals(&self, profiles: &[WorkflowProfile]) -> Vec<GroupTotals> {
        profiles
            .iter()
            .map(|p| GroupTotals::of(&self.device, p))
            .collect()
    }

    /// Final score from summed per-group totals against the sequential
    /// baseline.
    fn score_totals(&self, seq: &GroupEstimate, makespan: f64, energy: f64) -> f64 {
        if makespan <= 0.0 || energy <= 0.0 {
            return 0.0;
        }
        let throughput = seq.makespan.value() / makespan;
        let efficiency = seq.energy.joules() / energy;
        self.priority.score(throughput, efficiency)
    }

    /// Scores a plan's member lists, summing group estimates left to right
    /// in group order.
    fn score_groups(
        &self,
        plan: &SchedulePlan,
        profiles: &[WorkflowProfile],
        seq: &GroupEstimate,
    ) -> f64 {
        let mut makespan = 0.0;
        let mut energy = 0.0;
        for g in &plan.groups {
            let members = g.workflow_indices.iter().map(|&i| &profiles[i]);
            let e = GroupTotals::fold(&self.device, members).estimate(&self.device);
            makespan += e.makespan.value();
            energy += e.energy.joules();
        }
        self.score_totals(seq, makespan, energy)
    }
}

/// Enumerates restricted-growth strings of the buffer's length — each
/// position joins one of the `max_used` groups opened before it or opens
/// group `max_used` — visiting each with its final `max_used` (its group
/// count). Over a prefix-length buffer this splits the exhaustive search
/// into independent sub-trees; over a full-length buffer it enumerates
/// every set partition.
fn enumerate_prefixes(
    prefix: &mut Vec<usize>,
    pos: usize,
    max_used: usize,
    visit: &mut impl FnMut(&[usize], usize),
) {
    if pos == prefix.len() {
        visit(prefix, max_used);
        return;
    }
    for g in 0..=max_used {
        prefix[pos] = g;
        let next_max = max_used.max(g + 1);
        enumerate_prefixes(prefix, pos + 1, next_max, visit);
    }
}

/// Ingredients of the exhaustive search's admissible score bound, computed
/// once per [`Planner::plan_exhaustive`] call.
///
/// All bounds are *lower* bounds on a completed partition's totals; because
/// every supported [`MetricPriority`] score is monotone non-decreasing in
/// `seq/total` for positive inputs, dividing the (positive) sequential
/// baseline by them yields an upper bound on any descendant leaf's score.
///
/// * `r_total` — `Σᵢ durᵢ·smᵢ/100` over the whole queue, deflated by
///   `1 − 1e-9`. Any group's makespan is at least `max_dur · Σ_g sm/100 ≥
///   Σ_{i∈g} durᵢ·smᵢ/100` (contention floors at `Σsm/100`),
///   so the queue-wide sum floors every partition's makespan total. The
///   deflation swamps the ≤ ~1e-14 relative drift from re-associating the
///   float sums, keeping the floor admissible bit for bit.
/// * `dyn_suffix[i]` — `Σ_{j ≥ i} dynamic_energy(j)`: dynamic energies are
///   conserved under grouping (each appears in exactly one group's energy),
///   so unassigned positions contribute at least this much energy.
struct ExhaustiveBound {
    r_total: f64,
    dyn_suffix: Vec<f64>,
    seq_makespan: f64,
    seq_energy: f64,
}

/// One open group of a [`BranchAndBound`] search: its running totals and
/// their estimate. A [`BranchAndBound::push_member`] returns the group's
/// previous slot so the matching pop restores it.
#[derive(Clone, Copy)]
struct GroupSlot {
    totals: GroupTotals,
    makespan: f64,
    energy: f64,
}

/// Depth-first branch-and-bound over one restricted-growth-string sub-tree.
///
/// The DFS visits leaves in restricted-growth-string order, exactly as a
/// brute-force enumeration of every set partition would, and
/// applies the same strictly-greater incumbent rule, so with pruning that
/// only removes leaves scoring ≤ the incumbent (which can never *replace*
/// it), the surviving incumbent sequence — and hence the final best — is
/// identical to the brute force's.
///
/// Hard constraints (client count, memory) are checked from the group's
/// totals as members are assigned: both only grow as a group gains
/// members, so a violation at assignment time implies every leaf below
/// would have failed the brute force's leaf check, making the skip exact
/// even without a score bound.
struct BranchAndBound<'a> {
    planner: &'a Planner,
    /// Every workflow's [`GroupTotals::of`], indexed by queue position.
    member_totals: Vec<GroupTotals>,
    seq: &'a GroupEstimate,
    bound: Option<&'a ExhaustiveBound>,
    /// Current partial grouping, parallel to `slots`; entries beyond the
    /// live `max_used` may linger empty after backtracking.
    groups: Vec<Vec<usize>>,
    slots: Vec<GroupSlot>,
    best: Option<(f64, Vec<Vec<usize>>)>,
}

impl BranchAndBound<'_> {
    /// Assigns position `pos` to group `g`, adding its totals to the
    /// group's. Returns the group's previous slot, or `None` (state
    /// unchanged) when the assignment violates a hard constraint.
    fn push_member(&mut self, pos: usize, g: usize) -> Option<GroupSlot> {
        if g == self.groups.len() {
            self.groups.push(Vec::new());
            self.slots.push(GroupSlot {
                totals: GroupTotals::EMPTY,
                makespan: 0.0,
                energy: 0.0,
            });
        }
        let device = &self.planner.device;
        let mut totals = self.slots[g].totals;
        totals.add(&self.member_totals[pos]);
        if totals.count > device.max_mps_clients || totals.memory_sum > device.memory_capacity {
            return None;
        }
        let e = totals.estimate(device);
        self.groups[g].push(pos);
        let saved = std::mem::replace(
            &mut self.slots[g],
            GroupSlot {
                totals,
                makespan: e.makespan.value(),
                energy: e.energy.joules(),
            },
        );
        Some(saved)
    }

    /// Undoes the matching [`BranchAndBound::push_member`].
    fn pop_member(&mut self, pos: usize, g: usize, saved: GroupSlot) {
        let popped = self.groups[g].pop();
        debug_assert_eq!(popped, Some(pos));
        self.slots[g] = saved;
    }

    /// Whether the sub-tree below the current partial grouping (positions
    /// `0..=pos` assigned, groups `0..used` in use) can be discarded: its
    /// admissible score upper bound fails to *strictly* beat the incumbent.
    fn pruned(&self, pos: usize, used: usize) -> bool {
        let (Some(b), Some((incumbent, _))) = (self.bound, self.best.as_ref()) else {
            return false;
        };
        // Exact float lower bound on any descendant leaf's totals: per-group
        // estimates are append-monotone (all inputs non-negative — checked
        // by `validate_profiles`), float folds of non-negative terms are
        // monotone in each term, and the leaf folds groups in this same
        // index order, so the partial fold is a true prefix bound.
        let mut ms_part = 0.0;
        let mut en_part = 0.0;
        for slot in &self.slots[..used] {
            ms_part += slot.makespan;
            en_part += slot.energy;
        }
        let ms_lb = ms_part.max(b.r_total);
        // Unassigned dynamic energies land in some group eventually; the
        // deflation covers the fold-reordering drift (see ExhaustiveBound).
        let en_lb = (en_part + b.dyn_suffix[pos + 1]) * (1.0 - 1e-9);
        if !(ms_lb > 0.0 && en_lb > 0.0) {
            return false;
        }
        // Upper-bound the leaf score directly through the priority (NOT
        // `score_totals`: its degenerate 0.0 return is not an upper bound,
        // but degenerate leaves score 0.0 ≤ any ub, so they prune safely).
        let ub = self
            .planner
            .priority
            .score(b.seq_makespan / ms_lb, b.seq_energy / en_lb);
        ub <= *incumbent
    }

    /// Recursive search over positions `pos..n`, mirroring
    /// [`enumerate_prefixes`]'s `for g in 0..=max_used` order.
    fn dfs(&mut self, pos: usize, max_used: usize) {
        if pos == self.member_totals.len() {
            // Leaf: the group totals fold left to right in group order, as
            // `score_plan` sums them, under the strictly-greater incumbent
            // rule.
            let mut makespan = 0.0;
            let mut energy = 0.0;
            for slot in &self.slots[..max_used] {
                makespan += slot.makespan;
                energy += slot.energy;
            }
            let score = self.planner.score_totals(self.seq, makespan, energy);
            if self.best.as_ref().is_none_or(|(s, _)| score > *s) {
                self.best = Some((score, self.groups[..max_used].to_vec()));
            }
            return;
        }
        for g in 0..=max_used {
            let Some(saved) = self.push_member(pos, g) else {
                continue;
            };
            let next_max = max_used.max(g + 1);
            if !self.pruned(pos, next_max) {
                self.dfs(pos + 1, next_max);
            }
            self.pop_member(pos, g, saved);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpshare_types::{Energy, MemBytes, Percent, Power, Seconds};

    fn dev() -> DeviceSpec {
        DeviceSpec::a100x()
    }

    fn profile(label: &str, sm: f64, bw: f64, mem_gib: u64, duration: f64) -> WorkflowProfile {
        let power = 75.0 + 1.75 * sm + bw;
        WorkflowProfile {
            label: label.into(),
            task_count: 3,
            avg_sm_util: Percent::new(sm),
            avg_bw_util: Percent::new(bw),
            max_memory: MemBytes::from_gib(mem_gib),
            duration: Seconds::new(duration),
            energy: Energy::from_joules(power * duration),
            avg_power: Power::from_watts(power),
            busy_fraction: 0.8,
            saturation_partition: mpshare_types::Fraction::new(0.9),
        }
    }

    fn planner(priority: MetricPriority) -> Planner {
        Planner::new(dev(), priority)
    }

    #[test]
    fn partition_enumeration_counts_bell_numbers() {
        // Bell(4) = 15 set partitions.
        let mut count = 0;
        let mut a = vec![0usize; 4];
        enumerate_prefixes(&mut a, 0, 0, &mut |_, _| count += 1);
        assert_eq!(count, 15);
    }

    #[test]
    fn greedy_pairs_low_utilization_first() {
        // Two light, two heavy. Throughput priority (cap 2): the two light
        // ones pair up, the heavies are kept apart (SM sums > 100).
        let profiles = vec![
            profile("light-a", 10.0, 1.0, 2, 10.0),
            profile("heavy-a", 90.0, 10.0, 5, 10.0),
            profile("light-b", 15.0, 1.0, 2, 10.0),
            profile("heavy-b", 85.0, 10.0, 5, 10.0),
        ];
        let plan = planner(MetricPriority::Throughput)
            .plan(&profiles, PlannerStrategy::Greedy)
            .unwrap();
        // Find the group containing light-a (index 0): must also hold 2.
        let g = plan
            .groups
            .iter()
            .find(|g| g.workflow_indices.contains(&0))
            .unwrap();
        assert!(g.workflow_indices.contains(&2), "groups: {:?}", plan.groups);
        // Heavies never share a group.
        for g in &plan.groups {
            assert!(!(g.workflow_indices.contains(&1) && g.workflow_indices.contains(&3)));
        }
    }

    #[test]
    fn throughput_priority_respects_cardinality_two() {
        let profiles: Vec<WorkflowProfile> = (0..6)
            .map(|i| profile(&format!("w{i}"), 5.0, 0.5, 1, 10.0))
            .collect();
        let plan = planner(MetricPriority::Throughput)
            .plan(&profiles, PlannerStrategy::Greedy)
            .unwrap();
        assert_eq!(plan.max_cardinality(), 2);
        assert_eq!(plan.groups.len(), 3);
    }

    #[test]
    fn energy_priority_packs_wide() {
        let profiles: Vec<WorkflowProfile> = (0..6)
            .map(|i| profile(&format!("w{i}"), 5.0, 0.5, 1, 10.0))
            .collect();
        let plan = planner(MetricPriority::Energy)
            .plan(&profiles, PlannerStrategy::Greedy)
            .unwrap();
        // 6 × 5 % = 30 % SM: all six fit in one group.
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.max_cardinality(), 6);
    }

    #[test]
    fn interference_rule_limits_group_growth() {
        // 40 % each: only two fit under the 100 % rule (3×40 = 120).
        let profiles: Vec<WorkflowProfile> = (0..4)
            .map(|i| profile(&format!("w{i}"), 40.0, 2.0, 1, 10.0))
            .collect();
        let plan = planner(MetricPriority::Energy)
            .plan(&profiles, PlannerStrategy::Greedy)
            .unwrap();
        assert_eq!(plan.max_cardinality(), 2);
        assert_eq!(plan.groups.len(), 2);
    }

    #[test]
    fn memory_constraint_is_hard() {
        // Two 60 GiB workflows cannot share an 80 GiB device.
        let profiles = vec![
            profile("big-a", 10.0, 1.0, 60, 10.0),
            profile("big-b", 10.0, 1.0, 60, 10.0),
        ];
        let plan = planner(MetricPriority::Energy)
            .plan(&profiles, PlannerStrategy::Greedy)
            .unwrap();
        assert_eq!(plan.groups.len(), 2);
        plan.validate(&dev(), &profiles).unwrap();
    }

    #[test]
    fn exhaustive_matches_or_beats_greedy_score() {
        let profiles = vec![
            profile("a", 10.0, 1.0, 2, 10.0),
            profile("b", 30.0, 5.0, 4, 8.0),
            profile("c", 55.0, 10.0, 8, 12.0),
            profile("d", 70.0, 20.0, 8, 6.0),
            profile("e", 20.0, 2.0, 2, 9.0),
        ];
        let p = planner(MetricPriority::balanced_product());
        let greedy = p.plan(&profiles, PlannerStrategy::Greedy).unwrap();
        let exhaustive = p.plan(&profiles, PlannerStrategy::Exhaustive).unwrap();
        let gs = p.score_plan(&greedy, &profiles);
        let es = p.score_plan(&exhaustive, &profiles);
        assert!(es >= gs - 1e-9, "exhaustive {es} < greedy {gs}");
        // Greedy honours the paper's soft interference rule (never groups
        // past 100 % combined SM), which the unconstrained exhaustive
        // search may profitably violate on energy-weighted scores — so
        // greedy is bounded away from optimal but must stay in its
        // neighbourhood.
        assert!(gs >= 0.55 * es, "greedy {gs} far from optimal {es}");
    }

    #[test]
    fn exhaustive_rejects_oversized_queues() {
        let profiles: Vec<WorkflowProfile> = (0..13)
            .map(|i| profile(&format!("w{i}"), 5.0, 0.5, 1, 10.0))
            .collect();
        let err = planner(MetricPriority::Energy)
            .plan(&profiles, PlannerStrategy::Exhaustive)
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)));
    }

    #[test]
    fn plans_validate_against_their_queue() {
        let profiles = vec![
            profile("a", 10.0, 1.0, 2, 10.0),
            profile("b", 20.0, 1.0, 2, 10.0),
        ];
        let plan = planner(MetricPriority::Throughput)
            .plan(&profiles, PlannerStrategy::Greedy)
            .unwrap();
        plan.validate(&dev(), &profiles).unwrap();

        // Tampered plan: duplicate index.
        let mut bad = plan.clone();
        bad.groups[0].workflow_indices = vec![0, 0];
        bad.groups[0].partitions = vec![Fraction::ONE, Fraction::ONE];
        assert!(bad.validate(&dev(), &profiles).is_err());

        // Tampered plan: missing workflow.
        let bad = SchedulePlan {
            groups: vec![PlanGroup {
                workflow_indices: vec![0],
                partitions: vec![Fraction::ONE],
            }],
        };
        assert!(bad.validate(&dev(), &profiles).is_err());
    }

    #[test]
    fn bestfit_accepts_profitable_mild_oversubscription() {
        // Two long mid-utilization workflows whose SM sum (125 %) violates
        // the paper's soft interference rule. The rule leaves them solo;
        // the estimator sees that a 25 % stretch on 100 s of overlap still
        // saves 75 s and pairs them.
        let profiles = vec![
            profile("light-a", 10.0, 1.0, 2, 10.0),
            profile("light-b", 12.0, 1.0, 2, 10.0),
            profile("mid-a", 60.0, 5.0, 8, 100.0),
            profile("mid-b", 65.0, 5.0, 8, 100.0),
        ];
        let p = planner(MetricPriority::balanced_product());
        let greedy = p.plan(&profiles, PlannerStrategy::Greedy).unwrap();
        let bestfit = p.plan(&profiles, PlannerStrategy::BestFit).unwrap();
        bestfit.validate(&dev(), &profiles).unwrap();
        // Greedy keeps the mids apart (60 + 65 > 100).
        for g in &greedy.groups {
            assert!(!(g.workflow_indices.contains(&2) && g.workflow_indices.contains(&3)));
        }
        // Best-fit pairs them and scores strictly higher.
        assert!(bestfit
            .groups
            .iter()
            .any(|g| g.workflow_indices.contains(&2) && g.workflow_indices.contains(&3)));
        let gs = p.score_plan(&greedy, &profiles);
        let bs = p.score_plan(&bestfit, &profiles);
        assert!(bs > gs, "bestfit {bs} !> greedy {gs}");
    }

    #[test]
    fn auto_takes_the_better_of_both() {
        let profiles = vec![
            profile("a", 10.0, 1.0, 2, 10.0),
            profile("b", 30.0, 5.0, 4, 8.0),
            profile("c", 55.0, 10.0, 8, 12.0),
            profile("d", 70.0, 20.0, 8, 6.0),
        ];
        let p = planner(MetricPriority::balanced_product());
        let auto = p.plan(&profiles, PlannerStrategy::Auto).unwrap();
        let gs = p.score_plan(
            &p.plan(&profiles, PlannerStrategy::Greedy).unwrap(),
            &profiles,
        );
        let bs = p.score_plan(
            &p.plan(&profiles, PlannerStrategy::BestFit).unwrap(),
            &profiles,
        );
        let auto_score = p.score_plan(&auto, &profiles);
        assert!(auto_score >= gs - 1e-12);
        assert!(auto_score >= bs - 1e-12);
    }

    #[test]
    fn bestfit_respects_hard_memory_constraint() {
        let profiles = vec![
            profile("big-a", 10.0, 1.0, 60, 10.0),
            profile("big-b", 10.0, 1.0, 60, 10.0),
        ];
        let plan = planner(MetricPriority::Energy)
            .plan(&profiles, PlannerStrategy::BestFit)
            .unwrap();
        assert_eq!(plan.groups.len(), 2);
    }

    #[test]
    fn empty_queue_is_an_error() {
        assert!(planner(MetricPriority::Energy)
            .plan(&[], PlannerStrategy::Greedy)
            .is_err());
    }

    /// Non-finite profile metrics used to reach the cap-candidate sort and
    /// panic on `partial_cmp().expect("finite durations")`; they must now
    /// come back as a typed error naming the profile and field.
    #[test]
    fn non_finite_profiles_are_typed_errors_not_panics() {
        // The unit types reject NaN at construction, but infinite
        // durations and NaN plain-f64 fields are constructible and used
        // to reach the sort comparators and panic there.
        for (field, mutate) in [
            (
                "duration",
                Box::new(|p: &mut WorkflowProfile| p.duration = Seconds::new(f64::INFINITY))
                    as Box<dyn Fn(&mut WorkflowProfile)>,
            ),
            (
                "busy_fraction",
                Box::new(|p: &mut WorkflowProfile| p.busy_fraction = f64::NAN),
            ),
        ] {
            let mut profiles = vec![
                profile("a", 10.0, 1.0, 2, 10.0),
                profile("b", 30.0, 5.0, 4, 8.0),
            ];
            mutate(&mut profiles[1]);
            for strategy in [
                PlannerStrategy::Greedy,
                PlannerStrategy::BestFit,
                PlannerStrategy::Auto,
            ] {
                let err = planner(MetricPriority::balanced_product())
                    .plan(&profiles, strategy)
                    .unwrap_err();
                let msg = err.to_string();
                assert!(
                    matches!(err, Error::InvalidConfig(_)),
                    "{strategy:?}: {msg}"
                );
                assert!(
                    msg.contains("profile 1") && msg.contains("b") && msg.contains(field),
                    "{strategy:?}: error must name the profile and field: {msg}"
                );
            }
        }
    }

    /// A device reporting zero MPS client capacity used to panic inside
    /// `cap.clamp(1, 0)`; it must plan (solo groups) or error, never panic.
    #[test]
    fn zero_client_capacity_device_does_not_panic() {
        let mut device = dev();
        device.max_mps_clients = 0;
        let profiles = vec![
            profile("a", 10.0, 1.0, 2, 10.0),
            profile("b", 30.0, 5.0, 4, 8.0),
        ];
        let p = Planner::new(device, MetricPriority::Energy);
        for strategy in [PlannerStrategy::Greedy, PlannerStrategy::BestFit] {
            if let Ok(plan) = p.plan(&profiles, strategy) {
                for g in &plan.groups {
                    assert_eq!(g.workflow_indices.len(), 1, "{strategy:?} grouped anyway");
                }
            }
        }
    }

    #[test]
    fn rightsized_partitions_accompany_groups() {
        let profiles = vec![
            profile("light", 10.0, 1.0, 2, 10.0),
            profile("heavy", 80.0, 5.0, 4, 10.0),
        ];
        let plan = planner(MetricPriority::Throughput)
            .plan(&profiles, PlannerStrategy::Greedy)
            .unwrap();
        for g in &plan.groups {
            assert_eq!(g.partitions.len(), g.workflow_indices.len());
            for p in &g.partitions {
                assert!(p.value() > 0.0 && p.value() <= 1.0);
            }
        }
    }
}
