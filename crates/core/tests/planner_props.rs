//! Property-based tests of the planner: every strategy, on arbitrary
//! queues, must produce structurally valid plans that respect the policy
//! and hard constraints.

use mpshare_core::{
    estimate_group, MetricPriority, PartitionStrategy, Planner, PlannerStrategy, WorkflowProfile,
};
use mpshare_gpusim::DeviceSpec;
use mpshare_types::{Energy, Fraction, MemBytes, Percent, Power, Seconds};
use proptest::prelude::*;

fn device() -> DeviceSpec {
    DeviceSpec::a100x()
}

fn profile_strategy() -> impl Strategy<Value = WorkflowProfile> {
    (
        1.0f64..=99.0,  // sm
        0.0f64..=60.0,  // bw
        1u64..=70,      // memory GiB
        1.0f64..=500.0, // duration
        0.2f64..=1.0,   // busy fraction
        0.1f64..=1.0,   // saturation partition
        1usize..=20,    // tasks
    )
        .prop_map(|(sm, bw, mem, duration, busy, saturation, tasks)| {
            let power = 75.0 + 1.75 * sm + bw;
            WorkflowProfile {
                label: format!("wf(sm={sm:.0})"),
                task_count: tasks,
                avg_sm_util: Percent::new(sm),
                avg_bw_util: Percent::new(bw),
                max_memory: MemBytes::from_gib(mem),
                duration: Seconds::new(duration),
                energy: Energy::from_joules(power * duration),
                avg_power: Power::from_watts(power),
                busy_fraction: busy,
                saturation_partition: Fraction::new(saturation),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every strategy yields a valid plan: exactly-once coverage, client
    /// limit, memory capacity, sane partitions.
    #[test]
    fn plans_are_always_valid(
        profiles in prop::collection::vec(profile_strategy(), 1..10),
    ) {
        let d = device();
        for priority in [
            MetricPriority::Throughput,
            MetricPriority::Energy,
            MetricPriority::balanced_product(),
        ] {
            for strategy in [
                PlannerStrategy::Greedy,
                PlannerStrategy::BestFit,
                PlannerStrategy::Auto,
            ] {
                let planner = Planner::new(d.clone(), priority);
                let plan = planner.plan(&profiles, strategy).unwrap();
                plan.validate(&d, &profiles).unwrap();
                for g in &plan.groups {
                    for p in &g.partitions {
                        prop_assert!(p.value() > 0.0 && p.value() <= 1.0);
                    }
                }
            }
        }
    }

    /// The paper's greedy under throughput priority never exceeds
    /// cardinality 2 and never groups workflows past the 100 %-sum rules.
    #[test]
    fn greedy_honours_paper_rules(
        profiles in prop::collection::vec(profile_strategy(), 1..10),
    ) {
        let d = device();
        let plan = Planner::new(d.clone(), MetricPriority::Throughput)
            .plan(&profiles, PlannerStrategy::Greedy)
            .unwrap();
        prop_assert!(plan.max_cardinality() <= 2);
        for g in &plan.groups {
            let sm: f64 = g
                .workflow_indices
                .iter()
                .map(|&i| profiles[i].avg_sm_util.value())
                .sum();
            let bw: f64 = g
                .workflow_indices
                .iter()
                .map(|&i| profiles[i].avg_bw_util.value())
                .sum();
            prop_assert!(sm <= 100.0 + 1e-9, "group SM sum {sm}");
            prop_assert!(bw <= 100.0 + 1e-9, "group BW sum {bw}");
        }
    }

    /// Auto's estimated score dominates both of its inputs, and the
    /// exhaustive score dominates everything on small queues.
    #[test]
    fn strategy_score_ordering(
        profiles in prop::collection::vec(profile_strategy(), 1..7),
    ) {
        let d = device();
        let planner = Planner::new(d.clone(), MetricPriority::balanced_product());
        let score = |strategy| {
            let plan = planner.plan(&profiles, strategy).unwrap();
            planner.score_plan(&plan, &profiles)
        };
        let greedy = score(PlannerStrategy::Greedy);
        let bestfit = score(PlannerStrategy::BestFit);
        let auto = score(PlannerStrategy::Auto);
        let exhaustive = score(PlannerStrategy::Exhaustive);
        prop_assert!(auto >= greedy - 1e-9);
        prop_assert!(auto >= bestfit - 1e-9);
        prop_assert!(exhaustive >= auto - 1e-9,
            "exhaustive {exhaustive} < auto {auto}");
    }

    /// Partition strategies: saturation-aware partitions always dominate
    /// demand-based ones (the floor can only raise them) and never exceed
    /// 100 %.
    #[test]
    fn saturation_floor_only_raises_partitions(
        profiles in prop::collection::vec(profile_strategy(), 1..6),
    ) {
        let refs: Vec<&WorkflowProfile> = profiles.iter().collect();
        let demand = PartitionStrategy::default_rightsized().partitions(&refs);
        let saturation = PartitionStrategy::default_saturation_aware().partitions(&refs);
        for (d, s) in demand.iter().zip(&saturation) {
            prop_assert!(s.value() >= d.value() - 1e-12);
            prop_assert!(s.value() <= 1.0);
        }
    }

    /// The estimator is monotone: adding a workflow to a group never
    /// shrinks the estimated makespan, and the estimated energy of a
    /// group is at least its idle floor.
    #[test]
    fn estimator_monotonicity(
        profiles in prop::collection::vec(profile_strategy(), 2..8),
    ) {
        let d = device();
        let all: Vec<&WorkflowProfile> = profiles.iter().collect();
        let sub: Vec<&WorkflowProfile> = profiles[..profiles.len() - 1].iter().collect();
        let with = estimate_group(&d, &all);
        let without = estimate_group(&d, &sub);
        prop_assert!(with.makespan.value() >= without.makespan.value() - 1e-9);
        prop_assert!(
            with.energy.joules()
                >= d.idle_power.watts() * with.makespan.value() - 1e-6
        );
    }
}
