//! Ablations of the design choices called out in DESIGN.md §4.
//!
//! Each bench measures the runtime of planning+execution under one
//! configuration, and — more importantly — *prints the resulting metrics*
//! the first time it runs so `cargo bench` output doubles as the ablation
//! table:
//!
//! * interference rule on (paper greedy) vs. off (naive single group);
//! * partition strategies: uniform vs. demand-based vs. saturation-aware;
//! * planner strategies: greedy vs. best-fit vs. exhaustive;
//! * cardinality cap 2 vs. unbounded for a throughput-priority queue.

use criterion::{criterion_group, criterion_main, Criterion};
use mpshare_bench::experiment_criterion;
use mpshare_core::{
    single_group_plan, workflow_profile, Executor, ExecutorConfig, MetricPriority,
    PartitionStrategy, Planner, PlannerStrategy, WorkflowProfile,
};
use mpshare_gpusim::DeviceSpec;
use mpshare_profiler::ProfileStore;
use mpshare_workloads::{BenchmarkKind, ProblemSize, WorkflowSpec};
use std::hint::black_box;
use std::sync::OnceLock;

fn queue() -> Vec<WorkflowSpec> {
    vec![
        WorkflowSpec::uniform(BenchmarkKind::AthenaPk, ProblemSize::X4, 2),
        WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 25),
        WorkflowSpec::uniform(BenchmarkKind::Lammps, ProblemSize::X1, 20),
        WorkflowSpec::uniform(BenchmarkKind::ChollaGravity, ProblemSize::X4, 1),
        WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X4, 1),
    ]
}

fn profiles(device: &DeviceSpec, q: &[WorkflowSpec]) -> Vec<WorkflowProfile> {
    static STORE: OnceLock<ProfileStore> = OnceLock::new();
    let store = STORE.get_or_init(|| {
        let mut s = ProfileStore::new();
        s.profile_workflows(device, q).unwrap();
        s
    });
    q.iter()
        .map(|w| workflow_profile(store, w).unwrap())
        .collect()
}

fn report_once(name: &str, t: f64, e: f64) {
    println!("    [ablation] {name:<38} throughput {t:.3}x  efficiency {e:.3}x");
}

fn bench(c: &mut Criterion) {
    let device = DeviceSpec::a100x();
    let q = queue();
    let profs = profiles(&device, &q);
    let executor = Executor::new(ExecutorConfig::new(device.clone()));

    // --- interference rule on vs. off -----------------------------------
    // Two queues: a mixed mid-utilization one (where the rule is
    // conservative and best-fit recovers the gap) and a hot MHD+LAMMPS one
    // (where blind collocation actively loses to sequential — the case the
    // rule exists for).
    let hot_queue = vec![
        WorkflowSpec::uniform(BenchmarkKind::ChollaMhd, ProblemSize::X4, 1),
        WorkflowSpec::uniform(BenchmarkKind::Lammps, ProblemSize::X4, 2),
        WorkflowSpec::uniform(BenchmarkKind::ChollaMhd, ProblemSize::X4, 1),
        WorkflowSpec::uniform(BenchmarkKind::Lammps, ProblemSize::X4, 2),
    ];
    let hot_profiles: Vec<WorkflowProfile> = {
        let mut s = ProfileStore::new();
        s.profile_workflows(&device, &hot_queue).unwrap();
        hot_queue
            .iter()
            .map(|w| workflow_profile(&s, w).unwrap())
            .collect()
    };
    for (label, queue, profiles) in [
        ("mixed queue", &q, &profs),
        ("hot queue", &hot_queue, &hot_profiles),
    ] {
        let planned = Planner::new(device.clone(), MetricPriority::Energy)
            .plan(profiles, PlannerStrategy::Greedy)
            .unwrap();
        let blind = single_group_plan(queue.len());
        let planned_report = executor.evaluate_plan(queue, &planned).unwrap();
        let blind_report = executor.evaluate_plan(queue, &blind).unwrap();
        report_once(
            &format!("{label}: interference-aware greedy"),
            planned_report.metrics.throughput_gain,
            planned_report.metrics.energy_efficiency_gain,
        );
        report_once(
            &format!("{label}: interference-blind group"),
            blind_report.metrics.throughput_gain,
            blind_report.metrics.energy_efficiency_gain,
        );
    }
    let planned = Planner::new(device.clone(), MetricPriority::Energy)
        .plan(&profs, PlannerStrategy::Greedy)
        .unwrap();
    let blind = single_group_plan(q.len());
    c.bench_function("ablation/interference_rule_on", |b| {
        b.iter(|| {
            executor
                .run_plan(black_box(&q), black_box(&planned))
                .unwrap()
        })
    });
    c.bench_function("ablation/interference_rule_off", |b| {
        b.iter(|| executor.run_plan(black_box(&q), black_box(&blind)).unwrap())
    });

    // --- partition strategies --------------------------------------------
    for (name, strategy) in [
        ("uniform", PartitionStrategy::Uniform),
        ("demand_based", PartitionStrategy::default_rightsized()),
        (
            "saturation_aware",
            PartitionStrategy::default_saturation_aware(),
        ),
    ] {
        let plan = Planner::new(device.clone(), MetricPriority::Energy)
            .with_partition_strategy(strategy)
            .plan(&profs, PlannerStrategy::Greedy)
            .unwrap();
        let report = executor.evaluate_plan(&q, &plan).unwrap();
        report_once(
            &format!("partitions: {name}"),
            report.metrics.throughput_gain,
            report.metrics.energy_efficiency_gain,
        );
        c.bench_function(&format!("ablation/partitions_{name}"), |b| {
            b.iter(|| executor.run_plan(black_box(&q), black_box(&plan)).unwrap())
        });
    }

    // --- planner strategies ------------------------------------------------
    for (name, strategy) in [
        ("greedy", PlannerStrategy::Greedy),
        ("bestfit", PlannerStrategy::BestFit),
        ("exhaustive", PlannerStrategy::Exhaustive),
    ] {
        let planner = Planner::new(device.clone(), MetricPriority::balanced_product());
        let plan = planner.plan(&profs, strategy).unwrap();
        let report = executor.evaluate_plan(&q, &plan).unwrap();
        report_once(
            &format!("planner: {name}"),
            report.metrics.throughput_gain,
            report.metrics.energy_efficiency_gain,
        );
        c.bench_function(&format!("ablation/planner_{name}"), |b| {
            b.iter(|| planner.plan(black_box(&profs), strategy).unwrap())
        });
    }

    // --- cardinality cap ---------------------------------------------------
    let planner = Planner::new(device.clone(), MetricPriority::Throughput);
    for (name, cap) in [("cap_2", 2usize), ("cap_unbounded", 48)] {
        let plan = planner.greedy_with_cap(&profs, cap);
        let report = executor.evaluate_plan(&q, &plan).unwrap();
        report_once(
            &format!("cardinality {name}"),
            report.metrics.throughput_gain,
            report.metrics.energy_efficiency_gain,
        );
        c.bench_function(&format!("ablation/cardinality_{name}"), |b| {
            b.iter(|| executor.run_plan(black_box(&q), black_box(&plan)).unwrap())
        });
    }
}

criterion_group! {
    name = benches;
    config = experiment_criterion();
    targets = bench
}
criterion_main!(benches);
