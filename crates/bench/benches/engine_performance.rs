//! Raw simulator and plan-search performance: contention-solver scaling
//! with client count, end-to-end engine event throughput (including a
//! gap-heavy run that stresses the resident-set rate cache and a
//! time-sliced run dominated by quantum rotations), exhaustive
//! planning at n = 10 and 12, and greedy and best-fit planning at the
//! 48-client maximum.
//!
//! `make bench` runs this with `MPSHARE_BENCH_JSON` set, committing the
//! per-scenario medians to `BENCH_engine.json`.

use criterion::{criterion_group, criterion_main, Bencher, BenchmarkId, Criterion, Throughput};
use mpshare_core::{workflow_profile, MetricPriority, Planner, PlannerStrategy, WorkflowProfile};
use mpshare_gpusim::{
    ClientProgram, ContentionSolver, DeviceSpec, Engine, EngineConfig, EngineScratch, KernelSpec,
    LaunchConfig, PreparedContender, SharingMode, SolveScratch, TaskProgram, ValidatedPrograms,
};
use mpshare_profiler::ProfileStore;
use mpshare_types::{Fraction, MemBytes, Seconds, TaskId};
use mpshare_workloads::QueueGenerator;
use std::hint::black_box;

fn kernel(device: &DeviceSpec, dur: f64) -> KernelSpec {
    KernelSpec::from_launch(
        device,
        LaunchConfig::dense(216 * 8, 1024),
        Seconds::new(dur),
    )
    .with_sm_demand(Fraction::new(0.05))
    .with_bw_demand(Fraction::new(0.02))
    .with_host_gap(Seconds::new(dur * 0.3))
}

fn client(device: &DeviceSpec, id: u64, kernels: usize) -> ClientProgram {
    let mut t = TaskProgram::new(TaskId::new(id), "bench", MemBytes::from_mib(128));
    t.repeat_kernel(kernel(device, 0.1), kernels);
    let mut c = ClientProgram::new("bench");
    c.push_task(t);
    c
}

fn bench_solver(c: &mut Criterion) {
    let device = DeviceSpec::a100x();
    let solver = ContentionSolver::new(device.clone(), 0.002);
    let mut group = c.benchmark_group("engine/contention_solver");
    for n in [2usize, 8, 48] {
        let kernels: Vec<KernelSpec> = (0..n).map(|_| kernel(&device, 1.0)).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &kernels, |b, kernels| {
            // Measure the engine's actual hot path: prepared contenders,
            // recycled scratch, allocation-free output buffer. One
            // unmeasured call grows the scratch to full size so the loop
            // never pays first-iteration growth (the old `solve` form's
            // per-call Vec churn showed up as a 4x max/median outlier at
            // n = 48).
            let prepared: Vec<PreparedContender> = kernels
                .iter()
                .map(|k| solver.prepare(k, Fraction::ONE))
                .collect();
            let mut scratch = SolveScratch::with_capacity(prepared.len());
            let mut out = Vec::with_capacity(prepared.len());
            solver.solve_prepared_into(&prepared, &mut scratch, &mut out);
            b.iter(|| {
                solver.solve_prepared_into(&prepared, &mut scratch, &mut out);
                black_box(out.last());
            })
        });
    }
    group.finish();
}

/// Steady-state replay form: the roster is validated once and
/// round-trips through every run together with the engine scratch — after
/// the first iteration the simulation itself allocates nothing (pinned by
/// tests/alloc_gate.rs) and no per-run clone or re-validation is measured.
fn bench_replay(b: &mut Bencher, config: &EngineConfig, programs: Vec<ClientProgram>) {
    let mut roster = Some(ValidatedPrograms::new(&config.device, programs).unwrap());
    let mut scratch = EngineScratch::default();
    b.iter(|| {
        let engine = Engine::new(
            config.clone(),
            roster.take().unwrap(),
            std::mem::take(&mut scratch),
        )
        .unwrap();
        let run = engine.run().unwrap();
        roster = Some(run.roster);
        scratch = run.scratch;
        black_box(run.result.makespan);
    })
}

fn bench_engine(c: &mut Criterion) {
    let device = DeviceSpec::a100x();
    let mut group = c.benchmark_group("engine/full_run");
    for clients in [1usize, 8, 48] {
        let kernels_per_client = 50usize;
        group.throughput(Throughput::Elements((clients * kernels_per_client) as u64));
        group.bench_with_input(
            BenchmarkId::new("mps_clients", clients),
            &clients,
            |b, &clients| {
                let programs: Vec<ClientProgram> = (0..clients)
                    .map(|i| client(&device, i as u64, kernels_per_client))
                    .collect();
                let config = EngineConfig::new(device.clone(), SharingMode::mps_uniform(clients));
                bench_replay(b, &config, programs);
            },
        );
    }
    group.finish();
}

/// Time slicing with the default 2 ms quantum: a 0.1 s kernel spans
/// ~50 quanta, so most events are quantum rotations and switch
/// completions — the path the time-slice solve cache serves.
fn bench_engine_timesliced(c: &mut Criterion) {
    let device = DeviceSpec::a100x();
    let mut group = c.benchmark_group("engine/timesliced_run");
    let clients = 4usize;
    let kernels_per_client = 10usize;
    group.throughput(Throughput::Elements((clients * kernels_per_client) as u64));
    group.bench_with_input(
        BenchmarkId::from_parameter(clients),
        &clients,
        |b, &clients| {
            let programs: Vec<ClientProgram> = (0..clients)
                .map(|i| client(&device, i as u64, kernels_per_client))
                .collect();
            let config = EngineConfig::new(device.clone(), SharingMode::timesliced_default());
            bench_replay(b, &config, programs);
        },
    );
    group.finish();
}

/// Like [`client`], but with host gaps much longer than the kernels, so
/// clients keep leaving and re-entering the resident set. Most events are
/// then pure time advancement for the cached rate solution.
fn gap_heavy_client(device: &DeviceSpec, id: u64, kernels: usize) -> ClientProgram {
    let dur = 0.05 + (id % 16) as f64 * 0.003;
    let k = KernelSpec::from_launch(
        device,
        LaunchConfig::dense(216 * 8, 1024),
        Seconds::new(dur),
    )
    .with_sm_demand(Fraction::new(0.05))
    .with_bw_demand(Fraction::new(0.02))
    .with_host_gap(Seconds::new(dur * 6.0));
    let mut t = TaskProgram::new(TaskId::new(id), "bench-gap", MemBytes::from_mib(128));
    t.repeat_kernel(k, kernels);
    let mut c = ClientProgram::new("bench-gap");
    c.push_task(t);
    c.arrival = Seconds::new(id as f64 * 0.037);
    c
}

fn bench_engine_gap_heavy(c: &mut Criterion) {
    let device = DeviceSpec::a100x();
    let mut group = c.benchmark_group("engine/gap_heavy_run");
    let clients = 48usize;
    let kernels_per_client = 30usize;
    group.throughput(Throughput::Elements((clients * kernels_per_client) as u64));
    let programs = || -> Vec<ClientProgram> {
        (0..clients)
            .map(|i| gap_heavy_client(&device, i as u64, kernels_per_client))
            .collect()
    };
    let config = EngineConfig::new(device.clone(), SharingMode::mps_uniform(clients));
    group.bench_with_input(
        BenchmarkId::new("mps_clients", clients),
        &config,
        |b, config| bench_replay(b, config, programs()),
    );
    group.finish();
}

/// A seeded mixed queue with profiles, mirroring the harness's
/// online-arrival experiment population (the two pathological benchmarks
/// are excluded there for the same reasons).
fn profiled_queue(device: &DeviceSpec, seed: u64, n: usize) -> Vec<WorkflowProfile> {
    let mut generator = QueueGenerator::new(seed);
    generator.weights[1] = 0.0; // Epsilon: hour-long tasks dominate everything
    generator.weights[6] = 0.0; // WarpX: 60 GiB footprints limit grouping
    let specs = generator.sample_queue(n);
    let mut store = ProfileStore::new();
    store
        .profile_workflows(device, &specs)
        .expect("profiling the bench queue");
    specs
        .iter()
        .map(|w| workflow_profile(&store, w).expect("aggregating workflow profile"))
        .collect()
}

fn bench_plan_search(c: &mut Criterion) {
    let device = DeviceSpec::a100x();
    let mut group = c.benchmark_group("planner/search");

    // Exhaustive set-partition search at n = 10 (Bell(10) = 115 975
    // candidate partitions, each group's estimate grown one member at a
    // time from running totals).
    let profiles10 = profiled_queue(&device, 42, 10);
    let planner = Planner::new(device.clone(), MetricPriority::balanced_product());
    group.bench_function("exhaustive_n10", |b| {
        b.iter(|| {
            black_box(
                planner
                    .plan(&profiles10, PlannerStrategy::Exhaustive)
                    .unwrap(),
            )
        })
    });

    // The branch-and-bound ceiling: n = 12 (Bell(12) = 4 213 597 raw
    // partitions, ~36x the n = 10 tree) is tractable only because the
    // admissible score bound prunes most of the enumeration.
    let profiles12bb = profiled_queue(&device, 42, 12);
    group.bench_function("exhaustive_n12", |b| {
        b.iter(|| {
            black_box(
                planner
                    .plan(&profiles12bb, PlannerStrategy::Exhaustive)
                    .unwrap(),
            )
        })
    });

    // Constructive planning at the device's 48-client maximum: the
    // best-fit cap sweep estimates a trial group (current totals plus one
    // candidate) for every candidate at every step of every cap.
    let profiles48 = profiled_queue(&device, 77, 48);
    group.bench_function("greedy_n48", |b| {
        b.iter(|| black_box(planner.plan(&profiles48, PlannerStrategy::Greedy).unwrap()))
    });
    group.bench_function("bestfit_n48", |b| {
        b.iter(|| black_box(planner.plan(&profiles48, PlannerStrategy::BestFit).unwrap()))
    });

    group.finish();
}

/// The observability overhead gate: the same runner-level MPS workload
/// (the layer carrying the obs instrumentation — engine stats, counters,
/// daemon events) with the global recorder off and on. The `_disabled`
/// median must stay the no-recording baseline; `_enabled` is expected to
/// sit within a few percent of it (<3 % target, checked against
/// BENCH_engine.json).
fn bench_recorder_overhead(c: &mut Criterion) {
    let device = DeviceSpec::a100x();
    let clients = 8usize;
    let kernels_per_client = 50usize;
    let run_once = || {
        let programs: Vec<ClientProgram> = (0..clients)
            .map(|i| client(&device, i as u64, kernels_per_client))
            .collect();
        let runner = mpshare_mps::GpuRunner::new(device.clone());
        black_box(
            runner
                .run(&mpshare_mps::GpuSharing::mps_default(clients), programs)
                .unwrap(),
        )
    };
    let mut group = c.benchmark_group("engine/recorder_overhead");
    group.throughput(Throughput::Elements((clients * kernels_per_client) as u64));
    mpshare_obs::set_enabled(false);
    group.bench_function("disabled", |b| b.iter(run_once));
    mpshare_obs::set_enabled(true);
    group.bench_function("enabled", |b| b.iter(run_once));
    mpshare_obs::set_enabled(false);
    // Keep the recorder's buffers from growing across iterations.
    mpshare_obs::recorder().drain();
    group.finish();
}

fn bench_timeline_overhead(c: &mut Criterion) {
    // Cost of the timeline store itself: span pushes plus quantile
    // observations through the guarded facade. The disabled variant
    // must measure as a single relaxed atomic load per call — the
    // zero-cost-when-off claim the obs layer makes. Large enough that
    // the guarded calls dominate the fixed per-iteration reset, so the
    // bench gate compares call cost rather than scheduler jitter.
    let samples = 16384usize;
    // A sample-backed per-client series: the device series are folded
    // from recorded runs and refuse sample pushes.
    let series = mpshare_obs::series::client("bench", "sm_share");
    let run_once = || {
        // Start each iteration from an empty store so the enabled
        // variant never hits the capacity cap's cheaper drop path.
        mpshare_obs::timelines().reset();
        for i in 0..samples {
            let t = i as f64;
            mpshare_obs::series_push_span(&series, t, 1.0, 0.5);
            mpshare_obs::quantile_observe(mpshare_obs::series::CLIENT_TURNAROUND, t);
        }
        black_box(samples)
    };
    let mut group = c.benchmark_group("engine/timeline_overhead");
    group.throughput(Throughput::Elements(2 * samples as u64));
    mpshare_obs::set_enabled(false);
    group.bench_function("disabled", |b| b.iter(run_once));
    mpshare_obs::set_enabled(true);
    group.bench_function("enabled", |b| b.iter(run_once));
    mpshare_obs::set_enabled(false);
    mpshare_obs::timelines().reset();
    group.finish();
}

criterion_group!(
    benches,
    bench_solver,
    bench_engine,
    bench_engine_timesliced,
    bench_engine_gap_heavy,
    bench_plan_search,
    bench_recorder_overhead,
    bench_timeline_overhead
);
criterion_main!(benches);
