//! Cross-mechanism integration: the §II-B taxonomy holds end-to-end, on
//! generated queues as well as hand-picked pairs.

use mpshare::gpusim::DeviceSpec;
use mpshare::mps::{GpuRunner, GpuSharing, MigLayout, MigProfile, TimeSliceConfig};
use mpshare::types::IdAllocator;
use mpshare::workloads::{BenchmarkKind, ProblemSize, QueueGenerator, WorkflowSpec};

fn device() -> DeviceSpec {
    DeviceSpec::a100x()
}

fn programs(device: &DeviceSpec, specs: &[WorkflowSpec]) -> Vec<mpshare::gpusim::ClientProgram> {
    let mut ids = IdAllocator::new();
    specs
        .iter()
        .map(|w| w.to_client_program(device, &mut ids).unwrap())
        .collect()
}

/// Streams (fused process) never lose to MPS on the same inputs: MPS adds
/// client pressure and power peaks on top of the same resource contention.
#[test]
fn streams_dominate_mps_on_generated_pairs() {
    let d = device();
    let runner = GpuRunner::new(d.clone());
    let mut generator = QueueGenerator::new(42);
    generator.weights[1] = 0.0; // Epsilon: too long for a unit test
    for trial in 0..5 {
        let specs = generator.sample_queue(2);
        let mps = runner
            .run(&GpuSharing::mps_default(2), programs(&d, &specs))
            .unwrap();
        let streams = runner
            .run(&GpuSharing::Streams, programs(&d, &specs))
            .unwrap();
        assert_eq!(mps.tasks_completed, streams.tasks_completed);
        assert!(
            streams.makespan.value() <= mps.makespan.value() + 1e-6,
            "trial {trial}: streams {} > mps {}",
            streams.makespan,
            mps.makespan
        );
    }
}

/// Every mechanism conserves tasks and energy bookkeeping on a mixed
/// 4-workflow queue.
#[test]
fn all_mechanisms_conserve_tasks_and_integrate_energy() {
    let d = device();
    let runner = GpuRunner::new(d.clone());
    // Exclude WarpX (its 60 GiB footprint cannot fit a MIG 4g slice) and
    // Epsilon (an hour-long task makes the time-sliced run slow in tests).
    let mut generator = QueueGenerator::new(7);
    generator.weights[1] = 0.0; // Epsilon
    generator.weights[6] = 0.0; // WarpX
    let specs = generator.sample_queue(4);
    let expected_tasks: usize = specs.iter().map(|w| w.task_count()).sum();

    let mechanisms: Vec<GpuSharing> = vec![
        GpuSharing::Sequential,
        GpuSharing::TimeSliced(TimeSliceConfig::driver_default()),
        GpuSharing::Streams,
        GpuSharing::mps_default(4),
        GpuSharing::Mig {
            layout: MigLayout::new(&d, &[MigProfile::FourSlice, MigProfile::ThreeSlice]).unwrap(),
            assignment: vec![0, 1, 0, 1],
        },
    ];
    for sharing in mechanisms {
        let result = runner.run(&sharing, programs(&d, &specs)).unwrap();
        assert_eq!(result.tasks_completed, expected_tasks, "{sharing:?}");
        let integral: f64 = result
            .telemetry
            .segments()
            .map(|s| s.energy().joules())
            .sum();
        assert!(
            (integral - result.total_energy.joules()).abs() < 1e-3,
            "{sharing:?}: energy bookkeeping"
        );
        // The board never exceeds its cap under any mechanism.
        for s in result.telemetry.segments() {
            assert!(s.power.watts() <= 300.0 + 1e-9);
        }
    }
}

/// MIG isolation: a light workload keeps its solo pace on its own slice,
/// no matter how hot its neighbour is — the guarantee MPS cannot give.
#[test]
fn mig_isolates_a_victim_from_a_hot_neighbour() {
    let d = device();
    let runner = GpuRunner::new(d.clone());
    let victim = WorkflowSpec::uniform(BenchmarkKind::AthenaPk, ProblemSize::X1, 10);
    let aggressor = WorkflowSpec::uniform(BenchmarkKind::ChollaMhd, ProblemSize::X4, 1);

    // Victim alone on a 3-slice instance.
    let layout = MigLayout::new(&d, &[MigProfile::ThreeSlice, MigProfile::FourSlice]).unwrap();
    let solo_on_slice = runner
        .run(
            &GpuSharing::Mig {
                layout: layout.clone(),
                assignment: vec![0],
            },
            programs(&d, std::slice::from_ref(&victim)),
        )
        .unwrap();
    // Victim + aggressor on separate slices.
    let shared = runner
        .run(
            &GpuSharing::Mig {
                layout,
                assignment: vec![0, 1],
            },
            programs(&d, &[victim.clone(), aggressor.clone()]),
        )
        .unwrap();
    let victim_finish_solo = solo_on_slice.clients[0].finished;
    let victim_finish_shared = shared.clients[0].finished;
    assert!(
        (victim_finish_shared.value() - victim_finish_solo.value()).abs() < 1e-6,
        "MIG victim perturbed: {} vs {}",
        victim_finish_shared,
        victim_finish_solo
    );

    // Under MPS the same pairing perturbs the victim.
    let mps = runner
        .run(
            &GpuSharing::mps_default(2),
            programs(&d, &[victim.clone(), aggressor]),
        )
        .unwrap();
    let solo_full = runner
        .run(&GpuSharing::mps_default(1), programs(&d, &[victim]))
        .unwrap();
    assert!(mps.clients[0].finished.value() > solo_full.clients[0].finished.value() + 1e-6);
}

/// Time-slicing's context-switch overhead is visible: shrinking the
/// quantum (more switches) never speeds the same workload up.
#[test]
fn smaller_quanta_cost_more_switching() {
    let d = device();
    let runner = GpuRunner::new(d.clone());
    let specs = vec![
        WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 5),
        WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 5),
    ];
    let run_with = |quantum_ms: f64| {
        let cfg = TimeSliceConfig::new(
            mpshare::types::Seconds::from_millis(quantum_ms),
            mpshare::types::Seconds::from_millis(0.1),
        )
        .unwrap();
        runner
            .run(&GpuSharing::TimeSliced(cfg), programs(&d, &specs))
            .unwrap()
            .makespan
            .value()
    };
    let coarse = run_with(50.0);
    let fine = run_with(1.0);
    assert!(
        fine >= coarse - 1e-6,
        "fine quanta should not be faster: fine {fine} coarse {coarse}"
    );
}
