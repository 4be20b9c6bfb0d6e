//! Property-based invariants of the simulator and scheduler, driven by
//! randomized synthetic workloads.

use mpshare::gpusim::DeviceSpec;
use mpshare::mps::{GpuRunner, GpuSharing, TimeSliceConfig};
use mpshare::types::Seconds;
use mpshare::workloads::SyntheticSpec;
use proptest::prelude::*;

fn device() -> DeviceSpec {
    DeviceSpec::a100x()
}

/// Strategy generating one synthetic workload spec.
fn spec_strategy() -> impl Strategy<Value = SyntheticSpec> {
    (
        0.02f64..=1.0, // sm_demand
        0.0f64..=0.6,  // bw_demand
        0.2f64..=1.0,  // duty cycle
        1.0f64..=20.0, // duration
        64u64..=8192,  // memory MiB
        2usize..=12,   // kernels
        0.0f64..=1.0,  // cache sensitivity
        0.0f64..=0.15, // client sensitivity
    )
        .prop_map(
            |(sm, bw, duty, duration, memory_mib, kernels, cache, client)| SyntheticSpec {
                sm_demand: sm,
                bw_demand: bw,
                duty_cycle: duty,
                duration,
                memory_mib,
                kernels,
                cache_sensitivity: cache,
                client_sensitivity: client,
            },
        )
}

fn programs_for(specs: &[SyntheticSpec]) -> Vec<mpshare::gpusim::ClientProgram> {
    let d = device();
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| s.to_client_program(&d, 1, i as u64 * 100).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Energy is exactly the integral of power over the telemetry; total
    /// time covers the makespan; utilizations stay within bounds.
    #[test]
    fn telemetry_integrals_are_consistent(specs in prop::collection::vec(spec_strategy(), 1..5)) {
        let runner = GpuRunner::new(device());
        let n = specs.len();
        let result = runner.run(&GpuSharing::mps_default(n), programs_for(&specs)).unwrap();
        let t = &result.telemetry;

        prop_assert!((t.total_time().value() - result.makespan.value()).abs() < 1e-6);
        let integral: f64 = t.segments().map(|s| s.energy().joules()).sum();
        prop_assert!((integral - result.total_energy.joules()).abs() < 1e-6);
        for s in t.segments() {
            prop_assert!(s.sm_util >= 0.0 && s.sm_util <= 1.0 + 1e-9);
            prop_assert!(s.bw_util >= 0.0 && s.bw_util <= 1.0 + 1e-9);
            prop_assert!(s.power.watts() <= 300.0 + 1e-9);
            prop_assert!(s.clock_factor > 0.0 && s.clock_factor <= 1.0);
        }
    }

    /// Sharing never loses tasks, and the shared makespan is bounded below
    /// by the longest client's solo time and above by the sum of all solo
    /// times (work conservation with non-negative overheads may exceed
    /// the sum only by the modeled interference, bounded here loosely).
    #[test]
    fn makespan_bounds_hold(specs in prop::collection::vec(spec_strategy(), 1..5)) {
        let runner = GpuRunner::new(device());
        let programs = programs_for(&specs);
        let solo_max = programs
            .iter()
            .map(|p| p.solo_wall_time().value())
            .fold(0.0f64, f64::max);
        let solo_sum: f64 = programs.iter().map(|p| p.solo_wall_time().value()).sum();
        let n = programs.len();
        let result = runner.run(&GpuSharing::mps_default(n), programs).unwrap();

        prop_assert_eq!(result.tasks_completed, n);
        prop_assert!(result.makespan.value() >= solo_max - 1e-6,
            "makespan {} below longest solo {}", result.makespan, solo_max);
        // Interference (cache + client pressure) can stretch beyond the
        // solo sum, but by no more than the modeled slowdown bound.
        let max_slowdown: f64 = specs
            .iter()
            .map(|s| 1.0 + s.cache_sensitivity * 0.6 * (n as f64 - 1.0)
                + s.client_sensitivity * 6.0)
            .fold(1.0f64, f64::max);
        prop_assert!(result.makespan.value() <= solo_sum * max_slowdown + 1e-6,
            "makespan {} above bound {}", result.makespan, solo_sum * max_slowdown);
    }

    /// Sequential scheduling's makespan equals the sum of solo times, and
    /// sequential energy is an upper bound for MPS energy of the same work
    /// whenever no interference-induced stretching occurs (single client).
    #[test]
    fn sequential_equals_solo_sum(spec in spec_strategy()) {
        let runner = GpuRunner::new(device());
        let d = device();
        let programs: Vec<_> = (0..3)
            .map(|i| spec.to_client_program(&d, 1, i * 10).unwrap())
            .collect();
        let solo_sum: f64 = programs.iter().map(|p| p.solo_wall_time().value()).sum();
        let result = runner.run(&GpuSharing::Sequential, programs).unwrap();
        // Power capping can stretch a single hot client; allow only that.
        prop_assert!(result.makespan.value() >= solo_sum - 1e-6);
        if result.telemetry.capped_time() == Seconds::ZERO {
            prop_assert!((result.makespan.value() - solo_sum).abs() < 1e-6,
                "uncapped sequential {} vs solo sum {}", result.makespan, solo_sum);
        }
    }

    /// For interference-free workloads (no cache/client sensitivity),
    /// concurrent MPS stays at least near-parity with time-slicing. Two
    /// effects can hand time-slicing a small edge even then: (a) power
    /// capping (two resident clients raise the power peaks, §V-C), which
    /// the guard below excludes; (b) phase alignment — deterministic,
    /// near-identical clients under MPS keep their host gaps synchronized
    /// and idle the GPU together, while time-slicing naturally
    /// desynchronizes them (real MPS clients jitter apart; the simulator's
    /// determinism keeps them locked). Effect (b) is bounded by the
    /// largest gap fraction among the clients, which bounds the tolerance.
    #[test]
    fn timeslicing_never_beats_mps_without_interference(
        specs in prop::collection::vec(spec_strategy(), 2..4)
    ) {
        let clean: Vec<SyntheticSpec> = specs
            .iter()
            .map(|s| SyntheticSpec {
                cache_sensitivity: 0.0,
                client_sensitivity: 0.0,
                ..*s
            })
            .collect();
        let runner = GpuRunner::new(device());
        let n = clean.len();
        let mps = runner
            .run(&GpuSharing::mps_default(n), programs_for(&clean))
            .unwrap();
        let ts = runner
            .run(
                &GpuSharing::TimeSliced(TimeSliceConfig::driver_default()),
                programs_for(&clean),
            )
            .unwrap();
        prop_assert_eq!(mps.tasks_completed, ts.tasks_completed);
        // Power capping is the one mechanism that can still slow MPS and
        // not time-slicing (two resident clients raise the power peaks,
        // §V-C); outside capped runs the ordering is strict.
        if mps.telemetry.capped_time() == Seconds::ZERO {
            let max_gap_fraction = clean
                .iter()
                .map(|s| 1.0 - s.duty_cycle)
                .fold(0.0f64, f64::max);
            let tolerance = 1.02 + max_gap_fraction;
            prop_assert!(
                mps.makespan.value() <= ts.makespan.value() * tolerance + 1e-6,
                "MPS {} slower than time slicing {} beyond the {:.2}x alignment bound",
                mps.makespan, ts.makespan, tolerance
            );
        }

        // Sensitive variant: only conservation is guaranteed.
        let sensitive = runner
            .run(&GpuSharing::mps_default(specs.len()), programs_for(&specs))
            .unwrap();
        prop_assert_eq!(sensitive.tasks_completed, specs.len());
    }

    /// Restricting a solo client's partition never speeds it up, and the
    /// throughput curve in partition is monotone.
    #[test]
    fn partition_response_is_monotone(spec in spec_strategy()) {
        let runner = GpuRunner::new(device());
        let d = device();
        let mut prev = f64::INFINITY;
        for pct in [25u8, 50, 75, 100] {
            let program = spec.to_client_program(&d, 1, 0).unwrap();
            let sharing = GpuSharing::Mps {
                partitions: vec![mpshare::types::Fraction::new(pct as f64 / 100.0)],
            };
            let makespan = runner.run(&sharing, vec![program]).unwrap().makespan.value();
            prop_assert!(makespan <= prev + 1e-9,
                "partition {pct}% slower than smaller partition: {makespan} vs {prev}");
            prev = makespan;
        }
    }
}

// ---------------------------------------------------------------------------
// Pinned regression seeds
//
// `tests/invariants.proptest-regressions` records two shrunk failure cases
// from past runs. The offline proptest stand-in cannot replay `cc` hashes
// (its generator differs from upstream proptest's), so the shrunk inputs are
// pinned here verbatim as deterministic unit tests and run through the same
// property bodies on every `cargo test`. Keep these in sync with that file.
// ---------------------------------------------------------------------------

/// First checked-in seed: a near-saturating client (sm 0.98, duty 0.97)
/// paired with a long low-duty one — zero bandwidth demand on both.
fn regression_pair_1() -> Vec<SyntheticSpec> {
    vec![
        SyntheticSpec {
            sm_demand: 0.9840841815260636,
            bw_demand: 0.0,
            duty_cycle: 0.9688780295688418,
            duration: 1.0,
            memory_mib: 64,
            kernels: 2,
            cache_sensitivity: 0.0,
            client_sensitivity: 0.0,
        },
        SyntheticSpec {
            sm_demand: 0.6770488392416243,
            bw_demand: 0.0,
            duty_cycle: 0.2,
            duration: 14.914675050930303,
            memory_mib: 64,
            kernels: 2,
            cache_sensitivity: 0.0,
            client_sensitivity: 0.0,
        },
    ]
}

/// Second checked-in seed: two high-SM clients with mismatched duty
/// cycles and durations — again zero bandwidth demand.
fn regression_pair_2() -> Vec<SyntheticSpec> {
    vec![
        SyntheticSpec {
            sm_demand: 0.8743879894872371,
            bw_demand: 0.0,
            duty_cycle: 0.2,
            duration: 1.0,
            memory_mib: 64,
            kernels: 2,
            cache_sensitivity: 0.0,
            client_sensitivity: 0.0,
        },
        SyntheticSpec {
            sm_demand: 0.8261098687104207,
            bw_demand: 0.0,
            duty_cycle: 0.42275238835137774,
            duration: 12.7290045871974,
            memory_mib: 64,
            kernels: 2,
            cache_sensitivity: 0.0,
            client_sensitivity: 0.0,
        },
    ]
}

/// The `makespan_bounds_hold` property body as a plain assertion set, so
/// the pinned seeds exercise it deterministically.
fn assert_makespan_bounds(specs: &[SyntheticSpec]) {
    let runner = GpuRunner::new(device());
    let programs = programs_for(specs);
    let solo_max = programs
        .iter()
        .map(|p| p.solo_wall_time().value())
        .fold(0.0f64, f64::max);
    let solo_sum: f64 = programs.iter().map(|p| p.solo_wall_time().value()).sum();
    let n = programs.len();
    let result = runner.run(&GpuSharing::mps_default(n), programs).unwrap();

    assert_eq!(result.tasks_completed, n);
    assert!(
        result.makespan.value() >= solo_max - 1e-6,
        "makespan {} below longest solo {}",
        result.makespan,
        solo_max
    );
    let max_slowdown: f64 = specs
        .iter()
        .map(|s| 1.0 + s.cache_sensitivity * 0.6 * (n as f64 - 1.0) + s.client_sensitivity * 6.0)
        .fold(1.0f64, f64::max);
    assert!(
        result.makespan.value() <= solo_sum * max_slowdown + 1e-6,
        "makespan {} above bound {}",
        result.makespan,
        solo_sum * max_slowdown
    );
}

/// The `timeslicing_never_beats_mps_without_interference` property body as
/// a plain assertion set for the pinned seeds (both are interference-free).
fn assert_mps_near_parity_with_timeslicing(specs: &[SyntheticSpec]) {
    let runner = GpuRunner::new(device());
    let n = specs.len();
    let mps = runner
        .run(&GpuSharing::mps_default(n), programs_for(specs))
        .unwrap();
    let ts = runner
        .run(
            &GpuSharing::TimeSliced(TimeSliceConfig::driver_default()),
            programs_for(specs),
        )
        .unwrap();
    assert_eq!(mps.tasks_completed, ts.tasks_completed);
    if mps.telemetry.capped_time() == Seconds::ZERO {
        let max_gap_fraction = specs
            .iter()
            .map(|s| 1.0 - s.duty_cycle)
            .fold(0.0f64, f64::max);
        let tolerance = 1.02 + max_gap_fraction;
        assert!(
            mps.makespan.value() <= ts.makespan.value() * tolerance + 1e-6,
            "MPS {} slower than time slicing {} beyond the {:.2}x alignment bound",
            mps.makespan,
            ts.makespan,
            tolerance
        );
    }
}

#[test]
fn regression_seed_1_holds_all_pair_invariants() {
    let specs = regression_pair_1();
    assert_makespan_bounds(&specs);
    assert_mps_near_parity_with_timeslicing(&specs);
}

#[test]
fn regression_seed_2_holds_all_pair_invariants() {
    let specs = regression_pair_2();
    assert_makespan_bounds(&specs);
    assert_mps_near_parity_with_timeslicing(&specs);
}
