//! Resource-contention solver.
//!
//! Given the set of kernels resident on the GPU at one instant — each with
//! its MPS partition, SM-throughput demand, and memory-bandwidth demand —
//! the solver computes every kernel's progress rate relative to solo
//! execution. The model composes four effects, in order:
//!
//! 1. **Partition response** (granularity): wave-quantized speed at the
//!    partition's SM count ([`crate::kernel::KernelSpec::speed_at_partition`]).
//! 2. **SM-throughput contention**: if combined demand exceeds the device,
//!    all kernels scale proportionally — MPS has no SM performance
//!    isolation between oversubscribed partitions.
//! 3. **Memory-bandwidth contention**: HBM arbitration is modeled as
//!    max-min fair sharing, so a compute-bound kernel is *not* slowed when
//!    a co-runner saturates the bus, but bandwidth hogs split the residual
//!    fairly.
//! 4. **Cache/sharing pressure**: MPS shares L2, the launch path,
//!    scheduling hardware, and caches between clients; each kernel is
//!    slowed by `1 / (1 + cache_sensitivity·Σ other BW pressure +
//!    client_sensitivity·min(n−1, 6) + overhead·(n−1))`. The per-co-runner
//!    term saturates: beyond a handful of co-runners the shared front-end
//!    is already fully contended.
//!
//! Clock throttling from the power cap is applied afterwards by the engine
//! (see [`crate::power`]) because it depends on total power, which depends
//! on the rates computed here.

use crate::device::DeviceSpec;
use crate::kernel::KernelSpec;
use mpshare_types::Fraction;
use serde::{Deserialize, Serialize};

/// Co-runner count beyond which per-client pressure stops growing (the
/// shared front-end is saturated).
pub const CLIENT_PRESSURE_CAP: f64 = 6.0;

/// Per-kernel result of the contention solve, before clock throttling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    /// Progress rate relative to solo full-partition execution, in `[0, 1]`.
    pub rate: f64,
    /// Fraction of device SM throughput consumed at this rate.
    pub sm_share: f64,
    /// Fraction of device memory bandwidth consumed at this rate.
    pub bw_share: f64,
    /// Weighted dynamic-power contribution (before clock scaling), watts.
    pub dyn_power_watts: f64,
}

/// One kernel's inputs to the contention solve.
#[derive(Debug, Clone, Copy)]
pub struct Contender<'a> {
    pub kernel: &'a KernelSpec,
    /// The MPS SM partition (active thread percentage) of the owning client.
    pub partition: Fraction,
}

/// Precomputed per-kernel solve inputs.
///
/// Everything [`ContentionSolver::solve`] derives from `(device, kernel,
/// partition)` is invariant while the kernel stays resident, so the engine
/// computes it once when the kernel starts (hoisting the occupancy/limits
/// arithmetic of [`KernelSpec::speed_at_partition`] out of the per-event
/// solve) and replays it through [`ContentionSolver::solve_prepared_into`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedContender {
    /// Wave-quantized speed at the owning client's partition
    /// ([`KernelSpec::speed_at_partition`]).
    pub speed_cap: f64,
    /// SM-throughput demand rescaled to the executing device.
    pub sm_demand: f64,
    /// Memory-bandwidth demand rescaled to the executing device.
    pub bw_demand: f64,
    pub cache_sensitivity: f64,
    pub client_sensitivity: f64,
    pub power_scale: f64,
}

impl PreparedContender {
    /// Performs exactly the per-contender derivations of
    /// [`ContentionSolver::solve`] steps 1–2, in the same order.
    pub fn new(device: &DeviceSpec, kernel: &KernelSpec, partition: Fraction) -> Self {
        PreparedContender {
            speed_cap: kernel.speed_at_partition(device, partition),
            sm_demand: kernel.sm_demand_on(device),
            bw_demand: kernel.bw_demand_on(device),
            cache_sensitivity: kernel.cache_sensitivity,
            client_sensitivity: kernel.client_sensitivity,
            power_scale: kernel.power_scale,
        }
    }
}

/// Reusable buffers for [`ContentionSolver::solve_prepared_into`], so the
/// engine's per-event solve allocates nothing after warm-up. The contents
/// carry no meaning between solves: every solve overwrites what it reads.
#[derive(Debug, Default)]
pub struct SolveScratch {
    r1: Vec<f64>,
    r2: Vec<f64>,
    wanted: Vec<f64>,
    granted: Vec<f64>,
    order: Vec<usize>,
    bw_used: Vec<f64>,
}

impl SolveScratch {
    /// A scratch with every internal vector pre-sized for `n` contenders,
    /// so no solve up to that membership ever grows a buffer. The engine
    /// sizes its scratch to the client count at construction; benchmarks
    /// size theirs outside the measured loop.
    pub fn with_capacity(n: usize) -> Self {
        let mut scratch = SolveScratch::default();
        scratch.reserve(n);
        scratch
    }

    /// Ensures capacity for `n` contenders (see [`SolveScratch::with_capacity`]).
    pub fn reserve(&mut self, n: usize) {
        self.r1.reserve(n);
        self.r2.reserve(n);
        self.wanted.reserve(n);
        self.granted.reserve(n);
        self.order.reserve(n);
        self.bw_used.reserve(n);
    }
}

/// Stateless solver; holds the device and the device-level sharing overhead.
#[derive(Debug, Clone)]
pub struct ContentionSolver {
    device: DeviceSpec,
    /// Per-additional-co-runner slowdown coefficient (shared scheduling
    /// hardware / L2 pressure under MPS). Zero disables the effect.
    sharing_overhead: f64,
    /// When true, all contenders belong to one process (CUDA Streams):
    /// they share an address space and launch path, so the per-client
    /// pressure terms (client sensitivity, sharing overhead) do not apply.
    /// Resource contention (SM throughput, bandwidth, cache) still does.
    same_process: bool,
}

impl ContentionSolver {
    pub fn new(device: DeviceSpec, sharing_overhead: f64) -> Self {
        assert!(
            sharing_overhead >= 0.0 && sharing_overhead.is_finite(),
            "sharing overhead must be non-negative"
        );
        ContentionSolver {
            device,
            sharing_overhead,
            same_process: false,
        }
    }

    /// Marks all contenders as streams of one process (no per-client
    /// pressure).
    pub fn with_same_process(mut self, same_process: bool) -> Self {
        self.same_process = same_process;
        self
    }

    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Precomputes a contender's invariant solve inputs on this solver's
    /// device (see [`PreparedContender`]).
    pub fn prepare(&self, kernel: &KernelSpec, partition: Fraction) -> PreparedContender {
        PreparedContender::new(&self.device, kernel, partition)
    }

    /// Solves for the rates of all currently running kernels.
    ///
    /// Returns one [`Allocation`] per contender, in input order. With an
    /// empty input the result is empty. All outputs are finite; rates are
    /// in `[0, 1]`, and `Σ sm_share ≤ 1`, `Σ bw_share ≤ 1 + ε`.
    ///
    /// This is a thin wrapper over [`Self::solve_prepared_into`]: the
    /// per-contender derivations move into [`PreparedContender::new`] and
    /// every downstream operation runs in the same order on the same
    /// values, so results are bit-identical to the historical direct
    /// implementation.
    pub fn solve(&self, contenders: &[Contender<'_>]) -> Vec<Allocation> {
        let prepared: Vec<PreparedContender> = contenders
            .iter()
            .map(|c| self.prepare(c.kernel, c.partition))
            .collect();
        let mut scratch = SolveScratch::default();
        let mut out = Vec::with_capacity(contenders.len());
        self.solve_prepared_into(&prepared, &mut scratch, &mut out);
        out
    }

    /// Allocation-free solve over precomputed contenders.
    ///
    /// `out` is cleared and refilled with one [`Allocation`] per prepared
    /// contender, in input order; `scratch` holds the intermediate vectors
    /// between calls.
    pub fn solve_prepared_into(
        &self,
        prepared: &[PreparedContender],
        scratch: &mut SolveScratch,
        out: &mut Vec<Allocation>,
    ) {
        out.clear();
        if prepared.is_empty() {
            return;
        }

        // Steps 1–2 (partition-capped speed, rescaled demands) are baked
        // into `prepared`; proportional SM-throughput contention follows.
        // The explicit fold is bit-identical to `Iterator::sum` (same
        // left-to-right `acc + term` chain).
        let mut total_sm_demand = 0.0;
        for p in prepared {
            total_sm_demand += p.sm_demand * p.speed_cap;
        }

        if total_sm_demand <= 1.0 {
            // Fast path: `compute_scale == 1.0` exactly, so
            // `r1 = speed_cap·1.0 = speed_cap` bit for bit. One fused,
            // branch-free pass over dense slots computes r1, the wanted
            // bandwidth, and its running fold (same `acc + term` chain the
            // multi-pass pipeline executed, so every value is identical).
            scratch.r1.clear();
            scratch.wanted.clear();
            let mut total_wanted = 0.0;
            for p in prepared {
                let r = p.speed_cap;
                let w = p.bw_demand * r;
                scratch.r1.push(r);
                scratch.wanted.push(w);
                total_wanted += w;
            }
            if total_wanted <= 1.0 {
                // No water-fill either: `granted == wanted` makes
                // `r2 = r1·(g/w).min(1) = r1·1.0 = r1` exact (x/x == 1.0
                // for any finite non-zero x, and w == 0 keeps r2 = r1), and
                // `bw_used = bw_demand·r2 = bw_demand·r1 = wanted` is the
                // same multiplication of the same operands. So r1 and
                // wanted stand in for r2 and bw_used unchanged.
                self.finish_solve(prepared, total_wanted, &scratch.wanted, &scratch.r1, out);
                return;
            }
            // Bandwidth-constrained tail (r1/wanted already computed).
            self.solve_constrained_tail(prepared, total_wanted, scratch, out);
            return;
        }

        // SM-oversubscribed path: every r1 carries the proportional scale.
        let compute_scale = 1.0 / total_sm_demand;
        scratch.r1.clear();
        scratch
            .r1
            .extend(prepared.iter().map(|p| p.speed_cap * compute_scale));
        scratch.wanted.clear();
        scratch.wanted.extend(
            prepared
                .iter()
                .zip(&scratch.r1)
                .map(|(p, r)| p.bw_demand * r),
        );
        let mut total_wanted = 0.0;
        for w in &scratch.wanted {
            total_wanted += *w;
        }
        self.solve_constrained_tail(prepared, total_wanted, scratch, out);
    }

    /// Steps 3–4 for solves that left the fused fast path: max-min
    /// bandwidth water-fill, the historical per-element r2 pass, the
    /// used-bandwidth fold, and the shared pressure pass. Verbatim the
    /// tail of the historical single-function pipeline.
    fn solve_constrained_tail(
        &self,
        prepared: &[PreparedContender],
        total_wanted: f64,
        scratch: &mut SolveScratch,
        out: &mut Vec<Allocation>,
    ) {
        max_min_share_with_total(
            &scratch.wanted,
            total_wanted,
            1.0,
            &mut scratch.granted,
            &mut scratch.order,
        );
        scratch.r2.clear();
        scratch.r2.extend(
            scratch
                .r1
                .iter()
                .zip(scratch.wanted.iter().zip(&scratch.granted))
                .map(
                    |(r, (w, g))| {
                        if *w > 0.0 {
                            r * (g / w).min(1.0)
                        } else {
                            *r
                        }
                    },
                ),
        );

        scratch.bw_used.clear();
        scratch.bw_used.extend(
            prepared
                .iter()
                .zip(&scratch.r2)
                .map(|(p, r)| p.bw_demand * r),
        );
        let mut total_bw_used = 0.0;
        for b in &scratch.bw_used {
            total_bw_used += *b;
        }

        self.finish_solve(prepared, total_bw_used, &scratch.bw_used, &scratch.r2, out);
    }

    /// Step 4 (cache/sharing pressure) and allocation emission, shared by
    /// the fast path and the constrained tail.
    ///
    /// Occupancy (and therefore power) follows the pre-pressure rates:
    /// a kernel slowed by cache thrash or client pressure still holds
    /// its SMs and burns power while stalled — `nvidia-smi` reports it
    /// busy. Only *progress* (and the data actually moved on the bus)
    /// takes the slowdown.
    fn finish_solve(
        &self,
        prepared: &[PreparedContender],
        total_bw_used: f64,
        bw_used: &[f64],
        r2: &[f64],
        out: &mut Vec<Allocation>,
    ) {
        let n = prepared.len();
        out.clear();
        // Loop-invariant per-co-runner terms, hoisted: the per-element
        // arithmetic below multiplies/adds the same values in the same
        // order as the historical in-loop computation.
        let corunners = if self.same_process {
            0.0
        } else {
            (n as f64 - 1.0).max(0.0)
        };
        let capped_corunners = corunners.min(CLIENT_PRESSURE_CAP);
        let overhead_term = self.sharing_overhead * corunners;
        for (i, p) in prepared.iter().enumerate() {
            let own_bw = bw_used[i];
            let other_pressure = (total_bw_used - own_bw).max(0.0);
            let slowdown = 1.0
                + p.cache_sensitivity * other_pressure
                + p.client_sensitivity * capped_corunners
                + overhead_term;
            let rate = r2[i] / slowdown;
            let sm_share = p.sm_demand * r2[i];
            let bw_share = p.bw_demand * rate;
            let dyn_power_watts = p.power_scale
                * (self.device.power_per_sm_pct * sm_share * 100.0
                    + self.device.power_per_bw_pct * bw_share * 100.0);
            out.push(Allocation {
                rate,
                sm_share,
                bw_share,
                dyn_power_watts,
            });
        }
    }
}

/// Max-min fair allocation of `capacity` among `wanted` demands
/// (water-filling): demands below the fair share are fully granted and the
/// residual is redistributed among the rest.
pub fn max_min_share(wanted: &[f64], capacity: f64) -> Vec<f64> {
    let mut granted = Vec::new();
    let mut order = Vec::new();
    max_min_share_into(wanted, capacity, &mut granted, &mut order);
    granted
}

/// Buffer-reusing form of [`max_min_share`]: `granted` receives the
/// allocation, `order` is sort scratch.
fn max_min_share_into(
    wanted: &[f64],
    capacity: f64,
    granted: &mut Vec<f64>,
    order: &mut Vec<usize>,
) {
    let total: f64 = wanted.iter().sum();
    max_min_share_with_total(wanted, total, capacity, granted, order);
}

/// [`max_min_share_into`] with the demand total precomputed by the caller
/// (the solver already folds it).
fn max_min_share_with_total(
    wanted: &[f64],
    total: f64,
    capacity: f64,
    granted: &mut Vec<f64>,
    order: &mut Vec<usize>,
) {
    let n = wanted.len();
    granted.clear();
    granted.resize(n, 0.0);
    if n == 0 {
        return;
    }
    if total <= capacity {
        granted.copy_from_slice(wanted);
        return;
    }

    // Sort indices by demand ascending; grant in order, recomputing the fair
    // share of the remaining capacity at each step.
    order.clear();
    order.extend(0..n);
    order.sort_by(|&a, &b| wanted[a].partial_cmp(&wanted[b]).expect("finite demands"));

    let mut remaining_capacity = capacity;
    let mut remaining_users = n;
    for &i in order.iter() {
        let fair = remaining_capacity / remaining_users as f64;
        let g = wanted[i].min(fair);
        granted[i] = g;
        remaining_capacity -= g;
        remaining_users -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::LaunchConfig;
    use mpshare_types::Seconds;

    fn dev() -> DeviceSpec {
        DeviceSpec::a100x()
    }

    /// A kernel occupying `sm` of the device's SM throughput and `bw` of
    /// its bandwidth, with a grid large enough to scale linearly.
    fn k(sm: f64, bw: f64) -> KernelSpec {
        KernelSpec::from_launch(
            &dev(),
            LaunchConfig::dense(216 * 100, 1024),
            Seconds::new(1.0),
        )
        .with_sm_demand(Fraction::new(sm))
        .with_bw_demand(Fraction::new(bw))
    }

    fn solve(kernels: &[KernelSpec]) -> Vec<Allocation> {
        let solver = ContentionSolver::new(dev(), 0.0);
        let contenders: Vec<Contender<'_>> = kernels
            .iter()
            .map(|kernel| Contender {
                kernel,
                partition: Fraction::ONE,
            })
            .collect();
        solver.solve(&contenders)
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(solve(&[]).is_empty());
    }

    #[test]
    fn solo_low_utilization_kernel_runs_at_full_rate() {
        let a = solve(&[k(0.3, 0.1)]);
        assert!((a[0].rate - 1.0).abs() < 1e-12);
        assert!((a[0].sm_share - 0.3).abs() < 1e-12);
        assert!((a[0].bw_share - 0.1).abs() < 1e-12);
    }

    #[test]
    fn non_interfering_pair_runs_at_full_rate() {
        // The paper's rule: combined SM < 100% and BW < 100% -> no
        // interference.
        let a = solve(&[k(0.4, 0.2), k(0.5, 0.3)]);
        assert!((a[0].rate - 1.0).abs() < 1e-9);
        assert!((a[1].rate - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sm_oversubscription_scales_proportionally() {
        // 0.8 + 0.8 = 1.6 demand -> everyone at 1/1.6.
        let a = solve(&[k(0.8, 0.0), k(0.8, 0.0)]);
        for alloc in &a {
            assert!((alloc.rate - 1.0 / 1.6).abs() < 1e-9);
        }
        let total_sm: f64 = a.iter().map(|x| x.sm_share).sum();
        assert!((total_sm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_hog_does_not_slow_compute_bound_corunner() {
        // Kernel A: compute bound (bw 0.05). Kernel B: saturates BW (0.9).
        // Combined wanted = 0.95 < 1 -> no slowdown at all. Push B to 2
        // copies to exceed capacity.
        let a = solve(&[k(0.2, 0.05), k(0.3, 0.9), k(0.3, 0.9)]);
        // A gets its 0.05 fully (max-min), so it runs at full rate.
        assert!((a[0].rate - 1.0).abs() < 1e-9, "rate was {}", a[0].rate);
        // B kernels split the residual 0.95/2 each -> rate ≈ 0.475/0.9.
        let expected = (0.95 / 2.0) / 0.9;
        assert!((a[1].rate - expected).abs() < 1e-6);
        assert!((a[2].rate - expected).abs() < 1e-6);
    }

    #[test]
    fn total_shares_never_exceed_capacity() {
        let kernels: Vec<KernelSpec> = (0..6).map(|_| k(0.5, 0.4)).collect();
        let a = solve(&kernels);
        let total_sm: f64 = a.iter().map(|x| x.sm_share).sum();
        let total_bw: f64 = a.iter().map(|x| x.bw_share).sum();
        assert!(total_sm <= 1.0 + 1e-9, "sm {total_sm}");
        assert!(total_bw <= 1.0 + 1e-9, "bw {total_bw}");
    }

    #[test]
    fn partition_caps_rate_for_small_partitions() {
        let solver = ContentionSolver::new(dev(), 0.0);
        let kernel = k(0.9, 0.0);
        let a = solver.solve(&[Contender {
            kernel: &kernel,
            partition: Fraction::new(0.25),
        }]);
        // Linear-scaling kernel at 25% partition: rate ≈ 0.25.
        assert!((a[0].rate - 0.25).abs() < 0.01, "rate {}", a[0].rate);
    }

    #[test]
    fn cache_sensitivity_slows_victim_under_pressure() {
        let victim = k(0.2, 0.1).with_cache_sensitivity(1.0);
        let aggressor = k(0.2, 0.5);
        let solo = solve(std::slice::from_ref(&victim));
        let shared = solve(&[victim.clone(), aggressor]);
        assert!((solo[0].rate - 1.0).abs() < 1e-9);
        // Pressure ≈ 0.5 -> slowdown ≈ 1.5.
        assert!(
            shared[0].rate < 0.72 && shared[0].rate > 0.6,
            "rate {}",
            shared[0].rate
        );
    }

    #[test]
    fn sharing_overhead_scales_with_corunner_count() {
        let solver = ContentionSolver::new(dev(), 0.01);
        let kernel = k(0.05, 0.0);
        let rate_of = |n: usize| {
            let kernels: Vec<KernelSpec> = (0..n).map(|_| kernel.clone()).collect();
            let contenders: Vec<Contender<'_>> = kernels
                .iter()
                .map(|kernel| Contender {
                    kernel,
                    partition: Fraction::ONE,
                })
                .collect();
            solver.solve(&contenders)[0].rate
        };
        let r1 = rate_of(1);
        let r4 = rate_of(4);
        let r16 = rate_of(16);
        assert!((r1 - 1.0).abs() < 1e-9);
        assert!(r4 < r1 && r16 < r4);
        assert!((r4 - 1.0 / 1.03).abs() < 1e-9);
    }

    #[test]
    fn dyn_power_reflects_shares_and_scale() {
        let kernel = k(0.5, 0.2).with_power_scale(2.0);
        let a = solve(std::slice::from_ref(&kernel));
        let d = dev();
        let expected = 2.0 * (d.power_per_sm_pct * 50.0 + d.power_per_bw_pct * 20.0);
        assert!((a[0].dyn_power_watts - expected).abs() < 1e-9);
    }

    #[test]
    fn max_min_share_under_capacity_grants_everything() {
        let g = max_min_share(&[0.2, 0.3], 1.0);
        assert_eq!(g, vec![0.2, 0.3]);
    }

    #[test]
    fn max_min_share_protects_small_demands() {
        let g = max_min_share(&[0.1, 0.9, 0.9], 1.0);
        assert!((g[0] - 0.1).abs() < 1e-12);
        assert!((g[1] - 0.45).abs() < 1e-12);
        assert!((g[2] - 0.45).abs() < 1e-12);
    }

    #[test]
    fn max_min_share_equal_demands_split_evenly() {
        let g = max_min_share(&[0.8, 0.8, 0.8, 0.8], 1.0);
        for x in g {
            assert!((x - 0.25).abs() < 1e-12);
        }
    }

    fn prepare_all(solver: &ContentionSolver, kernels: &[KernelSpec]) -> Vec<PreparedContender> {
        kernels
            .iter()
            .map(|kernel| solver.prepare(kernel, Fraction::ONE))
            .collect()
    }

    fn bits(allocs: &[Allocation]) -> Vec<[u64; 4]> {
        allocs
            .iter()
            .map(|a| {
                [
                    a.rate.to_bits(),
                    a.sm_share.to_bits(),
                    a.bw_share.to_bits(),
                    a.dyn_power_watts.to_bits(),
                ]
            })
            .collect()
    }

    /// One scratch carried through every solve path (SM-oversubscribed,
    /// bandwidth water-filled, empty, linear) must give each set exactly
    /// the answer a fresh scratch gives: leftover buffer contents from an
    /// earlier, larger or differently-shaped solve never leak into a later
    /// one.
    #[test]
    fn scratch_history_does_not_change_the_solve() {
        let solver = ContentionSolver::new(dev(), 0.01);
        let sets: Vec<Vec<KernelSpec>> = vec![
            vec![k(0.8, 0.1), k(0.7, 0.2), k(0.6, 0.05)],
            vec![k(0.2, 0.05), k(0.3, 0.9), k(0.3, 0.9)],
            vec![],
            vec![k(0.1, 0.05), k(0.2, 0.1)],
        ];
        let mut scratch = SolveScratch::default();
        let mut out = Vec::new();
        for (i, kernels) in sets.iter().enumerate() {
            let prepared = prepare_all(&solver, kernels);
            solver.solve_prepared_into(&prepared, &mut scratch, &mut out);
            let mut fresh = Vec::new();
            solver.solve_prepared_into(&prepared, &mut SolveScratch::default(), &mut fresh);
            assert_eq!(bits(&out), bits(&fresh), "set {i}");
            assert_eq!(out.len(), kernels.len(), "set {i}");
        }
    }

    #[test]
    fn max_min_share_total_equals_capacity_when_oversubscribed() {
        let g = max_min_share(&[0.5, 0.7, 0.2, 0.9], 1.0);
        let total: f64 = g.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        for (gi, wi) in g.iter().zip([0.5, 0.7, 0.2, 0.9]) {
            assert!(*gi <= wi + 1e-12);
        }
    }
}
