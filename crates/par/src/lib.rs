//! Dependency-free parallel fan-out for deterministic simulation sweeps.
//!
//! The engine (`mpshare-gpusim`) is deterministic, so parallelism lives only
//! at the fan-out level: independent simulations (planner candidates,
//! experiment sweep points, sequential/shared executor legs) run on worker
//! threads via [`std::thread::scope`], and results are written back by index.
//! Output is therefore **bit-identical** to the serial path regardless of
//! worker count or scheduling order.
//!
//! The build environment is offline, so this crate intentionally replaces
//! `rayon` with `std`-only primitives. Keep it free of external dependencies.
//!
//! # Serial escape hatch
//!
//! Set the env var `MPSHARE_SERIAL=1`, pass `--serial` to the harness
//! binaries (they call [`set_serial`]), or call [`set_serial(true)`](set_serial) in tests
//! to force every `par_*` helper onto the calling thread. [`is_serial`]
//! reports the effective mode.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

static FORCE_SERIAL: AtomicBool = AtomicBool::new(false);
static ENV_SERIAL: OnceLock<bool> = OnceLock::new();

/// Force (or undo forcing) serial execution process-wide.
pub fn set_serial(serial: bool) {
    FORCE_SERIAL.store(serial, Ordering::SeqCst);
}

/// True when fan-out is disabled — either programmatically ([`set_serial`],
/// the harness `--serial` flag) or via the `MPSHARE_SERIAL` env var.
pub fn is_serial() -> bool {
    FORCE_SERIAL.load(Ordering::SeqCst)
        || *ENV_SERIAL.get_or_init(|| {
            std::env::var("MPSHARE_SERIAL")
                .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
                .unwrap_or(false)
        })
}

/// Number of worker threads a fan-out uses: the machine's available
/// parallelism, capped by the job count.
pub fn worker_count(jobs: usize) -> usize {
    if is_serial() || jobs <= 1 {
        return 1;
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(jobs)
}

/// Map `f` over `items` in parallel, preserving input order in the output.
///
/// Results are written back by index, so the output is identical to
/// `items.iter().map(f).collect()` for any worker count. A panic in `f` is
/// re-raised on the calling thread after all workers stop.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items, |_, item| f(item))
}

/// Like [`par_map`], but `f` also receives the item's index.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = worker_count(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let cursor = AtomicUsize::new(0);
    let slots_ptr = SlotWriter::new(&mut slots);

    let panic_payload = thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let cursor = &cursor;
            let f = &f;
            let slots_ptr = &slots_ptr;
            handles.push(scope.spawn(move || {
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        return Ok(());
                    }
                    match catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))) {
                        Ok(value) => {
                            // SAFETY: each index is claimed exactly once via
                            // the atomic cursor, so no two threads write the
                            // same slot.
                            unsafe { slots_ptr.write(i, value) };
                        }
                        Err(payload) => return Err(payload),
                    }
                }
            }));
        }
        let mut first_panic = None;
        for handle in handles {
            if let Err(payload) = handle.join().expect("mpshare-par worker thread died") {
                first_panic.get_or_insert(payload);
            }
        }
        first_panic
    });

    if let Some(payload) = panic_payload {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("mpshare-par: missing result slot"))
        .collect()
}

/// Fallible parallel map preserving input order; the error from the
/// lowest-indexed failing item is returned, matching the serial
/// `iter().map(f).collect::<Result<_, _>>()` short-circuit semantics except
/// that later items may still have been evaluated.
pub fn try_par_map<T, R, E, F>(items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    let results = par_map(items, f);
    let mut out = Vec::with_capacity(results.len());
    for result in results {
        out.push(result?);
    }
    Ok(out)
}

/// Run two independent closures, potentially in parallel, returning both
/// results. Used for e.g. an executor's sequential and shared legs. Runs
/// inline when serial mode is forced or the machine has a single core
/// (spawning would only add overhead).
pub fn join<RA, RB, FA, FB>(a: FA, b: FB) -> (RA, RB)
where
    RA: Send,
    RB: Send,
    FA: FnOnce() -> RA + Send,
    FB: FnOnce() -> RB + Send,
{
    if worker_count(2) <= 1 {
        return (a(), b());
    }
    thread::scope(|scope| {
        let handle = scope.spawn(b);
        let ra = a();
        let rb = handle
            .join()
            .unwrap_or_else(|payload| resume_unwind(payload));
        (ra, rb)
    })
}

/// Covariant-free cell letting scoped worker threads write disjoint slots of
/// a result vector without locking.
struct SlotWriter<R> {
    ptr: *mut Option<R>,
}

impl<R> SlotWriter<R> {
    fn new(slots: &mut [Option<R>]) -> Self {
        SlotWriter {
            ptr: slots.as_mut_ptr(),
        }
    }

    /// SAFETY: callers must ensure `i` is in bounds and written at most once
    /// while no other reference to slot `i` exists.
    unsafe fn write(&self, i: usize, value: R) {
        unsafe { self.ptr.add(i).write(Some(value)) };
    }
}

// SAFETY: SlotWriter is only shared between scoped threads that write
// disjoint indices; R: Send is required to move results across threads.
unsafe impl<R: Send> Sync for SlotWriter<R> {}
unsafe impl<R: Send> Send for SlotWriter<R> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled = par_map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_matches_serial_exactly() {
        let items: Vec<f64> = (0..257).map(|i| i as f64 * 0.37).collect();
        let f = |&x: &f64| (x.sin() * 1e9).to_bits();
        let parallel = par_map(&items, f);
        set_serial(true);
        let serial = par_map(&items, f);
        set_serial(false);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn try_par_map_reports_lowest_index_error() {
        let items: Vec<u32> = (0..64).collect();
        let result: Result<Vec<u32>, u32> =
            try_par_map(&items, |&x| if x % 10 == 7 { Err(x) } else { Ok(x) });
        assert_eq!(result.unwrap_err(), 7);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "two");
        assert_eq!((a, b), (2, "two"));
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u8> = vec![];
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[42u8], |&x| x + 1), vec![43]);
    }
}
