//! Indexed monotone event queue for statically-known event times.
//!
//! The engine's `advance` used to rescan every client on every event to find
//! the next pending arrival. Arrival times are known up front and simulated
//! time only moves forward, so the scan can be replaced by a sorted queue —
//! conceptually a binary min-heap keyed by `(time, client)`, flattened to a
//! sorted array at construction since no entries are ever pushed later — with
//! two monotone cursors:
//!
//! * the **armed** cursor pops each entry exactly once, as soon as its time
//!   falls within the engine's epsilon window of `now`, to re-arm transition
//!   processing for that client;
//! * the **horizon** cursor skips entries that can no longer bound the next
//!   event (their time has passed, or the caller reports the client expired)
//!   and yields the earliest surviving time.
//!
//! Both cursors only advance (times are popped in the exact order the old
//! linear scan would have selected them), so the whole run costs O(n log n)
//! for the initial sort plus O(1) amortized per event, instead of O(n) per
//! event.
//!
//! Entries with non-finite times are rejected at construction; the engine
//! validates arrival times before reaching this point.

/// Sorted once at construction; `armed`/`horizon` are monotone cursors.
#[derive(Debug, Clone)]
pub(crate) struct MonotoneEventQueue {
    /// `(time, client)` pairs in ascending `(time, client)` order — the pop
    /// order of a binary min-heap with the client index as tie-break seq.
    entries: Vec<(f64, usize)>,
    armed: usize,
    horizon: usize,
    /// Last deadline passed to [`MonotoneEventQueue::pop_armed`], for the
    /// monotonicity check: a decreasing deadline would silently skip
    /// events (the armed cursor never rewinds), so it is asserted rather
    /// than just documented.
    last_deadline: f64,
}

impl MonotoneEventQueue {
    /// Builds the queue from `(time, client)` pairs. Panics on non-finite
    /// times: they cannot be ordered and the engine never produces them.
    pub(crate) fn new(times: impl IntoIterator<Item = (f64, usize)>) -> Self {
        let mut entries: Vec<(f64, usize)> = times.into_iter().collect();
        assert!(
            entries.iter().all(|(t, _)| t.is_finite()),
            "event queue times must be finite"
        );
        entries.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite times are totally ordered")
                .then(a.1.cmp(&b.1))
        });
        Self {
            entries,
            armed: 0,
            horizon: 0,
            last_deadline: f64::NEG_INFINITY,
        }
    }

    /// Pops the next entry whose time is `<= deadline`, if any. Each entry is
    /// delivered exactly once; `deadline` must be non-decreasing across calls
    /// (simulated now + epsilon), which keeps the cursor monotone. The
    /// requirement is checked, not just documented: a violation would
    /// silently skip events whose time fell between the two deadlines.
    pub(crate) fn pop_armed(&mut self, deadline: f64) -> Option<usize> {
        debug_assert!(
            deadline >= self.last_deadline,
            "pop_armed deadline went backwards: {deadline} after {}",
            self.last_deadline
        );
        self.last_deadline = deadline;
        let &(t, client) = self.entries.get(self.armed)?;
        if t <= deadline {
            self.armed += 1;
            Some(client)
        } else {
            None
        }
    }

    /// Earliest entry time strictly after `now` whose client is not expired.
    /// `expired` must be permanent (once true for a client, true forever) —
    /// skipped entries are never revisited.
    pub(crate) fn next_horizon(
        &mut self,
        now: f64,
        mut expired: impl FnMut(usize) -> bool,
    ) -> Option<f64> {
        while let Some(&(t, client)) = self.entries.get(self.horizon) {
            if t <= now || expired(client) {
                self.horizon += 1;
                continue;
            }
            return Some(t);
        }
        None
    }

    /// Entries the horizon cursor has not yet consumed (pending future
    /// events) — used for queue-depth accounting.
    pub(crate) fn pending(&self) -> usize {
        self.entries.len() - self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_index_order() {
        let mut q = MonotoneEventQueue::new(vec![(2.0, 1), (1.0, 5), (2.0, 0), (0.5, 3)]);
        assert_eq!(q.pop_armed(2.5), Some(3));
        assert_eq!(q.pop_armed(2.5), Some(5));
        assert_eq!(q.pop_armed(2.5), Some(0));
        assert_eq!(q.pop_armed(2.5), Some(1));
        assert_eq!(q.pop_armed(100.0), None);
    }

    #[test]
    fn pop_respects_deadline() {
        let mut q = MonotoneEventQueue::new(vec![(1.0, 0), (2.0, 1)]);
        assert_eq!(q.pop_armed(0.5), None);
        assert_eq!(q.pop_armed(1.0), Some(0));
        assert_eq!(q.pop_armed(1.5), None);
        assert_eq!(q.pop_armed(2.0), Some(1));
    }

    #[test]
    fn horizon_skips_expired_and_past() {
        let mut q = MonotoneEventQueue::new(vec![(1.0, 0), (2.0, 1), (3.0, 2)]);
        assert_eq!(q.pending(), 3);
        // Client 1 expired: skipped permanently even though its time is future.
        assert_eq!(q.next_horizon(1.0, |c| c == 1), Some(3.0));
        assert_eq!(q.pending(), 1);
        // Skips are permanent: client 1 never reappears.
        assert_eq!(q.next_horizon(1.0, |_| false), Some(3.0));
        assert_eq!(q.next_horizon(3.0, |_| false), None);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn empty_queue() {
        let mut q = MonotoneEventQueue::new(vec![]);
        assert_eq!(q.pop_armed(f64::MAX), None);
        assert_eq!(q.next_horizon(0.0, |_| false), None);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_non_finite_times() {
        MonotoneEventQueue::new(vec![(f64::NAN, 0)]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "deadline went backwards")]
    fn decreasing_deadline_is_asserted() {
        let mut q = MonotoneEventQueue::new(vec![(1.0, 0), (2.0, 1)]);
        assert_eq!(q.pop_armed(1.5), Some(0));
        // A rewound deadline would silently skip any entry between the two
        // deadlines; the monotonicity debug_assert must catch it.
        q.pop_armed(0.5);
    }

    #[test]
    fn repeated_equal_deadlines_are_monotone() {
        // The engine calls pop_armed with `now + EPS` in a drain loop, so
        // the same deadline repeats; equal deadlines must satisfy the
        // monotonicity check and drain every due entry.
        let mut q = MonotoneEventQueue::new(vec![(1.0, 0), (1.0, 1), (1.0, 2)]);
        assert_eq!(q.pop_armed(1.0), Some(0));
        assert_eq!(q.pop_armed(1.0), Some(1));
        assert_eq!(q.pop_armed(1.0), Some(2));
        assert_eq!(q.pop_armed(1.0), None);
    }

    /// Drains a queue through an interleaved pop/horizon schedule derived
    /// from the entry times themselves, recording every observable output.
    /// Clients `>= expire_above` are reported expired to the horizon
    /// cursor, exercising the skip path.
    fn observable_drain(
        entries: &[(f64, usize)],
        expire_above: usize,
    ) -> Vec<(Option<usize>, Option<f64>, usize)> {
        let mut q = MonotoneEventQueue::new(entries.iter().copied());
        // Ascending (with duplicates) — every drain schedule below runs
        // under the pop_armed monotonicity assertion, so the property test
        // also proves the engine-shaped deadline stream satisfies it.
        let mut deadlines: Vec<f64> = entries.iter().map(|&(t, _)| t).collect();
        deadlines.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut out = Vec::new();
        for &d in &deadlines {
            loop {
                let popped = q.pop_armed(d);
                let horizon = q.next_horizon(d, |c| c >= expire_above);
                out.push((popped, horizon, q.pending()));
                if popped.is_none() {
                    break;
                }
            }
        }
        // Final drain at the max deadline: everything left must pop, in
        // (time, client) order, regardless of the insertion permutation.
        while let Some(c) = q.pop_armed(f64::MAX) {
            out.push((Some(c), None, q.pending()));
        }
        out
    }

    /// Permuting the insertion order of entries — including exact
    /// duplicates of the same `(time, client)` pair and distinct clients
    /// tied at the same time — must not change any observable output:
    /// pop order, horizons, or pending counts. The engine feeds arrivals
    /// in client-iteration order, so this is the property that keeps a
    /// `RunResult` independent of how the arrival list was assembled.
    #[test]
    fn insertion_order_of_tied_entries_is_irrelevant() {
        // Multiset with duplicated pairs and cross-client time ties.
        let base = vec![
            (1.0, 2),
            (1.0, 2), // exact duplicate
            (1.0, 0),
            (1.0, 7), // tied time, distinct clients
            (0.5, 3),
            (0.5, 3), // duplicate again
            (2.0, 1),
            (2.0, 1),
            (2.0, 4),
            (0.0, 5),
        ];
        for expire_above in [usize::MAX, 4] {
            let reference = observable_drain(&base, expire_above);
            // Seeded Fisher-Yates shuffles via the same splitmix64 stream
            // the fault plans use: reproducible, no external RNG.
            for seed in 0..64u64 {
                let mut permuted = base.clone();
                for i in (1..permuted.len()).rev() {
                    let draw = crate::fault::unit_hash(seed, &[i as u64]);
                    let j = (draw * (i + 1) as f64) as usize;
                    permuted.swap(i, j.min(i));
                }
                assert_eq!(
                    observable_drain(&permuted, expire_above),
                    reference,
                    "drain diverged for seed {seed}, expire_above {expire_above}"
                );
            }
            // Reversal and rotation, for non-random adversarial orders.
            let mut reversed = base.clone();
            reversed.reverse();
            assert_eq!(observable_drain(&reversed, expire_above), reference);
            let mut rotated = base.clone();
            rotated.rotate_left(3);
            assert_eq!(observable_drain(&rotated, expire_above), reference);
        }
    }
}
