//! Subset-keyed memo for [`GroupEstimate`]s.
//!
//! Every planner strategy bottoms out in
//! [`crate::estimate::estimate_group`] over a member list, and the same
//! lists recur exponentially often: the exhaustive search re-visits each
//! subset once per partition containing it, and the best-fit cap sweep
//! re-tries the same trial groups for every cap. [`EstimateMemo`] caches
//! one estimate per *ordered* member list so each is computed exactly once
//! per planning call.
//!
//! # Key scheme and bit-identity
//!
//! `estimate_group` sums floats in member order, so two orderings of the
//! same set are *not* interchangeable bit for bit. Keys therefore encode
//! the exact ordered list ([`GroupKey::Members`]) — except for strictly
//! ascending lists over indices < 64, which are canonical (only one
//! ascending order exists per set) and compress to a bitmask
//! ([`GroupKey::Mask`]). The exhaustive planner's restricted-growth-string
//! enumeration emits exactly such ascending lists, giving it the cheap
//! `u64` key of the classic subset-DP formulation; greedy/best-fit
//! lists in arbitrary order fall back to the hashed exact key. Either way
//! a hit returns the value computed for the identical member order, so
//! memoized scoring is bit-identical to scoring from scratch.
//!
//! Sharding mirrors `mpshare_profiler::ProfileCache`: 16 `RwLock`ed hash
//! maps selected by key hash, reads lock-free of writers, the losing racer
//! of a concurrent miss discards its duplicate (deterministic value, so
//! either copy is the same).

use crate::estimate::GroupEstimate;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

const SHARD_COUNT: usize = 16;

/// Cache key: the exact ordered member list of a group (see module docs
/// for when the bitmask form applies).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GroupKey {
    /// Strictly ascending member list over indices < 64, as a bitmask.
    Mask(u64),
    /// Any other ordered member list, verbatim.
    Members(Box<[u32]>),
}

impl GroupKey {
    /// Builds the key for an ordered member list.
    pub fn new(members: &[usize]) -> GroupKey {
        let ascending_small = members.last().is_some_and(|&last| last < 64)
            && members.windows(2).all(|w| w[0] < w[1]);
        if members.is_empty() || ascending_small {
            let mut mask = 0u64;
            for &m in members {
                mask |= 1u64 << m;
            }
            GroupKey::Mask(mask)
        } else {
            GroupKey::Members(members.iter().map(|&m| m as u32).collect())
        }
    }
}

/// Hit/miss counters of a memo (observability; see
/// [`EstimateMemo::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    pub hits: u64,
    pub misses: u64,
}

/// Sharded concurrent memo from [`GroupKey`] to [`GroupEstimate`].
///
/// One memo is scoped to one planning call (profiles are positional, so
/// keys are only meaningful against a fixed queue); it is shared across
/// that call's `mpshare-par` worker threads.
#[derive(Debug)]
pub struct EstimateMemo {
    shards: [RwLock<HashMap<GroupKey, GroupEstimate>>; SHARD_COUNT],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for EstimateMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl EstimateMemo {
    pub fn new() -> Self {
        EstimateMemo {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard_index(key: &GroupKey) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % SHARD_COUNT
    }

    /// Returns the cached estimate for `key`, computing and inserting it
    /// on a miss. `compute` must be the deterministic estimate of the
    /// member list the key encodes.
    pub fn get_or_compute(
        &self,
        key: GroupKey,
        compute: impl FnOnce() -> GroupEstimate,
    ) -> GroupEstimate {
        let shard = &self.shards[Self::shard_index(&key)];
        if let Some(hit) = shard.read().expect("memo shard poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            mpshare_obs::counter_add(mpshare_obs::names::ESTIMATE_MEMO_HITS, 1);
            return *hit;
        }
        let mut map = shard.write().expect("memo shard poisoned");
        match map.entry(key) {
            Entry::Occupied(entry) => {
                // Lost a race: another worker computed it first.
                self.hits.fetch_add(1, Ordering::Relaxed);
                mpshare_obs::counter_add(mpshare_obs::names::ESTIMATE_MEMO_HITS, 1);
                *entry.get()
            }
            Entry::Vacant(slot) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                mpshare_obs::counter_add(mpshare_obs::names::ESTIMATE_MEMO_MISSES, 1);
                *slot.insert(compute())
            }
        }
    }

    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Distinct member lists cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("memo shard poisoned").len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpshare_types::{Energy, Seconds};

    fn est(makespan: f64) -> GroupEstimate {
        GroupEstimate {
            makespan: Seconds::new(makespan),
            energy: Energy::from_joules(makespan * 100.0),
            tasks: 1,
        }
    }

    #[test]
    fn ascending_small_lists_use_masks() {
        assert_eq!(GroupKey::new(&[0, 3, 5]), GroupKey::Mask(0b101001));
        assert_eq!(GroupKey::new(&[]), GroupKey::Mask(0));
        assert_eq!(GroupKey::new(&[63]), GroupKey::Mask(1 << 63));
    }

    #[test]
    fn orderings_get_distinct_keys() {
        // Float sums are order-dependent, so [3, 1] must not alias [1, 3].
        let asc = GroupKey::new(&[1, 3]);
        let desc = GroupKey::new(&[3, 1]);
        assert_ne!(asc, desc);
        assert!(matches!(asc, GroupKey::Mask(_)));
        assert!(matches!(desc, GroupKey::Members(_)));
    }

    #[test]
    fn large_indices_fall_back_to_members() {
        assert!(matches!(GroupKey::new(&[2, 64]), GroupKey::Members(_)));
    }

    #[test]
    fn memo_computes_once_per_key() {
        let memo = EstimateMemo::new();
        let mut calls = 0;
        let a = memo.get_or_compute(GroupKey::new(&[1, 2]), || {
            calls += 1;
            est(5.0)
        });
        let b = memo.get_or_compute(GroupKey::new(&[1, 2]), || {
            calls += 1;
            est(7.0)
        });
        assert_eq!(calls, 1);
        assert_eq!(a, b);
        assert_eq!(memo.stats(), MemoStats { hits: 1, misses: 1 });
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn memo_is_shareable_across_threads() {
        let memo = EstimateMemo::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..32usize {
                        let members = [i % 8, 8 + i % 8];
                        memo.get_or_compute(GroupKey::new(&members), || est(i as f64));
                    }
                });
            }
        });
        assert_eq!(memo.len(), 8);
        let stats = memo.stats();
        assert_eq!(stats.hits + stats.misses, 4 * 32);
    }
}
