//! Process-wide memoization of simulated task profiles.
//!
//! Profiling is a pure function of `(device, task source)`: the simulator
//! is deterministic and a profile run takes no inputs besides the device
//! spec and the workload model. Planner, recommender, and every harness
//! experiment construct their own [`crate::ProfileStore`]s, which used to
//! mean the same `(benchmark, size, device)` tuple was re-simulated dozens
//! of times per process. This module puts one sharded cache behind all of
//! them so each distinct tuple is simulated exactly once per process.
//!
//! Sharding bounds contention: the key hash picks one of `SHARD_COUNT`
//! `RwLock`-protected maps, and a miss computes the profile while holding
//! only that shard's write lock (guaranteeing exactly-once without
//! serializing unrelated keys). Worker threads from `mpshare-par` fan-outs
//! therefore share profiles safely.

use crate::profile::TaskProfile;
use crate::store::ProfileKey;
use mpshare_gpusim::DeviceSpec;
use mpshare_types::Result;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

const SHARD_COUNT: usize = 16;

/// Cache key: a device fingerprint plus the profile's store key. The
/// fingerprint is the device's canonical JSON — every field of
/// [`DeviceSpec`] affects simulation, so all of them must key the cache.
type CacheKey = (String, ProfileKey);

/// A sharded, thread-shareable memo table of task profiles.
#[derive(Debug)]
pub struct ProfileCache {
    shards: [RwLock<HashMap<CacheKey, TaskProfile>>; SHARD_COUNT],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for ProfileCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ProfileCache {
    pub fn new() -> Self {
        ProfileCache {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached profile for `(device, key)`, computing and
    /// memoizing it via `compute` on first use. The computation runs under
    /// the owning shard's write lock, so it executes exactly once per
    /// process for each distinct key, even under concurrent callers.
    /// Errors are not cached: a failed computation reruns on retry.
    pub fn get_or_compute(
        &self,
        device: &DeviceSpec,
        key: &ProfileKey,
        compute: impl FnOnce() -> Result<TaskProfile>,
    ) -> Result<TaskProfile> {
        let cache_key = (fingerprint(device), key.clone());
        let shard = &self.shards[shard_index(&cache_key)];
        if let Some(profile) = shard
            .read()
            .expect("profile cache poisoned")
            .get(&cache_key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            mpshare_obs::counter_add(mpshare_obs::names::PROFILE_CACHE_HITS, 1);
            return Ok(profile.clone());
        }
        let mut map = shard.write().expect("profile cache poisoned");
        match map.entry(cache_key) {
            Entry::Occupied(e) => {
                // Lost the read→write race to another thread that computed it.
                self.hits.fetch_add(1, Ordering::Relaxed);
                mpshare_obs::counter_add(mpshare_obs::names::PROFILE_CACHE_HITS, 1);
                Ok(e.get().clone())
            }
            Entry::Vacant(e) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                mpshare_obs::counter_add(mpshare_obs::names::PROFILE_CACHE_MISSES, 1);
                let profile = compute()?;
                Ok(e.insert(profile).clone())
            }
        }
    }

    /// `(hits, misses)` so far. A miss is a profile actually simulated.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Total distinct profiles memoized.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("profile cache poisoned").len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn shard_index(key: &CacheKey) -> usize {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() as usize) % SHARD_COUNT
}

fn fingerprint(device: &DeviceSpec) -> String {
    serde_json::to_string(device).expect("device specs serialize")
}

/// The process-wide cache every [`crate::ProfileStore`] consults.
pub fn global() -> &'static ProfileCache {
    static CACHE: OnceLock<ProfileCache> = OnceLock::new();
    CACHE.get_or_init(ProfileCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpshare_types::{Energy, Fraction, MemBytes, Percent, Power, Seconds};
    use mpshare_workloads::SyntheticSpec;

    fn dev() -> DeviceSpec {
        DeviceSpec::a100x()
    }

    fn dummy_profile(label: &str) -> TaskProfile {
        TaskProfile {
            label: label.into(),
            max_memory: MemBytes::from_gib(1),
            avg_bw_util: Percent::new(1.0),
            avg_sm_util: Percent::new(10.0),
            avg_power: Power::from_watts(100.0),
            energy: Energy::from_joules(1000.0),
            duration: Seconds::new(10.0),
            busy_fraction: 0.8,
            occupancy: crate::OccupancyProfile {
                achieved: Percent::new(40.0),
                theoretical: Percent::new(50.0),
            },
            saturation_partition: Fraction::new(0.5),
        }
    }

    #[test]
    fn computes_each_key_exactly_once() {
        let cache = ProfileCache::new();
        let key = ProfileKey::custom("memo-test", &SyntheticSpec::light());
        let mut calls = 0;
        for _ in 0..3 {
            let p = cache
                .get_or_compute(&dev(), &key, || {
                    calls += 1;
                    Ok(dummy_profile("memo-test"))
                })
                .unwrap();
            assert_eq!(p.label, "memo-test");
        }
        assert_eq!(calls, 1);
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (2, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_devices_do_not_share_entries() {
        let cache = ProfileCache::new();
        let key = ProfileKey::custom("device-split", &SyntheticSpec::light());
        let mut other = dev();
        other.num_sms /= 2;
        cache
            .get_or_compute(&dev(), &key, || Ok(dummy_profile("a")))
            .unwrap();
        let p = cache
            .get_or_compute(&other, &key, || Ok(dummy_profile("b")))
            .unwrap();
        assert_eq!(p.label, "b");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = ProfileCache::new();
        let key = ProfileKey::custom("transient-error", &SyntheticSpec::light());
        let err: Result<TaskProfile> = cache.get_or_compute(&dev(), &key, || {
            Err(mpshare_types::Error::InvalidState("boom".into()))
        });
        assert!(err.is_err());
        let ok = cache.get_or_compute(&dev(), &key, || Ok(dummy_profile("recovered")));
        assert_eq!(ok.unwrap().label, "recovered");
    }

    #[test]
    fn concurrent_callers_share_one_computation() {
        let cache = ProfileCache::new();
        let key = ProfileKey::custom("concurrent", &SyntheticSpec::light());
        let computations = AtomicU64::new(0);
        let lanes: Vec<u32> = (0..16).collect();
        let profiles = mpshare_par::par_map(&lanes, |_| {
            cache
                .get_or_compute(&dev(), &key, || {
                    computations.fetch_add(1, Ordering::Relaxed);
                    Ok(dummy_profile("concurrent"))
                })
                .unwrap()
        });
        assert_eq!(computations.load(Ordering::Relaxed), 1);
        assert!(profiles.iter().all(|p| p == &profiles[0]));
    }
}
