//! The profile store: the scheduler's database of offline profiles.
//!
//! Keyed by benchmark kind and problem size (quantized to hundredths so the
//! float factor is hashable), or by a custom workload's name and spec. The
//! store is populated by running the collector once per distinct key — the
//! paper's offline profiling pass.

use crate::collector::profile_task;
use crate::profile::TaskProfile;
use mpshare_gpusim::DeviceSpec;
use mpshare_types::{Error, Result, TaskId};
use mpshare_workloads::{BenchmarkKind, ProblemSize, SyntheticSpec, TaskSource, WorkflowSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Hashable profile key: a calibrated benchmark at a size (quantized to
/// 1/100ths) or a named custom workload.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ProfileKey {
    Benchmark {
        kind: BenchmarkKind,
        size_centis: u32,
    },
    /// A custom workload, keyed by its name *and* its spec's canonical
    /// JSON: two different specs under one name are different workloads
    /// and must not share a profile.
    Custom { name: String, spec: String },
}

impl ProfileKey {
    pub fn new(kind: BenchmarkKind, size: ProblemSize) -> Self {
        ProfileKey::Benchmark {
            kind,
            size_centis: size.centis(),
        }
    }

    /// Key for a named custom workload with the given spec.
    pub fn custom(name: impl Into<String>, spec: &SyntheticSpec) -> Self {
        ProfileKey::Custom {
            name: name.into(),
            spec: serde_json::to_string(spec).expect("synthetic specs serialize"),
        }
    }

    /// Key for a task source.
    pub fn for_source(source: &TaskSource) -> Self {
        match source {
            TaskSource::Benchmark { kind, size } => ProfileKey::new(*kind, *size),
            TaskSource::Custom { name, spec } => ProfileKey::custom(name.clone(), spec),
        }
    }
}

/// Offline profile database.
///
/// Serializes as a list of `(key, profile)` entries (JSON object keys must
/// be strings, and the key is a struct). Loading drops entries whose key
/// is not a [`ProfileKey`] — such as a custom workload keyed by its name
/// alone, which older stores wrote — so they are profiled afresh instead
/// of matched against a spec they may not describe.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(into = "StoreOnDisk", from = "StoreOnDisk")]
pub struct ProfileStore {
    profiles: BTreeMap<ProfileKey, TaskProfile>,
}

/// Serialization surrogate for [`ProfileStore`].
#[derive(Serialize, Deserialize)]
struct StoreOnDisk {
    profiles: Vec<(serde_json::Value, TaskProfile)>,
}

impl From<ProfileStore> for StoreOnDisk {
    fn from(store: ProfileStore) -> Self {
        StoreOnDisk {
            profiles: store
                .profiles
                .into_iter()
                .map(|(key, profile)| (serde_json::to_value(&key), profile))
                .collect(),
        }
    }
}

impl From<StoreOnDisk> for ProfileStore {
    fn from(disk: StoreOnDisk) -> Self {
        ProfileStore {
            profiles: disk
                .profiles
                .into_iter()
                .filter_map(|(key, profile)| Some((serde_json::from_value(&key).ok()?, profile)))
                .collect(),
        }
    }
}

impl ProfileStore {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Looks up the profile of any task source (benchmark or custom).
    pub fn get_source(&self, source: &TaskSource) -> Result<&TaskProfile> {
        self.profiles
            .get(&ProfileKey::for_source(source))
            .ok_or_else(|| Error::MissingProfile(source.label()))
    }

    /// Profiles any task source (benchmark or custom) once per store;
    /// the underlying simulation is memoized process-wide.
    pub fn profile_source(&mut self, device: &DeviceSpec, source: &TaskSource) -> Result<bool> {
        let key = ProfileKey::for_source(source);
        if self.profiles.contains_key(&key) {
            return Ok(false);
        }
        let profile = crate::cache::global().get_or_compute(device, &key, || {
            let task = source.build(device, TaskId::new(0))?;
            profile_task(device, &task)
        })?;
        self.profiles.insert(key, profile);
        Ok(true)
    }

    /// Ensures profiles exist for every task of every given workflow —
    /// the offline pass the scheduler requires before planning.
    pub fn profile_workflows(
        &mut self,
        device: &DeviceSpec,
        workflows: &[WorkflowSpec],
    ) -> Result<usize> {
        let mut runs = 0;
        for w in workflows {
            for entry in &w.entries {
                if self.profile_source(device, &entry.source)? {
                    runs += 1;
                }
            }
        }
        Ok(runs)
    }

    /// Persists the store as pretty JSON — the offline profiling pass runs
    /// once per cluster and its results are reused across scheduling
    /// sessions, exactly like the paper's workflow.
    pub fn save(&self, path: &std::path::Path) -> Result<()> {
        let body = serde_json::to_string_pretty(self)
            .map_err(|e| Error::InvalidState(format!("serializing profile store: {e}")))?;
        std::fs::write(path, body)
            .map_err(|e| Error::InvalidState(format!("writing {}: {e}", path.display())))
    }

    /// Loads a store persisted with [`ProfileStore::save`].
    pub fn load(path: &std::path::Path) -> Result<Self> {
        let body = std::fs::read_to_string(path)
            .map_err(|e| Error::InvalidState(format!("reading {}: {e}", path.display())))?;
        serde_json::from_str(&body)
            .map_err(|e| Error::InvalidState(format!("parsing {}: {e}", path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceSpec {
        DeviceSpec::a100x()
    }

    fn bench(kind: BenchmarkKind, size: ProblemSize) -> TaskSource {
        TaskSource::Benchmark { kind, size }
    }

    #[test]
    fn key_quantizes_sizes() {
        let a = ProfileKey::new(BenchmarkKind::Kripke, ProblemSize::new(2.0));
        let b = ProfileKey::new(BenchmarkKind::Kripke, ProblemSize::new(2.001));
        assert_eq!(a, b);
        let c = ProfileKey::new(BenchmarkKind::Kripke, ProblemSize::new(2.5));
        assert_ne!(a, c);
    }

    #[test]
    fn missing_profile_is_an_error() {
        let store = ProfileStore::new();
        let err = store
            .get_source(&bench(BenchmarkKind::Lammps, ProblemSize::X1))
            .unwrap_err();
        assert!(matches!(err, Error::MissingProfile(_)));
    }

    #[test]
    fn profile_source_is_idempotent() {
        let d = dev();
        let athena = bench(BenchmarkKind::AthenaPk, ProblemSize::X1);
        let mut store = ProfileStore::new();
        assert!(store.profile_source(&d, &athena).unwrap());
        assert!(!store.profile_source(&d, &athena).unwrap());
        assert_eq!(store.len(), 1);
        let p = store.get_source(&athena).unwrap();
        assert!(p.avg_sm_util.value() < 10.0); // AthenaPK 1x: 7.54 %
    }

    #[test]
    fn save_and_load_round_trip() {
        let d = dev();
        let kripke = bench(BenchmarkKind::Kripke, ProblemSize::X1);
        let mut store = ProfileStore::new();
        store.profile_source(&d, &kripke).unwrap();
        let path = std::env::temp_dir().join(format!("mpshare-store-{}.json", std::process::id()));
        store.save(&path).unwrap();
        let loaded = ProfileStore::load(&path).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(
            loaded.get_source(&kripke).unwrap(),
            store.get_source(&kripke).unwrap()
        );
        std::fs::remove_file(&path).unwrap();
        assert!(ProfileStore::load(&path).is_err());
    }

    #[test]
    fn profile_workflows_covers_distinct_pairs() {
        let d = dev();
        let mut store = ProfileStore::new();
        let wfs = vec![
            WorkflowSpec::uniform(BenchmarkKind::AthenaPk, ProblemSize::X1, 5),
            WorkflowSpec::uniform(BenchmarkKind::AthenaPk, ProblemSize::X1, 3),
            WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 2),
        ];
        let runs = store.profile_workflows(&d, &wfs).unwrap();
        assert_eq!(runs, 2); // AthenaPK 1x deduplicated
        assert!(store
            .get_source(&bench(BenchmarkKind::Kripke, ProblemSize::X1))
            .is_ok());
    }
}
