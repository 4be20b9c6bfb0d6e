//! Multi-Instance GPU (MIG) partitioning.
//!
//! MIG slices an A100-class GPU into up to seven instances, each with an
//! isolated path through the memory system — full compute *and* bandwidth
//! isolation, unlike MPS (paper §II-B). The price is flexibility: the
//! partition layout can only change while the GPU is idle, and the slice
//! granularity is coarse (1/7ths of the device).

use mpshare_gpusim::DeviceSpec;
use mpshare_types::{Error, Result};
use serde::{Deserialize, Serialize};

/// The number of compute slices an A100-class GPU exposes.
pub const TOTAL_SLICES: u32 = 7;

/// Standard MIG instance profiles (compute slices × memory slices is
/// simplified to compute slices here; the memory fraction tracks compute).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MigProfile {
    /// 1g — one slice.
    OneSlice,
    /// 2g — two slices.
    TwoSlice,
    /// 3g — three slices.
    ThreeSlice,
    /// 4g — four slices.
    FourSlice,
    /// 7g — the whole GPU as a single instance.
    SevenSlice,
}

impl MigProfile {
    pub fn slices(self) -> u32 {
        match self {
            MigProfile::OneSlice => 1,
            MigProfile::TwoSlice => 2,
            MigProfile::ThreeSlice => 3,
            MigProfile::FourSlice => 4,
            MigProfile::SevenSlice => 7,
        }
    }
}

/// One configured MIG instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigInstance {
    pub profile: MigProfile,
    /// The sub-device this instance exposes.
    pub device: DeviceSpec,
}

/// A full MIG layout of one GPU.
///
/// ```
/// use mpshare_gpusim::DeviceSpec;
/// use mpshare_mps::{MigLayout, MigProfile};
///
/// let device = DeviceSpec::a100x();
/// let layout = MigLayout::new(&device, &[MigProfile::FourSlice, MigProfile::ThreeSlice]).unwrap();
/// assert_eq!(layout.instances().len(), 2);
/// // Instances expose proportionally scaled sub-devices.
/// assert!(layout.instances()[0].device.num_sms > layout.instances()[1].device.num_sms);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigLayout {
    instances: Vec<MigInstance>,
}

impl MigLayout {
    /// Builds a layout from instance profiles. Fails when the profiles
    /// exceed the seven available slices or the instance-count limit.
    pub fn new(parent: &DeviceSpec, profiles: &[MigProfile]) -> Result<Self> {
        if profiles.is_empty() {
            return Err(Error::InvalidConfig("MIG layout needs ≥1 instance".into()));
        }
        if profiles.len() as u32 > parent.max_mig_instances {
            return Err(Error::InvalidConfig(format!(
                "{} instances exceed the limit of {}",
                profiles.len(),
                parent.max_mig_instances
            )));
        }
        let used: u32 = profiles.iter().map(|p| p.slices()).sum();
        if used > TOTAL_SLICES {
            return Err(Error::InvalidConfig(format!(
                "profiles use {used} slices; only {TOTAL_SLICES} exist"
            )));
        }
        let instances = profiles
            .iter()
            .map(|&profile| {
                Ok(MigInstance {
                    profile,
                    device: parent.mig_slice(profile.slices(), TOTAL_SLICES)?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(MigLayout { instances })
    }

    pub fn instances(&self) -> &[MigInstance] {
        &self.instances
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceSpec {
        DeviceSpec::a100x()
    }

    #[test]
    fn seven_single_slices_fit_exactly() {
        let l = MigLayout::new(&dev(), &[MigProfile::OneSlice; 7]).unwrap();
        assert_eq!(l.instances().len(), 7);
    }

    #[test]
    fn oversubscribed_slices_are_rejected() {
        assert!(MigLayout::new(&dev(), &[MigProfile::FourSlice, MigProfile::FourSlice]).is_err());
        assert!(MigLayout::new(&dev(), &[MigProfile::OneSlice; 8]).is_err());
        assert!(MigLayout::new(&dev(), &[]).is_err());
    }

    #[test]
    fn instances_expose_scaled_devices() {
        let l = MigLayout::new(&dev(), &[MigProfile::ThreeSlice, MigProfile::FourSlice]).unwrap();
        let d3 = &l.instances()[0].device;
        let d4 = &l.instances()[1].device;
        assert!(d3.num_sms < d4.num_sms);
        assert!(d3.num_sms >= 108 * 3 / 7 - 1);
        assert!(d3.memory_bandwidth_bytes_per_sec < d4.memory_bandwidth_bytes_per_sec);
    }

    #[test]
    fn seven_slice_profile_spans_the_gpu() {
        assert_eq!(MigProfile::SevenSlice.slices(), 7);
    }
}
