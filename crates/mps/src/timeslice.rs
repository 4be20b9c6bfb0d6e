//! Configuration for the default time-sliced GPU scheduler.
//!
//! When MPS is not running, processes share a GPU through the driver's
//! time-sliced scheduler: work from different processes never executes
//! concurrently; contexts are swapped in and out with a context-switch
//! overhead (paper §II-B). The quantum and switch cost here are the model's
//! two parameters.

use mpshare_gpusim::SharingMode;
use mpshare_types::{Error, Result, Seconds};
use serde::{Deserialize, Serialize};

/// Parameters of the time-sliced scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeSliceConfig {
    /// Scheduling quantum: how long one process keeps the GPU.
    pub quantum: Seconds,
    /// Context-switch cost: GPU drains and state swaps between quanta.
    pub switch_overhead: Seconds,
}

impl TimeSliceConfig {
    /// Representative driver defaults: 2 ms quantum, 100 µs switch.
    pub fn driver_default() -> Self {
        TimeSliceConfig {
            quantum: Seconds::from_millis(2.0),
            switch_overhead: Seconds::from_millis(0.1),
        }
    }

    pub fn new(quantum: Seconds, switch_overhead: Seconds) -> Result<Self> {
        if quantum.value() <= 0.0 {
            return Err(Error::InvalidConfig("quantum must be positive".into()));
        }
        if switch_overhead.value() >= quantum.value() {
            return Err(Error::InvalidConfig(
                "switch overhead must be smaller than the quantum".into(),
            ));
        }
        Ok(TimeSliceConfig {
            quantum,
            switch_overhead,
        })
    }

    /// Converts to the engine's sharing mode.
    pub fn to_sharing_mode(self) -> SharingMode {
        SharingMode::TimeSliced {
            quantum: self.quantum,
            switch_overhead: self.switch_overhead,
        }
    }
}

impl Default for TimeSliceConfig {
    fn default() -> Self {
        Self::driver_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = TimeSliceConfig::driver_default();
        assert!(c.quantum.value() > 0.0);
        assert!(c.switch_overhead < c.quantum);
        assert!(c.switch_overhead.value() < 0.1 * c.quantum.value());
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(TimeSliceConfig::new(Seconds::ZERO, Seconds::ZERO).is_err());
        assert!(
            TimeSliceConfig::new(Seconds::from_millis(1.0), Seconds::from_millis(2.0)).is_err()
        );
    }

    #[test]
    fn converts_to_engine_mode() {
        let c = TimeSliceConfig::driver_default();
        match c.to_sharing_mode() {
            SharingMode::TimeSliced {
                quantum,
                switch_overhead,
            } => {
                assert_eq!(quantum, c.quantum);
                assert_eq!(switch_overhead, c.switch_overhead);
            }
            other => panic!("wrong mode: {other:?}"),
        }
    }
}
