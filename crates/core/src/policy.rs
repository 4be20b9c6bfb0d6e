//! Metric priority and the cardinality rule (paper §IV-B criterion 4).
//!
//! "If energy efficiency is prioritized, the maximum number of MPS clients
//! available are used. Otherwise, if throughput is prioritized, the number
//! of clients is limited to 2."

use mpshare_gpusim::DeviceSpec;
use serde::{Deserialize, Serialize};

/// Which system metric the scheduler optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MetricPriority {
    /// Maximize task throughput: small groups (≤ 2 clients).
    Throughput,
    /// Maximize energy efficiency: pack up to the MPS client limit.
    Energy,
    /// Optimize a `throughputᵃ × efficiencyᵇ` product (§IV-C): the planner
    /// sweeps cardinality and keeps the best estimated product.
    Product {
        throughput_weight: u32,
        energy_weight: u32,
    },
}

impl MetricPriority {
    /// The balanced product metric (a = b = 1).
    pub fn balanced_product() -> Self {
        MetricPriority::Product {
            throughput_weight: 1,
            energy_weight: 1,
        }
    }

    /// The throughput-leaning product the paper gives as an example
    /// (`throughput × throughput × efficiency`).
    pub fn throughput_leaning_product() -> Self {
        MetricPriority::Product {
            throughput_weight: 2,
            energy_weight: 1,
        }
    }

    /// Candidate caps the product planner sweeps.
    pub fn candidate_caps(&self, device: &DeviceSpec) -> Vec<usize> {
        match self {
            MetricPriority::Throughput => vec![2],
            MetricPriority::Energy => vec![device.max_mps_clients],
            MetricPriority::Product { .. } => {
                let max = device.max_mps_clients;
                [2usize, 3, 4, 6, 8, 12, 16, 24, 32, max]
                    .into_iter()
                    .filter(|&c| c <= max)
                    .collect()
            }
        }
    }

    /// Scores a (throughput gain, efficiency gain) pair under this
    /// priority. Higher is better.
    pub fn score(&self, throughput: f64, efficiency: f64) -> f64 {
        match self {
            MetricPriority::Throughput => throughput,
            MetricPriority::Energy => efficiency,
            MetricPriority::Product {
                throughput_weight,
                energy_weight,
            } => {
                throughput.powi(*throughput_weight as i32) * efficiency.powi(*energy_weight as i32)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceSpec {
        DeviceSpec::a100x()
    }

    #[test]
    fn throughput_caps_at_two() {
        assert_eq!(MetricPriority::Throughput.candidate_caps(&dev()), vec![2]);
    }

    #[test]
    fn energy_caps_at_client_limit() {
        assert_eq!(MetricPriority::Energy.candidate_caps(&dev()), vec![48]);
    }

    #[test]
    fn product_sweeps_multiple_caps() {
        let caps = MetricPriority::balanced_product().candidate_caps(&dev());
        assert!(caps.contains(&2));
        assert!(caps.contains(&48));
        assert!(caps.len() > 3);
        // Caps never exceed the device limit.
        let mut small = dev();
        small.max_mps_clients = 4;
        let caps = MetricPriority::balanced_product().candidate_caps(&small);
        assert!(caps.iter().all(|&c| c <= 4));
    }

    #[test]
    fn score_orders_configurations_by_priority() {
        // Config A: throughput 1.8, efficiency 1.1. Config B: 1.2 / 1.5.
        let t = MetricPriority::Throughput;
        assert!(t.score(1.8, 1.1) > t.score(1.2, 1.5));
        let e = MetricPriority::Energy;
        assert!(e.score(1.8, 1.1) < e.score(1.2, 1.5));
        let p = MetricPriority::balanced_product();
        // 1.98 vs 1.80: balanced product prefers A.
        assert!(p.score(1.8, 1.1) > p.score(1.2, 1.5));
        let tp = MetricPriority::throughput_leaning_product();
        // Throughput-squared widens A's lead.
        assert!(tp.score(1.8, 1.1) / tp.score(1.2, 1.5) > p.score(1.8, 1.1) / p.score(1.2, 1.5));
    }
}
