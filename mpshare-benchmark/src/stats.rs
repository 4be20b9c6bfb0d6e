//! Order statistics for the timed samples.

/// Samples that must lie beyond a reported percentile for it to count as
/// resolved (fewer, and one outlier moves it).
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` (0 < q <= 1) among `n` samples:
/// the smallest rank whose cumulative share reaches `q`.
pub fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank quantile of an ascending slice. `None` when empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), q) - 1])
}

/// Whether at least [`MIN_BEYOND`] of `n` samples lie beyond the
/// nearest-rank `q` quantile.
pub fn tail_is_resolved(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_BEYOND
}

/// Median (nearest rank) of unsorted values.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 0.5)
}

/// Geometric mean of positive values; `None` when empty.
pub fn geomean(values: &[f64]) -> Option<f64> {
    (!values.is_empty())
        .then(|| (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_value_reaching_the_share() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&v, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&v, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&[7.0], 0.9), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert!(!tail_is_resolved(0, 0.9));
        assert!(!tail_is_resolved(99, 0.9));
        assert!(tail_is_resolved(100, 0.9));
        assert_eq!(100 - rank(100, 0.9), MIN_BEYOND);
        assert!(tail_is_resolved(20, 0.5));
        assert!(!tail_is_resolved(19, 0.5));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        let g = geomean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
    }
}
