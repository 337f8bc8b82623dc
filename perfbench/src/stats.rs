//! Order statistics over measured samples.
//!
//! Percentiles are nearest-rank over the exact samples (no bucketing):
//! the `q`-quantile of `n` sorted samples is the value at rank
//! `ceil(q · n)`. A tail percentile is only meaningful when enough
//! samples lie beyond it, so [`p99`] reports one only when at least
//! [`MIN_TAIL`] samples are above its rank.

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank `q`-quantile of `sorted` (ascending, non-empty).
///
/// # Panics
///
/// Panics on an empty slice or a `q` outside `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// `q`-quantile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(((q * n as f64).ceil() as usize).max(1))
}

/// The 99th percentile, or `None` when fewer than [`MIN_TAIL`] samples
/// lie beyond it (fewer than 1000 samples).
pub fn p99(sorted: &[f64]) -> Option<f64> {
    (!sorted.is_empty() && beyond(sorted.len(), 0.99) >= MIN_TAIL).then(|| percentile(sorted, 0.99))
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// A sorted copy.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Expands `(value, weight)` pairs into a sorted sample list: a group
/// commit of `k` events is `k` samples of its commit latency.
pub fn weighted(pairs: &[(f64, usize)]) -> Vec<f64> {
    let mut v: Vec<f64> = pairs
        .iter()
        .flat_map(|&(x, k)| std::iter::repeat_n(x, k))
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_sample() {
        // 1..=20: p50 is rank ceil(10) = 10, p90 rank 18, p95 rank 19.
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 10.0);
        assert_eq!(percentile(&s, 0.9), 18.0);
        assert_eq!(percentile(&s, 0.95), 19.0);
        assert_eq!(percentile(&s, 1.0), 20.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 999 samples: rank ceil(989.01) = 990, only 9 beyond.
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(p99(&s), None);
        // 1000 samples: rank 990, exactly 10 beyond.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(p99(&s), Some(990.0));
        assert_eq!(p99(&[]), None);
    }

    #[test]
    fn weighted_expands_commit_latency_per_event() {
        let v = weighted(&[(3.0, 2), (1.0, 1), (2.0, 3)]);
        assert_eq!(v, vec![1.0, 2.0, 2.0, 2.0, 3.0, 3.0]);
        assert_eq!(percentile(&v, 0.5), 2.0);
    }
}
