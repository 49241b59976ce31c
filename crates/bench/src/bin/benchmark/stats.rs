//! Order statistics over timing samples.

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `q · n` samples at or below it.
///
/// # Panics
/// On an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// Median of unsorted samples (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// The samples in ascending order.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of the `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    // the epsilon keeps e.g. 0.99 · 1000 (= 989.99… in binary) at rank 990
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond the `q` percentile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// A percentile is reported only when at least ten samples lie beyond
/// it; otherwise it is the maximum of a handful of samples.
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= 10
}

/// Nearest-rank first quartile, median and third quartile.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let s = sorted(samples);
    [
        percentile(&s, 0.25),
        percentile(&s, 0.5),
        percentile(&s, 0.75),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_of_unsorted_samples() {
        let v = [8.0, 1.0, 6.0, 3.0, 5.0, 2.0, 7.0, 4.0];
        assert_eq!(quartiles(&v), [2.0, 4.0, 6.0]);
        assert_eq!(quartiles(&[5.0]), [5.0, 5.0, 5.0]);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 needs 1000 samples (ranks 990 < 1000 leave exactly 10)
        assert!(!supported(999, 0.99));
        assert!(supported(1000, 0.99));
        assert_eq!(beyond(1000, 0.99), 10);
        // p90 needs 100
        assert!(!supported(99, 0.9));
        assert!(supported(100, 0.9));
        // the median of 19 samples has 9 beyond it, of 20 has 10
        assert!(!supported(19, 0.5));
        assert!(supported(20, 0.5));
        assert!(!supported(0, 0.5));
    }
}
