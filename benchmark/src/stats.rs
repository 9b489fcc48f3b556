//! Sample statistics the benchmark reports: median, nearest-rank
//! percentiles with the "ten samples beyond" support rule, and the
//! within-run spread over contiguous parts of the timed window.

/// Median of `v` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice — every caller has at least one sample.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `v`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), q) - 1]
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// Whether `n` samples support reporting the `q`-quantile: at least ten
/// samples lie beyond it (p95 needs 200 samples, p99 needs 1000).
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && samples_beyond(n, q) >= 10
}

/// `(max − min) / median` of one statistic evaluated on each contiguous
/// part of the timed window: the within-run noise `--compare` weighs a
/// difference against. Zero for fewer than two parts.
pub fn spread(parts: &[f64]) -> f64 {
    if parts.len() < 2 {
        return 0.0;
    }
    let max = parts.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = parts.iter().copied().fold(f64::INFINITY, f64::min);
    let m = median(parts);
    if m == 0.0 {
        0.0
    } else {
        (max - min) / m.abs()
    }
}

/// Splits `v` into three contiguous parts whose lengths differ by at most
/// one (earlier parts take the remainder).
pub fn thirds<T>(v: &[T]) -> [&[T]; 3] {
    let n = v.len();
    let a = n.div_ceil(3);
    let b = a + (n - a).div_ceil(2);
    [&v[..a], &v[a..b], &v[b..]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        assert_eq!(percentile(&[5.0], 0.95), 5.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 of 200 samples sits at rank 190: exactly ten beyond.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(supports(200, 0.95));
        assert!(!supports(199, 0.95));
        assert!(!supports(220, 0.99));
        assert!(supports(1000, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn spread_is_range_over_median_of_the_parts() {
        assert_eq!(spread(&[10.0, 11.0, 12.0]), 2.0 / 11.0);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn thirds_are_contiguous_and_cover_everything() {
        let v: Vec<usize> = (0..10).collect();
        let [a, b, c] = thirds(&v);
        assert_eq!((a.len(), b.len(), c.len()), (4, 3, 3));
        assert_eq!([a, b, c].concat(), v);
        let [a, b, c] = thirds(&v[..2]);
        assert_eq!((a.len(), b.len(), c.len()), (1, 1, 0));
    }
}
