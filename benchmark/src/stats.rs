//! Order statistics for latency samples and for run-to-run repeatability.

/// The `q`-quantile (nearest rank) of an ascending-sorted slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort in place and return the median; `0.0` for an empty sample (a class
/// the run never produced, e.g. hits on a cache-bypass workload).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Sort in place and return the `q`-quantile; `0.0` for an empty sample.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    quantile_sorted(samples, q)
}

/// Whether a sample of `n` supports reporting the `q`-quantile: at least ten
/// samples must lie beyond it, otherwise the figure is one outlier's luck.
pub fn supports_quantile(n: usize, q: f64) -> bool {
    let rank = (q * n as f64).ceil() as usize;
    n.saturating_sub(rank) >= 10
}

/// The highest of p99 / p90 / p50 that `n` samples support, as
/// `(label, q)`; `None` below eleven samples.
pub fn highest_supported(n: usize) -> Option<(&'static str, f64)> {
    [("p99", 0.99), ("p90", 0.90), ("p50", 0.50)]
        .into_iter()
        .find(|&(_, q)| supports_quantile(n, q))
}

/// Quartiles the way Python's `statistics.quantiles(values, n=4)` computes
/// them (exclusive method), so `repeat` flags exactly what the driver would.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // position i·(n+1)/4 on a 1-based scale, linearly interpolated
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Inter-quartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.9), 90.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut [3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 leaves exactly ten beyond; p90 of 99 leaves nine
        assert!(supports_quantile(100, 0.90));
        assert!(!supports_quantile(99, 0.90));
        assert!(supports_quantile(1000, 0.99));
        assert!(!supports_quantile(999, 0.99));
        assert!(supports_quantile(20, 0.5));
        assert!(!supports_quantile(19, 0.5));
        assert_eq!(highest_supported(5000), Some(("p99", 0.99)));
        assert_eq!(highest_supported(500), Some(("p90", 0.90)));
        assert_eq!(highest_supported(50), Some(("p50", 0.50)));
        assert_eq!(highest_supported(10), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            (15.0, 40.0, 120.0)
        );
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }
}
