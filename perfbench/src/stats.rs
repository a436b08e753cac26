//! Sample statistics: medians, percentiles and the spread the acceptance
//! rule uses.

/// The `p`-th percentile (0..=100) of `samples` by linear interpolation
/// between closest ranks; `None` for an empty set. `p = 50` is the median.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The highest whole percentile that still has at least ten samples beyond
/// it: a tail percentile is an order statistic, and with fewer than ten
/// samples above it one slow operation decides its value. 100 samples
/// support p90, 1 000 support p99; below 20 samples only the median is
/// reported.
pub fn highest_percentile(n: usize) -> u32 {
    if n < 20 {
        return 50;
    }
    (((n - 10) * 100 / n) as u32).min(99)
}

/// True when `n` samples support reporting percentile `p` under the
/// ten-samples-beyond rule.
pub fn supports(n: usize, p: u32) -> bool {
    p <= highest_percentile(n)
}

/// Distance between the first and third quartile as a share of the median —
/// the run-to-run spread the benchmark's bounds are judged against. Uses
/// the exclusive method of Python's `statistics.quantiles(values, n=4)`.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, clamped into the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = quartile(2);
    (med != 0.0).then(|| (quartile(3) - quartile(1)) / med)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(91.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(101.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(0), 50);
        assert_eq!(highest_percentile(19), 50);
        assert_eq!(highest_percentile(20), 50);
        assert_eq!(highest_percentile(50), 80);
        assert_eq!(highest_percentile(99), 89);
        assert_eq!(highest_percentile(100), 90);
        assert_eq!(highest_percentile(999), 98);
        assert_eq!(highest_percentile(1000), 99);
        assert_eq!(highest_percentile(1_000_000), 99);
        assert!(supports(100, 90));
        assert!(!supports(99, 90));
        assert!(supports(5, 50));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: the
        // exclusive method extrapolates at the edges; ours clamps to the
        // data's own segment, which gives the same numbers for n = 2.
        let s = quartile_spread(&[10.0, 20.0]).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "{s}");
        assert_eq!(quartile_spread(&[1.0]), None);
    }
}
