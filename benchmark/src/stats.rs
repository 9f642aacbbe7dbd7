//! Sample statistics: medians, percentiles, and the rule for which tail
//! percentile a sample count supports.

/// Linear-interpolated percentile (`p` in 0..=100) of `samples`.
/// Returns 0.0 for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let rank = (p / 100.0).clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples` (0.0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// `a / b`, or 0.0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The arithmetic mean of `samples` (0.0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The highest whole percentile that still has at least ten samples beyond
/// it, or `None` when even the median does not (fewer than 20 samples).
/// 100 samples support p90, 200 support p95, 60 only p83.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    if n < 20 {
        return None;
    }
    Some(((100 * (n - 10)) / n).min(99) as u32)
}

/// Interquartile range as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) — the
/// spread the acceptance rule for this benchmark is stated in.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| {
        // Exclusive method: position k(n+1)/4, 1-based, clamped to the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    let mid = median(&sorted);
    if mid == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / mid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50));
        assert_eq!(highest_supported_percentile(60), Some(83));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(120), Some(91));
        assert_eq!(highest_supported_percentile(200), Some(95));
        assert_eq!(highest_supported_percentile(1_000_000), Some(99));
        // The defining property, checked directly over a range of counts.
        for n in 20..500usize {
            let p = highest_supported_percentile(n).unwrap() as usize;
            assert!(n - (n * p) / 100 >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn percentiles_interpolate() {
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert!((percentile(&xs, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn iqr_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
