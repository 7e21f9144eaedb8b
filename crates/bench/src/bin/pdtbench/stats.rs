//! Sample statistics: nearest-rank percentiles, the "at least ten samples
//! beyond it" rule for tails, and the quartile spread the acceptance rule
//! uses.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` of the sample at or below it. `None` when the
/// sample is empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sort a sample ascending (timings are never NaN).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples
}

/// Nearest-rank median of an unsorted sample; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 0.5).unwrap_or(0.0)
}

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that it is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Whether a sample of `n` supports percentile `p` under [`MIN_BEYOND`].
pub fn supports(n: usize, p: f64) -> bool {
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    n >= rank + MIN_BEYOND
}

/// `percentile` gated by [`supports`]: `None` when the sample is too small
/// for that tail.
pub fn tail(sorted: &[f64], p: f64) -> Option<f64> {
    if supports(sorted.len(), p) {
        percentile(sorted, p)
    } else {
        None
    }
}

/// Quartiles `(q1, q2, q3)` by the exclusive method Python's
/// `statistics.quantiles(values, n=4)` uses, so the spread printed here is
/// the number the acceptance rule computes.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(samples.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = (pos as f64 / 4.0) - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(3.0));
        assert_eq!(percentile(&s, 0.95), Some(5.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        // p95 of 200 samples is rank 190: exactly ten beyond it
        assert!(supports(200, 0.95));
        assert!(!supports(199, 0.95));
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(!supports(0, 0.5));
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&s, 0.95), Some(190.0));
        assert_eq!(tail(&s, 0.99), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        assert_eq!(spread(&v), Some(1.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
