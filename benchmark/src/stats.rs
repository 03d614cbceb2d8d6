//! Harness arithmetic over samples: medians, the quartile spread the
//! acceptance rule is stated in, and the tail-percentile picker.

pub use ph_prof::median;

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the "exclusive" method), so `compare` judges spread by
/// the same rule the pipeline does. `None` under two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median; 0 when the
/// sample is too small or its median is 0.
pub fn quartile_spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    match quartiles(xs) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// The tail of a latency sample: the highest percentile, capped at p90,
/// that still has at least ten samples beyond it — a percentile resting
/// on fewer is one slow hour, not a tail. Under twenty samples no
/// percentile above the median qualifies, so the median is returned.
/// Yields `(percentile, value)`.
pub fn tail_percentile(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    if n < 20 {
        return (50.0, median(xs));
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p90_index = (0.9 * (n - 1) as f64).ceil() as usize;
    let index = p90_index.min(n - 11);
    (100.0 * index as f64 / (n - 1) as f64, sorted[index])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_a_share_of_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&xs) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0; 10]), 0.0);
        assert_eq!(quartile_spread(&[]), 0.0);
    }

    #[test]
    fn tail_falls_back_to_the_median_under_twenty_samples() {
        let xs: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), (50.0, 9.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 20 samples: index 9 has exactly ten beyond it.
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        let (p, v) = tail_percentile(&xs);
        assert_eq!(v, 9.0);
        assert!((p - 100.0 * 9.0 / 19.0).abs() < 1e-12);
        // 120 samples (the paced workload's hour count): p90 qualifies,
        // with eleven samples beyond index 108.
        let xs: Vec<f64> = (0..120).rev().map(f64::from).collect();
        let (p, v) = tail_percentile(&xs);
        assert_eq!(v, 108.0);
        assert!((p - 100.0 * 108.0 / 119.0).abs() < 1e-12);
        // 1000 samples: capped at p90 however many lie beyond.
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs).1, 900.0);
    }
}
