//! Order statistics the metrics are defined by.
//!
//! Kept here, not borrowed from `diffserve_simkit::stats`, so that a later
//! change to the program's own estimators cannot move the benchmark's
//! definitions.

/// Sorts `values` and returns the `q`-quantile by linear interpolation
/// between the two nearest ranks (the same rule as Python's
/// `numpy.percentile` default).
///
/// # Panics
///
/// Panics if `values` is empty, holds a NaN, or `q` is outside `[0, 1]`.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let frac = pos - lo as f64;
    values[lo] * (1.0 - frac) + values[hi] * frac
}

/// Median of `values` (sorts them).
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Item `k` of the result is the minimum of item `k` across repetitions.
///
/// Simulator work is deterministic, so item `k` (one control tick, one
/// inter-tick stretch) does the same work in every repetition, and what
/// the host adds to it is never negative. On the hosts this runs on, that
/// addition comes in bursts that slow up to half of all samples by up to
/// 70 % (`README.md`, "Noise floor"), so the fastest sample of an item is
/// its cost and the median is not. Noise is removed per item, before any
/// sum or percentile is taken over items.
///
/// # Panics
///
/// Panics if there is no repetition or the repetitions differ in length
/// (which would mean the runs were not the same run).
pub fn per_item_min(reps: &[impl AsRef<[f64]>]) -> Vec<f64> {
    let len = reps
        .first()
        .expect("at least one repetition")
        .as_ref()
        .len();
    assert!(
        reps.iter().all(|r| r.as_ref().len() == len),
        "repetitions differ in length"
    );
    (0..len)
        .map(|k| {
            reps.iter()
                .map(|rep| rep.as_ref()[k])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// `(max − min) ÷ median` of `values`: the noise floor reported as
/// `noise.<metric>`. Zero for a single sample.
pub fn relative_range(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    let mid = median(&mut sorted);
    if mid == 0.0 {
        return 0.0;
    }
    (sorted[sorted.len() - 1] - sorted[0]) / mid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 1.0), 4.0);
        assert_eq!(percentile(&mut v, 0.5), 2.5);
        // 0.95 × 3 = 2.85: 15 % of rank 2 and 85 % of rank 3.
        assert!((percentile(&mut v, 0.95) - 3.85).abs() < 1e-12);
        assert_eq!(percentile(&mut [7.0], 0.99), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn per_item_min_keeps_the_undisturbed_sample_of_every_item() {
        // Each repetition is slowed on different items; between them every
        // item was seen clean once.
        let a = [1.0, 2.0, 90.0];
        let b = [80.0, 2.0, 3.0];
        let c = [1.5, 70.0, 3.0];
        assert_eq!(per_item_min(&[a, b, c]), vec![1.0, 2.0, 3.0]);
        assert_eq!(per_item_min(&[a]), a.to_vec());
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn per_item_min_rejects_ragged_repetitions() {
        per_item_min(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn relative_range_is_spread_over_median() {
        assert_eq!(relative_range(&[10.0]), 0.0);
        assert!((relative_range(&[9.0, 10.0, 12.0]) - 0.3).abs() < 1e-12);
    }
}
