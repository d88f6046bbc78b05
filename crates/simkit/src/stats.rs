//! Online statistics: Welford mean/variance.

/// Numerically stable online mean/variance accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use diffserve_simkit::stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 2.5);
/// assert_eq!(w.count(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0.0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        *self = Welford { n, mean, m2 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn welford_basic() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert!((w.std() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_is_zero() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.count(), 0);
    }

    #[test]
    fn welford_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.count(), whole.count());
    }

    proptest! {
        #[test]
        fn welford_mean_bounded_by_extremes(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let mut w = Welford::new();
            for &x in &xs {
                w.push(x);
            }
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(w.mean() >= lo - 1e-6 && w.mean() <= hi + 1e-6);
            prop_assert!(w.variance() >= -1e-9);
        }
    }

    #[test]
    fn merging_an_empty_accumulator_changes_nothing() {
        let mut w = Welford::new();
        for x in [1.5, -2.0, 8.25] {
            w.push(x);
        }
        let before = w;
        w.merge(&Welford::new());
        assert_eq!(w, before);
        let mut empty = Welford::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn one_observation_has_its_value_as_mean_and_no_spread() {
        let mut w = Welford::new();
        w.push(-3.5);
        assert_eq!((w.count(), w.mean()), (1, -3.5));
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.std(), 0.0);
    }

    proptest! {
        #[test]
        fn merge_at_any_split_matches_pushing_in_order(
            xs in proptest::collection::vec(-1e3f64..1e3, 0..60),
            split in 0usize..60,
        ) {
            let split = split.min(xs.len());
            let mut whole = Welford::new();
            let (mut left, mut right) = (Welford::new(), Welford::new());
            for (i, &x) in xs.iter().enumerate() {
                whole.push(x);
                if i < split {
                    left.push(x);
                } else {
                    right.push(x);
                }
            }
            left.merge(&right);
            prop_assert_eq!(left.count(), whole.count());
            prop_assert!((left.mean() - whole.mean()).abs() <= 1e-9 * (1.0 + whole.mean().abs()));
            prop_assert!(
                (left.variance() - whole.variance()).abs() <= 1e-7 * (1.0 + whole.variance())
            );
        }
    }
}
