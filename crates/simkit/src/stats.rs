//! Online statistics: Welford mean/variance, EWMA, and empirical quantiles.

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

/// Exponentially weighted moving average.
///
/// The DiffServe controller smooths observed demand with an EWMA before
/// feeding it to the resource allocator (paper §3.3).
///
/// # Examples
///
/// ```
/// use diffserve_simkit::stats::Ewma;
///
/// let mut e = Ewma::new(0.5).unwrap();
/// e.update(10.0);
/// e.update(20.0);
/// assert_eq!(e.value(), Some(15.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns an error if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Result<Self, EwmaError> {
        if !(alpha.is_finite() && alpha > 0.0 && alpha <= 1.0) {
            return Err(EwmaError { alpha });
        }
        Ok(Ewma { alpha, value: None })
    }

    /// Feeds one observation and returns the updated average.
    pub fn update(&mut self, x: f64) -> f64 {
        let next = match self.value {
            None => x,
            Some(v) => self.alpha * x + (1.0 - self.alpha) * v,
        };
        self.value = Some(next);
        next
    }

    /// Current smoothed value, or `None` before the first observation.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Current smoothed value, or `fallback` before the first observation.
    pub fn value_or(&self, fallback: f64) -> f64 {
        self.value.unwrap_or(fallback)
    }

    /// The smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

/// Error returned for an invalid EWMA smoothing factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EwmaError {
    alpha: f64,
}

impl std::fmt::Display for EwmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EWMA smoothing factor must lie in (0, 1], got {}",
            self.alpha
        )
    }
}

impl std::error::Error for EwmaError {}

/// Buffered empirical quantile estimator.
///
/// Stores all observations; suitable for per-experiment latency summaries
/// (tens of thousands of points), not unbounded streams.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Quantiles {
    data: Vec<f64>,
    sorted: bool,
}

impl Quantiles {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        Quantiles::default()
    }

    /// Adds one observation. NaN observations are ignored.
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.data.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.data.len()
    }

    /// Returns the `q`-quantile (linear interpolation), or `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        if self.data.is_empty() {
            return None;
        }
        if !self.sorted {
            self.data
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered on push"));
            self.sorted = true;
        }
        let pos = q * (self.data.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.data[lo] * (1.0 - frac) + self.data[hi] * frac)
    }

    /// Median shortcut.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
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

    #[test]
    fn ewma_smooths() {
        let mut e = Ewma::new(0.25).unwrap();
        assert_eq!(e.value(), None);
        assert_eq!(e.value_or(1.5), 1.5);
        e.update(8.0);
        assert_eq!(e.value(), Some(8.0));
        let v = e.update(0.0);
        assert!((v - 6.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_rejects_bad_alpha() {
        assert!(Ewma::new(0.0).is_err());
        assert!(Ewma::new(1.5).is_err());
        assert!(Ewma::new(f64::NAN).is_err());
        assert!(Ewma::new(1.0).is_ok());
        let err = Ewma::new(2.0).unwrap_err();
        assert!(format!("{err}").contains("(0, 1]"));
    }

    #[test]
    fn quantiles_interpolate() {
        let mut q = Quantiles::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            q.push(x);
        }
        assert_eq!(q.quantile(0.0), Some(1.0));
        assert_eq!(q.quantile(1.0), Some(4.0));
        assert_eq!(q.median(), Some(2.5));
        assert_eq!(q.count(), 4);
    }

    #[test]
    fn quantiles_ignore_nan_and_handle_empty() {
        let mut q = Quantiles::new();
        q.push(f64::NAN);
        assert_eq!(q.count(), 0);
        assert_eq!(q.median(), None);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0,1]")]
    fn quantile_outside_the_unit_interval_panics() {
        let _ = Quantiles::new().quantile(1.5);
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

        #[test]
        fn quantiles_monotone(xs in proptest::collection::vec(-1e3f64..1e3, 1..200)) {
            let mut q = Quantiles::new();
            for &x in &xs {
                q.push(x);
            }
            let q25 = q.quantile(0.25).unwrap();
            let q50 = q.quantile(0.50).unwrap();
            let q75 = q.quantile(0.75).unwrap();
            prop_assert!(q25 <= q50 && q50 <= q75);
        }
    }
}
