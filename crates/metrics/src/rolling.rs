//! Rolling-FID estimation over the most recent responses.
//!
//! The serving session exposes a live FID estimate over the last few
//! hundred responses in every snapshot. Completions arrive at query rate
//! while snapshots are taken at observer cadence at most — and not at all
//! by the batch entry points — so [`RollingFid`] makes the per-completion
//! step as cheap as it can be: [`RollingFid::push`] copies the row into a
//! reused ring slot and does nothing else. [`RollingFid::estimate`] fits a
//! Gaussian to the buffered rows (`O(window · d²)`, next to the `O(d³)`
//! Fréchet distance it has to pay anyway) when a snapshot asks for it.

use diffserve_linalg::Mat;

use crate::fid::{frechet_distance, GaussianStats};

/// Windowed FID estimator: a ring of the last `window` feature rows.
///
/// [`RollingFid::estimate`] is exactly [`GaussianStats::fit`] over those
/// rows in arrival order (sample covariance, `ridge · I` added to the
/// diagonal) followed by the Fréchet distance to the reference.
///
/// # Examples
///
/// ```
/// use diffserve_linalg::Mat;
/// use diffserve_metrics::{GaussianStats, RollingFid};
///
/// let reference = GaussianStats::from_moments(vec![0.0, 0.0], Mat::identity(2));
/// let mut rolling = RollingFid::new(reference, 4, 1e-3);
/// assert!(rolling.estimate().is_nan()); // too few samples
/// for i in 0..8 {
///     rolling.push(&[i as f64, -(i as f64)]);
/// }
/// assert_eq!(rolling.len(), 4); // only the window is retained
/// assert!(rolling.estimate().is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct RollingFid {
    reference: GaussianStats,
    window: usize,
    ridge: f64,
    /// The buffered rows, row-major; grows to `window` rows, then wraps.
    ring: Vec<f64>,
    /// Once the ring is full, the row the next push overwrites (the
    /// oldest); `0` while it is still filling.
    oldest: usize,
}

impl RollingFid {
    /// Creates an estimator comparing the last `window` samples against
    /// `reference`, regularizing the windowed covariance with `ridge · I`.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2` (no covariance can be fit) or the reference
    /// has zero dimension.
    pub fn new(reference: GaussianStats, window: usize, ridge: f64) -> Self {
        assert!(window >= 2, "rolling FID needs a window of at least 2");
        let d = reference.dim();
        assert!(d > 0, "reference must have at least one feature dimension");
        RollingFid {
            reference,
            window,
            ridge,
            ring: Vec::with_capacity(window * d),
            oldest: 0,
        }
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.ring.len() / self.reference.dim()
    }

    /// `true` if no samples have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The window length this estimator was built with.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Pushes one feature vector, overwriting the oldest once the window
    /// is full.
    ///
    /// # Panics
    ///
    /// Panics if `features` does not match the reference dimensionality.
    #[inline]
    pub fn push(&mut self, features: &[f64]) {
        let d = self.reference.dim();
        assert_eq!(features.len(), d, "feature dimension mismatch");
        if self.len() < self.window {
            self.ring.extend_from_slice(features);
        } else {
            self.ring[self.oldest * d..(self.oldest + 1) * d].copy_from_slice(features);
            self.oldest = (self.oldest + 1) % self.window;
        }
    }

    /// FID of the current window against the reference; `NaN` with fewer
    /// than two samples (matching [`GaussianStats::fit`]'s requirement) or
    /// on numerical failure.
    pub fn estimate(&self) -> f64 {
        let (n, d) = (self.len(), self.reference.dim());
        if n < 2 {
            return f64::NAN;
        }
        let rows = Mat::from_fn(n, d, |i, j| self.ring[(self.oldest + i) % n * d + j]);
        GaussianStats::fit(&rows, self.ridge)
            .and_then(|g| frechet_distance(&g, &self.reference))
            .unwrap_or(f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fid::FidError;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn reference_2d() -> GaussianStats {
        GaussianStats::from_moments(vec![0.2, -0.4], Mat::from_rows(&[&[1.5, 0.2], &[0.2, 0.9]]))
    }

    /// The batch computation the ring must reproduce: fit a Gaussian over
    /// exactly the window tail, in arrival order, and take the distance.
    fn batch_estimate(
        samples: &[Vec<f64>],
        window: usize,
        ridge: f64,
        reference: &GaussianStats,
    ) -> f64 {
        let tail = &samples[samples.len().saturating_sub(window)..];
        if tail.len() < 2 {
            return f64::NAN;
        }
        let rows: Vec<&[f64]> = tail.iter().map(|v| v.as_slice()).collect();
        match GaussianStats::fit(&Mat::from_rows(&rows), ridge) {
            Ok(g) => frechet_distance(&g, reference).unwrap_or(f64::NAN),
            Err(FidError::TooFewSamples { .. }) => f64::NAN,
            Err(_) => f64::NAN,
        }
    }

    #[test]
    fn nan_below_two_samples() {
        let mut r = RollingFid::new(reference_2d(), 8, 1e-3);
        assert!(r.estimate().is_nan());
        r.push(&[0.1, 0.2]);
        assert!(r.estimate().is_nan());
        r.push(&[0.3, -0.1]);
        assert!(r.estimate().is_finite());
    }

    #[test]
    fn window_is_enforced() {
        let mut r = RollingFid::new(reference_2d(), 3, 1e-3);
        for i in 0..10 {
            r.push(&[i as f64, 1.0]);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.window(), 3);
        assert!(!r.is_empty());
    }

    #[test]
    fn matches_batch_fit_through_evictions() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let reference = reference_2d();
        let mut rolling = RollingFid::new(reference.clone(), 16, 1e-3);
        let mut seen: Vec<Vec<f64>> = Vec::new();
        for _ in 0..200 {
            let x = vec![rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)];
            rolling.push(&x);
            seen.push(x);
            let ring = rolling.estimate();
            let batch = batch_estimate(&seen, 16, 1e-3, &reference);
            assert_eq!(
                ring.to_bits(),
                batch.to_bits(),
                "ring {ring} vs batch {batch} after {} pushes",
                seen.len()
            );
        }
    }

    #[test]
    #[should_panic(expected = "window of at least 2")]
    fn window_of_one_rejected() {
        let _ = RollingFid::new(reference_2d(), 1, 1e-3);
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn dimension_mismatch_rejected() {
        let mut r = RollingFid::new(reference_2d(), 4, 1e-3);
        r.push(&[1.0, 2.0, 3.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Ring and batch estimates are the same bits for random streams
        /// and window sizes — including streams shorter than the window
        /// and streams that wrap it several times.
        #[test]
        fn ring_matches_batch(
            seed in 0u64..1000,
            window in 2usize..24,
            n in 0usize..80,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let reference = reference_2d();
            let mut rolling = RollingFid::new(reference.clone(), window, 1e-3);
            let mut seen: Vec<Vec<f64>> = Vec::new();
            for _ in 0..n {
                let x = vec![rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)];
                rolling.push(&x);
                seen.push(x);
            }
            let ring = rolling.estimate();
            let batch = batch_estimate(&seen, window, 1e-3, &reference);
            prop_assert_eq!(ring.to_bits(), batch.to_bits(), "{} vs {}", ring, batch);
        }
    }
}
