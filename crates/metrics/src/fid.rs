//! Fréchet Inception Distance over feature sets.
//!
//! The paper scores system response quality with FID (§2.1, §4.1): fit a
//! Gaussian to the features of generated images and to the features of real
//! images, then compute the Fréchet distance
//!
//! ```text
//! FID = ‖μ₁ − μ₂‖² + tr(Σ₁ + Σ₂ − 2·(Σ₁Σ₂)^{1/2})
//! ```
//!
//! In the original pipeline the features come from InceptionV3; in this
//! reproduction they come from the synthetic image substrate
//! (`diffserve-imagegen`), and the distance itself is computed exactly, via
//! the symmetric reformulation `tr((Σ₁Σ₂)^{1/2}) = Σᵢ √λᵢ(S Σ₁ S)` with
//! `S = Σ₂^{1/2}`: the root is taken of the *second* Gaussian, which every
//! caller makes the long-lived reference, and is kept by it.
//! [`FrechetKernel`] takes up to four distances to one reference at once,
//! in buffers it keeps; [`frechet_distance`] is its one-Gaussian call.

use std::sync::OnceLock;

use diffserve_linalg::{sqrtm_psd, DecompError, Mat, SandwichEigenvalues, LANES};

/// Errors from FID computation.
#[derive(Debug, Clone, PartialEq)]
pub enum FidError {
    /// Need at least two samples to fit a covariance.
    TooFewSamples {
        /// Number of samples provided.
        got: usize,
    },
    /// Feature dimensionality differs between the two sets.
    DimensionMismatch {
        /// Dimension of the first set.
        a: usize,
        /// Dimension of the second set.
        b: usize,
    },
    /// An eigendecomposition failed (numerically hostile covariance).
    Numerical(DecompError),
}

impl std::fmt::Display for FidError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FidError::TooFewSamples { got } => {
                write!(f, "need at least 2 samples to fit a gaussian, got {got}")
            }
            FidError::DimensionMismatch { a, b } => {
                write!(f, "feature dimensions differ: {a} vs {b}")
            }
            FidError::Numerical(e) => write!(f, "numerical failure: {e}"),
        }
    }
}

impl std::error::Error for FidError {}

impl From<DecompError> for FidError {
    fn from(e: DecompError) -> Self {
        FidError::Numerical(e)
    }
}

/// Gaussian summary (mean + covariance) of a feature set.
///
/// Also carries the square root of its covariance once something has asked
/// for it ([`GaussianStats::cov_sqrt`]): clones of a rooted Gaussian are
/// rooted, and equality looks at the mean and covariance only.
#[derive(Debug, Clone)]
pub struct GaussianStats {
    mean: Vec<f64>,
    cov: Mat,
    /// `cov^{1/2}`, set on first use.
    cov_sqrt: OnceLock<Mat>,
}

impl PartialEq for GaussianStats {
    fn eq(&self, other: &Self) -> bool {
        self.mean == other.mean && self.cov == other.cov
    }
}

impl GaussianStats {
    /// Fits a Gaussian to a data matrix (rows = samples, cols = features),
    /// adding `ridge · I` to the covariance for numerical stability.
    ///
    /// Standard FID implementations regularize exactly this way when sample
    /// counts per window are small.
    ///
    /// # Errors
    ///
    /// Returns [`FidError::TooFewSamples`] with fewer than two rows.
    pub fn fit(features: &Mat, ridge: f64) -> Result<Self, FidError> {
        if features.rows() < 2 {
            return Err(FidError::TooFewSamples {
                got: features.rows(),
            });
        }
        let mean = features.column_means();
        let mut cov = features.covariance();
        for i in 0..cov.rows() {
            cov[(i, i)] += ridge;
        }
        Ok(GaussianStats::from_moments(mean, cov))
    }

    /// Builds stats directly from a known mean and covariance.
    ///
    /// # Panics
    ///
    /// Panics if the covariance is not square or its size differs from the
    /// mean length.
    pub fn from_moments(mean: Vec<f64>, cov: Mat) -> Self {
        assert!(cov.is_square(), "covariance must be square");
        assert_eq!(mean.len(), cov.rows(), "mean/covariance size mismatch");
        GaussianStats {
            mean,
            cov,
            cov_sqrt: OnceLock::new(),
        }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// The mean vector.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The covariance matrix.
    pub fn cov(&self) -> &Mat {
        &self.cov
    }

    /// The PSD square root of the covariance ([`sqrtm_psd`]), computed by
    /// the first call and kept: later calls, and calls on clones taken
    /// after it, return the stored matrix. [`frechet_distance`] asks this
    /// of its second argument, so a reference Gaussian is rooted once
    /// however many distances are taken to it.
    ///
    /// # Errors
    ///
    /// Returns the eigendecomposition's failure; nothing is stored then.
    pub fn cov_sqrt(&self) -> Result<&Mat, FidError> {
        if let Some(root) = self.cov_sqrt.get() {
            return Ok(root);
        }
        let root = sqrtm_psd(&self.cov)?;
        Ok(self.cov_sqrt.get_or_init(|| root))
    }
}

/// Mergeable sufficient statistics of a `D`-feature set, for fitting a
/// Gaussian to a stream without keeping its rows: the row count `n`, `Σc`
/// and the upper triangle of `Σccᵀ` over *centred* rows `c = x − r`.
///
/// The shift `r` is the caller's, fixed for every row of every set that
/// will be merged: sets centred on the same `r` merge by plain addition.
/// Any `r` gives the same Gaussian in exact arithmetic; in floating point
/// `Σccᵀ − ΣcΣcᵀ/n` cancels digits in proportion to `|mean − r|² /
/// variance`, so `r` should sit near the data (for generated features, the
/// FID reference mean), not wherever the feature space has its origin.
///
/// The dimensionality is a type parameter, so a row of another width does
/// not compile and [`CenteredMoments::push`] is one loop nest of known trip
/// counts. Every cell adds its products in row order, whatever the loop
/// shape: the sums are the bits a plain row-by-row accumulation gives.
///
/// # Examples
///
/// ```
/// use diffserve_linalg::Mat;
/// use diffserve_metrics::{CenteredMoments, GaussianStats};
///
/// let rows = [[1.0, 2.0], [2.0, 4.5], [3.0, 6.0]];
/// let shift = [2.0, 4.0];
/// let mut moments = CenteredMoments::<2>::new();
/// for row in &rows {
///     moments.push(&[row[0] - shift[0], row[1] - shift[1]]);
/// }
/// let streamed = moments.gaussian(&shift, 1e-6)?;
/// let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
/// let two_pass = GaussianStats::fit(&Mat::from_rows(&refs), 1e-6)?;
/// assert!(streamed.cov().max_abs_diff(two_pass.cov()) < 1e-12);
/// # Ok::<(), diffserve_metrics::FidError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CenteredMoments<const D: usize> {
    count: u64,
    sum: [f64; D],
    /// Upper triangle of `Σccᵀ`, packed row by row (`D`, `D − 1`, … cells).
    scatter: Box<[f64]>,
}

impl<const D: usize> Default for CenteredMoments<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> CenteredMoments<D> {
    /// Cells of the packed upper triangle.
    const PACKED: usize = D * (D + 1) / 2;

    /// An empty set.
    pub fn new() -> Self {
        CenteredMoments {
            count: 0,
            sum: [0.0; D],
            scatter: vec![0.0; Self::PACKED].into_boxed_slice(),
        }
    }

    /// Rows accumulated so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Forgets every row, keeping the buffers.
    pub fn clear(&mut self) {
        self.count = 0;
        self.sum = [0.0; D];
        self.scatter.fill(0.0);
    }

    /// Adds one row, already centred on the shift.
    #[inline]
    pub fn push(&mut self, centered: &[f64; D]) {
        self.count += 1;
        for (s, c) in self.sum.iter_mut().zip(centered) {
            *s += c;
        }
        let mut rest = &mut self.scatter[..Self::PACKED];
        for a in 0..D {
            let (row, tail) = rest.split_at_mut(D - a);
            let ca = centered[a];
            for (cell, cb) in row.iter_mut().zip(&centered[a..]) {
                *cell += ca * cb;
            }
            rest = tail;
        }
    }

    /// Adds every row of `other`, which must be centred on the same shift.
    pub fn merge(&mut self, other: &CenteredMoments<D>) {
        self.count += other.count;
        for (s, o) in self.sum.iter_mut().zip(&other.sum) {
            *s += o;
        }
        for (s, o) in self.scatter.iter_mut().zip(other.scatter.iter()) {
            *s += o;
        }
    }

    /// The Gaussian [`GaussianStats::fit`] would fit to the accumulated
    /// rows: mean `r + Σc/n`, sample covariance `(Σccᵀ − ΣcΣcᵀ/n)/(n − 1)`
    /// plus `ridge · I`. `shift` is the `r` the rows were centred on.
    ///
    /// # Errors
    ///
    /// Returns [`FidError::TooFewSamples`] with fewer than two rows.
    ///
    /// # Panics
    ///
    /// Panics if `shift` does not have `D` features.
    pub fn gaussian(&self, shift: &[f64], ridge: f64) -> Result<GaussianStats, FidError> {
        let mut fitted = GaussianStats::from_moments(vec![0.0; D], Mat::zeros(D, D));
        self.gaussian_into(shift, ridge, &mut fitted)?;
        Ok(fitted)
    }

    /// [`CenteredMoments::gaussian`] written over `out`, a Gaussian of the
    /// same dimensionality whose buffers are reused: fitting one set after
    /// another into the same `out` allocates nothing. On an error `out` is
    /// left as it was.
    ///
    /// # Errors
    ///
    /// Returns [`FidError::TooFewSamples`] with fewer than two rows.
    ///
    /// # Panics
    ///
    /// Panics if `shift` or `out` does not have `D` features.
    pub fn gaussian_into(
        &self,
        shift: &[f64],
        ridge: f64,
        out: &mut GaussianStats,
    ) -> Result<(), FidError> {
        assert_eq!(shift.len(), D, "feature dimension mismatch");
        assert_eq!(out.dim(), D, "feature dimension mismatch");
        if self.count < 2 {
            return Err(FidError::TooFewSamples {
                got: self.count as usize,
            });
        }
        let n = self.count as f64;
        for ((m, r), s) in out.mean.iter_mut().zip(shift).zip(&self.sum) {
            *m = r + s / n;
        }
        let mut packed = self.scatter.iter();
        for a in 0..D {
            for b in a..D {
                let scatter = packed.next().expect("D(D+1)/2 packed cells");
                let c = (scatter - self.sum[a] * self.sum[b] / n) / (n - 1.0);
                out.cov[(a, b)] = c;
                out.cov[(b, a)] = c;
            }
            out.cov[(a, a)] += ridge;
        }
        out.cov_sqrt = OnceLock::new();
        Ok(())
    }
}

/// Exact Fréchet distance between two Gaussians: [`FrechetKernel`]'s
/// one-Gaussian call, with buffers of its own.
///
/// The trace term goes through the square root of **`b`'s** covariance
/// ([`GaussianStats::cov_sqrt`], computed once per `b` and carried by its
/// clones), so pass the Gaussian that outlives the call — the FID
/// reference — second: each distance to it then costs two matrix products
/// and one values-only eigen-solve. The distance itself is symmetric in its
/// arguments up to round-off.
///
/// # Errors
///
/// Returns [`FidError::DimensionMismatch`] or a numerical failure from the
/// eigendecomposition.
pub fn frechet_distance(a: &GaussianStats, b: &GaussianStats) -> Result<f64, FidError> {
    FrechetKernel::new()
        .distances(std::slice::from_ref(a), b)
        .next()
        .expect("one distance per Gaussian")
}

/// Fréchet distances of up to [`FrechetKernel::LANES`] Gaussians to one
/// reference at a time, in buffers kept from one call to the next.
///
/// Per Gaussian `a`, the distance is `‖μ_a − μ_ref‖² + tr Σ_a + tr Σ_ref −
/// 2 Σᵢ √λᵢ(S Σ_a S)` with `S` the reference's covariance root: the
/// products `S Σ_a S`, their eigenvalues and the sums are
/// [`SandwichEigenvalues`]', whose rational QLs run side by side, so a
/// batch of four costs well under four single distances. Once the buffers
/// have grown to the dimension, a call allocates nothing.
///
/// # Examples
///
/// ```
/// use diffserve_linalg::Mat;
/// use diffserve_metrics::{frechet_distance, FrechetKernel, GaussianStats};
///
/// let reference = GaussianStats::from_moments(vec![0.0, 0.0], Mat::identity(2));
/// let fitted: Vec<GaussianStats> = (1..=3)
///     .map(|k| GaussianStats::from_moments(vec![k as f64, 0.0], Mat::identity(2)))
///     .collect();
/// let mut kernel = FrechetKernel::new();
/// for (g, d) in fitted.iter().zip(kernel.distances(&fitted, &reference)) {
///     assert_eq!(d?.to_bits(), frechet_distance(g, &reference)?.to_bits());
/// }
/// # Ok::<(), diffserve_metrics::FidError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct FrechetKernel {
    eigen: SandwichEigenvalues,
}

impl FrechetKernel {
    /// The most Gaussians one [`FrechetKernel::distances`] call takes.
    pub const LANES: usize = LANES;

    /// Empty buffers; the first call sizes them.
    pub fn new() -> Self {
        FrechetKernel::default()
    }

    /// The distance of each Gaussian of `fitted` to `reference`, in
    /// `fitted`'s order, each the bits `frechet_distance(g, reference)`
    /// gives. An item fails as that call would; the others are unaffected.
    ///
    /// # Panics
    ///
    /// Panics with more than [`FrechetKernel::LANES`] Gaussians.
    pub fn distances<'k>(
        &'k mut self,
        fitted: &'k [GaussianStats],
        reference: &'k GaussianStats,
    ) -> impl Iterator<Item = Result<f64, FidError>> + 'k {
        assert!(fitted.len() <= LANES, "at most {LANES} Gaussians a call");
        let fits = |a: &GaussianStats| a.dim() == reference.dim();
        // One solve, of every Gaussian of the reference's dimension.
        let mut solved = reference.cov_sqrt().map(|root| {
            let mut middles = [reference.cov(); LANES];
            let mut lanes = 0;
            for a in fitted.iter().filter(|&a| fits(a)) {
                middles[lanes] = &a.cov;
                lanes += 1;
            }
            self.eigen.solve(root, &middles[..lanes])
        });
        fitted.iter().map(move |a| {
            if !fits(a) {
                return Err(FidError::DimensionMismatch {
                    a: a.dim(),
                    b: reference.dim(),
                });
            }
            let values = match solved.as_mut() {
                Ok(lanes) => lanes.next().expect("a lane per matching Gaussian")?,
                Err(e) => return Err(e.clone()),
            };
            let mean_term: f64 = a
                .mean
                .iter()
                .zip(&reference.mean)
                .map(|(x, y)| (x - y) * (x - y))
                .sum();
            let tr_sqrt: f64 = values.iter().map(|&l| l.max(0.0).sqrt()).sum();
            let fid = mean_term + a.cov.trace() + reference.cov.trace() - 2.0 * tr_sqrt;
            // Clamp tiny negative round-off; FID is non-negative by construction.
            Ok(fid.max(0.0))
        })
    }
}

/// Convenience: fit Gaussians to two feature matrices and return their FID.
///
/// # Errors
///
/// Propagates fitting and numerical errors.
pub fn fid_score(generated: &Mat, reference: &Mat, ridge: f64) -> Result<f64, FidError> {
    let a = GaussianStats::fit(generated, ridge)?;
    let b = GaussianStats::fit(reference, ridge)?;
    frechet_distance(&a, &b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn gaussian_samples(n: usize, mean: &[f64], scale: f64, seed: u64) -> Mat {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let d = mean.len();
        Mat::from_fn(n, d, |_, j| {
            // Sum of 12 uniforms ≈ normal (Irwin–Hall), good enough here.
            let z: f64 = (0..12).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() - 6.0;
            mean[j] + scale * z
        })
    }

    #[test]
    fn identical_gaussians_have_zero_fid() {
        let a = GaussianStats::from_moments(vec![1.0, -2.0], Mat::identity(2));
        let b = a.clone();
        let d = frechet_distance(&a, &b).unwrap();
        assert!(d.abs() < 1e-9, "d={d}");
    }

    #[test]
    fn mean_shift_equals_squared_distance() {
        // Equal covariances: FID reduces to ‖Δμ‖².
        let a = GaussianStats::from_moments(vec![0.0, 0.0], Mat::identity(2));
        let b = GaussianStats::from_moments(vec![3.0, 4.0], Mat::identity(2));
        let d = frechet_distance(&a, &b).unwrap();
        assert!((d - 25.0).abs() < 1e-9, "d={d}");
    }

    #[test]
    fn diagonal_covariance_closed_form() {
        // For diagonal Σ, FID = Σ(√σ1 − √σ2)² + ‖Δμ‖².
        let a = GaussianStats::from_moments(vec![0.0], Mat::from_diag(&[4.0]));
        let b = GaussianStats::from_moments(vec![0.0], Mat::from_diag(&[1.0]));
        let d = frechet_distance(&a, &b).unwrap();
        assert!((d - 1.0).abs() < 1e-9, "d={d}"); // (2-1)^2
    }

    #[test]
    fn symmetric_in_arguments() {
        let a = GaussianStats::from_moments(
            vec![0.5, -1.0],
            Mat::from_rows(&[&[2.0, 0.3], &[0.3, 1.0]]),
        );
        let b = GaussianStats::from_moments(
            vec![-0.5, 0.2],
            Mat::from_rows(&[&[1.5, -0.2], &[-0.2, 0.8]]),
        );
        let d1 = frechet_distance(&a, &b).unwrap();
        let d2 = frechet_distance(&b, &a).unwrap();
        assert!((d1 - d2).abs() < 1e-8);
        assert!(d1 > 0.0);
    }

    #[test]
    fn sampled_fid_close_to_population() {
        let x = gaussian_samples(4000, &[0.0, 0.0, 0.0], 1.0, 1);
        let y = gaussian_samples(4000, &[1.0, 0.0, 0.0], 1.0, 2);
        let d = fid_score(&x, &y, 1e-6).unwrap();
        // Population FID = 1.0 (pure mean shift); sampling noise allowed.
        assert!((d - 1.0).abs() < 0.15, "d={d}");
    }

    #[test]
    fn same_distribution_fid_near_zero() {
        let x = gaussian_samples(4000, &[0.0, 1.0], 1.0, 3);
        let y = gaussian_samples(4000, &[0.0, 1.0], 1.0, 4);
        let d = fid_score(&x, &y, 1e-6).unwrap();
        assert!(d < 0.05, "d={d}");
    }

    #[test]
    fn too_few_samples_rejected() {
        let x = Mat::from_rows(&[&[1.0, 2.0]]);
        assert!(matches!(
            GaussianStats::fit(&x, 0.0),
            Err(FidError::TooFewSamples { got: 1 })
        ));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = GaussianStats::from_moments(vec![0.0], Mat::identity(1));
        let b = GaussianStats::from_moments(vec![0.0, 0.0], Mat::identity(2));
        assert!(matches!(
            frechet_distance(&a, &b),
            Err(FidError::DimensionMismatch { a: 1, b: 2 })
        ));
    }

    #[test]
    fn ridge_stabilizes_degenerate_covariance() {
        // Perfectly collinear samples make the covariance singular; ridge
        // keeps the computation finite.
        let x = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let y = Mat::from_rows(&[&[0.0, 0.0], &[1.0, 1.0], &[2.0, 2.0]]);
        let d = fid_score(&x, &y, 1e-4).unwrap();
        assert!(d.is_finite());
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            FidError::TooFewSamples { got: 0 },
            FidError::DimensionMismatch { a: 1, b: 2 },
            FidError::Numerical(DecompError::NoConvergence),
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }

    #[test]
    fn centered_moments_need_two_rows() {
        let mut m = CenteredMoments::<2>::new();
        assert!(matches!(
            m.gaussian(&[0.0, 0.0], 0.0),
            Err(FidError::TooFewSamples { got: 0 })
        ));
        m.push(&[0.5, -0.5]);
        assert!(matches!(
            m.gaussian(&[0.0, 0.0], 0.0),
            Err(FidError::TooFewSamples { got: 1 })
        ));
        m.push(&[-0.5, 0.5]);
        assert_eq!(m.count(), 2);
        assert!(m.gaussian(&[0.0, 0.0], 0.0).is_ok());
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn centered_moments_reject_a_shift_of_another_width() {
        let mut m = CenteredMoments::<2>::new();
        m.push(&[1.0, 2.0]);
        m.push(&[2.0, 1.0]);
        let _ = m.gaussian(&[0.0, 0.0, 0.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn centered_moments_do_not_fit_into_a_gaussian_of_another_width() {
        let mut m = CenteredMoments::<2>::new();
        m.push(&[1.0, 2.0]);
        m.push(&[2.0, 1.0]);
        let mut out = GaussianStats::from_moments(vec![0.0; 3], Mat::identity(3));
        let _ = m.gaussian_into(&[0.0, 0.0], 0.0, &mut out);
    }

    #[test]
    #[should_panic(expected = "mean/covariance size mismatch")]
    fn from_moments_rejects_a_mean_of_another_size() {
        let _ = GaussianStats::from_moments(vec![0.0], Mat::identity(2));
    }

    #[test]
    #[should_panic(expected = "covariance must be square")]
    fn from_moments_rejects_a_non_square_covariance() {
        let _ = GaussianStats::from_moments(vec![0.0, 0.0], Mat::zeros(2, 3));
    }

    /// A d = 16 feature set whose columns differ in location and spread and
    /// are correlated, like the synthetic image features.
    fn feature_rows(n: usize, offset: f64, seed: u64) -> Mat {
        let mean: Vec<f64> = (0..16).map(|j| offset + 0.1 * j as f64).collect();
        let mut x = gaussian_samples(n, &mean, 1.0, seed);
        for i in 0..n {
            let row = x.row_mut(i);
            for j in 1..16 {
                row[j] = (0.4 + 0.05 * j as f64) * row[j] + 0.3 * row[j - 1];
            }
        }
        x
    }

    #[test]
    fn the_root_is_taken_once_and_travels_with_clones() {
        let reference = GaussianStats::fit(&feature_rows(2000, 0.0, 1), 1e-6).unwrap();
        let window = GaussianStats::fit(&feature_rows(60, 0.2, 2), 1e-3).unwrap();
        assert!(reference.cov_sqrt.get().is_none());
        let unrooted = reference.clone();
        let first = frechet_distance(&window, &reference).unwrap();
        // Rooted by the call above; the same matrix from then on.
        let root: *const Mat = reference.cov_sqrt().unwrap();
        assert!(std::ptr::eq(root, reference.cov_sqrt().unwrap()));
        let rooted_clone = reference.clone();
        assert!(rooted_clone.cov_sqrt.get().is_some());
        assert!(unrooted.cov_sqrt.get().is_none());
        assert_eq!(reference, unrooted, "equality ignores the root");
        for other in [&reference, &rooted_clone, &unrooted] {
            let again = frechet_distance(&window, other).unwrap();
            assert_eq!(first.to_bits(), again.to_bits());
        }
        // The first argument is never rooted.
        assert!(window.cov_sqrt.get().is_none());
    }

    #[test]
    fn refitting_into_a_rooted_gaussian_drops_its_root() {
        let reference = GaussianStats::fit(&feature_rows(500, 0.0, 3), 1e-6).unwrap();
        reference.cov_sqrt().unwrap();
        let rows = feature_rows(40, 0.3, 4);
        let mut moments = CenteredMoments::<16>::new();
        for i in 0..40 {
            let (row, mean) = (rows.row(i), reference.mean());
            moments.push(&std::array::from_fn(|j| row[j] - mean[j]));
        }
        let fresh = moments.gaussian(reference.mean(), 1e-3).unwrap();
        let mut reused = reference.clone();
        moments
            .gaussian_into(reference.mean(), 1e-3, &mut reused)
            .unwrap();
        assert_eq!(reused, fresh);
        assert!(reused.cov_sqrt.get().is_none());
        assert_eq!(
            frechet_distance(&reference, &reused).unwrap().to_bits(),
            frechet_distance(&reference, &fresh).unwrap().to_bits()
        );
        // Too few rows: an error, and the target untouched.
        moments.clear();
        assert_eq!(moments.count(), 0);
        assert!(moments
            .gaussian_into(reference.mean(), 1e-3, &mut reused)
            .is_err());
        assert_eq!(reused, fresh);
    }

    /// Streams `n` drawn rows through `CenteredMoments<D>` (the first
    /// `split` into one set, the rest into another, then merged) and
    /// asserts every bit against sums written out naively: the count, `Σc`
    /// and the packed upper triangle of `Σccᵀ`, each cell summed in row
    /// order over both halves and the halves then added, as a merge does.
    fn assert_naive_bits<const D: usize>(seed: u64, n: usize, split: usize) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rows: Vec<[f64; D]> = (0..n)
            .map(|_| std::array::from_fn(|_| rng.gen_range(-4.0..4.0)))
            .collect();
        let split = split.min(n);
        let naive = |rows: &[[f64; D]]| {
            let mut sum = vec![0.0; D];
            let mut packed = Vec::new();
            for a in 0..D {
                for b in a..D {
                    let mut cell = 0.0;
                    for row in rows {
                        cell += row[a] * row[b];
                    }
                    packed.push(cell);
                }
            }
            for row in rows {
                for (s, x) in sum.iter_mut().zip(row) {
                    *s += x;
                }
            }
            (sum, packed)
        };
        let (mut head, mut tail) = (CenteredMoments::<D>::new(), CenteredMoments::<D>::new());
        for (i, row) in rows.iter().enumerate() {
            if i < split {
                head.push(row)
            } else {
                tail.push(row)
            }
        }
        head.merge(&tail);
        let ((sum_h, packed_h), (sum_t, packed_t)) = (naive(&rows[..split]), naive(&rows[split..]));
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        let added =
            |a: &[f64], b: &[f64]| -> Vec<f64> { a.iter().zip(b).map(|(x, y)| x + y).collect() };
        assert_eq!(head.count(), n as u64);
        assert_eq!(
            bits(&head.sum),
            bits(&added(&sum_h, &sum_t)),
            "D = {D}: sum"
        );
        assert_eq!(
            bits(&head.scatter),
            bits(&added(&packed_h, &packed_t)),
            "D = {D}: scatter"
        );
    }

    /// [`frechet_distance`] as it was before the kernel: two allocating
    /// products, [`Mat::symmetrize`] and [`diffserve_linalg::sym_eigenvalues`].
    fn frechet_distance_scalar(a: &GaussianStats, b: &GaussianStats) -> Result<f64, FidError> {
        if a.dim() != b.dim() {
            return Err(FidError::DimensionMismatch {
                a: a.dim(),
                b: b.dim(),
            });
        }
        let mean_term: f64 = a
            .mean
            .iter()
            .zip(&b.mean)
            .map(|(x, y)| (x - y) * (x - y))
            .sum();
        let s = b.cov_sqrt()?;
        let mut inner = s.matmul(&a.cov).matmul(s);
        inner.symmetrize();
        let tr_sqrt: f64 = diffserve_linalg::sym_eigenvalues(&inner)?
            .iter()
            .map(|&l| l.max(0.0).sqrt())
            .sum();
        let fid = mean_term + a.cov.trace() + b.cov.trace() - 2.0 * tr_sqrt;
        Ok(fid.max(0.0))
    }

    /// `n` correlated rows of width `d`, like [`feature_rows`].
    fn rows_of_width(d: usize, n: usize, offset: f64, seed: u64) -> Mat {
        let mean: Vec<f64> = (0..d).map(|j| offset + 0.1 * j as f64).collect();
        let mut x = gaussian_samples(n, &mean, 1.0, seed);
        for i in 0..n {
            let row = x.row_mut(i);
            for j in 1..d {
                row[j] = (0.4 + 0.05 * j as f64) * row[j] + 0.3 * row[j - 1];
            }
        }
        x
    }

    /// A fitted Gaussian of width `d` of one of the shapes a report
    /// meets: a window's fit (24–400 rows, the window ridge), a ridge alone
    /// (every row the same), rank-deficient with the run ridge (fewer rows
    /// than features), and rank-deficient with no ridge at all.
    fn shaped_fit(d: usize, kind: usize, seed: u64) -> GaussianStats {
        let offset = (seed % 7) as f64 * 0.1 - 0.3;
        match kind {
            0 => {
                let n = 24 + (seed % 377) as usize;
                GaussianStats::fit(&rows_of_width(d, n, offset, seed), 1e-3).unwrap()
            }
            1 => {
                let row = rows_of_width(d, 1, offset, seed);
                let same: Vec<&[f64]> = (0..5).map(|_| row.row(0)).collect();
                GaussianStats::fit(&Mat::from_rows(&same), 1e-3).unwrap()
            }
            2 => GaussianStats::fit(&rows_of_width(d, (d / 2).max(2), offset, seed), 1e-6).unwrap(),
            _ => GaussianStats::fit(&rows_of_width(d, (d / 2).max(2), offset, seed), 0.0).unwrap(),
        }
    }

    #[test]
    fn a_failing_lane_fails_alone() {
        let reference = GaussianStats::fit(&feature_rows(2000, 0.0, 5), 1e-6).unwrap();
        let mut fitted: Vec<GaussianStats> = (0..4)
            .map(|k| shaped_fit(16, k % 3, 40 + k as u64))
            .collect();
        let mut poisoned = fitted[1].cov().clone();
        poisoned[(3, 7)] = f64::NAN;
        poisoned[(7, 3)] = f64::NAN;
        fitted[1] = GaussianStats::from_moments(fitted[1].mean().to_vec(), poisoned);
        fitted[2] = GaussianStats::from_moments(vec![0.0; 3], Mat::identity(3));
        let mut kernel = FrechetKernel::new();
        let got: Vec<Result<f64, FidError>> = kernel.distances(&fitted, &reference).collect();
        assert_eq!(got.len(), 4);
        assert_eq!(got[1], Err(FidError::Numerical(DecompError::NoConvergence)));
        assert_eq!(got[2], Err(FidError::DimensionMismatch { a: 3, b: 16 }));
        for (g, d) in fitted.iter().zip(&got) {
            let want = frechet_distance_scalar(g, &reference);
            assert_eq!(d.clone().map(f64::to_bits), want.map(f64::to_bits));
        }
        // A reference that cannot be rooted fails every lane with its error.
        let mut broken = reference.cov().clone();
        broken[(0, 0)] = f64::INFINITY;
        let broken = GaussianStats::from_moments(reference.mean().to_vec(), broken);
        for (g, d) in fitted.iter().zip(kernel.distances(&fitted, &broken)) {
            assert_eq!(d, frechet_distance_scalar(g, &broken));
            assert!(d.is_err());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Distances taken through one reused kernel, four at a time with
        /// a ragged last batch, are the pre-kernel scalar distances bit for
        /// bit, at both widths and on every covariance shape.
        #[test]
        fn batched_distances_are_the_scalar_distances_bitwise(
            wide in 0usize..2,
            kinds in proptest::collection::vec(0usize..4, 1..12),
            seed in 0u64..100_000,
        ) {
            let d = [2, 16][wide];
            let reference =
                GaussianStats::fit(&rows_of_width(d, 2000, 0.0, seed), 1e-6).unwrap();
            let fitted: Vec<GaussianStats> = kinds
                .iter()
                .enumerate()
                .map(|(k, &kind)| shaped_fit(d, kind, seed + 1 + k as u64))
                .collect();
            let mut kernel = FrechetKernel::new();
            for batch in fitted.chunks(FrechetKernel::LANES) {
                let got: Vec<_> = kernel.distances(batch, &reference).collect();
                prop_assert_eq!(got.len(), batch.len());
                for (g, d) in batch.iter().zip(got) {
                    let want = frechet_distance_scalar(g, &reference);
                    prop_assert_eq!(d.map(f64::to_bits), want.map(f64::to_bits));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Which Gaussian is rooted does not matter beyond round-off, on the
        /// shapes the report feeds in: a metrics window (24–400 rows, the
        /// window ridge) or a whole run (thousands of rows, the run ridge)
        /// against the reference fit.
        #[test]
        fn either_argument_can_be_the_rooted_one(
            rows in 24usize..401,
            run_shaped in 0usize..2,
            offset in -0.5f64..0.5,
            seed in 0u64..10_000,
        ) {
            let reference = GaussianStats::fit(&feature_rows(2000, 0.0, seed), 1e-6).unwrap();
            let (rows, ridge) = if run_shaped == 1 { (10 * rows, 1e-6) } else { (rows, 1e-3) };
            let fitted = GaussianStats::fit(&feature_rows(rows, offset, seed + 1), ridge).unwrap();
            let forward = frechet_distance(&fitted, &reference).unwrap();
            let backward = frechet_distance(&reference, &fitted).unwrap();
            prop_assert!(forward > 0.0);
            prop_assert!(
                (forward - backward).abs() <= 1e-10 * forward,
                "{} vs {}", forward, backward
            );
        }

        /// Streamed moments give the two-pass fit's Gaussian whatever the
        /// shift, and two sets centred on one shift merge into the set of
        /// all their rows.
        #[test]
        fn centered_moments_match_the_two_pass_fit(
            seed in 0u64..1000,
            n in 2usize..120,
            split in 0usize..120,
            shift_scale in 0.0f64..3.0,
        ) {
            let x = gaussian_samples(n, &[0.7, -1.3, 4.0], 1.5, seed);
            let shift = [0.5 * shift_scale, -shift_scale, 3.0 + shift_scale];
            let (mut head, mut tail) = (CenteredMoments::<3>::new(), CenteredMoments::new());
            for i in 0..n {
                let row = x.row(i);
                let c = std::array::from_fn(|j| row[j] - shift[j]);
                if i < split { head.push(&c) } else { tail.push(&c) }
            }
            head.merge(&tail);
            prop_assert_eq!(head.count(), n as u64);
            let streamed = head.gaussian(&shift, 1e-6).unwrap();
            let two_pass = GaussianStats::fit(&x, 1e-6).unwrap();
            for (a, b) in streamed.mean().iter().zip(two_pass.mean()) {
                prop_assert!((a - b).abs() < 1e-12);
            }
            prop_assert!(streamed.cov().max_abs_diff(two_pass.cov()) < 1e-11);
            prop_assert!(streamed.cov().is_symmetric(0.0));
        }

        /// Push and merge are bitwise a naive accumulation that adds each
        /// row's products into the packed triangle cell by cell, in row
        /// order, at every width the crate's callers use and the edges.
        #[test]
        fn centered_moments_are_the_naive_row_order_sums(
            seed in 0u64..1000,
            n in 0usize..60,
            split in 0usize..60,
        ) {
            assert_naive_bits::<1>(seed, n, split);
            assert_naive_bits::<2>(seed, n, split);
            assert_naive_bits::<3>(seed, n, split);
            assert_naive_bits::<16>(seed, n, split);
        }

        #[test]
        fn fid_nonnegative_and_symmetric(seed_a in 0u64..100, seed_b in 100u64..200) {
            let x = gaussian_samples(64, &[0.3, -0.5], 1.2, seed_a);
            let y = gaussian_samples(64, &[-0.1, 0.4], 0.8, seed_b);
            let d1 = fid_score(&x, &y, 1e-6).unwrap();
            let d2 = fid_score(&y, &x, 1e-6).unwrap();
            prop_assert!(d1 >= 0.0);
            prop_assert!((d1 - d2).abs() < 1e-6);
        }
    }
}
