//! Matrix decompositions: the symmetric eigen-solvers (Householder
//! tridiagonalization, then implicit-shift QL with eigenvectors or rational
//! QL without) and the PSD matrix square root needed by the Fréchet
//! distance.

use crate::matrix::Mat;

/// Error from a failed decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompError {
    /// The input must be square.
    NotSquare,
    /// The input must be symmetric.
    NotSymmetric,
    /// The eigen-solver's QL iteration failed to converge within its budget.
    NoConvergence,
}

impl std::fmt::Display for DecompError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            DecompError::NotSquare => "matrix is not square",
            DecompError::NotSymmetric => "matrix is not symmetric",
            DecompError::NoConvergence => "eigendecomposition did not converge",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for DecompError {}

/// Result of a symmetric eigendecomposition: `A = V diag(λ) Vᵀ`.
#[derive(Debug, Clone, PartialEq)]
pub struct SymEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors stored as matrix columns, ordered to match
    /// [`SymEigen::values`].
    pub vectors: Mat,
}

/// Eigendecomposition of a symmetric matrix: Householder reduction to
/// tridiagonal form, then implicit-shift QL with the rotations accumulated
/// into the eigenvectors.
///
/// # Errors
///
/// Returns [`DecompError::NotSquare`], [`DecompError::NotSymmetric`], or
/// [`DecompError::NoConvergence`] if an eigenvalue does not settle within
/// the QL iteration budget or the input holds a non-finite entry (never
/// observed for the ≤64×64 covariances this workspace uses).
pub fn sym_eigen(a: &Mat) -> Result<SymEigen, DecompError> {
    let mut vectors = checked_symmetric(a)?;
    let (mut values, mut off) = tridiagonalize(&mut vectors, true);
    ql_implicit(&mut values, &mut off, &mut vectors)?;
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| values[i].total_cmp(&values[j]));
    Ok(SymEigen {
        values: order.iter().map(|&i| values[i]).collect(),
        vectors: Mat::from_fn(n, n, |r, c| vectors[(r, order[c])]),
    })
}

/// Eigenvalues of a symmetric matrix in ascending order, without the
/// eigenvectors, which are most of [`sym_eigen`]'s cost.
///
/// The matrix is scaled by a power of two (exact, unless an entry falls
/// below the normal range) so that its largest entry lies in `[1, 2)`,
/// reduced to tridiagonal form as in [`sym_eigen`], and the tridiagonal's
/// eigenvalues are found by a rational QL iteration on the squared
/// off-diagonal (after LAPACK's `dsterf`): one square root per iteration
/// and none per rotation. The values agree with `sym_eigen(..).values` to
/// round-off (`1e-12 · ‖A‖ · n` in the tests), not bit for bit.
///
/// # Errors
///
/// As [`sym_eigen`]; a non-finite entry is [`DecompError::NoConvergence`].
pub fn sym_eigenvalues(a: &Mat) -> Result<Vec<f64>, DecompError> {
    let mut work = checked_symmetric(a)?;
    if work.as_slice().iter().any(|x| !x.is_finite()) {
        return Err(DecompError::NoConvergence);
    }
    let largest = work.as_slice().iter().fold(0.0_f64, |m, x| m.max(x.abs()));
    // 2^-k brings `largest` into [1, 2); k is clamped so that 2^k and
    // 2^-k are both normal.
    let k = if largest == 0.0 {
        0
    } else {
        (1023 - ((largest.to_bits() >> 52) & 0x7ff) as i32).clamp(-1022, 1022)
    };
    let (down, up) = (pow2(k), pow2(-k));
    for x in work.as_mut_slice() {
        *x *= down;
    }
    let (mut values, mut off) = tridiagonalize(&mut work, false);
    // off2[i] = e_i², coupling values[i] and values[i + 1].
    off.rotate_left(1);
    for e in &mut off {
        *e *= *e;
    }
    ql_rational(&mut values, &mut off)?;
    for v in &mut values {
        *v *= up;
    }
    values.sort_by(f64::total_cmp);
    Ok(values)
}

/// `2^k` for `k` in `-1022..=1023`.
fn pow2(k: i32) -> f64 {
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// The input checks of the eigen-solvers; returns the symmetrized working
/// copy they reduce in place.
fn checked_symmetric(a: &Mat) -> Result<Mat, DecompError> {
    if !a.is_square() {
        return Err(DecompError::NotSquare);
    }
    let scale = a.frobenius_norm().max(1.0);
    if !a.is_symmetric(1e-8 * scale) {
        return Err(DecompError::NotSymmetric);
    }
    let mut m = a.clone();
    m.symmetrize();
    Ok(m)
}

/// Householder reduction of the symmetric `a` to tridiagonal form
/// `Qᵀ A Q`, returned as `(diag, off)`: the diagonal, and the sub-diagonal
/// in `off[1..]` (`off[0]` is 0). Only the lower triangle of `a` is read.
/// With `vectors`, `a` is overwritten by `Q`; without, its contents are
/// left as scratch.
fn tridiagonalize(a: &mut Mat, vectors: bool) -> (Vec<f64>, Vec<f64>) {
    let n = a.rows();
    let (mut diag, mut off) = (vec![0.0; n], vec![0.0; n]);
    // Row i's Householder vector u zeroes a[i][0..i-1]; it is kept in
    // a[i][0..i] (and u/h in column i when Q is wanted), h = |u|²/2 in
    // diag[i]. `off[0..i]` doubles as the scratch for p = A u / h.
    for i in (1..n).rev() {
        // `above` holds rows 0..i, `u` the reduced part of row i.
        let (above, rest) = a.as_mut_slice().split_at_mut(i * n);
        let u = &mut rest[..i];
        let mut h = 0.0;
        let scale: f64 = if i > 1 {
            u.iter().map(|x| x.abs()).sum()
        } else {
            0.0
        };
        if scale == 0.0 {
            // A single element, or a row already reduced.
            off[i] = u[i - 1];
        } else {
            for x in u.iter_mut() {
                *x /= scale;
                h += *x * *x;
            }
            let f = u[i - 1];
            let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
            off[i] = scale * g;
            h -= f * g;
            u[i - 1] = f - g;
            let mut f = 0.0;
            for j in 0..i {
                if vectors {
                    above[j * n + i] = u[j] / h;
                }
                let mut g = 0.0;
                for (x, y) in above[j * n..=j * n + j].iter().zip(&u[..=j]) {
                    g += x * y;
                }
                let column = above.iter().skip((j + 1) * n + j).step_by(n);
                for (x, y) in column.zip(&u[j + 1..]) {
                    g += x * y;
                }
                off[j] = g / h;
                f += off[j] * u[j];
            }
            // A ← A − u qᵀ − q uᵀ with q = p − (uᵀp / 2h) u.
            let hh = f / (h + h);
            for j in 0..i {
                let f = u[j];
                let g = off[j] - hh * f;
                off[j] = g;
                let row = &mut above[j * n..=j * n + j];
                for ((x, q), y) in row.iter_mut().zip(&off[..=j]).zip(&u[..=j]) {
                    *x -= f * q + g * y;
                }
            }
        }
        diag[i] = h;
    }
    off[0] = 0.0;
    if !vectors {
        for (i, d) in diag.iter_mut().enumerate() {
            *d = a[(i, i)];
        }
        return (diag, off);
    }
    // Accumulate Q = P₁ P₂ … from the stored vectors, first block outward
    // (diag[0] is still 0: row 0 has no reflector).
    for i in 0..n {
        if diag[i] != 0.0 {
            for j in 0..i {
                let mut g = 0.0;
                for k in 0..i {
                    g += a[(i, k)] * a[(k, j)];
                }
                for k in 0..i {
                    let upd = g * a[(k, i)];
                    a[(k, j)] -= upd;
                }
            }
        }
        diag[i] = a[(i, i)];
        a[(i, i)] = 1.0;
        for j in 0..i {
            a[(j, i)] = 0.0;
            a[(i, j)] = 0.0;
        }
    }
    (diag, off)
}

/// QL iterations one eigenvalue may take before the solve is abandoned;
/// convergence is cubic, so a handful is typical.
const MAX_QL_ITERATIONS: usize = 60;

/// Implicit-shift QL on the tridiagonal matrix `tridiagonalize` produced,
/// with the rotations accumulated into `vectors`: on return `diag` holds
/// the eigenvalues (unordered), and the columns of `vectors`, which held
/// the reduction's `Q`, the matching eigenvectors.
fn ql_implicit(diag: &mut [f64], off: &mut [f64], vectors: &mut Mat) -> Result<(), DecompError> {
    let n = diag.len();
    // off[i] now couples diag[i] and diag[i + 1].
    off.rotate_left(1);
    for l in 0..n {
        let mut iterations = 0;
        loop {
            // The block [l, m] ends at the first negligible coupling.
            let mut m = l;
            while m + 1 < n {
                let dd = diag[m].abs() + diag[m + 1].abs();
                if off[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iterations += 1;
            if iterations > MAX_QL_ITERATIONS {
                return Err(DecompError::NoConvergence);
            }
            // Wilkinson shift from the leading 2×2 of the block, then chase
            // the bulge from m back up to l with plane rotations.
            let mut g = (diag[l + 1] - diag[l]) / (2.0 * off[l]);
            let mut r = g.hypot(1.0);
            g = diag[m] - diag[l] + off[l] / (g + r.copysign(g));
            let (mut s, mut c, mut p) = (1.0, 1.0, 0.0);
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * off[i];
                let b = c * off[i];
                r = f.hypot(g);
                off[i + 1] = r;
                if r == 0.0 {
                    // The rotation vanished: deflate here and start over.
                    diag[i + 1] -= p;
                    off[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = diag[i + 1] - p;
                r = (diag[i] - g) * s + 2.0 * c * b;
                p = s * r;
                diag[i + 1] = g + p;
                g = c * r - b;
                for k in 0..n {
                    let row = vectors.row_mut(k);
                    let f = row[i + 1];
                    row[i + 1] = s * row[i] + c * f;
                    row[i] = c * row[i] - s * f;
                }
            }
            if underflow {
                continue;
            }
            diag[l] -= p;
            off[l] = g;
            off[m] = 0.0;
        }
    }
    all_finite(diag)
}

/// Rational QL (the Pal–Walker–Kahan form of LAPACK's `dsterf`) on a
/// tridiagonal matrix given by its diagonal and its *squared* couplings,
/// `off2[i] = e_i²` between `diag[i]` and `diag[i + 1]`: on return `diag`
/// holds the eigenvalues (unordered). A coupling is negligible by
/// [`ql_implicit`]'s test, squared: `e_m² ≤ ε² (|d_m| + |d_{m+1}|)²`.
///
/// The caller scales the matrix so that these squares cannot overflow.
/// The shift takes the one square root of an iteration; its
/// `√(σ² + 1)` needs no `hypot`, since a non-negligible coupling keeps
/// `|σ| < 1/(2ε)`.
fn ql_rational(diag: &mut [f64], off2: &mut [f64]) -> Result<(), DecompError> {
    const EPS2: f64 = f64::EPSILON * f64::EPSILON;
    let n = diag.len();
    for l in 0..n {
        let mut iterations = 0;
        loop {
            let mut m = l;
            while m + 1 < n {
                let dd = diag[m].abs() + diag[m + 1].abs();
                if off2[m] <= EPS2 * dd * dd {
                    off2[m] = 0.0;
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iterations += 1;
            if iterations > MAX_QL_ITERATIONS {
                return Err(DecompError::NoConvergence);
            }
            // Wilkinson shift σ from the leading 2×2 of the block.
            let e = off2[l].sqrt();
            let t = (diag[l + 1] - diag[l]) / (2.0 * e);
            let sigma = diag[l] - e / (t + (t * t + 1.0).sqrt().copysign(t));
            let (mut c, mut s) = (1.0, 0.0);
            let mut gamma = diag[m] - sigma;
            let mut p = gamma * gamma;
            for i in (l..m).rev() {
                let bb = off2[i];
                let r = p + bb;
                if i + 1 != m {
                    off2[i + 1] = s * r;
                }
                let old_c = c;
                c = p / r;
                s = bb / r;
                let old_gamma = gamma;
                let alpha = diag[i];
                gamma = c * (alpha - sigma) - s * old_gamma;
                diag[i + 1] = old_gamma + (alpha - gamma);
                p = if c == 0.0 {
                    old_c * bb
                } else {
                    gamma * gamma / c
                };
            }
            off2[l] = s * p;
            diag[l] = sigma + gamma;
        }
    }
    all_finite(diag)
}

/// A QL iteration's final check: a NaN or infinity, in the input or from
/// an overflow, is no convergence.
fn all_finite(values: &[f64]) -> Result<(), DecompError> {
    if values.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(DecompError::NoConvergence)
    }
}

/// Square root of a symmetric positive semi-definite matrix.
///
/// Computed as `V diag(√max(λ, 0)) Vᵀ`; tiny negative eigenvalues from
/// floating-point noise are clamped to zero, which is the standard practice
/// in FID implementations. The result is exactly symmetric.
///
/// # Errors
///
/// Propagates eigendecomposition failures.
pub fn sqrtm_psd(a: &Mat) -> Result<Mat, DecompError> {
    let eig = sym_eigen(a)?;
    let n = eig.values.len();
    let roots: Vec<f64> = eig.values.iter().map(|&l| l.max(0.0).sqrt()).collect();
    let mut out = Mat::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let (vi, vj) = (eig.vectors.row(i), eig.vectors.row(j));
            let x: f64 = (0..n).map(|k| vi[k] * roots[k] * vj[k]).sum();
            out[(i, j)] = x;
            out[(j, i)] = x;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn random_spd(n: usize, seed: u64) -> Mat {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let b = Mat::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        // BᵀB + n·I is symmetric positive definite.
        let mut spd = b.transpose().matmul(&b);
        for i in 0..n {
            spd[(i, i)] += n as f64;
        }
        spd
    }

    #[test]
    fn eigen_diagonal_matrix() {
        let a = Mat::from_diag(&[3.0, 1.0, 2.0]);
        let eig = sym_eigen(&a).unwrap();
        assert!((eig.values[0] - 1.0).abs() < 1e-10);
        assert!((eig.values[1] - 2.0).abs() < 1e-10);
        assert!((eig.values[2] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn eigen_reconstructs_matrix() {
        let a = random_spd(8, 2);
        let eig = sym_eigen(&a).unwrap();
        let d = Mat::from_diag(&eig.values);
        let r = eig.vectors.matmul(&d).matmul(&eig.vectors.transpose());
        assert!(a.max_abs_diff(&r) < 1e-8);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = random_spd(7, 3);
        let eig = sym_eigen(&a).unwrap();
        let vtv = eig.vectors.transpose().matmul(&eig.vectors);
        assert!(vtv.max_abs_diff(&Mat::identity(7)) < 1e-9);
    }

    #[test]
    fn eigen_rejects_asymmetric() {
        let a = Mat::from_rows(&[&[1.0, 5.0], &[0.0, 1.0]]);
        assert_eq!(sym_eigen(&a).unwrap_err(), DecompError::NotSymmetric);
    }

    #[test]
    fn sqrtm_squares_back() {
        let a = random_spd(6, 4);
        let s = sqrtm_psd(&a).unwrap();
        let r = s.matmul(&s);
        assert!(a.max_abs_diff(&r) < 1e-8);
        assert!(s.is_symmetric(1e-8));
    }

    #[test]
    fn sqrtm_identity() {
        let s = sqrtm_psd(&Mat::identity(4)).unwrap();
        assert!(s.max_abs_diff(&Mat::identity(4)) < 1e-10);
    }

    #[test]
    fn sqrtm_clamps_negative_noise_to_zero() {
        let s = sqrtm_psd(&Mat::from_diag(&[-1e-15, 4.0])).unwrap();
        assert!(s.max_abs_diff(&Mat::from_diag(&[0.0, 2.0])) < 1e-12);
    }

    #[test]
    fn sqrtm_of_a_singular_matrix_squares_back() {
        let a = Mat::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let s = sqrtm_psd(&a).unwrap();
        assert!(a.max_abs_diff(&s.matmul(&s)) < 1e-12);
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            DecompError::NotSquare,
            DecompError::NotSymmetric,
            DecompError::NoConvergence,
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn sqrtm_random_spd(seed in 0u64..200, n in 2usize..8) {
            let a = random_spd(n, seed);
            let s = sqrtm_psd(&a).unwrap();
            prop_assert!(a.max_abs_diff(&s.matmul(&s)) < 1e-7);
        }

        #[test]
        fn eigen_trace_equals_sum(seed in 0u64..200, n in 2usize..8) {
            let a = random_spd(n, seed);
            let eig = sym_eigen(&a).unwrap();
            let sum: f64 = eig.values.iter().sum();
            prop_assert!((sum - a.trace()).abs() < 1e-8);
        }
    }
}
