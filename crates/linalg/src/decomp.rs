//! Matrix decompositions: the symmetric eigen-solvers (Householder
//! tridiagonalization, then implicit-shift QL with eigenvectors or rational
//! QL without) and the PSD matrix square root needed by the Fréchet
//! distance.

use crate::matrix::{combine_rows, mul_into, symmetrize, Mat};

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

/// The most sandwiches one [`SandwichEigenvalues::solve`] takes: their
/// rational QLs advance one rotation each in turn, so this many serial
/// chains of divides overlap.
pub const LANES: usize = 4;

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
    let n = vectors.rows();
    let (mut values, mut off) = (vec![0.0; n], vec![0.0; n]);
    tridiagonalize(
        vectors.as_mut_slice(),
        n,
        true,
        &mut values,
        &mut off,
        &mut vec![0.0; n],
    );
    ql_implicit(&mut values, &mut off, &mut vectors)?;
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
/// [`SandwichEigenvalues`] runs the same body on up to [`LANES`] matrices
/// at once.
///
/// # Errors
///
/// As [`sym_eigen`]; a non-finite entry is [`DecompError::NoConvergence`].
pub fn sym_eigenvalues(a: &Mat) -> Result<Vec<f64>, DecompError> {
    let work = checked_symmetric(a)?;
    let n = work.rows();
    let mut lane = Lane {
        block: work.into_vec(),
        ..Lane::default()
    };
    solve_lanes(std::slice::from_mut(&mut lane), n);
    match lane.failed {
        Some(e) => Err(e),
        None => Ok(lane.diag),
    }
}

/// Values-only eigen-solves of symmetric sandwiches `S·Σ·S`, up to
/// [`LANES`] at a time, in buffers kept from one solve to the next: once
/// they have grown to the dimension, a solve allocates nothing.
///
/// Each result is, bit for bit, what
/// `sym_eigenvalues(&inner)` returns for `inner = S.matmul(Σ).matmul(S)`
/// after [`Mat::symmetrize`]: the same products, formed in the kept
/// buffers, the same symmetrization (which [`sym_eigenvalues`]'s own
/// copy would only repeat, and symmetrizing is idempotent), and then
/// [`sym_eigenvalues`]'s scaling, reduction and rational QL. The lanes'
/// QLs advance one rotation each in turn, so their divides overlap; a lane
/// that fails — a non-finite entry, or a QL that does not settle — fails
/// alone, and its neighbours' values are the bits they would be alone.
///
/// # Examples
///
/// ```
/// use diffserve_linalg::{sqrtm_psd, Mat, SandwichEigenvalues};
///
/// let root = sqrtm_psd(&Mat::from_diag(&[4.0, 9.0]))?;
/// let (a, b) = (Mat::identity(2), Mat::from_diag(&[1.0, 0.25]));
/// let mut solver = SandwichEigenvalues::new();
/// let values: Vec<Vec<f64>> = solver
///     .solve(&root, &[&a, &b])
///     .map(|v| v.map(<[f64]>::to_vec))
///     .collect::<Result<_, _>>()?;
/// assert!((values[0][1] - 9.0).abs() < 1e-12);
/// assert!((values[1][0] - 2.25).abs() < 1e-12);
/// # Ok::<(), diffserve_linalg::DecompError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SandwichEigenvalues {
    /// `S·Σ` of the lane being formed.
    half: Vec<f64>,
    lanes: [Lane; LANES],
}

impl SandwichEigenvalues {
    /// Empty buffers; the first solve sizes them.
    pub fn new() -> Self {
        SandwichEigenvalues::default()
    }

    /// The eigenvalues of `S·Σᵢ·S`, symmetrized, in ascending order, for
    /// `S = root` and each `Σᵢ` of `middles`, in `middles`' order.
    ///
    /// An item is [`DecompError::NoConvergence`] when its sandwich holds a
    /// non-finite entry or its QL does not settle.
    ///
    /// # Panics
    ///
    /// Panics with more than [`LANES`] middles, or unless `root` and every
    /// middle are square of one size.
    pub fn solve<'s>(
        &'s mut self,
        root: &Mat,
        middles: &[&Mat],
    ) -> impl Iterator<Item = Result<&'s [f64], DecompError>> + 's {
        assert!(middles.len() <= LANES, "at most {LANES} sandwiches a solve");
        assert!(root.is_square(), "the root must be square");
        let n = root.rows();
        self.half.resize(n * n, 0.0);
        let lanes = &mut self.lanes[..middles.len()];
        for (lane, middle) in lanes.iter_mut().zip(middles) {
            assert!(
                middle.rows() == n && middle.cols() == n,
                "sandwich dimension mismatch"
            );
            lane.block.resize(n * n, 0.0);
            mul_into(root.as_slice(), n, middle.as_slice(), n, &mut self.half);
            mul_into(&self.half, n, root.as_slice(), n, &mut lane.block);
            symmetrize(&mut lane.block, n);
        }
        solve_lanes(lanes, n);
        lanes.iter().map(|lane| match &lane.failed {
            Some(e) => Err(e.clone()),
            None => Ok(lane.diag.as_slice()),
        })
    }
}

/// One values-only eigen-solve: the working block (`n × n`, row-major,
/// exactly symmetric), then the diagonal, which ends as the eigenvalues,
/// and the squared couplings.
#[derive(Debug, Clone, Default)]
struct Lane {
    block: Vec<f64>,
    diag: Vec<f64>,
    off2: Vec<f64>,
    /// The reduction's scratch.
    p: Vec<f64>,
    /// The power of two that undoes the block's scaling.
    up: f64,
    ql: RationalQl,
    failed: Option<DecompError>,
}

/// [`sym_eigenvalues`] past its input checks, on every lane's block: the
/// finite check, the power-of-two scaling, the reduction, then the lanes'
/// rational QLs in turn. Each lane ends with its eigenvalues in `diag`,
/// ascending, or its error in `failed`.
fn solve_lanes(lanes: &mut [Lane], n: usize) {
    for lane in lanes.iter_mut() {
        lane.failed = None;
        lane.ql = RationalQl::default();
        lane.diag.resize(n, 0.0);
        lane.off2.resize(n, 0.0);
        lane.p.resize(n, 0.0);
        if lane.block.iter().any(|x| !x.is_finite()) {
            lane.failed = Some(DecompError::NoConvergence);
            continue;
        }
        let largest = lane.block.iter().fold(0.0_f64, |m, x| m.max(x.abs()));
        // 2^-k brings `largest` into [1, 2); k is clamped so that 2^k and
        // 2^-k are both normal.
        let k = if largest == 0.0 {
            0
        } else {
            (1023 - ((largest.to_bits() >> 52) & 0x7ff) as i32).clamp(-1022, 1022)
        };
        let down = pow2(k);
        lane.up = pow2(-k);
        for x in &mut lane.block {
            *x *= down;
        }
        let (diag, off, p) = (&mut lane.diag, &mut lane.off2, &mut lane.p);
        tridiagonalize(&mut lane.block, n, false, diag, off, p);
        // off2[i] = e_i², coupling diag[i] and diag[i + 1].
        lane.off2.rotate_left(1);
        for e in &mut lane.off2 {
            *e *= *e;
        }
    }
    ql_rational(lanes);
    for lane in lanes.iter_mut().filter(|lane| lane.failed.is_none()) {
        for v in &mut lane.diag {
            *v *= lane.up;
        }
        lane.diag.sort_by(f64::total_cmp);
    }
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

/// Householder reduction of the exactly symmetric `n × n` block `a`
/// (row-major) to tridiagonal form `Qᵀ A Q`, written to `diag` and to
/// `off[1..]`, the sub-diagonal (`off[0]` is 0); `p` is `n` cells of
/// scratch. With `vectors`, `a` is overwritten by `Q`; without, its
/// contents are left as scratch.
///
/// The reduction keeps both triangles of the block still to be reduced, so
/// every loop runs along a row: `p = A·u` is a sum of rows scaled by `u`'s
/// entries ([`combine_rows`], which sums whole rows and keeps the first
/// `i` cells), and the rank-2 update a pair of axpys per row. Every entry
/// goes through the operations, in the order, that the textbook
/// lower-triangle loop gives it: an upper entry's products and sums are its
/// mirror's with the operands swapped, which IEEE multiplication and
/// addition do not distinguish, so the two triangles stay mirrors bit for
/// bit.
fn tridiagonalize(
    a: &mut [f64],
    n: usize,
    vectors: bool,
    diag: &mut [f64],
    off: &mut [f64],
    p: &mut [f64],
) {
    diag[0] = 0.0;
    // Row i's Householder vector u zeroes a[i][0..i-1]; it is kept in
    // a[i][0..i] (and u/h in column i when Q is wanted), h = |u|²/2 in
    // diag[i].
    for i in (1..n).rev() {
        // `above` holds rows 0..i, `u` the reduced part of row i.
        let (above, rest) = a.split_at_mut(i * n);
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
            // The divides apart from the sums' serial chains, so that they
            // run side by side.
            for x in u.iter_mut() {
                *x /= scale;
            }
            for x in u.iter() {
                h += x * x;
            }
            let f = u[i - 1];
            let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
            off[i] = scale * g;
            h -= f * g;
            u[i - 1] = f - g;
            if vectors {
                for (j, x) in u.iter().enumerate() {
                    above[j * n + i] = x / h;
                }
            }
            // p = A u over the leading i × i block, added up in u's order:
            // the rows' sums past column i are never read.
            combine_rows(u, above, n, p, false);
            let p = &mut p[..i];
            for pj in p.iter_mut() {
                *pj /= h;
            }
            let mut f = 0.0;
            for (pj, uj) in p.iter().zip(u.iter()) {
                f += pj * uj;
            }
            // A ← A − u qᵀ − q uᵀ with q = p − (uᵀp / 2h) u.
            let hh = f / (h + h);
            for (qj, uj) in p.iter_mut().zip(u.iter()) {
                *qj -= hh * uj;
            }
            for (row, (&uj, &qj)) in above.chunks_exact_mut(n).zip(u.iter().zip(p.iter())) {
                for ((x, qk), uk) in row[..i].iter_mut().zip(p.iter()).zip(u.iter()) {
                    *x -= uj * qk + qj * uk;
                }
            }
        }
        diag[i] = h;
    }
    off[0] = 0.0;
    if !vectors {
        for (i, d) in diag.iter_mut().enumerate() {
            *d = a[i * n + i];
        }
        return;
    }
    // Accumulate Q = P₁ P₂ … from the stored vectors, first block outward
    // (diag[0] is 0: row 0 has no reflector).
    for i in 0..n {
        if diag[i] != 0.0 {
            for j in 0..i {
                let mut g = 0.0;
                for k in 0..i {
                    g += a[i * n + k] * a[k * n + j];
                }
                for k in 0..i {
                    let upd = g * a[k * n + i];
                    a[k * n + j] -= upd;
                }
            }
        }
        diag[i] = a[i * n + i];
        a[i * n + i] = 1.0;
        for j in 0..i {
            a[j * n + i] = 0.0;
            a[i * n + j] = 0.0;
        }
    }
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

/// Rational QL (the Pal–Walker–Kahan form of LAPACK's `dsterf`) on each
/// lane's tridiagonal, given by its diagonal and its *squared* couplings,
/// `off2[i] = e_i²` between `diag[i]` and `diag[i + 1]`: on return each
/// lane's `diag` holds its eigenvalues (unordered), or `failed` says why
/// not. The lanes advance one [`RationalQl::step`] each in turn, so their
/// serial chains of divides overlap; a lane's arithmetic is the same
/// whatever its neighbours do.
///
/// The caller scales each matrix so that these squares cannot overflow.
fn ql_rational(lanes: &mut [Lane]) {
    let mut running = true;
    while running {
        running = false;
        for lane in lanes.iter_mut() {
            if lane.failed.is_some() || lane.ql.done {
                continue;
            }
            match lane.ql.step(&mut lane.diag, &mut lane.off2) {
                Ok(true) => running = true,
                Ok(false) => lane.failed = all_finite(&lane.diag).err(),
                Err(e) => lane.failed = Some(e),
            }
        }
    }
}

/// Where one rational QL stands: the block `[l, m]` it is sweeping, the
/// rotations at `l..next` still to make in it, and the sweep's running
/// values.
#[derive(Debug, Clone, Copy, Default)]
struct RationalQl {
    l: usize,
    m: usize,
    next: usize,
    iterations: usize,
    sigma: f64,
    c: f64,
    s: f64,
    gamma: f64,
    p: f64,
    done: bool,
}

impl RationalQl {
    /// One rotation of the current sweep (the one at `l` closes it), or,
    /// between sweeps, the convergence test and the next sweep's shift.
    /// `Ok(false)` once every eigenvalue has settled.
    ///
    /// A coupling is negligible by [`ql_implicit`]'s test, squared:
    /// `e_m² ≤ ε² (|d_m| + |d_{m+1}|)²`. The shift takes the one square
    /// root of an iteration; its `√(σ² + 1)` needs no `hypot`, since a
    /// non-negligible coupling keeps `|σ| < 1/(2ε)`.
    #[inline]
    fn step(&mut self, diag: &mut [f64], off2: &mut [f64]) -> Result<bool, DecompError> {
        const EPS2: f64 = f64::EPSILON * f64::EPSILON;
        if self.next > self.l {
            let i = self.next - 1;
            self.next = i;
            let bb = off2[i];
            let r = self.p + bb;
            if i + 1 != self.m {
                off2[i + 1] = self.s * r;
            }
            let old_c = self.c;
            self.c = self.p / r;
            self.s = bb / r;
            let old_gamma = self.gamma;
            let alpha = diag[i];
            self.gamma = self.c * (alpha - self.sigma) - self.s * old_gamma;
            diag[i + 1] = old_gamma + (alpha - self.gamma);
            self.p = if self.c == 0.0 {
                old_c * bb
            } else {
                self.gamma * self.gamma / self.c
            };
            if i == self.l {
                off2[i] = self.s * self.p;
                diag[i] = self.sigma + self.gamma;
            }
            return Ok(true);
        }
        let n = diag.len();
        while self.l < n {
            let l = self.l;
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
                self.l += 1;
                self.iterations = 0;
                continue;
            }
            self.iterations += 1;
            if self.iterations > MAX_QL_ITERATIONS {
                return Err(DecompError::NoConvergence);
            }
            // Wilkinson shift σ from the leading 2×2 of the block.
            let e = off2[l].sqrt();
            let t = (diag[l + 1] - diag[l]) / (2.0 * e);
            self.sigma = diag[l] - e / (t + (t * t + 1.0).sqrt().copysign(t));
            self.c = 1.0;
            self.s = 0.0;
            self.gamma = diag[m] - self.sigma;
            self.p = self.gamma * self.gamma;
            self.m = m;
            self.next = m;
            return Ok(true);
        }
        self.done = true;
        Ok(false)
    }
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

    /// The reduction as it was before it kept both triangles: only the
    /// lower triangle is read and written, and `p = A·u` is a dot product
    /// per row that runs along row `j` and then down column `j`.
    fn tridiagonalize_lower(a: &mut Mat, vectors: bool) -> (Vec<f64>, Vec<f64>) {
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

    /// The rational QL as it was before its lanes took turns: one serial
    /// loop per matrix.
    fn ql_rational_serial(diag: &mut [f64], off2: &mut [f64]) -> Result<(), DecompError> {
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

    /// [`sym_eigenvalues`] as it was, on the two bodies above.
    fn sym_eigenvalues_serial(a: &Mat) -> Result<Vec<f64>, DecompError> {
        let mut work = checked_symmetric(a)?;
        if work.as_slice().iter().any(|x| !x.is_finite()) {
            return Err(DecompError::NoConvergence);
        }
        let largest = work.as_slice().iter().fold(0.0_f64, |m, x| m.max(x.abs()));
        let k = if largest == 0.0 {
            0
        } else {
            (1023 - ((largest.to_bits() >> 52) & 0x7ff) as i32).clamp(-1022, 1022)
        };
        let (down, up) = (pow2(k), pow2(-k));
        for x in work.as_mut_slice() {
            *x *= down;
        }
        let (mut values, mut off) = tridiagonalize_lower(&mut work, false);
        off.rotate_left(1);
        for e in &mut off {
            *e *= *e;
        }
        ql_rational_serial(&mut values, &mut off)?;
        for v in &mut values {
            *v *= up;
        }
        values.sort_by(f64::total_cmp);
        Ok(values)
    }

    /// [`sym_eigen`] as it was, on the lower-triangle reduction.
    fn sym_eigen_lower(a: &Mat) -> Result<SymEigen, DecompError> {
        let mut vectors = checked_symmetric(a)?;
        let (mut values, mut off) = tridiagonalize_lower(&mut vectors, true);
        ql_implicit(&mut values, &mut off, &mut vectors)?;
        let n = values.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| values[i].total_cmp(&values[j]));
        Ok(SymEigen {
            values: order.iter().map(|&i| values[i]).collect(),
            vectors: Mat::from_fn(n, n, |r, c| vectors[(r, order[c])]),
        })
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    /// A symmetric `n × n` matrix of one of the shapes the solvers meet:
    /// dense, a low-rank product plus a ridge (a fitted covariance with few
    /// rows), a ridge alone, and dense with whole rows and columns zeroed
    /// (rows the reduction finds already reduced); scaled by `10^exp`.
    fn shaped_symmetric(n: usize, shape: usize, exp: i32, seed: u64) -> Mat {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let scale = 10f64.powi(exp);
        let mut a = match shape {
            0 => {
                let b = Mat::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
                let mut a = &b + &b.transpose();
                a.symmetrize();
                a
            }
            1 => {
                let rank = rng.gen_range(1..=n.div_ceil(2));
                let b = Mat::from_fn(rank, n, |_, _| rng.gen_range(-1.0..1.0));
                let mut a = b.transpose().matmul(&b);
                for i in 0..n {
                    a[(i, i)] += 1e-3;
                }
                a.symmetrize();
                a
            }
            2 => Mat::from_diag(&vec![1e-3; n]),
            _ => {
                let b = Mat::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
                let mut a = b.transpose().matmul(&b);
                a.symmetrize();
                for z in (0..n).filter(|z| z % 3 == 1) {
                    for j in 0..n {
                        a[(z, j)] = 0.0;
                        a[(j, z)] = 0.0;
                    }
                }
                a
            }
        };
        for x in a.as_mut_slice() {
            *x *= scale;
        }
        a
    }

    /// Random symmetric tridiagonals as the reduction hands them to the
    /// QL: a diagonal and squared couplings (some exactly zero).
    fn tridiagonal(n: usize, rng: &mut impl rand::Rng) -> (Vec<f64>, Vec<f64>) {
        let diag = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let mut off2: Vec<f64> = (0..n)
            .map(|_| {
                if rng.gen_range(0..8) == 0 {
                    0.0
                } else {
                    let e: f64 = rng.gen_range(-1.5..1.5);
                    e * e
                }
            })
            .collect();
        off2[n - 1] = 0.0;
        (diag, off2)
    }

    /// Lanes holding these tridiagonals, ready for [`ql_rational`].
    fn lanes_of(tridiagonals: &[(Vec<f64>, Vec<f64>)]) -> Vec<Lane> {
        tridiagonals
            .iter()
            .map(|(diag, off2)| Lane {
                diag: diag.clone(),
                off2: off2.clone(),
                ..Lane::default()
            })
            .collect()
    }

    #[test]
    fn interleaved_ql_matches_the_serial_ql_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        // ≈ 2 000 tridiagonals in batches of one to four.
        for _ in 0..800 {
            let width = rng.gen_range(1..=LANES);
            let tridiagonals: Vec<_> = (0..width)
                .map(|_| {
                    let n = rng.gen_range(1..=24);
                    tridiagonal(n, &mut rng)
                })
                .collect();
            let mut lanes = lanes_of(&tridiagonals);
            ql_rational(&mut lanes);
            for (lane, (diag, off2)) in lanes.iter().zip(&tridiagonals) {
                let (mut diag, mut off2) = (diag.clone(), off2.clone());
                let serial = ql_rational_serial(&mut diag, &mut off2);
                assert_eq!(lane.failed.clone().map_or(Ok(()), Err), serial);
                assert_eq!(bits(&lane.diag), bits(&diag));
                assert_eq!(bits(&lane.off2), bits(&off2));
            }
        }
    }

    #[test]
    fn a_lane_that_does_not_converge_fails_alone() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut tridiagonals: Vec<_> = (0..LANES).map(|_| tridiagonal(16, &mut rng)).collect();
        // A NaN coupling is never negligible: its block never splits, and
        // the lane runs out of iterations.
        tridiagonals[1].1[3] = f64::NAN;
        let mut lanes = lanes_of(&tridiagonals);
        ql_rational(&mut lanes);
        for (k, (lane, (diag, off2))) in lanes.iter().zip(&tridiagonals).enumerate() {
            let mut alone = lanes_of(&[(diag.clone(), off2.clone())]);
            ql_rational(&mut alone);
            assert_eq!(lane.failed.is_some(), k == 1, "lane {k}");
            assert_eq!(lane.failed, alone[0].failed, "lane {k}");
            assert_eq!(bits(&lane.diag), bits(&alone[0].diag), "lane {k}");
        }
        assert_eq!(lanes[1].failed, Some(DecompError::NoConvergence));
    }

    #[test]
    fn sandwiches_are_the_symmetrized_products_eigenvalues_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut solver = SandwichEigenvalues::new();
        // Dimensions change between solves: the buffers follow.
        for (round, n) in [3usize, 16, 2, 16, 5].into_iter().enumerate() {
            let root = sqrtm_psd(&random_spd(n, round as u64)).unwrap();
            let width = rng.gen_range(1..=LANES);
            let mut middles: Vec<Mat> = (0..width)
                .map(|lane| shaped_symmetric(n, lane % 4, 0, rng.gen()))
                .collect();
            if width > 1 {
                middles[width - 1][(0, n - 1)] = f64::INFINITY;
            }
            let refs: Vec<&Mat> = middles.iter().collect();
            let solved: Vec<Result<Vec<f64>, DecompError>> = solver
                .solve(&root, &refs)
                .map(|v| v.map(<[f64]>::to_vec))
                .collect();
            assert_eq!(solved.len(), width);
            for (lane, (got, middle)) in solved.iter().zip(&middles).enumerate() {
                let mut inner = root.matmul(middle).matmul(&root);
                inner.symmetrize();
                let want = sym_eigenvalues_serial(&inner);
                assert_eq!(got.is_err(), width > 1 && lane == width - 1);
                assert_eq!(
                    got.as_ref().map(|v| bits(v)),
                    want.as_ref().map(|v| bits(v)),
                    "n = {n}, lane {lane}"
                );
            }
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The eigen-solvers give their pre-batching bodies' bits — values,
        /// vectors and errors — on every shape, dimension and scale.
        #[test]
        fn eigen_solvers_match_their_serial_bodies_bitwise(
            n in 1usize..20,
            shape in 0usize..4,
            exp in -300i32..300,
            seed in 0u64..100_000,
        ) {
            let a = shaped_symmetric(n, shape, exp, seed);
            let values = sym_eigenvalues(&a);
            let serial = sym_eigenvalues_serial(&a);
            prop_assert_eq!(values.map(|v| bits(&v)), serial.map(|v| bits(&v)));
            let (eigen, lower) = (sym_eigen(&a), sym_eigen_lower(&a));
            prop_assert_eq!(eigen.is_ok(), lower.is_ok());
            if let (Ok(eigen), Ok(lower)) = (eigen, lower) {
                prop_assert_eq!(bits(&eigen.values), bits(&lower.values));
                prop_assert_eq!(bits(eigen.vectors.as_slice()), bits(lower.vectors.as_slice()));
            }
        }
    }
}
