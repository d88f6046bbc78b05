//! Dense row-major matrices over `f64`.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense row-major matrix of `f64`.
///
/// Sized for the workloads in this workspace: feature covariances (≤ 64×64),
/// simplex tableaus (hundreds of columns), and tiny MLP weights. All
/// operations are plain loops — clarity over BLAS.
///
/// # Examples
///
/// ```
/// use diffserve_linalg::Mat;
///
/// let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Mat::identity(2);
/// let c = a.matmul(&b);
/// assert_eq!(c, a);
/// assert_eq!(c[(1, 0)], 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates a `rows × cols` zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Mat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "from_rows requires non-empty rows");
        let mut m = Mat::zeros(rows.len(), cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "row {i} has inconsistent length");
            m.data[i * cols..(i + 1) * cols].copy_from_slice(row);
        }
        m
    }

    /// Creates a square diagonal matrix from `diag`.
    ///
    /// # Panics
    ///
    /// Panics if `diag` is empty.
    pub fn from_diag(diag: &[f64]) -> Self {
        let mut m = Mat::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The transpose.
    pub fn transpose(&self) -> Mat {
        Mat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Mat::zeros(self.rows, other.cols);
        mul_into(
            &self.data,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
        out
    }

    /// Entry-wise scaling.
    pub fn scale(&self, s: f64) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// Sum of diagonal entries.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry-wise difference with `other`.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch.
    pub fn max_abs_diff(&self, other: &Mat) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Returns `true` if `self` is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Symmetrizes in place: `A ← (A + Aᵀ)/2`. Useful after accumulating
    /// floating-point asymmetries in covariance estimates.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        symmetrize(&mut self.data, self.rows);
    }

    /// The row-major data, without a copy.
    pub(crate) fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Raw data in row-major order.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data in row-major order.
    ///
    /// Intended for optimizers that update parameter matrices as flat
    /// vectors; the dimensions cannot change through this view.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

/// `out = a · b` for row-major `a` (`k` columns) and `b` (`n` columns):
/// each cell starts at zero and adds `a[i][k] · b[k][j]` for every
/// non-zero `a[i][k]`, in `k` order. [`Mat::matmul`]'s body, on buffers the
/// caller may reuse.
pub(crate) fn mul_into(a: &[f64], k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        combine_rows(a_row, b, n, out_row, true);
    }
}

/// `out[c] = Σ_k v[k] · rows[k][c]` for every column `c < out.len()` of
/// the row-major `rows` (`stride` apart, one per entry of `v`): each cell
/// starts at zero and adds its products in `k` order, passing over the `k`
/// with `v[k] = 0` when `skip_zeros`.
///
/// Cells are summed sixteen, then four, then one at a time, each block's
/// sums held in registers for the whole pass over `v`, so no partial sum
/// goes through memory; the blocking changes no cell's operations.
pub(crate) fn combine_rows(
    v: &[f64],
    rows: &[f64],
    stride: usize,
    out: &mut [f64],
    skip_zeros: bool,
) {
    /// The sums of columns `col..col + W`.
    #[inline(always)]
    fn block<const W: usize>(
        v: &[f64],
        rows: &[f64],
        stride: usize,
        col: usize,
        skip_zeros: bool,
    ) -> [f64; W] {
        let mut sums = [0.0; W];
        for (&x, row) in v.iter().zip(rows.chunks(stride)) {
            if skip_zeros && x == 0.0 {
                continue;
            }
            for (s, &y) in sums.iter_mut().zip(&row[col..col + W]) {
                *s += x * y;
            }
        }
        sums
    }
    let mut col = 0;
    let mut rest = out;
    while rest.len() >= 16 {
        let (head, tail) = rest.split_at_mut(16);
        head.copy_from_slice(&block::<16>(v, rows, stride, col, skip_zeros));
        (rest, col) = (tail, col + 16);
    }
    while rest.len() >= 4 {
        let (head, tail) = rest.split_at_mut(4);
        head.copy_from_slice(&block::<4>(v, rows, stride, col, skip_zeros));
        (rest, col) = (tail, col + 4);
    }
    for (c, o) in rest.iter_mut().enumerate() {
        [*o] = block::<1>(v, rows, stride, col + c, skip_zeros);
    }
}

/// `A ← (A + Aᵀ)/2` on the row-major `n × n` block `a`: [`Mat::symmetrize`]'s
/// body.
pub(crate) fn symmetrize(a: &mut [f64], n: usize) {
    for i in 0..n {
        for j in (i + 1)..n {
            let avg = 0.5 * (a[i * n + j] + a[j * n + i]);
            a[i * n + j] = avg;
            a[j * n + i] = avg;
        }
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Mat {
    type Output = Mat;
    fn add(self, rhs: &Mat) -> Mat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "add dims");
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Mat {
    type Output = Mat;
    fn sub(self, rhs: &Mat) -> Mat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "sub dims");
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &Mat {
    type Output = Mat;
    fn mul(self, rhs: f64) -> Mat {
        self.scale(rhs)
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4}", self[(i, j)])?;
                if j + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            writeln!(f, "{}]", if self.cols > 8 { ", ..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// Statistics over a data matrix whose rows are observations.
impl Mat {
    /// Column means of a data matrix (rows = samples).
    pub fn column_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (j, m) in means.iter_mut().enumerate() {
                *m += self[(i, j)];
            }
        }
        for m in &mut means {
            *m /= self.rows as f64;
        }
        means
    }

    /// Sample covariance (denominator `n - 1`) of a data matrix
    /// (rows = samples, cols = features).
    ///
    /// Each data row is centred once, and its products are added into the
    /// packed upper triangle one slice (a row of the triangle) at a time.
    /// Each cell sums `(x[i][a] − m[a])·(x[i][b] − m[b])` from +0.0 over the
    /// data rows in order, then is divided by `n − 1` and mirrored below
    /// the diagonal.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer than two samples.
    pub fn covariance(&self) -> Mat {
        assert!(self.rows >= 2, "covariance requires at least two samples");
        let means = self.column_means();
        let d = self.cols;
        // Row `a` of the upper triangle, cells `(a, a..d)`, follows row
        // `a − 1`'s.
        let mut upper = vec![0.0; d * (d + 1) / 2];
        let mut centred = vec![0.0; d];
        for row in self.data.chunks_exact(d) {
            for ((c, &x), &m) in centred.iter_mut().zip(row).zip(&means) {
                *c = x - m;
            }
            let mut cells = upper.as_mut_slice();
            for (a, &ca) in centred.iter().enumerate() {
                let (this, rest) = cells.split_at_mut(d - a);
                for (cell, &cb) in this.iter_mut().zip(&centred[a..]) {
                    *cell += ca * cb;
                }
                cells = rest;
            }
        }
        let denom = (self.rows - 1) as f64;
        let mut cov = Mat::zeros(d, d);
        let mut sums = upper.iter();
        for a in 0..d {
            for b in a..d {
                let v = sums.next().expect("one sum per upper cell") / denom;
                cov[(a, b)] = v;
                cov[(b, a)] = v;
            }
        }
        cov
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i3 = Mat::identity(3);
        assert_eq!(a.matmul(&i3), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_involution() {
        let a = Mat::from_fn(3, 5, |i, j| (i * 7 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn trace_and_norm() {
        let a = Mat::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert_eq!(a.trace(), 7.0);
        assert_eq!(a.frobenius_norm(), 5.0);
    }

    #[test]
    fn add_sub_scale() {
        let a = Mat::from_rows(&[&[1.0, 2.0]]);
        let b = Mat::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(&a + &b, Mat::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(&b - &a, Mat::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(&a * 2.0, Mat::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn symmetry_checks() {
        let mut a = Mat::from_rows(&[&[1.0, 2.0], &[2.0 + 1e-12, 1.0]]);
        assert!(a.is_symmetric(1e-9));
        assert!(!Mat::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).is_symmetric(1e-9));
        a.symmetrize();
        assert_eq!(a[(0, 1)], a[(1, 0)]);
    }

    #[test]
    fn covariance_of_known_data() {
        // Two perfectly correlated features.
        let d = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let c = d.covariance();
        assert!((c[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((c[(0, 1)] - 2.0).abs() < 1e-12);
        assert!((c[(1, 1)] - 4.0).abs() < 1e-12);
        assert!(c.is_symmetric(1e-12));
    }

    #[test]
    fn column_means() {
        let d = Mat::from_rows(&[&[1.0, 10.0], &[3.0, 30.0]]);
        assert_eq!(d.column_means(), vec![2.0, 20.0]);
    }

    #[test]
    fn from_diag_places_entries() {
        let d = Mat::from_diag(&[1.0, 2.0]);
        assert_eq!(d[(0, 0)], 1.0);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Mat::identity(2)).is_empty());
    }

    #[test]
    fn debug_elides_past_eight_rows_and_columns() {
        assert!(!format!("{:?}", Mat::zeros(8, 8)).contains("..."));
        assert_eq!(format!("{:?}", Mat::zeros(9, 9)).matches("...").count(), 9);
    }

    #[test]
    fn rows_and_raw_data_write_through() {
        let mut a = Mat::zeros(2, 3);
        a.row_mut(1)[2] = 3.0;
        a.as_mut_slice()[0] = 9.0;
        assert_eq!(a.as_slice(), &[9.0, 0.0, 0.0, 0.0, 0.0, 3.0]);
        assert!(!a.is_square() && !a.is_symmetric(f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimensions_panic() {
        let _ = Mat::zeros(0, 3);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn no_rows_panic() {
        let _ = Mat::from_rows(&[]);
    }

    #[test]
    #[should_panic(expected = "inconsistent length")]
    fn ragged_rows_panic() {
        let _ = Mat::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let _ = Mat::identity(2)[(0, 2)];
    }

    #[test]
    #[should_panic(expected = "square matrix")]
    fn trace_of_a_non_square_matrix_panics() {
        let _ = Mat::zeros(2, 3).trace();
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn covariance_needs_two_samples() {
        let _ = Mat::from_rows(&[&[1.0, 2.0]]).covariance();
    }

    /// The covariance as it was computed before the packed triangle: every
    /// cell indexed, both factors centred again at each cell.
    fn covariance_by_index(x: &Mat) -> Mat {
        let means = x.column_means();
        let mut cov = Mat::zeros(x.cols, x.cols);
        for i in 0..x.rows {
            for a in 0..x.cols {
                let da = x[(i, a)] - means[a];
                for b in a..x.cols {
                    cov[(a, b)] += da * (x[(i, b)] - means[b]);
                }
            }
        }
        let denom = (x.rows - 1) as f64;
        for a in 0..x.cols {
            for b in a..x.cols {
                cov[(a, b)] /= denom;
                cov[(b, a)] = cov[(a, b)];
            }
        }
        cov
    }

    /// The product as it was before its cells were summed in register
    /// blocks: row `i` of the output, in memory, takes `a[i][k] · b[k][..]`
    /// for each non-zero `a[i][k]` in turn.
    fn matmul_by_row_axpy(a: &Mat, b: &Mat) -> Mat {
        let mut out = Mat::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            let out_row = &mut out.data[i * b.cols..(i + 1) * b.cols];
            for (k, &x) in a.row(i).iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                for (o, &y) in out_row.iter_mut().zip(b.row(k)) {
                    *o += x * y;
                }
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The blocked product is the row-axpy loop it replaced, bit for
        /// bit, at widths that fill the sixteen- and four-cell blocks and
        /// leave cells over, with exact zeros (skipped) in the left factor
        /// and non-finite entries in the right one.
        #[test]
        fn matmul_matches_the_row_axpy_loop_bitwise(
            m in 1usize..20,
            k in 1usize..20,
            n in 1usize..40,
            zero_stride in 2usize..7,
            seed in 0u64..100_000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a = Mat::from_fn(m, k, |i, j| match (i * k + j) % zero_stride {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-3.0..3.0),
            });
            let b = Mat::from_fn(k, n, |i, j| match (i * n + j) % 29 {
                0 => f64::INFINITY,
                _ => rng.gen_range(-3.0..3.0),
            });
            let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&a.matmul(&b)), bits(&matmul_by_row_axpy(&a, &b)));
        }

        /// The packed covariance is the indexed loop it replaced, bit for
        /// bit, on 1 to 20 columns (16 is the feature width) and 2 to 60
        /// rows, with exact zeros of both signs and a far-off column mean.
        #[test]
        fn covariance_matches_the_indexed_loop_bitwise(
            rows in 2usize..61,
            cols in 1usize..21,
            zero_stride in 2usize..7,
            offset in -1e3f64..1e3,
            seed in 0u64..100_000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let x = Mat::from_fn(rows, cols, |i, j| match (i * cols + j) % zero_stride {
                0 => 0.0,
                1 => -0.0,
                _ => offset * (j % 2) as f64 + rng.gen_range(-3.0..3.0),
            });
            let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&x.covariance()), bits(&covariance_by_index(&x)));
        }
    }
}
