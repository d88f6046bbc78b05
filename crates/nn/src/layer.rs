//! Dense layers and activations.

use diffserve_linalg::Mat;
use rand::Rng;

/// A fully-connected layer `y = x·W + b`.
///
/// Weights are stored `(in × out)` so a batch `(n × in)` maps to `(n × out)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    w: Mat,
    b: Vec<f64>,
}

impl Dense {
    /// Creates a layer with He-initialized weights and zero biases.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng + ?Sized>(inputs: usize, outputs: usize, rng: &mut R) -> Self {
        assert!(
            inputs > 0 && outputs > 0,
            "layer dimensions must be positive"
        );
        let std = (2.0 / inputs as f64).sqrt();
        // Box–Muller-free init: uniform scaled to match He variance closely
        // enough for these shallow nets, kept dependency-free.
        let half_width = std * 3.0f64.sqrt();
        let w = Mat::from_fn(inputs, outputs, |_, _| {
            rng.gen_range(-half_width..half_width)
        });
        Dense {
            w,
            b: vec![0.0; outputs],
        }
    }

    /// Input width.
    pub fn inputs(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn outputs(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass for a batch `(n × in)`.
    ///
    /// # Panics
    ///
    /// Panics if the batch width does not match the layer input width.
    pub fn forward(&self, x: &Mat) -> Mat {
        let mut out = x.matmul(&self.w);
        for i in 0..out.rows() {
            for (j, &b) in self.b.iter().enumerate() {
                out[(i, j)] += b;
            }
        }
        out
    }

    /// [`Dense::forward`] of the rows `x` (each `inputs()` wide) into `out`
    /// (each `outputs()` wide), through ReLU if `relu`: each cell sums its
    /// products by [`times`] in ascending input index from +0.0, then adds
    /// the bias, so it has the batched pass's bits. `Mat::matmul` skips
    /// exact-zero inputs and this pass adds them; with finite weights that
    /// product is ±0.0, which leaves the sum's bits alone (see [`times`]).
    #[inline(always)]
    pub(crate) fn forward_rows(&self, x: &[f64], out: &mut [f64], relu: bool) {
        times(Left::Rows(x), self.w.as_slice(), self.outputs(), out);
        for row in out.chunks_exact_mut(self.outputs()) {
            for (o, &b) in row.iter_mut().zip(&self.b) {
                *o += b;
                if relu {
                    *o = o.max(0.0);
                }
            }
        }
    }

    /// Backward pass. Given the upstream gradient `d_out` `(n × out)` and the
    /// cached forward input `x`, returns `(d_x, d_w, d_b)`.
    #[cfg(test)]
    pub(crate) fn backward(&self, x: &Mat, d_out: &Mat) -> (Mat, Mat, Vec<f64>) {
        let d_x = d_out.matmul(&self.w.transpose());
        let d_w = x.transpose().matmul(d_out);
        let mut d_b = vec![0.0; self.outputs()];
        for i in 0..d_out.rows() {
            for (j, db) in d_b.iter_mut().enumerate() {
                *db += d_out[(i, j)];
            }
        }
        (d_x, d_w, d_b)
    }

    /// Mutable access to the weights (used by optimizers).
    pub(crate) fn params_mut(&mut self) -> (&mut Mat, &mut Vec<f64>) {
        (&mut self.w, &mut self.b)
    }

    /// Shared access to the weights.
    pub fn weights(&self) -> &Mat {
        &self.w
    }

    /// Shared access to the biases.
    pub fn biases(&self) -> &[f64] {
        &self.b
    }
}

/// The left operand of [`times`], `rows × depth`.
#[derive(Clone, Copy)]
pub(crate) enum Left<'a> {
    /// The operand in row-major order: a batch of rows.
    Rows(&'a [f64]),
    /// Its transpose in row-major order, `depth × rows`: a batch whose
    /// columns are the operand's rows, as in a weight gradient `xᵀ·d`.
    Transposed(&'a [f64]),
}

/// `out = l·m` for the `rows × depth` left operand `l`, the row-major
/// `depth × cols` matrix `m` and the row-major `rows × cols` matrix `out`.
///
/// Branch-free and register-blocked: each tile of output cells keeps its
/// sums in eight vector registers over the whole depth (four lanes each
/// under AVX2), enough independent additions to hide an addition's
/// latency. A tile is 2 rows × 16 columns where 16 columns are left, else
/// 4 × 8, 8 × 4, 8 × 2 (a 2-wide logit layer) or 8 × 1; rows that do not
/// fill a tile take one-row tiles, so a single row (the per-query forward)
/// sums 16 cells at a time. Each cell starts at +0.0 and adds
/// `l[i][k]·m[k][j]` in ascending `k`, so it has the bits of the loop that
/// skips exact-zero `l[i][k]` (`Mat::matmul`'s) whenever `m` is finite: an
/// exact-zero `l[i][k]` makes a ±0.0 product, and in round-to-nearest a
/// sum that starts at +0.0 never becomes −0.0, so adding ±0.0 leaves it as
/// it was.
///
/// # Panics
///
/// Panics if `cols` is zero, `m` is empty, or the slices do not hold whole
/// matrices of matching shapes.
#[inline(always)]
pub(crate) fn times(l: Left<'_>, m: &[f64], cols: usize, out: &mut [f64]) {
    assert!(cols > 0 && !m.is_empty(), "times needs a non-empty product");
    let (depth, rows) = (m.len() / cols, out.len() / cols);
    let l_len = match l {
        Left::Rows(l) | Left::Transposed(l) => l.len(),
    };
    assert!(
        m.len() == depth * cols && out.len() == rows * cols && l_len == rows * depth,
        "times dimension mismatch"
    );
    let product = Product { l, m, cols, depth };
    let mut j0 = 0;
    while j0 < cols {
        j0 += match cols - j0 {
            16.. => product.columns::<2, 16>(j0, out),
            8.. => product.columns::<4, 8>(j0, out),
            4.. => product.columns::<8, 4>(j0, out),
            2.. => product.columns::<8, 2>(j0, out),
            _ => product.columns::<8, 1>(j0, out),
        };
    }
}

/// The operands of one [`times`] call.
struct Product<'a> {
    l: Left<'a>,
    m: &'a [f64],
    cols: usize,
    depth: usize,
}

impl Product<'_> {
    /// The `J` columns from `j0` on of every row of `out`: tiles of `R`
    /// rows, then the rows left one at a time. Returns `J`.
    #[inline(always)]
    fn columns<const R: usize, const J: usize>(&self, j0: usize, out: &mut [f64]) -> usize {
        let rows = out.len() / self.cols;
        let mut i0 = 0;
        while i0 + R <= rows {
            self.tile::<R, J>(i0, j0, out);
            i0 += R;
        }
        while i0 < rows {
            self.tile::<1, J>(i0, j0, out);
            i0 += 1;
        }
        J
    }

    /// The `R × J` cells from `(i0, j0)` on, each summed from +0.0 in
    /// ascending `k`.
    #[inline(always)]
    fn tile<const R: usize, const J: usize>(&self, i0: usize, j0: usize, out: &mut [f64]) {
        let mut acc = [[0.0; J]; R];
        let (cols, depth) = (self.cols, self.depth);
        // Plain loops: an iterator adapter here may stay a call, and a
        // call spills the tile's registers at every step.
        match self.l {
            Left::Rows(l) => {
                let mut l_rows: [&[f64]; R] = [&[]; R];
                for (i, l_row) in l_rows.iter_mut().enumerate() {
                    *l_row = &l[(i0 + i) * depth..][..depth];
                }
                for k in 0..depth {
                    let m_row = &self.m[k * cols + j0..][..J];
                    for (acc_row, l_row) in acc.iter_mut().zip(&l_rows) {
                        add_scaled(acc_row, l_row[k], m_row);
                    }
                }
            }
            Left::Transposed(l) => {
                let rows = l.len() / depth;
                for k in 0..depth {
                    let l_col = &l[k * rows + i0..][..R];
                    let m_row = &self.m[k * cols + j0..][..J];
                    for (acc_row, &s) in acc.iter_mut().zip(l_col) {
                        add_scaled(acc_row, s, m_row);
                    }
                }
            }
        }
        for (i, acc_row) in acc.iter().enumerate() {
            let at = (i0 + i) * self.cols + j0;
            out[at..at + J].copy_from_slice(acc_row);
        }
    }
}

/// `acc[c] += s · v[c]` for every cell of `acc`.
#[inline(always)]
fn add_scaled<const J: usize>(acc: &mut [f64; J], s: f64, v: &[f64]) {
    // One length for both, so the tile unrolls into registers.
    let v = &v[..J];
    for (c, &x) in acc.iter_mut().zip(v) {
        *c += s * x;
    }
}

/// Element-wise ReLU.
pub(crate) fn relu(x: &Mat) -> Mat {
    Mat::from_fn(x.rows(), x.cols(), |i, j| x[(i, j)].max(0.0))
}

/// Gradient of ReLU given the forward *input* and upstream gradient.
#[cfg(test)]
pub(crate) fn relu_backward(input: &Mat, d_out: &Mat) -> Mat {
    Mat::from_fn(input.rows(), input.cols(), |i, j| {
        if input[(i, j)] > 0.0 {
            d_out[(i, j)]
        } else {
            0.0
        }
    })
}

/// Row-wise numerically-stable softmax.
pub fn softmax(logits: &Mat) -> Mat {
    let mut out = logits.clone();
    for i in 0..out.rows() {
        softmax_row(out.row_mut(i));
    }
    out
}

/// Softmax of one row of logits, in place: subtracts the row maximum,
/// exponentiates, then divides by the sum accumulated in index order.
#[inline(always)]
pub(crate) fn softmax_row(row: &mut [f64]) {
    let row_max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for p in row.iter_mut() {
        *p = (*p - row_max).exp();
        sum += *p;
    }
    for p in row.iter_mut() {
        *p /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn dense_forward_shape_and_bias() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut layer = Dense::new(3, 2, &mut rng);
        {
            let (w, b) = layer.params_mut();
            *w = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
            b.copy_from_slice(&[0.5, -0.5]);
        }
        let x = Mat::from_rows(&[&[1.0, 2.0, 3.0]]);
        let y = layer.forward(&x);
        assert_eq!(y.rows(), 1);
        assert_eq!(y.cols(), 2);
        assert!((y[(0, 0)] - 4.5).abs() < 1e-12);
        assert!((y[(0, 1)] - 4.5).abs() < 1e-12);
    }

    #[test]
    fn relu_clamps_negatives() {
        let x = Mat::from_rows(&[&[-1.0, 2.0], &[0.0, -3.0]]);
        let y = relu(&x);
        assert_eq!(y[(0, 0)], 0.0);
        assert_eq!(y[(0, 1)], 2.0);
        assert_eq!(y[(1, 1)], 0.0);
    }

    #[test]
    fn relu_backward_masks() {
        let input = Mat::from_rows(&[&[-1.0, 2.0]]);
        let d_out = Mat::from_rows(&[&[5.0, 5.0]]);
        let d_in = relu_backward(&input, &d_out);
        assert_eq!(d_in[(0, 0)], 0.0);
        assert_eq!(d_in[(0, 1)], 5.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[1000.0, 1000.0, 1000.0]]);
        let p = softmax(&logits);
        for i in 0..2 {
            let sum: f64 = p.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
        // Large logits must not overflow.
        assert!((p[(1, 0)] - 1.0 / 3.0).abs() < 1e-12);
        // Monotonic in logits.
        assert!(p[(0, 2)] > p[(0, 1)] && p[(0, 1)] > p[(0, 0)]);
    }

    #[test]
    fn dense_backward_gradient_check() {
        // Finite-difference check of dW on a tiny layer.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut layer = Dense::new(2, 2, &mut rng);
        let x = Mat::from_rows(&[&[0.3, -0.7], &[1.1, 0.4]]);
        // Loss = sum(forward(x)) → d_out is all ones.
        let d_out = Mat::from_fn(2, 2, |_, _| 1.0);
        let (_, d_w, d_b) = layer.backward(&x, &d_out);

        let eps = 1e-6;
        for i in 0..2 {
            for j in 0..2 {
                let base: f64 = layer.forward(&x).as_slice().iter().sum();
                {
                    let (w, _) = layer.params_mut();
                    w[(i, j)] += eps;
                }
                let bumped: f64 = layer.forward(&x).as_slice().iter().sum();
                {
                    let (w, _) = layer.params_mut();
                    w[(i, j)] -= eps;
                }
                let numeric = (bumped - base) / eps;
                assert!(
                    (numeric - d_w[(i, j)]).abs() < 1e-4,
                    "dW[{i}{j}]: numeric={numeric} analytic={}",
                    d_w[(i, j)]
                );
            }
        }
        // Bias gradient: each output column receives batch-size ones.
        assert!((d_b[0] - 2.0).abs() < 1e-12);
        assert!((d_b[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "layer dimensions must be positive")]
    fn zero_width_layer_panics() {
        let _ = Dense::new(3, 0, &mut rand::rngs::StdRng::seed_from_u64(1));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn forward_rejects_a_batch_of_the_wrong_width() {
        let layer = Dense::new(3, 2, &mut rand::rngs::StdRng::seed_from_u64(1));
        let _ = layer.forward(&Mat::zeros(1, 2));
    }

    /// `len` cells in `(-3, 3)`, with +0.0 and −0.0 every `zero_stride + 2`.
    fn cells(len: usize, zero_stride: usize, rng: &mut rand::rngs::StdRng) -> Vec<f64> {
        use rand::Rng;
        (0..len)
            .map(|i| match i % (zero_stride + 2) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-3.0..3.0),
            })
            .collect()
    }

    /// The bits of a cell slice.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// `times` over a batch of rows (the forward pass's form) is the
        /// zero-skipping loop it replaced, bit for bit: widths up to 40
        /// span two full 16-column tiles and every narrower one, batches of
        /// up to 20 rows fill multi-row tiles and leave rows over, and both
        /// operands carry exact zeros of both signs.
        #[test]
        fn row_times_matches_the_zero_skipping_loop(
            rows in 1usize..21,
            inputs in 1usize..41,
            outputs in 1usize..41,
            zero_stride in 0usize..5,
            seed in 0u64..100_000,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let x = cells(rows * inputs, zero_stride, &mut rng);
            let m = cells(inputs * outputs, zero_stride + 1, &mut rng);
            let mut want = vec![0.0; rows * outputs];
            for (x_row, want_row) in x.chunks_exact(inputs).zip(want.chunks_exact_mut(outputs)) {
                for (&a, row) in x_row.iter().zip(m.chunks_exact(outputs)) {
                    if a == 0.0 {
                        continue;
                    }
                    for (o, &w) in want_row.iter_mut().zip(row) {
                        *o += a * w;
                    }
                }
            }
            let mut got = vec![f64::NAN; rows * outputs];
            times(Left::Rows(&x), &m, outputs, &mut got);
            proptest::prop_assert_eq!(bits(&got), bits(&want));
        }

        /// `times` over a batch's transpose (the weight gradient's form) is
        /// the zero-skipping loop it replaced, bit for bit, over batches of
        /// up to 40 rows and widths up to 40.
        #[test]
        fn gram_matches_the_zero_skipping_loop(
            rows in 1usize..41,
            inputs in 1usize..41,
            outputs in 1usize..41,
            zero_stride in 0usize..5,
            seed in 0u64..100_000,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a = cells(rows * inputs, zero_stride, &mut rng);
            let d = cells(rows * outputs, zero_stride + 1, &mut rng);
            let mut want = vec![0.0; inputs * outputs];
            for (a_row, d_row) in a.chunks_exact(inputs).zip(d.chunks_exact(outputs)) {
                for (&s, w_row) in a_row.iter().zip(want.chunks_exact_mut(outputs)) {
                    if s == 0.0 {
                        continue;
                    }
                    for (w, &g) in w_row.iter_mut().zip(d_row) {
                        *w += s * g;
                    }
                }
            }
            let mut got = vec![f64::NAN; inputs * outputs];
            times(Left::Transposed(&a), &d, outputs, &mut got);
            proptest::prop_assert_eq!(bits(&got), bits(&want));
        }
    }
}
