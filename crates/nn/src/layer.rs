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

    /// One row of [`Dense::forward`] into `out` (one cell per output),
    /// through ReLU if `relu`: accumulates in `Mat::matmul`'s order (input
    /// index outer, output index inner, exact-zero inputs skipped), then
    /// adds the bias, so each cell has the batched pass's bits.
    pub(crate) fn forward_row(&self, x: &[f64], out: &mut [f64], relu: bool) {
        out.fill(0.0);
        for (&a, row) in x.iter().zip(self.w.as_slice().chunks_exact(out.len())) {
            if a == 0.0 {
                continue;
            }
            for (o, &w) in out.iter_mut().zip(row) {
                *o += a * w;
            }
        }
        for (o, &b) in out.iter_mut().zip(&self.b) {
            *o += b;
            if relu {
                *o = o.max(0.0);
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
}
