//! Softmax cross-entropy in matrix form: the loss of the test-only
//! matrix-form training step that `Mlp::fit`'s fused step is checked
//! against.

use diffserve_linalg::Mat;

use crate::layer::softmax;

/// Softmax cross-entropy over a batch of logits.
///
/// Returns the mean loss and the gradient with respect to the logits
/// (`(softmax - onehot) / n`), the canonical fused form.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size or any label is out
/// of range.
pub(crate) fn softmax_cross_entropy(logits: &Mat, labels: &[usize]) -> (f64, Mat) {
    let n = logits.rows();
    assert_eq!(labels.len(), n, "one label per batch row required");
    let probs = softmax(logits);
    let mut loss = 0.0;
    let mut grad = probs.clone();
    for (i, &label) in labels.iter().enumerate() {
        assert!(label < logits.cols(), "label {label} out of range");
        // Clamp for numerical safety; softmax never returns exact zero but
        // denormals can round down.
        loss -= probs[(i, label)].max(1e-300).ln();
        grad[(i, label)] -= 1.0;
    }
    let scale = 1.0 / n as f64;
    (loss * scale, grad.scale(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_perfect_prediction_is_small() {
        let logits = Mat::from_rows(&[&[20.0, -20.0], &[-20.0, 20.0]]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1]);
        assert!(loss < 1e-10, "loss={loss}");
    }

    #[test]
    fn cross_entropy_uniform_is_ln_k() {
        let logits = Mat::from_rows(&[&[0.0, 0.0, 0.0]]);
        let (loss, _) = softmax_cross_entropy(&logits, &[1]);
        assert!((loss - 3.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_gradient_check() {
        let logits = Mat::from_rows(&[&[0.2, -0.4, 0.9], &[1.0, 0.0, -1.0]]);
        let labels = [2usize, 0usize];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-6;
        for i in 0..2 {
            for j in 0..3 {
                let mut bumped = logits.clone();
                bumped[(i, j)] += eps;
                let (lp, _) = softmax_cross_entropy(&bumped, &labels);
                let mut dipped = logits.clone();
                dipped[(i, j)] -= eps;
                let (lm, _) = softmax_cross_entropy(&dipped, &labels);
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (numeric - grad[(i, j)]).abs() < 1e-6,
                    "grad[{i}{j}] numeric={numeric} analytic={}",
                    grad[(i, j)]
                );
            }
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        // Softmax CE gradient per row sums to zero (probs sum 1, minus one).
        let logits = Mat::from_rows(&[&[0.5, 1.5, -0.7]]);
        let (_, grad) = softmax_cross_entropy(&logits, &[1]);
        let sum: f64 = grad.row(0).iter().sum();
        assert!(sum.abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "label")]
    fn out_of_range_label_panics() {
        let logits = Mat::from_rows(&[&[0.0, 0.0]]);
        let _ = softmax_cross_entropy(&logits, &[5]);
    }
}
