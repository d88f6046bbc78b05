//! Multi-layer perceptron classifier with a built-in training loop.

use diffserve_linalg::Mat;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::layer::{relu, softmax, softmax_row, Dense};
use crate::optim::Adam;

/// A feed-forward classifier: dense layers with ReLU between them and a
/// linear logit head.
///
/// This is the substrate behind the DiffServe discriminator: the paper uses
/// EfficientNet-V2 on pixels; the reproduction trains an MLP on the synthetic
/// image features that stand in for pixels (see `diffserve-imagegen`).
///
/// # Examples
///
/// ```
/// use diffserve_nn::{Adam, Mlp, TrainConfig};
/// use diffserve_linalg::Mat;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut model = Mlp::new(&[2, 8, 2], &mut rng);
/// // Learn y = x0 > x1 from a handful of points.
/// let x = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.9, 0.1], &[0.2, 0.8]]);
/// let y = [0usize, 1, 0, 1];
/// let mut opt = Adam::new(0.05);
/// model.fit(&x, &y, &mut opt, &TrainConfig { epochs: 200, batch_size: 4, shuffle: true }, &mut rng);
/// assert_eq!(model.predict(&x), vec![0, 1, 0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

/// Training-loop hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Whether to reshuffle the data each epoch.
    pub shuffle: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch_size: 64,
            shuffle: true,
        }
    }
}

impl Mlp {
    /// Creates an MLP from layer widths, e.g. `&[16, 32, 2]` for a
    /// 16-feature input, one hidden layer of 32, and 2 output classes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given or any width is zero.
    pub fn new<R: Rng + ?Sized>(widths: &[usize], rng: &mut R) -> Self {
        assert!(widths.len() >= 2, "need at least input and output widths");
        let layers = widths
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], rng))
            .collect();
        Mlp { layers }
    }

    /// Forward pass returning logits for a batch `(n × in)`.
    pub fn logits(&self, x: &Mat) -> Mat {
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(&h);
            if i + 1 < self.layers.len() {
                h = relu(&h);
            }
        }
        h
    }

    /// Class probabilities (softmax of the logits).
    pub fn predict_proba(&self, x: &Mat) -> Mat {
        softmax(&self.logits(x))
    }

    /// Width of the widest layer, input included: a row forward needs
    /// `2 × max_width()` scratch cells.
    pub fn max_width(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.inputs().max(l.outputs()))
            .max()
            .expect("an MLP has at least one layer")
    }

    /// Class probabilities of one input row without allocating: the
    /// activations ping-pong between the two halves of `scratch`, and the
    /// returned slice (one probability per class) borrows from it.
    ///
    /// Bit-identical to [`Mlp::predict_proba`] on the 1-row matrix: each
    /// layer accumulates in `Mat::matmul`'s order (input index outer,
    /// output index inner, exact-zero inputs skipped), then adds the bias
    /// and applies the same ReLU and max-shifted softmax.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the input width or `scratch` holds
    /// fewer than `2 × max_width()` cells.
    pub fn predict_proba_row<'s>(&self, x: &[f64], scratch: &'s mut [f64]) -> &'s [f64] {
        let width = self.max_width();
        assert!(
            scratch.len() >= 2 * width,
            "row forward needs {} scratch cells, got {}",
            2 * width,
            scratch.len()
        );
        assert_eq!(x.len(), self.layers[0].inputs(), "input width mismatch");
        let (mut cur, mut next) = scratch.split_at_mut(width);
        cur[..x.len()].copy_from_slice(x);
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            layer.forward_row(
                &cur[..layer.inputs()],
                &mut next[..layer.outputs()],
                i < last,
            );
            std::mem::swap(&mut cur, &mut next);
        }
        let probs = &mut cur[..self.layers[last].outputs()];
        softmax_row(probs);
        probs
    }

    /// Hard class predictions (argmax).
    pub fn predict(&self, x: &Mat) -> Vec<usize> {
        let p = self.logits(x);
        (0..p.rows())
            .map(|i| {
                let row = p.row(i);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                    .map(|(j, _)| j)
                    .expect("non-empty row")
            })
            .collect()
    }

    /// Trains for `config.epochs` passes and returns each epoch's mean
    /// batch loss.
    ///
    /// Each mini-batch is one fused step over buffers allocated once per
    /// call: the batch's rows are read from `x` by index, the hidden
    /// activations, the logit gradient and the weight gradients land in
    /// those buffers, and nothing is built per batch. Every product keeps
    /// `Mat::matmul`'s order for each element (inner index ascending,
    /// exact-zero left operands skipped, bias added after the sum), so the
    /// weights come out bit-identical to the matrix-form step: forward,
    /// `(softmax − onehot)·(1/n)`, `d_W = xᵀ·d`, and `d_x = d·Wᵀ` from a
    /// transposed copy of `W` taken before the Adam update.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the number of rows of `x`, `x`
    /// does not match the input width, a label is out of range, or the
    /// batch size is zero.
    pub fn fit<R: Rng + ?Sized>(
        &mut self,
        x: &Mat,
        labels: &[usize],
        optimizer: &mut Adam,
        config: &TrainConfig,
        rng: &mut R,
    ) -> Vec<f64> {
        assert_eq!(x.rows(), labels.len(), "one label per sample required");
        assert_eq!(x.cols(), self.layers[0].inputs(), "input width mismatch");
        assert!(config.batch_size > 0, "batch size must be positive");
        let classes = self.layers[self.layers.len() - 1].outputs();
        for &label in labels {
            assert!(label < classes, "label {label} out of range");
        }
        let n = x.rows();
        let mut order: Vec<usize> = (0..n).collect();
        let mut buffers = TrainBuffers::new(self, config.batch_size.min(n));
        let mut losses = Vec::with_capacity(config.epochs);
        for _ in 0..config.epochs {
            if config.shuffle {
                order.shuffle(rng);
            }
            let mut loss_sum = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(config.batch_size) {
                loss_sum += self.train_step(x, labels, chunk, &mut buffers, optimizer);
                batches += 1;
            }
            losses.push(loss_sum / batches.max(1) as f64);
        }
        losses
    }

    /// One forward+backward pass over the rows `rows` of `x`, applying the
    /// optimizer (two slots per layer: weights, then biases). Returns the
    /// batch loss.
    fn train_step(
        &mut self,
        x: &Mat,
        labels: &[usize],
        rows: &[usize],
        buf: &mut TrainBuffers,
        optimizer: &mut Adam,
    ) -> f64 {
        let n = rows.len();
        let last = self.layers.len() - 1;

        // Forward: hidden activations (after ReLU) into `acts`, logits into
        // `grad`.
        for (l, layer) in self.layers.iter().enumerate() {
            let (done, rest) = buf.acts.split_at_mut(l);
            let out = if l < last {
                &mut rest[0]
            } else {
                &mut buf.grad
            };
            for (r, out_row) in out.chunks_exact_mut(layer.outputs()).take(n).enumerate() {
                let input = layer_input(x, rows, done, l, layer.inputs(), r);
                layer.forward_row(input, out_row, l < last);
            }
        }

        // Loss, and its gradient `(softmax − onehot)·(1/n)` over the logits
        // in place.
        let scale = 1.0 / n as f64;
        let mut loss = 0.0;
        let classes = self.layers[last].outputs();
        for (g, &row) in buf.grad.chunks_exact_mut(classes).zip(rows) {
            softmax_row(g);
            let label = labels[row];
            // Clamp for numerical safety; softmax never returns exact zero
            // but denormals can round down.
            loss -= g[label].max(1e-300).ln();
            g[label] -= 1.0;
            for v in g.iter_mut() {
                *v *= scale;
            }
        }

        // Backward: `grad` holds the gradient of layer `l`'s output.
        for l in (0..=last).rev() {
            let (inputs, outputs) = (self.layers[l].inputs(), self.layers[l].outputs());
            let d = &buf.grad[..n * outputs];
            let d_w = &mut buf.d_w[..inputs * outputs];
            let d_b = &mut buf.d_b[..outputs];
            d_w.fill(0.0);
            d_b.fill(0.0);
            for (r, d_row) in d.chunks_exact(outputs).enumerate() {
                let input = layer_input(x, rows, &buf.acts, l, inputs, r);
                for (&a, dw_row) in input.iter().zip(d_w.chunks_exact_mut(outputs)) {
                    if a == 0.0 {
                        continue;
                    }
                    for (w, &g) in dw_row.iter_mut().zip(d_row) {
                        *w += a * g;
                    }
                }
                for (b, &g) in d_b.iter_mut().zip(d_row) {
                    *b += g;
                }
            }
            // Layer 0's input gradient is never needed.
            if l > 0 {
                let w_t = &mut buf.w_t[..inputs * outputs];
                for (k, w_row) in self.layers[l]
                    .weights()
                    .as_slice()
                    .chunks_exact(outputs)
                    .enumerate()
                {
                    for (j, &w) in w_row.iter().enumerate() {
                        w_t[j * inputs + k] = w;
                    }
                }
                let d_x = &mut buf.d_x[..n * inputs];
                d_x.fill(0.0);
                let below = buf.acts[l - 1].chunks_exact(inputs);
                for ((dx_row, d_row), act_row) in d_x
                    .chunks_exact_mut(inputs)
                    .zip(d.chunks_exact(outputs))
                    .zip(below)
                {
                    for (&a, wt_row) in d_row.iter().zip(w_t.chunks_exact(inputs)) {
                        if a == 0.0 {
                            continue;
                        }
                        for (v, &w) in dx_row.iter_mut().zip(wt_row) {
                            *v += a * w;
                        }
                    }
                    // ReLU's gradient: the activation is positive exactly
                    // where its pre-activation was.
                    for (v, &h) in dx_row.iter_mut().zip(act_row) {
                        *v = if h > 0.0 { *v } else { 0.0 };
                    }
                }
            }
            let (w, b) = self.layers[l].params_mut();
            optimizer.update(2 * l, w.as_mut_slice(), d_w);
            optimizer.update(2 * l + 1, b, d_b);
            if l > 0 {
                std::mem::swap(&mut buf.grad, &mut buf.d_x);
            }
        }
        loss * scale
    }

    /// One forward+backward pass on a batch in matrix form, applying the
    /// optimizer: the oracle the fused step is checked against. Returns the
    /// batch loss.
    #[cfg(test)]
    fn train_batch(&mut self, x: &Mat, labels: &[usize], optimizer: &mut Adam) -> f64 {
        use crate::layer::relu_backward;
        use crate::loss::softmax_cross_entropy;
        // Forward, caching layer inputs (post-activation) and pre-activations.
        let mut inputs: Vec<Mat> = Vec::with_capacity(self.layers.len());
        let mut pre_acts: Vec<Mat> = Vec::with_capacity(self.layers.len());
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            inputs.push(h.clone());
            let z = layer.forward(&h);
            pre_acts.push(z.clone());
            h = if i + 1 < self.layers.len() {
                relu(&z)
            } else {
                z
            };
        }
        let (loss, mut d_out) = softmax_cross_entropy(&h, labels);

        // Backward.
        for i in (0..self.layers.len()).rev() {
            let (d_x, d_w, d_b) = self.layers[i].backward(&inputs[i], &d_out);
            let (w, b) = self.layers[i].params_mut();
            // Two optimizer slots per layer: weights then biases.
            optimizer.update(2 * i, w.as_mut_slice(), d_w.as_slice());
            optimizer.update(2 * i + 1, b, &d_b);
            if i > 0 {
                d_out = relu_backward(&pre_acts[i - 1], &d_x);
            }
        }
        loss
    }
}

/// Row `r` of layer `l`'s input within a batch: row `rows[r]` of the data
/// for the first layer, else row `r` of the activations below (`width`
/// cells per row).
fn layer_input<'a>(
    x: &'a Mat,
    rows: &[usize],
    acts: &'a [Vec<f64>],
    l: usize,
    width: usize,
    r: usize,
) -> &'a [f64] {
    match l {
        0 => x.row(rows[r]),
        _ => &acts[l - 1][r * width..(r + 1) * width],
    }
}

/// The buffers of [`Mlp::fit`]'s training step, sized for one batch.
struct TrainBuffers {
    /// Each hidden layer's activations, `batch × outputs`.
    acts: Vec<Vec<f64>>,
    /// The gradient of the current layer's output: the logits' first.
    grad: Vec<f64>,
    /// The gradient of the current layer's input.
    d_x: Vec<f64>,
    /// The current layer's weight gradient.
    d_w: Vec<f64>,
    /// The current layer's bias gradient.
    d_b: Vec<f64>,
    /// The current layer's weights, transposed.
    w_t: Vec<f64>,
}

impl TrainBuffers {
    fn new(mlp: &Mlp, batch: usize) -> Self {
        let (hidden, _) = mlp.layers.split_at(mlp.layers.len() - 1);
        let weights = mlp.layers.iter().map(|l| l.inputs() * l.outputs()).max();
        let weights = weights.expect("an MLP has at least one layer");
        TrainBuffers {
            acts: hidden
                .iter()
                .map(|l| vec![0.0; batch * l.outputs()])
                .collect(),
            grad: vec![0.0; batch * mlp.max_width()],
            d_x: vec![0.0; batch * mlp.max_width()],
            d_w: vec![0.0; weights],
            d_b: vec![0.0; mlp.max_width()],
            w_t: vec![0.0; weights],
        }
    }
}

/// Fraction of predictions matching the labels.
///
/// # Panics
///
/// Panics if the two slices have different lengths or are empty.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(predictions.len(), labels.len(), "length mismatch");
    assert!(
        !predictions.is_empty(),
        "accuracy of empty set is undefined"
    );
    let hits = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    hits as f64 / predictions.len() as f64
}

/// Area under the ROC curve for binary scores via the rank-sum statistic.
///
/// `scores[i]` is the model's score for the positive class;
/// `labels[i]` is `true` for positives. Ties receive half credit.
/// Returns 0.5 when either class is absent.
pub fn auc(scores: &[f64], labels: &[bool]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "length mismatch");
    let mut pairs: Vec<(f64, bool)> = scores.iter().cloned().zip(labels.iter().cloned()).collect();
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite scores"));
    let n_pos = labels.iter().filter(|&&l| l).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    // Rank-sum with average ranks over ties.
    let mut rank_sum_pos = 0.0;
    let mut i = 0;
    while i < pairs.len() {
        let mut j = i;
        while j + 1 < pairs.len() && pairs[j + 1].0 == pairs[i].0 {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for p in &pairs[i..=j] {
            if p.1 {
                rank_sum_pos += avg_rank;
            }
        }
        i = j + 1;
    }
    (rank_sum_pos - n_pos as f64 * (n_pos as f64 + 1.0) / 2.0) / (n_pos as f64 * n_neg as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::SeedableRng;

    fn two_gaussians(n: usize, seed: u64) -> (Mat, Vec<usize>) {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(2 * n);
        let mut labels = Vec::with_capacity(2 * n);
        for _ in 0..n {
            rows.push(vec![
                rng.gen_range(-1.0..1.0) + 2.0,
                rng.gen_range(-1.0..1.0) + 2.0,
            ]);
            labels.push(0);
            rows.push(vec![
                rng.gen_range(-1.0..1.0) - 2.0,
                rng.gen_range(-1.0..1.0) - 2.0,
            ]);
            labels.push(1);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        (Mat::from_rows(&refs), labels)
    }

    #[test]
    fn learns_separable_gaussians() {
        let (x, y) = two_gaussians(100, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut model = Mlp::new(&[2, 16, 2], &mut rng);
        let mut opt = Adam::new(0.02);
        let losses = model.fit(
            &x,
            &y,
            &mut opt,
            &TrainConfig {
                epochs: 40,
                batch_size: 32,
                shuffle: true,
            },
            &mut rng,
        );
        let final_acc = accuracy(&model.predict(&x), &y);
        assert!(final_acc > 0.98, "accuracy={final_acc}");
        // Loss should broadly decrease.
        assert_eq!(losses.len(), 40);
        assert!(losses[39] < losses[0]);
    }

    #[test]
    fn xor_requires_hidden_layer() {
        let x = Mat::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let y = [0usize, 1, 1, 0];
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut model = Mlp::new(&[2, 8, 2], &mut rng);
        let mut opt = Adam::new(0.05);
        model.fit(
            &x,
            &y,
            &mut opt,
            &TrainConfig {
                epochs: 600,
                batch_size: 4,
                shuffle: false,
            },
            &mut rng,
        );
        assert_eq!(model.predict(&x), vec![0, 1, 1, 0]);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let model = Mlp::new(&[3, 5, 4], &mut rng);
        let x = Mat::from_rows(&[&[0.1, -0.2, 0.3]]);
        let p = model.predict_proba(&x);
        let sum: f64 = p.row(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(p.cols(), 4);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// The allocation-free row forward returns exactly the bits of
        /// `predict_proba` on the 1-row matrix, for any layer stack —
        /// including exact zeros (of either sign) in the input and the
        /// weights, which `matmul` skips, and the exact zeros ReLU
        /// produces in the hidden activations.
        #[test]
        fn row_forward_matches_the_one_row_matrix_bitwise(
            widths in proptest::collection::vec(1usize..40, 2..6),
            seed in 0u64..100_000,
            zero_stride in 1usize..6,
        ) {
            use rand::Rng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut model = Mlp::new(&widths, &mut rng);
            for layer in &mut model.layers {
                let (w, b) = layer.params_mut();
                for v in w.as_mut_slice().iter_mut().step_by(zero_stride + 1) {
                    *v = 0.0;
                }
                for v in b.iter_mut() {
                    *v = rng.gen_range(-1.0..1.0);
                }
            }
            let x: Vec<f64> = (0..widths[0])
                .map(|i| match i % (zero_stride + 1) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-3.0..3.0),
                })
                .collect();
            let want = model.predict_proba(&Mat::from_rows(&[&x]));
            // NaN-poisoned scratch: a stale cell leaking into the result
            // would show.
            let mut scratch = vec![f64::NAN; 2 * model.max_width()];
            let got = model.predict_proba_row(&x, &mut scratch);
            proptest::prop_assert_eq!(got.len(), want.cols());
            for (g, w) in got.iter().zip(want.row(0)) {
                proptest::prop_assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }

    /// `fit` in matrix form, as it ran before the fused step: each batch is
    /// gathered into a fresh `Mat` and trained by [`Mlp::train_batch`].
    fn fit_matrix_form(
        model: &mut Mlp,
        x: &Mat,
        labels: &[usize],
        optimizer: &mut Adam,
        config: &TrainConfig,
        rng: &mut rand::rngs::StdRng,
    ) -> Vec<f64> {
        let mut order: Vec<usize> = (0..x.rows()).collect();
        let mut losses = Vec::new();
        for _ in 0..config.epochs {
            if config.shuffle {
                order.shuffle(rng);
            }
            let mut loss_sum = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(config.batch_size) {
                let bx = Mat::from_fn(chunk.len(), x.cols(), |i, j| x[(chunk[i], j)]);
                let by: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
                loss_sum += model.train_batch(&bx, &by, optimizer);
                batches += 1;
            }
            losses.push(loss_sum / batches.max(1) as f64);
        }
        losses
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The fused training step is the matrix-form step, bit for bit:
        /// every epoch's loss, every weight and bias, and the accuracy the
        /// trained model scores, over several shuffled epochs. Layer stacks include 1-wide hidden layers
        /// and heads of 2 to 4 classes; batch sizes leave a short last
        /// chunk; inputs carry exact zeros of both signs.
        #[test]
        fn fused_fit_matches_the_matrix_form_bitwise(
            inputs in 1usize..9,
            hidden in proptest::collection::vec(1usize..12, 0..3),
            classes in 2usize..5,
            n in 1usize..48,
            batch_size in 1usize..20,
            epochs in 1usize..4,
            zero_stride in 1usize..5,
            seed in 0u64..100_000,
        ) {
            use rand::Rng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut widths = vec![inputs];
            widths.extend(&hidden);
            widths.push(classes);
            let model = Mlp::new(&widths, &mut rng);
            let cells: Vec<f64> = (0..n * inputs)
                .map(|i| match i % (zero_stride + 2) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-3.0..3.0),
                })
                .collect();
            let x = Mat::from_fn(n, inputs, |i, j| cells[i * inputs + j]);
            let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..classes)).collect();
            let config = TrainConfig { epochs, batch_size, shuffle: true };

            let (mut fused, mut oracle) = (model.clone(), model);
            let (mut fused_opt, mut oracle_opt) = (Adam::new(0.05), Adam::new(0.05));
            let mut fused_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5EED);
            let mut oracle_rng = fused_rng.clone();
            let got = fused.fit(&x, &labels, &mut fused_opt, &config, &mut fused_rng);
            let want = fit_matrix_form(&mut oracle, &x, &labels, &mut oracle_opt, &config, &mut oracle_rng);

            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&got), bits(&want));
            for (f, o) in fused.layers.iter().zip(&oracle.layers) {
                proptest::prop_assert_eq!(bits(f.weights().as_slice()), bits(o.weights().as_slice()));
                proptest::prop_assert_eq!(bits(f.biases()), bits(o.biases()));
            }
            proptest::prop_assert_eq!(
                accuracy(&fused.predict(&x), &labels).to_bits(),
                accuracy(&oracle.predict(&x), &labels).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "scratch cells")]
    fn row_forward_rejects_short_scratch() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let model = Mlp::new(&[3, 5, 4], &mut rng);
        assert_eq!(model.max_width(), 5);
        let _ = model.predict_proba_row(&[0.1, -0.2, 0.3], &mut [0.0; 9]);
    }

    #[test]
    fn accuracy_counts_hits() {
        assert_eq!(accuracy(&[1, 0, 1], &[1, 1, 1]), 2.0 / 3.0);
        assert_eq!(accuracy(&[0], &[0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_rejects_mismatched_lengths() {
        let _ = accuracy(&[1, 0], &[1]);
    }

    #[test]
    #[should_panic(expected = "empty set is undefined")]
    fn accuracy_of_nothing_panics() {
        let _ = accuracy(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "input and output widths")]
    fn a_single_width_is_not_a_model() {
        let _ = Mlp::new(&[4], &mut rand::rngs::StdRng::seed_from_u64(1));
    }

    #[test]
    fn auc_perfect_and_random() {
        let labels = [true, true, false, false];
        assert_eq!(auc(&[0.9, 0.8, 0.2, 0.1], &labels), 1.0);
        assert_eq!(auc(&[0.1, 0.2, 0.8, 0.9], &labels), 0.0);
        // All-tied scores → 0.5 by symmetry.
        assert_eq!(auc(&[0.5, 0.5, 0.5, 0.5], &labels), 0.5);
        // Degenerate single-class input.
        assert_eq!(auc(&[0.5, 0.6], &[true, true]), 0.5);
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let (x, y) = two_gaussians(30, 8);
        let run = |seed: u64| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut model = Mlp::new(&[2, 8, 2], &mut rng);
            let mut opt = Adam::new(0.02);
            model.fit(&x, &y, &mut opt, &TrainConfig::default(), &mut rng);
            model.predict_proba(&x)[(0, 0)]
        };
        assert_eq!(run(42).to_bits(), run(42).to_bits());
    }
}
