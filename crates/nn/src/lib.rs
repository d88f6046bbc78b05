//! # diffserve-nn
//!
//! A minimal neural-network substrate: dense layers, ReLU/softmax,
//! cross-entropy, Adam, and a training loop.
//!
//! The DiffServe paper's discriminator is an EfficientNet-V2 trained to
//! classify images as *real* (ground-truth photographs) or *fake*
//! (diffusion-model outputs); its softmax confidence gates the light→heavy
//! cascade (paper §3.2). In this reproduction the image substrate emits
//! feature vectors rather than pixels, so the discriminator is an [`Mlp`]
//! trained on those features with the exact same objective and the same
//! confidence-thresholding downstream. Architecture ablations (ResNet-34,
//! ViT-B16, EfficientNet trained on fake positives — paper Fig. 7) map to
//! different capacities and training sets in `diffserve-imagegen`.
//!
//! # Training and scoring speed
//!
//! [`Mlp::fit`] trains in one fused step per mini-batch,
//! [`Mlp::predict_proba_row`] scores one row over caller scratch, and
//! [`Mlp::predict_proba_rows`] (and [`Mlp::predict`]) score many rows, a
//! block at a time. All run on one branch-free kernel that keeps a tile of
//! up to 32 output sums in registers. Every weight has the bits of the
//! plain matrix-form step (`Mat::matmul`, softmax, Adam), and every row
//! scored in a block the bits of its one-row forward. On an x86-64 host
//! with AVX2, detected once per `fit` or batched call, the training step
//! and the batched forward run compiled for AVX2, four lanes wide;
//! elsewhere they run in the target's baseline codegen. No bit differs
//! between the two: a lane holds its own cell, each cell keeps its order
//! of additions, and `fma` stays off, so every product is rounded before
//! it is added.
//!
//! # Examples
//!
//! ```
//! use diffserve_nn::{Adam, Mlp, TrainConfig, accuracy};
//! use diffserve_linalg::Mat;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut clf = Mlp::new(&[2, 12, 2], &mut rng);
//! let x = Mat::from_rows(&[&[2.0, 2.0], &[-2.0, -2.0], &[2.2, 1.8], &[-1.9, -2.1]]);
//! let y = [0usize, 1, 0, 1];
//! let mut opt = Adam::new(0.05);
//! clf.fit(&x, &y, &mut opt, &TrainConfig::default(), &mut rng);
//! assert_eq!(accuracy(&clf.predict(&x), &y), 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod layer;
#[cfg(test)]
mod loss;
pub mod model;
pub mod optim;

pub use layer::{softmax, Dense};
pub use model::{accuracy, auc, Mlp, TrainConfig};
pub use optim::Adam;
