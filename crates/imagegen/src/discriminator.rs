//! The cascade discriminator (paper §3.2).
//!
//! A binary classifier is trained to distinguish *real* images from
//! diffusion-model outputs; its softmax confidence that an image is real
//! then serves as the quality score gating the light→heavy cascade. The
//! paper's production choice is EfficientNet-V2 trained with ground-truth
//! images as the "real" class; Fig. 7 ablates ResNet-34, ViT-B16, and an
//! EfficientNet trained with *heavy-model outputs* as the "real" class.
//!
//! This reproduction maps the architectures to MLP capacities over the
//! synthetic feature space, keeping the paper's measured per-image scoring
//! latencies (EfficientNet 10 ms, ResNet 2 ms, ViT 5 ms on A100).

use std::borrow::Cow;

use diffserve_linalg::Mat;
use diffserve_nn::{accuracy, Adam, Mlp, TrainConfig};
use diffserve_simkit::rng::{derive_seed, seeded_rng};
use diffserve_simkit::time::SimDuration;

use diffserve_simkit::rng::{Normal, Sampler};

use crate::features::DIM;
use crate::model::DiffusionModel;
use crate::prompt::PromptDataset;

/// Widest layer of any backbone stand-in (input included): sizes the stack
/// scratch of the per-query forward pass.
const MAX_WIDTH: usize = 64;

/// Discriminator backbone (paper Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiscArch {
    /// EfficientNet-V2 — the paper's production choice (10 ms / image).
    EfficientNetV2,
    /// ResNet-34 — fastest but least discriminative (2 ms / image).
    ResNet34,
    /// ViT-B16 — strong backbone, data-hungry (5 ms / image).
    ViTB16,
}

impl DiscArch {
    /// Hidden-layer widths standing in for backbone capacity; none may
    /// exceed [`MAX_WIDTH`].
    fn hidden_widths(self) -> Vec<usize> {
        match self {
            DiscArch::EfficientNetV2 => vec![32, 16],
            DiscArch::ResNet34 => vec![4],
            DiscArch::ViTB16 => vec![64, 32],
        }
    }

    /// Fraction of the training set the backbone can exploit. ViT's
    /// data-hunger is modelled as training on a subsample, which yields the
    /// overfit-ish middle-of-the-pack behaviour in Fig. 7.
    fn data_fraction(self) -> f64 {
        match self {
            DiscArch::EfficientNetV2 => 1.0,
            DiscArch::ResNet34 => 1.0,
            DiscArch::ViTB16 => 0.15,
        }
    }

    /// Std of the backbone's extraction noise on the *artifact axis* — the
    /// axis carrying the quality signal. EfficientNet-V2 extracts the
    /// cleanest quality features (the paper attributes its win to
    /// "architectural efficiency ... capturing complex quality features
    /// more effectively"); weaker backbones blur exactly that signal, which
    /// degrades ranking (and therefore routing) while leaving coarse
    /// real-vs-fake separation mostly intact.
    fn feature_noise(self) -> f64 {
        match self {
            DiscArch::EfficientNetV2 => 0.0,
            DiscArch::ResNet34 => 3.0,
            DiscArch::ViTB16 => 0.9,
        }
    }

    /// Per-image scoring latency (paper §4.4).
    pub fn latency(self) -> SimDuration {
        match self {
            DiscArch::EfficientNetV2 => SimDuration::from_millis(10),
            DiscArch::ResNet34 => SimDuration::from_millis(2),
            DiscArch::ViTB16 => SimDuration::from_millis(5),
        }
    }

    /// Display name matching the paper's legend.
    pub fn name(self) -> &'static str {
        match self {
            DiscArch::EfficientNetV2 => "EfficientNet-V2",
            DiscArch::ResNet34 => "ResNet-34",
            DiscArch::ViTB16 => "ViT-B16",
        }
    }
}

/// What populates the "real" class during training (paper Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RealClass {
    /// Ground-truth dataset images — the paper's final configuration.
    GroundTruth,
    /// Heavyweight-model outputs — the "EfficientNet w Fake" ablation.
    HeavyOutputs,
}

/// Discriminator training configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscriminatorConfig {
    /// Backbone stand-in.
    pub arch: DiscArch,
    /// Source of "real" training samples.
    pub real_class: RealClass,
    /// Number of prompts sampled for generated (and real) training images.
    pub train_prompts: usize,
    /// Training epochs.
    pub epochs: usize,
    /// RNG seed for init/shuffling.
    pub seed: u64,
}

impl Default for DiscriminatorConfig {
    fn default() -> Self {
        DiscriminatorConfig {
            arch: DiscArch::EfficientNetV2,
            real_class: RealClass::GroundTruth,
            train_prompts: 1000,
            epochs: 20,
            seed: 0xD15C,
        }
    }
}

impl DiscriminatorConfig {
    /// How many of a `dataset_len`-prompt dataset's first prompts training
    /// reads: `train_prompts` scaled by the backbone's data fraction, at
    /// least 8 where the dataset holds that many, so a small data fraction
    /// still trains on a few rows.
    ///
    /// # Panics
    ///
    /// Panics if `train_prompts` is zero or exceeds `dataset_len`.
    pub fn trained_prompts(&self, dataset_len: usize) -> usize {
        assert!(self.train_prompts > 0, "need at least one training prompt");
        assert!(
            self.train_prompts <= dataset_len,
            "train_prompts {} exceeds dataset size {}",
            self.train_prompts,
            dataset_len
        );
        let n = ((self.train_prompts as f64) * self.arch.data_fraction()).ceil() as usize;
        n.max(8).min(dataset_len)
    }

    /// The ground-truth rows training reads from `dataset`, one per
    /// trained prompt ([`PromptDataset::training_real_features`]), under
    /// [`RealClass::GroundTruth`]; `None` under
    /// [`RealClass::HeavyOutputs`], whose real rows are heavy renders.
    ///
    /// # Panics
    ///
    /// Panics as [`DiscriminatorConfig::trained_prompts`] does.
    pub fn ground_truth(&self, dataset: &PromptDataset) -> Option<Mat> {
        let n = self.trained_prompts(dataset.len());
        (self.real_class == RealClass::GroundTruth).then(|| dataset.training_real_features(n))
    }
}

/// A trained discriminator producing confidence-that-real scores.
///
/// Raw softmax outputs of a near-separable classifier saturate at 0/1,
/// which would leave the cascade threshold without dynamic range. Following
/// standard practice for cascade gating (CascadeBERT and the paper's related
/// work use *calibrated* confidences), the discriminator equalizes its raw
/// scores against the empirical distribution of lightweight-model outputs on
/// the training prompts: a calibrated confidence of `t` means the image
/// looks more real than a fraction `t` of typical lightweight outputs. This
/// is a monotone reparameterization — rankings, and therefore routing
/// quality, are untouched — and it makes the deferral profile `f(t)` smooth
/// across the whole `[0, 1]` threshold range.
#[derive(Debug, Clone)]
pub struct Discriminator {
    config: DiscriminatorConfig,
    classifier: Mlp,
    train_accuracy: f64,
    /// Sorted raw confidences of light-model outputs (calibration set).
    calibration: Vec<f64>,
}

impl Discriminator {
    /// Trains a discriminator for a light/heavy pair on a dataset.
    ///
    /// The training set follows the paper (Fig. 3): "real" samples come from
    /// the dataset's ground-truth images (or from heavy-model outputs for
    /// the `HeavyOutputs` ablation); "fake" samples are generated by both
    /// cascade members over a prompt subsample. Renders both members'
    /// images of the trained prompts, once each, and trains on them by
    /// [`Discriminator::train_on_renders`].
    ///
    /// # Panics
    ///
    /// Panics if `config.train_prompts` is zero or exceeds the dataset size,
    /// or if `config.epochs` is zero.
    pub fn train(
        dataset: &PromptDataset,
        light: &DiffusionModel,
        heavy: &DiffusionModel,
        config: DiscriminatorConfig,
    ) -> Self {
        let n = config.trained_prompts(dataset.len());
        let render = |model: &DiffusionModel| -> Vec<[f64; DIM]> {
            let prompts = &dataset.prompts()[..n];
            prompts.iter().map(|p| model.render(p, 0.0).0).collect()
        };
        let ground_truth = config.ground_truth(dataset);
        Self::train_on_renders(
            &render(light),
            &render(heavy),
            ground_truth.as_ref(),
            config,
        )
    }

    /// Trains on rendered rows: `light[i]` and `heavy[i]` are the two
    /// cascade members' renders of the dataset's `i`-th prompt, for its
    /// first [`DiscriminatorConfig::trained_prompts`] prompts, and
    /// `ground_truth` is [`DiscriminatorConfig::ground_truth`]. The one
    /// training body: [`Discriminator::train`] renders its rows and calls
    /// it, and runtime set-up calls it with rows of its render tables.
    ///
    /// # Panics
    ///
    /// Panics if the rows are empty or unequal in number, if
    /// `ground_truth` does not hold one row per light row under
    /// [`RealClass::GroundTruth`], or if `config.epochs` is zero.
    pub fn train_on_renders(
        light: &[[f64; DIM]],
        heavy: &[[f64; DIM]],
        ground_truth: Option<&Mat>,
        config: DiscriminatorConfig,
    ) -> Self {
        let n = light.len();
        assert!(
            n > 0 && heavy.len() == n,
            "training needs one heavy render per light render, got {n} and {}",
            heavy.len()
        );
        assert!(config.epochs > 0, "need at least one training epoch");
        // Fake class: half light, half heavy outputs, as in the paper's
        // training diagram (GLM + GHM), in rows `0..n`; the real class in
        // rows `n..2n`.
        let mut x = Mat::zeros(2 * n, DIM);
        let (fake, real) = x.as_mut_slice().split_at_mut(n * DIM);
        let rows = fake.chunks_exact_mut(DIM).zip(light.iter().zip(heavy));
        for (i, (row, (l, h))) in rows.enumerate() {
            row.copy_from_slice(if i % 2 == 0 { l } else { h });
        }
        match config.real_class {
            RealClass::GroundTruth => {
                let rows = ground_truth.expect("ground-truth rows under RealClass::GroundTruth");
                assert_eq!(rows.rows(), n, "one ground-truth row per trained prompt");
                real.copy_from_slice(rows.as_slice());
            }
            // "Real" = heavy outputs.
            RealClass::HeavyOutputs => real.copy_from_slice(heavy.as_flattened()),
        }
        let labels: Vec<usize> = (0..2 * n).map(|i| usize::from(i >= n)).collect();
        // The backbone sees its own (noisy) feature extraction at train time.
        let sigma = config.arch.feature_noise();
        if sigma > 0.0 {
            let mut noise_rng = seeded_rng(derive_seed(config.seed, 0xFEA7));
            let normal = Normal::standard();
            for row in x.as_mut_slice().chunks_exact_mut(DIM) {
                row[crate::features::ARTIFACT_AXIS] += sigma * normal.draw(&mut noise_rng);
            }
        }

        let mut widths = vec![DIM];
        widths.extend(config.arch.hidden_widths());
        widths.push(2);
        let mut rng = seeded_rng(derive_seed(config.seed, 0xA11C));
        let mut classifier = Mlp::new(&widths, &mut rng);
        let mut opt = Adam::new(0.01);
        classifier.fit(
            &x,
            &labels,
            &mut opt,
            &TrainConfig {
                epochs: config.epochs,
                batch_size: 64,
                shuffle: true,
            },
            &mut rng,
        );
        let train_accuracy = accuracy(&classifier.predict(&x), &labels);

        // Calibration set: raw scores of light-model outputs on the training
        // prompts (these are exactly the images the cascade will gate).
        let mut disc = Discriminator {
            config,
            classifier,
            train_accuracy,
            calibration: Vec::new(),
        };
        let mut raw = disc.raw_confidences(light);
        raw.sort_by(|a, b| a.partial_cmp(b).expect("softmax outputs are finite"));
        disc.calibration = raw;
        disc
    }

    /// Uncalibrated softmax probability that `features` belong to a real
    /// image. Runs once per served query, so the forward pass is a single
    /// row over stack scratch ([`Mlp::predict_proba_row`]) — no heap
    /// allocation, same bits as the batched `predict_proba`.
    ///
    /// # Panics
    ///
    /// Panics if the feature vector has the wrong dimensionality.
    pub fn raw_confidence(&self, features: &[f64]) -> f64 {
        let extracted = self.extract(features);
        let mut scratch = [0.0; 2 * MAX_WIDTH];
        self.classifier.predict_proba_row(&extracted, &mut scratch)[1]
    }

    /// [`Discriminator::raw_confidence`] of every row, bit for bit, scored
    /// in blocks of rows ([`Mlp::predict_proba_rows`]).
    fn raw_confidences(&self, rows: &[[f64; DIM]]) -> Vec<f64> {
        let extracted: Cow<[[f64; DIM]]> = if self.config.arch.feature_noise() == 0.0 {
            Cow::Borrowed(rows)
        } else {
            rows.iter().map(|row| self.extract(row)).collect()
        };
        let mut probs = vec![0.0; 2 * rows.len()];
        self.classifier
            .predict_proba_rows(extracted.as_flattened(), &mut probs);
        probs.chunks_exact(2).map(|p| p[1]).collect()
    }

    /// The features the backbone extracts from `features`: the image's
    /// own, plus the backbone's feature-extraction noise on the artifact
    /// axis, deterministic per image (seeded from the feature bits) so
    /// that repeated scoring of the same image is stable.
    ///
    /// # Panics
    ///
    /// Panics if the feature vector has the wrong dimensionality.
    fn extract(&self, features: &[f64]) -> [f64; DIM] {
        assert_eq!(features.len(), DIM, "feature dimensionality mismatch");
        let mut extracted = [0.0; DIM];
        extracted.copy_from_slice(features);
        let sigma = self.config.arch.feature_noise();
        if sigma != 0.0 {
            let tag = features
                .iter()
                .fold(0u64, |acc, f| acc.rotate_left(7) ^ f.to_bits());
            let mut rng = seeded_rng(derive_seed(self.config.seed, tag));
            extracted[crate::features::ARTIFACT_AXIS] += sigma * Normal::standard().draw(&mut rng);
        }
        extracted
    }

    /// Calibrated confidence in `[0, 1]` — the cascade's quality score.
    ///
    /// See the type documentation for the calibration scheme.
    ///
    /// # Panics
    ///
    /// Panics if the feature vector has the wrong dimensionality.
    pub fn confidence(&self, features: &[f64]) -> f64 {
        self.equalize(self.raw_confidence(features))
    }

    /// [`Discriminator::confidence`] of every row, bit for bit, scored in
    /// blocks of rows.
    pub fn confidences(&self, rows: &[[f64; DIM]]) -> Vec<f64> {
        let mut scores = self.raw_confidences(rows);
        for score in &mut scores {
            *score = self.equalize(*score);
        }
        scores
    }

    /// Maps a raw score through the empirical CDF of the calibration set
    /// with linear interpolation between order statistics.
    fn equalize(&self, raw: f64) -> f64 {
        let cal = &self.calibration;
        if cal.is_empty() {
            return raw;
        }
        let n = cal.len();
        let idx = cal.partition_point(|&v| v < raw);
        if idx == 0 {
            // Below the calibration range: scale into [0, 1/n).
            let lo = cal[0].max(1e-12);
            return (raw / lo).clamp(0.0, 1.0) / n as f64;
        }
        if idx == n {
            return 1.0;
        }
        let (a, b) = (cal[idx - 1], cal[idx]);
        let frac = if b > a { (raw - a) / (b - a) } else { 0.0 };
        ((idx - 1) as f64 + frac + 0.5) / n as f64
    }

    /// Per-image scoring latency of the backbone.
    pub fn latency(&self) -> SimDuration {
        self.config.arch.latency()
    }

    /// Final training accuracy on the real-vs-fake task.
    pub fn train_accuracy(&self) -> f64 {
        self.train_accuracy
    }

    /// The configuration this discriminator was trained with.
    pub fn config(&self) -> &DiscriminatorConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSpec;
    use crate::prompt::DatasetKind;
    use crate::zoo::{sd_turbo, sd_v15};
    use diffserve_nn::auc;

    fn small_setup() -> (PromptDataset, DiffusionModel, DiffusionModel) {
        let spec = FeatureSpec::default();
        let dataset = PromptDataset::synthesize(DatasetKind::MsCoco, 600, 11, spec);
        (dataset, sd_turbo(spec), sd_v15(spec))
    }

    fn quick_config() -> DiscriminatorConfig {
        DiscriminatorConfig {
            train_prompts: 400,
            epochs: 12,
            ..Default::default()
        }
    }

    #[test]
    fn learns_real_vs_fake() {
        let (dataset, light, heavy) = small_setup();
        let disc = Discriminator::train(&dataset, &light, &heavy, quick_config());
        assert!(
            disc.train_accuracy() > 0.80,
            "train accuracy {}",
            disc.train_accuracy()
        );
    }

    #[test]
    fn confidence_ranks_light_image_quality() {
        // The load-bearing property: among lightweight outputs, confidence
        // must correlate with latent quality (AUC of top-half vs bottom-half
        // quality well above chance).
        let (dataset, light, heavy) = small_setup();
        let disc = Discriminator::train(&dataset, &light, &heavy, quick_config());
        let eval = &dataset.prompts()[400..];
        let mut scored: Vec<(f64, f64)> = eval
            .iter()
            .map(|p| {
                let img = light.generate(p);
                (disc.confidence(&img.features), img.quality)
            })
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let median_q = scored[scored.len() / 2].1;
        let scores: Vec<f64> = scored.iter().map(|s| s.0).collect();
        let labels: Vec<bool> = scored.iter().map(|s| s.1 >= median_q).collect();
        let a = auc(&scores, &labels);
        assert!(a > 0.70, "quality-ranking AUC {a}");
    }

    #[test]
    fn heavy_outputs_score_higher_than_light_on_average() {
        let (dataset, light, heavy) = small_setup();
        let disc = Discriminator::train(&dataset, &light, &heavy, quick_config());
        let eval = &dataset.prompts()[400..500];
        let mean_conf = |m: &DiffusionModel| {
            eval.iter()
                .map(|p| disc.confidence(&m.generate(p).features))
                .sum::<f64>()
                / eval.len() as f64
        };
        assert!(mean_conf(&heavy) > mean_conf(&light) + 0.05);
    }

    /// The batched confidences are the one-row ones, bit for bit, on every
    /// backbone, over more rows than one forward block.
    #[test]
    fn confidences_batch_matches_single() {
        let (dataset, models, discs) = trained_archs();
        let rows: Vec<[f64; DIM]> = dataset.prompts()[..150]
            .iter()
            .map(|p| models[0].render(p, 0.0).0)
            .collect();
        for disc in discs {
            let batch = disc.confidences(&rows);
            assert_eq!(batch.len(), rows.len());
            for (score, row) in batch.iter().zip(&rows) {
                assert_eq!(score.to_bits(), disc.confidence(row).to_bits());
            }
        }
    }

    /// The small setup plus one quickly trained discriminator per backbone,
    /// in [`ARCHS`] order.
    type Fixture = (PromptDataset, [DiffusionModel; 2], Vec<Discriminator>);

    fn trained_archs() -> &'static Fixture {
        static FIXTURE: std::sync::OnceLock<Fixture> = std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| {
            let (dataset, light, heavy) = small_setup();
            let discs = ARCHS
                .iter()
                .map(|&arch| {
                    let config = DiscriminatorConfig {
                        arch,
                        ..quick_config()
                    };
                    Discriminator::train(&dataset, &light, &heavy, config)
                })
                .collect();
            (dataset, [light, heavy], discs)
        })
    }

    const ARCHS: [DiscArch; 3] = [
        DiscArch::EfficientNetV2,
        DiscArch::ResNet34,
        DiscArch::ViTB16,
    ];

    /// The confidence as it was computed before the row forward: extract
    /// into a fresh vector, wrap it in a 1-row matrix, run the batched
    /// `predict_proba`.
    fn confidence_via_matrix(disc: &Discriminator, features: &[f64]) -> f64 {
        let mut extracted = features.to_vec();
        let sigma = disc.config.arch.feature_noise();
        if sigma != 0.0 {
            let tag = features
                .iter()
                .fold(0u64, |acc, f| acc.rotate_left(7) ^ f.to_bits());
            let mut rng = seeded_rng(derive_seed(disc.config.seed, tag));
            extracted[crate::features::ARTIFACT_AXIS] += sigma * Normal::standard().draw(&mut rng);
        }
        let x = Mat::from_rows(&[&extracted]);
        disc.equalize(disc.classifier.predict_proba(&x)[(0, 1)])
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(192))]

        /// On every backbone — noiseless, and the two that perturb the
        /// artifact axis — the allocation-free confidence is bit-for-bit
        /// the matrix path's, also on rows with coordinates zeroed out
        /// (the accumulation skips exact zeros).
        #[test]
        fn confidence_matches_the_matrix_path_bitwise(
            arch in 0usize..3,
            prompt in 0usize..600,
            tier in 0usize..2,
            zero_stride in 1usize..20,
        ) {
            let (dataset, models, discs) = trained_archs();
            let mut features = models[tier].generate(&dataset.prompts()[prompt]).features;
            for v in features.iter_mut().skip(1).step_by(zero_stride) {
                *v = 0.0;
            }
            let disc = &discs[arch];
            proptest::prop_assert_eq!(
                disc.confidence(&features).to_bits(),
                confidence_via_matrix(disc, &features).to_bits()
            );
        }
    }

    #[test]
    fn architectures_have_paper_latencies() {
        assert_eq!(
            DiscArch::EfficientNetV2.latency(),
            SimDuration::from_millis(10)
        );
        assert_eq!(DiscArch::ResNet34.latency(), SimDuration::from_millis(2));
        assert_eq!(DiscArch::ViTB16.latency(), SimDuration::from_millis(5));
        assert!(!DiscArch::EfficientNetV2.name().is_empty());
    }

    #[test]
    fn training_is_deterministic() {
        let (dataset, light, heavy) = small_setup();
        let a = Discriminator::train(&dataset, &light, &heavy, quick_config());
        let b = Discriminator::train(&dataset, &light, &heavy, quick_config());
        let img = light.generate(&dataset.prompts()[450]);
        assert_eq!(
            a.confidence(&img.features).to_bits(),
            b.confidence(&img.features).to_bits()
        );
    }

    /// Training samples only the `n` real rows it reads, where it once read
    /// the first `n` rows of a dataset-sized sample. On a dataset smaller
    /// than the default `train_prompts`, with every row read (EfficientNet,
    /// ResNet) and with a 15 % subsample (ViT), the trained scorer is
    /// bitwise the one the full sample gave: these raw confidences were
    /// recorded from that code.
    #[test]
    fn training_on_the_sampled_prefix_is_bitwise_unchanged() {
        const RECORDED: [u64; 9] = [
            0x3fe69cb29ccb00b1,
            0x3fd4db085a740e1a,
            0x3fd541f643ca091d,
            0x3fee2daaab690d25,
            0x3fedb82db5f2ef71,
            0x3feffffe897a7ccd,
            0x3fd7d6068f4e9e23,
            0x3f9ada1e3f75b46f,
            0x3fa1041ca86ef5e3,
        ];
        let spec = FeatureSpec::default();
        let dataset = PromptDataset::synthesize(DatasetKind::MsCoco, 120, 11, spec);
        let (light, heavy) = (sd_turbo(spec), sd_v15(spec));
        let mut bits = Vec::new();
        for arch in ARCHS {
            let config = DiscriminatorConfig {
                arch,
                train_prompts: 120,
                epochs: 3,
                ..Default::default()
            };
            let disc = Discriminator::train(&dataset, &light, &heavy, config);
            for i in [3, 60, 110] {
                let image = light.generate(&dataset.prompts()[i]);
                bits.push(disc.raw_confidence(&image.features).to_bits());
            }
        }
        assert_eq!(bits, RECORDED);
    }

    /// FNV-1a over every backbone's final training accuracy and the raw
    /// confidence of both cascade members' renders of a fixed prompt
    /// slice, each backbone trained with `real_class` as its real class.
    /// The training set (300 rows for EfficientNet and ResNet, 46 for
    /// ViT's subsample) leaves a short last batch, and the scored slice
    /// lies outside it.
    fn trained_score_hash(real_class: RealClass) -> u64 {
        const PRIME: u64 = 0x1000_0000_01b3;
        let spec = FeatureSpec::default();
        let dataset = PromptDataset::synthesize(DatasetKind::MsCoco, 200, 23, spec);
        let (light, heavy) = (sd_turbo(spec), sd_v15(spec));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        };
        for arch in ARCHS {
            let config = DiscriminatorConfig {
                arch,
                real_class,
                train_prompts: 150,
                epochs: 4,
                ..Default::default()
            };
            let disc = Discriminator::train(&dataset, &light, &heavy, config);
            eat(disc.train_accuracy().to_bits());
            for p in &dataset.prompts()[150..] {
                for model in [&light, &heavy] {
                    eat(disc.raw_confidence(&model.generate(p).features).to_bits());
                }
            }
        }
        h
    }

    /// Every backbone's trained scorer, pinned bit for bit.
    #[test]
    fn trained_scores_are_pinned_for_every_backbone() {
        const PINNED: u64 = 0xf8ea_207d_1bec_8ff8;
        let h = trained_score_hash(RealClass::GroundTruth);
        assert_eq!(h, PINNED, "pinned {PINNED:#018x}, got {h:#018x}");
    }

    /// The same with heavy outputs as the real class (the "EfficientNet w
    /// Fake" ablation), whose real rows are the heavy renders the odd
    /// fake rows also read. Pinned while training still rendered those
    /// twice.
    #[test]
    fn heavy_output_training_is_pinned_for_every_backbone() {
        const PINNED: u64 = 0xf18f_ff34_c10e_6371;
        let h = trained_score_hash(RealClass::HeavyOutputs);
        assert_eq!(h, PINNED, "pinned {PINNED:#018x}, got {h:#018x}");
    }

    #[test]
    #[should_panic(expected = "at least one training epoch")]
    fn zero_epochs_panics() {
        let (dataset, light, heavy) = small_setup();
        let cfg = DiscriminatorConfig {
            epochs: 0,
            ..quick_config()
        };
        let _ = Discriminator::train(&dataset, &light, &heavy, cfg);
    }

    /// A dataset of fewer than 8 prompts trains on all of them: the
    /// 8-prompt floor stops at the dataset's size.
    #[test]
    fn trains_on_a_dataset_of_fewer_than_eight_prompts() {
        let spec = FeatureSpec::default();
        let dataset = PromptDataset::synthesize(DatasetKind::MsCoco, 5, 11, spec);
        let cfg = DiscriminatorConfig {
            train_prompts: 4,
            epochs: 2,
            ..Default::default()
        };
        let disc = Discriminator::train(&dataset, &sd_turbo(spec), &sd_v15(spec), cfg);
        assert_eq!(disc.calibration.len(), 5);
        let score = disc.confidence(&sd_turbo(spec).generate(&dataset.prompts()[0]).features);
        assert!((0.0..=1.0).contains(&score), "confidence {score}");
    }

    #[test]
    #[should_panic(expected = "exceeds dataset size")]
    fn oversized_training_request_panics() {
        let (dataset, light, heavy) = small_setup();
        let cfg = DiscriminatorConfig {
            train_prompts: 10_000,
            ..Default::default()
        };
        let _ = Discriminator::train(&dataset, &light, &heavy, cfg);
    }
}
