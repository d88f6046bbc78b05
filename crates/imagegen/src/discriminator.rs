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

use diffserve_linalg::Mat;
use diffserve_nn::{Adam, Mlp, TrainConfig};
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
    /// cascade members over a prompt subsample.
    ///
    /// # Panics
    ///
    /// Panics if `config.train_prompts` is zero or exceeds the dataset size.
    pub fn train(
        dataset: &PromptDataset,
        light: &DiffusionModel,
        heavy: &DiffusionModel,
        config: DiscriminatorConfig,
    ) -> Self {
        assert!(
            config.train_prompts > 0,
            "need at least one training prompt"
        );
        assert!(
            config.train_prompts <= dataset.len(),
            "train_prompts {} exceeds dataset size {}",
            config.train_prompts,
            dataset.len()
        );
        let n = ((config.train_prompts as f64) * config.arch.data_fraction()).ceil() as usize;
        let n = n.clamp(8, dataset.len());
        let prompts = &dataset.prompts()[..n];

        // Fake class: half light, half heavy outputs, as in the paper's
        // training diagram (GLM + GHM).
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(3 * n);
        let mut labels: Vec<usize> = Vec::with_capacity(3 * n);
        for (i, p) in prompts.iter().enumerate() {
            let img = if i % 2 == 0 {
                light.generate(p)
            } else {
                heavy.generate(p)
            };
            rows.push(img.features);
            labels.push(0); // fake
        }
        match config.real_class {
            RealClass::GroundTruth => {
                let real = dataset.training_real_features(n);
                for i in 0..n {
                    rows.push(real.row(i).to_vec());
                    labels.push(1); // real
                }
            }
            RealClass::HeavyOutputs => {
                for p in prompts.iter() {
                    rows.push(heavy.generate(p).features);
                    labels.push(1); // "real" = heavy output
                }
            }
        }
        // The backbone sees its own (noisy) feature extraction at train time.
        let sigma = config.arch.feature_noise();
        if sigma > 0.0 {
            let mut noise_rng = seeded_rng(derive_seed(config.seed, 0xFEA7));
            let normal = Normal::standard();
            for row in &mut rows {
                row[crate::features::ARTIFACT_AXIS] += sigma * normal.draw(&mut noise_rng);
            }
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Mat::from_rows(&refs);

        let mut widths = vec![DIM];
        widths.extend(config.arch.hidden_widths());
        widths.push(2);
        let mut rng = seeded_rng(derive_seed(config.seed, 0xA11C));
        let mut classifier = Mlp::new(&widths, &mut rng);
        let mut opt = Adam::new(0.01);
        let history = classifier.fit(
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
        let train_accuracy = history.last().map(|h| h.accuracy).unwrap_or(0.0);

        // Calibration set: raw scores of light-model outputs on the training
        // prompts (these are exactly the images the cascade will gate).
        let mut disc = Discriminator {
            config,
            classifier,
            train_accuracy,
            calibration: Vec::new(),
        };
        let mut raw: Vec<f64> = prompts
            .iter()
            .map(|p| disc.raw_confidence(&light.generate(p).features))
            .collect();
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
        assert_eq!(features.len(), DIM, "feature dimensionality mismatch");
        let mut extracted = [0.0; DIM];
        extracted.copy_from_slice(features);
        let sigma = self.config.arch.feature_noise();
        if sigma != 0.0 {
            // The backbone's feature-extraction noise, deterministic per
            // image (seeded from the feature bits) so repeated scoring of
            // the same image is stable.
            let tag = features
                .iter()
                .fold(0u64, |acc, f| acc.rotate_left(7) ^ f.to_bits());
            let mut rng = seeded_rng(derive_seed(self.config.seed, tag));
            extracted[crate::features::ARTIFACT_AXIS] += sigma * Normal::standard().draw(&mut rng);
        }
        let mut scratch = [0.0; 2 * MAX_WIDTH];
        self.classifier.predict_proba_row(&extracted, &mut scratch)[1]
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

    /// Batched calibrated confidence scoring.
    pub fn confidences(&self, features: &Mat) -> Vec<f64> {
        (0..features.rows())
            .map(|i| self.confidence(features.row(i)))
            .collect()
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

    #[test]
    fn confidences_batch_matches_single() {
        let (dataset, light, heavy) = small_setup();
        let disc = Discriminator::train(&dataset, &light, &heavy, quick_config());
        let imgs: Vec<Vec<f64>> = dataset.prompts()[..5]
            .iter()
            .map(|p| light.generate(p).features)
            .collect();
        let refs: Vec<&[f64]> = imgs.iter().map(|r| r.as_slice()).collect();
        let batch = disc.confidences(&Mat::from_rows(&refs));
        for (i, img) in imgs.iter().enumerate() {
            assert!((batch[i] - disc.confidence(img)).abs() < 1e-12);
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
