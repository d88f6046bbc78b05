//! Prompts and prompt datasets.
//!
//! The paper evaluates on the first 5K text–image pairs of MS-COCO 2017
//! (Cascades 1–2, 512×512) and DiffusionDB (Cascade 3, 1024×1024), with the
//! prompts as queries and the images as the FID reference (§4.1). Neither
//! dataset ships with this reproduction, so [`PromptDataset`] synthesizes
//! stand-ins: each prompt carries a latent *difficulty* (how hard it is for
//! a lightweight model to render well) and a *style bias* (a prompt-level
//! score offset that makes PickScore-style metrics incomparable across
//! prompts, as the paper notes in §2.1).

use diffserve_linalg::Mat;
use diffserve_metrics::GaussianStats;
use diffserve_simkit::rng::{derive_seed, seeded_rng, Beta, Normal, Sampler};

use crate::features::FeatureSpec;

/// One text prompt (query payload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prompt {
    /// Stable identifier within its dataset.
    pub id: u64,
    /// Latent difficulty in `[0, 1]`: 0 = trivially easy, 1 = hardest.
    pub difficulty: f64,
    /// Prompt-level score bias shared by all models (drives the PickScore /
    /// CLIPScore incomparability across prompts).
    pub style_bias: f64,
    /// Seed for per-prompt generation noise.
    pub seed: u64,
}

impl Prompt {
    /// This prompt with its latent difficulty offset by `delta`, clamped to
    /// `[0, 1]`. Scenario difficulty shifts (a harder prompt mix arriving at
    /// runtime) are modeled by offsetting every served prompt; generation
    /// noise and identity (`id`, `seed`) are unchanged.
    ///
    /// # Examples
    ///
    /// ```
    /// use diffserve_imagegen::Prompt;
    ///
    /// let p = Prompt { id: 0, difficulty: 0.9, style_bias: 0.0, seed: 1 };
    /// assert_eq!(p.harder(0.3).difficulty, 1.0); // clamped
    /// assert!((p.harder(-0.5).difficulty - 0.4).abs() < 1e-12);
    /// assert_eq!(p.harder(0.0), p);
    /// ```
    pub fn harder(mut self, delta: f64) -> Prompt {
        self.difficulty = (self.difficulty + delta).clamp(0.0, 1.0);
        self
    }
}

/// Which reference dataset a synthetic prompt set mimics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// MS-COCO 2017 captions: mostly concrete, easy prompts.
    MsCoco,
    /// DiffusionDB prompts: artistic, longer-tailed difficulty.
    DiffusionDb,
}

impl DatasetKind {
    /// Beta-distribution parameters for the difficulty distribution.
    fn difficulty_params(self) -> (f64, f64) {
        match self {
            // Mean ≈ 0.33 with a light tail of hard prompts.
            DatasetKind::MsCoco => (2.0, 4.0),
            // Harder on average (mean ≈ 0.45).
            DatasetKind::DiffusionDb => (2.5, 3.0),
        }
    }

    /// Human-readable dataset name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::MsCoco => "MS-COCO 2017",
            DatasetKind::DiffusionDb => "DiffusionDB",
        }
    }
}

/// A synthetic prompt dataset plus its real-image FID reference.
///
/// Keeps no real-image feature rows: the reference set is sampled once at
/// [`PromptDataset::synthesize`] and kept only as its fitted Gaussian, and
/// the discriminator's real training rows are re-sampled, from a stored
/// seed, by the training that reads them.
#[derive(Debug, Clone)]
pub struct PromptDataset {
    kind: DatasetKind,
    prompts: Vec<Prompt>,
    reference: GaussianStats,
    training_seed: u64,
    spec: FeatureSpec,
}

impl PromptDataset {
    /// Synthesizes a dataset of `n` prompts with the given seed.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (the FID reference needs at least two samples).
    pub fn synthesize(kind: DatasetKind, n: usize, seed: u64, spec: FeatureSpec) -> Self {
        assert!(n >= 2, "dataset needs at least 2 prompts, got {n}");
        let (alpha, beta) = kind.difficulty_params();
        let difficulty = Beta::new(alpha, beta).expect("valid beta params");
        let bias = Normal::new(0.0, 1.0).expect("valid normal");
        let mut rng = seeded_rng(derive_seed(seed, 0x9001));
        let prompts = (0..n as u64)
            .map(|id| Prompt {
                id,
                difficulty: difficulty.draw(&mut rng),
                style_bias: bias.draw(&mut rng),
                seed: derive_seed(seed, 0xF00D ^ id),
            })
            .collect();
        let reference =
            GaussianStats::fit(&spec.reference_features(n, derive_seed(seed, 0xBEEF)), 1e-6)
                .expect("two or more reference rows");
        // Every Fréchet distance to the reference goes through this root:
        // take it once here, so that every clone carries it.
        reference
            .cov_sqrt()
            .expect("a finite sample covariance has a square root");
        PromptDataset {
            kind,
            prompts,
            reference,
            training_seed: derive_seed(seed, 0x7EA1),
            spec,
        }
    }

    /// Which dataset family this mimics.
    pub fn kind(&self) -> DatasetKind {
        self.kind
    }

    /// All prompts.
    pub fn prompts(&self) -> &[Prompt] {
        &self.prompts
    }

    /// Number of prompts.
    pub fn len(&self) -> usize {
        self.prompts.len()
    }

    /// Returns `true` if the dataset is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.prompts.is_empty()
    }

    /// Prompt by index (wrapping), convenient for replaying query streams
    /// longer than the dataset.
    pub fn prompt_cyclic(&self, i: u64) -> &Prompt {
        &self.prompts[(i % self.prompts.len() as u64) as usize]
    }

    /// The FID reference: the Gaussian of one real-image feature per prompt
    /// (carrying the evaluation-domain offset, see
    /// [`FeatureSpec::eval_gap`]), fitted with ridge `1e-6` and its
    /// covariance root already taken. Pass it second to
    /// [`diffserve_metrics::frechet_distance`].
    pub fn reference(&self) -> &GaussianStats {
        &self.reference
    }

    /// The first `n` real-image features for discriminator training (no
    /// evaluation offset — the discriminator must never see the FID
    /// reference domain). Rows are drawn in order from one stream, so a
    /// shorter sample is a prefix of a longer one.
    pub fn training_real_features(&self, n: usize) -> Mat {
        self.spec.real_features(n, self.training_seed)
    }

    /// The shared feature-space geometry.
    pub fn spec(&self) -> &FeatureSpec {
        &self.spec
    }

    /// Mean prompt difficulty.
    pub fn mean_difficulty(&self) -> f64 {
        self.prompts.iter().map(|p| p.difficulty).sum::<f64>() / self.prompts.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coco_difficulty_distribution() {
        let d = PromptDataset::synthesize(DatasetKind::MsCoco, 3000, 1, FeatureSpec::default());
        let mean = d.mean_difficulty();
        assert!((mean - 1.0 / 3.0).abs() < 0.03, "mean difficulty {mean}");
        assert!(d
            .prompts()
            .iter()
            .all(|p| (0.0..=1.0).contains(&p.difficulty)));
    }

    #[test]
    fn diffusiondb_is_harder_on_average() {
        let coco = PromptDataset::synthesize(DatasetKind::MsCoco, 3000, 2, FeatureSpec::default());
        let ddb =
            PromptDataset::synthesize(DatasetKind::DiffusionDb, 3000, 2, FeatureSpec::default());
        assert!(ddb.mean_difficulty() > coco.mean_difficulty() + 0.05);
    }

    #[test]
    fn deterministic_by_seed() {
        let a = PromptDataset::synthesize(DatasetKind::MsCoco, 50, 7, FeatureSpec::default());
        let b = PromptDataset::synthesize(DatasetKind::MsCoco, 50, 7, FeatureSpec::default());
        assert_eq!(a.prompts(), b.prompts());
        let c = PromptDataset::synthesize(DatasetKind::MsCoco, 50, 8, FeatureSpec::default());
        assert_ne!(a.prompts()[0].difficulty, c.prompts()[0].difficulty);
    }

    #[test]
    fn prompt_ids_and_cyclic_access() {
        let d = PromptDataset::synthesize(DatasetKind::MsCoco, 10, 3, FeatureSpec::default());
        assert_eq!(d.len(), 10);
        assert_eq!(d.prompts()[4].id, 4);
        assert_eq!(d.prompt_cyclic(14).id, 4);
        assert!(!d.is_empty());
    }

    #[test]
    fn the_reference_is_the_fit_of_one_real_row_per_prompt() {
        let spec = FeatureSpec::default();
        let d = PromptDataset::synthesize(DatasetKind::DiffusionDb, 123, 4, spec);
        let rows = spec.reference_features(123, derive_seed(4, 0xBEEF));
        assert_eq!(d.reference(), &GaussianStats::fit(&rows, 1e-6).unwrap());
        assert_eq!(d.reference().dim(), crate::features::DIM);
    }

    #[test]
    fn a_shorter_training_sample_is_a_prefix_of_a_longer_one() {
        let d = PromptDataset::synthesize(DatasetKind::MsCoco, 100, 6, FeatureSpec::default());
        let (short, full) = (d.training_real_features(17), d.training_real_features(100));
        assert_eq!(short.rows(), 17);
        for i in 0..17 {
            assert_eq!(short.row(i), full.row(i), "row {i}");
        }
    }

    #[test]
    fn style_bias_varies_across_prompts() {
        let d = PromptDataset::synthesize(DatasetKind::MsCoco, 200, 5, FeatureSpec::default());
        let min = d
            .prompts()
            .iter()
            .map(|p| p.style_bias)
            .fold(f64::INFINITY, f64::min);
        let max = d
            .prompts()
            .iter()
            .map(|p| p.style_bias)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 2.0, "style bias spread too small: {min}..{max}");
    }

    #[test]
    #[should_panic(expected = "at least 2 prompts")]
    fn a_single_prompt_is_too_few() {
        let _ = PromptDataset::synthesize(DatasetKind::MsCoco, 1, 1, FeatureSpec::default());
    }
}
