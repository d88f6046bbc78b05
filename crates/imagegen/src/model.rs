//! Synthetic diffusion models: latency profiles and quality models.

use diffserve_simkit::rng::{derive_seed, seeded_rng, Normal, Sampler};
use diffserve_simkit::time::SimDuration;

use crate::features::{FeatureSpec, ARTIFACT_AXIS, DIM, DIVERSITY_AXES, SHARED_AXES};
use crate::prompt::Prompt;

/// Execution-latency profile of a model, `e(b) = e1·(ovh + (1 − ovh)·b)`.
///
/// Big diffusion models are compute-bound, so batching buys little
/// (`batch_overhead` small); tiny ones are launch-overhead-bound and batch
/// well (`batch_overhead` large). The paper profiles `e(b)` offline per
/// batch size (§3.3); this affine model plays that role.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyProfile {
    /// Batch-1 execution latency in seconds.
    pub base_latency: f64,
    /// Fraction of `e(1)` that is fixed overhead amortized across a batch.
    pub batch_overhead: f64,
}

impl LatencyProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics unless `base_latency > 0` and `batch_overhead ∈ [0, 1)`.
    pub fn new(base_latency: f64, batch_overhead: f64) -> Self {
        assert!(
            base_latency > 0.0 && base_latency.is_finite(),
            "base latency must be positive"
        );
        assert!(
            (0.0..1.0).contains(&batch_overhead),
            "batch overhead must lie in [0, 1)"
        );
        LatencyProfile {
            base_latency,
            batch_overhead,
        }
    }

    /// Execution latency for a batch of `b` queries.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn exec_latency(&self, b: usize) -> SimDuration {
        assert!(b > 0, "batch size must be positive");
        let secs =
            self.base_latency * (self.batch_overhead + (1.0 - self.batch_overhead) * b as f64);
        SimDuration::from_secs_f64(secs)
    }

    /// Steady-state throughput (queries per second) at batch size `b`.
    pub fn throughput(&self, b: usize) -> f64 {
        b as f64 / self.exec_latency(b).as_secs_f64()
    }
}

/// Quality model: how well this model renders a prompt of given difficulty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityProfile {
    /// Error floor even on trivial prompts.
    pub base_error: f64,
    /// Additional error per unit difficulty.
    pub difficulty_slope: f64,
    /// Per-query quality noise std.
    pub noise_std: f64,
    /// Output dispersion on the diversity axes (real images have 1.0;
    /// >1 = noisy/over-diverse, <1 = polished/under-diverse).
    pub diversity_sigma: f64,
}

impl QualityProfile {
    /// Expected quality (no noise) for a prompt of the given difficulty.
    pub fn expected_quality(&self, difficulty: f64) -> f64 {
        (1.0 - self.base_error - self.difficulty_slope * difficulty).clamp(0.0, 1.0)
    }
}

/// A synthetic text-to-image diffusion model.
///
/// Generation is **deterministic per (model, prompt)**: the same prompt
/// always yields the same image, so escalating a query to the heavyweight
/// model reproduces exactly what the real system would have computed.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffusionModel {
    name: String,
    steps: u32,
    latency: LatencyProfile,
    quality: QualityProfile,
    spec: FeatureSpec,
    seed_tag: u64,
}

/// One generated image: its feature vector and latent quality.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedImage {
    /// Feature-space representation (consumed by the discriminator and FID).
    pub features: Vec<f64>,
    /// Latent ground-truth quality in `[0, 1]` (not observable by the
    /// serving system; used by oracles and calibration tests).
    pub quality: f64,
}

impl DiffusionModel {
    /// Creates a model.
    pub fn new(
        name: impl Into<String>,
        steps: u32,
        latency: LatencyProfile,
        quality: QualityProfile,
        spec: FeatureSpec,
    ) -> Self {
        let name = name.into();
        // Stable per-model stream tag derived from the name bytes.
        let seed_tag = name
            .bytes()
            .fold(0xCAFE_F00Du64, |acc, b| {
                acc.wrapping_mul(131).wrapping_add(b as u64)
            })
            .wrapping_add(steps as u64);
        DiffusionModel {
            name,
            steps,
            latency,
            quality,
            spec,
            seed_tag,
        }
    }

    /// Model name (e.g. `"sd-turbo"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of denoising steps this variant runs.
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// The latency profile.
    pub fn latency(&self) -> &LatencyProfile {
        &self.latency
    }

    /// The quality profile.
    pub fn quality_profile(&self) -> &QualityProfile {
        &self.quality
    }

    /// The feature-space geometry.
    pub fn spec(&self) -> &FeatureSpec {
        &self.spec
    }

    /// Generates the image for `prompt`.
    ///
    /// Deterministic: repeated calls return identical results.
    pub fn generate(&self, prompt: &Prompt) -> GeneratedImage {
        self.generate_with_quality_shift(prompt, 0.0)
    }

    /// Generates with an additive quality adjustment, used by the reuse
    /// experiment (§5) where heavy generation warm-started from light
    /// latents can lose quality on incompatible pairs.
    pub fn generate_with_quality_shift(&self, prompt: &Prompt, shift: f64) -> GeneratedImage {
        let (features, quality) = self.render(prompt, shift);
        GeneratedImage {
            features: features.to_vec(),
            quality,
        }
    }

    /// The image [`DiffusionModel::generate_with_quality_shift`] returns,
    /// as an inline feature row and its quality: the one render body,
    /// which allocates nothing.
    pub fn render(&self, prompt: &Prompt, shift: f64) -> ([f64; DIM], f64) {
        let mut rng = seeded_rng(derive_seed(prompt.seed, self.seed_tag));
        let normal = Normal::standard();
        let q_noise = normal.draw(&mut rng) * self.quality.noise_std;
        let quality =
            (self.quality.expected_quality(prompt.difficulty) + q_noise + shift).clamp(0.0, 1.0);

        let mut features = [0.0; DIM];
        let scale = self.spec.feature_scale;
        features[ARTIFACT_AXIS] = scale
            * (self.spec.artifact_gain * (1.0 - quality)
                + normal.draw(&mut rng) * self.spec.artifact_noise);
        for f in &mut features[DIVERSITY_AXES] {
            *f = scale * normal.draw(&mut rng) * self.quality.diversity_sigma;
        }
        for f in &mut features[SHARED_AXES] {
            *f = scale * normal.draw(&mut rng) * self.spec.shared_sigma;
        }
        (features, quality)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::{DatasetKind, PromptDataset};

    fn test_model(base_error: f64, slope: f64, diversity: f64) -> DiffusionModel {
        DiffusionModel::new(
            "test",
            10,
            LatencyProfile::new(0.5, 0.3),
            QualityProfile {
                base_error,
                difficulty_slope: slope,
                noise_std: 0.1,
                diversity_sigma: diversity,
            },
            FeatureSpec::default(),
        )
    }

    #[test]
    fn latency_scales_affinely() {
        let p = LatencyProfile::new(1.0, 0.4);
        assert!((p.exec_latency(1).as_secs_f64() - 1.0).abs() < 1e-9);
        assert!((p.exec_latency(4).as_secs_f64() - (0.4 + 0.6 * 4.0)).abs() < 1e-9);
        // Throughput improves with batching.
        assert!(p.throughput(8) > p.throughput(1));
    }

    #[test]
    fn heavier_batching_overhead_means_more_gain() {
        let overhead_bound = LatencyProfile::new(0.1, 0.8);
        let compute_bound = LatencyProfile::new(1.78, 0.1);
        let gain_light = overhead_bound.throughput(16) / overhead_bound.throughput(1);
        let gain_heavy = compute_bound.throughput(16) / compute_bound.throughput(1);
        assert!(gain_light > gain_heavy);
    }

    #[test]
    fn quality_decreases_with_difficulty() {
        let q = QualityProfile {
            base_error: 0.2,
            difficulty_slope: 0.4,
            noise_std: 0.0,
            diversity_sigma: 1.0,
        };
        assert!((q.expected_quality(0.0) - 0.8).abs() < 1e-12);
        assert!((q.expected_quality(1.0) - 0.4).abs() < 1e-12);
        assert!(q.expected_quality(0.2) > q.expected_quality(0.8));
    }

    #[test]
    fn generation_is_deterministic() {
        let m = test_model(0.2, 0.4, 1.3);
        let d = PromptDataset::synthesize(DatasetKind::MsCoco, 5, 1, FeatureSpec::default());
        let p = &d.prompts()[0];
        assert_eq!(m.generate(p), m.generate(p));
    }

    #[test]
    fn different_prompts_yield_different_images() {
        let m = test_model(0.2, 0.4, 1.3);
        let d = PromptDataset::synthesize(DatasetKind::MsCoco, 5, 1, FeatureSpec::default());
        let a = m.generate(&d.prompts()[0]);
        let b = m.generate(&d.prompts()[1]);
        assert_ne!(a.features, b.features);
    }

    #[test]
    fn different_models_yield_different_images_for_same_prompt() {
        let m1 = test_model(0.2, 0.4, 1.3);
        let m2 = DiffusionModel::new(
            "other",
            50,
            LatencyProfile::new(1.78, 0.1),
            *m1.quality_profile(),
            FeatureSpec::default(),
        );
        let d = PromptDataset::synthesize(DatasetKind::MsCoco, 5, 1, FeatureSpec::default());
        let a = m1.generate(&d.prompts()[0]);
        let b = m2.generate(&d.prompts()[0]);
        assert_ne!(a.features, b.features);
    }

    #[test]
    fn artifact_axis_tracks_quality() {
        // Averaged over many prompts, low-quality generations sit farther
        // along the artifact axis.
        let weak = test_model(0.5, 0.3, 1.0);
        let strong = test_model(0.05, 0.05, 1.0);
        let d = PromptDataset::synthesize(DatasetKind::MsCoco, 400, 2, FeatureSpec::default());
        let mean_axis = |m: &DiffusionModel| {
            d.prompts()
                .iter()
                .map(|p| m.generate(p).features[ARTIFACT_AXIS])
                .sum::<f64>()
                / d.len() as f64
        };
        assert!(mean_axis(&weak) > mean_axis(&strong) + 1.0);
    }

    #[test]
    fn quality_shift_raises_quality() {
        let m = test_model(0.3, 0.3, 1.0);
        let d = PromptDataset::synthesize(DatasetKind::MsCoco, 50, 3, FeatureSpec::default());
        let mean_q = |shift: f64| {
            d.prompts()
                .iter()
                .map(|p| m.generate_with_quality_shift(p, shift).quality)
                .sum::<f64>()
                / d.len() as f64
        };
        assert!(mean_q(0.2) > mean_q(0.0) + 0.1);
        assert!(mean_q(-0.2) < mean_q(0.0) - 0.1);
    }

    #[test]
    fn a_lossless_shift_is_the_plain_render_bitwise() {
        // `repro reuse` warm-starts Cascade 1 with a zero shift and reads
        // its FID against the plain cascade's: that is sound only if a
        // zero shift, of either sign, renders the same bits.
        let m = test_model(0.3, 0.3, 1.0);
        let d = PromptDataset::synthesize(DatasetKind::MsCoco, 500, 4, FeatureSpec::default());
        let bits = |img: &GeneratedImage| -> Vec<u64> {
            img.features.iter().map(|f| f.to_bits()).collect()
        };
        for p in d.prompts() {
            let plain = m.generate(p);
            for shift in [0.0, -0.0] {
                let lossless = m.generate_with_quality_shift(p, shift);
                assert_eq!(plain.quality.to_bits(), lossless.quality.to_bits());
                assert_eq!(bits(&plain), bits(&lossless), "prompt {}", p.id);
            }
        }
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_panics() {
        let p = LatencyProfile::new(1.0, 0.2);
        let _ = p.exec_latency(0);
    }
}
