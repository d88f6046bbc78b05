//! Prepared cascade artifacts shared across simulation runs.

use diffserve_imagegen::features::DIM;
use diffserve_imagegen::{
    CascadeSpec, DeferralProfile, DiffusionModel, Discriminator, DiscriminatorConfig,
    GeneratedImage, PromptDataset, TierLadder,
};
use diffserve_linalg::Mat;
use diffserve_metrics::GaussianStats;
use diffserve_simkit::rng::derive_seed;
use std::ops::Deref;
use std::sync::Arc;

/// Per-boundary artifacts for an N-tier quality ladder.
///
/// `models[k]` is tier `k`, cheapest first; `discriminators[k]` and
/// `deferrals[k]` belong to the escalation boundary between tiers `k` and
/// `k+1` (so both vectors have length N-1). Boundary `0`'s artifacts are
/// always identical to the legacy cascade's `discriminator`/`deferral`
/// fields — a two-tier ladder is the legacy cascade.
#[derive(Debug, Clone)]
pub struct LadderArtifacts {
    /// The model tiers, cheapest first.
    pub models: Vec<DiffusionModel>,
    /// One discriminator per boundary, each trained to tell tier-`k`
    /// outputs from terminal-tier outputs.
    pub discriminators: Vec<Discriminator>,
    /// One offline deferral profile `f_k(t)` per boundary, profiled from
    /// boundary-`k` confidences on the held-out prompts.
    pub deferrals: Vec<DeferralProfile>,
}

impl LadderArtifacts {
    /// Number of model tiers (N).
    pub fn num_tiers(&self) -> usize {
        self.models.len()
    }

    /// Number of escalation boundaries (N-1).
    pub fn boundaries(&self) -> usize {
        self.models.len() - 1
    }
}

/// Everything a serving run needs that is prepared *offline* in the paper:
/// the prompt dataset, the trained discriminator, the profiled deferral
/// curve `f(t)` and the FID reference Gaussian — plus two tables this
/// reproduction adds because a render is a pure function of `(tier,
/// prompt)`: every tier's plain render of every dataset prompt, and every
/// boundary's score of it.
///
/// Immutable once prepared: a handle over one shared [`PreparedRuntime`],
/// which it dereferences to (`runtime.dataset`, `runtime.scores()`).
/// Cloning it bumps a reference count and copies no artifact, so every
/// session and every testbed worker thread reads the same one.
#[derive(Debug, Clone)]
pub struct CascadeRuntime(Arc<PreparedRuntime>);

/// The artifacts behind a [`CascadeRuntime`]. Only
/// [`CascadeRuntime::prepare`] and [`CascadeRuntime::prepare_ladder`] build
/// one, and nothing hands out a mutable reference to it.
///
/// No real-image feature rows stay resident: the dataset keeps its
/// reference only as a Gaussian, and discriminator training samples the
/// real rows it reads and frees them. The resident tables are the render
/// table (`N × DIM` features and `N` qualities per tier, ≈ 0.68 MB a tier
/// at 5 000 prompts) and the score table.
#[derive(Debug)]
pub struct PreparedRuntime {
    /// The light/heavy pairing with latency and SLO metadata.
    pub spec: CascadeSpec,
    /// Synthetic prompt dataset (queries + the FID reference Gaussian).
    pub dataset: PromptDataset,
    /// Trained cascade discriminator.
    pub discriminator: Discriminator,
    /// Offline-profiled deferral curve `f(t)` (sessions clone it and update
    /// their copy online).
    pub deferral: DeferralProfile,
    /// The FID reference Gaussian, reused by every window: a clone of
    /// [`PromptDataset::reference`], covariance root taken.
    pub reference: GaussianStats,
    /// N-tier ladder artifacts, present only when the runtime was prepared
    /// with [`CascadeRuntime::prepare_ladder`]. `None` (every legacy
    /// construction) keeps both serving engines on the exact two-tier
    /// cascade code path.
    pub ladder: Option<LadderArtifacts>,
    /// `scores[k][i]`: boundary `k`'s confidence in tier `k`'s plain render
    /// of dataset prompt `i`, one row per boundary. A boundary verdict on a
    /// dataset prompt reads it instead of rendering and scoring again, and
    /// `f(t)` is profiled from its held-out slice. Read it through
    /// [`PreparedRuntime::scores`].
    scores: Vec<Vec<f64>>,
    /// `renders[k]`: tier `k`'s plain render of every dataset prompt, one
    /// table per tier. A completion on a dataset prompt reads its image
    /// here, and the score table is scored from it. Read it through
    /// [`PreparedRuntime::renders`].
    renders: Vec<RenderTable>,
}

/// One tier's plain render ([`DiffusionModel::generate`]) of every dataset
/// prompt: an `N × DIM` feature matrix and `N` latent qualities.
#[derive(Debug)]
pub(crate) struct RenderTable {
    features: Mat,
    quality: Vec<f64>,
}

impl RenderTable {
    /// Renders every prompt of `dataset` with `model`.
    fn render(model: &DiffusionModel, dataset: &PromptDataset) -> Self {
        let mut features = Mat::zeros(dataset.len(), DIM);
        let quality = dataset
            .prompts()
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let image = model.generate(p);
                features.row_mut(i).copy_from_slice(&image.features);
                image.quality
            })
            .collect();
        RenderTable { features, quality }
    }

    /// The image of `dataset.prompts()[i]`, bitwise what `generate` returns.
    #[inline]
    pub(crate) fn image(&self, i: usize) -> GeneratedImage {
        GeneratedImage {
            features: self.features.row(i).to_vec(),
            quality: self.quality[i],
        }
    }
}

impl Deref for CascadeRuntime {
    type Target = PreparedRuntime;

    fn deref(&self) -> &PreparedRuntime {
        &self.0
    }
}

impl CascadeRuntime {
    /// Prepares a cascade: synthesizes the dataset, trains the
    /// discriminator, renders every dataset prompt on both tiers, scores
    /// the light renders, and profiles `f(t)` from the scores of the
    /// prompts held out from discriminator training.
    ///
    /// # Panics
    ///
    /// Panics if `dataset_size` is too small to hold both the
    /// discriminator training set and a held-out profiling set.
    ///
    /// # Examples
    ///
    /// ```
    /// use diffserve_core::CascadeRuntime;
    /// use diffserve_imagegen::{cascade1, DiscriminatorConfig, FeatureSpec};
    ///
    /// // Reduced scale so the doctest trains in milliseconds; experiments
    /// // use 5000 prompts and the default discriminator config.
    /// let runtime = CascadeRuntime::prepare(
    ///     cascade1(FeatureSpec::default()),
    ///     200,
    ///     7,
    ///     DiscriminatorConfig { train_prompts: 100, epochs: 2, ..Default::default() },
    /// );
    /// // f(t) is profiled on the held-out prompts only.
    /// assert_eq!(runtime.deferral.sample_count(), 100);
    /// assert!(runtime.deferral.fraction_deferred(1.1) >= 1.0);
    /// ```
    pub fn prepare(
        spec: CascadeSpec,
        dataset_size: usize,
        seed: u64,
        disc_config: DiscriminatorConfig,
    ) -> Self {
        CascadeRuntime(Arc::new(PreparedRuntime::build(
            spec,
            None,
            dataset_size,
            seed,
            disc_config,
        )))
    }

    /// Prepares an N-tier quality ladder: synthesizes the dataset once,
    /// trains one discriminator per boundary, renders every dataset prompt
    /// on every tier, then scores each boundary's renders and profiles one
    /// deferral curve per boundary (each on the same held-out prompt split
    /// the legacy cascade uses).
    ///
    /// A two-tier ladder runs the same preparation as
    /// [`CascadeRuntime::prepare`], so its artifacts — and every downstream
    /// serving decision — are bit-identical to the equivalent
    /// [`CascadeSpec`]'s.
    ///
    /// # Panics
    ///
    /// Panics if the ladder fails [`TierLadder::validate`] or if
    /// `dataset_size` is too small to hold both the discriminator training
    /// set and a held-out profiling set.
    pub fn prepare_ladder(
        ladder: TierLadder,
        dataset_size: usize,
        seed: u64,
        disc_config: DiscriminatorConfig,
    ) -> Self {
        ladder.validate().expect("valid tier ladder");
        CascadeRuntime(Arc::new(PreparedRuntime::build(
            ladder.cascade_view(),
            Some(ladder.tiers),
            dataset_size,
            seed,
            disc_config,
        )))
    }
}

impl PreparedRuntime {
    /// The artifacts of `spec`, or of the ladder `tiers` whose endpoints
    /// `spec` views, not yet shared.
    fn build(
        spec: CascadeSpec,
        tiers: Option<Vec<DiffusionModel>>,
        dataset_size: usize,
        seed: u64,
        disc_config: DiscriminatorConfig,
    ) -> Self {
        assert!(
            dataset_size > disc_config.train_prompts + 64,
            "dataset of {dataset_size} leaves no held-out prompts after {} training prompts",
            disc_config.train_prompts
        );
        let feature_spec = *spec.light.spec();
        let dataset = PromptDataset::synthesize(
            spec.dataset,
            dataset_size,
            derive_seed(seed, 0xDA7A),
            feature_spec,
        );
        let models: Vec<&DiffusionModel> = match &tiers {
            Some(tiers) => tiers.iter().collect(),
            None => vec![&spec.light, &spec.heavy],
        };
        let (cheap, terminal) = models.split_at(models.len() - 1);
        // Every boundary trains before any tier renders, so the tables
        // reuse the heap the training sets freed instead of adding to it.
        let discriminators: Vec<Discriminator> = cheap
            .iter()
            .map(|tier| Discriminator::train(&dataset, tier, terminal[0], disc_config))
            .collect();
        let renders: Vec<RenderTable> = models
            .iter()
            .map(|tier| RenderTable::render(tier, &dataset))
            .collect();
        let (scores, deferrals): (Vec<_>, Vec<_>) = discriminators
            .iter()
            .zip(&renders)
            .map(|(disc, table)| score_boundary(table, disc, disc_config.train_prompts))
            .unzip();

        PreparedRuntime {
            discriminator: discriminators[0].clone(),
            deferral: deferrals[0].clone(),
            reference: dataset.reference().clone(),
            ladder: tiers.map(|models| LadderArtifacts {
                models,
                discriminators,
                deferrals,
            }),
            spec,
            dataset,
            scores,
            renders,
        }
    }

    /// Number of model tiers this runtime serves (2 for a legacy cascade).
    pub fn num_tiers(&self) -> usize {
        self.ladder.as_ref().map_or(2, LadderArtifacts::num_tiers)
    }

    /// The prepared score table: `scores()[k][i]` is boundary `k`'s
    /// confidence in tier `k`'s plain render of `dataset.prompts()[i]`.
    pub fn scores(&self) -> &[Vec<f64>] {
        &self.scores
    }

    /// The prepared render table: `renders()[k].image(i)` is tier `k`'s
    /// plain render of `dataset.prompts()[i]`.
    pub(crate) fn renders(&self) -> &[RenderTable] {
        &self.renders
    }
}

/// Scores one tier's tabled renders at its boundary, and profiles `f(t)`
/// from the scores of the prompts after the first `train_prompts` — the
/// ones discriminator training never saw, exactly like the paper's offline
/// initialization.
fn score_boundary(
    renders: &RenderTable,
    discriminator: &Discriminator,
    train_prompts: usize,
) -> (Vec<f64>, DeferralProfile) {
    let scores: Vec<f64> = (0..renders.quality.len())
        .map(|i| discriminator.confidence(renders.features.row(i)))
        .collect();
    let deferral = DeferralProfile::from_confidences(scores[train_prompts..].to_vec())
        .expect("held-out profiling set is non-empty by the dataset-size assertion");
    (scores, deferral)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffserve_imagegen::{cascade1, FeatureSpec};

    fn quick_runtime() -> CascadeRuntime {
        CascadeRuntime::prepare(
            cascade1(FeatureSpec::default()),
            1000,
            7,
            DiscriminatorConfig {
                train_prompts: 400,
                epochs: 10,
                ..Default::default()
            },
        )
    }

    #[test]
    fn deferral_profile_is_roughly_uniform() {
        // Calibrated confidences are near-uniform, so f(t) ≈ t.
        let rt = quick_runtime();
        for t in [0.2, 0.5, 0.8] {
            let f = rt.deferral.fraction_deferred(t);
            assert!((f - t).abs() < 0.15, "f({t}) = {f}, expected ≈ {t}");
        }
    }

    #[test]
    fn profiling_uses_held_out_prompts() {
        let rt = quick_runtime();
        assert_eq!(rt.deferral.sample_count(), 600);
    }

    #[test]
    fn reference_dimensions_match() {
        let rt = quick_runtime();
        assert_eq!(rt.reference.dim(), diffserve_imagegen::features::DIM);
    }

    #[test]
    fn two_tier_ladder_artifacts_match_legacy() {
        use diffserve_imagegen::{cascade1, TierLadder};
        let spec = FeatureSpec::default();
        let legacy = quick_runtime();
        let ladder = CascadeRuntime::prepare_ladder(
            TierLadder::from_cascade(&cascade1(spec)),
            1000,
            7,
            DiscriminatorConfig {
                train_prompts: 400,
                epochs: 10,
                ..Default::default()
            },
        );
        let artifacts = ladder.ladder.as_ref().expect("ladder artifacts");
        assert_eq!(artifacts.num_tiers(), 2);
        assert_eq!(artifacts.boundaries(), 1);
        assert_eq!(ladder.num_tiers(), 2);
        // Boundary 0 is the legacy discriminator/profile bit-for-bit.
        let p = &legacy.dataset.prompts()[11];
        let img = legacy.spec.light.generate(p);
        assert_eq!(
            legacy.discriminator.confidence(&img.features),
            artifacts.discriminators[0].confidence(&img.features)
        );
        for t in [0.1, 0.4, 0.8] {
            assert_eq!(
                legacy.deferral.fraction_deferred(t),
                artifacts.deferrals[0].fraction_deferred(t)
            );
        }
        // So is the score table, and it is the fresh render's score.
        assert_eq!(legacy.scores(), ladder.scores());
        assert_table_is_fresh(&ladder);
    }

    /// Every entry of `rt`'s tables equals, bitwise, a fresh render of its
    /// prompt: the render table's features and quality on every tier, and
    /// the score table's confidence by each boundary's discriminator.
    fn assert_table_is_fresh(rt: &CascadeRuntime) {
        let (models, discs): (Vec<&DiffusionModel>, Vec<&Discriminator>) = match &rt.ladder {
            Some(a) => (a.models.iter().collect(), a.discriminators.iter().collect()),
            None => (
                vec![&rt.spec.light, &rt.spec.heavy],
                vec![&rt.discriminator],
            ),
        };
        assert_eq!(rt.renders().len(), models.len(), "one table per tier");
        assert_eq!(rt.scores().len(), discs.len(), "one row per boundary");
        for (k, (model, table)) in models.iter().zip(rt.renders()).enumerate() {
            assert_eq!(table.quality.len(), rt.dataset.len(), "tier {k}");
            assert_eq!(table.features.rows(), rt.dataset.len(), "tier {k}");
            for (i, p) in rt.dataset.prompts().iter().enumerate() {
                let (tabled, fresh) = (table.image(i), model.generate(p));
                assert_eq!(tabled.quality.to_bits(), fresh.quality.to_bits());
                for (a, b) in tabled.features.iter().zip(&fresh.features) {
                    assert_eq!(a.to_bits(), b.to_bits(), "tier {k}, prompt {i}");
                }
                if let (Some(row), Some(disc)) = (rt.scores().get(k), discs.get(k)) {
                    let score = disc.confidence(&fresh.features);
                    assert_eq!(
                        row[i].to_bits(),
                        score.to_bits(),
                        "boundary {k}, prompt {i}"
                    );
                }
            }
        }
        for (k, row) in rt.scores().iter().enumerate() {
            assert_eq!(row.len(), rt.dataset.len(), "boundary {k}");
        }
    }

    #[test]
    fn tables_are_the_fresh_render_and_score_under_every_arch() {
        // ResNet and ViT add backbone noise seeded from the feature bits,
        // so a tabled score is only sound if that noise is reproducible.
        use diffserve_imagegen::DiscArch;
        for arch in [
            DiscArch::EfficientNetV2,
            DiscArch::ResNet34,
            DiscArch::ViTB16,
        ] {
            let rt = CascadeRuntime::prepare(
                cascade1(FeatureSpec::default()),
                300,
                7,
                DiscriminatorConfig {
                    arch,
                    train_prompts: 100,
                    epochs: 2,
                    ..Default::default()
                },
            );
            assert_table_is_fresh(&rt);
        }
    }

    #[test]
    fn three_tier_ladder_prepares_per_boundary_artifacts() {
        use diffserve_imagegen::ladder3;
        let rt = CascadeRuntime::prepare_ladder(
            ladder3(FeatureSpec::default()),
            700,
            7,
            DiscriminatorConfig {
                train_prompts: 300,
                epochs: 4,
                ..Default::default()
            },
        );
        let artifacts = rt.ladder.as_ref().expect("ladder artifacts");
        assert_eq!(artifacts.num_tiers(), 3);
        assert_eq!(artifacts.discriminators.len(), 2);
        assert_eq!(artifacts.deferrals.len(), 2);
        // Both boundaries were profiled on the held-out split.
        for d in &artifacts.deferrals {
            assert_eq!(d.sample_count(), 400);
        }
        // The embedded cascade view spans the ladder's endpoints.
        assert_eq!(rt.spec.light.name(), artifacts.models[0].name());
        assert_eq!(rt.spec.heavy.name(), artifacts.models[2].name());
        assert_table_is_fresh(&rt);
    }

    #[test]
    fn a_clone_shares_the_prepared_artifacts() {
        let ladder = CascadeRuntime::prepare_ladder(
            diffserve_imagegen::ladder3(FeatureSpec::default()),
            300,
            7,
            DiscriminatorConfig {
                train_prompts: 100,
                epochs: 2,
                ..Default::default()
            },
        );
        for rt in [quick_runtime(), ladder] {
            let clone = rt.clone();
            assert!(std::ptr::eq(rt.dataset.prompts(), clone.dataset.prompts()));
            assert!(std::ptr::eq(&rt.scores()[0], &clone.scores()[0]));
            assert!(std::ptr::eq(rt.renders(), clone.renders()));
            assert!(std::ptr::eq(&rt.reference, &clone.reference));
        }
    }

    #[test]
    fn runtime_is_send_and_sync() {
        // Compiles only if testbed threads can share one runtime.
        fn shareable<T: Send + Sync>() {}
        shareable::<CascadeRuntime>();
    }

    #[test]
    #[should_panic(expected = "held-out")]
    fn undersized_dataset_panics() {
        let _ = CascadeRuntime::prepare(
            cascade1(FeatureSpec::default()),
            400,
            7,
            DiscriminatorConfig {
                train_prompts: 400,
                epochs: 2,
                ..Default::default()
            },
        );
    }
}
