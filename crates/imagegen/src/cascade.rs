//! Offline cascade evaluation.
//!
//! The serving system in `diffserve-core` routes queries through the cascade
//! under time pressure; this module evaluates the *routing quality* of a
//! cascade in isolation (no queues, batch size 1), which is what the paper's
//! motivation figures (1a, 1b) and discriminator ablation (Fig. 7) measure.

use diffserve_linalg::Mat;
use diffserve_metrics::{frechet_distance, GaussianStats};
use diffserve_simkit::rng::seeded_rng;

use crate::discriminator::Discriminator;
use crate::model::DiffusionModel;
use crate::prompt::{Prompt, PromptDataset};
use crate::scorers::{ClipScorer, PickScorer};

/// How a cascade decides that a lightweight output is good enough.
#[derive(Debug, Clone)]
pub enum RoutingRule<'a> {
    /// Keep the light output when the discriminator confidence ≥ threshold.
    Discriminator(&'a Discriminator),
    /// Keep when simulated PickScore ≥ threshold.
    PickScore(PickScorer),
    /// Keep when simulated CLIPScore ≥ threshold.
    ClipScore(ClipScorer),
    /// Keep with fixed probability `1 − p_defer` (threshold plays the role
    /// of the deferral probability). Seeded for reproducibility.
    Random {
        /// RNG seed for the routing coin flips.
        seed: u64,
    },
}

/// Result of evaluating a cascade configuration over a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeEval {
    /// FID of the blended response set against the dataset's real images.
    pub fid: f64,
    /// Fraction of queries deferred to the heavyweight model.
    pub deferral_fraction: f64,
    /// Mean per-query generation latency in seconds (batch size 1,
    /// discriminator included, heavy latency added only for deferred
    /// queries) — the x-axis of Figs. 1a and 7.
    pub mean_latency: f64,
}

/// Evaluates a light/heavy cascade at one routing threshold over a dataset.
///
/// Ridge-regularizes the FID fit with `1e-6`, matching standard FID
/// implementations.
///
/// # Panics
///
/// Panics if the dataset is smaller than 2 prompts.
pub fn evaluate_cascade(
    dataset: &PromptDataset,
    light: &DiffusionModel,
    heavy: &DiffusionModel,
    rule: &RoutingRule<'_>,
    threshold: f64,
) -> CascadeEval {
    let prompts = dataset.prompts();
    let mut features: Vec<Vec<f64>> = Vec::with_capacity(prompts.len());
    let mut deferred = 0usize;
    let mut latency_sum = 0.0;
    let light_lat = light.latency().exec_latency(1).as_secs_f64();
    let heavy_lat = heavy.latency().exec_latency(1).as_secs_f64();
    let mut random_rng = match rule {
        RoutingRule::Random { seed } => Some(seeded_rng(*seed)),
        _ => None,
    };

    for prompt in prompts {
        let light_img = light.generate(prompt);
        let keep_light = match rule {
            RoutingRule::Discriminator(disc) => disc.confidence(&light_img.features) >= threshold,
            RoutingRule::PickScore(s) => s.score(prompt, &light_img) >= threshold,
            RoutingRule::ClipScore(s) => s.score(prompt, &light_img) >= threshold,
            RoutingRule::Random { .. } => {
                let rng = random_rng.as_mut().expect("random rng initialized");
                let u: f64 = rand::Rng::gen_range(rng, 0.0..1.0);
                u >= threshold
            }
        };
        let disc_lat = match rule {
            RoutingRule::Discriminator(disc) => disc.latency().as_secs_f64(),
            _ => 0.0,
        };
        if keep_light {
            latency_sum += light_lat + disc_lat;
            features.push(light_img.features);
        } else {
            deferred += 1;
            latency_sum += light_lat + disc_lat + heavy_lat;
            features.push(heavy.generate(prompt).features);
        }
    }

    CascadeEval {
        fid: fid_to_reference(dataset, &features),
        deferral_fraction: deferred as f64 / prompts.len() as f64,
        mean_latency: latency_sum / prompts.len() as f64,
    }
}

/// FID of serving *one* model for every prompt (the Clipper-Light /
/// Clipper-Heavy operating points and the independent variants of Fig. 1a).
pub fn evaluate_single_model(dataset: &PromptDataset, model: &DiffusionModel) -> CascadeEval {
    let rows: Vec<Vec<f64>> = dataset
        .prompts()
        .iter()
        .map(|p| model.generate(p).features)
        .collect();
    CascadeEval {
        fid: fid_to_reference(dataset, &rows),
        deferral_fraction: 0.0,
        mean_latency: model.latency().exec_latency(1).as_secs_f64(),
    }
}

/// FID of a response set against the dataset's reference Gaussian, the
/// set fitted with the same `1e-6` ridge as the reference.
fn fid_to_reference(dataset: &PromptDataset, rows: &[Vec<f64>]) -> f64 {
    let refs: Vec<&[f64]> = rows.iter().map(|f| f.as_slice()).collect();
    let generated =
        GaussianStats::fit(&Mat::from_rows(&refs), 1e-6).expect("two or more generated rows");
    frechet_distance(&generated, dataset.reference()).expect("feature sets are well-conditioned")
}

/// Per-prompt quality difference between heavy and light outputs, scored by
/// a metric. Negative values mean the light model won — the "easy queries"
/// of Fig. 1b.
pub fn quality_differences(
    dataset: &PromptDataset,
    light: &DiffusionModel,
    heavy: &DiffusionModel,
    metric: impl Fn(&Prompt, &crate::model::GeneratedImage) -> f64,
) -> Vec<f64> {
    dataset
        .prompts()
        .iter()
        .map(|p| {
            let li = light.generate(p);
            let hi = heavy.generate(p);
            metric(p, &hi) - metric(p, &li)
        })
        .collect()
}

/// Fraction of prompts where the light model's latent quality matches or
/// beats the heavy model's — the paper's 20–40% "easy query" share.
pub fn easy_query_fraction(
    dataset: &PromptDataset,
    light: &DiffusionModel,
    heavy: &DiffusionModel,
) -> f64 {
    let diffs = quality_differences(dataset, light, heavy, |_, img| img.quality);
    let easy = diffs.iter().filter(|&&d| d <= 0.0).count();
    easy as f64 / diffs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discriminator::{Discriminator, DiscriminatorConfig};
    use crate::features::FeatureSpec;
    use crate::prompt::DatasetKind;
    use crate::zoo::{cascade1, cascade2};

    fn setup() -> (PromptDataset, DiffusionModel, DiffusionModel, Discriminator) {
        let spec = FeatureSpec::default();
        let c = cascade1(spec);
        let dataset = PromptDataset::synthesize(DatasetKind::MsCoco, 1200, 21, spec);
        let disc = Discriminator::train(
            &dataset,
            &c.light,
            &c.heavy,
            DiscriminatorConfig {
                train_prompts: 500,
                epochs: 12,
                ..Default::default()
            },
        );
        (dataset, c.light, c.heavy, disc)
    }

    #[test]
    fn easy_fraction_in_paper_band() {
        let spec = FeatureSpec::default();
        let dataset = PromptDataset::synthesize(DatasetKind::MsCoco, 3000, 5, spec);
        for c in [cascade1(spec), cascade2(spec)] {
            let frac = easy_query_fraction(&dataset, &c.light, &c.heavy);
            assert!(
                (0.15..=0.45).contains(&frac),
                "cascade {}: easy fraction {frac} outside the paper's 20-40% band",
                c.name
            );
        }
    }

    #[test]
    fn light_model_has_worse_fid_than_heavy() {
        let (dataset, light, heavy, _) = setup();
        let l = evaluate_single_model(&dataset, &light);
        let h = evaluate_single_model(&dataset, &heavy);
        assert!(
            l.fid > h.fid + 1.0,
            "light FID {} should exceed heavy FID {}",
            l.fid,
            h.fid
        );
    }

    #[test]
    fn threshold_zero_is_all_light_and_one_is_all_heavy() {
        let (dataset, light, heavy, disc) = setup();
        let rule = RoutingRule::Discriminator(&disc);
        let all_light = evaluate_cascade(&dataset, &light, &heavy, &rule, 0.0);
        assert_eq!(all_light.deferral_fraction, 0.0);
        let all_heavy = evaluate_cascade(&dataset, &light, &heavy, &rule, 1.01);
        assert_eq!(all_heavy.deferral_fraction, 1.0);
        assert!(all_heavy.mean_latency > all_light.mean_latency);
    }

    #[test]
    fn cascade_mid_threshold_beats_all_heavy_fid() {
        // The paper's surprising finding: a blend can have *lower* FID than
        // heavy-only (§2.2).
        let (dataset, light, heavy, disc) = setup();
        let rule = RoutingRule::Discriminator(&disc);
        let all_heavy = evaluate_cascade(&dataset, &light, &heavy, &rule, 1.01);
        let best_mix = (1..10)
            .map(|i| evaluate_cascade(&dataset, &light, &heavy, &rule, i as f64 / 10.0))
            .map(|e| e.fid)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best_mix < all_heavy.fid,
            "best mixed FID {best_mix} should beat heavy-only {}",
            all_heavy.fid
        );
    }

    #[test]
    fn discriminator_routing_beats_random_at_same_deferral() {
        let (dataset, light, heavy, disc) = setup();
        let disc_rule = RoutingRule::Discriminator(&disc);
        let eval_d = evaluate_cascade(&dataset, &light, &heavy, &disc_rule, 0.5);
        // Random routing with matching deferral fraction.
        let rand_rule = RoutingRule::Random { seed: 77 };
        let eval_r = evaluate_cascade(
            &dataset,
            &light,
            &heavy,
            &rand_rule,
            eval_d.deferral_fraction,
        );
        assert!(
            (eval_d.deferral_fraction - eval_r.deferral_fraction).abs() < 0.05,
            "deferral fractions must be comparable"
        );
        assert!(
            eval_d.fid < eval_r.fid,
            "discriminator FID {} should beat random FID {}",
            eval_d.fid,
            eval_r.fid
        );
    }

    #[test]
    fn quality_differences_are_mostly_positive() {
        let (dataset, light, heavy, _) = setup();
        let diffs = quality_differences(&dataset, &light, &heavy, |_, img| img.quality);
        let positive = diffs.iter().filter(|&&d| d > 0.0).count();
        assert!(positive * 2 > diffs.len(), "heavy should usually win");
    }
}
