//! Predictive (pre-generation) routing — the paper's §5 open question.
//!
//! "An alternative approach is to use the query itself to make routing
//! decisions before executing any diffusion models. However, predicting
//! image generation quality solely from text inputs is challenging ... it
//! remains an open question whether a query-based routing strategy would
//! yield better performance."
//!
//! This module implements that alternative inside the serving loop: the
//! [`OnlinePredictiveRouter`] learns, from (noisy) prompt embeddings and
//! the discriminator verdicts the ladder actually produces, which queries
//! will escalate, and admits those straight at a deeper tier. Compared to
//! the post-hoc discriminator cascade it saves the cheap-tier latency on
//! deferred queries but routes on strictly less information (it never sees
//! the actual image).

use std::sync::Arc;

use diffserve_simkit::rng::{derive_seed, seeded_rng, Normal, Sampler};

use crate::prompt::Prompt;

/// Dimensionality of the synthetic prompt (text) embedding.
const TEXT_DIM: usize = 8;

/// The standard normals behind a prompt's text embedding. They depend on
/// the prompt's `seed` alone, so a difficulty shift leaves them unchanged.
fn embedding_draws(seed: u64) -> [f64; TEXT_DIM] {
    let mut rng = seeded_rng(derive_seed(seed, 0x7E87));
    let normal = Normal::standard();
    std::array::from_fn(|_| normal.draw(&mut rng))
}

/// Deterministic synthetic text embedding of a prompt, from its draws `z`:
/// two coordinates carry noisy views of the prompt's difficulty and style,
/// the rest is prompt-specific structure no router can exploit. The noise
/// level is the knob that makes text-only quality prediction
/// "challenging" (§5).
fn text_embedding(prompt: &Prompt, z: &[f64; TEXT_DIM], observation_noise: f64) -> [f64; TEXT_DIM] {
    let mut e = *z;
    e[0] = prompt.difficulty + observation_noise * z[0];
    e[1] = prompt.style_bias + observation_noise * z[1];
    e
}

/// Every prompt's embedding draws, prepared once for a prompt set so that
/// a router reads them instead of drawing them again on each prediction
/// and each observation.
#[derive(Debug)]
pub struct EmbeddingDraws {
    /// Row `i`: the seed of the set's `i`-th prompt and its draws.
    rows: Vec<(u64, [f64; TEXT_DIM])>,
}

impl EmbeddingDraws {
    /// Draws for every prompt of `prompts`, one row each, in order.
    pub fn prepare(prompts: &[Prompt]) -> Self {
        EmbeddingDraws {
            rows: prompts
                .iter()
                .map(|p| (p.seed, embedding_draws(p.seed)))
                .collect(),
        }
    }

    /// The draws of `prompt`: row `prompt.id`, if that row was drawn from
    /// `prompt.seed`. A dataset's prompts have their position as id; any
    /// other prompt misses and is drawn fresh.
    fn get(&self, prompt: &Prompt) -> Option<&[f64; TEXT_DIM]> {
        let (seed, z) = self.rows.get(usize::try_from(prompt.id).ok()?)?;
        (*seed == prompt.seed).then_some(z)
    }
}

/// Knobs for the [`OnlinePredictiveRouter`] used by the serving engines in
/// ladder mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineRouterConfig {
    /// Std of the observation noise on the embedding's informative
    /// coordinates.
    pub observation_noise: f64,
    /// SGD step size for the per-boundary logistic models.
    pub learning_rate: f64,
    /// Observations a boundary needs before its predictions are trusted;
    /// cold boundaries never skip a tier.
    pub min_observations: u64,
    /// Predicted escalation probability at or above which a query skips
    /// past the boundary's cheap tier.
    pub margin: f64,
}

impl Default for OnlineRouterConfig {
    fn default() -> Self {
        OnlineRouterConfig {
            observation_noise: 0.35,
            learning_rate: 0.05,
            min_observations: 64,
            margin: 0.6,
        }
    }
}

/// A pre-execution router for N-tier ladders, trained online from observed
/// deferral outcomes.
///
/// One logistic model per ladder boundary predicts, from the text embedding
/// alone, whether a query served at tier `k` would be escalated by the
/// boundary-`k` discriminator. Every discriminator verdict (kept or
/// escalated) is a labeled example, so the router needs no offline training
/// pass and tracks difficulty shifts. At admission, a query's entry tier is
/// the deepest tier it is predicted to escalate through: queries
/// predicted-hard at every boundary skip straight to the terminal tier and
/// never pay cheap-tier compute.
#[derive(Debug, Clone)]
pub struct OnlinePredictiveRouter {
    /// Per boundary: `TEXT_DIM` weights plus a trailing bias term.
    weights: Vec<Vec<f64>>,
    counts: Vec<u64>,
    config: OnlineRouterConfig,
    /// Prepared draws read in place of fresh ones, when attached.
    draws: Option<Arc<EmbeddingDraws>>,
}

impl OnlinePredictiveRouter {
    /// Creates a cold router for a ladder with `boundaries` = N-1
    /// escalation boundaries.
    pub fn new(boundaries: usize, config: OnlineRouterConfig) -> Self {
        OnlinePredictiveRouter {
            weights: vec![vec![0.0; TEXT_DIM + 1]; boundaries],
            counts: vec![0; boundaries],
            config,
            draws: None,
        }
    }

    /// This router reading `draws` for the prompts they hold. The table
    /// changes no prediction: a prompt it does not hold is drawn fresh.
    pub fn with_draws(mut self, draws: Arc<EmbeddingDraws>) -> Self {
        self.draws = Some(draws);
        self
    }

    /// Number of boundaries this router predicts over.
    pub fn boundaries(&self) -> usize {
        self.weights.len()
    }

    /// Labeled outcomes observed at `boundary` so far.
    pub fn observations(&self, boundary: usize) -> u64 {
        self.counts[boundary]
    }

    /// The text embedding this router sees for `prompt`.
    fn embedding(&self, prompt: &Prompt) -> [f64; TEXT_DIM] {
        let z = match self.draws.as_deref().and_then(|d| d.get(prompt)) {
            Some(z) => {
                // The draw table's twin: the prompt's own draws, bit for bit.
                #[cfg(debug_assertions)]
                assert_eq!(
                    z.map(f64::to_bits),
                    embedding_draws(prompt.seed).map(f64::to_bits),
                    "embedding draw table diverged at prompt {}",
                    prompt.id
                );
                *z
            }
            None => embedding_draws(prompt.seed),
        };
        text_embedding(prompt, &z, self.config.observation_noise)
    }

    fn logit(&self, boundary: usize, embedding: &[f64; TEXT_DIM]) -> f64 {
        let w = &self.weights[boundary];
        let mut z = w[TEXT_DIM];
        for (wi, xi) in w[..TEXT_DIM].iter().zip(embedding) {
            z += wi * xi;
        }
        z
    }

    /// Trains on one observed deferral outcome: the boundary-`boundary`
    /// discriminator either kept the query (`escalated = false`) or sent it
    /// deeper (`escalated = true`).
    pub fn observe(&mut self, boundary: usize, prompt: &Prompt, escalated: bool) {
        let e = self.embedding(prompt);
        let p = sigmoid(self.logit(boundary, &e));
        let err = f64::from(escalated) - p;
        let lr = self.config.learning_rate;
        let w = &mut self.weights[boundary];
        for (wi, xi) in w[..TEXT_DIM].iter_mut().zip(&e) {
            *wi += lr * err * xi;
        }
        w[TEXT_DIM] += lr * err;
        self.counts[boundary] += 1;
    }

    /// Predicted probability that this prompt escalates through `boundary`,
    /// or `None` while the boundary is still cold.
    pub fn escalation_prob(&self, boundary: usize, prompt: &Prompt) -> Option<f64> {
        if self.counts[boundary] < self.config.min_observations {
            return None;
        }
        Some(sigmoid(self.logit(boundary, &self.embedding(prompt))))
    }

    /// The tier this prompt should enter the ladder at: the deepest tier
    /// whose every preceding boundary predicts escalation with probability
    /// at or above the configured margin. Cold boundaries stop the walk, so
    /// an untrained router always answers tier 0 (always-cheapest-first).
    pub fn entry_tier(&self, prompt: &Prompt) -> usize {
        let mut embedding = None;
        let mut tier = 0;
        for boundary in 0..self.boundaries() {
            if self.counts[boundary] < self.config.min_observations {
                break;
            }
            let e = embedding.get_or_insert_with(|| self.embedding(prompt));
            if sigmoid(self.logit(boundary, e)) >= self.config.margin {
                tier = boundary + 1;
            } else {
                break;
            }
        }
        tier
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSpec;
    use crate::ladder::ladder3;
    use crate::prompt::{DatasetKind, PromptDataset};

    fn dataset() -> PromptDataset {
        PromptDataset::synthesize(DatasetKind::MsCoco, 1500, 61, FeatureSpec::default())
    }

    #[test]
    fn embedding_is_deterministic_and_informative() {
        let dataset = dataset();
        let p = &dataset.prompts()[7];
        let z = embedding_draws(p.seed);
        assert_eq!(z, embedding_draws(p.seed));
        assert_eq!(text_embedding(p, &z, 0.3), text_embedding(p, &z, 0.3));
        // Zero-noise embedding carries difficulty exactly.
        assert!((text_embedding(p, &z, 0.0)[0] - p.difficulty).abs() < 1e-12);
    }

    #[test]
    fn prepared_draws_are_the_fresh_draws() {
        let spec = FeatureSpec::default();
        let dataset = PromptDataset::synthesize(ladder3(spec).dataset, 1500, 7, spec);
        let prompts = dataset.prompts();
        let draws = Arc::new(EmbeddingDraws::prepare(prompts));
        let fresh = OnlinePredictiveRouter::new(2, OnlineRouterConfig::default());
        let tabled = fresh.clone().with_draws(Arc::clone(&draws));
        let bits = |e: [f64; TEXT_DIM]| e.map(f64::to_bits);
        for p in prompts {
            let row = draws.get(p).expect("a dataset prompt is tabled");
            assert_eq!(bits(*row), bits(embedding_draws(p.seed)), "prompt {}", p.id);
            // A difficulty shift keeps the seed, and so the row.
            for delta in [0.0, 0.25, -0.4] {
                let shifted = p.harder(delta);
                assert_eq!(
                    bits(tabled.embedding(&shifted)),
                    bits(fresh.embedding(&shifted)),
                    "prompt {} shifted by {delta}",
                    p.id
                );
            }
        }
        // An explicit prompt naming a tabled id with another seed, or an
        // id past the table, is drawn fresh.
        let reseeded = Prompt {
            seed: prompts[3].seed ^ 1,
            ..prompts[3]
        };
        let unknown = Prompt {
            id: prompts.len() as u64,
            ..prompts[3]
        };
        for p in [reseeded, unknown] {
            assert!(draws.get(&p).is_none());
            assert_eq!(bits(tabled.embedding(&p)), bits(fresh.embedding(&p)));
        }
    }

    #[test]
    fn online_router_learns_escalation_outcomes() {
        let dataset = dataset();
        let mut router = OnlinePredictiveRouter::new(
            1,
            OnlineRouterConfig {
                min_observations: 64,
                ..Default::default()
            },
        );
        let prompts = dataset.prompts();
        assert_eq!(
            router.entry_tier(&prompts[0]),
            0,
            "cold router stays at tier 0"
        );
        // Ground truth proxy: hard prompts escalate.
        for _pass in 0..4 {
            for p in &prompts[..600] {
                router.observe(0, p, p.difficulty > 0.5);
            }
        }
        let held_out = &prompts[600..];
        let mean_prob = |filter: &dyn Fn(&Prompt) -> bool| {
            let probs: Vec<f64> = held_out
                .iter()
                .filter(|p| filter(p))
                .map(|p| router.escalation_prob(0, p).expect("warmed up"))
                .collect();
            probs.iter().sum::<f64>() / probs.len() as f64
        };
        let hard = mean_prob(&|p: &Prompt| p.difficulty > 0.7);
        let easy = mean_prob(&|p: &Prompt| p.difficulty < 0.3);
        assert!(
            hard > easy + 0.2,
            "router should separate hard ({hard}) from easy ({easy}) prompts"
        );
        // Determinism: replaying the same observations yields the same model.
        let mut replay = OnlinePredictiveRouter::new(
            1,
            OnlineRouterConfig {
                min_observations: 64,
                ..Default::default()
            },
        );
        for _pass in 0..4 {
            for p in &prompts[..600] {
                replay.observe(0, p, p.difficulty > 0.5);
            }
        }
        assert_eq!(
            router.escalation_prob(0, &held_out[3]),
            replay.escalation_prob(0, &held_out[3])
        );
    }

    /// A router with a short warm-up, for tests that train it.
    fn router(boundaries: usize) -> OnlinePredictiveRouter {
        OnlinePredictiveRouter::new(
            boundaries,
            OnlineRouterConfig {
                min_observations: 8,
                ..Default::default()
            },
        )
    }

    #[test]
    fn each_boundary_counts_and_warms_up_on_its_own() {
        let dataset = dataset();
        let p = &dataset.prompts()[0];
        let mut router = router(2);
        assert_eq!(router.boundaries(), 2);
        for _ in 0..7 {
            router.observe(1, p, true);
        }
        assert_eq!((router.observations(0), router.observations(1)), (0, 7));
        assert_eq!(router.escalation_prob(1, p), None, "one short of warm");
        router.observe(1, p, true);
        let prob = router.escalation_prob(1, p).expect("warm");
        assert!(prob > 0.5 && prob < 1.0, "{prob}");
        assert_eq!(router.escalation_prob(0, p), None);
    }

    #[test]
    fn a_prompt_predicted_to_escalate_everywhere_enters_at_the_terminal_tier() {
        let dataset = dataset();
        let prompts = &dataset.prompts()[..200];
        let mut router = router(2);
        for p in prompts {
            router.observe(0, p, true);
            router.observe(1, p, true);
        }
        assert!(prompts.iter().all(|p| router.entry_tier(p) == 2));
    }

    #[test]
    fn the_entry_walk_stops_at_a_kept_or_cold_boundary() {
        let dataset = dataset();
        let prompts = &dataset.prompts()[..200];
        // Boundary 0 escalates everything; boundary 1 is still cold.
        let mut cold_deep = router(2);
        for p in prompts {
            cold_deep.observe(0, p, true);
        }
        assert!(prompts.iter().all(|p| cold_deep.entry_tier(p) == 1));
        // Boundary 0 keeps everything: nothing skips the entry tier, however
        // sure boundary 1 is.
        let mut kept = router(2);
        for p in prompts {
            kept.observe(0, p, false);
            kept.observe(1, p, true);
        }
        assert!(prompts.iter().all(|p| kept.entry_tier(p) == 0));
    }
}
