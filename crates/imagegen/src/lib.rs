//! # diffserve-imagegen
//!
//! The synthetic diffusion-model substrate for the DiffServe reproduction.
//!
//! The paper serves real Stable-Diffusion variants on A100s; this workspace
//! has neither the weights nor the GPUs, so this crate provides the closest
//! synthetic equivalent that exercises the same code paths (see DESIGN.md §2
//! for the substitution argument):
//!
//! * [`prompt`] — synthetic MS-COCO / DiffusionDB prompt datasets with latent
//!   per-prompt *difficulty* and *style bias*.
//! * [`features`] — the 16-dimensional feature space in which "images" live;
//!   real images are standard Gaussians, generated images carry a
//!   quality-dependent artifact displacement plus model-specific dispersion.
//! * [`model`] / [`zoo`] — the paper's model variants (SD-Turbo, SDv1.5,
//!   SDXS, SDXL-Lightning, SDXL, …) with the paper's measured latencies and
//!   calibrated quality profiles.
//! * [`discriminator`] — the real-vs-fake classifier (trained from scratch
//!   with `diffserve-nn`) whose softmax confidence gates the cascade, with
//!   the Fig. 7 architecture ablations.
//! * [`scorers`] — simulated PickScore / CLIPScore with the failure modes
//!   that make them unsuitable for routing (Fig. 1a).
//! * [`deferral`] — the empirical deferral profile `f(t)` used by the
//!   resource allocator.
//! * [`cascade`] — offline cascade evaluation (Figs. 1a, 1b, 7).
//!
//! # Examples
//!
//! ```
//! use diffserve_imagegen::prelude::*;
//!
//! let spec = FeatureSpec::default();
//! let cascade = cascade1(spec);
//! let dataset = PromptDataset::synthesize(DatasetKind::MsCoco, 400, 1, spec);
//! let img = cascade.light.generate(&dataset.prompts()[0]);
//! assert_eq!(img.features.len(), diffserve_imagegen::features::DIM);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cascade;
pub mod deferral;
pub mod discriminator;
pub mod features;
pub mod ladder;
pub mod model;
pub mod predictive;
pub mod prompt;
pub mod scorers;
pub mod stage;
pub mod zoo;

pub use cascade::{
    easy_query_fraction, evaluate_cascade, evaluate_single_model, quality_differences, CascadeEval,
    RoutingRule,
};
pub use deferral::{DeferralProfile, OnlineDeferralEstimator, ProfileError};
pub use discriminator::{DiscArch, Discriminator, DiscriminatorConfig, RealClass};
pub use features::FeatureSpec;
pub use ladder::{ladder3, LadderError, TierLadder};
pub use model::{DiffusionModel, GeneratedImage, LatencyProfile, QualityProfile};
pub use predictive::{EmbeddingDraws, OnlinePredictiveRouter, OnlineRouterConfig};
pub use prompt::{DatasetKind, Prompt, PromptDataset};
pub use scorers::{ClipScorer, PickScorer};
pub use stage::{resume_savings, reused_steps, StageState, DENOISE_FRAC};
pub use zoo::{cascade1, cascade2, cascade3, fig1a_variants, sd_turbo, sd_v15, sdxs, CascadeSpec};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::cascade::{
        easy_query_fraction, evaluate_cascade, evaluate_single_model, CascadeEval, RoutingRule,
    };
    pub use crate::deferral::{DeferralProfile, OnlineDeferralEstimator, ProfileError};
    pub use crate::discriminator::{DiscArch, Discriminator, DiscriminatorConfig, RealClass};
    pub use crate::features::FeatureSpec;
    pub use crate::ladder::{ladder3, TierLadder};
    pub use crate::model::{DiffusionModel, GeneratedImage, LatencyProfile, QualityProfile};
    pub use crate::prompt::{DatasetKind, Prompt, PromptDataset};
    pub use crate::scorers::{ClipScorer, PickScorer};
    pub use crate::stage::{resume_savings, reused_steps, StageState};
    pub use crate::zoo::{cascade1, cascade2, cascade3, fig1a_variants, CascadeSpec};
}
