//! Stage-level decomposition of the diffusion pipeline.
//!
//! The paper's models are monolithic: one `generate` call covers the whole
//! encode → denoise → decode workflow, and an escalation to the heavy tier
//! restarts that workflow from scratch. LegoDiffusion-style stage-level
//! micro-serving splits the workflow into explicit stages so the heavy tier
//! can *resume* denoising from the light tier's intermediate latents,
//! turning escalation into an incremental top-up instead of a full rerun.
//!
//! This module carries the stage model shared by both serving engines:
//!
//! * [`StageState`] — how far a query's denoising has progressed on some
//!   tier, attached to escalated queries so the next tier can resume.
//! * [`reused_steps`] / [`resume_savings`] — the latency discount a
//!   resume-aware dispatch path subtracts from the heavy model's service
//!   time, covering only the residual steps.
//!
//! # Invariants
//!
//! * With resume disabled, or with a step credit of zero, the computed
//!   savings is exactly `0.0`, and `exec - 0.0` is bitwise `exec`: the
//!   staged path is provably a no-op until the knob is turned (the
//!   zero-reuse equivalence property in `tests/stage_resume.rs`).
//! * At least one heavy denoise step always remains
//!   (`reused_steps <= heavy_steps - 1`), so a resumed query still passes
//!   through the heavy model.
//! * Degradation slowdowns multiply *after* the savings subtraction, so a
//!   degraded worker stretches only the residual steps.

use crate::model::LatencyProfile;

/// Fraction of a model's end-to-end latency spent in the iterative denoise
/// stage — the only stage whose steps can be resumed from another tier's
/// latents. The rest, prompt/latent encode and VAE decode, always runs on
/// the serving tier.
pub const DENOISE_FRAC: f64 = 0.85;

/// Progress of a query through a model's denoise schedule, carried across
/// an escalation so the next tier can resume instead of restarting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageState {
    /// Denoise steps the originating tier completed.
    pub steps_completed: u32,
    /// The originating tier's total denoise step count.
    pub of_steps: u32,
}

impl StageState {
    /// State of a query that ran the full denoise schedule of a model with
    /// `steps` steps — the state a cascade escalation carries, since the
    /// light tier always runs to completion before the discriminator votes.
    pub fn completed(steps: u32) -> StageState {
        StageState {
            steps_completed: steps,
            of_steps: steps,
        }
    }

    /// Fraction of the originating schedule completed, in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.of_steps == 0 {
            return 0.0;
        }
        (self.steps_completed.min(self.of_steps)) as f64 / self.of_steps as f64
    }
}

/// Denoise steps of a `heavy_steps`-step schedule that a resuming tier can
/// skip, given the escalated query's [`StageState`] and the configured
/// `step_credit` (how much of the light tier's denoising transfers across
/// the tier boundary; latent spaces differ, so credit < 1).
///
/// At least one heavy step always remains.
pub fn reused_steps(heavy_steps: u32, state: StageState, step_credit: f64) -> u32 {
    if heavy_steps == 0 {
        return 0;
    }
    let credit = step_credit.clamp(0.0, 1.0);
    let raw = (heavy_steps as f64 * credit * state.progress()).round() as u32;
    raw.min(heavy_steps - 1)
}

/// Per-query service-time discount for resuming `reused` of `total` denoise
/// steps on a model with latency `profile`.
///
/// The affine batch model `exec_latency(b) = base · (ovh + (1-ovh)·b)`
/// attributes `base · (1-ovh)` of marginal work to each query in a batch;
/// of that, only the denoise fraction is resumable. With `reused == 0`
/// this is exactly `0.0`.
pub fn resume_savings(profile: &LatencyProfile, reused: u32, total: u32) -> f64 {
    if reused == 0 || total == 0 {
        return 0.0;
    }
    profile.base_latency * (1.0 - profile.batch_overhead) * DENOISE_FRAC * (reused as f64)
        / (total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completed_state_has_full_progress() {
        let s = StageState::completed(4);
        assert_eq!(s.progress(), 1.0);
        assert_eq!(StageState::completed(0).progress(), 0.0);
    }

    #[test]
    fn reused_steps_leaves_residual_work() {
        let full = StageState::completed(4);
        // Full credit can never skip every heavy step.
        assert_eq!(reused_steps(50, full, 1.0), 49);
        assert_eq!(reused_steps(1, full, 1.0), 0);
        assert_eq!(reused_steps(0, full, 1.0), 0);
        // Half credit of full light progress reuses half the heavy steps.
        assert_eq!(reused_steps(50, full, 0.5), 25);
        // Zero credit reuses nothing.
        assert_eq!(reused_steps(50, full, 0.0), 0);
    }

    #[test]
    fn zero_reuse_savings_is_exactly_zero() {
        let p = LatencyProfile::new(1.78, 0.12);
        assert_eq!(resume_savings(&p, 0, 50), 0.0);
        assert_eq!(resume_savings(&p, 0, 0), 0.0);
    }

    #[test]
    fn savings_scale_with_reused_fraction() {
        let p = LatencyProfile::new(2.0, 0.5);
        // base·(1-ovh)·DENOISE_FRAC·(25/50) = 2.0·0.5·0.85·0.5
        let s = resume_savings(&p, 25, 50);
        assert!((s - 0.425).abs() < 1e-12);
        // Savings never exceed the per-query denoise share.
        let max = resume_savings(&p, 49, 50);
        assert!(max < p.base_latency * (1.0 - p.batch_overhead) * DENOISE_FRAC);
    }
}
