//! N-tier quality ladders (HADIS-style hybrid cascades).
//!
//! The paper's cascade is a two-model special case: a light model whose
//! output is escalated to a heavy model when the discriminator confidence
//! falls below a threshold. A [`TierLadder`] generalizes this to an ordered
//! list of N model tiers, cheapest first: a query served at tier `k < N-1`
//! is scored by the boundary-`k` discriminator and escalated to tier `k+1`
//! when its confidence falls below the boundary-`k` threshold. Each of the
//! N-1 boundaries carries its own threshold and its own empirical deferral
//! profile `f_k(t)`.
//!
//! Invariants (checked by [`TierLadder::validate`]):
//!
//! * at least two tiers;
//! * batch-1 execution latency is nondecreasing along the ladder (deeper
//!   tiers are slower);
//! * denoising step counts are nondecreasing along the ladder, so
//!   stage-resume credit from tier `k` latents is meaningful at tier `k+1`.
//!
//! A two-tier ladder is exactly the legacy cascade: the runtime and both
//! serving engines treat `TierLadder::from_cascade(spec)` bit-identically
//! to the un-laddered `spec`.

use diffserve_simkit::time::SimDuration;

use crate::features::FeatureSpec;
use crate::model::DiffusionModel;
use crate::prompt::DatasetKind;
use crate::zoo::{sd_turbo, sd_v15, sd_v15_dpms, CascadeSpec};

/// An ordered quality ladder of N diffusion-model tiers, cheapest first.
#[derive(Debug, Clone)]
pub struct TierLadder {
    /// Artifact-style short name (`ladder3`, …).
    pub name: &'static str,
    /// The model tiers, cheapest (entry tier) first.
    pub tiers: Vec<DiffusionModel>,
    /// Prompt dataset family used for this ladder's evaluation.
    pub dataset: DatasetKind,
    /// Latency SLO for this ladder.
    pub slo: SimDuration,
}

impl TierLadder {
    /// Wraps a legacy two-model cascade as a degenerate two-tier ladder.
    pub fn from_cascade(spec: &CascadeSpec) -> Self {
        TierLadder {
            name: spec.name,
            tiers: vec![spec.light.clone(), spec.heavy.clone()],
            dataset: spec.dataset,
            slo: spec.slo,
        }
    }

    /// Number of model tiers (N).
    pub fn num_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// Number of escalation boundaries (N-1), one threshold each.
    pub fn boundaries(&self) -> usize {
        self.tiers.len().saturating_sub(1)
    }

    /// Checks the ladder invariants listed in the module docs.
    pub fn validate(&self) -> Result<(), LadderError> {
        if self.tiers.len() < 2 {
            return Err(LadderError::TooFewTiers(self.tiers.len()));
        }
        for pair in self.tiers.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let (la, lb) = (
                a.latency().exec_latency(1).as_secs_f64(),
                b.latency().exec_latency(1).as_secs_f64(),
            );
            if lb < la {
                return Err(LadderError::LatencyNotMonotone {
                    cheap: a.name().to_string(),
                    deep: b.name().to_string(),
                });
            }
            if b.steps() < a.steps() {
                return Err(LadderError::StepsNotMonotone {
                    cheap: a.name().to_string(),
                    deep: b.name().to_string(),
                });
            }
        }
        Ok(())
    }

    /// The legacy two-model view: first tier as light, last tier as heavy.
    ///
    /// This is what backs the `CascadeSpec` embedded in a ladder-prepared
    /// runtime, so every pre-ladder code path keeps working.
    pub fn cascade_view(&self) -> CascadeSpec {
        CascadeSpec {
            name: self.name,
            light: self.tiers[0].clone(),
            heavy: self.tiers[self.tiers.len() - 1].clone(),
            dataset: self.dataset,
            slo: self.slo,
        }
    }
}

/// A ladder failed [`TierLadder::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LadderError {
    /// Fewer than two tiers.
    TooFewTiers(usize),
    /// A deeper tier has lower batch-1 latency than the tier before it.
    LatencyNotMonotone {
        /// The cheaper (earlier) tier.
        cheap: String,
        /// The deeper (later) tier.
        deep: String,
    },
    /// A deeper tier has fewer denoising steps than the tier before it.
    StepsNotMonotone {
        /// The cheaper (earlier) tier.
        cheap: String,
        /// The deeper (later) tier.
        deep: String,
    },
}

impl std::fmt::Display for LadderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LadderError::TooFewTiers(n) => {
                write!(f, "ladder needs at least 2 tiers, got {n}")
            }
            LadderError::LatencyNotMonotone { cheap, deep } => {
                write!(f, "tier {deep} is faster than the tier {cheap} before it")
            }
            LadderError::StepsNotMonotone { cheap, deep } => {
                write!(
                    f,
                    "tier {deep} has fewer steps than the tier {cheap} before it"
                )
            }
        }
    }
}

impl std::error::Error for LadderError {}

/// Ladder 3: SD-Turbo → SDv1.5-DPMS++ → SDv1.5 on MS-COCO, SLO 5 s.
///
/// Same entry and terminal models as `cascade1`, with the 20-step
/// DPM-Solver++ variant as a mid tier that absorbs most escalations at half
/// the terminal tier's GPU cost.
pub fn ladder3(spec: FeatureSpec) -> TierLadder {
    TierLadder {
        name: "ladder3",
        tiers: vec![sd_turbo(spec), sd_v15_dpms(spec), sd_v15(spec)],
        dataset: DatasetKind::MsCoco,
        slo: SimDuration::from_secs(5),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::cascade1;

    #[test]
    fn builtin_ladders_validate() {
        let spec = FeatureSpec::default();
        ladder3(spec).validate().expect("ladder3");
        assert_eq!(ladder3(spec).boundaries(), 2);
        assert_eq!(ladder3(spec).num_tiers(), 3);
    }

    #[test]
    fn cascade_roundtrip_preserves_endpoints() {
        let spec = FeatureSpec::default();
        let cascade = cascade1(spec);
        let ladder = TierLadder::from_cascade(&cascade);
        ladder.validate().expect("degenerate ladder");
        let view = ladder.cascade_view();
        assert_eq!(view.name, cascade.name);
        assert_eq!(view.light.name(), cascade.light.name());
        assert_eq!(view.heavy.name(), cascade.heavy.name());
        assert_eq!(view.slo, cascade.slo);
    }

    #[test]
    fn rejects_descending_ladders() {
        let spec = FeatureSpec::default();
        let bad = TierLadder {
            name: "bad",
            tiers: vec![sd_v15(spec), sd_turbo(spec)],
            dataset: DatasetKind::MsCoco,
            slo: SimDuration::from_secs(5),
        };
        assert!(matches!(
            bad.validate(),
            Err(LadderError::LatencyNotMonotone { .. })
        ));
        let one = TierLadder {
            name: "one",
            tiers: vec![sd_turbo(spec)],
            dataset: DatasetKind::MsCoco,
            slo: SimDuration::from_secs(5),
        };
        assert_eq!(one.validate(), Err(LadderError::TooFewTiers(1)));
    }
}
