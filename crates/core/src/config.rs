//! System configuration.

use diffserve_simkit::time::SimDuration;

use crate::addons::AddonsConfig;

/// Number of points in the confidence-threshold grid.
const THRESHOLD_GRID_STEPS: usize = 51;

/// Upper cap on the confidence threshold. Calibrated confidences are
/// uniform on the lightweight-output distribution, so a cap of `c` always
/// keeps the top `1 − c` most-real-looking lightweight outputs — excluding
/// the degenerate all-heavy routing whose FID is *worse* than a
/// high-threshold blend (paper §2.2: FID rises again as every query goes
/// heavy).
const MAX_THRESHOLD: f64 = 0.9;

/// EWMA smoothing factor for demand estimation (and for the ladder
/// planner's direct-admission split, on the same horizon).
pub(crate) const EWMA_ALPHA: f64 = 0.6;

/// Latency to swap the model hosted by a worker (weights load).
pub const MODEL_SWITCH_DELAY: SimDuration = SimDuration::from_secs(1);

/// Window of the time-series metrics (FID over time, violations over
/// time, the threshold and demand series).
pub const METRICS_WINDOW: SimDuration = SimDuration::from_secs(20);

/// Cluster and controller configuration for a serving run.
///
/// Defaults follow the paper's testbed: 16 workers, 5 s SLO (Cascade 1),
/// over-provisioning factor λ = 1.05, periodic control loop.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Total number of GPU workers `S`.
    pub num_workers: usize,
    /// Latency SLO.
    pub slo: SimDuration,
    /// How often the controller re-solves the allocation. A scenario's
    /// hazard process is checked on the same clock, at the half-phase of
    /// each interval.
    pub control_interval: SimDuration,
    /// Batch sizes the allocator may choose from.
    pub batch_sizes: Vec<usize>,
    /// Over-provisioning factor λ applied to the demand estimate (§3.3).
    pub over_provision: f64,
    /// Base RNG seed for the run.
    pub seed: u64,
    /// Whether the controller refreshes the deferral profile `f(t)` online
    /// from the discriminator confidences it observes (paper §4.2). Off by
    /// default: the allocator then solves against the offline profile only,
    /// which goes stale when the prompt-difficulty mix drifts.
    pub online_profile_refresh: bool,
    /// Sliding-window capacity of the online profile estimator: how many of
    /// the most recent confidence observations back the estimate. Smaller
    /// windows track drift faster but are noisier.
    pub online_profile_window: usize,
    /// Observations required before the online estimate overrides the
    /// offline profile (the cold-start guard).
    pub online_profile_min_samples: usize,
    /// Whether escalated queries *resume* heavy-tier denoising from the
    /// light tier's intermediate latents instead of restarting generation
    /// from scratch (stage-level micro-serving). Off by default: restart
    /// mode reproduces the paper's cascade exactly, so every existing
    /// golden fingerprint holds.
    pub resume_from_latents: bool,
    /// How much of the light tier's completed denoising transfers across
    /// the tier boundary, in `[0, 1]`. The tiers' latent spaces differ, so
    /// a resumed query re-does `1 − credit` of the denoise schedule; the
    /// reused heavy steps are `round(heavy_steps · credit · progress)`,
    /// capped so at least one heavy step always remains. Only consulted
    /// when [`resume_from_latents`](Self::resume_from_latents) is set.
    pub resume_step_credit: f64,
    /// Add-on-aware serving: the module catalog, per-worker cache budget,
    /// and seeded per-query requirement mix. `None` (the default) disables
    /// the subsystem bit-identically — no query carries an add-on, no
    /// module cache exists, and routing is unchanged.
    pub addons: Option<AddonsConfig>,
    /// N-tier quality-ladder knobs (the predictive router's tuning and
    /// the threshold-raise cap). Only consulted when the runtime was
    /// prepared with [`crate::CascadeRuntime::prepare_ladder`]; `None`
    /// (the default) keeps ladder runs at the conservative defaults and
    /// leaves non-ladder runs bit-identical.
    pub ladder: Option<LadderConfig>,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            num_workers: 16,
            slo: SimDuration::from_secs(5),
            control_interval: SimDuration::from_secs(2),
            batch_sizes: vec![1, 2, 4, 8, 16],
            over_provision: 1.05,
            seed: 0xD1FF,
            online_profile_refresh: false,
            online_profile_window: 512,
            online_profile_min_samples: 64,
            resume_from_latents: false,
            resume_step_credit: 0.5,
            addons: None,
            ladder: None,
        }
    }
}

/// Quality-ladder serving knobs (see `diffserve_imagegen::TierLadder`).
///
/// The ladder itself — which model tiers, their discriminators and deferral
/// profiles — lives in the prepared runtime; this config carries only the
/// runtime-tunable policy knobs.
///
/// Every cascade session of more than two tiers runs the online
/// pre-execution router: queries predicted to escalate through a boundary
/// skip that boundary's cheap tier and enter the ladder deeper. It trains
/// online from every discriminator verdict; while a boundary is cold every
/// query still enters at tier 0. Every boundary starts at threshold 0.5
/// until the first plan.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderConfig {
    /// Predicted escalation probability at or above which a tier is
    /// skipped.
    pub predictive_margin: f64,
    /// SGD learning rate of the per-boundary online router.
    pub predictive_learning_rate: f64,
    /// Discriminator verdicts a boundary must observe before its
    /// predictions are trusted.
    pub predictive_min_observations: u64,
    /// Std of the observation noise on the router's text embeddings.
    pub predictive_observation_noise: f64,
    /// Cap on how many threshold-grid levels any boundary may *rise* per
    /// control tick (`None` = unlimited). Falling is always immediate —
    /// load shedding cannot wait — but climbing back toward higher quality
    /// is rate-limited so demand-estimate noise does not flap workers
    /// between adjacent tiers every tick, burning capacity on model-switch
    /// delays.
    pub max_threshold_raise_per_tick: Option<usize>,
}

impl Default for LadderConfig {
    fn default() -> Self {
        LadderConfig {
            predictive_margin: 0.6,
            predictive_learning_rate: 0.05,
            predictive_min_observations: 64,
            predictive_observation_noise: 0.35,
            max_threshold_raise_per_tick: Some(2),
        }
    }
}

impl LadderConfig {
    /// Validates the ladder knobs.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated invariant.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.predictive_margin.is_finite() || !(0.0..=1.0).contains(&self.predictive_margin) {
            return Err(ConfigError::new("predictive margin must lie in [0, 1]"));
        }
        if !self.predictive_learning_rate.is_finite() || self.predictive_learning_rate <= 0.0 {
            return Err(ConfigError::new("predictive learning rate must be > 0"));
        }
        if !self.predictive_observation_noise.is_finite() || self.predictive_observation_noise < 0.0
        {
            return Err(ConfigError::new(
                "predictive observation noise must be >= 0",
            ));
        }
        if self.max_threshold_raise_per_tick == Some(0) {
            return Err(ConfigError::new(
                "threshold raise cap must be >= 1 level per tick (None = unlimited)",
            ));
        }
        Ok(())
    }
}

impl SystemConfig {
    /// Validates invariants the simulator relies on.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated invariant.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_workers < 2 {
            return Err(ConfigError::new("need at least 2 workers (one per tier)"));
        }
        if self.batch_sizes.is_empty() || self.batch_sizes.contains(&0) {
            return Err(ConfigError::new(
                "batch sizes must be non-empty and positive",
            ));
        }
        if self.over_provision < 1.0 {
            return Err(ConfigError::new("over-provisioning factor must be >= 1"));
        }
        // Below 2 µs the hazard checks' half-phase would round onto a tick.
        if self.control_interval < SimDuration::from_micros(2) {
            return Err(ConfigError::new("control interval must be at least 2 µs"));
        }
        if self.online_profile_window == 0 {
            return Err(ConfigError::new("online profile window must be positive"));
        }
        if self.online_profile_min_samples < 2
            || self.online_profile_min_samples > self.online_profile_window
        {
            return Err(ConfigError::new(
                "online profile min samples must lie in [2, window]",
            ));
        }
        if !self.resume_step_credit.is_finite() || !(0.0..=1.0).contains(&self.resume_step_credit) {
            return Err(ConfigError::new("resume step credit must lie in [0, 1]"));
        }
        if let Some(addons) = &self.addons {
            addons.validate()?;
        }
        if let Some(ladder) = &self.ladder {
            ladder.validate()?;
        }
        Ok(())
    }

    /// The candidate threshold grid: `THRESHOLD_GRID_STEPS` (51) evenly
    /// spaced points on `[0, MAX_THRESHOLD]` (0.9).
    pub fn threshold_grid(&self) -> Vec<f64> {
        let n = THRESHOLD_GRID_STEPS;
        (0..n)
            .map(|i| MAX_THRESHOLD * i as f64 / (n - 1) as f64)
            .collect()
    }
}

/// An invalid [`SystemConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: &'static str,
}

impl ConfigError {
    /// Creates a configuration error with a static description. Public so
    /// out-of-crate backends (the cluster testbed) can surface their own
    /// configuration failures through the session builder's
    /// [`BuildError`](crate::serve::BuildError) path.
    pub fn new(message: &'static str) -> Self {
        ConfigError { message }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid system config: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(SystemConfig::default().validate().is_ok());
    }

    #[test]
    fn ladder_default_config_is_valid() {
        let cfg = SystemConfig {
            ladder: Some(LadderConfig::default()),
            ..Default::default()
        };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn addons_demo_config_is_valid() {
        let cfg = SystemConfig {
            addons: Some(crate::addons::AddonsConfig::demo(0xD1FF)),
            ..Default::default()
        };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn rejects_bad_configs() {
        let base = SystemConfig::default();
        let cases: Vec<(&str, SystemConfig)> = vec![
            (
                "workers",
                SystemConfig {
                    num_workers: 1,
                    ..base.clone()
                },
            ),
            (
                "batches",
                SystemConfig {
                    batch_sizes: vec![],
                    ..base.clone()
                },
            ),
            (
                // Its half-phase hazard checks would round onto the ticks.
                "1 µs control interval",
                SystemConfig {
                    control_interval: SimDuration::from_micros(1),
                    ..base.clone()
                },
            ),
            (
                "zero batch",
                SystemConfig {
                    batch_sizes: vec![0],
                    ..base.clone()
                },
            ),
            (
                "lambda",
                SystemConfig {
                    over_provision: 0.5,
                    ..base.clone()
                },
            ),
            (
                "online window",
                SystemConfig {
                    online_profile_window: 0,
                    ..base.clone()
                },
            ),
            (
                "online min samples",
                SystemConfig {
                    online_profile_min_samples: 1,
                    ..base.clone()
                },
            ),
            (
                "online min above window",
                SystemConfig {
                    online_profile_window: 16,
                    online_profile_min_samples: 17,
                    ..base.clone()
                },
            ),
            (
                "resume credit above 1",
                SystemConfig {
                    resume_step_credit: 1.5,
                    ..base.clone()
                },
            ),
            (
                "resume credit NaN",
                SystemConfig {
                    resume_step_credit: f64::NAN,
                    ..base.clone()
                },
            ),
            (
                "empty add-on catalog",
                SystemConfig {
                    addons: Some(crate::addons::AddonsConfig {
                        catalog: crate::addons::AddonCatalog::new(vec![]),
                        ..crate::addons::AddonsConfig::demo(1)
                    }),
                    ..base.clone()
                },
            ),
            (
                "zero add-on cache budget",
                SystemConfig {
                    addons: Some(crate::addons::AddonsConfig {
                        cache_mem_mb: 0.0,
                        ..crate::addons::AddonsConfig::demo(1)
                    }),
                    ..base.clone()
                },
            ),
            (
                "add-on adoption above 1",
                SystemConfig {
                    addons: Some({
                        let mut a = crate::addons::AddonsConfig::demo(1);
                        a.mix.adoption = 1.5;
                        a
                    }),
                    ..base.clone()
                },
            ),
            (
                "add-on mix/catalog mismatch",
                SystemConfig {
                    addons: Some({
                        let mut a = crate::addons::AddonsConfig::demo(1);
                        a.mix = diffserve_trace::AddonMix::new(1, 3, a.mix.adoption);
                        a
                    }),
                    ..base.clone()
                },
            ),
            (
                "ladder margin out of range",
                SystemConfig {
                    ladder: Some(LadderConfig {
                        predictive_margin: 1.5,
                        ..Default::default()
                    }),
                    ..base.clone()
                },
            ),
            (
                "ladder learning rate zero",
                SystemConfig {
                    ladder: Some(LadderConfig {
                        predictive_learning_rate: 0.0,
                        ..Default::default()
                    }),
                    ..base.clone()
                },
            ),
        ];
        for (what, cfg) in cases {
            assert!(cfg.validate().is_err(), "{what} should be rejected");
        }
    }

    #[test]
    fn threshold_grid_spans_cap() {
        let g = SystemConfig::default().threshold_grid();
        assert_eq!(g.len(), THRESHOLD_GRID_STEPS);
        assert_eq!(g[0], 0.0);
        assert!((g[THRESHOLD_GRID_STEPS - 1] - MAX_THRESHOLD).abs() < 1e-12);
        assert!(g.windows(2).all(|w| w[0] < w[1]), "ascending");
    }

    #[test]
    fn error_display() {
        let err = SystemConfig {
            num_workers: 0,
            ..Default::default()
        }
        .validate()
        .unwrap_err();
        assert!(format!("{err}").contains("workers"));
    }
}
