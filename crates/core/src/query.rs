//! Queries and responses flowing through the serving system.

use diffserve_imagegen::features::DIM;
use diffserve_imagegen::GeneratedImage;
use diffserve_simkit::time::SimTime;

/// Identifier of a query within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

/// Per-worker health: how fast the worker currently runs relative to its
/// nameplate profile. A healthy worker has `speed_factor == 1.0`; a
/// degraded one (thermal throttling, noisy neighbor, sick straggler) has
/// `speed_factor < 1.0` and every batch it executes takes
/// `1 / speed_factor` times its nameplate latency. Both execution engines
/// thread this through dispatch, and the control plane sums it into the
/// fleet's *effective* capacity so the allocator solves against degraded
/// throughput instead of nameplate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WorkerHealth {
    /// Fraction of nameplate speed the worker delivers, in `(0, 1]`.
    pub(crate) speed_factor: f64,
}

impl Default for WorkerHealth {
    fn default() -> Self {
        WorkerHealth::healthy()
    }
}

impl WorkerHealth {
    /// Full nameplate speed.
    pub fn healthy() -> Self {
        WorkerHealth { speed_factor: 1.0 }
    }

    /// Degraded to `1 / slowdown` of nameplate speed.
    ///
    /// # Panics
    ///
    /// Panics unless `slowdown` is finite and `>= 1`.
    pub fn degraded(slowdown: f64) -> Self {
        assert!(
            slowdown.is_finite() && slowdown >= 1.0,
            "slowdown must be finite and >= 1, got {slowdown}"
        );
        WorkerHealth {
            speed_factor: 1.0 / slowdown,
        }
    }

    /// Whether the worker currently runs below nameplate speed.
    pub fn is_degraded(self) -> bool {
        self.speed_factor < 1.0
    }

    /// The service-time multiplier this health implies (`>= 1`).
    pub fn slowdown(self) -> f64 {
        1.0 / self.speed_factor
    }
}

/// The image a query completes with, inline: a render-table row copied in,
/// or a render's feature vector copied once. Being `Copy`, it travels from
/// the boundary verdict into the [`CompletedResponse`] without touching the
/// heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServedImage {
    /// The image's feature vector.
    pub features: [f64; DIM],
    /// Its latent quality.
    pub quality: f64,
}

impl From<GeneratedImage> for ServedImage {
    /// Copies a render's features in.
    ///
    /// # Panics
    ///
    /// Panics if the render does not have `DIM` features.
    fn from(image: GeneratedImage) -> Self {
        ServedImage {
            features: image
                .features
                .as_slice()
                .try_into()
                .expect("a render has DIM features"),
            quality: image.quality,
        }
    }
}

/// A completed response.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedResponse {
    /// The query this answers.
    pub id: QueryId,
    /// Arrival time of the query.
    pub arrival: SimTime,
    /// Completion time.
    pub completion: SimTime,
    /// Feature vector of the returned image (for FID), inline.
    pub features: [f64; DIM],
    /// Latent quality of the returned image.
    pub quality: f64,
    /// 0-based ladder tier that produced the response: `0` is the entry
    /// (cheapest) tier, and a two-tier cascade's heavy model is tier `1`.
    pub tier: usize,
    /// The completing tier's boundary score: the discriminator confidence
    /// in the output this query completed with. `None` at the terminal
    /// tier and under off-cascade policies, where no boundary scores the
    /// output — so on a two-tier cascade an escalated query completes with
    /// `None`, although its light output was scored.
    pub confidence: Option<f64>,
    /// Total GPU-seconds of model execution this query consumed across
    /// every tier it touched (light generation, discriminator scoring, and
    /// — for escalated queries — the heavy pass, net of any resumed steps).
    /// Single-query nameplate cost; batching amortization and worker
    /// degradation are excluded so the number compares escalation *modes*
    /// rather than scheduler luck.
    pub gpu_time: f64,
    /// Heavy-tier denoise steps skipped by resuming from the light tier's
    /// latents. Zero for light-tier completions and for restart-mode
    /// escalations.
    pub reused_steps: u32,
}

impl CompletedResponse {
    /// End-to-end latency in seconds.
    pub fn latency_secs(&self) -> f64 {
        self.completion.saturating_since(self.arrival).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_computation() {
        let r = CompletedResponse {
            id: QueryId(1),
            arrival: SimTime::from_secs(10),
            completion: SimTime::from_secs(12),
            features: [0.0; DIM],
            quality: 0.5,
            tier: 1,
            confidence: Some(0.3),
            gpu_time: 1.9,
            reused_steps: 0,
        };
        assert!((r.latency_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "slowdown must be finite and >= 1")]
    fn a_speedup_is_not_a_degradation() {
        let _ = WorkerHealth::degraded(0.5);
    }
}
