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

    fn response(arrival: SimTime, completion: SimTime) -> CompletedResponse {
        CompletedResponse {
            id: QueryId(7),
            arrival,
            completion,
            features: [0.0; DIM],
            quality: 0.5,
            tier: 0,
            confidence: None,
            gpu_time: 0.2,
            reused_steps: 0,
        }
    }

    #[test]
    fn a_completion_before_its_arrival_has_zero_latency() {
        let r = response(SimTime::from_secs(5), SimTime::from_secs(3));
        assert_eq!(r.latency_secs(), 0.0);
        let r = response(SimTime::from_micros(1), SimTime::from_micros(250_001));
        assert!((r.latency_secs() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn a_healthy_worker_runs_at_nameplate_speed() {
        let healthy = WorkerHealth::default();
        assert_eq!(healthy, WorkerHealth::healthy());
        assert!(!healthy.is_degraded());
        assert_eq!(healthy.slowdown(), 1.0);
        // A slowdown of exactly one is still nameplate speed.
        assert!(!WorkerHealth::degraded(1.0).is_degraded());
    }

    #[test]
    fn a_degraded_worker_slows_by_its_factor() {
        let health = WorkerHealth::degraded(4.0);
        assert!(health.is_degraded());
        assert_eq!(health.speed_factor, 0.25);
        assert_eq!(health.slowdown(), 4.0);
    }

    #[test]
    #[should_panic(expected = "slowdown must be finite and >= 1")]
    fn an_infinite_slowdown_is_rejected() {
        let _ = WorkerHealth::degraded(f64::INFINITY);
    }

    #[test]
    fn a_render_converts_into_an_inline_image() {
        let features: Vec<f64> = (0..DIM).map(|i| i as f64 * 0.5).collect();
        let served = ServedImage::from(GeneratedImage {
            features: features.clone(),
            quality: 0.8,
        });
        assert_eq!(served.features.as_slice(), features.as_slice());
        assert_eq!(served.quality, 0.8);
    }

    #[test]
    #[should_panic(expected = "a render has DIM features")]
    fn a_render_of_the_wrong_width_is_rejected() {
        let _ = ServedImage::from(GeneratedImage {
            features: vec![0.0; DIM + 1],
            quality: 0.8,
        });
    }
}
