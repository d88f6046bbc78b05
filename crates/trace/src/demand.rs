//! Demand estimation for the controller.
//!
//! The DiffServe controller estimates incoming demand `D` with an
//! exponentially weighted moving average over demand history and then
//! over-provisions by a factor `λ` (1.05 by default) before handing the
//! estimate to the MILP (paper §3.3).

use diffserve_simkit::time::SimDuration;

/// EWMA-smoothed demand estimator with over-provisioning.
///
/// # Examples
///
/// ```
/// use diffserve_trace::DemandEstimator;
/// use diffserve_simkit::time::SimDuration;
///
/// let mut d = DemandEstimator::new(0.4, 1.05);
/// d.observe(20, SimDuration::from_secs(2)); // 10 QPS window
/// assert!((d.estimate() - 10.0).abs() < 1e-9);
/// assert!((d.provisioned_estimate() - 10.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct DemandEstimator {
    alpha: f64,
    /// The smoothed demand in QPS; `None` before the first observation.
    smoothed: Option<f64>,
    over_provision: f64,
}

impl DemandEstimator {
    /// Creates an estimator with EWMA factor `alpha` and over-provisioning
    /// factor `over_provision` (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]` or `over_provision < 1`.
    pub fn new(alpha: f64, over_provision: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 0.0 && alpha <= 1.0,
            "alpha must lie in (0, 1], got {alpha}"
        );
        assert!(
            over_provision >= 1.0 && over_provision.is_finite(),
            "over-provisioning factor must be >= 1, got {over_provision}"
        );
        DemandEstimator {
            alpha,
            smoothed: None,
            over_provision,
        }
    }

    /// Feeds one observation window: `arrivals` queries seen over `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn observe(&mut self, arrivals: u64, window: SimDuration) {
        assert!(!window.is_zero(), "observation window must be positive");
        let qps = arrivals as f64 / window.as_secs_f64();
        self.smoothed = Some(match self.smoothed {
            None => qps,
            Some(v) => self.alpha * qps + (1.0 - self.alpha) * v,
        });
    }

    /// Current smoothed demand estimate in QPS (0 before any observation).
    pub fn estimate(&self) -> f64 {
        self.smoothed.unwrap_or(0.0)
    }

    /// Demand estimate multiplied by the over-provisioning factor — the `λD`
    /// the allocator plans for.
    pub fn provisioned_estimate(&self) -> f64 {
        self.estimate() * self.over_provision
    }

    /// The configured over-provisioning factor.
    pub fn over_provision(&self) -> f64 {
        self.over_provision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smooths_demand_spikes() {
        let mut d = DemandEstimator::new(0.5, 1.0);
        let w = SimDuration::from_secs(1);
        d.observe(10, w);
        d.observe(30, w);
        // EWMA(0.5): 0.5*30 + 0.5*10 = 20.
        assert!((d.estimate() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn over_provisioning_multiplies() {
        let mut d = DemandEstimator::new(1.0, 1.05);
        d.observe(100, SimDuration::from_secs(1));
        assert!((d.provisioned_estimate() - 105.0).abs() < 1e-9);
        assert_eq!(d.over_provision(), 1.05);
    }

    #[test]
    fn zero_before_observations() {
        let d = DemandEstimator::new(0.3, 1.05);
        assert_eq!(d.estimate(), 0.0);
        assert_eq!(d.provisioned_estimate(), 0.0);
    }

    #[test]
    fn rejects_alpha_outside_the_unit_interval() {
        for alpha in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let caught = std::panic::catch_unwind(|| DemandEstimator::new(alpha, 1.05));
            assert!(caught.is_err(), "alpha {alpha} was accepted");
        }
        let _ = DemandEstimator::new(1.0, 1.05);
    }

    #[test]
    fn the_first_window_seeds_the_estimate_and_later_ones_blend() {
        let mut d = DemandEstimator::new(0.25, 1.0);
        let w = SimDuration::from_secs(1);
        d.observe(8, w);
        assert_eq!(d.estimate(), 8.0);
        d.observe(0, w);
        // 0.25·0 + 0.75·8 = 6.
        assert!((d.estimate() - 6.0).abs() < 1e-12);
    }

    /// The update is `alpha·x + (1 − alpha)·v` in exactly that order, so
    /// every demand estimate keeps its bits.
    #[test]
    fn the_update_keeps_its_bits() {
        let alpha = 0.3;
        let mut d = DemandEstimator::new(alpha, 1.05);
        let w = SimDuration::from_millis(700);
        let mut v: Option<f64> = None;
        for arrivals in [13u64, 2, 40, 7, 0, 29, 31, 5] {
            d.observe(arrivals, w);
            let x = arrivals as f64 / w.as_secs_f64();
            let next = match v {
                None => x,
                Some(v) => alpha * x + (1.0 - alpha) * v,
            };
            v = Some(next);
            assert_eq!(d.estimate().to_bits(), next.to_bits());
        }
    }

    #[test]
    fn alpha_one_tracks_the_latest_window() {
        let mut d = DemandEstimator::new(1.0, 1.0);
        d.observe(50, SimDuration::from_secs(5));
        assert_eq!(d.estimate(), 10.0);
        d.observe(12, SimDuration::from_secs(4));
        assert_eq!(d.estimate(), 3.0);
    }

    #[test]
    #[should_panic(expected = "alpha must lie in (0, 1]")]
    fn a_rejected_alpha_names_the_interval() {
        let _ = DemandEstimator::new(2.0, 1.05);
    }

    #[test]
    #[should_panic(expected = "observation window must be positive")]
    fn rejects_an_empty_window() {
        let mut d = DemandEstimator::new(0.5, 1.0);
        d.observe(3, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "over-provisioning")]
    fn rejects_under_provisioning() {
        let _ = DemandEstimator::new(0.5, 0.9);
    }
}
