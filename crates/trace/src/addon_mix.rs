//! Seeded per-query add-on assignment: which LoRA/ControlNet module (if
//! any) each query in the arrival stream requires.
//!
//! Production diffusion traffic is not homogeneous — a sizeable fraction of
//! prompts carry an add-on module (a LoRA style, a ControlNet conditioner)
//! that a worker must have loaded before it can serve the query
//! (SwiftDiffusion). [`AddonMix`] models that traffic shape as a *stateless*
//! seeded draw: given a query id and its arrival instant it returns the
//! same module requirement on every engine, so the discrete-event simulator
//! and the thread-based testbed see the identical add-on stream without
//! sharing any RNG state.
//!
//! Popularity is Zipf-like (module `i` drawn with weight `1/(i+1)`), the
//! regime where a small module cache earns its keep. A [`TrendWindow`]
//! overrides the popularity ranking for a time span — the "trending LoRA"
//! a [`Perturbation::StyleShift`](crate::Perturbation::StyleShift) holds —
//! steering a `share` of adopting queries to one module.
//!
//! # Examples
//!
//! ```
//! use diffserve_trace::AddonMix;
//! use diffserve_simkit::time::SimTime;
//!
//! let mix = AddonMix::new(42, 8, 0.5);
//! // Stateless: the same (query id, instant) always draws the same module.
//! let at = SimTime::from_secs(3);
//! assert_eq!(mix.draw(17, at), mix.draw(17, at));
//! // Roughly half the stream adopts an add-on at adoption 0.5.
//! let adopted = (0..1000).filter(|&q| mix.draw(q, at).is_some()).count();
//! assert!((300..700).contains(&adopted));
//! ```

use diffserve_simkit::rng::{derive_seed, seeded_rng};
use diffserve_simkit::time::{SimDuration, SimTime};
use rand::Rng;

/// RNG stream tag for add-on draws, so module assignment never shares a
/// stream with arrival generation, routing, or the hazard engine.
const ADDON_SEED_STREAM: u64 = 0xADD0;

/// A time span during which a single trending module captures a fixed share
/// of all adopting queries, overriding the steady-state Zipf popularity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrendWindow {
    /// When the trend starts.
    pub start: SimTime,
    /// How long it lasts.
    pub duration: SimDuration,
    /// The trending module's catalog id.
    pub module: usize,
    /// Fraction of *adopting* queries that request the trending module
    /// while the window is active, in `(0, 1]`.
    pub share: f64,
}

impl TrendWindow {
    /// Whether the window covers instant `at` (half-open: `[start,
    /// start + duration)`).
    pub fn contains(&self, at: SimTime) -> bool {
        at >= self.start && at < self.start + self.duration
    }
}

/// The seeded generator assigning an optional add-on module to each query.
///
/// The draw is a pure function of `(seed, query id, arrival instant)`: three
/// uniforms are taken from a throwaway RNG keyed by the query id, deciding
/// adoption, trend capture, and the Zipf popularity pick in a fixed order.
/// No draw state is carried between queries, so both engines — and any
/// replay — assign identical modules without coordinating.
#[derive(Debug, Clone, PartialEq)]
pub struct AddonMix {
    /// Parent seed (typically the experiment seed).
    pub seed: u64,
    /// Fraction of queries that require *some* add-on, in `[0, 1]`.
    pub adoption: f64,
    /// Active trend windows, checked in order (first covering window wins).
    pub trends: Vec<TrendWindow>,
    /// The Zipf popularity walk's cumulative thresholds, one per module:
    /// entry `i` is the probability of drawing a module id `≤ i`. Their
    /// count is the catalog size, so it is fixed at construction.
    cumulative: Vec<f64>,
}

impl AddonMix {
    /// Creates a mix over `num_modules` modules with no trend windows.
    pub fn new(seed: u64, num_modules: usize, adoption: f64) -> Self {
        // Module i weighs 1/(i+1). The accumulation order (the total first,
        // then one division per module, summed in id order) fixes every
        // threshold's bits, and with them which module each query draws.
        let total: f64 = (1..=num_modules).map(|i| 1.0 / i as f64).sum();
        let mut acc = 0.0;
        let cumulative = (0..num_modules)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64 * total);
                acc
            })
            .collect();
        AddonMix {
            seed,
            adoption,
            trends: Vec::new(),
            cumulative,
        }
    }

    /// Number of modules in the catalog; draws return ids in
    /// `0..num_modules()`.
    pub fn num_modules(&self) -> usize {
        self.cumulative.len()
    }

    /// Appends a trend window.
    pub fn with_trend(mut self, window: TrendWindow) -> Self {
        self.trends.push(window);
        self
    }

    /// Checks the mix parameters.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a static message (the core
    /// crate wraps it into its own config error type).
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.num_modules() == 0 {
            return Err("add-on mix must name at least one module");
        }
        if !self.adoption.is_finite() || !(0.0..=1.0).contains(&self.adoption) {
            return Err("add-on adoption must lie in [0, 1]");
        }
        for w in &self.trends {
            if !w.share.is_finite() || w.share <= 0.0 || w.share > 1.0 {
                return Err("trend share must lie in (0, 1]");
            }
            if w.module >= self.num_modules() {
                return Err("trend module must exist in the catalog");
            }
        }
        Ok(())
    }

    /// Draws the add-on requirement for query `qid` arriving at `at`.
    ///
    /// Returns `None` for the `1 - adoption` fraction of plain queries.
    /// The draw order is fixed (adoption, trend, popularity) so adding or
    /// removing trend windows never perturbs which queries adopt.
    pub fn draw(&self, qid: u64, at: SimTime) -> Option<usize> {
        let last = self.num_modules().checked_sub(1)?;
        let mut rng = seeded_rng(derive_seed(derive_seed(self.seed, ADDON_SEED_STREAM), qid));
        let u_adopt: f64 = rng.gen_range(0.0..1.0);
        let u_trend: f64 = rng.gen_range(0.0..1.0);
        let u_pick: f64 = rng.gen_range(0.0..1.0);
        if u_adopt >= self.adoption {
            return None;
        }
        for w in &self.trends {
            if w.contains(at) && u_trend < w.share {
                return Some(w.module.min(last));
            }
        }
        // Zipf-like popularity: the first module whose cumulative
        // threshold exceeds the uniform (the last if rounding leaves the
        // final threshold below it).
        Some(
            self.cumulative
                .iter()
                .position(|&acc| u_pick < acc)
                .unwrap_or(last),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(start: u64, dur: u64, module: usize, share: f64) -> TrendWindow {
        TrendWindow {
            start: SimTime::from_secs(start),
            duration: SimDuration::from_secs(dur),
            module,
            share,
        }
    }

    #[test]
    fn draw_is_stateless_and_deterministic() {
        let mix = AddonMix::new(7, 6, 0.6);
        let at = SimTime::from_secs(5);
        for q in 0..200 {
            assert_eq!(mix.draw(q, at), mix.draw(q, at));
        }
        // Different seeds give different assignments somewhere.
        let other = AddonMix::new(8, 6, 0.6);
        assert!((0..200).any(|q| mix.draw(q, at) != other.draw(q, at)));
    }

    #[test]
    fn adoption_controls_the_fraction_with_addons() {
        let at = SimTime::ZERO;
        let frac = |adoption: f64| {
            let mix = AddonMix::new(3, 8, adoption);
            (0..2000).filter(|&q| mix.draw(q, at).is_some()).count() as f64 / 2000.0
        };
        assert_eq!(frac(0.0), 0.0);
        assert_eq!(frac(1.0), 1.0);
        assert!((frac(0.5) - 0.5).abs() < 0.05);
    }

    #[test]
    fn popularity_is_zipf_ranked() {
        let mix = AddonMix::new(11, 5, 1.0);
        let at = SimTime::ZERO;
        let mut counts = [0usize; 5];
        for q in 0..5000 {
            counts[mix.draw(q, at).unwrap()] += 1;
        }
        // Module 0 is the head of the distribution; module 4 the tail.
        assert!(counts[0] > counts[4] * 2, "{counts:?}");
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn trend_window_captures_its_share_while_active() {
        let mix = AddonMix::new(5, 8, 1.0).with_trend(window(10, 20, 7, 0.9));
        let inside = SimTime::from_secs(15);
        let outside = SimTime::from_secs(40);
        let hits =
            |at: SimTime| (0..2000).filter(|&q| mix.draw(q, at) == Some(7)).count() as f64 / 2000.0;
        assert!(hits(inside) > 0.8, "trend share inside: {}", hits(inside));
        // Module 7 is the Zipf tail: rare outside the window.
        assert!(hits(outside) < 0.1, "tail share outside: {}", hits(outside));
        // Half-open window edges.
        assert!(window(10, 20, 7, 0.9).contains(SimTime::from_secs(10)));
        assert!(!window(10, 20, 7, 0.9).contains(SimTime::from_secs(30)));
    }

    #[test]
    fn trends_do_not_perturb_adoption() {
        // The adoption uniform is drawn first, so attaching a trend window
        // changes *which* module adopting queries get, never *whether* a
        // query adopts.
        let plain = AddonMix::new(9, 6, 0.4);
        let trending = plain.clone().with_trend(window(0, 100, 2, 0.8));
        let at = SimTime::from_secs(50);
        for q in 0..500 {
            assert_eq!(plain.draw(q, at).is_some(), trending.draw(q, at).is_some());
        }
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        assert!(AddonMix::new(1, 0, 0.5).validate().is_err());
        assert!(AddonMix::new(1, 4, -0.1).validate().is_err());
        assert!(AddonMix::new(1, 4, 1.1).validate().is_err());
        assert!(AddonMix::new(1, 4, f64::NAN).validate().is_err());
        assert!(AddonMix::new(1, 4, 0.5)
            .with_trend(window(0, 10, 2, 0.0))
            .validate()
            .is_err());
        assert!(AddonMix::new(1, 4, 0.5)
            .with_trend(window(0, 10, 2, 1.5))
            .validate()
            .is_err());
        assert!(AddonMix::new(1, 4, 0.5)
            .with_trend(window(0, 10, 9, 0.5))
            .validate()
            .is_err());
        assert!(AddonMix::new(1, 4, 0.5)
            .with_trend(window(0, 10, 2, 0.5))
            .validate()
            .is_ok());
    }

    /// The popularity walk as each draw once computed it: the
    /// normalization summed and every threshold divided out per draw.
    fn per_draw_walk(num_modules: usize, u_pick: f64) -> usize {
        let total: f64 = (1..=num_modules).map(|i| 1.0 / i as f64).sum();
        let mut acc = 0.0;
        for i in 0..num_modules {
            acc += 1.0 / ((i + 1) as f64 * total);
            if u_pick < acc {
                return i;
            }
        }
        num_modules - 1
    }

    /// The prepared thresholds pick exactly what the per-draw walk picked,
    /// for every catalog size up to 40, on the uniforms the draws take.
    #[test]
    fn prepared_thresholds_pick_what_the_per_draw_walk_picked() {
        for n in 1..=40 {
            let mix = AddonMix::new(13, n, 1.0);
            for q in 0..500 {
                let mut rng = seeded_rng(derive_seed(derive_seed(mix.seed, ADDON_SEED_STREAM), q));
                let u_pick = (0..3).map(|_| rng.gen_range(0.0..1.0)).last().unwrap();
                assert_eq!(mix.draw(q, SimTime::ZERO), Some(per_draw_walk(n, u_pick)));
            }
        }
    }

    #[test]
    fn zero_modules_draws_nothing() {
        let mix = AddonMix::new(1, 0, 1.0);
        assert_eq!(mix.draw(0, SimTime::ZERO), None);
    }
}
