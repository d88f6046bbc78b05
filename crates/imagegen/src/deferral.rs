//! The deferral profile `f(t)`.
//!
//! `f(t)` is the fraction of queries whose discriminator confidence falls
//! below threshold `t` — i.e. the fraction deferred to the heavyweight
//! model. The resource allocator's heavy-side throughput constraint is
//! `x₂·T₂(b₂) ≥ D·f(t)` (paper Eq. 3). The paper initializes `f` by offline
//! profiling and *keeps updating it online* (§4.2): [`DeferralProfile`]
//! implements the static curve, and [`OnlineDeferralEstimator`] is the
//! streaming refresher that re-estimates the curve from the confidences the
//! cascade actually observes, so the controller tracks difficulty drift.

use std::collections::VecDeque;
use std::sync::OnceLock;

/// A deferral profile could not be built from the supplied samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileError {
    /// No finite confidence samples remained after NaN filtering — an
    /// online refresh window can legitimately be empty (e.g. no cascade
    /// traffic since the last control tick).
    NoSamples,
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::NoSamples => {
                write!(
                    f,
                    "deferral profile needs at least one finite confidence sample"
                )
            }
        }
    }
}

impl std::error::Error for ProfileError {}

/// Empirical deferral profile built from confidence samples.
///
/// Also carries `f(t)` at the first threshold grid asked of
/// [`fractions_deferred`](DeferralProfile::fractions_deferred), once that
/// call has tabled it: clones of a tabled profile are tabled, and equality
/// looks at the samples only.
///
/// # Examples
///
/// ```
/// use diffserve_imagegen::DeferralProfile;
///
/// let profile = DeferralProfile::from_confidences(vec![0.1, 0.4, 0.6, 0.9])?;
/// assert_eq!(profile.fraction_deferred(0.0), 0.0);
/// assert_eq!(profile.fraction_deferred(0.5), 0.5);
/// assert_eq!(profile.fraction_deferred(1.1), 1.0);
/// # Ok::<(), diffserve_imagegen::ProfileError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DeferralProfile {
    /// Confidence samples, ascending.
    sorted: Vec<f64>,
    /// `f(t)` at every point of one threshold grid, set on first use.
    table: OnceLock<GridTable>,
}

/// A profile's [`DeferralProfile::fraction_deferred`] at every point of
/// `grid`.
#[derive(Debug, Clone)]
struct GridTable {
    grid: Vec<f64>,
    fractions: Vec<f64>,
}

impl PartialEq for DeferralProfile {
    fn eq(&self, other: &Self) -> bool {
        self.sorted == other.sorted
    }
}

impl DeferralProfile {
    /// Builds a profile from confidence samples (NaNs discarded).
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::NoSamples`] if no finite samples remain — an
    /// online refresh window can legitimately be empty, so callers decide
    /// whether to fall back to an earlier profile or fail loudly.
    pub fn from_confidences(mut confidences: Vec<f64>) -> Result<Self, ProfileError> {
        confidences.retain(|c| c.is_finite());
        if confidences.is_empty() {
            return Err(ProfileError::NoSamples);
        }
        confidences.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
        Ok(DeferralProfile::from_sorted(confidences))
    }

    /// A profile over samples already in ascending order, with no table.
    fn from_sorted(sorted: Vec<f64>) -> Self {
        DeferralProfile {
            sorted,
            table: OnceLock::new(),
        }
    }

    /// Number of samples backing the profile.
    pub fn sample_count(&self) -> usize {
        self.sorted.len()
    }

    /// Fraction of queries deferred at threshold `t`: `P(confidence < t)`.
    ///
    /// Monotone non-decreasing in `t`; 0 at `t ≤ min`, 1 at `t > max`.
    pub fn fraction_deferred(&self, t: f64) -> f64 {
        let idx = self.sorted.partition_point(|&c| c < t);
        idx as f64 / self.sorted.len() as f64
    }

    /// [`fraction_deferred`](Self::fraction_deferred) at each of
    /// `thresholds`, in order, bitwise.
    ///
    /// The first grid asked of a profile is tabled and kept, so every
    /// later ask at an equal grid reads the table instead of searching the
    /// samples: a control loop asks at its threshold grid every tick, of a
    /// profile that changes only when the online estimator refreshes it.
    /// An ask at another grid searches and leaves the table as it is.
    /// Debug builds check every table read against a fresh search.
    ///
    /// # Examples
    ///
    /// ```
    /// use diffserve_imagegen::DeferralProfile;
    ///
    /// let profile = DeferralProfile::from_confidences(vec![0.1, 0.4, 0.6, 0.9])?;
    /// let grid = DeferralProfile::threshold_grid(5);
    /// let f: Vec<f64> = profile.fractions_deferred(&grid).collect();
    /// assert_eq!(f, [0.0, 0.25, 0.5, 0.75, 1.0]);
    /// # Ok::<(), diffserve_imagegen::ProfileError>(())
    /// ```
    pub fn fractions_deferred<'a>(
        &'a self,
        thresholds: &'a [f64],
    ) -> impl Iterator<Item = f64> + 'a {
        let table = self.table.get_or_init(|| GridTable {
            grid: thresholds.to_vec(),
            fractions: thresholds
                .iter()
                .map(|&t| self.fraction_deferred(t))
                .collect(),
        });
        let tabled = (table.grid == thresholds).then_some(&table.fractions);
        thresholds
            .iter()
            .enumerate()
            .map(move |(l, &t)| match tabled {
                Some(fractions) => {
                    debug_assert_eq!(
                        fractions[l].to_bits(),
                        self.fraction_deferred(t).to_bits(),
                        "the tabled f({t}) is not the profile's"
                    );
                    fractions[l]
                }
                None => self.fraction_deferred(t),
            })
    }

    /// Mean absolute gap between two profiles' deferral fractions over a
    /// threshold grid — the live estimated-vs-offline `f(t)` distance
    /// surfaced in session snapshots and the deferral-estimation-error
    /// series.
    ///
    /// # Examples
    ///
    /// ```
    /// use diffserve_imagegen::DeferralProfile;
    ///
    /// let a = DeferralProfile::from_confidences(vec![0.2, 0.4, 0.6, 0.8])?;
    /// let b = a.clone();
    /// assert_eq!(a.gap(&b, &[0.0, 0.25, 0.5, 0.75, 1.0]), 0.0);
    /// # Ok::<(), diffserve_imagegen::ProfileError>(())
    /// ```
    pub fn gap(&self, other: &DeferralProfile, thresholds: &[f64]) -> f64 {
        if thresholds.is_empty() {
            return 0.0;
        }
        let total: f64 = thresholds
            .iter()
            .map(|&t| (self.fraction_deferred(t) - other.fraction_deferred(t)).abs())
            .sum();
        total / thresholds.len() as f64
    }

    /// Evenly spaced candidate thresholds (inclusive of 0 and 1) for the
    /// MILP's threshold discretization.
    pub fn threshold_grid(steps: usize) -> Vec<f64> {
        assert!(steps >= 2, "grid needs at least two points");
        (0..steps).map(|i| i as f64 / (steps - 1) as f64).collect()
    }
}

/// Streaming estimator of the deferral profile — the paper's online `f(t)`
/// refresh (§4.2, Eq. 3).
///
/// The cascade feeds every discriminator confidence it observes into
/// [`observe`](OnlineDeferralEstimator::observe); the estimator keeps a
/// sliding window of the most recent `window` samples (older samples age
/// out, which is what lets the estimate track difficulty drift) and
/// [`refresh`](OnlineDeferralEstimator::refresh) brings its
/// [`DeferralProfile`] up to date with the window. Until `min_samples`
/// observations have accumulated the estimator reports no profile and
/// callers fall back to the offline curve.
///
/// The profile stays sorted between refreshes, so a refresh sorts only the
/// samples that arrived since the previous one and merges them in, in one
/// pass that also drops the samples the window evicted: `O(W + m log m)`
/// for a window of `W` samples with `m` new ones, and no allocation once
/// the buffers have grown to the window. The result is bitwise the profile
/// [`DeferralProfile::from_confidences`] builds from the window's samples
/// in arrival order — equal samples (`-0.0` and `0.0` included) sit
/// oldest first.
///
/// Deterministic: the window is a FIFO over the observation stream, so the
/// same stream always yields the same profile (the simulator relies on
/// this for bit-reproducible runs).
///
/// # Examples
///
/// ```
/// use diffserve_imagegen::{DeferralProfile, OnlineDeferralEstimator};
///
/// let mut est = OnlineDeferralEstimator::new(128, 16);
/// assert!(est.profile().is_none()); // cold start: offline profile rules
/// for i in 0..64 {
///     est.observe(i as f64 / 64.0);
/// }
/// est.refresh();
/// let p = est.profile().expect("enough samples");
/// assert!((p.fraction_deferred(0.5) - 0.5).abs() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct OnlineDeferralEstimator {
    /// The most recent samples, oldest first.
    window: VecDeque<f64>,
    cap: usize,
    min_samples: usize,
    /// How many of the newest `window` samples the profile does not hold.
    unmerged: usize,
    /// Samples the profile holds that the window has evicted since the
    /// last refresh.
    evicted: Vec<f64>,
    /// Refresh scratch: the unmerged samples, sorted.
    incoming: Vec<f64>,
    /// Refresh scratch: the next profile's samples, swapped into it.
    merged: Vec<f64>,
    profile: Option<DeferralProfile>,
    /// Refreshes that produced a profile.
    refreshes: u64,
}

/// Debug builds (and the `verify` profile) compare every this-many-th
/// refreshed profile bit for bit against a full sort of the window; a sort
/// per refresh would cost fleet-scale replays more than the merge saves.
const TWIN_EVERY: u64 = 8;

impl OnlineDeferralEstimator {
    /// Creates an estimator keeping at most `window` samples and requiring
    /// `min_samples` before it reports a profile.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `min_samples` exceeds `window`.
    pub fn new(window: usize, min_samples: usize) -> Self {
        assert!(window > 0, "online profile window must be positive");
        assert!(
            min_samples <= window,
            "min_samples {min_samples} cannot exceed window {window}"
        );
        OnlineDeferralEstimator {
            window: VecDeque::with_capacity(window.min(4096)),
            cap: window,
            min_samples: min_samples.max(1),
            unmerged: 0,
            evicted: Vec::new(),
            incoming: Vec::new(),
            merged: Vec::new(),
            profile: None,
            refreshes: 0,
        }
    }

    /// Feeds one observed discriminator confidence (NaN/∞ discarded).
    /// Oldest samples age out beyond the window capacity.
    pub fn observe(&mut self, confidence: f64) {
        if !confidence.is_finite() {
            return;
        }
        if self.window.len() == self.cap {
            let oldest = self.window.pop_front().expect("a full window");
            // The oldest sample is unmerged only when every sample is.
            if self.unmerged == self.cap {
                self.unmerged -= 1;
            } else {
                self.evicted.push(oldest);
            }
        }
        self.window.push_back(confidence);
        self.unmerged += 1;
    }

    /// Feeds a batch of observations.
    pub fn observe_all(&mut self, confidences: &[f64]) {
        for &c in confidences {
            self.observe(c);
        }
    }

    /// Whether enough samples have accumulated for the estimate to be
    /// trusted over the offline profile.
    pub fn warmed_up(&self) -> bool {
        self.window.len() >= self.min_samples
    }

    /// Brings the estimated profile up to date with the window (a no-op
    /// while cold). Returns whether a fresh profile is now available.
    pub fn refresh(&mut self) -> bool {
        if !self.warmed_up() {
            return false;
        }
        // Nothing arrived, so nothing left: the profile is the window.
        if self.unmerged > 0 {
            self.merge();
        }
        self.refreshes += 1;
        if cfg!(debug_assertions) && self.refreshes.is_multiple_of(TWIN_EVERY) {
            let twin = DeferralProfile::from_confidences(self.window.iter().copied().collect())
                .expect("a warmed-up window holds finite samples");
            let held = &self.profile.as_ref().expect("refreshed").sorted;
            assert!(
                held.iter()
                    .map(|c| c.to_bits())
                    .eq(twin.sorted.iter().map(|c| c.to_bits())),
                "the merged profile is not the sorted window"
            );
        }
        true
    }

    /// Merges the unmerged newcomers into the profile and drops the
    /// evicted samples from it.
    fn merge(&mut self) {
        let by_value = |a: &f64, b: &f64| a.partial_cmp(b).expect("finite samples");
        self.incoming.clear();
        self.incoming
            .extend(self.window.range(self.window.len() - self.unmerged..));
        // Stable, like `from_confidences`: equal newcomers keep arrival order.
        self.incoming.sort_by(by_value);
        self.evicted.sort_unstable_by(by_value);
        let profile = self
            .profile
            .get_or_insert_with(|| DeferralProfile::from_sorted(Vec::new()));
        // Equal samples sit in arrival order and eviction is FIFO, so each
        // evicted sample is the first survivor equal to it; newcomers go
        // after the survivors they equal.
        let mut gone = self.evicted.iter().peekable();
        let mut fresh = self.incoming.iter().copied().peekable();
        self.merged.clear();
        for &kept in &profile.sorted {
            if gone.next_if(|&&e| e == kept).is_some() {
                continue;
            }
            while let Some(c) = fresh.next_if(|&c| c < kept) {
                self.merged.push(c);
            }
            self.merged.push(kept);
        }
        self.merged.extend(fresh);
        debug_assert!(gone.next().is_none(), "every evicted sample was held");
        std::mem::swap(&mut profile.sorted, &mut self.merged);
        profile.table = OnceLock::new();
        self.evicted.clear();
        self.unmerged = 0;
    }

    /// The latest refreshed profile, if the estimator has warmed up.
    pub fn profile(&self) -> Option<&DeferralProfile> {
        self.profile.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn profile(samples: Vec<f64>) -> DeferralProfile {
        DeferralProfile::from_confidences(samples).expect("test samples are finite")
    }

    #[test]
    fn fraction_is_monotone_and_bounded() {
        let p = profile(vec![0.2, 0.5, 0.8]);
        assert_eq!(p.fraction_deferred(0.0), 0.0);
        assert!((p.fraction_deferred(0.3) - 1.0 / 3.0).abs() < 1e-12);
        assert!((p.fraction_deferred(0.6) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.fraction_deferred(2.0), 1.0);
    }

    #[test]
    fn empty_or_all_nan_input_is_an_error_not_a_panic() {
        assert_eq!(
            DeferralProfile::from_confidences(vec![]),
            Err(ProfileError::NoSamples)
        );
        assert_eq!(
            DeferralProfile::from_confidences(vec![f64::NAN, f64::INFINITY]),
            Err(ProfileError::NoSamples)
        );
        assert!(format!("{}", ProfileError::NoSamples).contains("at least one"));
    }

    #[test]
    fn grid_spans_unit_interval() {
        let g = DeferralProfile::threshold_grid(51);
        assert_eq!(g.len(), 51);
        assert_eq!(g[0], 0.0);
        assert_eq!(*g.last().unwrap(), 1.0);
        assert!(g.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn nan_samples_are_dropped() {
        let p = profile(vec![f64::NAN, 0.5, f64::NAN]);
        assert_eq!(p.sample_count(), 1);
    }

    #[test]
    fn gap_measures_distribution_shift() {
        let low = profile((0..100).map(|i| i as f64 / 100.0).collect());
        let shifted = profile((0..100).map(|i| (i as f64 / 100.0) * 0.5).collect());
        let grid = DeferralProfile::threshold_grid(21);
        assert_eq!(low.gap(&low.clone(), &grid), 0.0);
        assert!(low.gap(&shifted, &grid) > 0.1);
        // Symmetric.
        assert_eq!(low.gap(&shifted, &grid), shifted.gap(&low, &grid));
        assert_eq!(low.gap(&shifted, &[]), 0.0);
    }

    #[test]
    fn the_first_grid_is_tabled_and_another_is_searched_beside_it() {
        let p = profile(vec![0.1, 0.4, 0.4, 0.6, 0.9]);
        let grid = DeferralProfile::threshold_grid(11);
        let searched: Vec<f64> = grid.iter().map(|&t| p.fraction_deferred(t)).collect();
        assert!(p.table.get().is_none());
        assert!(p.fractions_deferred(&grid).eq(searched.iter().copied()));
        let tabled = p.table.get().expect("the first ask tables its grid");
        assert_eq!(tabled.grid, grid);
        assert_eq!(tabled.fractions, searched);
        // One static threshold: searched, and the grid's table stays.
        let pinned = [0.4];
        assert!(p.fractions_deferred(&pinned).eq([p.fraction_deferred(0.4)]));
        assert_eq!(p.table.get().expect("kept").grid, grid);
        assert!(p.fractions_deferred(&grid).eq(searched.iter().copied()));
        // Clones keep the table; equality ignores it.
        let unasked = profile(vec![0.1, 0.4, 0.4, 0.6, 0.9]);
        assert!(p.clone().table.get().is_some());
        assert_eq!(p, unasked);
        assert!(unasked.table.get().is_none());
        // A grid as long as the tabled one but not equal to it is searched.
        let shifted: Vec<f64> = grid.iter().map(|t| t + 0.05).collect();
        let at_shifted: Vec<f64> = shifted.iter().map(|&t| p.fraction_deferred(t)).collect();
        assert!(p.fractions_deferred(&shifted).eq(at_shifted));
    }

    /// Debug builds check every table read against a fresh search.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is not the profile's")]
    fn a_corrupted_table_fails_the_read_twin() {
        let p = profile(vec![0.2, 0.4, 0.6]);
        let grid = [0.0, 0.5, 1.0];
        assert_eq!(p.fractions_deferred(&grid).count(), 3);
        let mut p = p;
        p.table.get_mut().expect("tabled").fractions[1] = 0.25;
        let _ = p.fractions_deferred(&grid).count();
    }

    #[test]
    fn online_estimator_is_cold_until_min_samples() {
        let mut est = OnlineDeferralEstimator::new(64, 8);
        for i in 0..7 {
            est.observe(i as f64 / 7.0);
        }
        assert!(!est.warmed_up());
        assert!(!est.refresh());
        assert!(est.profile().is_none());
        est.observe(0.9);
        assert!(est.warmed_up());
        assert!(est.refresh());
        assert_eq!(est.profile().unwrap().sample_count(), 8);
    }

    #[test]
    fn online_estimator_window_ages_out_old_samples() {
        let mut est = OnlineDeferralEstimator::new(50, 10);
        // Phase 1: easy prompts, high confidences.
        for _ in 0..50 {
            est.observe(0.9);
        }
        est.refresh();
        assert_eq!(est.profile().unwrap().fraction_deferred(0.5), 0.0);
        // Phase 2: the difficulty shifts; confidences collapse.
        for _ in 0..50 {
            est.observe(0.1);
        }
        est.refresh();
        // The window has fully turned over: everything now defers at 0.5.
        assert_eq!(est.profile().unwrap().fraction_deferred(0.5), 1.0);
        assert_eq!(est.profile().unwrap().sample_count(), 50);
    }

    #[test]
    fn online_estimator_ignores_non_finite_observations() {
        let mut est = OnlineDeferralEstimator::new(16, 2);
        est.observe_all(&[f64::NAN, 0.4, f64::INFINITY, 0.6]);
        assert!(est.refresh());
        assert_eq!(est.profile().unwrap().sample_count(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot exceed window")]
    fn online_estimator_rejects_min_above_window() {
        let _ = OnlineDeferralEstimator::new(8, 9);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn online_estimator_rejects_an_empty_window() {
        let _ = OnlineDeferralEstimator::new(0, 0);
    }

    /// Debug builds check every [`TWIN_EVERY`]-th refresh against a full
    /// sort of the window, also when the refresh had nothing to merge.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the merged profile is not the sorted window")]
    fn a_corrupted_profile_fails_the_refresh_twin() {
        let mut est = OnlineDeferralEstimator::new(16, 1);
        est.observe_all(&[0.2, 0.4]);
        assert!(est.refresh());
        est.profile.as_mut().expect("refreshed").sorted.reverse();
        for _ in 1..TWIN_EVERY {
            est.refresh();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn monotone_in_threshold(samples in proptest::collection::vec(0.0f64..1.0, 10..200)) {
            let p = DeferralProfile::from_confidences(samples).expect("non-empty");
            let mut last = 0.0;
            for i in 0..=20 {
                let f = p.fraction_deferred(i as f64 / 20.0);
                prop_assert!(f >= last - 1e-12);
                last = f;
            }
        }

        /// Under a stationary confidence stream the online estimate
        /// converges to the offline profile built from the same
        /// distribution (the satellite convergence property).
        #[test]
        fn online_estimator_converges_under_stationary_streams(
            samples in proptest::collection::vec(0.0f64..1.0, 64..256),
        ) {
            let offline = DeferralProfile::from_confidences(samples.clone())
                .expect("non-empty");
            let mut est = OnlineDeferralEstimator::new(samples.len(), 32);
            est.observe_all(&samples);
            est.refresh();
            let online = est.profile().expect("warmed up");
            // Identical sample set ⇒ identical empirical CDF.
            let grid = DeferralProfile::threshold_grid(21);
            prop_assert!(offline.gap(online, &grid) < 1e-12);
        }

        /// The online profile's grid-table reads are bitwise
        /// `fraction_deferred` after every refresh: a merge drops the
        /// table of the samples it replaced, a refresh with nothing new
        /// keeps it, and a second grid never evicts it.
        #[test]
        fn tabled_fractions_are_the_searched_ones_across_merges(
            stream in proptest::collection::vec((0u8..8, 0.0f64..1.0), 1..600),
            cap_pick in 0usize..4,
            cadence_pick in 0usize..4,
            steps in 2usize..60,
        ) {
            let cap = [1, 7, 64, 256][cap_pick];
            let every = [1, 3, 17, cap + 1][cadence_pick];
            let grid = DeferralProfile::threshold_grid(steps);
            let other = [0.5];
            let mut est = OnlineDeferralEstimator::new(cap, cap / 2);
            for (i, &(code, x)) in stream.iter().enumerate() {
                let sample = match code {
                    0 => 0.0,
                    1 => -0.0,
                    // Samples on grid points and coarse repeats.
                    2 | 3 => grid[(x * (steps - 1) as f64).round() as usize],
                    4 => (x * 4.0).floor() / 4.0,
                    _ => x,
                };
                est.observe(sample);
                if (i + 1) % every != 0 {
                    continue;
                }
                est.refresh();
                // A refresh with nothing to merge keeps the table.
                let kept = est.refresh();
                let Some(p) = est.profile() else {
                    prop_assert!(!kept);
                    continue;
                };
                for _ in 0..2 {
                    let read: Vec<u64> = p.fractions_deferred(&grid).map(f64::to_bits).collect();
                    let searched: Vec<u64> =
                        grid.iter().map(|&t| p.fraction_deferred(t).to_bits()).collect();
                    prop_assert_eq!(read, searched);
                    prop_assert!(p.fractions_deferred(&other).eq([p.fraction_deferred(0.5)]));
                }
            }
        }

        /// The incrementally merged profile is bitwise the profile built
        /// from scratch out of the window, after any stream and any refresh
        /// cadence: equal samples and `-0.0`/`0.0` mixes in arrival order,
        /// NaN and ±∞ ignored, refreshes after every sample, every few and
        /// more than a full window apart.
        #[test]
        fn merged_window_is_bitwise_the_sorted_window(
            stream in proptest::collection::vec((0u8..12, 0.0f64..1.0), 1..1300),
            cap_pick in 0usize..5,
            min_pick in 0usize..3,
            cadence_pick in 0usize..5,
        ) {
            let cap = [1, 2, 7, 64, 512][cap_pick];
            let min_samples = [0, cap / 2, cap][min_pick];
            let every = [1, 3, 17, cap + 1, 2 * cap + 5][cadence_pick];
            let mut est = OnlineDeferralEstimator::new(cap, min_samples);
            let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            for (i, &(code, x)) in stream.iter().enumerate() {
                let sample = match code {
                    0 | 1 => 0.0,
                    2 | 3 => -0.0,
                    4 => 0.5,
                    5 => f64::NAN,
                    6 => f64::INFINITY,
                    7 => f64::NEG_INFINITY,
                    // Coarse values repeat often.
                    8 | 9 => (x * 8.0).floor() / 8.0,
                    _ => x,
                };
                est.observe(sample);
                if (i + 1) % every == 0 || i + 1 == stream.len() {
                    let window: Vec<f64> = est.window.iter().copied().collect();
                    prop_assert_eq!(est.refresh(), est.warmed_up());
                    if let Some(p) = est.profile() {
                        let scratch = DeferralProfile::from_confidences(window)
                            .expect("a warm window holds finite samples");
                        prop_assert_eq!(bits(&p.sorted), bits(&scratch.sorted));
                    }
                }
            }
        }
    }
}
