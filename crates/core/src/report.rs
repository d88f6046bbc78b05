//! Run reports: the measurements every experiment consumes.

use diffserve_imagegen::features::DIM;
use diffserve_linalg::Mat;
use diffserve_metrics::{CenteredMoments, FrechetKernel, GaussianStats};
use diffserve_simkit::time::SimTime;
use diffserve_trace::IncidentLog;

use crate::addons::AddonStats;
use crate::config::METRICS_WINDOW;
use crate::kernel::Ledger;
use crate::policy::Policy;
use crate::query::CompletedResponse;

/// Aggregate and time-series results of one serving run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The policy that produced this run.
    pub policy: Policy,
    /// Queries that entered the system.
    pub total_queries: u64,
    /// Queries completed (on time or late).
    pub completed: u64,
    /// Queries preemptively dropped.
    pub dropped: u64,
    /// Queries completed after their deadline.
    pub late: u64,
    /// Overall SLO violation ratio (late + dropped over total).
    pub violation_ratio: f64,
    /// Mean completion latency in seconds.
    pub mean_latency: f64,
    /// FID of all completed responses against the reference set.
    pub fid: f64,
    /// Windowed FID over time: `(window start seconds, fid)`. Windows with
    /// too few responses are omitted.
    pub fid_series: Vec<(f64, f64)>,
    /// Windowed SLO violation ratio over time.
    pub violation_series: Vec<(f64, f64)>,
    /// Windowed observed demand (QPS) over time.
    pub demand_series: Vec<(f64, f64)>,
    /// Confidence threshold chosen by the controller over time.
    pub threshold_series: Vec<(f64, f64)>,
    /// Deferral-estimation error over time: at each control tick, the mean
    /// absolute gap between the deferral profile `f(t)` the allocator
    /// solved against and the empirical profile of the confidences the
    /// window actually produced (a one-step-ahead prediction error). With
    /// the online estimator enabled this shrinks back after a difficulty
    /// shift; with the offline profile it stays elevated. Empty for
    /// policies that never run the cascade.
    pub deferral_error_series: Vec<(f64, f64)>,
    /// Mean of the windowed FID series (the paper's "Avg FID" bars).
    pub mean_windowed_fid: f64,
    /// Fraction of completed responses served past the entry tier: by the
    /// heavy model on a two-tier cascade, by any deeper tier on a ladder.
    pub heavy_fraction: f64,
    /// Mean end-to-end latency (seconds) of heavy-tier completions only —
    /// the escalated-query latency that restart-vs-resume escalation
    /// changes. `0.0` when nothing escalated.
    pub mean_heavy_latency: f64,
    /// Escalated queries whose heavy pass resumed from light-tier latents
    /// (skipped at least one denoise step). Always `0` in restart mode.
    pub resumed_queries: u64,
    /// Mean heavy denoise steps skipped per resumed query; `0.0` when no
    /// query resumed.
    pub mean_reused_steps: f64,
    /// Mean single-query GPU-seconds consumed per completed query (see
    /// [`CompletedResponse::gpu_time`]) — the efficiency axis the
    /// `ext_pipeline` experiment compares across escalation modes.
    pub gpu_time_per_query: f64,
    /// Every perturbation the run's fault engine actually fired — scheduled
    /// scenario events, mid-run injections, and hazard-drawn faults alike —
    /// stamped with its firing instant.
    /// [`Scenario::from_incident_log`](diffserve_trace::Scenario::from_incident_log)
    /// turns this back into a replayable scenario (bit-exact on the
    /// discrete-event simulator), closing the loop from "a weird run
    /// happened" to "it's now a regression test".
    pub incident_log: IncidentLog,
    /// Per-tier add-on module-cache accounting (hits, misses, swap
    /// seconds). All-zero when [`SystemConfig::addons`] is unset or no
    /// query carried an add-on.
    ///
    /// [`SystemConfig::addons`]: crate::config::SystemConfig::addons
    pub addon_stats: AddonStats,
    /// Per-ladder-tier completion statistics, cheapest tier first, derived
    /// from each response's [`CompletedResponse::tier`]. Two entries
    /// on legacy runs; empty when nothing completed.
    pub tier_breakdown: Vec<TierStats>,
}

/// Completion statistics of one ladder tier within a [`RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct TierStats {
    /// 0-based ladder tier (0 = cheapest).
    pub tier: usize,
    /// Responses this tier produced.
    pub completions: u64,
    /// Mean end-to-end latency (seconds) of this tier's completions;
    /// `0.0` with none.
    pub mean_latency: f64,
    /// FID of this tier's completions against the reference set; `NaN`
    /// with fewer than two.
    pub fid: f64,
    /// Responses that completed *deeper* than this tier — queries that
    /// escalated past (or, under predictive routing, skipped) it.
    pub escalated_past: u64,
}

/// Ridge on the covariance of the whole-run and per-tier fits.
const RUN_FID_RIDGE: f64 = 1e-6;
/// Ridge on the covariance of one metrics window's fit: windows hold tens
/// of rows, so their covariance needs the firmer regularization.
const WINDOW_FID_RIDGE: f64 = 1e-3;
/// Windows with fewer rows are left out of `fid_series` (their covariance
/// would be noise).
const WINDOW_FID_MIN_ROWS: u64 = 24;

/// Running count and latency sum of one ladder tier's completions.
#[derive(Debug, Clone, Copy, Default)]
struct TierTotals {
    completions: u64,
    latency_sum: f64,
}

/// Everything a [`RunReport`] derives from the completed responses,
/// accumulated one response at a time so that no row has to be kept for
/// the report to re-read at [`Ledger::close`].
///
/// The FID family comes from `CenteredMoments<DIM>` cells, one per (metrics
/// window, ladder tier), each row centred on the reference mean: cells
/// merge by addition, so the run FID is the fit of all cells merged, a
/// window's FID the fit of its row of cells, and a tier's FID the fit of its
/// column. Every other aggregate is a running count or a running sum taken
/// in recording order — the order a scan over the responses would add them
/// in, so the sums are the same bits.
#[derive(Debug, Clone)]
pub struct CompletionTotals {
    reference: GaussianStats,
    /// The reference mean every recorded row is centred on.
    shift: [f64; DIM],
    /// `cells[w][t]`: tier `t`'s completions in metrics window `w`. Both
    /// levels grow on demand.
    cells: Vec<Vec<CenteredMoments<DIM>>>,
    /// Per ladder tier, up to the deepest that completed anything.
    tiers: Vec<TierTotals>,
    heavy: u64,
    heavy_latency_sum: f64,
    resumed: u64,
    reused_steps_sum: f64,
    gpu_time_sum: f64,
}

impl CompletionTotals {
    /// Empty totals scoring against `reference`, with the FID series
    /// bucketed into windows of [`METRICS_WINDOW`].
    ///
    /// # Panics
    ///
    /// Panics if `reference` does not have `DIM` features.
    pub fn new(reference: &GaussianStats) -> Self {
        CompletionTotals {
            reference: reference.clone(),
            shift: reference
                .mean()
                .try_into()
                .expect("the FID reference has DIM features"),
            cells: Vec::new(),
            tiers: Vec::new(),
            heavy: 0,
            heavy_latency_sum: 0.0,
            resumed: 0,
            reused_steps_sum: 0.0,
            gpu_time_sum: 0.0,
        }
    }

    /// Adds one completed response. Its row is centred on the stack and
    /// pushed into its cell: nothing is allocated unless the response opens
    /// a new metrics window or tier.
    #[inline]
    pub fn record(&mut self, response: &CompletedResponse) {
        let latency = response.latency_secs();
        let tier = response.tier;
        self.gpu_time_sum += response.gpu_time;
        if tier > 0 {
            self.heavy += 1;
            self.heavy_latency_sum += latency;
        }
        if response.reused_steps > 0 {
            self.resumed += 1;
            self.reused_steps_sum += response.reused_steps as f64;
        }
        if tier >= self.tiers.len() {
            self.tiers.resize(tier + 1, TierTotals::default());
        }
        self.tiers[tier].completions += 1;
        self.tiers[tier].latency_sum += latency;

        let window = (response.completion.as_micros() / METRICS_WINDOW.as_micros()) as usize;
        if window >= self.cells.len() {
            self.cells.resize_with(window + 1, Vec::new);
        }
        let row = &mut self.cells[window];
        if tier >= row.len() {
            row.resize_with(tier + 1, CenteredMoments::new);
        }
        let centered: [f64; DIM] = std::array::from_fn(|j| response.features[j] - self.shift[j]);
        row[tier].push(&centered);
    }

    /// Responses recorded so far.
    pub fn completions(&self) -> u64 {
        self.tiers.iter().map(|t| t.completions).sum()
    }

    /// Of those, the ones served past the entry tier.
    pub fn heavy(&self) -> u64 {
        self.heavy
    }

    /// Of those, the ones whose final pass resumed from carried latents.
    pub fn resumed(&self) -> u64 {
        self.resumed
    }
}

/// A set whose FID [`RunReport::assemble`] owes.
#[derive(Debug, Clone, Copy)]
enum FidOwner {
    Window(usize),
    Run,
    Tier(usize),
}

/// The FIDs [`RunReport::assemble`] takes, measured [`FrechetKernel::LANES`]
/// at a time: each set is fitted into the next of that many reused
/// Gaussians, and a full batch goes to the kernel at once, so a report
/// holds four covariance buffers whatever its number of windows.
struct FidBatches<'t> {
    reference: &'t GaussianStats,
    kernel: FrechetKernel,
    fitted: Vec<GaussianStats>,
    owners: Vec<FidOwner>,
    /// `(window start seconds, fid)` of each window measured, in order.
    series: Vec<(f64, f64)>,
    run: f64,
    tiers: Vec<f64>,
}

impl<'t> FidBatches<'t> {
    fn new(reference: &'t GaussianStats, tiers: usize) -> Self {
        let empty = || GaussianStats::from_moments(vec![0.0; DIM], Mat::zeros(DIM, DIM));
        FidBatches {
            reference,
            kernel: FrechetKernel::new(),
            fitted: (0..FrechetKernel::LANES).map(|_| empty()).collect(),
            owners: Vec::with_capacity(FrechetKernel::LANES),
            series: Vec::new(),
            run: f64::NAN,
            tiers: vec![f64::NAN; tiers],
        }
    }

    /// Queues the FID of the rows in `moments` for `owner`; a set of fewer
    /// than two rows has none.
    fn push(&mut self, owner: FidOwner, moments: &CenteredMoments<DIM>, ridge: f64) {
        let slot = &mut self.fitted[self.owners.len()];
        if moments
            .gaussian_into(self.reference.mean(), ridge, slot)
            .is_ok()
        {
            self.owners.push(owner);
            if self.owners.len() == FrechetKernel::LANES {
                self.flush();
            }
        }
    }

    /// Measures the queued sets; a numerical failure leaves its owner
    /// without a FID.
    fn flush(&mut self) {
        let fitted = &self.fitted[..self.owners.len()];
        let distances = self.kernel.distances(fitted, self.reference);
        for (&owner, fid) in self.owners.iter().zip(distances) {
            let Ok(fid) = fid else { continue };
            match owner {
                FidOwner::Window(w) => self
                    .series
                    .push((w as f64 * METRICS_WINDOW.as_secs_f64(), fid)),
                FidOwner::Run => self.run = fid,
                FidOwner::Tier(t) => self.tiers[t] = fid,
            }
        }
        self.owners.clear();
    }
}

impl RunReport {
    /// Assembles the report of a session that took `total_queries` queries
    /// from its ledger. Shared by the discrete-event simulator and the
    /// thread-based cluster runtime so the two are compared on identical
    /// accounting.
    ///
    /// The demand and threshold series and the deferral errors are cut at
    /// `horizon`: windows are keyed by their start, so anything at or past
    /// it is a partial artifact of the drain period.
    ///
    /// The cost is one Gaussian fit and one Fréchet distance per metrics
    /// window, per tier and for the run — `O((windows + tiers) · d³)`
    /// whatever the number of responses. The windows that qualify go to
    /// one [`FrechetKernel`] four at a time, in window order, and the run
    /// and the tiers ride in the last batch: each fit goes into one of four
    /// reused Gaussians, and no matrix is allocated per distance.
    pub(crate) fn assemble(
        policy: Policy,
        total_queries: u64,
        ledger: &Ledger,
        horizon: SimTime,
        deferral_errors: Vec<(f64, f64)>,
    ) -> RunReport {
        let h = horizon.as_secs_f64();
        let secs = |series: Vec<(SimTime, f64)>| -> Vec<(f64, f64)> {
            series
                .into_iter()
                .map(|(t, x)| (t.as_secs_f64(), x))
                .collect()
        };
        let [demand_series, threshold_series, deferral_error_series] = [
            secs(ledger.demand().window_rates()),
            secs(ledger.thresholds().window_means()),
            deferral_errors,
        ]
        .map(|series| series.into_iter().filter(|&(t, _)| t < h).collect());
        let (slo, totals) = (ledger.slo(), ledger.totals());
        // One pass over the cells: each merges into its window, its tier
        // and (through its window) the run.
        let mut run = CenteredMoments::<DIM>::new();
        let mut per_tier = vec![CenteredMoments::new(); totals.tiers.len()];
        let mut in_window = CenteredMoments::new();
        let mut fids = FidBatches::new(&totals.reference, totals.tiers.len());
        for (w, row) in totals.cells.iter().enumerate() {
            in_window.clear();
            for (cell, tier) in row.iter().zip(&mut per_tier) {
                in_window.merge(cell);
                tier.merge(cell);
            }
            run.merge(&in_window);
            if in_window.count() >= WINDOW_FID_MIN_ROWS {
                fids.push(FidOwner::Window(w), &in_window, WINDOW_FID_RIDGE);
            }
        }
        fids.push(FidOwner::Run, &run, RUN_FID_RIDGE);
        for (t, moments) in per_tier.iter().enumerate() {
            fids.push(FidOwner::Tier(t), moments, RUN_FID_RIDGE);
        }
        fids.flush();
        let (fid, fid_series) = (fids.run, fids.series);
        let completions = totals.completions();
        let mean_windowed_fid = if fid_series.is_empty() {
            fid
        } else {
            fid_series.iter().map(|(_, f)| f).sum::<f64>() / fid_series.len() as f64
        };
        let violation_series = ledger
            .violations()
            .ratios()
            .into_iter()
            .map(|(t, v)| (t.as_secs_f64(), v))
            .collect();
        let mean_of = |sum: f64, count: u64| {
            if count == 0 {
                0.0
            } else {
                sum / count as f64
            }
        };
        let tier_breakdown = totals
            .tiers
            .iter()
            .zip(fids.tiers)
            .enumerate()
            .map(|(t, (tier, fid))| TierStats {
                tier: t,
                completions: tier.completions,
                mean_latency: mean_of(tier.latency_sum, tier.completions),
                fid,
                escalated_past: totals.tiers[t + 1..].iter().map(|d| d.completions).sum(),
            })
            .collect();
        RunReport {
            policy,
            total_queries,
            completed: slo.on_time() + slo.late(),
            dropped: slo.dropped(),
            late: slo.late(),
            violation_ratio: slo.violation_ratio(),
            mean_latency: slo.mean_latency(),
            fid,
            fid_series,
            violation_series,
            demand_series,
            threshold_series,
            deferral_error_series,
            incident_log: ledger.incidents().clone(),
            addon_stats: ledger.addon_stats(),
            mean_windowed_fid,
            heavy_fraction: mean_of(totals.heavy as f64, completions),
            mean_heavy_latency: mean_of(totals.heavy_latency_sum, totals.heavy),
            resumed_queries: totals.resumed,
            mean_reused_steps: mean_of(totals.reused_steps_sum, totals.resumed),
            gpu_time_per_query: mean_of(totals.gpu_time_sum, completions),
            tier_breakdown,
        }
    }

    /// Seconds after a perturbation at `event_time` until the windowed SLO
    /// violation ratio first returns to at most `target` — the scenario
    /// harness's recovery-time metric. Returns `None` if no window at or
    /// after `event_time` recovers (or the series is empty).
    ///
    /// Windows are keyed by their start time, so the result is quantized to
    /// [`METRICS_WINDOW`].
    ///
    /// # Examples
    ///
    /// ```
    /// use diffserve_core::{Policy, RunReport};
    ///
    /// let mut report = RunReport::empty(Policy::DiffServe);
    /// report.violation_series = vec![(0.0, 0.0), (20.0, 0.5), (40.0, 0.3), (60.0, 0.05)];
    /// // Perturbation at t=20s; the system is back under 10% violations at t=60s.
    /// assert_eq!(report.recovery_time_after(20.0, 0.1), Some(40.0));
    /// assert_eq!(report.recovery_time_after(20.0, 0.01), None);
    /// ```
    pub fn recovery_time_after(&self, event_time: f64, target: f64) -> Option<f64> {
        self.violation_series
            .iter()
            .filter(|&&(t, _)| t >= event_time)
            .find(|&&(_, v)| v <= target)
            .map(|&(t, _)| t - event_time)
    }

    /// An all-zero report for `policy` — a starting point for tests and
    /// doctests that fill in specific fields.
    pub fn empty(policy: Policy) -> RunReport {
        RunReport {
            policy,
            total_queries: 0,
            completed: 0,
            dropped: 0,
            late: 0,
            violation_ratio: 0.0,
            mean_latency: 0.0,
            fid: f64::NAN,
            fid_series: Vec::new(),
            violation_series: Vec::new(),
            demand_series: Vec::new(),
            threshold_series: Vec::new(),
            deferral_error_series: Vec::new(),
            incident_log: Vec::new(),
            addon_stats: AddonStats::default(),
            mean_windowed_fid: f64::NAN,
            heavy_fraction: 0.0,
            mean_heavy_latency: 0.0,
            resumed_queries: 0,
            mean_reused_steps: 0.0,
            gpu_time_per_query: 0.0,
            tier_breakdown: Vec::new(),
        }
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<18} queries={:<6} fid={:<6.2} slo_viol={:<6.3} mean_lat={:<5.2}s heavy={:<5.3} dropped={}",
            self.policy.name(),
            self.total_queries,
            self.fid,
            self.violation_ratio,
            self.mean_latency,
            self.heavy_fraction,
            self.dropped,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::query::QueryId;
    use diffserve_metrics::frechet_distance;
    use diffserve_simkit::time::{SimDuration, SimTime};
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// The oracle the streamed cells replaced: gather the rows of a set,
    /// fit a Gaussian in two passes, measure it against the reference.
    fn two_pass_fid(rows: &[&CompletedResponse], reference: &GaussianStats, ridge: f64) -> f64 {
        if rows.len() < 2 {
            return f64::NAN;
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.features.as_slice()).collect();
        GaussianStats::fit(&Mat::from_rows(&refs), ridge)
            .and_then(|g| frechet_distance(&g, reference))
            .unwrap_or(f64::NAN)
    }

    /// Both `NaN`, or within 1e-9 relative.
    fn close(streamed: f64, oracle: f64) -> bool {
        (streamed.is_nan() && oracle.is_nan())
            || (streamed - oracle).abs() <= 1e-9 * oracle.abs().max(1e-12)
    }

    const WINDOW_MICROS: u64 = METRICS_WINDOW.as_micros();
    /// Window populations the generator draws from: empty, too few to fit,
    /// either side of the 24-row rule, and comfortably above it.
    const POPULATIONS: [usize; 8] = [0, 1, 2, 23, 24, 25, 40, 61];

    fn reference() -> GaussianStats {
        let cov = Mat::from_fn(DIM, DIM, |i, j| match i.abs_diff(j) {
            0 => 1.0 + 0.3 * i as f64,
            1 => 0.2,
            _ => 0.0,
        });
        let mean = (0..DIM).map(|i| [0.4, -1.1, 2.5, 0.0][i % 4]).collect();
        GaussianStats::from_moments(mean, cov)
    }

    /// Random completions: `populations[w]` of them in metrics window `w`,
    /// spread over the tiers of `tier_mask`, plus — with `lonely` — a
    /// single completion on tier 3, all in shuffled recording order.
    fn responses(
        populations: &[usize],
        tier_mask: usize,
        lonely: bool,
        seed: u64,
    ) -> Vec<CompletedResponse> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let tiers: Vec<usize> = (0..3).filter(|t| tier_mask & (1 << t) != 0).collect();
        let mut slots: Vec<(usize, usize)> = populations
            .iter()
            .enumerate()
            .flat_map(|(w, &n)| std::iter::repeat_n(w, n))
            .map(|w| (w, tiers[rng.gen_range(0..tiers.len())]))
            .collect();
        if lonely {
            slots.push((rng.gen_range(0..populations.len()), 3));
        }
        let mean = reference().mean().to_vec();
        let mut out: Vec<CompletedResponse> = slots
            .into_iter()
            .enumerate()
            .map(|(id, (w, tier))| {
                let completion = SimTime::from_micros(
                    w as u64 * WINDOW_MICROS + rng.gen_range(0..WINDOW_MICROS),
                );
                let latency = rng.gen_range(0..completion.as_micros().min(8_000_000) + 1);
                CompletedResponse {
                    id: QueryId(id as u64),
                    arrival: SimTime::from_micros(completion.as_micros() - latency),
                    completion,
                    // Each tier sits at its own distance from the reference.
                    features: std::array::from_fn(|j| {
                        mean[j] + 0.5 * tier as f64 + rng.gen_range(-1.5..1.5)
                    }),
                    quality: 0.5,
                    tier,
                    confidence: None,
                    gpu_time: rng.gen_range(0.1..3.0),
                    reused_steps: if tier > 0 { rng.gen_range(0..4) } else { 0 },
                }
            })
            .collect();
        out.shuffle(&mut rng);
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The report assembled from streamed cells against the one a scan
        /// over the retained responses would give: the FID family has the
        /// same shape (series length and keys, breakdown length, `NaN` in
        /// the same places) and agrees within 1e-9 relative with the
        /// two-pass fit; every count and every running sum is the same
        /// bits.
        #[test]
        fn streamed_report_matches_a_scan_over_the_responses(
            populations in proptest::collection::vec(0usize..8, 1..6),
            tier_mask in 1usize..8,
            lonely in 0usize..2,
            seed in 0u64..100_000,
        ) {
            let populations: Vec<usize> = populations.iter().map(|&p| POPULATIONS[p]).collect();
            let responses = responses(&populations, tier_mask, lonely == 1, seed);
            let reference = reference();
            let window = METRICS_WINDOW;
            let config = SystemConfig {
                slo: SimDuration::from_secs(5),
                ..SystemConfig::default()
            };
            let mut ledger = Ledger::new(&config, &reference, 4, false);
            for r in &responses {
                ledger.complete(r.clone());
            }
            let totals = ledger.totals();
            let report = RunReport::assemble(
                Policy::DiffServe,
                responses.len() as u64,
                &ledger,
                SimTime::MAX,
                Vec::new(),
            );

            let all: Vec<&CompletedResponse> = responses.iter().collect();
            proptest::prop_assert!(close(report.fid, two_pass_fid(&all, &reference, 1e-6)));

            // The series: one entry per window holding at least 24 rows,
            // keyed by the window's start.
            let mut series = Vec::new();
            for w in 0..populations.len() {
                let members: Vec<&CompletedResponse> = all
                    .iter()
                    .copied()
                    .filter(|r| r.completion.as_micros() / window.as_micros() == w as u64)
                    .collect();
                if members.len() >= 24 {
                    series.push((
                        w as f64 * window.as_secs_f64(),
                        two_pass_fid(&members, &reference, 1e-3),
                    ));
                }
            }
            proptest::prop_assert_eq!(report.fid_series.len(), series.len());
            for (got, want) in report.fid_series.iter().zip(&series) {
                proptest::prop_assert_eq!(got.0.to_bits(), want.0.to_bits());
                proptest::prop_assert!(close(got.1, want.1), "{:?} vs {:?}", got, want);
            }
            let mean_windowed = if series.is_empty() {
                report.fid
            } else {
                series.iter().map(|(_, f)| f).sum::<f64>() / series.len() as f64
            };
            proptest::prop_assert!(close(report.mean_windowed_fid, mean_windowed));

            // The breakdown: an entry per tier up to the deepest that
            // completed anything, empty tiers in between included.
            let depth = all.iter().map(|r| r.tier + 1).max().unwrap_or(0);
            proptest::prop_assert_eq!(report.tier_breakdown.len(), depth);
            for (t, stats) in report.tier_breakdown.iter().enumerate() {
                let members: Vec<&CompletedResponse> =
                    all.iter().copied().filter(|r| r.tier == t).collect();
                proptest::prop_assert_eq!(stats.tier, t);
                proptest::prop_assert_eq!(stats.completions, members.len() as u64);
                let mean_latency = if members.is_empty() {
                    0.0
                } else {
                    members.iter().map(|r| r.latency_secs()).sum::<f64>() / members.len() as f64
                };
                proptest::prop_assert_eq!(stats.mean_latency.to_bits(), mean_latency.to_bits());
                proptest::prop_assert_eq!(stats.fid.is_nan(), members.len() < 2);
                proptest::prop_assert!(close(stats.fid, two_pass_fid(&members, &reference, 1e-6)));
                proptest::prop_assert_eq!(
                    stats.escalated_past,
                    all.iter().filter(|r| r.tier > t).count() as u64
                );
            }

            // The running sums, against sums over the slice in its order.
            let n = all.len() as f64;
            let heavy: Vec<f64> = all
                .iter()
                .filter(|r| r.tier > 0)
                .map(|r| r.latency_secs())
                .collect();
            let reused: Vec<f64> = all
                .iter()
                .filter(|r| r.reused_steps > 0)
                .map(|r| r.reused_steps as f64)
                .collect();
            let mean = |xs: &[f64]| {
                if xs.is_empty() {
                    0.0
                } else {
                    xs.iter().sum::<f64>() / xs.len() as f64
                }
            };
            let gpu: Vec<f64> = all.iter().map(|r| r.gpu_time).collect();
            proptest::prop_assert_eq!(
                report.heavy_fraction.to_bits(),
                if all.is_empty() { 0.0 } else { heavy.len() as f64 / n }.to_bits()
            );
            proptest::prop_assert_eq!(report.mean_heavy_latency.to_bits(), mean(&heavy).to_bits());
            proptest::prop_assert_eq!(report.resumed_queries, reused.len() as u64);
            proptest::prop_assert_eq!(report.mean_reused_steps.to_bits(), mean(&reused).to_bits());
            proptest::prop_assert_eq!(report.gpu_time_per_query.to_bits(), mean(&gpu).to_bits());
            proptest::prop_assert_eq!(totals.completions(), all.len() as u64);
            proptest::prop_assert_eq!(totals.heavy(), heavy.len() as u64);
            proptest::prop_assert_eq!(totals.resumed(), reused.len() as u64);

            // The batched FIDs against one distance per set, fitted from
            // the merged cells as before the kernel: the same bits.
            let one_by_one = |moments: &CenteredMoments<DIM>, ridge: f64| {
                moments
                    .gaussian(reference.mean(), ridge)
                    .and_then(|g| frechet_distance(&g, &reference))
                    .unwrap_or(f64::NAN)
            };
            let mut run = CenteredMoments::<DIM>::new();
            let mut windows = Vec::new();
            for (w, row) in totals.cells.iter().enumerate() {
                let mut in_window = CenteredMoments::new();
                for cell in row {
                    in_window.merge(cell);
                }
                run.merge(&in_window);
                if in_window.count() >= WINDOW_FID_MIN_ROWS {
                    let fid = one_by_one(&in_window, WINDOW_FID_RIDGE);
                    windows.push((w as f64 * window.as_secs_f64(), fid));
                }
            }
            let bits = |series: &[(f64, f64)]| -> Vec<(u64, u64)> {
                series.iter().map(|(t, f)| (t.to_bits(), f.to_bits())).collect()
            };
            proptest::prop_assert_eq!(bits(&report.fid_series), bits(&windows));
            let run_fid = one_by_one(&run, RUN_FID_RIDGE);
            proptest::prop_assert_eq!(report.fid.to_bits(), run_fid.to_bits());
            for (t, stats) in report.tier_breakdown.iter().enumerate() {
                let mut tier = CenteredMoments::new();
                for cell in totals.cells.iter().filter_map(|row| row.get(t)) {
                    tier.merge(cell);
                }
                let tier_fid = one_by_one(&tier, RUN_FID_RIDGE);
                proptest::prop_assert_eq!(stats.fid.to_bits(), tier_fid.to_bits());
            }
        }
    }

    #[test]
    fn summary_contains_key_numbers() {
        let r = RunReport {
            policy: Policy::DiffServe,
            total_queries: 100,
            completed: 95,
            dropped: 5,
            late: 2,
            violation_ratio: 0.07,
            mean_latency: 1.5,
            fid: 17.25,
            fid_series: vec![],
            violation_series: vec![],
            demand_series: vec![],
            threshold_series: vec![],
            deferral_error_series: vec![],
            incident_log: vec![],
            addon_stats: AddonStats::default(),
            mean_windowed_fid: 17.0,
            heavy_fraction: 0.6,
            mean_heavy_latency: 2.1,
            resumed_queries: 0,
            mean_reused_steps: 0.0,
            gpu_time_per_query: 0.9,
            tier_breakdown: Vec::new(),
        };
        let s = r.summary();
        assert!(s.contains("DiffServe"));
        assert!(s.contains("17.25"));
        assert!(s.contains("0.070"));
    }

    /// An empty two-tier ledger under `config`.
    fn ledger(config: &SystemConfig) -> Ledger {
        Ledger::new(config, &reference(), 2, false)
    }

    /// A report assembled from `ledger` with these deferral errors.
    fn assembled(ledger: &Ledger, horizon: SimTime, deferral_errors: Vec<(f64, f64)>) -> RunReport {
        RunReport::assemble(Policy::DiffServe, 0, ledger, horizon, deferral_errors)
    }

    #[test]
    fn a_run_without_completions_reports_no_fid() {
        let ledger = ledger(&SystemConfig::default());
        let report = assembled(&ledger, SimTime::MAX, Vec::new());
        assert_eq!((report.completed, report.dropped, report.late), (0, 0, 0));
        assert!(report.fid.is_nan());
        assert!(report.mean_windowed_fid.is_nan());
        assert!(report.fid_series.is_empty());
        assert!(report.tier_breakdown.is_empty());
        assert_eq!(report.heavy_fraction, 0.0);
        assert_eq!(report.gpu_time_per_query, 0.0);
        assert_eq!(report.violation_ratio, 0.0);
    }

    #[test]
    fn series_are_cut_at_the_horizon() {
        let mut ledger = ledger(&SystemConfig::default());
        let w = METRICS_WINDOW.as_secs_f64();
        for k in 0..4u32 {
            let t = SimTime::from_secs_f64(w * f64::from(k) + 0.5);
            ledger.arrive(t, 0, false);
            ledger.record_threshold(t, 0.1 * f64::from(k));
        }
        let errors = (0..4).map(|k| (w * k as f64, 0.01)).collect();
        // The horizon is the start of window 2: windows 0 and 1 stay.
        let horizon = SimTime::from_secs_f64(2.0 * w);
        let report = assembled(&ledger, horizon, errors);
        let starts = |s: &[(f64, f64)]| s.iter().map(|&(t, _)| t).collect::<Vec<_>>();
        assert_eq!(starts(&report.demand_series), [0.0, w]);
        assert_eq!(starts(&report.threshold_series), [0.0, w]);
        assert_eq!(starts(&report.deferral_error_series), [0.0, w]);
        assert_eq!(report.threshold_series[1].1, 0.1);
    }

    #[test]
    fn recovery_counts_only_windows_from_the_event_on() {
        let mut report = RunReport::empty(Policy::DiffServe);
        assert_eq!(report.recovery_time_after(0.0, 1.0), None);
        report.violation_series = vec![(0.0, 0.0), (20.0, 0.4), (40.0, 0.02)];
        // The calm window before the event does not count as recovery.
        assert_eq!(report.recovery_time_after(10.0, 0.05), Some(30.0));
        // A window at the event instant that is already calm recovers at 0.
        assert_eq!(report.recovery_time_after(40.0, 0.05), Some(0.0));
        assert_eq!(report.recovery_time_after(41.0, 0.05), None);
    }

    #[test]
    fn slo_counts_come_from_the_ledger() {
        let config = SystemConfig {
            slo: SimDuration::from_secs(5),
            ..SystemConfig::default()
        };
        let mut ledger = ledger(&config);
        let mean = reference().mean().to_vec();
        for (id, latency) in [1u64, 2, 9].into_iter().enumerate() {
            ledger.complete(CompletedResponse {
                id: QueryId(id as u64),
                arrival: SimTime::from_secs(10),
                completion: SimTime::from_secs(10 + latency),
                features: std::array::from_fn(|j| mean[j]),
                quality: 0.5,
                tier: usize::from(latency > 1),
                confidence: None,
                gpu_time: 1.0,
                reused_steps: 0,
            });
        }
        ledger.drop_query(QueryId(3), SimTime::from_secs(25), SimTime::from_secs(30));
        let report = assembled(&ledger, SimTime::MAX, Vec::new());
        assert_eq!((report.completed, report.late, report.dropped), (3, 1, 1));
        assert_eq!(report.violation_ratio, 0.5);
        assert_eq!(report.mean_latency, 4.0);
        assert!((report.heavy_fraction - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.mean_heavy_latency, 5.5);
        assert_eq!(report.tier_breakdown.len(), 2);
        assert_eq!(report.tier_breakdown[0].escalated_past, 2);
    }
}
