//! SLO accounting.
//!
//! The paper's second system metric is the *SLO violation ratio*: "the
//! proportion of queries that fail to meet the SLO latency requirement or
//! are preemptively dropped by the system when they are predicted to miss
//! the deadline" (§4.1). [`SloTracker`] implements exactly that accounting;
//! [`ViolationWindows`] keeps the per-window counts behind the ratio's time
//! series (Figs. 5 and 8).

use diffserve_simkit::time::{SimDuration, SimTime};

/// Outcome of one query for SLO purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Completed within its deadline.
    OnTime,
    /// Completed after its deadline.
    Late,
    /// Preemptively dropped (predicted to miss, or shed under overload).
    Dropped,
}

impl QueryOutcome {
    /// Whether this outcome counts as an SLO violation.
    pub fn is_violation(self) -> bool {
        !matches!(self, QueryOutcome::OnTime)
    }

    /// How a query completed after `latency` fares against `slo`: late
    /// only when over it.
    pub fn of_completion(latency: SimDuration, slo: SimDuration) -> QueryOutcome {
        if latency <= slo {
            QueryOutcome::OnTime
        } else {
            QueryOutcome::Late
        }
    }
}

/// Counts per-query outcomes and reports violation statistics. Its size
/// does not grow with the number of queries.
///
/// # Examples
///
/// ```
/// use diffserve_metrics::{QueryOutcome, SloTracker};
/// use diffserve_simkit::time::{SimDuration, SimTime};
///
/// let mut slo = SloTracker::new(SimDuration::from_secs(5));
/// let arrival = SimTime::ZERO;
/// slo.record_completion(arrival, SimTime::from_secs(2)); // on time
/// slo.record_completion(arrival, SimTime::from_secs(9)); // late
/// slo.record_drop();
/// assert_eq!(slo.total(), 3);
/// assert!((slo.violation_ratio() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SloTracker {
    slo: SimDuration,
    on_time: u64,
    late: u64,
    dropped: u64,
    latency_sum: f64,
    latency_count: u64,
}

impl SloTracker {
    /// Creates a tracker for the given latency SLO.
    pub fn new(slo: SimDuration) -> Self {
        SloTracker {
            slo,
            on_time: 0,
            late: 0,
            dropped: 0,
            latency_sum: 0.0,
            latency_count: 0,
        }
    }

    /// The configured SLO.
    pub fn slo(&self) -> SimDuration {
        self.slo
    }

    /// Records a completed query; classifies it against the SLO.
    /// Returns the outcome.
    pub fn record_completion(&mut self, arrival: SimTime, finish: SimTime) -> QueryOutcome {
        let latency = finish.saturating_since(arrival);
        self.latency_sum += latency.as_secs_f64();
        self.latency_count += 1;
        let outcome = QueryOutcome::of_completion(latency, self.slo);
        match outcome {
            QueryOutcome::OnTime => self.on_time += 1,
            _ => self.late += 1,
        }
        outcome
    }

    /// Records a preemptive drop.
    pub fn record_drop(&mut self) {
        self.dropped += 1;
    }

    /// Total queries accounted (completions + drops).
    pub fn total(&self) -> u64 {
        self.on_time + self.late + self.dropped
    }

    /// Queries that met the SLO.
    pub fn on_time(&self) -> u64 {
        self.on_time
    }

    /// Completed-but-late queries.
    pub fn late(&self) -> u64 {
        self.late
    }

    /// Dropped queries.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Overall violation ratio (0.0 when nothing has been recorded).
    pub fn violation_ratio(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.late + self.dropped) as f64 / total as f64
        }
    }

    /// Mean completion latency in seconds (drops excluded).
    pub fn mean_latency(&self) -> f64 {
        if self.latency_count == 0 {
            0.0
        } else {
            self.latency_sum / self.latency_count as f64
        }
    }
}

/// Outcome counts per time window: the violation-ratio time series of the
/// paper's Figs. 5 and 8, kept as two counters per window instead of one
/// entry per query.
///
/// # Examples
///
/// ```
/// use diffserve_metrics::ViolationWindows;
/// use diffserve_simkit::time::{SimDuration, SimTime};
///
/// let mut windows = ViolationWindows::new(SimDuration::from_secs(10));
/// windows.record(SimTime::from_secs(3), false);
/// windows.record(SimTime::from_secs(4), true);
/// windows.record(SimTime::from_secs(25), true);
/// let ratios: Vec<f64> = windows.ratios().into_iter().map(|(_, r)| r).collect();
/// assert_eq!(ratios, vec![0.5, 0.0, 1.0]); // the empty window reads 0
/// ```
#[derive(Debug, Clone)]
pub struct ViolationWindows {
    window: SimDuration,
    /// `(outcomes, violations)` of window `i`, up to the last window an
    /// outcome fell in.
    counts: Vec<(u64, u64)>,
}

impl ViolationWindows {
    /// Empty counts over windows of length `window`.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        ViolationWindows {
            window,
            counts: Vec::new(),
        }
    }

    /// Counts one outcome at `at` — a completion's finish time or the
    /// instant of a drop — as a violation or not.
    #[inline]
    pub fn record(&mut self, at: SimTime, violation: bool) {
        let idx = (at.as_micros() / self.window.as_micros()) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, (0, 0));
        }
        let (outcomes, violations) = &mut self.counts[idx];
        *outcomes += 1;
        *violations += u64::from(violation);
    }

    /// Violation ratio per window, keyed by window start, from time zero to
    /// the last window holding an outcome. Windows with no outcomes report
    /// 0; with nothing recorded the series is empty.
    pub fn ratios(&self) -> Vec<(SimTime, f64)> {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &(outcomes, violations))| {
                let ratio = if outcomes == 0 {
                    0.0
                } else {
                    violations as f64 / outcomes as f64
                };
                (SimTime::ZERO + self.window * i as u64, ratio)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn classifies_on_time_and_late() {
        let mut s = SloTracker::new(SimDuration::from_secs(5));
        assert_eq!(s.record_completion(t(0.0), t(5.0)), QueryOutcome::OnTime);
        assert_eq!(s.record_completion(t(0.0), t(5.1)), QueryOutcome::Late);
        assert_eq!(s.on_time(), 1);
        assert_eq!(s.late(), 1);
    }

    #[test]
    fn drops_count_as_violations() {
        let mut s = SloTracker::new(SimDuration::from_secs(5));
        s.record_drop();
        s.record_completion(t(0.0), t(1.0));
        assert_eq!(s.dropped(), 1);
        assert!((s.violation_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_tracker_reports_zero() {
        let s = SloTracker::new(SimDuration::from_secs(1));
        assert_eq!(s.violation_ratio(), 0.0);
        assert_eq!(s.mean_latency(), 0.0);
        assert_eq!(s.total(), 0);
        assert!(ViolationWindows::new(SimDuration::from_secs(1))
            .ratios()
            .is_empty());
    }

    #[test]
    fn mean_latency_excludes_drops() {
        let mut s = SloTracker::new(SimDuration::from_secs(10));
        s.record_completion(t(0.0), t(2.0));
        s.record_completion(t(1.0), t(5.0));
        s.record_drop();
        assert!((s.mean_latency() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn windowed_ratio_buckets_by_completion_time() {
        let mut s = SloTracker::new(SimDuration::from_secs(1));
        let mut w = ViolationWindows::new(SimDuration::from_secs(1));
        // Window 0: one on-time.
        let on_time = s.record_completion(t(0.0), t(0.5));
        w.record(t(0.5), on_time.is_violation());
        // Window 1: one late (latency 1.4 > 1).
        let late = s.record_completion(t(0.1), t(1.5));
        w.record(t(1.5), late.is_violation());
        // Window 3: one drop.
        w.record(t(3.2), QueryOutcome::Dropped.is_violation());
        let w = w.ratios();
        assert_eq!(w.len(), 4);
        assert_eq!(w[0], (t(0.0), 0.0));
        assert_eq!(w[1], (t(1.0), 1.0));
        assert_eq!(w[2], (t(2.0), 0.0)); // empty window
        assert_eq!(w[3], (t(3.0), 1.0));
    }

    /// The counters against the scan over retained events they replaced:
    /// same length (every window up to the last outcome, leading, interior
    /// and boundary cases included), same keys, same ratio bits, whatever
    /// order the outcomes arrive in.
    #[test]
    fn windowed_ratio_matches_a_scan_over_the_events() {
        use rand::{Rng, SeedableRng};
        let window = SimDuration::from_millis(700);
        for seed in 0..50u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let events: Vec<(SimTime, bool)> = (0..rng.gen_range(0..200))
                .map(|_| {
                    let at = match rng.gen_range(0..4) {
                        // On a window boundary, or anywhere up to 40 windows out.
                        0 => SimTime::ZERO + window * rng.gen_range(0..40),
                        _ => SimTime::from_micros(rng.gen_range(0..28_000_000)),
                    };
                    (at, rng.gen_range(0..3) == 0)
                })
                .collect();
            let mut windows = ViolationWindows::new(window);
            for &(at, violation) in &events {
                windows.record(at, violation);
            }
            let num_windows = events
                .iter()
                .map(|(t, _)| t.as_micros() / window.as_micros() + 1)
                .max()
                .unwrap_or(0);
            let scan: Vec<(SimTime, f64)> = (0..num_windows)
                .map(|i| {
                    let inside =
                        |(t, _): &&(SimTime, bool)| t.as_micros() / window.as_micros() == i;
                    let total = events.iter().filter(inside).count();
                    let violations = events.iter().filter(inside).filter(|e| e.1).count();
                    let ratio = if total == 0 {
                        0.0
                    } else {
                        violations as f64 / total as f64
                    };
                    (SimTime::ZERO + window * i, ratio)
                })
                .collect();
            let got = windows.ratios();
            assert_eq!(got.len(), scan.len(), "seed {seed}");
            for (g, w) in got.iter().zip(&scan) {
                assert_eq!(g.0, w.0, "seed {seed}");
                assert_eq!(g.1.to_bits(), w.1.to_bits(), "seed {seed}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = ViolationWindows::new(SimDuration::ZERO);
    }

    #[test]
    fn outcome_violation_flags() {
        assert!(!QueryOutcome::OnTime.is_violation());
        assert!(QueryOutcome::Late.is_violation());
        assert!(QueryOutcome::Dropped.is_violation());
    }
}
