//! Demand traces: time-binned query rates.

use diffserve_simkit::time::{SimDuration, SimTime};

/// A demand trace: query rate (QPS) per fixed-width time bin.
///
/// This mirrors the DiffServe artifact's trace files
/// (`trace_{A}to{B}qps.txt`: one QPS value per second).
///
/// # Examples
///
/// ```
/// use diffserve_trace::Trace;
/// use diffserve_simkit::time::{SimDuration, SimTime};
///
/// let t = Trace::from_qps(vec![4.0, 8.0, 16.0], SimDuration::from_secs(1))?;
/// assert_eq!(t.qps_at(SimTime::from_millis(1500)), 8.0);
/// assert_eq!(t.duration(), SimDuration::from_secs(3));
/// # Ok::<(), diffserve_trace::TraceError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    bins: Vec<f64>,
    bin_width: SimDuration,
}

/// Errors from constructing traces.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The trace has no bins.
    Empty,
    /// A rate was negative or non-finite.
    InvalidRate {
        /// Index of the offending bin.
        bin: usize,
        /// The offending value.
        value: f64,
    },
    /// The bin width was zero.
    ZeroBinWidth,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Empty => write!(f, "trace has no bins"),
            TraceError::InvalidRate { bin, value } => {
                write!(f, "bin {bin} has invalid rate {value}")
            }
            TraceError::ZeroBinWidth => write!(f, "trace bin width must be positive"),
        }
    }
}

impl std::error::Error for TraceError {}

impl Trace {
    /// Creates a trace from per-bin QPS values.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`], [`TraceError::ZeroBinWidth`], or
    /// [`TraceError::InvalidRate`].
    pub fn from_qps(bins: Vec<f64>, bin_width: SimDuration) -> Result<Self, TraceError> {
        if bins.is_empty() {
            return Err(TraceError::Empty);
        }
        if bin_width.is_zero() {
            return Err(TraceError::ZeroBinWidth);
        }
        for (i, &v) in bins.iter().enumerate() {
            if !v.is_finite() || v < 0.0 {
                return Err(TraceError::InvalidRate { bin: i, value: v });
            }
        }
        Ok(Trace { bins, bin_width })
    }

    /// Constant-rate trace of the given duration.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid rate or non-positive duration.
    pub fn constant(qps: f64, duration: SimDuration) -> Result<Self, TraceError> {
        if duration.is_zero() {
            return Err(TraceError::ZeroBinWidth);
        }
        let bin = SimDuration::from_secs(1);
        let n = (duration.as_secs_f64().ceil() as usize).max(1);
        Trace::from_qps(vec![qps; n], bin)
    }

    /// Query rate at simulated time `t` (0 beyond the trace end).
    pub fn qps_at(&self, t: SimTime) -> f64 {
        let idx = t.as_micros() / self.bin_width.as_micros();
        self.bins.get(idx as usize).copied().unwrap_or(0.0)
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Returns `true` if the trace has no bins (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Bin width.
    pub fn bin_width(&self) -> SimDuration {
        self.bin_width
    }

    /// Total trace duration.
    pub fn duration(&self) -> SimDuration {
        self.bin_width * self.bins.len() as u64
    }

    /// Minimum rate over the trace.
    pub fn min_qps(&self) -> f64 {
        self.bins.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    /// Maximum rate over the trace.
    pub fn max_qps(&self) -> f64 {
        self.bins.iter().cloned().fold(0.0, f64::max)
    }

    /// Mean rate over the trace.
    pub fn mean_qps(&self) -> f64 {
        self.bins.iter().sum::<f64>() / self.bins.len() as f64
    }

    /// Expected number of queries over the whole trace.
    pub fn expected_queries(&self) -> f64 {
        self.bins.iter().sum::<f64>() * self.bin_width.as_secs_f64()
    }

    /// Per-bin rates.
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// Shape-preserving affine rescale so that the minimum maps to
    /// `min_qps` and the maximum to `max_qps` — the transformation the paper
    /// applies to the Azure Functions trace to match system capacity (§4.1).
    ///
    /// A flat trace rescales to the midpoint of the target range.
    ///
    /// # Panics
    ///
    /// Panics if `min_qps > max_qps` or either is negative/non-finite.
    pub fn rescaled(&self, min_qps: f64, max_qps: f64) -> Trace {
        assert!(
            min_qps.is_finite() && max_qps.is_finite() && 0.0 <= min_qps && min_qps <= max_qps,
            "invalid target range [{min_qps}, {max_qps}]"
        );
        let lo = self.min_qps();
        let hi = self.max_qps();
        let bins = if hi - lo < 1e-12 {
            vec![0.5 * (min_qps + max_qps); self.bins.len()]
        } else {
            self.bins
                .iter()
                .map(|&x| min_qps + (max_qps - min_qps) * (x - lo) / (hi - lo))
                .collect()
        };
        Trace {
            bins,
            bin_width: self.bin_width,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(n: u64) -> SimDuration {
        SimDuration::from_secs(n)
    }

    #[test]
    fn lookup_by_bin() {
        let t = Trace::from_qps(vec![1.0, 2.0, 3.0], secs(2)).unwrap();
        assert_eq!(t.qps_at(SimTime::ZERO), 1.0);
        assert_eq!(t.qps_at(SimTime::from_secs(3)), 2.0);
        assert_eq!(t.qps_at(SimTime::from_secs(5)), 3.0);
        assert_eq!(t.qps_at(SimTime::from_secs(100)), 0.0);
    }

    #[test]
    fn summary_statistics() {
        let t = Trace::from_qps(vec![4.0, 8.0, 12.0], secs(1)).unwrap();
        assert_eq!(t.min_qps(), 4.0);
        assert_eq!(t.max_qps(), 12.0);
        assert_eq!(t.mean_qps(), 8.0);
        assert_eq!(t.expected_queries(), 24.0);
        assert_eq!(t.duration(), secs(3));
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn rescale_preserves_shape() {
        let t = Trace::from_qps(vec![10.0, 20.0, 15.0, 30.0], secs(1)).unwrap();
        let r = t.rescaled(4.0, 32.0);
        assert!((r.min_qps() - 4.0).abs() < 1e-12);
        assert!((r.max_qps() - 32.0).abs() < 1e-12);
        // Ordering of bins is preserved.
        assert!(r.bins()[0] < r.bins()[2]);
        assert!(r.bins()[2] < r.bins()[1]);
    }

    #[test]
    fn rescale_flat_trace_hits_midpoint() {
        let t = Trace::from_qps(vec![7.0, 7.0], secs(1)).unwrap();
        let r = t.rescaled(2.0, 10.0);
        assert_eq!(r.bins(), &[6.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "invalid target range")]
    fn rescale_rejects_an_inverted_range() {
        let _ = Trace::constant(5.0, secs(2)).unwrap().rescaled(10.0, 2.0);
    }

    #[test]
    fn constant_builder() {
        let t = Trace::constant(5.0, secs(10)).unwrap();
        assert_eq!(t.len(), 10);
        assert_eq!(t.mean_qps(), 5.0);
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(Trace::from_qps(vec![], secs(1)), Err(TraceError::Empty));
        assert_eq!(
            Trace::from_qps(vec![1.0], SimDuration::ZERO),
            Err(TraceError::ZeroBinWidth)
        );
        assert!(matches!(
            Trace::from_qps(vec![1.0, -2.0], secs(1)),
            Err(TraceError::InvalidRate { bin: 1, .. })
        ));
        assert!(matches!(
            Trace::from_qps(vec![f64::NAN], secs(1)),
            Err(TraceError::InvalidRate { bin: 0, .. })
        ));
    }

    #[test]
    fn error_display() {
        let e = TraceError::InvalidRate {
            bin: 3,
            value: -1.0,
        };
        assert!(format!("{e}").contains("bin 3"));
    }
}
