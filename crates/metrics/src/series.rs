//! Windowed time series for experiment plots.

use diffserve_simkit::time::{SimDuration, SimTime};

/// Aggregates timestamped scalar samples per window as they arrive.
///
/// Used for the paper's time-series panels (demand, FID, threshold over
/// time — Figs. 5 and 8). A sample is folded into its window's running sum
/// and count and not kept, so a series costs one cell per window however
/// many samples it saw (the arrival series sees one per query).
///
/// # Examples
///
/// ```
/// use diffserve_metrics::WindowedSeries;
/// use diffserve_simkit::time::{SimDuration, SimTime};
///
/// let mut s = WindowedSeries::new(SimDuration::from_secs(10));
/// s.push(SimTime::from_secs(1), 2.0);
/// s.push(SimTime::from_secs(2), 4.0);
/// s.push(SimTime::from_secs(15), 8.0);
/// let means = s.window_means();
/// assert_eq!(means.len(), 2);
/// assert_eq!(means[0].1, 3.0);
/// assert_eq!(means[1].1, 8.0);
/// ```
#[derive(Debug, Clone)]
pub struct WindowedSeries {
    window: SimDuration,
    /// `(sum, count)` of the samples of each window, up to the latest one
    /// that has any; samples add to the sum in push order.
    cells: Vec<(f64, u64)>,
    len: usize,
}

impl WindowedSeries {
    /// Creates a series with the given aggregation window.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        WindowedSeries {
            window,
            cells: Vec::new(),
            len: 0,
        }
    }

    /// Adds one sample. NaN samples are ignored.
    pub fn push(&mut self, t: SimTime, value: f64) {
        if value.is_nan() {
            return;
        }
        let idx = (t.as_micros() / self.window.as_micros()) as usize;
        if idx >= self.cells.len() {
            self.cells.resize(idx + 1, (0.0, 0));
        }
        let cell = &mut self.cells[idx];
        cell.0 += value;
        cell.1 += 1;
        self.len += 1;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The aggregation window.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// One value per window, keyed by window start, from its sum and count.
    fn per_window<A>(&self, value: impl Fn(f64, u64) -> A) -> Vec<(SimTime, A)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, &(sum, n))| (SimTime::ZERO + self.window * i as u64, value(sum, n)))
            .collect()
    }

    /// Per-window means (empty windows report 0).
    pub fn window_means(&self) -> Vec<(SimTime, f64)> {
        self.per_window(|sum, n| if n == 0 { 0.0 } else { sum / n as f64 })
    }

    /// Per-window sums.
    pub fn window_sums(&self) -> Vec<(SimTime, f64)> {
        self.per_window(|sum, _| sum)
    }

    /// Per-window sample counts.
    pub fn window_counts(&self) -> Vec<(SimTime, u64)> {
        self.per_window(|_, n| n)
    }

    /// Per-window rates: count divided by window length in seconds
    /// (e.g. arrivals → QPS).
    pub fn window_rates(&self) -> Vec<(SimTime, f64)> {
        let secs = self.window.as_secs_f64();
        self.per_window(|_, n| n as f64 / secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn means_and_sums_per_window() {
        let mut s = WindowedSeries::new(SimDuration::from_secs(5));
        s.push(secs(0), 1.0);
        s.push(secs(4), 3.0);
        s.push(secs(5), 10.0);
        assert_eq!(s.window_means(), vec![(secs(0), 2.0), (secs(5), 10.0)]);
        assert_eq!(s.window_sums(), vec![(secs(0), 4.0), (secs(5), 10.0)]);
        assert_eq!(s.window_counts(), vec![(secs(0), 2), (secs(5), 1)]);
    }

    #[test]
    fn rates_divide_by_window() {
        let mut s = WindowedSeries::new(SimDuration::from_secs(2));
        for i in 0..10 {
            s.push(SimTime::from_millis(i * 100), 1.0);
        }
        let rates = s.window_rates();
        assert_eq!(rates.len(), 1);
        assert_eq!(rates[0].1, 5.0); // 10 samples over 2s
    }

    #[test]
    fn empty_and_nan_handling() {
        let mut s = WindowedSeries::new(SimDuration::from_secs(1));
        assert!(s.is_empty());
        assert!(s.window_means().is_empty());
        s.push(secs(0), f64::NAN);
        assert!(s.is_empty());
        s.push(secs(0), 2.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.window_means(), vec![(secs(0), 2.0)]);
    }

    /// Samples need not come in time order (the testbed's demand track is
    /// pushed at the instants arrivals were *due*): a sample lands in its
    /// own window whenever it is pushed, and a window's sum adds in push
    /// order.
    #[test]
    fn out_of_order_samples_land_in_their_windows() {
        let mut s = WindowedSeries::new(SimDuration::from_secs(1));
        s.push(secs(3), 0.1);
        s.push(secs(0), 0.2);
        s.push(secs(3), 0.3);
        assert_eq!(s.len(), 3);
        assert_eq!(
            s.window_sums(),
            vec![
                (secs(0), 0.2),
                (secs(1), 0.0),
                (secs(2), 0.0),
                (secs(3), 0.1 + 0.3)
            ]
        );
        assert_eq!(s.window_counts()[3].1, 2);
    }

    #[test]
    fn gap_windows_report_zero_mean() {
        let mut s = WindowedSeries::new(SimDuration::from_secs(1));
        s.push(secs(0), 5.0);
        s.push(secs(2), 7.0);
        let means = s.window_means();
        assert_eq!(means.len(), 3);
        assert_eq!(means[1].1, 0.0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = WindowedSeries::new(SimDuration::ZERO);
    }
}
