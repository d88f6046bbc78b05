//! Arrival-time generation from demand traces.

use std::borrow::Borrow;

use diffserve_simkit::rng::{Exponential, Sampler};
use diffserve_simkit::time::{SimDuration, SimTime};
use rand::Rng;

use crate::trace::Trace;

/// Poisson arrival times driven by a (piecewise-constant) trace, drawn one
/// at a time.
///
/// Within each trace bin arrivals form a homogeneous Poisson process at that
/// bin's rate, which is exactly how the DiffServe artifact replays its
/// per-second trace files. The iterator holds the trace (owned or
/// borrowed), the RNG (owned or `&mut`) and its place in the current bin,
/// so a replay of any length keeps one pending arrival instead of the whole
/// stream; [`poisson_arrivals`] is `collect()` over it.
///
/// # Examples
///
/// ```
/// use diffserve_trace::{PoissonArrivals, Trace};
/// use diffserve_simkit::time::SimDuration;
/// use diffserve_simkit::rng::seeded_rng;
///
/// let trace = Trace::constant(100.0, SimDuration::from_secs(10))?;
/// let arrivals = PoissonArrivals::new(&trace, seeded_rng(1));
/// // Counting a clone leaves the stream itself untouched.
/// let n = arrivals.clone().count();
/// assert!((800..1200).contains(&n));
/// assert!(arrivals.is_sorted());
/// # Ok::<(), diffserve_trace::TraceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PoissonArrivals<T, R> {
    trace: T,
    rng: R,
    /// Index of the next bin to enter.
    next_bin: usize,
    /// The bin being drawn — its gap distribution and its end — or `None`
    /// between bins.
    bin: Option<(Exponential, SimTime)>,
    /// Where the last draw landed (the bin's start before its first).
    t: SimTime,
}

impl<T: Borrow<Trace>, R: Rng> PoissonArrivals<T, R> {
    /// The arrival stream of `trace`, its exponential gaps drawn from
    /// `rng` in arrival order.
    pub fn new(trace: T, rng: R) -> Self {
        PoissonArrivals {
            trace,
            rng,
            next_bin: 0,
            bin: None,
            t: SimTime::ZERO,
        }
    }
}

impl<T: Borrow<Trace>, R: Rng> Iterator for PoissonArrivals<T, R> {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        loop {
            if let Some((gap, bin_end)) = self.bin {
                self.t += SimDuration::from_secs_f64(gap.draw(&mut self.rng));
                if self.t < bin_end {
                    return Some(self.t);
                }
                // The draw that overshoots a bin's end is spent, as it
                // always was.
                self.bin = None;
            }
            let trace = self.trace.borrow();
            let qps = *trace.bins().get(self.next_bin)?;
            if qps > 0.0 {
                let gap = Exponential::new(qps).expect("trace rates validated positive");
                self.t = SimTime::ZERO + trace.bin_width() * self.next_bin as u64;
                self.bin = Some((gap, self.t + trace.bin_width()));
            }
            self.next_bin += 1;
        }
    }
}

/// Generates every Poisson arrival time of a trace at once: [`PoissonArrivals`]
/// collected.
///
/// # Examples
///
/// ```
/// use diffserve_trace::{poisson_arrivals, Trace};
/// use diffserve_simkit::time::SimDuration;
/// use diffserve_simkit::rng::seeded_rng;
///
/// let trace = Trace::constant(100.0, SimDuration::from_secs(10))?;
/// let mut rng = seeded_rng(1);
/// let arrivals = poisson_arrivals(&trace, &mut rng);
/// // ~1000 queries expected over 10s at 100 QPS.
/// assert!((800..1200).contains(&arrivals.len()));
/// # Ok::<(), diffserve_trace::TraceError>(())
/// ```
pub fn poisson_arrivals<R: Rng + ?Sized>(trace: &Trace, rng: &mut R) -> Vec<SimTime> {
    let mut arrivals = Vec::with_capacity(trace.expected_queries() as usize + 16);
    arrivals.extend(PoissonArrivals::new(trace, rng));
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use diffserve_simkit::rng::seeded_rng;
    use proptest::prelude::*;

    /// The eager loop `poisson_arrivals` was before it became `collect()`
    /// over [`PoissonArrivals`]: the oracle for the iterator's draw order.
    fn eager_arrivals<R: Rng + ?Sized>(trace: &Trace, rng: &mut R) -> Vec<SimTime> {
        let mut arrivals = Vec::new();
        let bin_width = trace.bin_width();
        for (i, &qps) in trace.bins().iter().enumerate() {
            if qps <= 0.0 {
                continue;
            }
            let bin_start = SimTime::ZERO + bin_width * i as u64;
            let bin_end = bin_start + bin_width;
            let exp = Exponential::new(qps).unwrap();
            let mut t = bin_start;
            loop {
                t += SimDuration::from_secs_f64(exp.draw(rng));
                if t >= bin_end {
                    break;
                }
                arrivals.push(t);
            }
        }
        arrivals
    }

    #[test]
    fn poisson_count_close_to_expectation() {
        let trace = Trace::constant(50.0, SimDuration::from_secs(100)).unwrap();
        let mut rng = seeded_rng(3);
        let arrivals = poisson_arrivals(&trace, &mut rng);
        let expected = 5000.0;
        let got = arrivals.len() as f64;
        // Poisson sd ≈ 70; allow 5 sigma.
        assert!((got - expected).abs() < 350.0, "got {got}");
    }

    #[test]
    fn poisson_is_sorted_and_in_range() {
        let trace = Trace::from_qps(vec![10.0, 0.0, 30.0], SimDuration::from_secs(1)).unwrap();
        let mut rng = seeded_rng(4);
        let arrivals = poisson_arrivals(&trace, &mut rng);
        for w in arrivals.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // No arrivals in the zero-rate middle second.
        for t in &arrivals {
            let s = t.as_secs_f64();
            assert!(!(1.0..2.0).contains(&s), "arrival at {s} inside silent bin");
            assert!(s < 3.0);
        }
    }

    #[test]
    fn poisson_deterministic_per_seed() {
        let trace = Trace::constant(20.0, SimDuration::from_secs(5)).unwrap();
        let a = poisson_arrivals(&trace, &mut seeded_rng(9));
        let b = poisson_arrivals(&trace, &mut seeded_rng(9));
        assert_eq!(a, b);
    }

    #[test]
    fn iterator_ends_for_good_and_skips_silent_tails() {
        let trace = Trace::from_qps(vec![5.0, 0.0, 0.0], SimDuration::from_secs(1)).unwrap();
        let mut arrivals = PoissonArrivals::new(&trace, seeded_rng(2));
        assert!(arrivals.by_ref().count() > 0);
        assert_eq!(arrivals.next(), None);
        assert_eq!(arrivals.next(), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Same exponential-gap draws in the same order: the streamed
        /// arrivals are the eager loop's, bit for bit, and so is the RNG
        /// afterwards (the draw that overshoots each bin is spent by both).
        #[test]
        fn streamed_arrivals_are_the_eager_ones(
            bins in proptest::collection::vec((0u8..4, 1.0f64..50.0), 1..20),
            millis in 200u64..2000,
            seed in 0u64..1000,
        ) {
            // A quarter of the bins are silent.
            let bins = bins.into_iter().map(|(k, qps)| if k == 0 { 0.0 } else { qps }).collect();
            let trace = Trace::from_qps(bins, SimDuration::from_millis(millis)).unwrap();
            let (mut eager_rng, mut stream_rng) = (seeded_rng(seed), seeded_rng(seed));
            let eager = eager_arrivals(&trace, &mut eager_rng);
            let counted = PoissonArrivals::new(&trace, stream_rng.clone()).count();
            let streamed: Vec<SimTime> = PoissonArrivals::new(&trace, &mut stream_rng).collect();
            prop_assert_eq!(&streamed, &eager);
            prop_assert_eq!(stream_rng, eager_rng);
            prop_assert_eq!(counted, eager.len());
            // An owned trace and RNG draw the same stream as borrowed ones.
            let owned: Vec<SimTime> = PoissonArrivals::new(trace.clone(), seeded_rng(seed)).collect();
            prop_assert_eq!(&owned, &eager);
            prop_assert_eq!(poisson_arrivals(&trace, &mut seeded_rng(seed)), eager);
        }
    }
}
