//! Simulated time as integer microseconds.
//!
//! The simulator keeps time as a `u64` microsecond counter instead of `f64`
//! seconds so that event ordering is exact and runs are bit-reproducible
//! across platforms. [`SimTime`] is a point on the simulated timeline;
//! [`SimDuration`] is a span between two points.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in simulated time, measured in microseconds since simulation start.
///
/// # Examples
///
/// ```
/// use diffserve_simkit::time::{SimTime, SimDuration};
///
/// let t = SimTime::from_secs_f64(1.5);
/// assert_eq!(t.as_micros(), 1_500_000);
/// let later = t + SimDuration::from_millis(250);
/// assert_eq!(later.as_secs_f64(), 1.75);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, measured in microseconds.
///
/// # Examples
///
/// ```
/// use diffserve_simkit::time::SimDuration;
///
/// let d = SimDuration::from_millis(10) * 3;
/// assert_eq!(d.as_secs_f64(), 0.03);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulated timeline.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from integer microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates a time from integer milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates a time from integer seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime requires a finite non-negative number of seconds, got {secs}"
        );
        SimTime(round_to_u64(secs * 1e6))
    }

    /// Returns the time as integer microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`, or [`SimDuration::ZERO`] if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from integer microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from integer milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration from integer seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimDuration requires a finite non-negative number of seconds, got {secs}"
        );
        SimDuration(round_to_u64(secs * 1e6))
    }

    /// Returns the duration as integer microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Returns `true` if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// `x.round() as u64` for a non-negative `x`, infinity included, without
/// the libm `round` call: the fraction `x − ⌊x⌋` of a double is exact, so
/// rounding half away from zero is truncation plus one where that
/// fraction is at least one half. The cast saturates at `u64::MAX`, as
/// `x.round() as u64` does, and the `+1` saturates with it.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    let whole = x as u64;
    whole.saturating_add(u64::from(x - whole as f64 >= 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_micros() {
        let t = SimTime::from_micros(1234);
        assert_eq!(t.as_micros(), 1234);
    }

    #[test]
    fn seconds_roundtrip() {
        let t = SimTime::from_secs_f64(2.5);
        assert_eq!(t.as_micros(), 2_500_000);
        assert!((t.as_secs_f64() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 1_500_000);
        let d = t.saturating_since(SimTime::from_secs(1));
        assert_eq!(d, SimDuration::from_millis(500));
    }

    #[test]
    fn saturating_since_future_is_zero() {
        let past = SimTime::from_secs(1);
        let future = SimTime::from_secs(2);
        assert_eq!(past.saturating_since(future), SimDuration::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert!(SimDuration::from_millis(1) < SimDuration::from_secs(1));
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", SimTime::ZERO).is_empty());
        assert!(!format!("{}", SimDuration::ZERO).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_seconds_panics() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "SimDuration requires a finite")]
    fn nan_duration_panics() {
        let _ = SimDuration::from_secs_f64(f64::NAN);
    }

    #[test]
    fn rounding_edges_match_f64_round() {
        for v in [
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            2.5,
            4503599627370495.5,
            9007199254740993.0,
            18446744073709549568.0,
            18446744073709551616.0,
            f64::MAX,
            f64::INFINITY,
        ] {
            assert_eq!(round_to_u64(v), v.round() as u64, "v = {v}");
        }
        assert_eq!(round_to_u64(f64::INFINITY), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "SimDuration requires a finite")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1e-9);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10) * 4 / 2;
        assert_eq!(d, SimDuration::from_millis(20));
    }

    proptest! {
        #[test]
        fn add_then_since_is_identity(base in 0u64..1 << 40, delta in 0u64..1 << 40) {
            let t = SimTime::from_micros(base);
            let d = SimDuration::from_micros(delta);
            prop_assert_eq!((t + d).saturating_since(t), d);
        }

        /// `round_to_u64` is `f64::round` and the saturating cast: on
        /// random values, exact half-way ties, the band 2⁵²–2⁵³ where
        /// doubles step by one, integers up to `u64::MAX`, and values past
        /// it up to `f64::MAX`.
        #[test]
        fn rounding_matches_f64_round(
            x in 0.0f64..1e9,
            whole in 0u64..1 << 52,
            band in 0u64..1 << 52,
            big in (1u64 << 53)..u64::MAX,
            mantissa in 1.0f64..2.0,
            exponent in 64i32..1024,
        ) {
            let tie = whole as f64 + 0.5;
            let banded = ((1u64 << 52) + band) as f64;
            let huge = mantissa * 2f64.powi(exponent);
            for v in [x, tie, banded, big as f64, huge] {
                prop_assert_eq!(round_to_u64(v), v.round() as u64, "v = {}", v);
            }
        }

        #[test]
        fn duration_from_secs_rounds_to_the_nearest_micro(secs in 0.0f64..1e7) {
            let want = (secs * 1e6).round() as u64;
            prop_assert_eq!(SimDuration::from_secs_f64(secs).as_micros(), want);
            prop_assert_eq!(SimTime::from_secs_f64(secs).as_micros(), want);
        }

        #[test]
        fn secs_f64_roundtrip_close(us in 0u64..1 << 50) {
            let t = SimTime::from_micros(us);
            let back = SimTime::from_secs_f64(t.as_secs_f64());
            let err = back.as_micros().abs_diff(t.as_micros());
            // f64 has 52 bits of mantissa; allow tiny rounding slack.
            prop_assert!(err <= 1, "err={err}");
        }
    }
}
