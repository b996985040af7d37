//! Strongly-typed simulated time.
//!
//! All latencies in the GraphR model are expressed in nanoseconds, the
//! natural unit for ReRAM access times (tens of nanoseconds per the NVSim
//! numbers the paper uses). [`Nanos`] is a thin `f64` newtype so that timing
//! arithmetic stays readable while the type system prevents mixing time with
//! energy.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A duration of simulated time in nanoseconds.
///
/// `Nanos` supports the arithmetic a timing model needs (addition,
/// subtraction, scaling by a count) and formats itself with an
/// automatically chosen SI prefix.
///
/// # Examples
///
/// ```
/// use graphr_units::Nanos;
///
/// let write = Nanos::new(50.88);
/// let read = Nanos::new(29.31);
/// let tile = write + read;
/// assert!(tile > read);
/// assert_eq!((read * 2.0).as_nanos(), 58.62);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Nanos(f64);

impl Nanos {
    /// Zero duration.
    pub const ZERO: Nanos = Nanos(0.0);

    /// Creates a duration of `ns` nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `ns` is negative or NaN; simulated time
    /// never runs backwards.
    #[must_use]
    pub fn new(ns: f64) -> Self {
        debug_assert!(ns >= 0.0, "durations must be non-negative, got {ns}");
        Nanos(ns)
    }

    /// Creates a duration from microseconds.
    #[must_use]
    pub fn from_micros(us: f64) -> Self {
        Nanos::new(us * 1e3)
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Nanos::new(ms * 1e6)
    }

    /// Creates a duration from seconds.
    #[must_use]
    pub fn from_secs(s: f64) -> Self {
        Nanos::new(s * 1e9)
    }

    /// The raw value in nanoseconds.
    #[must_use]
    pub fn as_nanos(self) -> f64 {
        self.0
    }

    /// The value converted to seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0 * 1e-9
    }

    /// The value converted to milliseconds.
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e-6
    }

    /// Returns the larger of two durations.
    ///
    /// Used by pipeline models where a stage's latency is the maximum of its
    /// overlapped components.
    #[must_use]
    pub fn max(self, other: Nanos) -> Nanos {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two durations.
    #[must_use]
    pub fn min(self, other: Nanos) -> Nanos {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Whether this duration is exactly zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// The dimensionless ratio of two durations (`self / other`).
    ///
    /// This is the primitive behind every "speedup" number in the
    /// evaluation harness.
    #[must_use]
    pub fn ratio(self, other: Nanos) -> f64 {
        self.0 / other.0
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos::new(self.0 - rhs.0)
    }
}

impl Mul<f64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: f64) -> Nanos {
        Nanos::new(self.0 * rhs)
    }
}

impl Mul<Nanos> for f64 {
    type Output = Nanos;
    fn mul(self, rhs: Nanos) -> Nanos {
        rhs * self
    }
}

impl Div<f64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: f64) -> Nanos {
        Nanos::new(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1e9 {
            write!(f, "{:.3} s", ns * 1e-9)
        } else if ns >= 1e6 {
            write!(f, "{:.3} ms", ns * 1e-6)
        } else if ns >= 1e3 {
            write!(f, "{:.3} us", ns * 1e-3)
        } else {
            write!(f, "{ns:.3} ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion_round_trip() {
        assert_eq!(Nanos::from_secs(1.0).as_nanos(), 1e9);
        assert_eq!(Nanos::from_millis(2.0).as_nanos(), 2e6);
        assert_eq!(Nanos::from_micros(3.0).as_nanos(), 3e3);
        assert_eq!(Nanos::new(5e8).as_secs(), 0.5);
        assert_eq!(Nanos::new(5e5).as_millis(), 0.5);
    }

    #[test]
    fn arithmetic_behaves_like_f64() {
        let a = Nanos::new(10.0);
        let b = Nanos::new(4.0);
        assert_eq!((a + b).as_nanos(), 14.0);
        assert_eq!((a - b).as_nanos(), 6.0);
        assert_eq!((a * 3.0).as_nanos(), 30.0);
        assert_eq!((a / 2.0).as_nanos(), 5.0);
        assert_eq!((2.0 * a).as_nanos(), 20.0);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut t = Nanos::ZERO;
        t += Nanos::new(64.0);
        t += Nanos::new(64.0);
        assert_eq!(t.as_nanos(), 128.0);
    }

    #[test]
    fn min_max_pick_extremes() {
        let a = Nanos::new(1.0);
        let b = Nanos::new(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(b.max(b), b);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Nanos = (1..=4).map(|i| Nanos::new(f64::from(i))).sum();
        assert_eq!(total.as_nanos(), 10.0);
    }

    #[test]
    fn ratio_is_speedup() {
        assert_eq!(Nanos::new(100.0).ratio(Nanos::new(25.0)), 4.0);
    }

    #[test]
    fn display_chooses_si_prefix() {
        assert_eq!(Nanos::new(12.5).to_string(), "12.500 ns");
        assert_eq!(Nanos::new(12_500.0).to_string(), "12.500 us");
        assert_eq!(Nanos::new(12_500_000.0).to_string(), "12.500 ms");
        assert_eq!(Nanos::new(1.25e9).to_string(), "1.250 s");
    }

    #[test]
    fn zero_is_zero() {
        assert!(Nanos::ZERO.is_zero());
        assert!(!Nanos::new(0.1).is_zero());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    #[cfg(debug_assertions)]
    fn negative_duration_panics_in_debug() {
        let _ = Nanos::new(-1.0);
    }
}
