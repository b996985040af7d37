//! Strongly-typed energy and power.
//!
//! The paper's headline claims are energy claims (33.82× saving vs the CPU
//! geomean), so the accounting layer keeps energy in its own type instead of
//! a bare `f64`. Per-event costs in the ReRAM literature are picojoule- to
//! nanojoule-scale (1.08 pJ per cell read, 3.91 nJ per cell write in \[44\]),
//! while platform budgets are joule-scale, so [`Joules`] stores joules and
//! offers constructors at every scale.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::time::Nanos;

/// An amount of energy in joules.
///
/// # Examples
///
/// ```
/// use graphr_units::{Joules, Nanos};
///
/// let per_read = Joules::from_picojoules(1.08);
/// let per_write = Joules::from_nanojoules(3.91);
/// let tile = per_read * 64.0 + per_write * 8.0;
/// assert!(tile.as_joules() > 0.0);
///
/// // Average power if that tile takes one 64 ns GE cycle:
/// let power = tile.averaged_over(Nanos::new(64.0));
/// assert!(power.as_watts() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Joules(f64);

impl Joules {
    /// Zero energy.
    pub const ZERO: Joules = Joules(0.0);

    /// Creates an energy of `j` joules.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `j` is negative; consumed energy is
    /// non-negative.
    #[must_use]
    pub fn new(j: f64) -> Self {
        debug_assert!(j >= 0.0, "energy must be non-negative, got {j}");
        Joules(j)
    }

    /// Creates an energy from picojoules (1e-12 J).
    #[must_use]
    pub fn from_picojoules(pj: f64) -> Self {
        Joules::new(pj * 1e-12)
    }

    /// Creates an energy from nanojoules (1e-9 J).
    #[must_use]
    pub fn from_nanojoules(nj: f64) -> Self {
        Joules::new(nj * 1e-9)
    }

    /// Creates an energy from microjoules (1e-6 J).
    #[must_use]
    pub fn from_microjoules(uj: f64) -> Self {
        Joules::new(uj * 1e-6)
    }

    /// Creates an energy from millijoules (1e-3 J).
    #[must_use]
    pub fn from_millijoules(mj: f64) -> Self {
        Joules::new(mj * 1e-3)
    }

    /// The raw value in joules.
    #[must_use]
    pub fn as_joules(self) -> f64 {
        self.0
    }

    /// The value converted to picojoules.
    #[must_use]
    pub fn as_picojoules(self) -> f64 {
        self.0 * 1e12
    }

    /// The value converted to millijoules.
    #[must_use]
    pub fn as_millijoules(self) -> f64 {
        self.0 * 1e3
    }

    /// Whether this energy is exactly zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// The dimensionless ratio of two energies (`self / other`).
    ///
    /// This is the primitive behind every "energy saving" number in the
    /// evaluation harness.
    #[must_use]
    pub fn ratio(self, other: Joules) -> f64 {
        self.0 / other.0
    }

    /// The average power drawn if this energy is spent over `duration`.
    #[must_use]
    pub fn averaged_over(self, duration: Nanos) -> Watts {
        Watts::new(self.0 / duration.as_secs())
    }
}

impl Add for Joules {
    type Output = Joules;
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl AddAssign for Joules {
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}

impl Sub for Joules {
    type Output = Joules;
    fn sub(self, rhs: Joules) -> Joules {
        Joules::new(self.0 - rhs.0)
    }
}

impl Mul<f64> for Joules {
    type Output = Joules;
    fn mul(self, rhs: f64) -> Joules {
        Joules::new(self.0 * rhs)
    }
}

impl Mul<Joules> for f64 {
    type Output = Joules;
    fn mul(self, rhs: Joules) -> Joules {
        rhs * self
    }
}

impl Div<f64> for Joules {
    type Output = Joules;
    fn div(self, rhs: f64) -> Joules {
        Joules::new(self.0 / rhs)
    }
}

impl Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        iter.fold(Joules::ZERO, Add::add)
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let j = self.0;
        if j >= 1.0 {
            write!(f, "{j:.3} J")
        } else if j >= 1e-3 {
            write!(f, "{:.3} mJ", j * 1e3)
        } else if j >= 1e-6 {
            write!(f, "{:.3} uJ", j * 1e6)
        } else if j >= 1e-9 {
            write!(f, "{:.3} nJ", j * 1e9)
        } else {
            write!(f, "{:.3} pJ", j * 1e12)
        }
    }
}

/// Power in watts, produced when dividing [`Joules`] by time or when
/// modelling a platform's TDP.
///
/// # Examples
///
/// ```
/// use graphr_units::{Nanos, Watts};
///
/// let tdp = Watts::new(85.0);
/// let burned = tdp.over(Nanos::from_millis(2.0));
/// assert_eq!(burned.as_millijoules(), 170.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(f64);

impl Watts {
    /// Creates a power of `w` watts.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `w` is negative.
    #[must_use]
    pub fn new(w: f64) -> Self {
        debug_assert!(w >= 0.0, "power must be non-negative, got {w}");
        Watts(w)
    }

    /// The raw value in watts.
    #[must_use]
    pub fn as_watts(self) -> f64 {
        self.0
    }

    /// The energy consumed by drawing this power for `duration`.
    #[must_use]
    pub fn over(self, duration: Nanos) -> Joules {
        Joules::new(self.0 * duration.as_secs())
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl Mul<f64> for Watts {
    type Output = Watts;
    fn mul(self, rhs: f64) -> Watts {
        Watts::new(self.0 * rhs)
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3} W", self.0)
        } else {
            write!(f, "{:.3} mW", self.0 * 1e3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_constructors_round_trip() {
        assert_eq!(Joules::from_picojoules(1.0).as_joules(), 1e-12);
        assert_eq!(Joules::from_nanojoules(1.0).as_joules(), 1e-9);
        assert_eq!(Joules::from_microjoules(1.0).as_joules(), 1e-6);
        assert_eq!(Joules::from_millijoules(1.0).as_joules(), 1e-3);
        assert!((Joules::new(2.5e-12).as_picojoules() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_behaves_like_f64() {
        let a = Joules::new(3.0);
        let b = Joules::new(1.0);
        assert_eq!((a + b).as_joules(), 4.0);
        assert_eq!((a - b).as_joules(), 2.0);
        assert_eq!((a * 2.0).as_joules(), 6.0);
        assert_eq!((a / 3.0).as_joules(), 1.0);
        assert_eq!((2.0 * b).as_joules(), 2.0);
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = Watts::new(100.0).over(Nanos::from_secs(2.0));
        assert_eq!(e.as_joules(), 200.0);
    }

    #[test]
    fn energy_over_time_is_power() {
        let p = Joules::new(10.0).averaged_over(Nanos::from_secs(5.0));
        assert_eq!(p.as_watts(), 2.0);
    }

    #[test]
    fn ratio_is_energy_saving() {
        assert_eq!(Joules::new(33.82).ratio(Joules::new(1.0)), 33.82);
    }

    #[test]
    fn display_chooses_si_prefix() {
        assert_eq!(Joules::new(2.0).to_string(), "2.000 J");
        assert_eq!(Joules::from_millijoules(2.0).to_string(), "2.000 mJ");
        assert_eq!(Joules::from_microjoules(2.0).to_string(), "2.000 uJ");
        assert_eq!(Joules::from_nanojoules(2.0).to_string(), "2.000 nJ");
        assert_eq!(Joules::from_picojoules(2.0).to_string(), "2.000 pJ");
        assert_eq!(Watts::new(85.0).to_string(), "85.000 W");
        assert_eq!(Watts::new(0.5).to_string(), "500.000 mW");
    }

    #[test]
    fn sum_over_iterator() {
        let total: Joules = (1..=3).map(|i| Joules::new(f64::from(i))).sum();
        assert_eq!(total.as_joules(), 6.0);
    }
}
