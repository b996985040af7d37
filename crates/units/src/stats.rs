//! Statistics primitives for the evaluation harness.
//!
//! The paper reports geometric-mean speedups across application × dataset
//! grids; [`GeoMean`] computes them without pulling in a stats dependency.

/// Accumulates a geometric mean in log space — the aggregation the paper
/// uses for its headline 16.01× / 33.82× numbers.
///
/// # Examples
///
/// ```
/// use graphr_units::GeoMean;
///
/// let gm: GeoMean = [2.0, 8.0].into_iter().collect();
/// assert_eq!(gm.value(), Some(4.0));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GeoMean {
    log_sum: f64,
    count: u64,
}

impl GeoMean {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        GeoMean {
            log_sum: 0.0,
            count: 0,
        }
    }

    /// Records one strictly positive observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not strictly positive — a geometric mean over ratios
    /// is only defined for positive values, and a non-positive speedup is a
    /// harness bug worth failing loudly on.
    pub fn observe(&mut self, x: f64) {
        assert!(x > 0.0, "geometric mean requires positive values, got {x}");
        self.log_sum += x.ln();
        self.count += 1;
    }

    /// Number of observations.
    #[must_use]
    pub fn count(self) -> u64 {
        self.count
    }

    /// The geometric mean, or `None` if empty.
    #[must_use]
    pub fn value(self) -> Option<f64> {
        (self.count > 0).then(|| (self.log_sum / self.count as f64).exp())
    }
}

impl Extend<f64> for GeoMean {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.observe(x);
        }
    }
}

impl FromIterator<f64> for GeoMean {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut g = GeoMean::new();
        g.extend(iter);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn geomean_of_identical_values_is_that_value() {
        let g: GeoMean = std::iter::repeat_n(7.0, 5).collect();
        let v = g.value().unwrap();
        assert!((v - 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_geomean_is_none() {
        assert_eq!(GeoMean::new().value(), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        GeoMean::new().observe(0.0);
    }

    proptest! {
        #[test]
        fn geomean_between_min_and_max(values in proptest::collection::vec(0.001f64..1000.0, 1..50)) {
            let g: GeoMean = values.iter().copied().collect();
            let v = g.value().unwrap();
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
        }
    }
}
