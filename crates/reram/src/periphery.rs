//! Peripheral circuit functional models.
//!
//! The energy/latency side of the periphery lives in
//! [`PeripheryParams`](crate::params::PeripheryParams) and
//! [`CostModel`](crate::cost::CostModel); this module models the one
//! peripheral effect that can change *values*: ADC quantisation. The paper
//! assumes converters of sufficient resolution and does not model clipping;
//! [`AdcModel::Ideal`] reproduces that assumption, while
//! [`AdcModel::Uniform`] enables studying resolution sensitivity in the
//! ablations.

/// Analog-to-digital conversion applied to each per-slice bitline sum.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AdcModel {
    /// Infinite-resolution conversion (the paper's implicit assumption).
    #[default]
    Ideal,
    /// A uniform quantiser with `bits` resolution over `[0, full_scale]`,
    /// clamping values beyond full scale.
    Uniform {
        /// Converter resolution in bits.
        bits: u8,
        /// Full-scale input (largest representable bitline sum).
        full_scale: f64,
    },
}

impl AdcModel {
    /// A uniform converter sized for a crossbar of `rows` wordlines with
    /// `cell_bits` cells driven by inputs no larger than `max_input`:
    /// full scale = `rows × (2^cell_bits − 1) × max_input`.
    #[must_use]
    pub fn sized_for(bits: u8, rows: usize, cell_bits: u8, max_input: f64) -> Self {
        let max_level = f64::from((1u32 << cell_bits) - 1);
        AdcModel::Uniform {
            bits,
            full_scale: rows as f64 * max_level * max_input,
        }
    }

    /// Converts one analog bitline value.
    #[must_use]
    pub fn convert(&self, analog: f64) -> f64 {
        match *self {
            AdcModel::Ideal => analog,
            AdcModel::Uniform { bits, full_scale } => {
                if full_scale <= 0.0 {
                    return 0.0;
                }
                let steps = f64::from((1u64 << bits) as u32 - 1);
                let clamped = analog.clamp(0.0, full_scale);
                (clamped / full_scale * steps).round() / steps * full_scale
            }
        }
    }

    /// The quantisation step size, zero for [`AdcModel::Ideal`].
    #[must_use]
    pub fn step(&self) -> f64 {
        match *self {
            AdcModel::Ideal => 0.0,
            AdcModel::Uniform { bits, full_scale } => {
                full_scale / f64::from((1u64 << bits) as u32 - 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ideal_passes_values_through() {
        assert_eq!(AdcModel::Ideal.convert(123.456), 123.456);
        assert_eq!(AdcModel::Ideal.step(), 0.0);
    }

    #[test]
    fn uniform_quantises_and_clamps() {
        let adc = AdcModel::Uniform {
            bits: 2,
            full_scale: 3.0,
        };
        // 2-bit over [0, 3]: representable {0, 1, 2, 3}.
        assert_eq!(adc.convert(1.2), 1.0);
        assert_eq!(adc.convert(1.6), 2.0);
        assert_eq!(adc.convert(10.0), 3.0);
        assert_eq!(adc.convert(-5.0), 0.0);
        assert_eq!(adc.step(), 1.0);
    }

    #[test]
    fn sized_for_covers_worst_case_sum() {
        let adc = AdcModel::sized_for(8, 8, 4, 1.0);
        match adc {
            AdcModel::Uniform { full_scale, .. } => {
                assert_eq!(full_scale, 8.0 * 15.0);
            }
            AdcModel::Ideal => panic!("expected uniform"),
        }
    }

    proptest! {
        #[test]
        fn quantisation_error_bounded_by_half_step(
            bits in 4u8..12,
            value in 0.0f64..100.0,
        ) {
            let adc = AdcModel::Uniform { bits, full_scale: 100.0 };
            let err = (adc.convert(value) - value).abs();
            prop_assert!(err <= adc.step() / 2.0 + 1e-12);
        }
    }
}
