//! Fixed-point quantisation and bit slicing.
//!
//! GraphR stores edge weights and vertex properties as 16-bit fixed-point
//! numbers, physically realised as four 4-bit ReRAM cells whose partial
//! products are recombined by a shift-and-add (S/A) unit (paper §3.2, *Data
//! Format*). [`FixedSpec`] performs the value ⇄ integer quantisation and
//! [`BitSlicer`] performs the integer ⇄ cell-slice decomposition.
//!
//! Cells hold *unsigned* conductances, so slicing operates on magnitudes;
//! signed values are handled one level up (the crossbar model uses a
//! differential pair of arrays, the standard trick in ReRAM accelerators).

use std::error::Error;
use std::fmt;

/// Error constructing a [`FixedSpec`] or [`BitSlicer`] with impossible bit
/// widths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedSpecError {
    message: String,
}

impl FixedSpecError {
    fn new(message: impl Into<String>) -> Self {
        FixedSpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for FixedSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fixed-point specification: {}", self.message)
    }
}

impl Error for FixedSpecError {}

/// A signed fixed-point format: `total_bits` two's-complement bits of which
/// `frac_bits` sit below the binary point.
///
/// Quantisation rounds to nearest and saturates at the representable range,
/// which is what a hardware quantiser does and is the error source the paper
/// claims graph algorithms tolerate.
///
/// # Examples
///
/// ```
/// use graphr_units::FixedSpec;
///
/// let q4_12 = FixedSpec::new(16, 12)?;
/// assert_eq!(q4_12.resolution(), 1.0 / 4096.0);
/// // Exactly representable values round-trip:
/// let q = q4_12.quantize(1.5);
/// assert_eq!(q4_12.dequantize(q), 1.5);
/// // Everything else lands within half a step:
/// let err = (q4_12.quantize_value(0.1) - 0.1).abs();
/// assert!(err <= q4_12.resolution() / 2.0);
/// # Ok::<(), graphr_units::FixedSpecError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixedSpec {
    total_bits: u8,
    frac_bits: u8,
}

impl FixedSpec {
    /// Creates a fixed-point format with `total_bits` total (including sign)
    /// and `frac_bits` fractional bits.
    ///
    /// # Errors
    ///
    /// Returns [`FixedSpecError`] if `total_bits` is 0 or exceeds 31, or if
    /// `frac_bits >= total_bits` (at least one bit must remain for the
    /// integer part / sign).
    pub fn new(total_bits: u8, frac_bits: u8) -> Result<Self, FixedSpecError> {
        if total_bits == 0 || total_bits > 31 {
            return Err(FixedSpecError::new(format!(
                "total_bits must be in 1..=31, got {total_bits}"
            )));
        }
        if frac_bits >= total_bits {
            return Err(FixedSpecError::new(format!(
                "frac_bits ({frac_bits}) must be < total_bits ({total_bits})"
            )));
        }
        Ok(FixedSpec {
            total_bits,
            frac_bits,
        })
    }

    /// The paper's data format: 16-bit fixed point. Twelve fractional bits
    /// suit probability-valued algorithms (PageRank, SpMV on stochastic
    /// matrices) where values live in roughly `[-8, 8)`.
    #[must_use]
    pub fn paper_default() -> Self {
        FixedSpec {
            total_bits: 16,
            frac_bits: 12,
        }
    }

    /// Total number of bits, including the sign bit.
    #[must_use]
    pub fn total_bits(self) -> u8 {
        self.total_bits
    }

    /// Number of fractional bits.
    #[must_use]
    pub fn frac_bits(self) -> u8 {
        self.frac_bits
    }

    /// The value of one least-significant step, `2^-frac_bits`.
    #[must_use]
    pub fn resolution(self) -> f64 {
        (f64::from(self.frac_bits)).exp2().recip()
    }

    /// Largest representable raw integer, `2^(total_bits-1) - 1`.
    #[must_use]
    pub fn max_raw(self) -> i32 {
        (1i32 << (self.total_bits - 1)) - 1
    }

    /// Smallest representable raw integer, `-2^(total_bits-1)`.
    #[must_use]
    pub fn min_raw(self) -> i32 {
        -(1i32 << (self.total_bits - 1))
    }

    /// Largest representable value.
    #[must_use]
    pub fn max_value(self) -> f64 {
        self.dequantize(self.max_raw())
    }

    /// Smallest (most negative) representable value.
    #[must_use]
    pub fn min_value(self) -> f64 {
        self.dequantize(self.min_raw())
    }

    /// Quantises `x` to the nearest representable raw integer, saturating at
    /// the format's range. NaN quantises to zero (a hardware quantiser has no
    /// NaN; callers are expected to keep NaN out of the datapath).
    #[must_use]
    pub fn quantize(self, x: f64) -> i32 {
        self.quantizer().quantize(x)
    }

    /// Converts a raw integer back to its real value.
    #[must_use]
    pub fn dequantize(self, q: i32) -> f64 {
        self.quantizer().dequantize(q)
    }

    /// Quantises and immediately dequantises: the value the hardware would
    /// actually compute with.
    #[must_use]
    pub fn quantize_value(self, x: f64) -> f64 {
        self.quantizer().quantize_value(x)
    }

    /// This format with its scale factors computed once, for loops that
    /// quantise many values.
    #[must_use]
    pub fn quantizer(self) -> Quantizer {
        let scale = f64::from(self.frac_bits).exp2();
        Quantizer {
            scale,
            resolution: scale.recip(),
            max_raw: self.max_raw(),
            min_raw: self.min_raw(),
        }
    }
}

/// A [`FixedSpec`]'s quantisation with its scale factors precomputed: the
/// same arithmetic as the spec's own methods, so results are identical
/// to the last bit.
#[derive(Debug, Clone, Copy)]
pub struct Quantizer {
    scale: f64,
    resolution: f64,
    max_raw: i32,
    min_raw: i32,
}

impl Quantizer {
    /// See [`FixedSpec::quantize`].
    #[inline]
    #[must_use]
    pub fn quantize(self, x: f64) -> i32 {
        if x.is_nan() {
            return 0;
        }
        let rounded = round_half_away(x * self.scale);
        if rounded >= i64::from(self.max_raw) {
            self.max_raw
        } else if rounded <= i64::from(self.min_raw) {
            self.min_raw
        } else {
            // Safety of cast: bounds checked above and max_raw fits in i32.
            rounded as i32
        }
    }

    /// See [`FixedSpec::dequantize`].
    #[inline]
    #[must_use]
    pub fn dequantize(self, q: i32) -> f64 {
        f64::from(q) * self.resolution
    }

    /// See [`FixedSpec::quantize_value`].
    #[inline]
    #[must_use]
    pub fn quantize_value(self, x: f64) -> f64 {
        self.dequantize(self.quantize(x))
    }
}

/// Rounds `y` to the nearest integer, ties away from zero, saturating at
/// the `i64` range: `f64::round` followed by an `as i64` cast, computed
/// with a truncating conversion and one exact subtraction, so baseline
/// x86-64 (no SSE4.1 `roundsd`) makes no libm call. `y` must not be NaN.
///
/// Below 2⁵² in magnitude the truncation `t` and `y − t` are exact, and
/// `|y − t| < 1` picks the tie-away neighbour. From 2⁵² up every `f64` is
/// already an integer, so `y − t` is zero until the cast saturates at 2⁶³,
/// where the saturating step keeps the bound.
#[inline]
fn round_half_away(y: f64) -> i64 {
    let t = y as i64;
    let frac = y - t as f64;
    // Flags, not branches: the fraction of a quantised value is noise.
    t.saturating_add(i64::from(frac >= 0.5))
        .saturating_sub(i64::from(frac <= -0.5))
}

impl Default for FixedSpec {
    fn default() -> Self {
        FixedSpec::paper_default()
    }
}

impl fmt::Display for FixedSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Q{}.{}",
            self.total_bits - self.frac_bits,
            self.frac_bits
        )
    }
}

/// Decomposes an unsigned magnitude into little-endian cell slices and
/// recombines per-slice analog results via shift-and-add.
///
/// A 16-bit magnitude `M` with 4-bit cells becomes `[M0, M1, M2, M3]` such
/// that `M = M3·2^12 + M2·2^8 + M1·2^4 + M0` — exactly the paper's
/// `D3 << 12 + D2 << 8 + D1 << 4 + D0` recombination.
///
/// # Examples
///
/// ```
/// use graphr_units::BitSlicer;
///
/// let slicer = BitSlicer::new(4, 4)?;
/// let slices = slicer.slice(0xBEEF);
/// assert_eq!(slices, vec![0xF, 0xE, 0xE, 0xB]);
/// assert_eq!(slicer.recombine_u64(&[0xF, 0xE, 0xE, 0xB]), 0xBEEF);
/// # Ok::<(), graphr_units::FixedSpecError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitSlicer {
    cell_bits: u8,
    num_slices: u8,
}

impl BitSlicer {
    /// Creates a slicer for `num_slices` cells of `cell_bits` bits each.
    ///
    /// # Errors
    ///
    /// Returns [`FixedSpecError`] if either argument is zero or the total
    /// width exceeds 32 bits.
    pub fn new(cell_bits: u8, num_slices: u8) -> Result<Self, FixedSpecError> {
        if cell_bits == 0 || num_slices == 0 {
            return Err(FixedSpecError::new(
                "cell_bits and num_slices must be positive",
            ));
        }
        if u32::from(cell_bits) * u32::from(num_slices) > 32 {
            return Err(FixedSpecError::new(format!(
                "total sliced width {} exceeds 32 bits",
                u32::from(cell_bits) * u32::from(num_slices)
            )));
        }
        Ok(BitSlicer {
            cell_bits,
            num_slices,
        })
    }

    /// The paper's configuration: four 4-bit slices forming 16 bits.
    #[must_use]
    pub fn paper_default() -> Self {
        BitSlicer {
            cell_bits: 4,
            num_slices: 4,
        }
    }

    /// Bits stored per ReRAM cell.
    #[must_use]
    pub fn cell_bits(self) -> u8 {
        self.cell_bits
    }

    /// Number of slices (and thus of ganged crossbars).
    #[must_use]
    pub fn num_slices(self) -> u8 {
        self.num_slices
    }

    /// Total representable magnitude width in bits.
    #[must_use]
    pub fn total_bits(self) -> u8 {
        self.cell_bits * self.num_slices
    }

    /// Largest magnitude representable, `2^total_bits - 1`.
    #[must_use]
    pub fn max_magnitude(self) -> u32 {
        if self.total_bits() == 32 {
            u32::MAX
        } else {
            (1u32 << self.total_bits()) - 1
        }
    }

    /// Splits `magnitude` into little-endian slices, one per cell.
    ///
    /// # Panics
    ///
    /// Panics if `magnitude` exceeds [`BitSlicer::max_magnitude`]; the caller
    /// (the quantiser) guarantees range.
    #[must_use]
    pub fn slice(self, magnitude: u32) -> Vec<u8> {
        assert!(
            magnitude <= self.max_magnitude(),
            "magnitude {magnitude} exceeds {} bits",
            self.total_bits()
        );
        let mask = (1u32 << self.cell_bits) - 1;
        (0..self.num_slices)
            .map(|i| ((magnitude >> (u32::from(i) * u32::from(self.cell_bits))) & mask) as u8)
            .collect()
    }

    /// Recombines integer per-slice results: `Σ slices[i] << (i·cell_bits)`.
    #[must_use]
    pub fn recombine_u64(self, slices: &[u64]) -> u64 {
        slices
            .iter()
            .enumerate()
            .map(|(i, &s)| s << (i * usize::from(self.cell_bits)))
            .sum()
    }

    /// Recombines *analog* per-slice results (bitline currents already
    /// digitised by the ADC): `Σ outputs[i] · 2^(i·cell_bits)`.
    ///
    /// This is the shift-and-add unit's arithmetic in the value domain.
    #[must_use]
    pub fn recombine_f64(self, outputs: &[f64]) -> f64 {
        outputs
            .iter()
            .enumerate()
            .map(|(i, &o)| o * f64::from(i as u32 * u32::from(self.cell_bits)).exp2())
            .sum()
    }
}

impl Default for BitSlicer {
    fn default() -> Self {
        BitSlicer::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_bad_specs() {
        assert!(FixedSpec::new(0, 0).is_err());
        assert!(FixedSpec::new(32, 4).is_err());
        assert!(FixedSpec::new(8, 8).is_err());
        assert!(FixedSpec::new(8, 9).is_err());
        assert!(BitSlicer::new(0, 4).is_err());
        assert!(BitSlicer::new(4, 0).is_err());
        assert!(BitSlicer::new(8, 5).is_err());
    }

    #[test]
    fn paper_default_is_16_bit_q4_12() {
        let spec = FixedSpec::paper_default();
        assert_eq!(spec.total_bits(), 16);
        assert_eq!(spec.frac_bits(), 12);
        assert_eq!(spec.to_string(), "Q4.12");
        assert_eq!(spec.max_raw(), 32767);
        assert_eq!(spec.min_raw(), -32768);
    }

    #[test]
    fn exact_values_round_trip() {
        let spec = FixedSpec::new(16, 12).unwrap();
        for v in [-4.0, -1.0, -0.25, 0.0, 0.5, 1.0, 3.75] {
            assert_eq!(spec.quantize_value(v), v, "value {v} should be exact");
        }
    }

    #[test]
    fn saturation_clamps_out_of_range() {
        let spec = FixedSpec::new(8, 4).unwrap(); // range [-8, 7.9375]
        assert_eq!(spec.quantize(100.0), spec.max_raw());
        assert_eq!(spec.quantize(-100.0), spec.min_raw());
        assert_eq!(spec.quantize_value(100.0), spec.max_value());
        assert_eq!(spec.quantize_value(-100.0), spec.min_value());
    }

    #[test]
    fn nan_quantizes_to_zero() {
        let spec = FixedSpec::paper_default();
        assert_eq!(spec.quantize(f64::NAN), 0);
    }

    #[test]
    fn resolution_matches_frac_bits() {
        assert_eq!(FixedSpec::new(16, 0).unwrap().resolution(), 1.0);
        assert_eq!(FixedSpec::new(16, 4).unwrap().resolution(), 0.0625);
    }

    #[test]
    fn slicing_matches_manual_decomposition() {
        let slicer = BitSlicer::new(4, 4).unwrap();
        assert_eq!(slicer.slice(0), vec![0, 0, 0, 0]);
        assert_eq!(slicer.slice(0xFFFF), vec![0xF, 0xF, 0xF, 0xF]);
        assert_eq!(slicer.slice(0x1234), vec![0x4, 0x3, 0x2, 0x1]);
    }

    #[test]
    fn recombine_f64_applies_shift_weights() {
        let slicer = BitSlicer::new(4, 2).unwrap();
        // 1.0 in the low slice and 1.0 in the high slice → 1 + 16.
        assert_eq!(slicer.recombine_f64(&[1.0, 1.0]), 17.0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn slice_panics_on_overflow() {
        let slicer = BitSlicer::new(4, 2).unwrap();
        let _ = slicer.slice(0x100);
    }

    #[test]
    fn full_width_slicer_handles_max() {
        let slicer = BitSlicer::new(8, 4).unwrap();
        assert_eq!(slicer.max_magnitude(), u32::MAX);
        let slices = slicer.slice(u32::MAX);
        assert_eq!(slices, vec![0xFF; 4]);
    }

    /// The quantiser as it was written against libm: `f64::round`, then
    /// saturation in `f64`.
    fn reference_quantize(spec: FixedSpec, x: f64) -> i32 {
        if x.is_nan() {
            return 0;
        }
        let scaled = (x * f64::from(spec.frac_bits()).exp2()).round();
        if scaled >= f64::from(spec.max_raw()) {
            spec.max_raw()
        } else if scaled <= f64::from(spec.min_raw()) {
            spec.min_raw()
        } else {
            scaled as i32
        }
    }

    /// Asserts the integer rounding and the quantiser built on it match
    /// the `f64::round` reference bit for bit at `x` (and at `x`'s scaled
    /// value for the bare rounding).
    fn assert_matches_reference(spec: FixedSpec, x: f64) {
        let q = spec.quantizer();
        assert_eq!(
            q.quantize(x),
            reference_quantize(spec, x),
            "{spec} at {x:e}"
        );
        let dequantized = spec.dequantize(reference_quantize(spec, x));
        assert_eq!(
            q.quantize_value(x).to_bits(),
            dequantized.to_bits(),
            "{spec} at {x:e}"
        );
        if !x.is_nan() {
            assert_eq!(round_half_away(x), x.round() as i64, "rounding {x:e}");
        }
    }

    /// Ties, signed zeros, NaN, infinities and the magnitudes where the
    /// conversion's regime changes (2³¹, 2⁵², 2⁶³), with neighbours.
    #[test]
    fn integer_rounding_matches_f64_round_at_edges() {
        let mut xs = vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
        ];
        xs.extend([f64::MIN_POSITIVE, 0.499_999_999_999_999_94, 1e-300]);
        for k in 0..8 {
            xs.push(f64::from(k) + 0.5);
        }
        for e in [31, 52, 53, 63, 64] {
            let p = 2f64.powi(e);
            xs.extend([p, p - 0.5, p + 0.5, p.next_up(), p.next_down(), p - 1.0]);
        }
        let xs: Vec<f64> = xs.iter().flat_map(|&x| [x, -x]).collect();
        for spec in [(16, 0), (16, 8), (16, 12), (31, 0), (31, 30), (2, 0)] {
            let spec = FixedSpec::new(spec.0, spec.1).unwrap();
            let scale = f64::from(spec.frac_bits()).exp2();
            for &x in &xs {
                assert_matches_reference(spec, x);
                assert_matches_reference(spec, x / scale);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn integer_rounding_matches_f64_round(
            format in (2u8..=31, 0u8..=30),
            bits in (0u32..=u32::MAX, 0u32..=u32::MAX),
            tie in 0i64..(1i64 << 51),
            magnitude in (0i32..=66, 0.0f64..1.0),
        ) {
            let spec = FixedSpec::new(format.0, format.1.min(format.0 - 1)).unwrap();
            let scale = f64::from(spec.frac_bits()).exp2();
            // Any bit pattern: subnormals, NaNs and infinities included.
            let raw = f64::from_bits(u64::from(bits.0) << 32 | u64::from(bits.1));
            // An exact tie k + ½ once scaled, |k| ≤ 2⁵⁰.
            let tied = ((tie - (1i64 << 50)) as f64 + 0.5) / scale;
            // A scaled magnitude in [2^e, 2^(e+1)).
            let big = (1.0 + magnitude.1) * 2f64.powi(magnitude.0) / scale;
            for x in [raw, tied, big, -big] {
                assert_matches_reference(spec, x);
            }
        }

        #[test]
        fn quantize_error_within_half_step(
            total in 2u8..=24,
            frac_frac in 0.0f64..1.0,
            x in -1000.0f64..1000.0,
        ) {
            let frac = ((f64::from(total) - 1.0) * frac_frac) as u8;
            let spec = FixedSpec::new(total, frac).unwrap();
            let clamped = x.clamp(spec.min_value(), spec.max_value());
            let err = (spec.quantize_value(x) - clamped).abs();
            prop_assert!(err <= spec.resolution() / 2.0 + 1e-12);
        }

        #[test]
        fn quantize_is_monotonic(a in -100.0f64..100.0, b in -100.0f64..100.0) {
            let spec = FixedSpec::paper_default();
            if a <= b {
                prop_assert!(spec.quantize(a) <= spec.quantize(b));
            } else {
                prop_assert!(spec.quantize(a) >= spec.quantize(b));
            }
        }

        #[test]
        fn slice_recombine_round_trip(
            cell_bits in 1u8..=8,
            num_slices in 1u8..=4,
            raw in 0u32..=u32::MAX,
        ) {
            let slicer = BitSlicer::new(cell_bits, num_slices).unwrap();
            let magnitude = raw & slicer.max_magnitude();
            let slices: Vec<u64> =
                slicer.slice(magnitude).into_iter().map(u64::from).collect();
            prop_assert_eq!(slicer.recombine_u64(&slices), u64::from(magnitude));
            // Analog-domain recombination agrees with the integer one.
            let outs: Vec<f64> = slices.iter().map(|&s| s as f64).collect();
            let analog = slicer.recombine_f64(&outs);
            prop_assert!((analog - f64::from(magnitude)).abs() < 1e-6);
        }
    }
}
