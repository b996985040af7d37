//! Bit-sliced, optionally differential crossbar groups.
//!
//! One *logical* fixed-point matrix tile is physically several crossbars:
//! §3.2's data format splits a 16-bit magnitude across four 4-bit-cell
//! crossbars whose ADC outputs are recombined by shift-and-add
//! (`D3≪12 + D2≪8 + D1≪4 + D0`). Conductances cannot be negative, so signed
//! matrices additionally use the standard differential-pair trick (one
//! array for positive magnitudes, one for negative, subtracted digitally).
//! [`MatrixArray`] packages all of that behind a "program a real-valued
//! matrix, run a real-valued MVM" interface whose only deviations from
//! exact arithmetic are the physical ones: fixed-point quantisation, ADC
//! resolution, and programming noise.

use std::error::Error;
use std::fmt;

use graphr_units::{BitSlicer, FixedSpec};

use crate::crossbar::Crossbar;
use crate::noise::{NoiseModel, NoiseSource};
use crate::periphery::AdcModel;

/// Whether a tile stores signed values (differential pair) or unsigned
/// (single array). All four Table-2 graph algorithms use non-negative
/// weights; collaborative filtering's latent factors need signed storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SignMode {
    /// One crossbar set; programming a negative value is an error.
    #[default]
    Unsigned,
    /// Positive/negative crossbar pair; doubles the physical crossbars.
    Differential,
}

/// Configuration of one logical tile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayConfig {
    /// Logical rows (wordlines).
    pub rows: usize,
    /// Logical columns (bitlines).
    pub cols: usize,
    /// Fixed-point format of the stored values.
    pub spec: FixedSpec,
    /// How the magnitude is split across cells.
    pub slicer: BitSlicer,
    /// Signed or unsigned storage.
    pub sign_mode: SignMode,
    /// ADC applied per slice output.
    pub adc: AdcModel,
    /// Programming noise.
    pub noise: NoiseModel,
}

impl ArrayConfig {
    /// The paper's tile: 16-bit fixed point in four 4-bit slices, unsigned,
    /// ideal ADC, ideal programming.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    #[must_use]
    pub fn paper_default(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "tile dimensions must be positive");
        ArrayConfig {
            rows,
            cols,
            spec: FixedSpec::paper_default(),
            slicer: BitSlicer::paper_default(),
            sign_mode: SignMode::Unsigned,
            adc: AdcModel::Ideal,
            noise: NoiseModel::Ideal,
        }
    }

    /// Number of physical crossbars implementing this logical tile.
    #[must_use]
    pub fn physical_crossbars(&self) -> usize {
        let per_sign = usize::from(self.slicer.num_slices());
        match self.sign_mode {
            SignMode::Unsigned => per_sign,
            SignMode::Differential => 2 * per_sign,
        }
    }
}

/// Error programming a [`MatrixArray`].
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayError {
    /// The dense matrix had the wrong number of entries.
    ShapeMismatch {
        /// Entries supplied.
        got: usize,
        /// Entries required (`rows × cols`).
        expected: usize,
    },
    /// A negative value was programmed into an unsigned array.
    NegativeValue {
        /// Logical row of the offending entry.
        row: usize,
        /// Logical column of the offending entry.
        col: usize,
    },
}

impl fmt::Display for ArrayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrayError::ShapeMismatch { got, expected } => {
                write!(f, "matrix has {got} entries, tile needs {expected}")
            }
            ArrayError::NegativeValue { row, col } => {
                write!(f, "negative value at ({row}, {col}) in an unsigned array")
            }
        }
    }
}

impl Error for ArrayError {}

/// A logical fixed-point matrix tile over ganged crossbars.
///
/// See the [crate-level example](crate) for typical use.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixArray {
    config: ArrayConfig,
    /// One crossbar per slice storing positive magnitudes.
    pos: Vec<Crossbar>,
    /// One crossbar per slice storing negative magnitudes (differential
    /// mode only).
    neg: Vec<Crossbar>,
}

impl MatrixArray {
    /// Creates a zeroed tile.
    #[must_use]
    pub fn new(config: ArrayConfig) -> Self {
        let make = || {
            (0..config.slicer.num_slices())
                .map(|_| Crossbar::new(config.rows, config.cols, config.slicer.cell_bits()))
                .collect::<Vec<_>>()
        };
        let pos = make();
        let neg = match config.sign_mode {
            SignMode::Unsigned => Vec::new(),
            SignMode::Differential => make(),
        };
        MatrixArray { config, pos, neg }
    }

    /// The tile's configuration.
    #[must_use]
    pub fn config(&self) -> &ArrayConfig {
        &self.config
    }

    /// Programs a dense row-major `rows × cols` real-valued matrix.
    /// Values are quantised to the tile's fixed-point spec, magnitude-sliced
    /// across the crossbars, and perturbed by the configured noise model.
    ///
    /// Returns the number of nonzero cells programmed (the write-energy
    /// driver).
    ///
    /// # Errors
    ///
    /// [`ArrayError::ShapeMismatch`] for a wrong-sized matrix;
    /// [`ArrayError::NegativeValue`] for a negative entry in unsigned mode.
    pub fn program_dense(&mut self, matrix: &[f64]) -> Result<usize, ArrayError> {
        let mut noise = self.config.noise.sampler();
        self.program_dense_with(matrix, &mut noise)
    }

    /// Like [`MatrixArray::program_dense`] but with an external noise
    /// source, so a caller sequencing many tiles can share one stream.
    ///
    /// # Errors
    ///
    /// Same as [`MatrixArray::program_dense`].
    pub fn program_dense_with(
        &mut self,
        matrix: &[f64],
        noise: &mut NoiseSource,
    ) -> Result<usize, ArrayError> {
        let expected = self.config.rows * self.config.cols;
        if matrix.len() != expected {
            return Err(ArrayError::ShapeMismatch {
                got: matrix.len(),
                expected,
            });
        }
        let slices = usize::from(self.config.slicer.num_slices());
        let cells = self.config.rows * self.config.cols;
        let mut pos_levels = vec![vec![0u8; cells]; slices];
        let mut neg_levels = vec![vec![0u8; cells]; slices];
        let mut nonzero_cells = 0usize;
        for (idx, &value) in matrix.iter().enumerate() {
            let q = self.config.spec.quantize(value);
            if q < 0 && self.config.sign_mode == SignMode::Unsigned {
                return Err(ArrayError::NegativeValue {
                    row: idx / self.config.cols,
                    col: idx % self.config.cols,
                });
            }
            let magnitude = q.unsigned_abs();
            let target = if q >= 0 {
                &mut pos_levels
            } else {
                &mut neg_levels
            };
            for (s, level) in self.config.slicer.slice(magnitude).into_iter().enumerate() {
                if level != 0 {
                    nonzero_cells += 1;
                }
                target[s][idx] = level;
            }
        }
        for (cb, levels) in self.pos.iter_mut().zip(&pos_levels) {
            cb.program_noisy(levels, noise);
        }
        for (cb, levels) in self.neg.iter_mut().zip(&neg_levels) {
            cb.program_noisy(levels, noise);
        }
        Ok(nonzero_cells)
    }

    /// Runs the full analog MVM pipeline: per-slice bitline sums, ADC
    /// conversion, shift-and-add recombination, differential subtraction,
    /// and dequantisation back to real values.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the tile's row count.
    #[must_use]
    pub fn mvm(&self, input: &[f64]) -> Vec<f64> {
        assert_eq!(
            input.len(),
            self.config.rows,
            "input length must equal rows"
        );
        let recombined_pos = self.recombine(&self.pos, input);
        let result_raw = match self.config.sign_mode {
            SignMode::Unsigned => recombined_pos,
            SignMode::Differential => {
                let recombined_neg = self.recombine(&self.neg, input);
                recombined_pos
                    .into_iter()
                    .zip(recombined_neg)
                    .map(|(p, n)| p - n)
                    .collect()
            }
        };
        // Dequantise: raw results are in units of one LSB of the spec.
        result_raw
            .into_iter()
            .map(|r| r * self.config.spec.resolution())
            .collect()
    }

    fn recombine(&self, arrays: &[Crossbar], input: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.config.cols];
        for (s, cb) in arrays.iter().enumerate() {
            let weight = f64::from(u32::from(self.config.slicer.cell_bits()) * s as u32).exp2();
            for (col, raw) in cb.mvm(input).into_iter().enumerate() {
                out[col] += self.config.adc.convert(raw) * weight;
            }
        }
        out
    }

    /// The value the tile actually stores at `(row, col)` after
    /// quantisation and noise — what an MVM with a one-hot input would see.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn stored_value(&self, row: usize, col: usize) -> f64 {
        let gather = |arrays: &[Crossbar]| -> f64 {
            arrays
                .iter()
                .enumerate()
                .map(|(s, cb)| {
                    cb.level(row, col)
                        * f64::from(u32::from(self.config.slicer.cell_bits()) * s as u32).exp2()
                })
                .sum()
        };
        let pos = gather(&self.pos);
        let neg = if self.neg.is_empty() {
            0.0
        } else {
            gather(&self.neg)
        };
        (pos - neg) * self.config.spec.resolution()
    }

    /// Total nonzero cells across all physical crossbars.
    #[must_use]
    pub fn nonzero_cells(&self) -> usize {
        self.pos
            .iter()
            .chain(&self.neg)
            .map(Crossbar::nonzero_cells)
            .sum()
    }

    /// Resets every physical crossbar to zero.
    pub fn reset(&mut self) {
        for cb in self.pos.iter_mut().chain(&mut self.neg) {
            cb.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dense(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Vec<f64> {
        (0..rows * cols).map(|i| f(i / cols, i % cols)).collect()
    }

    #[test]
    fn exact_for_representable_unsigned_values() {
        let mut a = MatrixArray::new(ArrayConfig::paper_default(4, 4));
        let m = dense(4, 4, |r, c| (r * 4 + c) as f64 * 0.25);
        a.program_dense(&m).unwrap();
        let x = [1.0, 2.0, 0.5, 0.0];
        let y = a.mvm(&x);
        for c in 0..4 {
            let exact: f64 = (0..4).map(|r| m[r * 4 + c] * x[r]).sum();
            assert!((y[c] - exact).abs() < 1e-9, "col {c}: {} vs {exact}", y[c]);
        }
    }

    #[test]
    fn differential_mode_handles_signed_values() {
        let mut cfg = ArrayConfig::paper_default(3, 3);
        cfg.sign_mode = SignMode::Differential;
        let mut a = MatrixArray::new(cfg);
        let m = dense(3, 3, |r, c| if (r + c) % 2 == 0 { -1.5 } else { 2.25 });
        a.program_dense(&m).unwrap();
        let x = [1.0, -1.0, 2.0];
        let y = a.mvm(&x);
        for c in 0..3 {
            let exact: f64 = (0..3).map(|r| m[r * 3 + c] * x[r]).sum();
            assert!((y[c] - exact).abs() < 1e-9);
        }
        assert_eq!(a.config().physical_crossbars(), 8);
    }

    #[test]
    fn unsigned_mode_rejects_negative_values() {
        let mut a = MatrixArray::new(ArrayConfig::paper_default(2, 2));
        let err = a.program_dense(&[1.0, -0.5, 0.0, 0.0]).unwrap_err();
        assert_eq!(err, ArrayError::NegativeValue { row: 0, col: 1 });
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let mut a = MatrixArray::new(ArrayConfig::paper_default(2, 2));
        let err = a.program_dense(&[1.0; 3]).unwrap_err();
        assert_eq!(
            err,
            ArrayError::ShapeMismatch {
                got: 3,
                expected: 4
            }
        );
    }

    #[test]
    fn nonrepresentable_values_quantise_within_half_lsb() {
        let mut a = MatrixArray::new(ArrayConfig::paper_default(1, 1));
        a.program_dense(&[0.1]).unwrap();
        let y = a.mvm(&[1.0]);
        let spec = FixedSpec::paper_default();
        assert!((y[0] - 0.1).abs() <= spec.resolution() / 2.0);
        assert_eq!(y[0], spec.quantize_value(0.1));
    }

    #[test]
    fn stored_value_matches_one_hot_mvm() {
        let mut a = MatrixArray::new(ArrayConfig::paper_default(4, 4));
        let m = dense(4, 4, |r, c| (r + c) as f64 * 0.5);
        a.program_dense(&m).unwrap();
        for r in 0..4 {
            let mut onehot = vec![0.0; 4];
            onehot[r] = 1.0;
            let row = a.mvm(&onehot);
            for (c, &rv) in row.iter().enumerate() {
                assert!((a.stored_value(r, c) - rv).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn nonzero_cell_count_drives_write_energy() {
        let mut a = MatrixArray::new(ArrayConfig::paper_default(2, 2));
        // 1.0 in Q4.12 is 0x1000: exactly one nonzero nibble (the top one).
        let programmed = a.program_dense(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        assert_eq!(programmed, 1);
        assert_eq!(a.nonzero_cells(), 1);
        // 0x0FFF has three nonzero nibbles.
        let spec = FixedSpec::paper_default();
        let v = spec.dequantize(0x0FFF);
        let programmed = a.program_dense(&[v, 0.0, 0.0, 0.0]).unwrap();
        assert_eq!(programmed, 3);
        a.reset();
        assert_eq!(a.nonzero_cells(), 0);
    }

    #[test]
    fn noise_shifts_results_but_roughly_preserves_magnitude() {
        let mut cfg = ArrayConfig::paper_default(8, 8);
        cfg.noise = NoiseModel::one_percent(7);
        let mut noisy = MatrixArray::new(cfg);
        let mut ideal = MatrixArray::new(ArrayConfig::paper_default(8, 8));
        let m = dense(8, 8, |r, c| ((r * c) % 5) as f64 * 0.5);
        noisy.program_dense(&m).unwrap();
        ideal.program_dense(&m).unwrap();
        let x = vec![1.0; 8];
        let yn = noisy.mvm(&x);
        let yi = ideal.mvm(&x);
        let mut diff = 0.0;
        for (a, b) in yn.iter().zip(&yi) {
            // 1% per-cell noise over 8 summed rows with slice weights: allow
            // a generous but bounded deviation.
            assert!((a - b).abs() < 1.0, "noise blew up: {a} vs {b}");
            diff += (a - b).abs();
        }
        assert!(diff > 0.0, "noise must perturb something");
    }

    #[test]
    fn coarse_adc_quantises_output() {
        let mut cfg = ArrayConfig::paper_default(4, 4);
        cfg.adc = AdcModel::Uniform {
            bits: 4,
            full_scale: 60.0,
        };
        let mut a = MatrixArray::new(cfg);
        let m = dense(4, 4, |_, _| 0.25);
        a.program_dense(&m).unwrap();
        let y = a.mvm(&[1.0, 1.0, 1.0, 1.0]);
        let exact = 1.0; // 4 rows × 0.25
                         // 4-bit ADC is coarse; result is off but bounded by the step sizes.
        assert!((y[0] - exact).abs() < 1.0);
    }

    proptest! {
        #[test]
        fn tile_mvm_matches_quantised_reference(
            rows in 1usize..6,
            cols in 1usize..6,
            values in proptest::collection::vec(0.0f64..7.0, 36),
            inputs in proptest::collection::vec(0.0f64..3.0, 6),
        ) {
            let cfg = ArrayConfig::paper_default(rows, cols);
            let mut a = MatrixArray::new(cfg);
            let m: Vec<f64> = values[..rows * cols].to_vec();
            a.program_dense(&m).unwrap();
            let x: Vec<f64> = inputs[..rows].to_vec();
            let y = a.mvm(&x);
            let spec = FixedSpec::paper_default();
            for c in 0..cols {
                let reference: f64 = (0..rows)
                    .map(|r| spec.quantize_value(m[r * cols + c]) * x[r])
                    .sum();
                prop_assert!((y[c] - reference).abs() < 1e-9);
            }
        }
    }
}
