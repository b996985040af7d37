//! A single ReRAM crossbar.
//!
//! Cells hold integer conductance levels in `[0, 2^cell_bits)`. An MVM
//! drives the wordlines with analog input values and reads each bitline's
//! current sum `Σ_row input[row] · level[row][col]` — Figure 3(c) of the
//! paper, with conductance normalised so one level step is one unit. Noise,
//! when enabled, is applied at programming time, which is where multi-level
//! ReRAM inaccuracy physically arises.

use crate::noise::NoiseSource;

/// One `rows × cols` crossbar of multi-level cells.
///
/// # Examples
///
/// ```
/// use graphr_reram::Crossbar;
///
/// let mut cb = Crossbar::new(2, 2, 4);
/// cb.program(&[1, 2, 3, 4]);
/// assert_eq!(cb.mvm(&[1.0, 10.0]), vec![31.0, 42.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Crossbar {
    rows: usize,
    cols: usize,
    cell_bits: u8,
    /// Stored levels; nominally integers, `f64` to carry programming noise.
    levels: Vec<f64>,
}

impl Crossbar {
    /// Creates a zeroed crossbar.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `cell_bits` is 0 or > 8.
    #[must_use]
    pub fn new(rows: usize, cols: usize, cell_bits: u8) -> Self {
        assert!(rows > 0 && cols > 0, "crossbar dimensions must be positive");
        assert!(
            (1..=8).contains(&cell_bits),
            "cell_bits must be in 1..=8, got {cell_bits}"
        );
        Crossbar {
            rows,
            cols,
            cell_bits,
            levels: vec![0.0; rows * cols],
        }
    }

    /// Number of wordlines (rows).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bitlines (columns).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bits per cell.
    #[must_use]
    pub fn cell_bits(&self) -> u8 {
        self.cell_bits
    }

    /// Highest programmable level, `2^cell_bits − 1`.
    #[must_use]
    pub fn max_level(&self) -> u8 {
        ((1u16 << self.cell_bits) - 1) as u8
    }

    /// Programs every cell from a row-major level matrix (ideal, noiseless).
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != rows × cols` or any level exceeds
    /// [`Crossbar::max_level`].
    pub fn program(&mut self, levels: &[u8]) {
        let mut ideal = NoiseSource::ideal();
        self.program_noisy(levels, &mut ideal);
    }

    /// Programs every cell, perturbing each target level through `noise`.
    ///
    /// # Panics
    ///
    /// Same as [`Crossbar::program`].
    pub fn program_noisy(&mut self, levels: &[u8], noise: &mut NoiseSource) {
        assert_eq!(
            levels.len(),
            self.rows * self.cols,
            "level matrix must be rows × cols"
        );
        let max_level = self.max_level();
        let max = f64::from(max_level);
        for (cell, &target) in self.levels.iter_mut().zip(levels) {
            assert!(
                target <= max_level,
                "level {target} exceeds cell resolution"
            );
            *cell = noise.perturb(f64::from(target), max);
        }
    }

    /// Resets every cell to level 0.
    pub fn reset(&mut self) {
        self.levels.fill(0.0);
    }

    /// The (possibly noisy) level stored at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn level(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.cols,
            "cell index out of range"
        );
        self.levels[row * self.cols + col]
    }

    /// Analog matrix–vector multiplication: bitline current sums for the
    /// given wordline drive values.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != rows`.
    #[must_use]
    pub fn mvm(&self, input: &[f64]) -> Vec<f64> {
        assert_eq!(input.len(), self.rows, "input length must equal rows");
        let mut out = vec![0.0; self.cols];
        for (r, &x) in input.iter().enumerate() {
            if x == 0.0 {
                continue; // undriven wordline contributes no current
            }
            let row = &self.levels[r * self.cols..(r + 1) * self.cols];
            for (acc, &g) in out.iter_mut().zip(row) {
                *acc += x * g;
            }
        }
        out
    }

    /// Reads one row's levels by driving a one-hot input — the row-selection
    /// primitive of the paper's SSSP mapping (§4.2, "SpMV is only used to
    /// select a row in CB").
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    #[must_use]
    pub fn select_row(&self, row: usize) -> Vec<f64> {
        assert!(row < self.rows, "row {row} out of range");
        self.levels[row * self.cols..(row + 1) * self.cols].to_vec()
    }

    /// Number of cells currently holding a nonzero level — the occupancy
    /// that determines write energy.
    #[must_use]
    pub fn nonzero_cells(&self) -> usize {
        self.levels.iter().filter(|&&l| l != 0.0).count()
    }
}

impl NoiseSource {
    /// An always-ideal source, for the noiseless programming path.
    #[must_use]
    pub fn ideal() -> Self {
        crate::noise::NoiseModel::Ideal.sampler()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseModel;
    use proptest::prelude::*;

    #[test]
    fn mvm_matches_manual_dot_products() {
        let mut cb = Crossbar::new(3, 2, 4);
        cb.program(&[1, 2, 3, 4, 5, 6]);
        // col0 = 1·1 + 2·3 + 3·5 = 22, col1 = 1·2 + 2·4 + 3·6 = 28
        assert_eq!(cb.mvm(&[1.0, 2.0, 3.0]), vec![22.0, 28.0]);
    }

    #[test]
    fn zero_input_rows_are_skipped() {
        let mut cb = Crossbar::new(2, 2, 4);
        cb.program(&[15, 15, 15, 15]);
        assert_eq!(cb.mvm(&[0.0, 2.0]), vec![30.0, 30.0]);
    }

    #[test]
    fn select_row_is_one_hot_mvm() {
        let mut cb = Crossbar::new(4, 4, 4);
        let levels: Vec<u8> = (0..16).collect();
        cb.program(&levels);
        let direct = cb.select_row(2);
        let onehot = cb.mvm(&[0.0, 0.0, 1.0, 0.0]);
        assert_eq!(direct, onehot);
        assert_eq!(direct, vec![8.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    fn reset_and_occupancy() {
        let mut cb = Crossbar::new(2, 2, 4);
        cb.program(&[0, 3, 0, 7]);
        assert_eq!(cb.nonzero_cells(), 2);
        cb.reset();
        assert_eq!(cb.nonzero_cells(), 0);
    }

    #[test]
    fn max_level_tracks_cell_bits() {
        assert_eq!(Crossbar::new(1, 1, 1).max_level(), 1);
        assert_eq!(Crossbar::new(1, 1, 4).max_level(), 15);
        assert_eq!(Crossbar::new(1, 1, 8).max_level(), 255);
    }

    #[test]
    #[should_panic(expected = "exceeds cell resolution")]
    fn programming_over_resolution_panics() {
        let mut cb = Crossbar::new(1, 1, 2);
        cb.program(&[4]);
    }

    #[test]
    #[should_panic(expected = "rows × cols")]
    fn wrong_matrix_shape_panics() {
        let mut cb = Crossbar::new(2, 2, 4);
        cb.program(&[1, 2, 3]);
    }

    #[test]
    fn noisy_programming_perturbs_but_tracks_targets() {
        let mut cb = Crossbar::new(8, 8, 4);
        let targets: Vec<u8> = (0..64).map(|i| (i % 16) as u8).collect();
        let mut noise = NoiseModel::one_percent(5).sampler();
        cb.program_noisy(&targets, &mut noise);
        let mut total_err = 0.0;
        for r in 0..8 {
            for c in 0..8 {
                let err = (cb.level(r, c) - f64::from(targets[r * 8 + c])).abs();
                assert!(err < 1.0, "1% noise should stay well under one level");
                total_err += err;
            }
        }
        assert!(total_err > 0.0, "noise must actually perturb something");
    }

    proptest! {
        #[test]
        fn mvm_is_linear_in_input(
            rows in 1usize..8,
            cols in 1usize..8,
            seed_levels in proptest::collection::vec(0u8..16, 64),
            scale in -4.0f64..4.0,
        ) {
            let mut cb = Crossbar::new(rows, cols, 4);
            let levels: Vec<u8> = seed_levels[..rows * cols].to_vec();
            cb.program(&levels);
            let x: Vec<f64> = (0..rows).map(|i| i as f64 - 1.5).collect();
            let sx: Vec<f64> = x.iter().map(|v| v * scale).collect();
            let y1 = cb.mvm(&sx);
            let y2: Vec<f64> = cb.mvm(&x).into_iter().map(|v| v * scale).collect();
            for (a, b) in y1.iter().zip(&y2) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }
}
