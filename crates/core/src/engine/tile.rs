//! Functional model of one logical crossbar tile, in both fidelities.
//!
//! [`TileCompute`] is a scratch tile a scanner reuses for every tile of
//! every subgraph (hardware parallelism affects *timing*, which the
//! executor accounts separately; functionally the tiles are independent).
//! In [`Fidelity::Analog`] values flow through the full `graphr-reram`
//! datapath (per-slice bitline sums, ADC, shift-and-add, programming
//! noise): this is the Analog scan datapath. In [`Fidelity::Fast`] the same
//! fixed-point arithmetic happens directly on a dense image. With ideal
//! ADC and ideal programming the two are bit-identical — a property the
//! test suite pins down.
//!
//! Fast-fidelity scans do not program tiles at all: their kernels walk
//! each tile's stored cells (see [`crate::exec::strip`]). The Fast
//! `TileCompute` is the oracle those kernels are tested against, bit for
//! bit.

use graphr_reram::{ArrayConfig, MatrixArray};
use graphr_units::FixedSpec;

use crate::config::{Fidelity, GraphRConfig};
use crate::preprocess::tiler::TileEntry;

/// How parallel edges that land on the same crossbar cell combine. A cell
/// stores one conductance, so preprocessing must pick a semantic: `Sum` is
/// the adjacency-matrix reading used by the MAC algorithms, `Min` keeps the
/// cheapest parallel edge for the add-op (shortest-path) algorithms —
/// matching what the gold references compute on multigraphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeRule {
    /// Parallel edges add (MAC pattern).
    #[default]
    Sum,
    /// Parallel edges keep the minimum (add-op pattern).
    Min,
}

impl MergeRule {
    /// Combines an existing cell value with a newly arriving one.
    #[must_use]
    pub fn combine(self, existing: f64, incoming: f64) -> f64 {
        match self {
            MergeRule::Sum => existing + incoming,
            MergeRule::Min => existing.min(incoming),
        }
    }
}

/// A reusable logical-tile compute unit.
#[derive(Debug, Clone)]
pub struct TileCompute {
    fidelity: Fidelity,
    size: usize,
    spec: FixedSpec,
    /// Analog path: the ganged crossbar model.
    array: MatrixArray,
    /// Dense cell values, row-major (raw pre-quantisation in analog mode,
    /// quantised in fast mode after `load`).
    dense: Vec<f64>,
    /// Entries of the currently loaded tile grouped per row (fast add-op).
    rows: Vec<Vec<(u8, f64)>>,
    /// Cells touched by the current load (merge bookkeeping).
    touched: Vec<usize>,
    /// Last-touched epoch per cell.
    stamp: Vec<u32>,
    /// Current load epoch.
    epoch: u32,
}

impl TileCompute {
    /// Creates a scratch tile for `config`'s geometry and fidelity, using
    /// `spec` for value quantisation (algorithms choose their own format —
    /// Q1.15 for PageRank probabilities, Q16.0 for BFS/SSSP distances).
    #[must_use]
    pub fn new(config: &GraphRConfig, spec: FixedSpec) -> Self {
        let size = config.crossbar_size;
        let array_config = ArrayConfig {
            rows: size,
            cols: size,
            spec,
            slicer: config.slicer,
            sign_mode: config.sign_mode,
            adc: config.adc,
            noise: config.noise,
        };
        TileCompute {
            fidelity: config.fidelity,
            size,
            spec,
            array: MatrixArray::new(array_config),
            dense: vec![0.0; size * size],
            rows: vec![Vec::new(); size],
            touched: Vec::with_capacity(size * size),
            stamp: vec![0; size * size],
            epoch: 1,
        }
    }

    /// The tile's fixed-point format.
    #[must_use]
    pub fn spec(&self) -> FixedSpec {
        self.spec
    }

    /// Loads a tile: `entries` give positions, `values` the real-valued
    /// matrix entries (same order). Unmentioned cells are zero. Parallel
    /// edges landing on the same cell merge under `merge` *before*
    /// quantisation — a crossbar cell holds exactly one conductance, so the
    /// preprocessing combines multigraph edges ([`MergeRule::Sum`] is the
    /// adjacency-matrix semantic for MAC algorithms; [`MergeRule::Min`]
    /// keeps the shortest parallel edge for add-op algorithms).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != entries.len()`, on out-of-range
    /// coordinates, or (in unsigned mode) on negative values.
    pub fn load(&mut self, entries: &[TileEntry], values: &[f64], merge: MergeRule) {
        assert_eq!(entries.len(), values.len(), "one value required per entry");
        // Merge parallel edges into the raw dense buffer.
        self.dense.fill(0.0);
        self.touched.clear();
        for (e, &v) in entries.iter().zip(values) {
            let idx = e.row as usize * self.size + e.col as usize;
            if self.stamp[idx] == self.epoch {
                self.dense[idx] = merge.combine(self.dense[idx], v);
            } else {
                self.stamp[idx] = self.epoch;
                self.dense[idx] = v;
                self.touched.push(idx);
            }
        }
        if self.epoch == u32::MAX {
            // Stamp wrap-around: reset to a clean state.
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        match self.fidelity {
            Fidelity::Analog => {
                self.array
                    .program_dense(&self.dense)
                    .expect("tile entries fit the array");
            }
            Fidelity::Fast => {
                for row in &mut self.rows {
                    row.clear();
                }
                for &idx in &self.touched {
                    let q = self.spec.quantize_value(self.dense[idx]);
                    self.dense[idx] = q;
                    self.rows[idx / self.size].push(((idx % self.size) as u8, q));
                }
                for row in &mut self.rows {
                    row.sort_unstable_by_key(|&(c, _)| c);
                }
            }
        }
    }

    /// Parallel-MAC evaluation: `y[col] = Σ_row stored[row][col] · x[row]`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the tile size.
    #[must_use]
    pub fn mac(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.size, "input must have C entries");
        match self.fidelity {
            Fidelity::Analog => self.array.mvm(x),
            Fidelity::Fast => {
                let mut y = vec![0.0; self.size];
                for (r, &xv) in x.iter().enumerate() {
                    if xv == 0.0 {
                        continue;
                    }
                    for &(col, q) in &self.rows[r] {
                        y[col as usize] += q * xv;
                    }
                }
                y
            }
        }
    }

    /// Row-select read (the add-op primitive, §4.2): the stored values of
    /// wordline `row`, with zero meaning "no edge".
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[must_use]
    pub fn row(&self, row: usize) -> Vec<f64> {
        assert!(row < self.size, "row {row} out of range");
        match self.fidelity {
            Fidelity::Analog => {
                let mut onehot = vec![0.0; self.size];
                onehot[row] = 1.0;
                self.array.mvm(&onehot)
            }
            Fidelity::Fast => self.dense[row * self.size..(row + 1) * self.size].to_vec(),
        }
    }

    /// Entries stored on `row` as `(col, value)` pairs, written into
    /// `out` (cleared first) so the add-op scan reuses one buffer for
    /// every row it drives. Available in both fidelities (in analog mode
    /// derived from the row read, skipping exact zeros).
    pub fn row_entries(&self, row: usize, out: &mut Vec<(usize, f64)>) {
        out.clear();
        match self.fidelity {
            Fidelity::Analog => out.extend(
                self.row(row)
                    .into_iter()
                    .enumerate()
                    .filter(|&(_, v)| v != 0.0),
            ),
            Fidelity::Fast => out.extend(self.rows[row].iter().map(|&(c, v)| (c as usize, v))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GraphRConfig;

    fn entries(list: &[(u8, u8, f64)]) -> (Vec<TileEntry>, Vec<f64>) {
        let e = list
            .iter()
            .map(|&(row, col, _)| TileEntry {
                row,
                col,
                weight: 0.0,
            })
            .collect();
        let v = list.iter().map(|&(_, _, v)| v).collect();
        (e, v)
    }

    fn config(fidelity: Fidelity) -> GraphRConfig {
        GraphRConfig::builder().fidelity(fidelity).build().unwrap()
    }

    fn row_entries_of(tile: &TileCompute, row: usize) -> Vec<(usize, f64)> {
        let mut out = vec![(9, 9.0)]; // stale content must be cleared
        tile.row_entries(row, &mut out);
        out
    }

    #[test]
    fn fast_and_analog_agree_exactly_when_ideal() {
        let (e, v) = entries(&[
            (0, 0, 1.5),
            (0, 7, 0.25),
            (3, 3, 2.0),
            (7, 0, 0.125),
            (7, 7, 3.75),
        ]);
        let spec = FixedSpec::paper_default();
        let mut fast = TileCompute::new(&config(Fidelity::Fast), spec);
        let mut analog = TileCompute::new(&config(Fidelity::Analog), spec);
        fast.load(&e, &v, MergeRule::Sum);
        analog.load(&e, &v, MergeRule::Sum);
        let x: Vec<f64> = (0..8).map(|i| 0.5 + i as f64 * 0.25).collect();
        let yf = fast.mac(&x);
        let ya = analog.mac(&x);
        for (a, b) in yf.iter().zip(&ya) {
            assert!((a - b).abs() < 1e-9, "fast {a} vs analog {b}");
        }
        for r in 0..8 {
            let rf = fast.row(r);
            let ra = analog.row(r);
            for (a, b) in rf.iter().zip(&ra) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn mac_computes_quantised_product() {
        let (e, v) = entries(&[(1, 2, 0.5), (4, 2, 0.25)]);
        let spec = FixedSpec::paper_default();
        let mut tile = TileCompute::new(&config(Fidelity::Fast), spec);
        tile.load(&e, &v, MergeRule::Sum);
        let mut x = vec![0.0; 8];
        x[1] = 2.0;
        x[4] = 4.0;
        let y = tile.mac(&x);
        assert_eq!(y[2], 0.5 * 2.0 + 0.25 * 4.0);
        assert!(y.iter().enumerate().all(|(i, &v)| i == 2 || v == 0.0));
    }

    #[test]
    fn row_entries_report_sparse_content() {
        let (e, v) = entries(&[(2, 1, 3.0), (2, 6, 5.0)]);
        for fidelity in [Fidelity::Fast, Fidelity::Analog] {
            let mut tile = TileCompute::new(&config(fidelity), FixedSpec::new(16, 0).unwrap());
            tile.load(&e, &v, MergeRule::Sum);
            assert_eq!(row_entries_of(&tile, 2), vec![(1, 3.0), (6, 5.0)]);
            assert!(row_entries_of(&tile, 0).is_empty());
        }
    }

    #[test]
    fn reload_clears_previous_tile() {
        let spec = FixedSpec::paper_default();
        let mut tile = TileCompute::new(&config(Fidelity::Fast), spec);
        let (e1, v1) = entries(&[(0, 0, 1.0)]);
        tile.load(&e1, &v1, MergeRule::Sum);
        let (e2, v2) = entries(&[(5, 5, 2.0)]);
        tile.load(&e2, &v2, MergeRule::Sum);
        assert!(
            row_entries_of(&tile, 0).is_empty(),
            "old entry must be gone"
        );
        assert_eq!(row_entries_of(&tile, 5), vec![(5, 2.0)]);
    }

    #[test]
    fn integer_spec_keeps_distances_exact() {
        let spec = FixedSpec::new(16, 0).unwrap();
        let (e, v) = entries(&[(0, 0, 1234.0), (1, 1, 64.0)]);
        for fidelity in [Fidelity::Fast, Fidelity::Analog] {
            let mut tile = TileCompute::new(&config(fidelity), spec);
            tile.load(&e, &v, MergeRule::Sum);
            assert_eq!(tile.row(0)[0], 1234.0);
            assert_eq!(tile.row(1)[1], 64.0);
        }
    }

    #[test]
    #[should_panic(expected = "one value required")]
    fn mismatched_values_panic() {
        let spec = FixedSpec::paper_default();
        let mut tile = TileCompute::new(&config(Fidelity::Fast), spec);
        let (e, _) = entries(&[(0, 0, 1.0)]);
        tile.load(&e, &[], MergeRule::Sum);
    }
}
