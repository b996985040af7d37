//! The §3.4 global-order-ID arithmetic.
//!
//! Every matrix position `(i, j)` (zeros included!) gets a global order ID
//! such that sorting edges by ID yields exactly the order the
//! streaming-apply executor consumes them in:
//!
//! 1. blocks in column-major order (equation (2)),
//! 2. within a block, subgraphs in column-major order — all source chunks
//!    of one destination strip before the next strip (equation (6)),
//! 3. within a subgraph, positions in column-major order (equation (8)).
//!
//! We implement the arithmetic 0-based (the paper presents it 1-based) and
//! validate it two independent ways: against a direct lexicographic sort of
//! the coordinate tuple, and against the paper's worked geometry of
//! Figure 12 (`C = 4, N = 2, G = 2, B = 32, V = 64` → 4 blocks of 16
//! subgraphs of 64 positions).

use serde::{Deserialize, Serialize};

use crate::config::ConfigError;

/// Hierarchical coordinates of one matrix position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PositionCoords {
    /// Column-major block index (`BI`).
    pub block: u64,
    /// Destination strip within the block (`S_j'`).
    pub strip: u64,
    /// Source chunk within the block (`S_i'`).
    pub chunk: u64,
    /// Column within the subgraph.
    pub sub_col: u64,
    /// Row within the subgraph (within the chunk).
    pub sub_row: u64,
}

/// The ordering geometry: crossbar size `C`, subgraph (strip) width
/// `C × N × G`, block size `B`, and the padded vertex count.
///
/// # Examples
///
/// ```
/// use graphr_core::preprocess::TileOrder;
///
/// // Figure 12's geometry: C=4, N=2, G=2 (strip width 16), B=32, V=64.
/// let order = TileOrder::new(64, 4, 16, 32)?;
/// assert_eq!(order.blocks_per_side(), 2);
/// assert_eq!(order.subgraphs_per_block(), 16);
/// // Position (0,0) comes first; its subgraph is block 0, strip 0, chunk 0.
/// assert_eq!(order.global_id(0, 0), 0);
/// # Ok::<(), graphr_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileOrder {
    crossbar_size: usize,
    strip_width: usize,
    block_size: usize,
    padded_vertices: usize,
}

impl TileOrder {
    /// Creates the geometry, padding `num_vertices` up to a multiple of
    /// `block_size` (§3.4: "we can simply pad zeros … it will not affect
    /// the results since these zeros do not correspond to actual edges").
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] unless `crossbar_size` divides `strip_width`
    /// and `strip_width` divides `block_size` (the divisibility §3.4
    /// assumes), or if any parameter is zero.
    pub fn new(
        num_vertices: usize,
        crossbar_size: usize,
        strip_width: usize,
        block_size: usize,
    ) -> Result<Self, ConfigError> {
        if crossbar_size == 0 || strip_width == 0 || block_size == 0 {
            return Err(ConfigError::new("ordering parameters must be positive"));
        }
        if !strip_width.is_multiple_of(crossbar_size) {
            return Err(ConfigError::new(format!(
                "strip width {strip_width} must be a multiple of crossbar size {crossbar_size}"
            )));
        }
        if !block_size.is_multiple_of(strip_width) {
            return Err(ConfigError::new(format!(
                "block size {block_size} must be a multiple of strip width {strip_width}"
            )));
        }
        let padded_vertices = num_vertices.div_ceil(block_size).max(1) * block_size;
        Ok(TileOrder {
            crossbar_size,
            strip_width,
            block_size,
            padded_vertices,
        })
    }

    /// Vertex count after padding to a block multiple.
    #[must_use]
    pub fn padded_vertices(&self) -> usize {
        self.padded_vertices
    }

    /// Crossbar size `C`.
    #[must_use]
    pub fn crossbar_size(&self) -> usize {
        self.crossbar_size
    }

    /// Subgraph width `C × N × G`.
    #[must_use]
    pub fn strip_width(&self) -> usize {
        self.strip_width
    }

    /// Block size `B`.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Blocks per side of the block grid (`V/B`).
    #[must_use]
    pub fn blocks_per_side(&self) -> usize {
        self.padded_vertices / self.block_size
    }

    /// Total blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.blocks_per_side() * self.blocks_per_side()
    }

    /// Destination strips per block (`B / (C·N·G)`).
    #[must_use]
    pub fn strips_per_block(&self) -> usize {
        self.block_size / self.strip_width
    }

    /// Source chunks per block (`B / C`).
    #[must_use]
    pub fn chunks_per_block(&self) -> usize {
        self.block_size / self.crossbar_size
    }

    /// Subgraphs per block.
    #[must_use]
    pub fn subgraphs_per_block(&self) -> usize {
        self.strips_per_block() * self.chunks_per_block()
    }

    /// Matrix positions per subgraph (`C × strip width`), the paper's
    /// `C² × N × G`.
    #[must_use]
    pub fn positions_per_subgraph(&self) -> u64 {
        (self.crossbar_size * self.strip_width) as u64
    }

    /// Column-major block index — equation (2) (with the evident typo
    /// `B_j + (V/B)·B_j` corrected to `B_i + (V/B)·B_j`, which is what the
    /// paper's own example order `B(0,0)→B(1,0)→B(0,1)→B(1,1)` requires).
    #[must_use]
    pub fn block_index(&self, bi: usize, bj: usize) -> u64 {
        (bi + self.blocks_per_side() * bj) as u64
    }

    /// Full hierarchical coordinates of position `(i, j)` —
    /// equations (1), (4), (5), (7).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is at or beyond the padded vertex count.
    #[must_use]
    pub fn coords(&self, i: usize, j: usize) -> PositionCoords {
        assert!(
            i < self.padded_vertices && j < self.padded_vertices,
            "position ({i}, {j}) outside the padded {0}×{0} matrix",
            self.padded_vertices
        );
        let (bi, chunk, sub_row) = self.source_coords(i);
        let (bj, strip, sub_col) = self.destination_coords(j);
        PositionCoords {
            block: self.block_index(bi, bj),
            strip: strip as u64,
            chunk: chunk as u64,
            sub_col: sub_col as u64,
            sub_row: sub_row as u64,
        }
    }

    /// The source half of [`TileOrder::coords`]: row `i`'s block row,
    /// chunk within the block and row within the chunk. Every coordinate
    /// of `(i, j)` comes from `i` alone or `j` alone, so a per-vertex
    /// table of each half places any edge without dividing.
    pub(crate) fn source_coords(&self, i: usize) -> (usize, usize, usize) {
        // Equations (1), (4), (5) and (7): block row, offset within the
        // block, chunk, offset within the chunk.
        let bi = i / self.block_size;
        let in_block = i - bi * self.block_size;
        (
            bi,
            in_block / self.crossbar_size,
            in_block % self.crossbar_size,
        )
    }

    /// The destination half of [`TileOrder::coords`]: column `j`'s block
    /// column, strip within the block and column within the strip.
    pub(crate) fn destination_coords(&self, j: usize) -> (usize, usize, usize) {
        let bj = j / self.block_size;
        let in_block = j - bj * self.block_size;
        (bj, in_block / self.strip_width, in_block % self.strip_width)
    }

    /// The column-major subgraph index within the whole matrix —
    /// equation (6), 0-based.
    #[must_use]
    pub fn subgraph_index(&self, i: usize, j: usize) -> u64 {
        self.subgraph_of(&self.coords(i, j))
    }

    fn subgraph_of(&self, c: &PositionCoords) -> u64 {
        let local = c.chunk + c.strip * self.chunks_per_block() as u64;
        c.block * self.subgraphs_per_block() as u64 + local
    }

    /// The global order ID of position `(i, j)` — equation (9), 0-based.
    /// Zeros count too: two positions `k` apart in the global order have
    /// IDs exactly `k` apart.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is at or beyond the padded vertex count.
    #[must_use]
    pub fn global_id(&self, i: usize, j: usize) -> u64 {
        let c = self.coords(i, j);
        // Equation (8): column-major within the subgraph.
        let sub_index = c.sub_row + c.sub_col * self.crossbar_size as u64;
        self.subgraph_of(&c) * self.positions_per_subgraph() + sub_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn figure12() -> TileOrder {
        TileOrder::new(64, 4, 16, 32).unwrap()
    }

    #[test]
    fn figure12_geometry() {
        let o = figure12();
        assert_eq!(o.padded_vertices(), 64);
        assert_eq!(o.num_blocks(), 4);
        assert_eq!(o.strips_per_block(), 2);
        assert_eq!(o.chunks_per_block(), 8);
        assert_eq!(o.subgraphs_per_block(), 16);
        assert_eq!(o.positions_per_subgraph(), 64);
    }

    #[test]
    fn blocks_are_column_major() {
        let o = figure12();
        // B(0,0) → B(1,0) → B(0,1) → B(1,1), as in §3.4's example.
        assert_eq!(o.block_index(0, 0), 0);
        assert_eq!(o.block_index(1, 0), 1);
        assert_eq!(o.block_index(0, 1), 2);
        assert_eq!(o.block_index(1, 1), 3);
    }

    #[test]
    fn subgraphs_are_column_major_within_block() {
        let o = figure12();
        // First strip's chunks come first: positions in rows 0..32, cols
        // 0..16 occupy subgraphs 0..8; cols 16..32 occupy subgraphs 8..16.
        assert_eq!(o.subgraph_index(0, 0), 0);
        assert_eq!(o.subgraph_index(4, 0), 1); // next chunk down
        assert_eq!(o.subgraph_index(28, 15), 7); // last chunk, first strip
        assert_eq!(o.subgraph_index(0, 16), 8); // second strip starts
        assert_eq!(o.subgraph_index(32, 0), 16); // block B(1,0)
        assert_eq!(o.subgraph_index(0, 32), 32); // block B(0,1)
    }

    #[test]
    fn positions_are_column_major_within_subgraph() {
        let o = figure12();
        assert_eq!(o.global_id(0, 0), 0);
        assert_eq!(o.global_id(1, 0), 1);
        assert_eq!(o.global_id(3, 0), 3);
        assert_eq!(o.global_id(0, 1), 4); // next column of the subgraph
        assert_eq!(o.global_id(3, 15), 63); // last position of subgraph 0
        assert_eq!(o.global_id(4, 0), 64); // first position of subgraph 1
    }

    #[test]
    fn padding_rounds_up_to_block_multiple() {
        let o = TileOrder::new(33, 4, 16, 32).unwrap();
        assert_eq!(o.padded_vertices(), 64);
        let o = TileOrder::new(1, 4, 16, 32).unwrap();
        assert_eq!(o.padded_vertices(), 32);
    }

    #[test]
    fn rejects_indivisible_geometry() {
        assert!(TileOrder::new(64, 4, 15, 32).is_err());
        assert!(TileOrder::new(64, 4, 16, 40).is_err());
        assert!(TileOrder::new(64, 0, 16, 32).is_err());
    }

    #[test]
    #[should_panic(expected = "outside the padded")]
    fn out_of_range_position_panics() {
        let _ = figure12().global_id(64, 0);
    }

    proptest! {
        /// Sorting by global ID must agree with sorting by the hierarchical
        /// coordinate tuple — i.e. the closed-form arithmetic implements
        /// exactly the intended traversal order.
        #[test]
        fn global_id_order_equals_tuple_order(
            c_pow in 1u32..4,       // C ∈ {2,4,8}
            tiles in 1usize..5,     // strip = C × tiles
            strips in 1usize..4,    // block = strip × strips
            blocks in 1usize..4,    // padded V = block × blocks
            positions in proptest::collection::vec((0usize..4096, 0usize..4096), 2..64),
        ) {
            let c = 1usize << c_pow;
            let strip = c * tiles;
            let block = strip * strips;
            let v = block * blocks;
            let order = TileOrder::new(v, c, strip, block).unwrap();
            let mut by_id: Vec<(usize, usize)> = positions
                .iter()
                .map(|&(i, j)| (i % v, j % v))
                .collect();
            let mut by_tuple = by_id.clone();
            by_id.sort_by_key(|&(i, j)| (order.global_id(i, j), i, j));
            by_tuple.sort_by_key(|&(i, j)| {
                let co = order.coords(i, j);
                (co.block, co.strip, co.chunk, co.sub_col, co.sub_row, i, j)
            });
            prop_assert_eq!(by_id, by_tuple);
        }

        /// IDs are a bijection onto 0..V² over the padded matrix: distinct
        /// positions get distinct IDs within range.
        #[test]
        fn global_ids_are_unique_and_in_range(
            seed_positions in proptest::collection::vec((0usize..64, 0usize..64), 2..40),
        ) {
            let order = figure12();
            let mut seen = std::collections::BTreeMap::new();
            for &(i, j) in &seed_positions {
                let id = order.global_id(i, j);
                prop_assert!(id < 64 * 64);
                if let Some(prev) = seen.insert(id, (i, j)) {
                    prop_assert_eq!(prev, (i, j), "two positions share an id");
                }
            }
        }

        /// The §3.4 "zeros count" property: consecutive positions in the
        /// subgraph's column-major order differ by exactly 1 in ID.
        #[test]
        fn ids_are_dense_within_a_subgraph(row in 0usize..3, col in 0usize..15) {
            let order = figure12();
            let a = order.global_id(row, col);
            let b = order.global_id(row + 1, col);
            prop_assert_eq!(b, a + 1);
            // Column step inside the same subgraph jumps by exactly C.
            let c0 = order.global_id(0, col);
            let c1 = order.global_id(0, col + 1);
            prop_assert_eq!(c1, c0 + 4);
        }
    }
}
