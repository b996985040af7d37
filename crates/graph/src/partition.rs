//! Two-level grid partitioning of the adjacency matrix.
//!
//! Both GridGraph's dual sliding windows (paper §2.1, Figure 2b) and
//! GraphR's block/subgraph decomposition (§3.3–3.4, Figure 12) partition the
//! vertex set into fixed-size chunks, which induces a grid of edge blocks:
//! edge `(u, v)` falls in block `(u / chunk, v / chunk)`. [`GridPartition`]
//! is that shared arithmetic, used by the CPU substrate, the GraphR
//! preprocessor, and the tiling statistics.

use crate::coo::EdgeList;
use crate::VertexId;

/// A partition of `num_vertices` vertices into contiguous chunks of
/// `chunk_size`, inducing a `num_chunks × num_chunks` grid of edge blocks.
///
/// # Examples
///
/// ```
/// use graphr_graph::GridPartition;
///
/// let p = GridPartition::with_chunk_size(10, 4);
/// assert_eq!(p.num_chunks(), 3); // chunks [0..4), [4..8), [8..10)
/// assert_eq!(p.chunk_of(9), 2);
/// assert_eq!(p.block_of(3, 8), (0, 2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridPartition {
    num_vertices: usize,
    chunk_size: usize,
}

impl GridPartition {
    /// Creates a partition with a fixed `chunk_size`; the last chunk may be
    /// ragged.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    #[must_use]
    pub fn with_chunk_size(num_vertices: usize, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        GridPartition {
            num_vertices,
            chunk_size,
        }
    }

    /// Creates a partition with (at most) `num_chunks` chunks of equal size
    /// (the last possibly ragged).
    ///
    /// # Panics
    ///
    /// Panics if `num_chunks` is zero.
    #[must_use]
    pub fn with_num_chunks(num_vertices: usize, num_chunks: usize) -> Self {
        assert!(num_chunks > 0, "chunk count must be positive");
        let chunk_size = num_vertices.div_ceil(num_chunks).max(1);
        GridPartition {
            num_vertices,
            chunk_size,
        }
    }

    /// Number of vertices partitioned.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Vertices per chunk (last chunk may hold fewer).
    #[must_use]
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Number of chunks.
    #[must_use]
    pub fn num_chunks(&self) -> usize {
        self.num_vertices.div_ceil(self.chunk_size).max(1)
    }

    /// Chunk index containing vertex `v`.
    #[must_use]
    pub fn chunk_of(&self, v: VertexId) -> usize {
        v as usize / self.chunk_size
    }

    /// The `[start, end)` vertex range of chunk `c` (clamped to the vertex
    /// count for the ragged final chunk).
    #[must_use]
    pub fn chunk_range(&self, c: usize) -> std::ops::Range<VertexId> {
        let start = (c * self.chunk_size).min(self.num_vertices);
        let end = ((c + 1) * self.chunk_size).min(self.num_vertices);
        start as VertexId..end as VertexId
    }

    /// Grid block `(source_chunk, destination_chunk)` of edge `(src, dst)`.
    #[must_use]
    pub fn block_of(&self, src: VertexId, dst: VertexId) -> (usize, usize) {
        (self.chunk_of(src), self.chunk_of(dst))
    }

    /// Counts the edges in every grid block, returned row-major
    /// (`counts[src_chunk * num_chunks + dst_chunk]`).
    ///
    /// The fraction of *empty* blocks is the quantity GraphR exploits by
    /// skipping subgraphs (§3.3).
    #[must_use]
    pub fn block_histogram(&self, graph: &EdgeList) -> Vec<usize> {
        let p = self.num_chunks();
        let mut counts = vec![0usize; p * p];
        for e in graph.iter() {
            let (bs, bd) = self.block_of(e.src, e.dst);
            counts[bs * p + bd] += 1;
        }
        counts
    }

    /// The fraction of grid blocks containing no edges.
    #[must_use]
    pub fn empty_block_fraction(&self, graph: &EdgeList) -> f64 {
        let hist = self.block_histogram(graph);
        if hist.is_empty() {
            return 0.0;
        }
        hist.iter().filter(|&&c| c == 0).count() as f64 / hist.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn chunk_arithmetic_with_ragged_tail() {
        let p = GridPartition::with_chunk_size(10, 4);
        assert_eq!(p.num_chunks(), 3);
        assert_eq!(p.chunk_range(0), 0..4);
        assert_eq!(p.chunk_range(2), 8..10);
        assert_eq!(p.chunk_of(0), 0);
        assert_eq!(p.chunk_of(4), 1);
        assert_eq!(p.chunk_of(9), 2);
    }

    #[test]
    fn with_num_chunks_divides_evenly() {
        let p = GridPartition::with_num_chunks(100, 4);
        assert_eq!(p.chunk_size(), 25);
        assert_eq!(p.num_chunks(), 4);
    }

    #[test]
    fn with_num_chunks_handles_indivisible() {
        let p = GridPartition::with_num_chunks(10, 3);
        assert_eq!(p.chunk_size(), 4);
        assert_eq!(p.num_chunks(), 3);
        assert_eq!(p.chunk_range(2), 8..10);
    }

    #[test]
    fn block_histogram_counts_all_edges() {
        let g = EdgeList::from_pairs(8, [(0, 7), (1, 1), (7, 0), (6, 6)]).unwrap();
        let p = GridPartition::with_chunk_size(8, 4);
        let hist = p.block_histogram(&g);
        assert_eq!(hist, vec![1, 1, 1, 1]);
        assert_eq!(p.empty_block_fraction(&g), 0.0);
    }

    #[test]
    fn empty_fraction_sees_empty_blocks() {
        let g = EdgeList::from_pairs(8, [(0, 0), (1, 2)]).unwrap();
        let p = GridPartition::with_chunk_size(8, 4);
        assert_eq!(p.empty_block_fraction(&g), 0.75);
    }

    #[test]
    fn figure5_blocks_match_paper() {
        // Figure 5(c) partitions the 8-vertex example into four 4×4 blocks
        // with 7, 6, 4 and 8 edges (B0-0, B0-1 order as printed: 7, 9, ...).
        let g = crate::generators::structured::figure5();
        let p = GridPartition::with_chunk_size(8, 4);
        let hist = p.block_histogram(&g);
        assert_eq!(hist.iter().sum::<usize>(), 25);
        // B0-0 holds edges among vertices 0..4: (0,2),(0,3),(1,2),(1,3),
        // (2,0),(3,0),(3,1) = 7 edges.
        assert_eq!(hist[0], 7);
    }

    proptest! {
        #[test]
        fn histogram_total_equals_edge_count(
            n in 1usize..64,
            chunk in 1usize..16,
            raw in proptest::collection::vec((0u32..64, 0u32..64), 0..100),
        ) {
            let pairs: Vec<(u32, u32)> = raw
                .into_iter()
                .map(|(s, d)| (s % n as u32, d % n as u32))
                .collect();
            let g = EdgeList::from_pairs(n, pairs).unwrap();
            let p = GridPartition::with_chunk_size(n, chunk);
            let hist = p.block_histogram(&g);
            prop_assert_eq!(hist.len(), p.num_chunks() * p.num_chunks());
            prop_assert_eq!(hist.iter().sum::<usize>(), g.num_edges());
        }

        #[test]
        fn chunk_ranges_tile_the_vertex_set(n in 1usize..200, chunk in 1usize..32) {
            let p = GridPartition::with_chunk_size(n, chunk);
            let mut covered = 0usize;
            for c in 0..p.num_chunks() {
                let r = p.chunk_range(c);
                prop_assert_eq!(r.start as usize, covered);
                covered = r.end as usize;
            }
            prop_assert_eq!(covered, n);
        }
    }
}
