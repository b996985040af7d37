//! Compressed-sparse-row adjacency (paper §2.4, Figure 4c).
//!
//! A [`Csr`] groups the out-edges of each vertex contiguously, giving the
//! "local sequential / global random" access pattern of Figure 1(b). The
//! gold algorithms and the CPU-substrate vertex iteration both run on it.
//! A CSC is simply the CSR of the transposed graph
//! ([`crate::EdgeList::to_csc`]).

use crate::coo::EdgeList;
use crate::VertexId;

/// Compressed sparse row adjacency structure.
///
/// # Examples
///
/// ```
/// use graphr_graph::EdgeList;
///
/// let g = EdgeList::from_pairs(3, [(0, 1), (0, 2), (2, 0)])?;
/// let csr = g.to_csr();
/// assert_eq!(csr.out_degree(0), 2);
/// let targets: Vec<u32> = csr.neighbors(0).map(|(dst, _w)| dst).collect();
/// assert_eq!(targets, vec![1, 2]);
/// # Ok::<(), graphr_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    num_vertices: usize,
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    weights: Vec<f32>,
}

impl Csr {
    /// Builds a CSR from a coordinate list. Edges of each source vertex end
    /// up sorted by destination.
    #[must_use]
    pub fn from_edge_list(list: &EdgeList) -> Self {
        let n = list.num_vertices();
        let mut counts = vec![0usize; n + 1];
        for e in list.iter() {
            counts[e.src as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let m = list.num_edges();
        let mut targets = vec![0 as VertexId; m];
        let mut weights = vec![0f32; m];
        for e in list.iter() {
            let pos = cursor[e.src as usize];
            targets[pos] = e.dst;
            weights[pos] = e.weight;
            cursor[e.src as usize] += 1;
        }
        // Sort each row by destination for deterministic iteration.
        let mut csr = Csr {
            num_vertices: n,
            offsets,
            targets,
            weights,
        };
        csr.sort_rows();
        csr
    }

    fn sort_rows(&mut self) {
        for v in 0..self.num_vertices {
            let (lo, hi) = (self.offsets[v], self.offsets[v + 1]);
            let mut row: Vec<(VertexId, f32)> = (lo..hi)
                .map(|i| (self.targets[i], self.weights[i]))
                .collect();
            row.sort_by_key(|&(d, _)| d);
            for (k, (d, w)) in row.into_iter().enumerate() {
                self.targets[lo + k] = d;
                self.weights[lo + k] = w;
            }
        }
    }

    /// Number of vertices.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Iterates over the `(destination, weight)` pairs of vertex `v`'s
    /// out-edges, sorted by destination.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f32)> + '_ {
        let lo = self.offsets[v as usize];
        let hi = self.offsets[v as usize + 1];
        self.targets[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }

    /// The row-offset array (length `num_vertices + 1`) — the `rowptr` of
    /// Figure 4(c).
    #[must_use]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// All edge targets, row-major.
    #[must_use]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// All edge weights, row-major, parallel to [`Csr::targets`].
    #[must_use]
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Iterates over all edges as `(src, dst, weight)` triples.
    pub fn edge_triples(&self) -> impl Iterator<Item = (VertexId, VertexId, f32)> + '_ {
        (0..self.num_vertices as VertexId)
            .flat_map(move |v| self.neighbors(v).map(move |(d, w)| (v, d, w)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Edge;
    use proptest::prelude::*;

    #[test]
    fn matches_figure_4_example() {
        // The sparse matrix of paper Figure 4(a):
        // row 0: (0,2,3), (0,3,8); row 1: (1,2,7); row 2: (2,0,1);
        // row 3: (3,1,4), (3,3,2)
        let g = EdgeList::from_edges(
            4,
            vec![
                Edge::new(0, 2, 3.0),
                Edge::new(0, 3, 8.0),
                Edge::new(1, 2, 7.0),
                Edge::new(2, 0, 1.0),
                Edge::new(3, 1, 4.0),
                Edge::new(3, 3, 2.0),
            ],
        )
        .unwrap();
        let csr = g.to_csr();
        // rowptr of Figure 4(c): 0 2 3 4 6
        assert_eq!(csr.offsets(), &[0, 2, 3, 4, 6]);
        let row0: Vec<_> = csr.neighbors(0).collect();
        assert_eq!(row0, vec![(2, 3.0), (3, 8.0)]);
        assert_eq!(csr.out_degree(2), 1);
        assert_eq!(csr.num_edges(), 6);
    }

    #[test]
    fn csc_is_csr_of_transpose() {
        let g = EdgeList::from_edges(
            4,
            vec![
                Edge::new(0, 2, 3.0),
                Edge::new(0, 3, 8.0),
                Edge::new(1, 2, 7.0),
                Edge::new(2, 0, 1.0),
                Edge::new(3, 1, 4.0),
                Edge::new(3, 3, 2.0),
            ],
        )
        .unwrap();
        let csc = g.to_csc();
        // colptr of Figure 4(b): 0 1 2 4 6
        assert_eq!(csc.offsets(), &[0, 1, 2, 4, 6]);
        let col2: Vec<_> = csc.neighbors(2).collect();
        assert_eq!(col2, vec![(0, 3.0), (1, 7.0)]);
    }

    #[test]
    fn empty_graph_has_empty_rows() {
        let csr = EdgeList::new(3).to_csr();
        assert_eq!(csr.num_edges(), 0);
        assert_eq!(csr.out_degree(1), 0);
        assert_eq!(csr.neighbors(2).count(), 0);
    }

    #[test]
    fn edge_triples_enumerates_everything() {
        let g = EdgeList::from_pairs(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        let csr = g.to_csr();
        let triples: Vec<_> = csr.edge_triples().collect();
        assert_eq!(triples, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]);
    }

    proptest! {
        #[test]
        fn csr_preserves_edge_multiset(
            n in 1usize..32,
            raw in proptest::collection::vec((0u32..32, 0u32..32), 0..200),
        ) {
            let pairs: Vec<(u32, u32)> = raw
                .into_iter()
                .map(|(s, d)| (s % n as u32, d % n as u32))
                .collect();
            let g = EdgeList::from_pairs(n, pairs.clone()).unwrap();
            let csr = g.to_csr();
            prop_assert_eq!(csr.num_edges(), pairs.len());
            let mut expect = pairs;
            expect.sort_unstable();
            let mut got: Vec<(u32, u32)> =
                csr.edge_triples().map(|(s, d, _)| (s, d)).collect();
            got.sort_unstable();
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn degrees_sum_to_edge_count(
            n in 1usize..32,
            raw in proptest::collection::vec((0u32..32, 0u32..32), 0..200),
        ) {
            let pairs: Vec<(u32, u32)> = raw
                .into_iter()
                .map(|(s, d)| (s % n as u32, d % n as u32))
                .collect();
            let g = EdgeList::from_pairs(n, pairs).unwrap();
            let csr = g.to_csr();
            let total: usize = (0..n as u32).map(|v| csr.out_degree(v)).sum();
            prop_assert_eq!(total, csr.num_edges());
        }
    }
}
