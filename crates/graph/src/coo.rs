//! Coordinate-list (COO) edge storage — the representation GraphR assumes
//! for graphs on disk and in memory ReRAM (paper §2.4, Figure 5).

use crate::csr::Csr;
use crate::error::GraphError;
use crate::VertexId;

/// Bytes one COO edge record occupies in the binary on-disk / memory-ReRAM
/// layout: two 32-bit vertex ids plus a 32-bit weight (see [`crate::io`]).
/// Every consumer that prices streamed edge data (the executor's memory
/// charges, the out-of-core disk model) derives byte counts from this one
/// constant.
pub const BYTES_PER_EDGE: u64 = 12;

/// One directed, weighted edge: a `(source, destination, weight)` tuple —
/// exactly a COO entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Edge weight. Unweighted graphs use `1.0`.
    pub weight: f32,
}

impl Edge {
    /// Creates a weighted edge.
    #[must_use]
    pub fn new(src: VertexId, dst: VertexId, weight: f32) -> Self {
        Edge { src, dst, weight }
    }

    /// Creates an unweighted edge (weight `1.0`).
    #[must_use]
    pub fn unweighted(src: VertexId, dst: VertexId) -> Self {
        Edge::new(src, dst, 1.0)
    }
}

/// A directed graph stored as a coordinate list.
///
/// This is the "graph in COO format" of Figure 9: the form in which edges
/// live on disk, get preprocessed into streaming order, and are loaded into
/// GraphR's memory ReRAM. All other representations are derived from it.
///
/// # Examples
///
/// ```
/// use graphr_graph::{Edge, EdgeList};
///
/// let mut g = EdgeList::new(4);
/// g.add_edge(Edge::new(0, 1, 1.0))?;
/// g.add_edge(Edge::new(1, 2, 2.0))?;
/// g.add_edge(Edge::new(2, 3, 3.0))?;
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.out_degrees(), vec![1, 1, 1, 0]);
/// # Ok::<(), graphr_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EdgeList {
    num_vertices: usize,
    edges: Vec<Edge>,
}

impl EdgeList {
    /// Creates an empty graph over `num_vertices` vertices.
    #[must_use]
    pub fn new(num_vertices: usize) -> Self {
        EdgeList {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Creates a graph from a pre-built edge vector.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if any endpoint is `>=
    /// num_vertices`, or [`GraphError::InvalidWeight`] for non-finite
    /// weights.
    pub fn from_edges(num_vertices: usize, edges: Vec<Edge>) -> Result<Self, GraphError> {
        for e in &edges {
            Self::validate_edge(num_vertices, e)?;
        }
        Ok(EdgeList {
            num_vertices,
            edges,
        })
    }

    /// Convenience constructor from `(src, dst)` pairs with unit weights.
    ///
    /// # Errors
    ///
    /// Same as [`EdgeList::from_edges`].
    pub fn from_pairs(
        num_vertices: usize,
        pairs: impl IntoIterator<Item = (VertexId, VertexId)>,
    ) -> Result<Self, GraphError> {
        Self::from_edges(
            num_vertices,
            pairs
                .into_iter()
                .map(|(s, d)| Edge::unweighted(s, d))
                .collect(),
        )
    }

    fn validate_edge(num_vertices: usize, e: &Edge) -> Result<(), GraphError> {
        if (e.src as usize) >= num_vertices {
            return Err(GraphError::VertexOutOfRange {
                vertex: u64::from(e.src),
                num_vertices,
            });
        }
        if (e.dst as usize) >= num_vertices {
            return Err(GraphError::VertexOutOfRange {
                vertex: u64::from(e.dst),
                num_vertices,
            });
        }
        if !e.weight.is_finite() {
            return Err(GraphError::InvalidWeight {
                src: e.src,
                dst: e.dst,
            });
        }
        Ok(())
    }

    /// Appends one edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] or
    /// [`GraphError::InvalidWeight`] as in [`EdgeList::from_edges`].
    pub fn add_edge(&mut self, e: Edge) -> Result<(), GraphError> {
        Self::validate_edge(self.num_vertices, &e)?;
        self.edges.push(e);
        Ok(())
    }

    /// Number of vertices.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edges as a slice, in their current order.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterates over the edges.
    pub fn iter(&self) -> std::slice::Iter<'_, Edge> {
        self.edges.iter()
    }

    /// Graph density `|E| / |V|²` — the x-axis of the paper's Figure 21.
    #[must_use]
    pub fn density(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.edges.len() as f64 / (self.num_vertices as f64 * self.num_vertices as f64)
        }
    }

    /// Out-degree of every vertex.
    #[must_use]
    pub fn out_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices];
        for e in &self.edges {
            deg[e.src as usize] += 1;
        }
        deg
    }

    /// In-degree of every vertex.
    #[must_use]
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices];
        for e in &self.edges {
            deg[e.dst as usize] += 1;
        }
        deg
    }

    /// Sorts edges by `(src, dst)` — row-major order in matrix view, the
    /// order §3.4 assumes for the *input* of preprocessing.
    pub fn sort_source_major(&mut self) {
        self.edges.sort_by_key(|a| (a.src, a.dst));
    }

    /// Sorts edges by `(dst, src)` — column-major order in matrix view.
    pub fn sort_destination_major(&mut self) {
        self.edges.sort_by_key(|a| (a.dst, a.src));
    }

    /// Removes duplicate `(src, dst)` pairs, keeping the first occurrence.
    /// Sorts source-major as a side effect.
    pub fn dedup(&mut self) {
        self.sort_source_major();
        self.edges.dedup_by_key(|e| (e.src, e.dst));
    }

    /// Removes self-loops (`src == dst`).
    pub fn remove_self_loops(&mut self) {
        self.edges.retain(|e| e.src != e.dst);
    }

    /// Returns the transposed graph (every edge reversed). Used to turn an
    /// out-edge view into an in-edge view.
    #[must_use]
    pub fn transposed(&self) -> EdgeList {
        EdgeList {
            num_vertices: self.num_vertices,
            edges: self
                .edges
                .iter()
                .map(|e| Edge::new(e.dst, e.src, e.weight))
                .collect(),
        }
    }

    /// Builds a compressed-sparse-row view (out-edges grouped by source).
    #[must_use]
    pub fn to_csr(&self) -> Csr {
        Csr::from_edge_list(self)
    }

    /// Builds a compressed-sparse-column view, i.e. a CSR of the transpose
    /// (in-edges grouped by destination).
    #[must_use]
    pub fn to_csc(&self) -> Csr {
        Csr::from_edge_list(&self.transposed())
    }
}

impl<'a> IntoIterator for &'a EdgeList {
    type Item = &'a Edge;
    type IntoIter = std::slice::Iter<'a, Edge>;
    fn into_iter(self) -> Self::IntoIter {
        self.edges.iter()
    }
}

impl Extend<Edge> for EdgeList {
    /// Extends with edges, panicking on invalid ones (use [`EdgeList::add_edge`]
    /// for fallible insertion).
    fn extend<T: IntoIterator<Item = Edge>>(&mut self, iter: T) {
        for e in iter {
            self.add_edge(e).expect("invalid edge in Extend");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> EdgeList {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        EdgeList::from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn construction_validates_vertex_range() {
        let mut g = EdgeList::new(2);
        assert!(g.add_edge(Edge::unweighted(0, 1)).is_ok());
        assert!(matches!(
            g.add_edge(Edge::unweighted(0, 2)),
            Err(GraphError::VertexOutOfRange { vertex: 2, .. })
        ));
        assert!(matches!(
            g.add_edge(Edge::unweighted(5, 0)),
            Err(GraphError::VertexOutOfRange { vertex: 5, .. })
        ));
    }

    #[test]
    fn construction_rejects_non_finite_weights() {
        let mut g = EdgeList::new(2);
        assert!(matches!(
            g.add_edge(Edge::new(0, 1, f32::NAN)),
            Err(GraphError::InvalidWeight { .. })
        ));
        assert!(matches!(
            g.add_edge(Edge::new(0, 1, f32::INFINITY)),
            Err(GraphError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn degrees_count_correctly() {
        let g = diamond();
        assert_eq!(g.out_degrees(), vec![2, 1, 1, 0]);
        assert_eq!(g.in_degrees(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn density_matches_definition() {
        let g = diamond();
        assert_eq!(g.density(), 4.0 / 16.0);
        assert_eq!(EdgeList::new(0).density(), 0.0);
    }

    #[test]
    fn sort_orders_are_correct() {
        let mut g = EdgeList::from_pairs(3, [(2, 0), (0, 2), (1, 1), (0, 1)]).unwrap();
        g.sort_source_major();
        let pairs: Vec<_> = g.iter().map(|e| (e.src, e.dst)).collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 1), (2, 0)]);
        g.sort_destination_major();
        let pairs: Vec<_> = g.iter().map(|e| (e.src, e.dst)).collect();
        assert_eq!(pairs, vec![(2, 0), (0, 1), (1, 1), (0, 2)]);
    }

    #[test]
    fn dedup_removes_repeated_pairs() {
        let mut g = EdgeList::from_pairs(3, [(0, 1), (0, 1), (1, 2), (0, 1)]).unwrap();
        g.dedup();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn self_loops_are_removable() {
        let mut g = EdgeList::from_pairs(3, [(0, 0), (0, 1), (2, 2)]).unwrap();
        g.remove_self_loops();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edges()[0], Edge::unweighted(0, 1));
    }

    #[test]
    fn transpose_reverses_every_edge() {
        let g = diamond();
        let t = g.transposed();
        assert_eq!(t.num_edges(), g.num_edges());
        assert_eq!(t.out_degrees(), g.in_degrees());
        let tt = t.transposed();
        assert_eq!(tt, g);
    }

    #[test]
    fn into_iterator_yields_all_edges() {
        let g = diamond();
        assert_eq!((&g).into_iter().count(), 4);
    }

    #[test]
    fn extend_appends_edges() {
        let mut g = EdgeList::new(3);
        g.extend([Edge::unweighted(0, 1), Edge::unweighted(1, 2)]);
        assert_eq!(g.num_edges(), 2);
    }
}
