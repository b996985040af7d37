//! Gold single-source shortest paths (paper Figure 14).
//!
//! Two independent implementations — Dijkstra with a binary heap and
//! Bellman-Ford — cross-check each other in tests. The accelerator model's
//! iterative relaxation (§4.2) is exactly Bellman-Ford in disguise, so
//! agreement between all three is strong evidence of correctness.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::csr::Csr;
use crate::VertexId;

/// The result of an SSSP run.
#[derive(Debug, Clone, PartialEq)]
pub struct SsspResult {
    /// Shortest distance from the source, `None` for unreachable vertices.
    pub distances: Vec<Option<f64>>,
}

impl SsspResult {
    /// Number of reachable vertices (including the source).
    #[must_use]
    pub fn reached(&self) -> usize {
        self.distances.iter().filter(|d| d.is_some()).count()
    }
}

/// Dijkstra's algorithm from `source`.
///
/// # Examples
///
/// ```
/// use graphr_graph::generators::structured::path;
/// use graphr_graph::algorithms::sssp::dijkstra;
///
/// let r = dijkstra(&path(3).to_csr(), 0);
/// assert_eq!(r.distances, vec![Some(0.0), Some(1.0), Some(2.0)]);
/// ```
///
/// # Panics
///
/// Panics if `source` is out of range or any traversed edge weight is
/// negative (ReRAM conductances cannot encode negative distances and the
/// paper's SSSP assumes non-negative weights).
#[must_use]
pub fn dijkstra(csr: &Csr, source: VertexId) -> SsspResult {
    assert!(
        (source as usize) < csr.num_vertices(),
        "source {source} out of range for {} vertices",
        csr.num_vertices()
    );
    let mut dist: Vec<Option<f64>> = vec![None; csr.num_vertices()];
    let mut heap: BinaryHeap<Reverse<(OrdF64, VertexId)>> = BinaryHeap::new();
    dist[source as usize] = Some(0.0);
    heap.push(Reverse((OrdF64(0.0), source)));
    while let Some(Reverse((OrdF64(d), u))) = heap.pop() {
        if dist[u as usize].is_some_and(|known| known < d) {
            continue; // stale heap entry
        }
        for (v, w) in csr.neighbors(u) {
            assert!(w >= 0.0, "negative weight on edge ({u}, {v})");
            let candidate = d + f64::from(w);
            if dist[v as usize].is_none_or(|known| candidate < known) {
                dist[v as usize] = Some(candidate);
                heap.push(Reverse((OrdF64(candidate), v)));
            }
        }
    }
    SsspResult { distances: dist }
}

/// Bellman-Ford from `source`: iterative relaxation until fixpoint, the
/// same computation the GraphR add-op pattern performs in crossbars.
///
/// # Panics
///
/// Panics if `source` is out of range or any edge weight is negative.
#[must_use]
pub fn bellman_ford(csr: &Csr, source: VertexId) -> SsspResult {
    assert!(
        (source as usize) < csr.num_vertices(),
        "source {source} out of range for {} vertices",
        csr.num_vertices()
    );
    let n = csr.num_vertices();
    let mut dist: Vec<Option<f64>> = vec![None; n];
    dist[source as usize] = Some(0.0);
    // Non-negative weights guarantee convergence within n-1 rounds.
    for _round in 0..n {
        let mut changed = false;
        for (u, v, w) in csr.edge_triples() {
            assert!(w >= 0.0, "negative weight on edge ({u}, {v})");
            if let Some(du) = dist[u as usize] {
                let candidate = du + f64::from(w);
                if dist[v as usize].is_none_or(|known| candidate < known) {
                    dist[v as usize] = Some(candidate);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    SsspResult { distances: dist }
}

/// Total-ordered f64 wrapper for the heap (weights are checked non-NaN at
/// graph construction).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::{Edge, EdgeList};
    use crate::generators::rmat::Rmat;
    use crate::generators::structured::grid;
    use proptest::prelude::*;

    #[test]
    fn matches_figure_16_example() {
        // The 8-vertex subgraph of paper Figure 16(c1): sources i0..i3
        // (ids 0..4) with initial distances [4,3,1,2] from some earlier
        // computation, dests j0..j3 (ids 4..8). Edges: i0→j1 (1), i0→j2 (5),
        // i1→j2 (3), i1→j3 (1), i3→j2 (1). We model the "initial distance"
        // by a virtual source 8 with edges of those weights.
        let mut g = EdgeList::new(9);
        for (src, dst, w) in [
            (0u32, 5u32, 1.0f32),
            (0, 6, 5.0),
            (1, 6, 3.0),
            (1, 7, 1.0),
            (3, 6, 1.0),
        ] {
            g.add_edge(Edge::new(src, dst, w)).unwrap();
        }
        for (i, w) in [(0u32, 4.0f32), (1, 3.0), (2, 1.0), (3, 2.0)] {
            g.add_edge(Edge::new(8, i, w)).unwrap();
        }
        // Initial dist(v) for j0..j3 were [7,6,M,M]; model j0's 7 and j1's 6
        // via direct virtual edges.
        g.add_edge(Edge::new(8, 4, 7.0)).unwrap();
        g.add_edge(Edge::new(8, 5, 6.0)).unwrap();
        let r = dijkstra(&g.to_csr(), 8);
        // Figure 16(c3) final output after t=4: [7, 5, 3, 4] for j0..j3.
        assert_eq!(r.distances[4], Some(7.0));
        assert_eq!(r.distances[5], Some(5.0));
        assert_eq!(r.distances[6], Some(3.0));
        assert_eq!(r.distances[7], Some(4.0));
    }

    #[test]
    fn unreachable_vertices_are_none() {
        let g = EdgeList::from_pairs(4, [(0, 1)]).unwrap();
        let r = dijkstra(&g.to_csr(), 0);
        assert_eq!(r.distances[2], None);
        assert_eq!(r.distances[3], None);
        assert_eq!(r.reached(), 2);
    }

    #[test]
    fn grid_distances_are_manhattan() {
        let r = dijkstra(&grid(4, 4).to_csr(), 0);
        for row in 0..4 {
            for col in 0..4 {
                assert_eq!(r.distances[row * 4 + col], Some((row + col) as f64));
            }
        }
    }

    #[test]
    fn shorter_path_wins_over_fewer_hops() {
        // 0→1 (10) vs 0→2→1 (1+1).
        let g = EdgeList::from_edges(
            3,
            vec![
                Edge::new(0, 1, 10.0),
                Edge::new(0, 2, 1.0),
                Edge::new(2, 1, 1.0),
            ],
        )
        .unwrap();
        let r = dijkstra(&g.to_csr(), 0);
        assert_eq!(r.distances[1], Some(2.0));
    }

    #[test]
    #[should_panic(expected = "negative weight")]
    fn rejects_negative_weights() {
        let g = EdgeList::from_edges(2, vec![Edge::new(0, 1, -1.0)]).unwrap();
        let _ = dijkstra(&g.to_csr(), 0);
    }

    proptest! {
        #[test]
        fn dijkstra_agrees_with_bellman_ford(
            n in 2usize..40,
            edge_factor in 1usize..6,
            seed in 0u64..30,
        ) {
            let g = Rmat::new(n, n * edge_factor)
                .seed(seed)
                .max_weight(16)
                .generate();
            let csr = g.to_csr();
            let a = dijkstra(&csr, 0);
            let b = bellman_ford(&csr, 0);
            for v in 0..n {
                match (a.distances[v], b.distances[v]) {
                    (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-9),
                    (None, None) => {}
                    other => prop_assert!(false, "mismatch at {v}: {other:?}"),
                }
            }
        }

        #[test]
        fn distances_satisfy_triangle_inequality(
            n in 2usize..40,
            seed in 0u64..20,
        ) {
            let g = Rmat::new(n, n * 4).seed(seed).max_weight(8).generate();
            let csr = g.to_csr();
            let r = dijkstra(&csr, 0);
            for (u, v, w) in csr.edge_triples() {
                if let Some(du) = r.distances[u as usize] {
                    let dv = r.distances[v as usize].expect("edge target reachable");
                    prop_assert!(dv <= du + f64::from(w) + 1e-9);
                }
            }
        }
    }
}
