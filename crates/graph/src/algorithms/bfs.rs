//! Gold breadth-first search.
//!
//! The paper treats BFS as the unit-weight special case of SSSP (Table 2:
//! `E.value = 1 + V.prop`, `reduce = min`); the gold implementation is a
//! classic queue-based traversal producing hop counts ("levels").

use std::collections::VecDeque;

use crate::csr::Csr;
use crate::VertexId;

/// The result of a BFS run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsResult {
    /// Hop count from the source, `None` for unreachable vertices.
    pub levels: Vec<Option<u32>>,
    /// Number of vertices reached (including the source).
    pub reached: usize,
}

/// Runs BFS from `source` over the out-edge CSR.
///
/// # Examples
///
/// ```
/// use graphr_graph::generators::structured::path;
/// use graphr_graph::algorithms::bfs::bfs;
///
/// let r = bfs(&path(4).to_csr(), 0);
/// assert_eq!(r.levels, vec![Some(0), Some(1), Some(2), Some(3)]);
/// assert_eq!(r.reached, 4);
/// ```
///
/// # Panics
///
/// Panics if `source` is out of range.
#[must_use]
pub fn bfs(csr: &Csr, source: VertexId) -> BfsResult {
    assert!(
        (source as usize) < csr.num_vertices(),
        "source {source} out of range for {} vertices",
        csr.num_vertices()
    );
    let mut levels = vec![None; csr.num_vertices()];
    let mut queue = VecDeque::new();
    levels[source as usize] = Some(0);
    queue.push_back(source);
    let mut reached = 1;
    while let Some(u) = queue.pop_front() {
        let next = levels[u as usize].expect("queued vertices have levels") + 1;
        for (v, _w) in csr.neighbors(u) {
            if levels[v as usize].is_none() {
                levels[v as usize] = Some(next);
                reached += 1;
                queue.push_back(v);
            }
        }
    }
    BfsResult { levels, reached }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::rmat::Rmat;
    use crate::generators::structured::{cycle, grid, star};
    use proptest::prelude::*;

    #[test]
    fn star_reaches_all_in_one_hop() {
        let r = bfs(&star(6).to_csr(), 0);
        assert_eq!(r.levels[0], Some(0));
        assert!(r.levels[1..].iter().all(|&l| l == Some(1)));
        assert_eq!(r.reached, 6);
    }

    #[test]
    fn spokes_cannot_reach_hub() {
        let r = bfs(&star(6).to_csr(), 3);
        assert_eq!(r.reached, 1);
        assert_eq!(r.levels[0], None);
    }

    #[test]
    fn cycle_levels_wrap() {
        let r = bfs(&cycle(5).to_csr(), 2);
        assert_eq!(r.levels, vec![Some(3), Some(4), Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn grid_levels_are_manhattan_distance() {
        let r = bfs(&grid(3, 3).to_csr(), 0);
        // Vertex (r, c) has level r + c.
        for row in 0..3u32 {
            for col in 0..3u32 {
                assert_eq!(r.levels[(row * 3 + col) as usize], Some(row + col));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_source() {
        let _ = bfs(&cycle(3).to_csr(), 9);
    }

    proptest! {
        #[test]
        fn levels_satisfy_edge_relaxation(
            n in 2usize..50,
            edge_factor in 1usize..6,
            seed in 0u64..30,
        ) {
            let g = Rmat::new(n, n * edge_factor).seed(seed).generate();
            let csr = g.to_csr();
            let r = bfs(&csr, 0);
            // For every edge u→v with u reached: level(v) <= level(u) + 1,
            // and v must be reached.
            for (u, v, _w) in csr.edge_triples() {
                if let Some(lu) = r.levels[u as usize] {
                    let lv = r.levels[v as usize];
                    prop_assert!(lv.is_some());
                    prop_assert!(lv.unwrap() <= lu + 1);
                }
            }
            // Every reached non-source vertex has an in-neighbour exactly
            // one level shallower (parent property).
            prop_assert_eq!(
                r.reached,
                r.levels.iter().filter(|l| l.is_some()).count()
            );
        }
    }
}
