//! Gold weakly-connected components.
//!
//! Not one of the paper's four evaluated applications, but Table 2 is
//! explicitly non-exhaustive ("more examples (but not all) of supported
//! algorithms"), and component labelling is the textbook extra member of
//! the parallel add-op family: `processEdge` forwards the source's label,
//! `reduce` takes the minimum. The gold implementation is union-find; the
//! accelerator's label propagation must converge to the same partition with
//! each component labelled by its smallest vertex id.

use crate::coo::EdgeList;

/// The result of a components run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WccResult {
    /// Component label per vertex: the smallest vertex id in its component.
    pub labels: Vec<u32>,
    /// Number of distinct components.
    pub num_components: usize,
}

/// Computes weakly-connected components (edge direction ignored) by
/// union-find with path compression.
///
/// # Examples
///
/// ```
/// use graphr_graph::algorithms::wcc::wcc;
/// use graphr_graph::EdgeList;
///
/// let g = EdgeList::from_pairs(5, [(0, 1), (3, 4)])?;
/// let r = wcc(&g);
/// assert_eq!(r.labels, vec![0, 0, 2, 3, 3]);
/// assert_eq!(r.num_components, 3);
/// # Ok::<(), graphr_graph::GraphError>(())
/// ```
#[must_use]
pub fn wcc(graph: &EdgeList) -> WccResult {
    let n = graph.num_vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();

    fn find(parent: &mut [u32], v: u32) -> u32 {
        let mut root = v;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        // Path compression.
        let mut cur = v;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    for e in graph.iter() {
        let (a, b) = (find(&mut parent, e.src), find(&mut parent, e.dst));
        if a != b {
            // Union by smaller id so the final label is the minimum.
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            parent[hi as usize] = lo;
        }
    }
    let mut labels = vec![0u32; n];
    for v in 0..n as u32 {
        labels[v as usize] = find(&mut parent, v);
    }
    let mut distinct: Vec<u32> = labels.clone();
    distinct.sort_unstable();
    distinct.dedup();
    WccResult {
        labels,
        num_components: distinct.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::rmat::Rmat;
    use crate::generators::structured::{cycle, path, star};
    use proptest::prelude::*;

    #[test]
    fn structured_graphs() {
        assert_eq!(wcc(&path(4)).num_components, 1);
        assert_eq!(wcc(&cycle(6)).num_components, 1);
        assert_eq!(wcc(&star(8)).num_components, 1);
        assert_eq!(wcc(&EdgeList::new(5)).num_components, 5);
    }

    #[test]
    fn labels_are_component_minima() {
        let g = EdgeList::from_pairs(6, [(4, 5), (1, 2), (2, 3)]).unwrap();
        let r = wcc(&g);
        assert_eq!(r.labels, vec![0, 1, 1, 1, 4, 4]);
        assert_eq!(r.num_components, 3);
    }

    #[test]
    fn direction_is_ignored() {
        let forward = EdgeList::from_pairs(3, [(0, 1), (1, 2)]).unwrap();
        let backward = EdgeList::from_pairs(3, [(1, 0), (2, 1)]).unwrap();
        assert_eq!(wcc(&forward), wcc(&backward));
    }

    proptest! {
        #[test]
        fn labels_are_consistent_with_edges(
            n in 1usize..60,
            m in 0usize..200,
            seed in 0u64..20,
        ) {
            let g = Rmat::new(n, m).seed(seed).generate();
            let r = wcc(&g);
            // Every edge joins same-labelled vertices, and every label is
            // the id of a vertex labelling itself.
            for e in g.iter() {
                prop_assert_eq!(r.labels[e.src as usize], r.labels[e.dst as usize]);
            }
            for (v, &l) in r.labels.iter().enumerate() {
                prop_assert!(l as usize <= v);
                prop_assert_eq!(r.labels[l as usize], l);
            }
        }
    }
}
