//! Structural graph statistics used by the dataset table and the
//! sparsity-sensitivity experiment.

use crate::coo::EdgeList;

/// Summary statistics of a graph's structure.
///
/// # Examples
///
/// ```
/// use graphr_graph::analysis::GraphProfile;
/// use graphr_graph::generators::structured::star;
///
/// let profile = GraphProfile::of(&star(11));
/// assert_eq!(profile.max_out_degree, 10);
/// assert_eq!(profile.isolated_vertices, 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GraphProfile {
    /// Vertex count.
    pub num_vertices: usize,
    /// Edge count.
    pub num_edges: usize,
    /// `|E| / |V|²` — the paper's density measure (Figure 21 x-axis).
    pub density: f64,
    /// Mean out-degree.
    pub mean_degree: f64,
    /// Largest out-degree.
    pub max_out_degree: u32,
    /// Largest in-degree.
    pub max_in_degree: u32,
    /// Vertices with neither in- nor out-edges.
    pub isolated_vertices: usize,
    /// Number of self-loops.
    pub self_loops: usize,
}

impl GraphProfile {
    /// Computes the profile of `graph`.
    #[must_use]
    pub fn of(graph: &EdgeList) -> Self {
        let out = graph.out_degrees();
        let inn = graph.in_degrees();
        let isolated = out
            .iter()
            .zip(&inn)
            .filter(|&(&o, &i)| o == 0 && i == 0)
            .count();
        let self_loops = graph.iter().filter(|e| e.src == e.dst).count();
        GraphProfile {
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
            density: graph.density(),
            mean_degree: if graph.num_vertices() == 0 {
                0.0
            } else {
                graph.num_edges() as f64 / graph.num_vertices() as f64
            },
            max_out_degree: out.iter().copied().max().unwrap_or(0),
            max_in_degree: inn.iter().copied().max().unwrap_or(0),
            isolated_vertices: isolated,
            self_loops,
        }
    }
}

/// The out-degree distribution as `(degree, vertex_count)` pairs sorted by
/// degree — used to verify that R-MAT clones are degree-skewed like their
/// SNAP originals.
#[must_use]
pub fn degree_histogram(graph: &EdgeList) -> Vec<(u32, usize)> {
    let mut counts = std::collections::BTreeMap::new();
    for d in graph.out_degrees() {
        *counts.entry(d).or_insert(0usize) += 1;
    }
    counts.into_iter().collect()
}

/// A power-law-ness proxy: the fraction of all edges owned by the top
/// `fraction` highest-out-degree vertices. Social graphs concentrate edges
/// heavily (e.g. top 10% owning well over half).
///
/// # Panics
///
/// Panics if `fraction` is outside `(0, 1]`.
#[must_use]
pub fn edge_concentration(graph: &EdgeList, fraction: f64) -> f64 {
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "fraction must be in (0, 1], got {fraction}"
    );
    if graph.num_edges() == 0 {
        return 0.0;
    }
    let mut deg = graph.out_degrees();
    deg.sort_unstable_by(|a, b| b.cmp(a));
    let k = ((graph.num_vertices() as f64 * fraction).ceil() as usize)
        .clamp(1, graph.num_vertices().max(1));
    let top: u64 = deg[..k].iter().map(|&d| u64::from(d)).sum();
    top as f64 / graph.num_edges() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::rmat::Rmat;
    use crate::generators::structured::{complete, star};

    #[test]
    fn profile_of_star() {
        let p = GraphProfile::of(&star(5));
        assert_eq!(p.num_vertices, 5);
        assert_eq!(p.num_edges, 4);
        assert_eq!(p.max_out_degree, 4);
        assert_eq!(p.max_in_degree, 1);
        assert_eq!(p.self_loops, 0);
        assert_eq!(p.mean_degree, 0.8);
    }

    #[test]
    fn profile_counts_isolated_and_loops() {
        let g = EdgeList::from_pairs(4, [(0, 0), (0, 1)]).unwrap();
        let p = GraphProfile::of(&g);
        assert_eq!(p.self_loops, 1);
        assert_eq!(p.isolated_vertices, 2); // vertices 2 and 3
    }

    #[test]
    fn histogram_covers_all_vertices() {
        let g = complete(5);
        let hist = degree_histogram(&g);
        assert_eq!(hist, vec![(4, 5)]);
    }

    #[test]
    fn rmat_is_more_concentrated_than_uniform() {
        let skewed = Rmat::new(512, 4096).seed(2).generate();
        let uniform = Rmat::new(512, 4096)
            .skew(0.25, 0.25, 0.25)
            .seed(2)
            .generate();
        let cs = edge_concentration(&skewed, 0.1);
        let cu = edge_concentration(&uniform, 0.1);
        assert!(cs > cu, "skewed {cs} should exceed uniform {cu}");
    }

    #[test]
    fn concentration_of_everything_is_one() {
        let g = complete(6);
        assert!((edge_concentration(&g, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn concentration_rejects_zero_fraction() {
        let _ = edge_concentration(&star(3), 0.0);
    }
}
