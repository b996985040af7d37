//! R-MAT (recursive matrix) generator.
//!
//! R-MAT with the Graph500 parameters `(a, b, c, d) = (0.57, 0.19, 0.19,
//! 0.05)` produces the skewed degree distributions and community-like edge
//! clustering of real social/web graphs — the properties that drive GraphR's
//! tile occupancy and the CPU baseline's cache behaviour. The dataset
//! catalog uses it to clone the SNAP graphs of Table 3.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::coo::{Edge, EdgeList};
use crate::generators::draw_weight;

/// Builder for R-MAT graphs.
///
/// # Examples
///
/// ```
/// use graphr_graph::generators::rmat::Rmat;
///
/// let g = Rmat::new(256, 1024).seed(42).max_weight(64).generate();
/// assert_eq!(g.num_vertices(), 256);
/// assert_eq!(g.num_edges(), 1024);
/// // Determinism: the same builder yields the same graph.
/// let h = Rmat::new(256, 1024).seed(42).max_weight(64).generate();
/// assert_eq!(g, h);
/// ```
#[derive(Debug, Clone)]
pub struct Rmat {
    num_vertices: usize,
    num_edges: usize,
    a: f64,
    b: f64,
    c: f64,
    seed: u64,
    max_weight: u32,
    allow_self_loops: bool,
}

impl Rmat {
    /// Creates a generator for a graph with `num_vertices` vertices (rounded
    /// up internally to a power of two for recursion, then mapped back down)
    /// and exactly `num_edges` edges, using Graph500 skew parameters.
    #[must_use]
    pub fn new(num_vertices: usize, num_edges: usize) -> Self {
        Rmat {
            num_vertices,
            num_edges,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed: 1,
            max_weight: 1,
            allow_self_loops: true,
        }
    }

    /// Sets the RNG seed (default 1).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the quadrant probabilities `(a, b, c)`; `d = 1 - a - b - c`.
    ///
    /// # Panics
    ///
    /// Panics if any probability is negative or `a + b + c > 1`.
    #[must_use]
    pub fn skew(mut self, a: f64, b: f64, c: f64) -> Self {
        assert!(
            a >= 0.0 && b >= 0.0 && c >= 0.0 && a + b + c <= 1.0,
            "invalid R-MAT quadrant probabilities ({a}, {b}, {c})"
        );
        self.a = a;
        self.b = b;
        self.c = c;
        self
    }

    /// Sets the maximum integer edge weight (default 1, i.e. unweighted).
    #[must_use]
    pub fn max_weight(mut self, w: u32) -> Self {
        self.max_weight = w;
        self
    }

    /// Controls whether self-loops are kept (default) or re-drawn.
    #[must_use]
    pub fn self_loops(mut self, allow: bool) -> Self {
        self.allow_self_loops = allow;
        self
    }

    /// Generates the graph.
    ///
    /// # Panics
    ///
    /// Panics if `num_vertices` is zero while `num_edges` is not, or if
    /// self-loops are off and `num_vertices` is one while `num_edges` is
    /// not zero: the only cell is a self-loop, so no edge can be drawn.
    #[must_use]
    pub fn generate(&self) -> EdgeList {
        assert!(
            self.num_vertices > 0 || self.num_edges == 0,
            "cannot place edges in an empty vertex set"
        );
        assert!(
            self.allow_self_loops || self.num_vertices > 1 || self.num_edges == 0,
            "cannot place edges on one vertex without self-loops"
        );
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let levels = usize::BITS - self.num_vertices.next_power_of_two().leading_zeros() - 1;
        let levels = levels.max(1);
        let mut edges = Vec::with_capacity(self.num_edges);
        while edges.len() < self.num_edges {
            let (src, dst) = self.draw_cell(&mut rng, levels);
            if src >= self.num_vertices || dst >= self.num_vertices {
                continue; // outside the non-power-of-two corner; redraw
            }
            if !self.allow_self_loops && src == dst {
                continue;
            }
            let weight = draw_weight(&mut rng, self.max_weight);
            edges.push(Edge::new(src as u32, dst as u32, weight));
        }
        EdgeList::from_edges(self.num_vertices, edges)
            .expect("generator produced in-range vertices")
    }

    fn draw_cell(&self, rng: &mut SmallRng, levels: u32) -> (usize, usize) {
        let (mut row, mut col) = (0usize, 0usize);
        for _ in 0..levels {
            row <<= 1;
            col <<= 1;
            let r: f64 = rng.gen();
            if r < self.a {
                // top-left quadrant: nothing to add
            } else if r < self.a + self.b {
                col |= 1;
            } else if r < self.a + self.b + self.c {
                row |= 1;
            } else {
                row |= 1;
                col |= 1;
            }
        }
        (row, col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_edge_count_and_range() {
        let g = Rmat::new(100, 500).seed(3).generate();
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 500);
        assert!(g
            .iter()
            .all(|e| (e.src as usize) < 100 && (e.dst as usize) < 100));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Rmat::new(64, 256).seed(9).generate();
        let b = Rmat::new(64, 256).seed(9).generate();
        let c = Rmat::new(64, 256).seed(10).generate();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn skew_concentrates_edges_on_low_ids() {
        // With Graph500 skew, quadrant (0,0) gets visited most, so low
        // vertex ids accumulate much more degree than high ones.
        let g = Rmat::new(1024, 8192).seed(5).generate();
        let deg = g.out_degrees();
        let low: u32 = deg[..256].iter().sum();
        let high: u32 = deg[768..].iter().sum();
        assert!(
            low > 3 * high,
            "expected skew toward low ids, got low={low} high={high}"
        );
    }

    #[test]
    fn uniform_skew_is_roughly_uniform() {
        let g = Rmat::new(256, 4096)
            .skew(0.25, 0.25, 0.25)
            .seed(11)
            .generate();
        let deg = g.out_degrees();
        let low: u32 = deg[..128].iter().sum();
        let high: u32 = deg[128..].iter().sum();
        let ratio = f64::from(low) / f64::from(high.max(1));
        assert!((0.7..1.4).contains(&ratio), "ratio {ratio} not near 1");
    }

    #[test]
    fn no_self_loops_when_disabled() {
        let g = Rmat::new(64, 512).self_loops(false).seed(2).generate();
        assert!(g.iter().all(|e| e.src != e.dst));
    }

    #[test]
    fn weights_in_declared_range() {
        let g = Rmat::new(64, 512).max_weight(16).seed(2).generate();
        assert!(g
            .iter()
            .all(|e| (1.0..=16.0).contains(&e.weight) && e.weight.fract() == 0.0));
    }

    #[test]
    fn non_power_of_two_vertex_counts_work() {
        let g = Rmat::new(100, 300).seed(1).generate();
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 300);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Rmat::new(10, 0).generate();
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "one vertex without self-loops")]
    fn one_vertex_without_self_loops_panics() {
        let _ = Rmat::new(1, 5).self_loops(false).generate();
    }

    #[test]
    #[should_panic(expected = "invalid R-MAT")]
    fn bad_skew_panics() {
        let _ = Rmat::new(10, 10).skew(0.9, 0.9, 0.9);
    }
}
