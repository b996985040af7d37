//! Gold PageRank (paper Figure 13).
//!
//! The paper's vertex program computes
//! `PR_{t+1} = r · M · PR_t + (1 − r) · e`, where `M` is the column-
//! stochastic transition matrix, `r` the damping factor and `e` the uniform
//! vector. Vertices without out-edges (dangling) are either ignored — the
//! literal Figure 13 program — or their rank mass is redistributed
//! uniformly, which preserves `Σ PR = 1`.

use crate::csr::Csr;

/// How dangling vertices (out-degree zero) are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DanglingPolicy {
    /// Redistribute dangling mass uniformly; keeps `Σ PR = 1`.
    #[default]
    Redistribute,
    /// Drop dangling mass, exactly as the paper's Figure 13 program does.
    Ignore,
}

/// PageRank parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankParams {
    /// Damping factor `r` (probability of following a link). The paper's
    /// worked example uses 4/5; the classic value is 0.85.
    pub damping: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// L1 convergence threshold on the rank delta.
    pub tolerance: f64,
    /// Dangling-vertex policy.
    pub dangling: DanglingPolicy,
}

impl Default for PageRankParams {
    fn default() -> Self {
        PageRankParams {
            damping: 0.85,
            max_iterations: 100,
            tolerance: 1e-9,
            dangling: DanglingPolicy::Redistribute,
        }
    }
}

/// The result of a PageRank run.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankResult {
    /// Final rank per vertex.
    pub ranks: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the tolerance was reached before the iteration cap.
    pub converged: bool,
}

/// Runs PageRank on the out-edge CSR of a graph.
///
/// # Examples
///
/// ```
/// use graphr_graph::generators::structured::cycle;
/// use graphr_graph::algorithms::pagerank::{pagerank, PageRankParams};
///
/// // On a cycle every vertex is symmetric, so ranks are uniform.
/// let csr = cycle(5).to_csr();
/// let r = pagerank(&csr, &PageRankParams::default());
/// assert!(r.converged);
/// for &rank in &r.ranks {
///     assert!((rank - 0.2).abs() < 1e-7);
/// }
/// ```
///
/// # Panics
///
/// Panics if the graph has no vertices or `damping` is outside `[0, 1)`.
#[must_use]
pub fn pagerank(csr: &Csr, params: &PageRankParams) -> PageRankResult {
    let n = csr.num_vertices();
    assert!(n > 0, "pagerank requires at least one vertex");
    assert!(
        (0.0..1.0).contains(&params.damping),
        "damping must be in [0, 1), got {}",
        params.damping
    );
    let r = params.damping;
    let base = (1.0 - r) / n as f64;
    let mut ranks = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let mut iterations = 0;
    let mut converged = false;

    while iterations < params.max_iterations {
        iterations += 1;
        next.fill(0.0);
        let mut dangling_mass = 0.0;
        for v in 0..n as u32 {
            let deg = csr.out_degree(v);
            if deg == 0 {
                dangling_mass += ranks[v as usize];
                continue;
            }
            let share = ranks[v as usize] / deg as f64;
            for (dst, _w) in csr.neighbors(v) {
                next[dst as usize] += share;
            }
        }
        let dangling_share = match params.dangling {
            DanglingPolicy::Redistribute => dangling_mass / n as f64,
            DanglingPolicy::Ignore => 0.0,
        };
        let mut delta = 0.0;
        for v in 0..n {
            let updated = base + r * (next[v] + dangling_share);
            delta += (updated - ranks[v]).abs();
            ranks[v] = updated;
        }
        if delta < params.tolerance {
            converged = true;
            break;
        }
    }
    PageRankResult {
        ranks,
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::rmat::Rmat;
    use crate::generators::structured::{complete, cycle, path, star};
    use proptest::prelude::*;

    fn run(csr: &Csr) -> PageRankResult {
        pagerank(csr, &PageRankParams::default())
    }

    #[test]
    fn uniform_on_symmetric_graphs() {
        for g in [cycle(7), complete(6)] {
            let res = run(&g.to_csr());
            let expect = 1.0 / g.num_vertices() as f64;
            for &r in &res.ranks {
                assert!((r - expect).abs() < 1e-7, "rank {r} != {expect}");
            }
        }
    }

    #[test]
    fn redistribute_preserves_probability_mass() {
        let g = Rmat::new(128, 512).seed(3).generate();
        let res = run(&g.to_csr());
        let total: f64 = res.ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass {total} escaped");
    }

    #[test]
    fn ignore_policy_loses_dangling_mass() {
        // A path ends in a dangling vertex, so Ignore must lose mass.
        let csr = path(4).to_csr();
        let res = pagerank(
            &csr,
            &PageRankParams {
                dangling: DanglingPolicy::Ignore,
                ..PageRankParams::default()
            },
        );
        let total: f64 = res.ranks.iter().sum();
        assert!(total < 1.0 - 1e-6, "expected mass loss, got {total}");
    }

    #[test]
    fn star_hub_outranks_spokes_under_backlinks() {
        // Reverse star: all spokes point at the hub.
        let g = star(10).transposed();
        let res = run(&g.to_csr());
        let hub = res.ranks[0];
        for &spoke in &res.ranks[1..] {
            assert!(hub > spoke, "hub {hub} should outrank spoke {spoke}");
        }
    }

    #[test]
    fn matches_paper_example_matrix() {
        // §4.1's 4-vertex example: M = [0,1/2,1,0; 1/3,0,0,1/2;
        // 1/3,0,0,1/2; 1/3,1/2,0,0], r = 4/5. M is column-stochastic, so
        // the graph is: vertex j's column lists where j's rank flows.
        // Column 0 (out-edges of 0): to 1, 2, 3 (deg 3). Column 1: to 0
        // and 3 (deg 2). Column 2: to 0 (deg 1). Column 3: to 1, 2 (deg 2).
        let g = crate::EdgeList::from_pairs(
            4,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 0),
                (1, 3),
                (2, 0),
                (3, 1),
                (3, 2),
            ],
        )
        .unwrap();
        let res = pagerank(
            &g.to_csr(),
            &PageRankParams {
                damping: 0.8,
                ..PageRankParams::default()
            },
        );
        // One hand-computed power iteration from uniform [1/4; 4]:
        // next = 0.05 + 0.8 * (M * 1/4) — spot-check ordering instead of
        // exact values after convergence: vertex 0 receives from 1 (1/2)
        // and 2 (1), making it the top-ranked vertex.
        let top = res
            .ranks
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(top, 0);
        assert!((res.ranks.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn converges_and_reports_iterations() {
        let res = run(&cycle(3).to_csr());
        assert!(res.converged);
        assert!(res.iterations < 100);
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn rejects_bad_damping() {
        let _ = pagerank(
            &cycle(2).to_csr(),
            &PageRankParams {
                damping: 1.5,
                ..PageRankParams::default()
            },
        );
    }

    proptest! {
        #[test]
        fn ranks_positive_and_sum_to_one(
            n in 2usize..40,
            edge_factor in 1usize..8,
            seed in 0u64..50,
        ) {
            let g = Rmat::new(n, n * edge_factor).seed(seed).generate();
            let res = run(&g.to_csr());
            prop_assert!(res.ranks.iter().all(|&r| r > 0.0));
            let total: f64 = res.ranks.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-8);
        }
    }
}
