//! X-Stream-style edge-centric scatter/gather (paper §2.1, Figure 2a).
//!
//! Scatter streams edges and *materialises an update record* per processed
//! edge (sequential write); gather streams the update list back and applies
//! it to vertex properties. The update traffic — absent in GridGraph's dual
//! sliding windows — is X-Stream's "notable drawback" the paper calls out,
//! and the `ablation_cpu_engine` bench target quantifies it with this
//! module.

use graphr_graph::EdgeList;

use crate::engine::PageRankSettings;
use crate::stats::{IterationStats, WorkloadStats};

/// An update record: `(destination, value)` — Figure 2a's "Updates".
#[derive(Debug, Clone, Copy, PartialEq)]
struct Update {
    dst: u32,
    value: f64,
}

/// Result of an X-Stream run.
#[derive(Debug, Clone, PartialEq)]
pub struct XStreamRun {
    /// Final per-vertex values.
    pub values: Vec<f64>,
    /// Workload profile (note the nonzero `update_records`).
    pub stats: WorkloadStats,
}

/// Edge-centric PageRank: scatter rank shares as updates, gather-apply.
///
/// # Panics
///
/// Panics if the graph has no vertices.
#[must_use]
pub fn pagerank(graph: &EdgeList, settings: &PageRankSettings) -> XStreamRun {
    let n = graph.num_vertices();
    assert!(n > 0, "pagerank requires at least one vertex");
    let degrees = graph.out_degrees();
    let r = settings.damping;
    let base = (1.0 - r) / n as f64;
    let mut ranks = vec![1.0 / n as f64; n];
    let mut stats = WorkloadStats::new(n, graph.num_edges());
    for _ in 0..settings.max_iterations {
        let mut it = IterationStats::default();
        // Scatter: one sequential pass over edges, one update per edge.
        let mut updates: Vec<Update> = Vec::with_capacity(graph.num_edges());
        for e in graph.iter() {
            it.edges_processed += 1;
            it.vertex_reads += 1;
            updates.push(Update {
                dst: e.dst,
                value: ranks[e.src as usize] / f64::from(degrees[e.src as usize]),
            });
        }
        it.update_records = updates.len() as u64;
        // Gather: stream updates, apply randomly to vertices.
        let mut next = vec![0.0f64; n];
        for u in &updates {
            it.updates_applied += 1;
            next[u.dst as usize] += u.value;
        }
        let dangling: f64 = degrees
            .iter()
            .zip(&ranks)
            .filter(|&(&d, _)| d == 0)
            .map(|(_, &rv)| rv)
            .sum::<f64>()
            / n as f64;
        let mut delta = 0.0;
        for v in 0..n {
            let updated = base + r * (next[v] + dangling);
            delta += (updated - ranks[v]).abs();
            ranks[v] = updated;
        }
        stats.iterations.push(it);
        if delta <= settings.tolerance {
            break;
        }
    }
    XStreamRun {
        values: ranks,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GridEngine;
    use graphr_graph::generators::rmat::Rmat;

    #[test]
    fn same_results_as_gridgraph_more_traffic() {
        let g = Rmat::new(80, 400).seed(6).generate();
        let settings = PageRankSettings {
            max_iterations: 15,
            tolerance: 0.0,
            ..PageRankSettings::default()
        };
        let xs = pagerank(&g, &settings);
        let gg = GridEngine::new(&g, 4).pagerank(&settings);
        for (a, b) in xs.values.iter().zip(&gg.values) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        // X-Stream materialises one update per edge per iteration...
        assert_eq!(xs.stats.total_update_records(), 400 * 15);
        // ...which GridGraph's dual sliding windows never do.
        assert_eq!(gg.stats.total_update_records(), 0);
        assert!(xs.stats.total_sequential_bytes() > gg.stats.total_sequential_bytes());
    }

    #[test]
    fn update_count_equals_edges_times_iterations() {
        let g = Rmat::new(20, 60).seed(1).generate();
        let settings = PageRankSettings {
            max_iterations: 3,
            tolerance: 0.0,
            ..PageRankSettings::default()
        };
        let xs = pagerank(&g, &settings);
        assert_eq!(xs.stats.num_iterations(), 3);
        assert_eq!(xs.stats.total_update_records(), 180);
    }
}
