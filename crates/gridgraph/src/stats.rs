//! Workload statistics emitted by the software engines.
//!
//! These are the quantities the paper's CPU/GPU/PIM comparisons hinge on:
//! how many edges stream per iteration, how many destination updates hit
//! vertex data randomly, how many grid blocks the selective scheduler
//! touches, and how large the active set is. `graphr-platforms` turns them
//! into time and energy with machine constants.

/// Bytes per streamed COO edge record (src, dst, weight — 4 bytes each).
pub const EDGE_BYTES: u64 = 12;

/// Bytes per vertex property (64-bit value in the software engines).
pub const VERTEX_BYTES: u64 = 8;

/// Event counts of one iteration (one superstep / epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IterationStats {
    /// Edges streamed (edges of all touched blocks).
    pub edges_processed: u64,
    /// Grid blocks streamed.
    pub blocks_touched: u64,
    /// Grid blocks skipped by selective scheduling.
    pub blocks_skipped: u64,
    /// Destination-vertex updates applied (random accesses).
    pub updates_applied: u64,
    /// Active vertices at the start of the iteration.
    pub active_vertices: u64,
    /// Edges streamed but skipped with a cheap per-edge test (inactive
    /// source under selective scheduling).
    pub edges_scanned: u64,
    /// Source-vertex property reads (one per *processed* edge).
    pub vertex_reads: u64,
    /// Update records written+read again (X-Stream only; zero for dual
    /// sliding windows, which is exactly GridGraph's selling point).
    pub update_records: u64,
    /// Algorithm-specific ALU work beyond the per-edge bookkeeping
    /// (e.g. CF's `2F` fused multiply-adds per rating), in core cycles.
    pub extra_compute_cycles: u64,
}

impl IterationStats {
    /// Sequentially streamed bytes this iteration (edge data plus any
    /// materialised update lists).
    #[must_use]
    pub fn sequential_bytes(&self) -> u64 {
        (self.edges_processed + self.edges_scanned) * EDGE_BYTES
            + 2 * self.update_records * (VERTEX_BYTES + 4)
    }

    /// Randomly accessed vertex-data bytes this iteration.
    #[must_use]
    pub fn random_bytes(&self) -> u64 {
        (self.vertex_reads + self.updates_applied) * VERTEX_BYTES
    }
}

/// A whole run's workload profile.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkloadStats {
    /// Number of vertices in the processed graph.
    pub num_vertices: u64,
    /// Number of edges in the processed graph.
    pub num_edges: u64,
    /// Per-iteration event counts, in execution order.
    pub iterations: Vec<IterationStats>,
}

impl WorkloadStats {
    /// Creates an empty profile for a graph of the given size.
    #[must_use]
    pub fn new(num_vertices: usize, num_edges: usize) -> Self {
        WorkloadStats {
            num_vertices: num_vertices as u64,
            num_edges: num_edges as u64,
            iterations: Vec::new(),
        }
    }

    /// Number of iterations executed.
    #[must_use]
    pub fn num_iterations(&self) -> usize {
        self.iterations.len()
    }

    /// Total edges streamed across all iterations.
    #[must_use]
    pub fn total_edges_processed(&self) -> u64 {
        self.iterations.iter().map(|i| i.edges_processed).sum()
    }

    /// Total destination updates across all iterations.
    #[must_use]
    pub fn total_updates(&self) -> u64 {
        self.iterations.iter().map(|i| i.updates_applied).sum()
    }

    /// Total sequentially streamed bytes.
    #[must_use]
    pub fn total_sequential_bytes(&self) -> u64 {
        self.iterations
            .iter()
            .map(IterationStats::sequential_bytes)
            .sum()
    }

    /// Total randomly accessed bytes.
    #[must_use]
    pub fn total_random_bytes(&self) -> u64 {
        self.iterations
            .iter()
            .map(IterationStats::random_bytes)
            .sum()
    }

    /// Total update records materialised (X-Stream traffic).
    #[must_use]
    pub fn total_update_records(&self) -> u64 {
        self.iterations.iter().map(|i| i.update_records).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_accounting() {
        let it = IterationStats {
            edges_processed: 10,
            vertex_reads: 10,
            updates_applied: 4,
            update_records: 0,
            ..IterationStats::default()
        };
        assert_eq!(it.sequential_bytes(), 120);
        assert_eq!(it.random_bytes(), 14 * 8);
    }

    #[test]
    fn update_records_inflate_sequential_traffic() {
        let a = IterationStats {
            edges_processed: 100,
            ..IterationStats::default()
        };
        let b = IterationStats {
            edges_processed: 100,
            update_records: 100,
            ..IterationStats::default()
        };
        assert!(b.sequential_bytes() > a.sequential_bytes());
    }

    #[test]
    fn totals_sum_over_iterations() {
        let mut w = WorkloadStats::new(10, 20);
        for k in 1..=3u64 {
            w.iterations.push(IterationStats {
                edges_processed: 10 * k,
                updates_applied: k,
                ..IterationStats::default()
            });
        }
        assert_eq!(w.num_iterations(), 3);
        assert_eq!(w.total_edges_processed(), 60);
        assert_eq!(w.total_updates(), 6);
    }
}
