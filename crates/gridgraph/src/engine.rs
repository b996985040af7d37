//! GridGraph-style engine: 2-level partitioning + dual sliding windows.
//!
//! Edges live in a P×P grid of blocks, streamed in destination-oriented
//! order (Figure 2b): while a destination chunk's window is open, every
//! block targeting it is streamed, source properties are read, and updates
//! are applied *in place* — no update list is materialised (the advantage
//! over X-Stream that motivated GridGraph, §2.1). Selective scheduling
//! skips blocks whose source chunk contains no active vertex.
//!
//! The engine computes real results (held to the gold references in the
//! integration suite) while recording the [`WorkloadStats`] that the CPU,
//! GPU and PIM cost models consume.

use graphr_graph::{Edge, EdgeList, GridPartition};

use crate::stats::{IterationStats, WorkloadStats};

/// PageRank settings for the software engine, mirroring the accelerator's
/// convergence criterion (mean absolute delta of ranks scaled by `|V|`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankSettings {
    /// Damping factor `r`.
    pub damping: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Convergence threshold on the mean scaled-rank delta.
    pub tolerance: f64,
}

impl Default for PageRankSettings {
    fn default() -> Self {
        PageRankSettings {
            damping: 0.85,
            max_iterations: 50,
            tolerance: 1e-4,
        }
    }
}

/// Collaborative-filtering (SGD matrix factorisation) settings, GraphChi
/// style.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfSettings {
    /// Latent feature length (paper: 32).
    pub features: usize,
    /// Training epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// L2 regularisation.
    pub regularization: f64,
    /// Init seed.
    pub seed: u64,
}

impl Default for CfSettings {
    fn default() -> Self {
        CfSettings {
            features: 32,
            epochs: 5,
            learning_rate: 0.01,
            regularization: 0.02,
            seed: 1,
        }
    }
}

/// Result of a scalar run (PageRank, SpMV).
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarRun {
    /// Final per-vertex values.
    pub values: Vec<f64>,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Workload profile.
    pub stats: WorkloadStats,
}

/// Result of a traversal run (BFS, SSSP).
#[derive(Debug, Clone, PartialEq)]
pub struct TraversalRun {
    /// Distance labels, `None` = unreachable.
    pub distances: Vec<Option<f64>>,
    /// Workload profile.
    pub stats: WorkloadStats,
}

/// Result of a CF run.
#[derive(Debug, Clone, PartialEq)]
pub struct CfRun {
    /// Training RMSE per epoch.
    pub rmse_history: Vec<f64>,
    /// Workload profile.
    pub stats: WorkloadStats,
}

/// The GridGraph-style engine over one graph.
#[derive(Debug, Clone)]
pub struct GridEngine {
    num_vertices: usize,
    num_edges: usize,
    partition: GridPartition,
    /// Edge blocks in destination-oriented order:
    /// `blocks[dst_chunk * P + src_chunk]`.
    blocks: Vec<Vec<Edge>>,
    out_degrees: Vec<u32>,
}

impl GridEngine {
    /// Builds the grid with `num_chunks` vertex chunks per dimension.
    ///
    /// # Panics
    ///
    /// Panics if `num_chunks` is zero.
    #[must_use]
    pub fn new(graph: &EdgeList, num_chunks: usize) -> Self {
        let partition = GridPartition::with_num_chunks(graph.num_vertices().max(1), num_chunks);
        let p = partition.num_chunks();
        let mut blocks = vec![Vec::new(); p * p];
        for e in graph.iter() {
            let (bs, bd) = partition.block_of(e.src, e.dst);
            blocks[bd * p + bs].push(*e);
        }
        GridEngine {
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
            partition,
            blocks,
            out_degrees: graph.out_degrees(),
        }
    }

    /// Builds the grid with GridGraph's sizing rule: vertex chunks small
    /// enough that a chunk of 8-byte properties fits in half the last-level
    /// cache (Table 4: 20 MB L3).
    #[must_use]
    pub fn with_auto_partitions(graph: &EdgeList) -> Self {
        let llc_half = 10 * 1024 * 1024u64;
        let chunk_vertices = (llc_half / 8).max(1) as usize;
        let p = graph.num_vertices().div_ceil(chunk_vertices).max(1);
        GridEngine::new(graph, p)
    }

    /// Number of vertex chunks per dimension.
    #[must_use]
    pub fn num_chunks(&self) -> usize {
        self.partition.num_chunks()
    }

    /// Number of vertices.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn fresh_stats(&self) -> WorkloadStats {
        WorkloadStats::new(self.num_vertices, self.num_edges)
    }

    /// Streams every block once (no active-set filtering), invoking
    /// `per_edge` for each edge; returns the iteration's stats.
    fn stream_all(&self, mut per_edge: impl FnMut(&Edge) -> bool) -> IterationStats {
        let mut it = IterationStats::default();
        for block in &self.blocks {
            if block.is_empty() {
                it.blocks_skipped += 1;
                continue;
            }
            it.blocks_touched += 1;
            for e in block {
                it.edges_processed += 1;
                it.vertex_reads += 1;
                if per_edge(e) {
                    it.updates_applied += 1;
                }
            }
        }
        it
    }

    /// Streams blocks whose source chunk has an active vertex (selective
    /// scheduling), invoking `per_edge` for each edge of a touched block.
    fn stream_active(
        &self,
        active: &[bool],
        mut per_edge: impl FnMut(&Edge) -> bool,
    ) -> IterationStats {
        let p = self.num_chunks();
        let mut chunk_active = vec![false; p];
        for (v, &a) in active.iter().enumerate() {
            if a {
                chunk_active[self.partition.chunk_of(v as u32)] = true;
            }
        }
        let mut it = IterationStats {
            active_vertices: active.iter().filter(|&&a| a).count() as u64,
            ..IterationStats::default()
        };
        for dst_chunk in 0..p {
            for (src_chunk, &src_active) in chunk_active.iter().enumerate() {
                let block = &self.blocks[dst_chunk * p + src_chunk];
                if block.is_empty() || !src_active {
                    it.blocks_skipped += 1;
                    continue;
                }
                it.blocks_touched += 1;
                for e in block {
                    if !active[e.src as usize] {
                        // Streamed past with one cheap test — the active
                        // bit is checked before any property work.
                        it.edges_scanned += 1;
                        continue;
                    }
                    it.edges_processed += 1;
                    it.vertex_reads += 1;
                    if per_edge(e) {
                        it.updates_applied += 1;
                    }
                }
            }
        }
        it
    }

    /// PageRank with dual sliding windows.
    #[must_use]
    pub fn pagerank(&self, settings: &PageRankSettings) -> ScalarRun {
        let n = self.num_vertices.max(1);
        let r = settings.damping;
        let base = (1.0 - r) / n as f64;
        let mut ranks = vec![1.0 / n as f64; n];
        let mut stats = self.fresh_stats();
        let mut converged = false;
        for _ in 0..settings.max_iterations {
            let mut next = vec![0.0f64; n];
            let degrees = &self.out_degrees;
            let it = self.stream_all(|e| {
                let share = ranks[e.src as usize] / f64::from(degrees[e.src as usize]);
                next[e.dst as usize] += share;
                true
            });
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
                delta += (updated - ranks[v]).abs() * n as f64;
                ranks[v] = updated;
            }
            stats.iterations.push(it);
            if delta / n as f64 <= settings.tolerance {
                converged = true;
                break;
            }
        }
        ScalarRun {
            values: ranks,
            converged,
            stats,
        }
    }

    /// One SpMV pass (Table 2's vertex program); `input = None` means
    /// all-ones.
    ///
    /// # Panics
    ///
    /// Panics if a provided input has the wrong length.
    #[must_use]
    pub fn spmv(&self, input: Option<&[f64]>) -> ScalarRun {
        let n = self.num_vertices;
        let x: Vec<f64> = match input {
            Some(v) => {
                assert_eq!(v.len(), n, "input length must match vertex count");
                v.to_vec()
            }
            None => vec![1.0; n],
        };
        let mut y = vec![0.0f64; n];
        let mut stats = self.fresh_stats();
        let degrees = &self.out_degrees;
        let it = self.stream_all(|e| {
            y[e.dst as usize] +=
                f64::from(e.weight) * x[e.src as usize] / f64::from(degrees[e.src as usize]);
            true
        });
        stats.iterations.push(it);
        ScalarRun {
            values: y,
            converged: true,
            stats,
        }
    }

    /// Level-synchronous BFS with selective scheduling.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    #[must_use]
    pub fn bfs(&self, source: u32) -> TraversalRun {
        self.traverse(source, |_e| 1.0)
    }

    /// Synchronous SSSP (Bellman-Ford rounds) with selective scheduling.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range or a weight is negative.
    #[must_use]
    pub fn sssp(&self, source: u32) -> TraversalRun {
        self.traverse(source, |e| {
            assert!(e.weight >= 0.0, "negative weight");
            f64::from(e.weight)
        })
    }

    fn traverse(&self, source: u32, edge_len: impl Fn(&Edge) -> f64) -> TraversalRun {
        let n = self.num_vertices;
        assert!((source as usize) < n, "source out of range");
        let mut dist = vec![f64::INFINITY; n];
        dist[source as usize] = 0.0;
        let mut active = vec![false; n];
        active[source as usize] = true;
        let mut stats = self.fresh_stats();
        for _round in 0..n.max(1) {
            let snapshot = dist.clone();
            let mut updated = vec![false; n];
            let it = self.stream_active(&active, |e| {
                let du = snapshot[e.src as usize];
                if du.is_infinite() {
                    return false;
                }
                let candidate = du + edge_len(e);
                if candidate < dist[e.dst as usize] {
                    dist[e.dst as usize] = candidate;
                    updated[e.dst as usize] = true;
                    true
                } else {
                    false
                }
            });
            stats.iterations.push(it);
            active = updated;
            if !active.iter().any(|&a| a) {
                break;
            }
        }
        let distances = dist
            .into_iter()
            .map(|d| if d.is_finite() { Some(d) } else { None })
            .collect();
        TraversalRun { distances, stats }
    }

    /// GraphChi-style SGD matrix factorisation over a bipartite rating
    /// graph (vertices `0..users` are users, the rest items).
    ///
    /// # Panics
    ///
    /// Panics if the graph is not bipartite user → item for the given
    /// split.
    #[must_use]
    pub fn cf(&self, users: usize, items: usize, settings: &CfSettings) -> CfRun {
        assert_eq!(
            self.num_vertices,
            users + items,
            "vertex count must equal users + items"
        );
        let f = settings.features.max(1);
        let mut state = settings.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next_init = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            0.1 + (z >> 11) as f64 / (1u64 << 53) as f64 * 0.4
        };
        let mut p: Vec<f64> = (0..users * f).map(|_| next_init()).collect();
        let mut q: Vec<f64> = (0..items * f).map(|_| next_init()).collect();
        let mut stats = self.fresh_stats();
        let mut rmse_history = Vec::with_capacity(settings.epochs);
        for _epoch in 0..settings.epochs {
            let mut sq = 0.0;
            let mut edges = 0u64;
            let it = self.stream_all(|e| {
                let u = e.src as usize;
                let i = e.dst as usize - users;
                let (pu, qi) = (&p[u * f..(u + 1) * f], &q[i * f..(i + 1) * f]);
                let pred: f64 = pu.iter().zip(qi).map(|(a, b)| a * b).sum();
                let err = f64::from(e.weight) - pred;
                sq += err * err;
                edges += 1;
                for k in 0..f {
                    let pk = p[u * f + k];
                    let qk = q[i * f + k];
                    p[u * f + k] +=
                        settings.learning_rate * (err * qk - settings.regularization * pk);
                    q[i * f + k] +=
                        settings.learning_rate * (err * pk - settings.regularization * qk);
                }
                true
            });
            // Each edge touches two factor rows of F contiguous values:
            // count the traffic at 64-byte-line granularity (a 32-feature
            // row is 4 lines) and the 2F fused multiply-adds per rating as
            // explicit compute work.
            let mut it = it;
            let lines_per_row = (f as u64 * 8).div_ceil(64).max(1);
            it.updates_applied = edges * 2 * lines_per_row;
            it.vertex_reads = edges * 2 * lines_per_row;
            it.extra_compute_cycles = edges * 3 * f as u64;
            stats.iterations.push(it);
            rmse_history.push((sq / edges.max(1) as f64).sqrt());
        }
        CfRun {
            rmse_history,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphr_graph::algorithms::bfs::bfs as gold_bfs;
    use graphr_graph::algorithms::pagerank::{pagerank, PageRankParams};
    use graphr_graph::algorithms::spmv::spmv_vertex_program;
    use graphr_graph::algorithms::sssp::dijkstra;
    use graphr_graph::generators::bipartite::RatingMatrix;
    use graphr_graph::generators::rmat::Rmat;
    use graphr_graph::generators::structured::{cycle, grid};

    #[test]
    fn pagerank_matches_gold() {
        let g = Rmat::new(100, 600).seed(7).generate();
        let engine = GridEngine::new(&g, 4);
        let run = engine.pagerank(&PageRankSettings {
            tolerance: 0.0,
            max_iterations: 40,
            ..PageRankSettings::default()
        });
        let gold = pagerank(
            &g.to_csr(),
            &PageRankParams {
                max_iterations: 40,
                tolerance: 0.0,
                ..PageRankParams::default()
            },
        );
        for (a, b) in run.values.iter().zip(&gold.ranks) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn spmv_matches_gold() {
        let g = Rmat::new(60, 250).seed(2).max_weight(8).generate();
        let engine = GridEngine::new(&g, 3);
        let x: Vec<f64> = (0..60).map(|i| i as f64 * 0.1).collect();
        let run = engine.spmv(Some(&x));
        let gold = spmv_vertex_program(&g.to_csr(), &x);
        for (a, b) in run.values.iter().zip(&gold) {
            assert!((a - b).abs() < 1e-9);
        }
        assert_eq!(run.stats.num_iterations(), 1);
        assert_eq!(run.stats.total_edges_processed(), 250);
    }

    #[test]
    fn bfs_and_sssp_match_gold() {
        let g = Rmat::new(80, 500).seed(9).max_weight(16).generate();
        let engine = GridEngine::new(&g, 4);
        let bfs_run = engine.bfs(0);
        let gold_levels = gold_bfs(&g.to_csr(), 0);
        let expect: Vec<Option<f64>> = gold_levels
            .levels
            .iter()
            .map(|l| l.map(f64::from))
            .collect();
        assert_eq!(bfs_run.distances, expect);
        let sssp_run = engine.sssp(0);
        let gold_d = dijkstra(&g.to_csr(), 0);
        assert_eq!(sssp_run.distances, gold_d.distances);
    }

    #[test]
    fn selective_scheduling_skips_blocks() {
        // A long path: each BFS round activates one vertex, so most blocks
        // are skipped in most rounds.
        let g = graphr_graph::generators::structured::path(64);
        let engine = GridEngine::new(&g, 8);
        let run = engine.bfs(0);
        let skipped: u64 = run.stats.iterations.iter().map(|i| i.blocks_skipped).sum();
        assert!(skipped > 0, "path BFS must skip inactive blocks");
        // Edges processed is far less than rounds × edges.
        let total = run.stats.total_edges_processed();
        assert!(total < 63 * 63, "selective scheduling failed: {total}");
    }

    #[test]
    fn grid_distances_are_manhattan() {
        let engine = GridEngine::new(&grid(4, 4), 2);
        let run = engine.sssp(0);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(run.distances[r * 4 + c], Some((r + c) as f64));
            }
        }
    }

    #[test]
    fn pagerank_on_cycle_is_uniform() {
        let engine = GridEngine::new(&cycle(10), 2);
        let run = engine.pagerank(&PageRankSettings::default());
        assert!(run.converged);
        for &v in &run.values {
            assert!((v - 0.1).abs() < 1e-6);
        }
    }

    #[test]
    fn cf_rmse_decreases() {
        let m = RatingMatrix::new(50, 20, 800).seed(4).generate();
        let engine = GridEngine::new(m.graph(), 4);
        let run = engine.cf(
            50,
            20,
            &CfSettings {
                features: 8,
                epochs: 8,
                ..CfSettings::default()
            },
        );
        assert!(run.rmse_history.last().unwrap() < &run.rmse_history[0]);
        assert_eq!(run.stats.num_iterations(), 8);
    }

    #[test]
    fn partition_count_respected_and_auto_works() {
        let g = Rmat::new(1000, 3000).seed(1).generate();
        let engine = GridEngine::new(&g, 7);
        assert_eq!(engine.num_chunks(), 7);
        let auto = GridEngine::with_auto_partitions(&g);
        assert_eq!(auto.num_chunks(), 1, "small graph fits one chunk");
    }

    #[test]
    fn stats_account_every_edge_once_per_full_stream() {
        let g = Rmat::new(50, 200).seed(3).generate();
        let engine = GridEngine::new(&g, 5);
        let run = engine.spmv(None);
        assert_eq!(run.stats.total_edges_processed(), 200);
        let seq = run.stats.total_sequential_bytes();
        assert_eq!(seq, 200 * 12);
    }
}
