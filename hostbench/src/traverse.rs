//! `traverse_grid`: BFS + SSSP pairs on a 240×240 grid, run on a 4-node
//! PCIe cluster of parallel node engines, out of core on NVMe with the
//! prefetch lane, with a program trace sink exported per pair.
//!
//! Grid edges point right and down, so every path from a source to a
//! vertex has the same hop count and a traversal takes exactly the
//! source's eccentricity in rounds. Sources are drawn from the 16×16
//! top-left corner, which keeps every query within 7% of the 479-round
//! maximum and the round-to-round work nearly constant across seeds.

use std::sync::Arc;
use std::time::Instant;

use graphr_core::exec::{PlanSkeleton, Planner, PlannerIndex, ScanEngine};
use graphr_core::multinode::{ClusterExecutor, MultiNodeConfig};
use graphr_core::outofcore::DiskModel;
use graphr_core::sim::{run_bfs_with, run_sssp_with, TraversalOptions, TraversalRun};
use graphr_core::trace::{TraceHandle, TraceSink};
use graphr_core::{GraphRConfig, TiledGraph};
use graphr_graph::generators::structured::grid;
use graphr_graph::{Csr, Edge, EdgeList};
use graphr_runtime::pool::available_threads;
use graphr_runtime::ParallelExecutor;

use crate::check::{bfs_gold, sssp_gold, traversal_ok, Digest};
use crate::profile::{span, Layer, Role, TimedEngine};
use crate::workload::{config, preprocess_repeated, Rng, Round, Setup, Workload};

const SIDE: usize = 240;
const CORNER: u64 = 16;
const NODES: usize = 4;

/// The grid with seeded integer weights in `1..=4` (SSSP needs ≥ 1).
pub fn graph(seed: u64) -> EdgeList {
    let mut rng = Rng::new(seed, 1);
    let g = grid(SIDE, SIDE);
    let edges = g
        .iter()
        .map(|e| Edge::new(e.src, e.dst, (1 + rng.below(4)) as f32))
        .collect();
    EdgeList::from_edges(g.num_vertices(), edges).expect("grid edges are in range")
}

/// The (BFS, SSSP) sources of round `index`.
pub fn sources(seed: u64, index: usize) -> (u32, u32) {
    let mut rng = Rng::new(seed, 2 + index as u64);
    let mut corner = || (rng.below(CORNER) as usize * SIDE + rng.below(CORNER) as usize) as u32;
    (corner(), corner())
}

pub struct TraverseGrid {
    seed: u64,
    config: GraphRConfig,
    graph: EdgeList,
    csr: Csr,
    tiled: TiledGraph,
    skeleton: Arc<PlanSkeleton>,
    index: Arc<PlannerIndex>,
}

impl TraverseGrid {
    /// Generates the inputs and runs the cold set-up `reps` times.
    pub fn setup(seed: u64, reps: usize) -> (Self, Setup) {
        let config = config();
        let graph = graph(seed);
        let ((tiled, skeleton, index), setup) = preprocess_repeated(&graph, &config, reps);
        let csr = graph.to_csr();
        let w = TraverseGrid {
            seed,
            config,
            graph,
            csr,
            tiled,
            skeleton,
            index,
        };
        (w, setup)
    }

    /// One query's engine: a 4-node cluster of parallel engines stamped
    /// from the cached skeleton and index, out of core, traced into `sink`.
    fn engine<'a>(
        &'a self,
        sink: &Arc<TraceSink>,
        job: &str,
        traced: bool,
    ) -> Box<dyn ScanEngine + 'a> {
        let (tiled, config) = (&self.tiled, &self.config);
        let planner = || {
            span(Layer::Planner, || {
                Planner::with_index(Arc::clone(&self.skeleton), Arc::clone(&self.index))
            })
        };
        let cluster = span(Layer::Multinode, || {
            ClusterExecutor::with_engines(
                tiled,
                config,
                MultiNodeConfig::pcie_cluster(NODES),
                planner(),
                |_| {
                    let node_planner = planner();
                    let node = span(Layer::Scan, || {
                        ParallelExecutor::with_planner(
                            tiled,
                            config,
                            TraversalOptions::default().spec,
                            node_planner,
                            available_threads(),
                        )
                    });
                    if traced {
                        Box::new(TimedEngine::new(Box::new(node), Role::Node))
                    } else {
                        Box::new(node)
                    }
                },
            )
        });
        let mut engine: Box<dyn ScanEngine + 'a> = if traced {
            Box::new(TimedEngine::new(Box::new(cluster), Role::Cluster))
        } else {
            Box::new(cluster)
        };
        engine.set_disk(Some(DiskModel::nvme().with_prefetch()));
        let handle = span(Layer::Trace, || {
            TraceHandle::for_job(Arc::clone(sink), sink.begin_job(job))
        });
        engine.set_trace(Some(handle));
        engine
    }
}

impl Workload for TraverseGrid {
    fn round(&mut self, index: usize, traced: bool) -> Round {
        let (bfs_source, sssp_source) = sources(self.seed, index);
        let opts = |source| TraversalOptions {
            source,
            ..TraversalOptions::default()
        };
        let start = Instant::now();
        let sink = span(Layer::Trace, TraceSink::shared);
        let bfs = {
            let mut engine = self.engine(&sink, "bfs on grid", traced);
            span(Layer::Sim, || {
                run_bfs_with(&self.graph, engine.as_mut(), &opts(bfs_source))
            })
        };
        let sssp = {
            let mut engine = self.engine(&sink, "sssp on grid", traced);
            span(Layer::Sim, || {
                run_sssp_with(&self.graph, engine.as_mut(), &opts(sssp_source))
            })
        };
        let chrome = span(Layer::Trace, || sink.to_chrome_trace());
        let wall = start.elapsed();

        let mut round = Round {
            wall,
            queries: 2,
            ..Round::default()
        };
        let mut digest = Digest::default();
        let mut check = |run: Result<TraversalRun, _>, gold: Vec<Option<f64>>| match run {
            Ok(run) if traversal_ok(&run, &gold) => {
                digest.debug(&run.distances);
                digest.metrics(&run.metrics);
                round.facts.add_metrics(&run.metrics);
            }
            _ => round.failed += 1,
        };
        check(bfs, bfs_gold(&self.csr, bfs_source));
        check(sssp, sssp_gold(&self.csr, sssp_source));
        digest.bytes(chrome.as_bytes());
        round.facts.trace_bytes = chrome.len() as u64;
        round.digest = digest.value();
        round
    }

    fn min_rounds(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(graph(3).edges(), graph(3).edges());
        assert_ne!(graph(3).edges(), graph(4).edges());
        assert_eq!(sources(3, 5), sources(3, 5));
        assert_ne!(
            (0..8).map(|i| sources(3, i)).collect::<Vec<_>>(),
            (0..8).map(|i| sources(4, i)).collect::<Vec<_>>()
        );
        let (b, s) = sources(9, 0);
        for v in [b, s] {
            assert!((v as usize % SIDE) < CORNER as usize && (v as usize / SIDE) < CORNER as usize);
        }
    }
}
