//! `pagerank_rmat`: 10 fixed PageRank iterations plus one SpMV per round
//! on a 65,536-vertex, 1 M-edge R-MAT graph, one node, in core, on the
//! default parallel engine, untraced by the program. Dense MAC streaming
//! carries the run; the planner, disk, interconnect and serve layers are
//! bypassed, so changes to those layers should leave it unchanged.

use std::sync::Arc;
use std::time::Instant;

use graphr_core::exec::{PlanSkeleton, Planner, PlannerIndex, ScanEngine};
use graphr_core::sim::{run_pagerank_with, run_spmv_with, PageRankOptions, SpmvOptions};
use graphr_core::{GraphRConfig, TiledGraph};
use graphr_graph::algorithms::pagerank::{pagerank, PageRankParams};
use graphr_graph::algorithms::spmv::spmv_vertex_program;
use graphr_graph::generators::rmat::Rmat;
use graphr_graph::{Csr, EdgeList};
use graphr_runtime::pool::available_threads;
use graphr_runtime::ParallelExecutor;
use graphr_units::FixedSpec;

use crate::check::Digest;
use crate::profile::{span, Layer, Role, TimedEngine};
use crate::workload::{config, preprocess_repeated, Rng, Round, Setup, Workload};

const VERTICES: usize = 65_536;
const EDGES: usize = 1_000_000;
const ITERATIONS: usize = 10;

/// The seeded R-MAT graph.
pub fn graph(seed: u64) -> EdgeList {
    Rmat::new(VERTICES, EDGES).seed(seed).generate()
}

/// Round `index`'s SpMV input: multiples of 1/256, exact in the Q8.8
/// register format, so the gold reference sees the simulated input.
pub fn spmv_input(seed: u64, index: usize) -> Vec<f64> {
    let mut rng = Rng::new(seed, 1 + index as u64);
    (0..VERTICES)
        .map(|_| rng.below(256) as f64 / 256.0)
        .collect()
}

fn pagerank_options() -> PageRankOptions {
    PageRankOptions {
        max_iterations: ITERATIONS,
        tolerance: 0.0,
        ..PageRankOptions::default()
    }
}

pub struct PagerankRmat {
    seed: u64,
    config: GraphRConfig,
    graph: EdgeList,
    csr: Csr,
    tiled: TiledGraph,
    skeleton: Arc<PlanSkeleton>,
    index: Arc<PlannerIndex>,
    /// Gold PageRank (every round runs the same ranking).
    gold_ranks: Vec<f64>,
}

impl PagerankRmat {
    /// Generates the inputs and runs the cold set-up `reps` times.
    pub fn setup(seed: u64, reps: usize) -> (Self, Setup) {
        let config = config();
        let graph = graph(seed);
        let ((tiled, skeleton, index), setup) = preprocess_repeated(&graph, &config, reps);
        let csr = graph.to_csr();
        let gold_ranks = pagerank(
            &csr,
            &PageRankParams {
                max_iterations: ITERATIONS,
                tolerance: 0.0,
                ..PageRankParams::default()
            },
        )
        .ranks;
        let w = PagerankRmat {
            seed,
            config,
            graph,
            csr,
            tiled,
            skeleton,
            index,
            gold_ranks,
        };
        (w, setup)
    }

    /// One query's single-node parallel engine over the cached set-up.
    fn engine(&self, spec: FixedSpec, traced: bool) -> Box<dyn ScanEngine + '_> {
        let planner = span(Layer::Planner, || {
            Planner::with_index(Arc::clone(&self.skeleton), Arc::clone(&self.index))
        });
        let engine = span(Layer::Scan, || {
            ParallelExecutor::with_planner(
                &self.tiled,
                &self.config,
                spec,
                planner,
                available_threads(),
            )
        });
        if traced {
            Box::new(TimedEngine::new(Box::new(engine), Role::Node))
        } else {
            Box::new(engine)
        }
    }

    /// PageRank within the register resolution of the gold ranks, on
    /// ranks scaled by `|V|`: mass kept within 5%, every vertex within
    /// 0.5 plus 2% of its gold rank, and ranks past the register's
    /// maximum saturated at it.
    fn ranks_ok(&self, values: &[f64]) -> bool {
        let n = VERTICES as f64;
        let max = pagerank_options().register_spec.max_value();
        let mass: f64 = values.iter().sum();
        (mass - 1.0).abs() < 0.05
            && values.iter().zip(&self.gold_ranks).all(|(a, b)| {
                let (a, b) = (a * n, b * n);
                if b >= max {
                    (a - max).abs() < 1e-6
                } else {
                    (a - b).abs() < 0.5 + 0.02 * b
                }
            })
    }
}

/// SpMV within the Q8.8 tolerance of the gold product (saturated outputs
/// above 127 excepted).
fn spmv_ok(values: &[f64], gold: &[f64]) -> bool {
    values
        .iter()
        .zip(gold)
        .all(|(a, b)| (a - b).abs() < 0.02 + b.abs() * 0.02 || *b > 127.0)
}

impl Workload for PagerankRmat {
    fn round(&mut self, index: usize, traced: bool) -> Round {
        let pr_opts = pagerank_options();
        let spmv_opts = SpmvOptions {
            input: Some(spmv_input(self.seed, index)),
            ..SpmvOptions::default()
        };
        let start = Instant::now();
        let pr = {
            let mut engine = self.engine(pr_opts.matrix_spec, traced);
            span(Layer::Sim, || {
                run_pagerank_with(&self.graph, engine.as_mut(), &pr_opts)
            })
        };
        let spmv = {
            let mut engine = self.engine(spmv_opts.matrix_spec, traced);
            span(Layer::Sim, || {
                run_spmv_with(&self.graph, engine.as_mut(), &spmv_opts)
            })
        };
        let wall = start.elapsed();

        let mut round = Round {
            wall,
            queries: 2,
            ..Round::default()
        };
        let mut digest = Digest::default();
        let gold_spmv =
            spmv_vertex_program(&self.csr, spmv_opts.input.as_deref().expect("set above"));
        let checks = [
            pr.ok().filter(|r| self.ranks_ok(&r.values)),
            spmv.ok().filter(|r| spmv_ok(&r.values, &gold_spmv)),
        ];
        for run in checks {
            match run {
                Some(run) if run.metrics.validate().is_ok() => {
                    digest.debug(&run.values);
                    digest.metrics(&run.metrics);
                    round.facts.add_metrics(&run.metrics);
                }
                _ => round.failed += 1,
            }
        }
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
        assert_eq!(graph(5).edges(), graph(5).edges());
        assert_ne!(graph(5).edges(), graph(6).edges());
        assert_eq!(spmv_input(5, 2), spmv_input(5, 2));
        assert_ne!(spmv_input(5, 2), spmv_input(5, 3));
        assert_ne!(spmv_input(5, 2), spmv_input(6, 2));
    }
}
