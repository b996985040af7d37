//! Application runners: execute one (application, dataset) cell of the
//! evaluation grid on all four platforms.
//!
//! GraphR numbers come from the `graphr-core` simulator (functional run +
//! event-count time/energy); CPU, GPU and PIM numbers come from the
//! `graphr-gridgraph` software engine's recorded workload pushed through
//! the `graphr-platforms` cost models. Iteration counts are pinned equal
//! across platforms: PageRank runs a fixed 20 power iterations, BFS/SSSP
//! run to convergence (both engines are synchronous, so they converge in
//! identical rounds), SpMV is one pass, CF trains 3 epochs at feature
//! length 32 (§5.1).

use graphr_core::sim::{
    run_bfs, run_cf, run_pagerank, run_spmv, run_sssp, CfOptions, PageRankOptions, SpmvOptions,
    TraversalOptions,
};
use graphr_core::Metrics;
use graphr_graph::{DatasetSpec, EdgeList};
use graphr_gridgraph::engine::{CfSettings, GridEngine, PageRankSettings};
use graphr_gridgraph::WorkloadStats;
use graphr_units::{Joules, Nanos};

use crate::context::ExperimentContext;

/// PageRank power iterations pinned across platforms.
pub const PAGERANK_ITERATIONS: usize = 20;

/// CF training epochs pinned across platforms.
pub const CF_EPOCHS: usize = 3;

/// CF latent feature length (§5.1: 32).
pub const CF_FEATURES: usize = 32;

/// The five evaluated applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// PageRank (parallel MAC).
    PageRank,
    /// Breadth-first search (parallel add-op).
    Bfs,
    /// Single-source shortest paths (parallel add-op).
    Sssp,
    /// Sparse matrix–vector multiplication (parallel MAC, one pass).
    Spmv,
    /// Collaborative filtering (parallel MAC, bipartite).
    Cf,
}

impl App {
    /// Short display name matching the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            App::PageRank => "PageRank",
            App::Bfs => "BFS",
            App::Sssp => "SSSP",
            App::Spmv => "SpMV",
            App::Cf => "CF",
        }
    }

    /// The four applications run on the directed datasets (Figure 17's
    /// panels, in order).
    #[must_use]
    pub fn directed_apps() -> [App; 4] {
        [App::PageRank, App::Bfs, App::Sssp, App::Spmv]
    }
}

/// Time + energy of one platform on one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformNumbers {
    /// Wall-clock time.
    pub time: Nanos,
    /// Energy.
    pub energy: Joules,
}

/// One cell of the evaluation grid.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Application.
    pub app: App,
    /// Dataset tag (Table 3).
    pub dataset: &'static str,
    /// GraphR simulator numbers.
    pub graphr: PlatformNumbers,
    /// CPU (GridGraph on the Table 4 Xeon).
    pub cpu: PlatformNumbers,
    /// GPU (Gunrock-style on the Table 5 K40c).
    pub gpu: PlatformNumbers,
    /// PIM (Tesseract-style).
    pub pim: PlatformNumbers,
    /// Iterations/rounds/epochs executed.
    pub iterations: usize,
    /// Full GraphR accounting (for breakdown reporting).
    pub graphr_metrics: Metrics,
}

impl AppRun {
    /// Speedup of GraphR over the CPU.
    #[must_use]
    pub fn speedup_vs_cpu(&self) -> f64 {
        self.cpu.time.ratio(self.graphr.time)
    }

    /// Energy saving of GraphR over the CPU.
    #[must_use]
    pub fn energy_saving_vs_cpu(&self) -> f64 {
        self.cpu.energy.ratio(self.graphr.energy)
    }
}

/// Picks the traversal source: the highest-out-degree vertex, so BFS/SSSP
/// reach a large component on every dataset (deterministic).
#[must_use]
pub fn traversal_source(graph: &EdgeList) -> u32 {
    graph
        .out_degrees()
        .iter()
        .enumerate()
        .max_by_key(|&(_, d)| *d)
        .map_or(0, |(v, _)| v as u32)
}

fn platform_numbers(ctx: &ExperimentContext, stats: &WorkloadStats) -> [PlatformNumbers; 3] {
    let cpu = ctx.cpu_model();
    let gpu = ctx.gpu_model();
    let pim = ctx.pim_model();
    [
        PlatformNumbers {
            time: cpu.run_time(stats),
            energy: cpu.run_energy(stats),
        },
        PlatformNumbers {
            time: gpu.run_time(stats),
            energy: gpu.run_energy(stats),
        },
        PlatformNumbers {
            time: pim.run_time(stats),
            energy: pim.run_energy(stats),
        },
    ]
}

/// Runs one cell of the evaluation grid.
///
/// # Panics
///
/// Panics if `app` is [`App::Cf`] and the dataset is not bipartite, or on
/// internal simulator errors (the standard configuration is always valid).
#[must_use]
pub fn run_app(ctx: &ExperimentContext, app: App, spec: &DatasetSpec) -> AppRun {
    let graph = ctx.graph(spec);
    let engine = GridEngine::with_auto_partitions(&graph);
    let config = ctx.config();
    let (metrics, stats, iterations) = match app {
        App::PageRank => {
            let sw = engine.pagerank(&PageRankSettings {
                max_iterations: PAGERANK_ITERATIONS,
                tolerance: 0.0,
                ..PageRankSettings::default()
            });
            let hw = run_pagerank(
                &graph,
                config,
                &PageRankOptions {
                    max_iterations: PAGERANK_ITERATIONS,
                    tolerance: 0.0,
                    ..PageRankOptions::default()
                },
            )
            .expect("standard configuration");
            (hw.metrics, sw.stats, PAGERANK_ITERATIONS)
        }
        App::Bfs => {
            let src = traversal_source(&graph);
            let sw = engine.bfs(src);
            let hw = run_bfs(
                &graph,
                config,
                &TraversalOptions {
                    source: src,
                    ..TraversalOptions::default()
                },
            )
            .expect("standard configuration");
            let iters = hw.metrics.iterations;
            (hw.metrics, sw.stats, iters)
        }
        App::Sssp => {
            let src = traversal_source(&graph);
            let sw = engine.sssp(src);
            let hw = run_sssp(
                &graph,
                config,
                &TraversalOptions {
                    source: src,
                    ..TraversalOptions::default()
                },
            )
            .expect("standard configuration");
            let iters = hw.metrics.iterations;
            (hw.metrics, sw.stats, iters)
        }
        App::Spmv => {
            let sw = engine.spmv(None);
            let hw =
                run_spmv(&graph, config, &SpmvOptions::default()).expect("standard configuration");
            (hw.metrics, sw.stats, 1)
        }
        App::Cf => {
            let (users, items) = ctx
                .bipartite(spec)
                .expect("CF requires a bipartite dataset");
            let sw = engine.cf(
                users,
                items,
                &CfSettings {
                    features: CF_FEATURES,
                    epochs: CF_EPOCHS,
                    ..CfSettings::default()
                },
            );
            let hw = run_cf(
                &graph,
                users,
                items,
                config,
                &CfOptions {
                    features: CF_FEATURES,
                    epochs: CF_EPOCHS,
                    ..CfOptions::default()
                },
            )
            .expect("standard configuration");
            (hw.metrics, sw.stats, CF_EPOCHS)
        }
    };
    let [cpu, gpu, pim] = platform_numbers(ctx, &stats);
    AppRun {
        app,
        dataset: spec.tag,
        graphr: PlatformNumbers {
            time: metrics.total_time(),
            energy: metrics.total_energy(),
        },
        cpu,
        gpu,
        pim,
        iterations,
        graphr_metrics: metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> ExperimentContext {
        ExperimentContext::with_scale(0.002)
    }

    #[test]
    fn pagerank_cell_produces_positive_numbers() {
        let ctx = tiny_ctx();
        let run = run_app(&ctx, App::PageRank, &DatasetSpec::wiki_vote());
        assert!(run.graphr.time.as_nanos() > 0.0);
        assert!(run.cpu.time > run.graphr.time, "CPU should be slower");
        assert!(run.speedup_vs_cpu() > 1.0);
        assert!(run.energy_saving_vs_cpu() > 1.0);
        assert_eq!(run.iterations, PAGERANK_ITERATIONS);
    }

    #[test]
    fn traversal_cells_converge_in_same_rounds() {
        let ctx = tiny_ctx();
        let spec = DatasetSpec::slashdot();
        let run = run_app(&ctx, App::Bfs, &spec);
        // The software engine ran the same number of rounds (+1 terminal
        // check round difference at most).
        let graph = ctx.graph(&spec);
        let sw = GridEngine::with_auto_partitions(&graph).bfs(traversal_source(&graph));
        let diff = (sw.stats.num_iterations() as i64 - run.iterations as i64).abs();
        assert!(diff <= 1, "round counts diverge: {diff}");
    }

    #[test]
    fn cf_runs_on_netflix_clone() {
        let ctx = ExperimentContext::with_scale(0.001);
        let run = run_app(&ctx, App::Cf, &DatasetSpec::netflix());
        assert!(run.graphr.energy.as_joules() > 0.0);
        assert_eq!(run.iterations, CF_EPOCHS);
    }

    #[test]
    fn source_is_max_out_degree() {
        let g = graphr_graph::generators::structured::star(5);
        assert_eq!(traversal_source(&g), 0);
    }
}
