//! Ablation studies of the design choices DESIGN.md calls out.
//!
//! Each function runs a controlled comparison and returns structured
//! results plus a rendered table; the corresponding `ablation_*` bench
//! targets print them.

use graphr_core::config::StreamingOrder;
use graphr_core::sim::{run_pagerank, run_sssp, PageRankOptions, TraversalOptions};
use graphr_graph::algorithms::pagerank::{pagerank, PageRankParams};
use graphr_graph::DatasetSpec;
use graphr_reram::NoiseModel;
use graphr_units::{BitSlicer, FixedSpec};

use crate::apps::traversal_source;
use crate::context::ExperimentContext;
use crate::report::{ratio, render_table};

fn pr_opts(iters: usize) -> PageRankOptions {
    PageRankOptions {
        max_iterations: iters,
        tolerance: 0.0,
        ..PageRankOptions::default()
    }
}

/// §3.3: column-major vs row-major streaming-apply. Reports runtime,
/// register writes, and required RegO capacity for PageRank on Amazon.
#[must_use]
pub fn streaming_order(ctx: &ExperimentContext) -> String {
    let spec = DatasetSpec::amazon();
    let graph = ctx.graph(&spec);
    let mut rows = Vec::new();
    for (name, order) in [
        ("column-major (GraphR)", StreamingOrder::ColumnMajor),
        ("row-major (rejected)", StreamingOrder::RowMajor),
    ] {
        let mut config = ctx.config_clone();
        config.order = order;
        let run = run_pagerank(&graph, &config, &pr_opts(5)).expect("valid config");
        rows.push(vec![
            name.to_string(),
            format!("{}", run.metrics.total_time()),
            format!("{}", run.metrics.total_energy()),
            run.metrics.events.register_writes.to_string(),
            run.metrics.events.rego_capacity_required.to_string(),
        ]);
    }
    render_table(
        "Ablation: streaming-apply order (PageRank on AZ, 5 iterations)",
        &[
            "order",
            "time",
            "energy",
            "register writes",
            "RegO entries needed",
        ],
        &rows,
    )
}

/// §3.3: empty-subgraph skipping on/off, PageRank and SSSP on WikiVote.
#[must_use]
pub fn skip_empty(ctx: &ExperimentContext) -> String {
    let spec = DatasetSpec::wiki_vote();
    let graph = ctx.graph(&spec);
    let mut rows = Vec::new();
    for (name, skip) in [("skip empty (GraphR)", true), ("scan all windows", false)] {
        let mut config = ctx.config_clone();
        config.skip_empty = skip;
        let pr = run_pagerank(&graph, &config, &pr_opts(5)).expect("valid config");
        let ss = run_sssp(
            &graph,
            &config,
            &TraversalOptions {
                source: traversal_source(&graph),
                ..TraversalOptions::default()
            },
        )
        .expect("valid config");
        rows.push(vec![
            name.to_string(),
            format!("{}", pr.metrics.total_time()),
            format!("{}", pr.metrics.total_energy()),
            format!("{}", ss.metrics.total_time()),
        ]);
    }
    render_table(
        "Ablation: empty-window skipping (WV)",
        &["mode", "PR time", "PR energy", "SSSP time"],
        &rows,
    )
}

/// §3.1: crossbar size sweep — the paper picks 8×8 as the sweet spot
/// between parallelism and sparsity waste.
#[must_use]
pub fn crossbar_size(ctx: &ExperimentContext) -> String {
    let spec = DatasetSpec::slashdot();
    let graph = ctx.graph(&spec);
    let mut rows = Vec::new();
    for c in [4usize, 8, 16, 32] {
        let mut config = ctx.config_clone();
        config.crossbar_size = c;
        let run = run_pagerank(&graph, &config, &pr_opts(5)).expect("valid config");
        let tiles = run.metrics.events.tiles_loaded;
        let edges = run.metrics.events.edges_loaded;
        rows.push(vec![
            format!("{c}x{c}"),
            format!("{}", run.metrics.total_time()),
            format!("{}", run.metrics.total_energy()),
            format!("{:.2}", edges as f64 / tiles.max(1) as f64),
        ]);
    }
    render_table(
        "Ablation: crossbar size (PageRank on SD, 5 iterations)",
        &["crossbar", "time", "energy", "edges per loaded tile"],
        &rows,
    )
}

/// §3.2: datapath precision — total fixed-point width vs PageRank
/// accuracy. Demonstrates the "algorithms tolerate imprecision" claim and
/// where it breaks.
#[must_use]
pub fn precision(ctx: &ExperimentContext) -> String {
    let spec = DatasetSpec::wiki_vote();
    let graph = ctx.graph(&spec);
    let gold = pagerank(
        &graph.to_csr(),
        &PageRankParams {
            max_iterations: 20,
            tolerance: 0.0,
            ..PageRankParams::default()
        },
    );
    let mut rows = Vec::new();
    for (bits, cell_bits, frac_matrix, frac_reg) in [
        (8u8, 2u8, 7u8, 3u8),
        (12, 3, 11, 5),
        (16, 4, 15, 6),
        (24, 6, 23, 10),
    ] {
        let opts = PageRankOptions {
            matrix_spec: FixedSpec::new(bits, frac_matrix).expect("valid spec"),
            register_spec: FixedSpec::new(bits, frac_reg).expect("valid spec"),
            ..pr_opts(20)
        };
        // The slicer must carry the configured format's magnitude bits.
        let mut config = ctx.config_clone();
        config.slicer = BitSlicer::new(cell_bits, 4).expect("valid slicer");
        config.spec = opts.matrix_spec;
        let run = run_pagerank(&graph, &config, &opts).expect("valid config");
        let l1: f64 = run
            .values
            .iter()
            .zip(&gold.ranks)
            .map(|(a, b)| (a - b).abs())
            .sum();
        let mass: f64 = run.values.iter().sum();
        rows.push(vec![
            format!("{bits}-bit ({cell_bits}-bit cells)"),
            format!("{l1:.4}"),
            format!("{mass:.4}"),
            format!("{}", run.metrics.total_energy()),
        ]);
    }
    render_table(
        "Ablation: datapath precision (PageRank on WV, 20 iterations)",
        &["datapath", "L1 error vs gold", "rank mass", "energy"],
        &rows,
    )
}

/// §1's error-tolerance claim under analog programming noise: PageRank
/// ranking quality and SSSP correctness as conductance noise grows.
#[must_use]
pub fn noise(ctx: &ExperimentContext) -> String {
    let spec = DatasetSpec::wiki_vote();
    let graph = ctx.graph(&spec);
    let gold = pagerank(
        &graph.to_csr(),
        &PageRankParams {
            max_iterations: 20,
            tolerance: 0.0,
            ..PageRankParams::default()
        },
    );
    let top_gold = top_k(&gold.ranks, 10);
    let mut rows = Vec::new();
    for sigma in [0.0, 0.005, 0.01, 0.02, 0.05] {
        let mut config = ctx.config_clone();
        config.fidelity = graphr_core::Fidelity::Analog;
        if sigma > 0.0 {
            config.noise = NoiseModel::Gaussian {
                sigma_rel: sigma,
                seed: 7,
            };
        }
        let run = run_pagerank(&graph, &config, &pr_opts(20)).expect("valid config");
        let top_sim = top_k(&run.values, 10);
        let overlap = top_gold.iter().filter(|v| top_sim.contains(v)).count();
        let l1: f64 = run
            .values
            .iter()
            .zip(&gold.ranks)
            .map(|(a, b)| (a - b).abs())
            .sum();
        rows.push(vec![
            format!("{:.1}%", sigma * 100.0),
            format!("{l1:.4}"),
            format!("{overlap}/10"),
        ]);
    }
    render_table(
        "Ablation: analog programming noise (PageRank on WV, analog fidelity)",
        &["noise sigma", "L1 error vs gold", "top-10 overlap"],
        &rows,
    )
}

/// Extension: stuck-at fault tolerance. ReRAM arrays ship with hard
/// stuck-at-LRS/HRS defects; this sweeps the fault rate and reports
/// PageRank ranking quality and SSSP exactness — where the §1 error
/// tolerance claim holds and where it breaks.
#[must_use]
pub fn faults(ctx: &ExperimentContext) -> String {
    let spec = DatasetSpec::wiki_vote();
    let graph = ctx.graph(&spec);
    let gold_pr = pagerank(
        &graph.to_csr(),
        &PageRankParams {
            max_iterations: 20,
            tolerance: 0.0,
            ..PageRankParams::default()
        },
    );
    let top_gold = top_k(&gold_pr.ranks, 10);
    let src = traversal_source(&graph);
    let gold_ss = graphr_graph::algorithms::sssp::dijkstra(&graph.to_csr(), src);
    let mut rows = Vec::new();
    for rate in [0.0, 1e-4, 1e-3, 1e-2] {
        let mut config = ctx.config_clone();
        config.fidelity = graphr_core::Fidelity::Analog;
        if rate > 0.0 {
            config.noise = NoiseModel::StuckAt {
                stuck_low: rate / 2.0,
                stuck_high: rate / 2.0,
                seed: 11,
            };
        }
        let pr = run_pagerank(&graph, &config, &pr_opts(20)).expect("valid config");
        let top_sim = top_k(&pr.values, 10);
        let overlap = top_gold.iter().filter(|v| top_sim.contains(v)).count();
        let ss = run_sssp(
            &graph,
            &config,
            &TraversalOptions {
                source: src,
                ..TraversalOptions::default()
            },
        )
        .expect("valid config");
        let exact = ss
            .distances
            .iter()
            .zip(&gold_ss.distances)
            .filter(|(a, b)| a == b)
            .count();
        rows.push(vec![
            format!("{rate:.0e}"),
            format!("{overlap}/10"),
            format!("{exact}/{}", ss.distances.len()),
        ]);
    }
    render_table(
        "Extension: stuck-at fault tolerance (WV, analog fidelity)",
        &["fault rate", "PR top-10 overlap", "SSSP vertices exact"],
        &rows,
    )
}

/// Extension: weakly-connected components, the add-op-pattern application
/// beyond Table 2 that demonstrates the §3.5 generality claim.
#[must_use]
pub fn wcc_extension(ctx: &ExperimentContext) -> String {
    let mut rows = Vec::new();
    for spec in [DatasetSpec::wiki_vote(), DatasetSpec::slashdot()] {
        let graph = ctx.graph(&spec);
        if graph.num_vertices() > 32_000 {
            continue; // 16-bit label limit, documented in run_wcc
        }
        let run = graphr_core::sim::run_wcc(&graph, ctx.config()).expect("valid config");
        let gold = graphr_graph::algorithms::wcc::wcc(&graph);
        assert_eq!(run.labels, gold.labels, "WCC must match union-find");
        rows.push(vec![
            spec.tag.to_string(),
            run.num_components.to_string(),
            run.metrics.iterations.to_string(),
            format!("{}", run.metrics.total_time()),
            format!("{}", run.metrics.total_energy()),
        ]);
    }
    render_table(
        "Extension: weakly-connected components on GraphR (matches union-find)",
        &["dataset", "components", "rounds", "time", "energy"],
        &rows,
    )
}

fn top_k(values: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[b].total_cmp(&values[a]));
    idx.truncate(k);
    idx
}

/// Scalability in the number of graph engines.
#[must_use]
pub fn ge_count(ctx: &ExperimentContext) -> String {
    let spec = DatasetSpec::web_google();
    let graph = ctx.graph(&spec);
    let mut rows = Vec::new();
    let mut base_time = None;
    for g in [16usize, 32, 64, 128, 256] {
        let mut config = ctx.config_clone();
        config.num_ges = g;
        let run = run_pagerank(&graph, &config, &pr_opts(5)).expect("valid config");
        let t = run.metrics.total_time();
        let speedup = base_time.get_or_insert(t).ratio(t);
        rows.push(vec![
            g.to_string(),
            format!("{t}"),
            ratio(speedup),
            format!("{}", run.metrics.total_energy()),
        ]);
    }
    render_table(
        "Ablation: graph-engine count (PageRank on WG, 5 iterations)",
        &["GEs", "time", "speedup vs 16 GEs", "energy"],
        &rows,
    )
}

/// §2.1: GridGraph dual sliding windows vs X-Stream scatter/gather on the
/// CPU — the update-traffic argument for the paper's baseline choice.
#[must_use]
pub fn cpu_engine(ctx: &ExperimentContext) -> String {
    let spec = DatasetSpec::amazon();
    let graph = ctx.graph(&spec);
    let settings = graphr_gridgraph::engine::PageRankSettings {
        max_iterations: 10,
        tolerance: 0.0,
        ..graphr_gridgraph::engine::PageRankSettings::default()
    };
    let gg = graphr_gridgraph::engine::GridEngine::with_auto_partitions(&graph).pagerank(&settings);
    let xs = graphr_gridgraph::xstream::pagerank(&graph, &settings);
    let cpu = ctx.cpu_model();
    let rows = vec![
        vec![
            "GridGraph (dual windows)".to_string(),
            gg.stats.total_sequential_bytes().to_string(),
            gg.stats.total_update_records().to_string(),
            format!("{}", cpu.run_time(&gg.stats)),
        ],
        vec![
            "X-Stream (scatter/gather)".to_string(),
            xs.stats.total_sequential_bytes().to_string(),
            xs.stats.total_update_records().to_string(),
            format!("{}", cpu.run_time(&xs.stats)),
        ],
    ];
    render_table(
        "Ablation: CPU engine (PageRank on AZ, 10 iterations)",
        &[
            "engine",
            "sequential bytes",
            "update records",
            "modelled time",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentContext {
        ExperimentContext::with_scale(0.001)
    }

    #[test]
    fn streaming_order_report_contains_both_orders() {
        let out = streaming_order(&tiny());
        assert!(out.contains("column-major"));
        assert!(out.contains("row-major"));
    }

    #[test]
    fn skip_empty_report_renders() {
        let out = skip_empty(&tiny());
        assert!(out.contains("scan all windows"));
    }

    #[test]
    fn crossbar_sweep_covers_four_sizes() {
        let out = crossbar_size(&tiny());
        for c in ["4x4", "8x8", "16x16", "32x32"] {
            assert!(out.contains(c), "missing {c}");
        }
    }

    #[test]
    fn precision_sweep_shows_error_column() {
        let out = precision(&tiny());
        assert!(out.contains("L1 error"));
        assert!(out.contains("16-bit"));
    }

    #[test]
    fn cpu_engine_shows_update_gap() {
        let out = cpu_engine(&tiny());
        assert!(out.contains("GridGraph"));
        assert!(out.contains("X-Stream"));
    }
}
