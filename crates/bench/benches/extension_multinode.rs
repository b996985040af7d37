//! Extension: multi-node GraphR scaling (the paper's declared future
//! work, section 3.1) — PageRank on the WebGoogle clone through the
//! plan-aware cluster executor across cluster sizes, then a
//! sparse-frontier BFS, where the frontier-delta exchange is asserted to
//! beat the dense all-gather bound, then skew-aware strip ownership.

use graphr_core::exec::ScanEngine;
use graphr_core::multinode::{dense_exchange_bytes, ClusterExecutor, MultiNodeConfig, OwnerPolicy};
use graphr_core::sim::{
    run_bfs, run_bfs_with, run_pagerank, run_pagerank_with, PageRankOptions, TraversalOptions,
};
use graphr_core::TiledGraph;
use graphr_graph::generators::structured::grid;
use graphr_graph::DatasetSpec;
use graphr_units::FixedSpec;

fn main() {
    cluster_pagerank();
    cluster_sparse_frontier();
    skew_aware_ownership();
}

/// PageRank on WG through the plan-aware cluster executor: values must
/// equal the single-node run at every size, and the exchanged bytes stay
/// at or below the dense all-gather bound (a dense MAC iteration plans
/// every destination, so the two meet).
fn cluster_pagerank() {
    let ctx = graphr_bench::ExperimentContext::from_env();
    let graph = ctx.graph(&DatasetSpec::web_google());
    let config = ctx.config();
    let opts = PageRankOptions {
        max_iterations: 5,
        tolerance: 0.0,
        ..PageRankOptions::default()
    };
    let single = run_pagerank(&graph, config, &opts).expect("single-node pagerank");
    let tiled = TiledGraph::preprocess(&graph, config).expect("valid configuration");
    let mut rows = Vec::new();
    for nodes in [1usize, 2, 4, 8, 16] {
        let mut cluster = ClusterExecutor::new(
            &tiled,
            config,
            opts.matrix_spec,
            MultiNodeConfig::pcie_cluster(nodes),
        );
        let run = run_pagerank_with(&graph, &mut cluster, &opts).expect("cluster pagerank");
        assert_eq!(
            run.values, single.values,
            "partitioning must not change PageRank values ({nodes} nodes)"
        );
        let m = &run.metrics;
        let dense = dense_exchange_bytes(graph.num_vertices(), m.iterations);
        assert!(
            m.net.bytes_exchanged <= dense,
            "plan-aware exchange must stay within the dense all-gather: {} vs {} bytes",
            m.net.bytes_exchanged,
            dense
        );
        rows.push(vec![
            nodes.to_string(),
            format!("{}", m.total_time() - m.net.time),
            format!("{:.1} KiB", m.net.bytes_exchanged as f64 / 1024.0),
            format!("{:.1} KiB", dense as f64 / 1024.0),
            format!("{}", m.net.time),
            format!("{}", m.total_time()),
            format!("{:.2}x", single.metrics.total_time().ratio(m.total_time())),
            format!("{}", m.total_energy()),
        ]);
    }
    println!(
        "{}",
        graphr_bench::report::render_table(
            "Extension: multi-node GraphR, plan-aware cluster (PageRank on WG, 5 iterations)",
            &[
                "nodes",
                "bottleneck scan",
                "exchanged",
                "dense all-gather",
                "exchange",
                "total",
                "speedup",
                "energy"
            ],
            &rows,
        )
    );
}

/// Skew-aware strip ownership on a power-law graph: round-robin piles
/// several hub strips onto one node; the degree-weighted (LPT)
/// assignment balances per-node edge loads, tightening the bottleneck
/// `max(per-node edges)` the cluster's iteration time composes from.
fn skew_aware_ownership() {
    // A power-law R-MAT graph over a geometry with many destination
    // strips: hub strips concentrate edges, the skew the round-robin
    // rule suffers under.
    let graph = graphr_graph::generators::rmat::Rmat::new(20_000, 150_000)
        .seed(42)
        .self_loops(false)
        .generate();
    let config = &graphr_core::GraphRConfig::builder()
        .crossbar_size(8)
        .crossbars_per_ge(32)
        .num_ges(4)
        .build()
        .expect("valid bench geometry");
    let tiled = TiledGraph::preprocess(&graph, config).expect("valid geometry");
    let spec = FixedSpec::new(16, 8).expect("Q8.8 is valid");

    let mut rows = Vec::new();
    for nodes in [2usize, 4, 8] {
        let per_policy: Vec<(OwnerPolicy, u64, u64)> =
            [OwnerPolicy::RoundRobin, OwnerPolicy::DegreeWeighted]
                .into_iter()
                .map(|owner| {
                    let mut cluster = ClusterExecutor::new(
                        &tiled,
                        config,
                        spec,
                        MultiNodeConfig::pcie_cluster(nodes).with_owner(owner),
                    );
                    let full = cluster.plan(None);
                    let shards = cluster.shard(&full);
                    let max = shards
                        .iter()
                        .map(|s| s.stats().edges_planned)
                        .max()
                        .unwrap();
                    let mean =
                        shards.iter().map(|s| s.stats().edges_planned).sum::<u64>() / nodes as u64;
                    (owner, max, mean)
                })
                .collect();
        let (_, rr_max, rr_mean) = per_policy[0];
        let (_, deg_max, deg_mean) = per_policy[1];
        assert!(
            deg_max <= rr_max,
            "degree-weighted ownership must not worsen the bottleneck: {deg_max} vs {rr_max}"
        );
        rows.push(vec![
            nodes.to_string(),
            rr_max.to_string(),
            format!("{:.2}", rr_max as f64 / rr_mean.max(1) as f64),
            deg_max.to_string(),
            format!("{:.2}", deg_max as f64 / deg_mean.max(1) as f64),
            format!("{:.2}x", rr_max as f64 / deg_max.max(1) as f64),
        ]);
    }
    println!(
        "{}",
        graphr_bench::report::render_table(
            "Extension: skew-aware strip ownership (full-plan edge loads, power-law R-MAT 20k/150k)",
            &[
                "nodes",
                "rr max edges",
                "rr imbalance",
                "degree max edges",
                "degree imbalance",
                "bottleneck win"
            ],
            &rows,
        )
    );
}

/// The plan-aware cluster subsystem on the workload the dense model
/// prices worst: a sparse-frontier BFS, where each round updates only a
/// thin wavefront and the frontier-delta exchange ships exactly those
/// properties.
fn cluster_sparse_frontier() {
    let g = grid(160, 160);
    let config = graphr_core::GraphRConfig::builder()
        .crossbar_size(8)
        .crossbars_per_ge(32)
        .num_ges(4)
        .build()
        .expect("valid bench geometry");
    let opts = TraversalOptions::default();
    let single = run_bfs(&g, &config, &opts).expect("single-node bfs");
    let tiled = TiledGraph::preprocess(&g, &config).expect("grid tiles");

    let mut rows = Vec::new();
    for nodes in [1usize, 2, 4, 8] {
        let mut cluster = ClusterExecutor::new(
            &tiled,
            &config,
            opts.spec,
            MultiNodeConfig::pcie_cluster(nodes),
        );
        let run = run_bfs_with(&g, &mut cluster, &opts).expect("cluster bfs");
        assert_eq!(
            run.distances, single.distances,
            "partitioning must not change BFS labels ({nodes} nodes)"
        );
        let dense = dense_exchange_bytes(g.num_vertices(), run.metrics.iterations);
        if nodes > 1 {
            assert!(
                run.metrics.net.bytes_exchanged < dense,
                "plan-aware exchange must beat the dense all-gather: {} vs {} bytes",
                run.metrics.net.bytes_exchanged,
                dense
            );
        } else {
            assert!(
                !run.metrics.net.is_active(),
                "a one-node cluster has no interconnect"
            );
        }
        // A one-node cluster has no interconnect and therefore no
        // net.overlapped; its cluster total *is* its elapsed time.
        let cluster_total = if run.metrics.net.is_active() {
            run.metrics.net.overlapped
        } else {
            run.metrics.total_time()
        };
        rows.push(vec![
            nodes.to_string(),
            format!("{:.1} KiB", run.metrics.net.bytes_exchanged as f64 / 1024.0),
            format!("{:.1} KiB", dense as f64 / 1024.0),
            format!("{}", run.metrics.net.time),
            format!("{}", run.metrics.total_time()),
            format!("{}", cluster_total),
        ]);
    }
    println!(
        "{}",
        graphr_bench::report::render_table(
            "Extension: plan-aware cluster execution (sparse-frontier BFS on 160x160 grid)",
            &[
                "nodes",
                "exchanged",
                "dense all-gather",
                "exchange time",
                "compute+exchange",
                "cluster total"
            ],
            &rows,
        )
    );
}
