//! Integration tests of the cluster execution subsystem: sharding a
//! `ScanPlan` across simulated GraphR nodes must be observationally
//! invisible — bit-identical results for any node count, bit-identical
//! *full Metrics* for a one-node cluster — while the plan-aware property
//! exchange never charges more bytes than the dense all-gather.

use graphr_repro::core::exec::StreamingExecutor;
use graphr_repro::core::multinode::{
    dense_exchange_bytes, ClusterExecutor, MultiNodeConfig, BYTES_PER_PROPERTY,
};
use graphr_repro::core::outofcore::DiskModel;
use graphr_repro::core::sim::{
    run_bfs, run_bfs_with, run_pagerank, run_pagerank_with, run_spmv, run_sssp, run_sssp_with,
    run_wcc, PageRankOptions, SpmvOptions, TraversalOptions,
};
use graphr_repro::core::{GraphRConfig, TiledGraph};
use graphr_repro::graph::generators::rmat::Rmat;
use graphr_repro::graph::generators::structured::grid;
use graphr_repro::graph::GraphHandle;
use graphr_runtime::{Job, JobSpec, Session};
use proptest::prelude::*;

fn test_config() -> GraphRConfig {
    GraphRConfig::builder()
        .crossbar_size(4)
        .crossbars_per_ge(8)
        .num_ges(2)
        .build()
        .expect("valid test geometry")
}

fn rmat_handle() -> GraphHandle {
    GraphHandle::new(
        "rmat-250",
        Rmat::new(250, 1500).seed(42).max_weight(9).generate(),
    )
}

/// Every application, submitted on a one-node cluster and on the plain
/// single-node engine: `JobOutput`'s `PartialEq` covers the functional
/// result *and* the full `Metrics`, so this is the bit-identity contract.
#[test]
fn one_node_cluster_is_bit_identical_for_every_app() {
    let handle = rmat_handle();
    let specs = [
        JobSpec::PageRank(PageRankOptions::default()),
        JobSpec::Spmv(SpmvOptions::default()),
        JobSpec::Bfs(TraversalOptions::default()),
        JobSpec::Sssp(TraversalOptions::default()),
        JobSpec::Wcc,
    ];
    for spec in specs {
        let single = Session::new(test_config())
            .submit(&Job::new(handle.clone(), spec.clone()))
            .expect("single-node run");
        let cluster = Session::new(test_config())
            .with_cluster(MultiNodeConfig::pcie_cluster(1))
            .submit(&Job::new(handle.clone(), spec.clone()))
            .expect("one-node cluster run");
        assert_eq!(
            single.output,
            cluster.output,
            "{}: a one-node cluster must be bit-identical (results + Metrics)",
            spec.name()
        );
        assert!(!cluster.output.metrics().net.is_active());
        cluster
            .output
            .metrics()
            .validate()
            .unwrap_or_else(|e| panic!("{}: inconsistent cluster metrics: {e}", spec.name()));
    }
}

/// The same contract under a disk model: one-node cluster out-of-core
/// accounting is the single-node engine's, bit for bit.
#[test]
fn one_node_cluster_with_disk_is_bit_identical() {
    let handle = rmat_handle();
    let spec = JobSpec::Sssp(TraversalOptions::default());
    let single = Session::new(test_config())
        .with_disk(DiskModel::nvme())
        .submit(&Job::new(handle.clone(), spec.clone()))
        .expect("single-node run");
    let cluster = Session::new(test_config())
        .with_disk(DiskModel::nvme())
        .with_cluster(MultiNodeConfig::pcie_cluster(1))
        .submit(&Job::new(handle, spec))
        .expect("one-node cluster run");
    assert!(single.output.metrics().disk.is_active());
    assert_eq!(single.output, cluster.output);
}

/// Cluster execution across node counts, serial and parallel engines:
/// identical functional results, identical summed event accounting, and
/// an active plan-aware exchange.
#[test]
fn cluster_results_identical_across_node_counts_and_modes() {
    let handle = rmat_handle();
    let single = Session::new(test_config())
        .submit(&Job::new(
            handle.clone(),
            JobSpec::Sssp(TraversalOptions::default()),
        ))
        .expect("single-node run");
    let single_m = single.output.metrics().clone();
    for nodes in [2usize, 3, 4, 7] {
        for threads in [1, 4] {
            let report = Session::new(test_config())
                .with_threads(threads)
                .with_cluster(MultiNodeConfig::pcie_cluster(nodes))
                .submit(&Job::new(
                    handle.clone(),
                    JobSpec::Sssp(TraversalOptions::default()),
                ))
                .expect("cluster run");
            let m = report.output.metrics();
            match (&report.output, &single.output) {
                (
                    graphr_runtime::JobOutput::Traversal(c),
                    graphr_runtime::JobOutput::Traversal(s),
                ) => assert_eq!(c.distances, s.distances, "{nodes} nodes, {threads} threads"),
                other => panic!("unexpected outputs {other:?}"),
            }
            assert_eq!(
                m.events, single_m.events,
                "summed per-node events must equal the single-node scan ({nodes} nodes, {threads} threads)"
            );
            assert_eq!(m.iterations, single_m.iterations);
            assert!(m.net.is_active(), "{nodes} nodes must exchange properties");
            m.validate().unwrap_or_else(|e| {
                panic!("inconsistent metrics ({nodes} nodes, {threads} threads): {e}")
            });
        }
    }
}

/// The acceptance case: a 4-node sparse-frontier BFS on a high-diameter
/// grid. Distances match the single-node run exactly, and the
/// frontier-delta exchange charges strictly fewer bytes than the dense
/// all-gather baseline.
#[test]
fn four_node_sparse_frontier_bfs_beats_the_dense_all_gather() {
    let g = grid(40, 40);
    let cfg = test_config();
    let opts = TraversalOptions::default();
    let single = run_bfs(&g, &cfg, &opts).expect("single-node bfs");
    let tiled = TiledGraph::preprocess(&g, &cfg).expect("grid tiles");
    let mut cluster =
        ClusterExecutor::new(&tiled, &cfg, opts.spec, MultiNodeConfig::pcie_cluster(4));
    let run = run_bfs_with(&g, &mut cluster, &opts).expect("cluster bfs");
    assert_eq!(run.distances, single.distances);

    let dense = dense_exchange_bytes(g.num_vertices(), run.metrics.iterations);
    assert!(
        run.metrics.net.bytes_exchanged < dense,
        "frontier-delta exchange must beat the all-gather: {} vs {} bytes",
        run.metrics.net.bytes_exchanged,
        dense
    );
    assert!(run.metrics.net.bytes_exchanged > 0);
    // Exactly the reached non-source vertices' first-touch updates, each
    // exchanged once at 2 bytes (labels only drop once in BFS).
    let reached = run.distances.iter().filter(|d| d.is_some()).count() as u64;
    assert_eq!(
        run.metrics.net.bytes_exchanged,
        (reached - 1) * BYTES_PER_PROPERTY
    );
}

/// Regression (satellite): across the dense MAC and sparse add-op
/// applications alike, the plan-aware exchange never charges more bytes
/// than the legacy dense all-gather — equality for dense PageRank (every
/// destination is touched every iteration), strict win for traversals.
#[test]
fn plan_aware_exchange_is_bounded_by_the_dense_all_gather() {
    let g = Rmat::new(250, 1500).seed(42).max_weight(9).generate();
    let cfg = test_config();
    let tiled = TiledGraph::preprocess(&g, &cfg).expect("valid geometry");
    let cluster_cfg = MultiNodeConfig::pcie_cluster(4);

    // Dense MAC: PageRank touches all |V| destinations every iteration,
    // so the plan-aware exchange equals the all-gather — the bound is
    // tight, never exceeded.
    let pr_opts = PageRankOptions {
        max_iterations: 6,
        tolerance: 0.0,
        ..PageRankOptions::default()
    };
    let mut pr_cluster = ClusterExecutor::new(&tiled, &cfg, pr_opts.matrix_spec, cluster_cfg);
    let pr = run_pagerank_with(&g, &mut pr_cluster, &pr_opts).expect("cluster pagerank");
    let pr_dense = dense_exchange_bytes(g.num_vertices(), pr.metrics.iterations);
    assert_eq!(pr.metrics.net.bytes_exchanged, pr_dense);

    // Sparse add-op: SSSP's frontier-delta exchange is strictly below.
    let tr_opts = TraversalOptions::default();
    let mut tr_cluster = ClusterExecutor::new(&tiled, &cfg, tr_opts.spec, cluster_cfg);
    let tr = run_sssp_with(&g, &mut tr_cluster, &tr_opts).expect("cluster sssp");
    let tr_dense = dense_exchange_bytes(g.num_vertices(), tr.metrics.iterations);
    assert!(tr.metrics.net.bytes_exchanged < tr_dense);
    assert!(tr.metrics.net.bytes_exchanged > 0);
}

/// Cluster + disk compose: each node loads only its owned planned spans,
/// and the bytes sum exactly to the single-node plan-aware loading.
#[test]
fn cluster_disk_bytes_sum_to_the_single_node_loading() {
    let handle = rmat_handle();
    let spec = JobSpec::Bfs(TraversalOptions::default());
    let single = Session::new(test_config())
        .with_disk(DiskModel::nvme())
        .submit(&Job::new(handle.clone(), spec.clone()))
        .expect("single-node run");
    let cluster = Session::new(test_config())
        .with_disk(DiskModel::nvme())
        .with_cluster(MultiNodeConfig::pcie_cluster(4))
        .submit(&Job::new(handle, spec))
        .expect("cluster run");
    let s = single.output.metrics();
    let c = cluster.output.metrics();
    assert!(c.disk.is_active() && c.net.is_active());
    s.validate().expect("single-node disk metrics consistent");
    c.validate().expect("cluster disk metrics consistent");
    assert_eq!(
        c.disk.bytes_loaded, s.disk.bytes_loaded,
        "per-node loads must partition the planned bytes"
    );
    assert!(
        c.disk.blocks_loaded + c.disk.blocks_seeked >= s.disk.blocks_loaded + s.disk.blocks_seeked,
        "each node walks its own replicated on-disk image"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any graph and any node count, a full SSSP run on the cluster
    /// is functionally bit-identical to the single-node engine, its
    /// summed event accounting matches, and the exchange stays within
    /// the dense all-gather bound.
    #[test]
    fn cluster_sssp_is_bit_identical_for_any_node_count(
        n in 2usize..120,
        m in 0usize..500,
        seed in 0u64..20,
        nodes in 1usize..6,
    ) {
        let g = Rmat::new(n, m).seed(seed).max_weight(9).generate();
        let cfg = test_config();
        let opts = TraversalOptions::default();
        let single = run_sssp(&g, &cfg, &opts).expect("single-node run");
        let tiled = TiledGraph::preprocess(&g, &cfg).expect("valid geometry");
        let mut cluster =
            ClusterExecutor::new(&tiled, &cfg, opts.spec, MultiNodeConfig::pcie_cluster(nodes));
        let run = run_sssp_with(&g, &mut cluster, &opts).expect("cluster run");
        prop_assert_eq!(run.distances, single.distances);
        prop_assert_eq!(run.metrics.events, single.metrics.events);
        prop_assert_eq!(run.metrics.iterations, single.metrics.iterations);
        if nodes == 1 {
            prop_assert_eq!(run.metrics, single.metrics);
        } else {
            let dense = dense_exchange_bytes(
                g.num_vertices(),
                run.metrics.iterations,
            );
            prop_assert!(run.metrics.net.bytes_exchanged <= dense);
        }
    }

    /// The MAC pattern under clustering: PageRank values are bit-identical
    /// for any node count, and WCC labels survive partitioning too.
    #[test]
    fn cluster_mac_and_wcc_match_single_node(
        n in 2usize..100,
        m in 0usize..400,
        seed in 0u64..16,
        nodes in 2usize..5,
    ) {
        let g = Rmat::new(n, m).seed(seed).generate();
        let cfg = test_config();
        let opts = PageRankOptions {
            max_iterations: 4,
            tolerance: 0.0,
            ..PageRankOptions::default()
        };
        let single = run_pagerank(&g, &cfg, &opts).expect("single-node run");
        let tiled = TiledGraph::preprocess(&g, &cfg).expect("valid geometry");
        let mut cluster = ClusterExecutor::new(
            &tiled,
            &cfg,
            opts.matrix_spec,
            MultiNodeConfig::pcie_cluster(nodes),
        );
        let run = run_pagerank_with(&g, &mut cluster, &opts).expect("cluster run");
        prop_assert_eq!(run.values, single.values);

        let wcc_single = run_wcc(&g, &cfg).expect("single-node wcc");
        let wcc_cluster = Session::new(cfg.clone())
            .with_cluster(MultiNodeConfig::pcie_cluster(nodes))
            .submit(&Job::new(
                GraphHandle::new("wcc-prop", g.clone()),
                JobSpec::Wcc,
            ))
            .expect("cluster wcc");
        match wcc_cluster.output {
            graphr_runtime::JobOutput::Wcc(run) => {
                prop_assert_eq!(run.labels, wcc_single.labels);
                prop_assert_eq!(run.num_components, wcc_single.num_components);
            }
            other => prop_assert!(false, "unexpected output {:?}", other),
        }
    }
}

/// One tiling serves a cluster and a single engine alike: after a 4-node
/// cluster's PageRank has scanned the nodes' shares of the dense plan over
/// it, a fresh single engine on the same tiling gives a single engine's
/// bits and metrics, and the cluster's ranks are the single engine's.
#[test]
fn cluster_and_single_engine_agree_on_one_tiling() {
    let g = Rmat::new(250, 1500).seed(42).max_weight(9).generate();
    let cfg = test_config();
    let opts = PageRankOptions {
        max_iterations: 4,
        tolerance: 0.0,
        ..PageRankOptions::default()
    };
    let pagerank = |tiled: &TiledGraph| {
        let mut exec = StreamingExecutor::new(tiled, &cfg, opts.matrix_spec);
        let run = run_pagerank_with(&g, &mut exec, &opts).expect("single-node run");
        let bits: Vec<u64> = run.values.iter().map(|v| v.to_bits()).collect();
        (bits, run.metrics)
    };
    let single_tiled = TiledGraph::preprocess(&g, &cfg).expect("valid geometry");
    let single = pagerank(&single_tiled);

    let tiled = TiledGraph::preprocess(&g, &cfg).expect("valid geometry");
    let cluster = MultiNodeConfig::pcie_cluster(4);
    let mut exec = ClusterExecutor::new(&tiled, &cfg, opts.matrix_spec, cluster);
    let run = run_pagerank_with(&g, &mut exec, &opts).expect("cluster run");
    let bits: Vec<u64> = run.values.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, single.0, "cluster ranks");
    assert_eq!(
        pagerank(&tiled),
        single,
        "single engine on the cluster's tiling"
    );
}

/// A masked SpMV (MAC-side pruning) through the cluster: the pruned plan
/// is sharded like any other, results stay bit-identical to the unmasked
/// single-node pass, and a sparse mask's exchange covers only the planned
/// destination strips — strictly below the dense bound on a graph whose
/// active sources reach few strips.
#[test]
fn masked_spmv_on_a_cluster_matches_unmasked_single_node() {
    let g = grid(20, 20);
    let n = g.num_vertices();
    let cfg = test_config();
    // One active source: its handful of out-edges reach at most a couple
    // of destination strips, so almost everything is pruned.
    let mut mask = graphr_repro::core::exec::mask::FrontierMask::new(n);
    mask.set(0);
    let input: Vec<f64> = (0..n)
        .map(|v| if mask.get(v) { 2.0 } else { 0.0 })
        .collect();
    let unmasked = run_spmv(
        &g,
        &cfg,
        &SpmvOptions {
            input: Some(input.clone()),
            ..SpmvOptions::default()
        },
    )
    .expect("unmasked single-node run");

    let tiled = TiledGraph::preprocess(&g, &cfg).expect("valid geometry");
    let opts = SpmvOptions {
        input: Some(input),
        source_mask: Some(mask),
        ..SpmvOptions::default()
    };
    let mut cluster = ClusterExecutor::new(
        &tiled,
        &cfg,
        opts.matrix_spec,
        MultiNodeConfig::pcie_cluster(3),
    );
    let masked = graphr_repro::core::sim::run_spmv_with(&g, &mut cluster, &opts)
        .expect("masked cluster run");
    assert_eq!(masked.values, unmasked.values);
    assert!(masked.metrics.events.subgraphs_pruned > 0);
    let dense = dense_exchange_bytes(n, 1);
    assert!(
        masked.metrics.net.bytes_exchanged < dense,
        "pruned MAC exchange covers only planned destinations: {} vs {}",
        masked.metrics.net.bytes_exchanged,
        dense
    );
    assert!(masked.metrics.net.bytes_exchanged > 0);
}
