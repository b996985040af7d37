//! Property tests pinning fused multi-source traversals to their
//! executable specification: **K independent single-query runs**. A
//! fused run packs K queries as frontier lanes
//! ([`LaneFrontier`](graphr_repro::core::exec::LaneFrontier)), plans the
//! union frontier each iteration, and advances every lane with one scan
//! of the planned edge stream — so for every lane, over random graphs ×
//! random source sets × serial/parallel/cluster engines:
//!
//! * the per-query results (distances / labels) must be bit-identical
//!   to the independent run's, and
//! * the per-query attribution row
//!   ([`Metrics::lanes`](graphr_repro::core::Metrics)) — iterations,
//!   frontier totals and peak, settled vertices — must equal the row the
//!   independent run reports for itself.
//!
//! A single query is a one-lane run by construction: the single-query
//! drivers narrow a one-lane fused run, so K=1 fused and unfused agree on
//! the full machine [`Metrics`](graphr_repro::core::Metrics). The exact
//! charges of one add-op scan are pinned by a golden unit test next to
//! the strip kernel.

use graphr_repro::core::exec::{ScanEngine, StreamingExecutor};
use graphr_repro::core::multinode::{ClusterExecutor, MultiNodeConfig};
use graphr_repro::core::sim::{
    run_bfs_lanes_with, run_bfs_with, run_sssp_lanes_with, run_sssp_with, run_wcc_lanes_with,
    run_wcc_with, symmetrised, LaneTraversalOptions, TraversalOptions,
};
use graphr_repro::core::{GraphRConfig, TiledGraph};
use graphr_repro::graph::generators::rmat::Rmat;
use graphr_repro::graph::EdgeList;
use graphr_repro::units::FixedSpec;
use proptest::prelude::*;

/// A small geometry so tiny random graphs still tile into several
/// strips (exercising real union plans, not single-unit degenerates).
fn small_config() -> GraphRConfig {
    GraphRConfig::builder()
        .crossbar_size(4)
        .crossbars_per_ge(8)
        .num_ges(2)
        .build()
        .unwrap()
}

/// One engine of each determinism-contract flavour over the same
/// preprocessing: 0 = one-thread reference, 1 = three worker threads,
/// 2 = three-node cluster of one-thread nodes.
fn make_engine<'a>(
    kind: usize,
    tiled: &'a TiledGraph,
    config: &'a GraphRConfig,
    spec: FixedSpec,
) -> Box<dyn ScanEngine + 'a> {
    match kind {
        0 => Box::new(StreamingExecutor::new(tiled, config, spec)),
        1 => Box::new(StreamingExecutor::new(tiled, config, spec).with_threads(3)),
        _ => Box::new(ClusterExecutor::new(
            tiled,
            config,
            spec,
            MultiNodeConfig::pcie_cluster(3),
        )),
    }
}

/// Checks one fused traversal against its K independent runs on the
/// same engine kind: per-lane distances and attribution rows.
fn assert_lanes_match_solo(
    graph: &EdgeList,
    tiled: &TiledGraph,
    config: &GraphRConfig,
    kind: usize,
    sources: &[u32],
    sssp: bool,
) {
    let opts = LaneTraversalOptions::new(sources.to_vec());
    let fused = {
        let mut exec = make_engine(kind, tiled, config, opts.spec);
        if sssp {
            run_sssp_lanes_with(graph, exec.as_mut(), &opts).unwrap()
        } else {
            run_bfs_lanes_with(graph, exec.as_mut(), &opts).unwrap()
        }
    };
    assert_eq!(fused.distances.len(), sources.len());
    assert_eq!(fused.metrics.lanes.len(), sources.len());
    for (q, &source) in sources.iter().enumerate() {
        let solo_opts = TraversalOptions {
            source,
            ..TraversalOptions::default()
        };
        let mut solo_exec = make_engine(kind, tiled, config, solo_opts.spec);
        let solo = if sssp {
            run_sssp_with(graph, solo_exec.as_mut(), &solo_opts).unwrap()
        } else {
            run_bfs_with(graph, solo_exec.as_mut(), &solo_opts).unwrap()
        };
        assert_eq!(
            fused.distances[q], solo.distances,
            "lane {q} (source {source}, engine {kind}) results"
        );
        assert_eq!(
            fused.metrics.lanes[q], solo.metrics.lanes[0],
            "lane {q} (source {source}, engine {kind}) attribution"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fused BFS ≡ K independent BFS runs — results and per-lane
    /// attribution — on every engine flavour, for random graphs and
    /// random (possibly duplicated) source sets.
    #[test]
    fn fused_bfs_equals_independent_runs(
        v in 24usize..140,
        edge_factor in 2usize..6,
        seed in 0u64..1000,
        raw_sources in proptest::collection::vec(0usize..140, 1..7),
        kind in 0usize..3,
    ) {
        let graph = Rmat::new(v, v * edge_factor).seed(seed).generate();
        let sources: Vec<u32> = raw_sources.iter().map(|&s| (s % v) as u32).collect();
        let config = small_config();
        let tiled = TiledGraph::preprocess(&graph, &config).unwrap();
        assert_lanes_match_solo(&graph, &tiled, &config, kind, &sources, false);
    }

    /// The same specification for SSSP, whose lanes carry real weighted
    /// relaxations (value = edge weight instead of 1).
    #[test]
    fn fused_sssp_equals_independent_runs(
        v in 24usize..140,
        edge_factor in 2usize..6,
        seed in 0u64..1000,
        raw_sources in proptest::collection::vec(0usize..140, 1..7),
        kind in 0usize..3,
    ) {
        let graph = Rmat::new(v, v * edge_factor).seed(seed).generate();
        let sources: Vec<u32> = raw_sources.iter().map(|&s| (s % v) as u32).collect();
        let config = small_config();
        let tiled = TiledGraph::preprocess(&graph, &config).unwrap();
        assert_lanes_match_solo(&graph, &tiled, &config, kind, &sources, true);
    }

    /// Fused WCC lanes each reproduce the single label-propagation run:
    /// labels, component counts, and attribution rows.
    #[test]
    fn fused_wcc_equals_independent_runs(
        v in 24usize..120,
        edge_factor in 2usize..5,
        seed in 0u64..1000,
        k in 1usize..5,
        kind in 0usize..3,
    ) {
        let graph = Rmat::new(v, v * edge_factor).seed(seed).generate();
        let config = small_config();
        let sym = symmetrised(&graph);
        let tiled = TiledGraph::preprocess(&sym, &config).unwrap();
        let spec = FixedSpec::new(16, 0).unwrap();
        let fused = {
            let mut exec = make_engine(kind, &tiled, &config, spec);
            run_wcc_lanes_with(&graph, exec.as_mut(), k).unwrap()
        };
        let solo = {
            let mut exec = make_engine(kind, &tiled, &config, spec);
            run_wcc_with(&graph, exec.as_mut()).unwrap()
        };
        prop_assert_eq!(fused.labels.len(), k);
        for q in 0..k {
            prop_assert_eq!(&fused.labels[q], &solo.labels, "lane {}", q);
            prop_assert_eq!(fused.num_components[q], solo.num_components);
            prop_assert_eq!(fused.metrics.lanes[q], solo.metrics.lanes[0], "lane {}", q);
        }
    }

    /// K=1 pinned: a single query is a one-lane run by construction, so
    /// the fused and unfused entry points agree on full machine metrics,
    /// not just results, on every engine.
    #[test]
    fn single_lane_wave_is_the_unfused_run(
        v in 24usize..140,
        edge_factor in 2usize..6,
        seed in 0u64..1000,
        raw_source in 0usize..140,
        kind in 0usize..3,
    ) {
        let graph = Rmat::new(v, v * edge_factor).seed(seed).generate();
        let source = (raw_source % v) as u32;
        let config = small_config();
        let tiled = TiledGraph::preprocess(&graph, &config).unwrap();
        let opts = LaneTraversalOptions::new(vec![source]);
        let fused = {
            let mut exec = make_engine(kind, &tiled, &config, opts.spec);
            run_sssp_lanes_with(&graph, exec.as_mut(), &opts).unwrap()
        };
        let solo = {
            let mut exec = make_engine(kind, &tiled, &config, opts.spec);
            run_sssp_with(&graph, exec.as_mut(), &TraversalOptions {
                source,
                ..TraversalOptions::default()
            }).unwrap()
        };
        prop_assert_eq!(&fused.distances[0], &solo.distances);
        prop_assert_eq!(&fused.metrics, &solo.metrics, "K=1 fused must be the unfused run");
    }
}

/// The fused cost model only wins: a multi-source wave on one engine
/// never streams more bytes than the per-query sum, and matches the
/// serial fused accounting bit for bit on the other engine flavours.
#[test]
fn fused_wave_shares_the_stream_across_engines() {
    let graph = Rmat::new(160, 900).seed(11).generate();
    let config = small_config();
    let tiled = TiledGraph::preprocess(&graph, &config).unwrap();
    let opts = LaneTraversalOptions::new(vec![0, 7, 42, 42, 101]);
    let runs: Vec<_> = (0..3)
        .map(|kind| {
            let mut exec = make_engine(kind, &tiled, &config, opts.spec);
            run_bfs_lanes_with(&graph, exec.as_mut(), &opts).unwrap()
        })
        .collect();
    // Serial ≡ parallel bit-identically; the cluster adds only the net
    // exchange on top of identical results and lane attribution.
    assert_eq!(runs[0].distances, runs[1].distances);
    assert_eq!(runs[0].metrics, runs[1].metrics);
    assert_eq!(runs[0].distances, runs[2].distances);
    assert_eq!(runs[0].metrics.lanes, runs[2].metrics.lanes);
    // The union scan streams strictly less than the per-query sum here
    // (the five frontiers overlap heavily on this graph).
    let solo_bytes: u64 = opts
        .sources
        .iter()
        .map(|&source| {
            let mut exec = StreamingExecutor::new(&tiled, &config, opts.spec);
            let solo = run_bfs_with(
                &graph,
                &mut exec,
                &TraversalOptions {
                    source,
                    ..TraversalOptions::default()
                },
            )
            .unwrap();
            solo.metrics.events.bytes_streamed
        })
        .sum();
    assert!(
        runs[0].metrics.events.bytes_streamed < solo_bytes,
        "fused wave must stream less than {solo_bytes} summed bytes, \
         streamed {}",
        runs[0].metrics.events.bytes_streamed
    );
}
