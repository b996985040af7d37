//! Integration tests of the §3.4 preprocessing through the public API:
//! the Figure 12 worked geometry, edge-conservation round trips, and the
//! ordering properties the streaming-apply executor relies on.

use graphr_repro::core::exec::EdgeValueFn;
use graphr_repro::core::preprocess::TileOrder;
use graphr_repro::core::{GraphRConfig, TiledGraph};
use graphr_repro::graph::generators::rmat::Rmat;
use graphr_repro::graph::generators::structured::figure5;
use graphr_repro::units::{BitSlicer, FixedSpec};
use proptest::prelude::*;

/// The Figure 12 node: C=4, N=2, G=2, B=32 with single-slice 4-bit data.
fn figure12_config() -> GraphRConfig {
    GraphRConfig::builder()
        .crossbar_size(4)
        .crossbars_per_ge(2)
        .num_ges(2)
        .spec(FixedSpec::new(5, 0).expect("valid spec"))
        .slicer(BitSlicer::new(4, 1).expect("valid slicer"))
        .block_vertices(32)
        .build()
        .expect("figure-12 geometry is valid")
}

/// Every subgraph's `(src, dst)` edges, subgraphs in streamed order,
/// rebuilt from slot coordinates and each cell's source and strip-local
/// destination.
fn subgraph_edges(tiled: &TiledGraph) -> Vec<Vec<(usize, usize)>> {
    let mut out = Vec::new();
    for block in 0..tiled.num_blocks() {
        for strip in 0..tiled.order().strips_per_block() {
            let dst0 = tiled.strip_dst_start(block, strip);
            for ord in tiled.slot_subgraphs(block, strip) {
                let edges = tiled.subgraph(ord).cells().flat_map(|cell| {
                    let edge = (cell.src as usize, dst0 + usize::from(cell.local));
                    std::iter::repeat_n(edge, cell.weights.len())
                });
                out.push(edges.collect());
            }
        }
    }
    out
}

#[test]
fn figure12_worked_example_counts() {
    // 64 vertices → 2×2 blocks; each block: 2 strips × 8 chunks = 16
    // subgraphs of 4×16 positions — exactly the paper's walkthrough.
    let order = TileOrder::new(64, 4, 16, 32).expect("valid geometry");
    assert_eq!(order.num_blocks(), 4);
    assert_eq!(order.subgraphs_per_block(), 16);
    assert_eq!(order.positions_per_subgraph(), 64);
    // Block traversal order B(0,0)→B(1,0)→B(0,1)→B(1,1).
    assert!(order.global_id(0, 0) < order.global_id(32, 0));
    assert!(order.global_id(32, 0) < order.global_id(0, 32));
    assert!(order.global_id(0, 32) < order.global_id(32, 32));
}

#[test]
fn figure5_graph_preprocesses_losslessly() {
    let g = figure5();
    let tiled = TiledGraph::preprocess(&g, &figure12_config()).expect("valid geometry");
    assert_eq!(tiled.total_edges(), 25);
    // Reconstruct every edge from tile coordinates.
    let mut rebuilt: Vec<(u32, u32)> = subgraph_edges(&tiled)
        .into_iter()
        .flatten()
        .map(|(src, dst)| (src as u32, dst as u32))
        .collect();
    rebuilt.sort_unstable();
    let mut expected: Vec<(u32, u32)> = g.iter().map(|e| (e.src, e.dst)).collect();
    expected.sort_unstable();
    assert_eq!(rebuilt, expected);
}

#[test]
fn default_node_tiles_real_sized_graph() {
    let g = Rmat::new(10_000, 80_000).seed(1).generate();
    let config = GraphRConfig::default();
    let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");
    assert_eq!(tiled.total_edges(), 80_000);
    assert!(tiled.nonempty_tiles() <= 80_000);
    assert!(tiled.nonempty_subgraphs() <= tiled.total_subgraph_slots());
    // 10 K vertices pad to 3 strips of the 4096-wide window.
    assert_eq!(tiled.order().padded_vertices(), 12288);
}

/// Strip-local destinations are 16-bit, so a strip wider than 65,536
/// destinations is a configuration error, returned rather than panicked
/// on; a strip of exactly 65,536 tiles.
#[test]
fn strips_wider_than_the_layout_addresses_are_rejected() {
    let strips = |ges: usize| {
        GraphRConfig::builder()
            .crossbar_size(256)
            .crossbars_per_ge(16)
            .num_ges(ges)
            .spec(FixedSpec::new(5, 0).expect("valid spec"))
            .slicer(BitSlicer::new(4, 1).expect("valid slicer"))
            .build()
            .expect("a valid node")
    };
    let g = Rmat::new(100, 400).seed(2).generate();
    let widest = strips(16);
    assert_eq!(widest.strip_width(), 65_536);
    let tiled = TiledGraph::preprocess(&g, &widest).expect("the widest strip tiles");
    assert_eq!(tiled.total_edges(), 400);
    let too_wide = strips(17);
    let err = TiledGraph::preprocess(&g, &too_wide).expect_err("a 69,632-wide strip");
    assert!(err.to_string().contains("strip width 69632"), "{err}");
}

#[test]
fn ordering_is_disk_sequential() {
    // Walking the tiled structure in executor order must visit edges in
    // nondecreasing global-order-ID — the §3.4 guarantee that block loads
    // are strictly sequential.
    let g = Rmat::new(80, 500).seed(4).generate();
    let config = figure12_config();
    let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");
    let order = *tiled.order();
    let mut last = 0u64;
    for edges in subgraph_edges(&tiled) {
        // Per subgraph, take the smallest-ID edge; across the walk those
        // must be nondecreasing.
        let min_id = edges
            .iter()
            .map(|&(src, dst)| order.global_id(src, dst))
            .min()
            .expect("nonempty subgraph");
        assert!(min_id >= last, "subgraph order regressed");
        last = min_id;
    }
}

#[test]
fn empty_graph_tiles_and_scans() {
    // No edges at all: the tiler must produce a consistent (all-empty)
    // structure whose strip units still cover the destination axis, and a
    // scan over it must return zeros without charging any subgraph work.
    let g = graphr_repro::graph::EdgeList::new(10);
    let config = figure12_config();
    let tiled = TiledGraph::preprocess(&g, &config).expect("empty graph tiles");
    assert_eq!(tiled.total_edges(), 0);
    assert_eq!(tiled.nonempty_subgraphs(), 0);
    let units = graphr_repro::core::exec::strip_units(&tiled);
    assert_eq!(units.iter().map(|u| u.dst_len).sum::<usize>(), 10);
    let mut exec = graphr_repro::core::exec::StreamingExecutor::new(
        &tiled,
        &config,
        FixedSpec::new(16, 8).expect("valid spec"),
    );
    let x = vec![1.0; 10];
    let y = exec.scan_mac(&EdgeValueFn::new(&|w, _, _| f64::from(w)), &[&x]);
    assert_eq!(y[0], vec![0.0; 10]);
    assert_eq!(exec.metrics().events.subgraphs_processed, 0);
}

#[test]
fn single_vertex_graph_tiles_and_scans() {
    // One vertex, optionally a self-loop: the smallest possible strip.
    let mut g = graphr_repro::graph::EdgeList::new(1);
    g.add_edge(graphr_repro::graph::Edge::new(0, 0, 3.0))
        .expect("in range");
    let config = figure12_config();
    let tiled = TiledGraph::preprocess(&g, &config).expect("single vertex tiles");
    assert_eq!(tiled.total_edges(), 1);
    assert_eq!(tiled.nonempty_subgraphs(), 1);
    let units = graphr_repro::core::exec::strip_units(&tiled);
    // Only the first unit covers a real vertex; padding units carry none.
    assert_eq!(units[0].dst_len, 1);
    assert!(units[1..].iter().all(|u| u.dst_len == 0));
    let mut exec = graphr_repro::core::exec::StreamingExecutor::new(
        &tiled,
        &config,
        FixedSpec::new(16, 8).expect("valid spec"),
    );
    let y = exec.scan_mac(&EdgeValueFn::new(&|w, _, _| f64::from(w)), &[&[2.0][..]]);
    assert_eq!(y[0], vec![6.0]);
}

#[test]
fn non_multiple_strip_width_boundaries_hold() {
    // Vertex counts straddling the strip width (16 here): the final
    // partial strip is exactly where the runtime's sharding boundaries
    // sit, so the scan must stay lossless there.
    let config = figure12_config();
    for n in [15usize, 17, 31, 33, 47] {
        let g = Rmat::new(n, 6 * n).seed(n as u64).max_weight(5).generate();
        let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");
        let units = graphr_repro::core::exec::strip_units(&tiled);
        // Units partition [0, n): disjoint, ordered, complete.
        let mut next = 0usize;
        for u in &units {
            if u.dst_len > 0 {
                assert_eq!(u.dst_start, next, "gap before unit at n={n}");
                next = u.dst_start + u.dst_len;
            }
        }
        assert_eq!(next, n, "units must cover all {n} vertices");
        // A MAC scan equals the gold SpMV despite the partial strip.
        let mut exec = graphr_repro::core::exec::StreamingExecutor::new(
            &tiled,
            &config,
            FixedSpec::new(16, 8).expect("valid spec"),
        );
        let x: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
        let y = exec.scan_mac(&EdgeValueFn::new(&|w, _, _| f64::from(w)), &[&x]);
        let gold = graphr_repro::graph::algorithms::spmv::spmv(&g.to_csr(), &x);
        for (a, b) in y[0].iter().zip(&gold) {
            assert!((a - b).abs() < 1e-6, "n={n}: {a} vs {b}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn preprocessing_conserves_edges(
        n in 1usize..200,
        m in 0usize..600,
        seed in 0u64..25,
    ) {
        let g = Rmat::new(n, m).seed(seed).generate();
        let tiled = TiledGraph::preprocess(&g, &figure12_config()).unwrap();
        let total: usize = (0..tiled.nonempty_subgraphs())
            .flat_map(|ord| tiled.subgraph(ord).cells())
            .map(|cell| cell.weights.len())
            .sum();
        prop_assert_eq!(total, m);
    }

    #[test]
    fn padding_never_creates_edges(extra in 1usize..40) {
        // A graph whose vertex count is deliberately not a multiple of
        // anything: padding must not invent or lose edges.
        let n = 32 + extra;
        let g = Rmat::new(n, 100).seed(extra as u64).generate();
        let tiled = TiledGraph::preprocess(&g, &figure12_config()).unwrap();
        prop_assert_eq!(tiled.total_edges(), 100);
        prop_assert!(tiled.order().padded_vertices() >= n);
        prop_assert_eq!(tiled.order().padded_vertices() % 32, 0);
    }
}
