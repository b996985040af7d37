//! Oracle tests of the Fast-fidelity scan kernels: the default kernels
//! walk each tile's stored cells (MAC scans through the tiling's cell
//! index and the executor's codes), while the tile reference
//! ([`StreamingExecutor::with_tile_reference`]) programs a dense
//! [`TileCompute`](graphr_repro::core::engine::TileCompute) image per tile
//! and reads it back with `mac` / `row_entries`. Both must agree to the
//! last bit — outputs by `f64::to_bits`, lane frontiers, updated lane
//! words, row drives and the whole `Metrics` — on multigraphs, signed
//! values, zero inputs, every crossbar size, padded columns, both
//! streaming orders and at one to seven worker threads.
//!
//! `PROPTEST_CASES` sets the cases per property (default 32).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use graphr_repro::core::exec::{
    strip_units, EdgeValueFn, FrontierDelta, FrontierMask, LaneFrontier, PlanSkeleton, Planner,
    ScanEngine, ScanPlan, StreamingExecutor,
};
use graphr_repro::core::multinode::{ClusterExecutor, MultiNodeConfig, OwnerPolicy};
use graphr_repro::core::outofcore::DiskModel;
use graphr_repro::core::sim::{
    cf_config_for, run_cf_with, run_pagerank_with, run_spmv_with, CfMatrix, CfOptions,
    PageRankOptions, ScalarRun, SpmvOptions,
};
use graphr_repro::core::trace::TraceHandle;
use graphr_repro::core::{GraphRConfig, Metrics, StreamingOrder, TiledGraph};
use graphr_repro::graph::generators::bipartite::RatingMatrix;
use graphr_repro::graph::generators::rmat::Rmat;
use graphr_repro::graph::{Edge, EdgeList};
use graphr_repro::reram::SignMode;
use graphr_repro::units::FixedSpec;
use proptest::prelude::*;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

/// Deterministic per-case hash, so derived inputs are reproducible from
/// the printed case inputs.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A config with `c × c` crossbars. Differential storage doubles the
/// arrays per tile, which is how collaborative filtering stores signed
/// values.
fn config(c: usize, order: StreamingOrder, signed: bool) -> GraphRConfig {
    GraphRConfig::builder()
        .crossbar_size(c)
        .crossbars_per_ge(8)
        .num_ges(2)
        .order(order)
        .sign_mode(if signed {
            SignMode::Differential
        } else {
            SignMode::Unsigned
        })
        .build()
        .expect("valid test geometry")
}

/// An R-MAT multigraph with every `dup`-th edge repeated under a new
/// weight, so parallel edges share crossbar cells.
fn multigraph(n: usize, m: usize, seed: u64, dup: usize) -> EdgeList {
    let g = Rmat::new(n, m).seed(seed).max_weight(9).generate();
    let mut edges = g.edges().to_vec();
    for (i, e) in g.edges().iter().enumerate().step_by(dup) {
        edges.push(Edge::new(e.src, e.dst, (i % 7) as f32 + 0.5));
    }
    EdgeList::from_edges(n, edges).expect("in-range edges")
}

/// Edge values: the weight, or under `signed` a mix of signs and
/// fractions.
fn edge_value(signed: bool) -> impl Fn(f32, u32, u32) -> f64 + Sync {
    move |w, src, dst| {
        if signed {
            f64::from(w) * 0.375 - 1.5 + f64::from((src ^ dst) % 5) * 0.125
        } else {
            f64::from(w)
        }
    }
}

fn bits(v: &[Vec<f64>]) -> Vec<Vec<u64>> {
    v.iter()
        .map(|x| x.iter().map(|f| f.to_bits()).collect())
        .collect()
}

/// Four MAC scans of `inputs` under one value: over the plan pruned to
/// `mask`, whose units each fill scratch codes as they scan; over the
/// dense plan, which fills the kept codes; and over both plans again, the
/// dense scan reading the kept codes. Each scan's outputs as bits, and the
/// metrics.
fn mac_scan(
    signed: bool,
    inputs: &[Vec<f64>],
    mask: &FrontierMask,
    exec: StreamingExecutor<'_>,
) -> (Vec<Vec<Vec<u64>>>, Metrics) {
    let value = edge_value(signed);
    mac_scan_of(&EdgeValueFn::new(&value), inputs, mask, exec)
}

/// [`mac_scan`] under `value`.
fn mac_scan_of(
    value: &EdgeValueFn<'_>,
    inputs: &[Vec<f64>],
    mask: &FrontierMask,
    mut exec: StreamingExecutor<'_>,
) -> (Vec<Vec<Vec<u64>>>, Metrics) {
    let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
    let (pruned, dense) = (exec.plan(Some(mask)), exec.plan(None));
    let out = [&pruned, &dense, &dense, &pruned]
        .map(|plan| bits(&exec.scan_mac_planned(plan, value, &refs)));
    (out.to_vec(), exec.into_metrics())
}

/// One lane-fused add-op scan under `value` over the union plan of
/// `active`: lane frontiers as bits, updated lanes, row drives and the
/// metrics.
fn add_op_scan(
    value: &EdgeValueFn<'_>,
    active: &LaneFrontier,
    addends: &[Vec<f64>],
    mut exec: StreamingExecutor<'_>,
) -> (Vec<Vec<u64>>, LaneFrontier, u64, Metrics) {
    let n = active.num_vertices();
    let k = active.num_lanes();
    let plan = exec.plan(Some(active.union()));
    let mut frontiers = addends.to_vec();
    let mut updated = LaneFrontier::new(n, k);
    let drives = exec.scan_add_op_lanes_planned(
        &plan,
        value,
        &|du, w| du + w,
        addends,
        active,
        &mut frontiers,
        &mut updated,
    );
    (bits(&frontiers), updated, drives, exec.into_metrics())
}

const SIZES: [usize; 4] = [2, 4, 8, 16];
const ORDERS: [StreamingOrder; 2] = [StreamingOrder::ColumnMajor, StreamingOrder::RowMajor];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// MAC: K input vectors with zeros and negative entries, against the
    /// tile reference.
    #[test]
    fn fast_mac_matches_tile_reference(
        size in 0usize..4,
        order in 0usize..2,
        signed in 0usize..2,
        n in 1usize..300,
        m in 0usize..2500,
        seed in 0u64..1000,
        dup in 1usize..6,
        k in 1usize..=4,
    ) {
        let signed = signed == 1;
        let config = config(SIZES[size], ORDERS[order], signed);
        let g = multigraph(n, m, seed, dup);
        let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");
        let spec = FixedSpec::new(16, 12).expect("Q4.12 is valid");
        // Entries in {-0.5, 0, 0.25, 0.5, 0.75, 1}: zero about one in six.
        let inputs: Vec<Vec<f64>> = (0..k)
            .map(|q| {
                (0..n)
                    .map(|v| (mix(seed, (q * n + v) as u64) % 6) as f64 * 0.25 - 0.25)
                    .map(|x| if x < 0.0 { -0.5 } else { x })
                    .collect()
            })
            .collect();
        // Sources in about two thirds of the 16-vertex runs.
        let mask = FrontierMask::from_slice(
            &(0..n).map(|v| !mix(seed ^ 0x3C, (v / 16) as u64).is_multiple_of(3)).collect::<Vec<_>>(),
        );
        let reference = StreamingExecutor::new(&tiled, &config, spec).with_tile_reference();
        let expected = mac_scan(signed, &inputs, &mask, reference);
        for threads in [1, 2] {
            let exec = StreamingExecutor::new(&tiled, &config, spec).with_threads(threads);
            let got = mac_scan(signed, &inputs, &mask, exec);
            prop_assert_eq!(&got.0, &expected.0, "outputs at {} threads", threads);
            prop_assert_eq!(&got.1, &expected.1, "metrics at {} threads", threads);
        }
    }

    /// Add-op: 1..64 lanes with random per-lane frontiers, against the
    /// tile reference.
    #[test]
    fn fast_add_op_matches_tile_reference(
        size in 0usize..4,
        order in 0usize..2,
        signed in 0usize..2,
        n in 1usize..300,
        m in 0usize..2500,
        seed in 0u64..1000,
        dup in 1usize..6,
        lanes in 1usize..=64,
        density in 1u64..5,
    ) {
        let signed = signed == 1;
        let config = config(SIZES[size], ORDERS[order], signed);
        let g = multigraph(n, m, seed, dup);
        let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");
        let spec = FixedSpec::new(16, 0).expect("Q16.0 is valid");
        let masks: Vec<FrontierMask> = (0..lanes)
            .map(|q| {
                let mut mask = FrontierMask::new(n);
                for v in 0..n {
                    if mix(seed ^ 0xA5, (q * n + v) as u64).is_multiple_of(density) {
                        mask.set(v);
                    }
                }
                mask
            })
            .collect();
        let active = LaneFrontier::from_masks(&masks);
        let addends: Vec<Vec<f64>> = (0..lanes)
            .map(|q| {
                (0..n)
                    .map(|v| match mix(seed ^ 0x5A, (q * n + v) as u64) % 4 {
                        0 => spec.max_value(),
                        r => (r * 7 + v as u64 % 11) as f64,
                    })
                    .collect()
            })
            .collect();
        let value = edge_value(signed);
        let value = EdgeValueFn::new(&value);
        let reference = StreamingExecutor::new(&tiled, &config, spec).with_tile_reference();
        let expected = add_op_scan(&value, &active, &addends, reference);
        for threads in [1, 2] {
            let exec = StreamingExecutor::new(&tiled, &config, spec).with_threads(threads);
            let got = add_op_scan(&value, &active, &addends, exec);
            prop_assert_eq!(&got.0, &expected.0, "frontiers at {} threads", threads);
            prop_assert_eq!(&got.1, &expected.1, "updated lanes at {} threads", threads);
            prop_assert_eq!(got.2, expected.2, "row drives at {} threads", threads);
            prop_assert_eq!(&got.3, &expected.3, "metrics at {} threads", threads);
        }
    }

    /// Programmed MAC streams: one executor runs value A with one input,
    /// A with three, value B, a scan over a mask's plan (pruned unless
    /// empty-window skipping is off, which plans densely), A again, then
    /// a fresh value C over the mask's plan, densely, and over the mask's
    /// plan with five inputs.
    /// Every scan's outputs and `Metrics` equal the tile reference's on
    /// padded grids of at least 2×2 blocks, so a unit spans block rows,
    /// with strips that do not divide |V|, self-loops and parallel edges.
    #[test]
    fn programmed_streams_match_tile_reference(
        size in 0usize..4,
        order in 0usize..2,
        skip in 0usize..2,
        signed in 0usize..2,
        strips_per_block in 1usize..=2,
        blocks in 2usize..=3,
        pad in 1usize..1000,
        m in 0usize..2500,
        seed in 0u64..1000,
        dup in 1usize..6,
    ) {
        let signed = signed == 1;
        let strip = config([2, 3, 4, 8][size], ORDERS[order], signed).strip_width();
        let config = GraphRConfig {
            block_vertices: Some(strips_per_block * strip),
            skip_empty: skip == 1,
            ..config([2, 3, 4, 8][size], ORDERS[order], signed)
        };
        config.check().expect("valid test geometry");
        let n = blocks * strips_per_block * strip - (1 + pad % (strip - 1));
        let mut edges = multigraph(n, m, seed, dup).edges().to_vec();
        edges.extend((0..n as u32).step_by(7).map(|v| Edge::new(v, v, 1.5)));
        let g = EdgeList::from_edges(n, edges).expect("in-range edges");
        let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");
        prop_assert!(tiled.order().blocks_per_side() >= 2);
        let spec = FixedSpec::new(16, 12).expect("Q4.12 is valid");
        let inputs: Vec<Vec<f64>> = (0..5)
            .map(|q| {
                (0..n)
                    .map(|v| (mix(seed ^ 0x77, (q * n + v) as u64) % 6) as f64 * 0.25 - 0.25)
                    .map(|x| if x < 0.0 { -0.5 } else { x })
                    .collect()
            })
            .collect();
        let mask = FrontierMask::from_slice(
            &(0..n).map(|v| mix(seed ^ 0x3C, (v / 8) as u64).is_multiple_of(3)).collect::<Vec<_>>(),
        );
        let expected = program_sequence(signed, &inputs, &mask, {
            StreamingExecutor::new(&tiled, &config, spec).with_tile_reference()
        });
        for threads in THREADS {
            let exec = StreamingExecutor::new(&tiled, &config, spec).with_threads(threads);
            let got = program_sequence(signed, &inputs, &mask, exec);
            for (step, (got, expected)) in got.iter().zip(&expected).enumerate() {
                prop_assert_eq!(&got.0, &expected.0, "outputs of scan {} at {} threads", step, threads);
                prop_assert_eq!(&got.1, &expected.1, "metrics of scan {} at {} threads", step, threads);
            }
        }
    }

    /// Data-form values: `per_source` over PageRank's conductance table
    /// and `weight_over_source` over the out-degrees give their equal
    /// closures' outputs and `Metrics` bit for bit, and the tile
    /// reference's, over pruned and dense plans (a fresh pruned fill, a
    /// dense fill, then both reading the kept codes) at k = 1, 3 or 5
    /// non-dyadic inputs and one to three threads, on multigraphs with one
    /// cell of 70 parallel edges. An SSSP add-op scan under each data form
    /// equals its closure's too.
    #[test]
    fn data_form_values_match_closures_and_tile_reference(
        size in 0usize..4,
        order in 0usize..2,
        n in 1usize..300,
        m in 0usize..2500,
        seed in 0u64..1000,
        dup in 1usize..6,
        k in 0usize..3,
    ) {
        let config = config(SIZES[size], ORDERS[order], false);
        let (src, dst) = ((seed as usize % n) as u32, (seed as usize * 7 % n) as u32);
        let mut edges = multigraph(n, m, seed, dup).edges().to_vec();
        edges.extend((0..70).map(|i| Edge::new(src, dst, (i % 5) as f32 * 0.75 + 0.5)));
        let g = EdgeList::from_edges(n, edges).expect("in-range edges");
        let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");
        let spec = FixedSpec::new(16, 12).expect("Q4.12 is valid");
        let degrees: Vec<f64> = g.out_degrees().into_iter().map(f64::from).collect();
        let conductance: Vec<f64> = degrees.iter().map(|&d| 0.85 / d).collect();
        let inputs: Vec<Vec<f64>> = (0..[1, 3, 5][k])
            .map(|q| {
                (0..n)
                    .map(|v| {
                        if mix(seed ^ q as u64, v as u64).is_multiple_of(7) {
                            0.0
                        } else {
                            1.0 / (v + 3 + q) as f64
                        }
                    })
                    .collect()
            })
            .collect();
        let mask = FrontierMask::from_slice(
            &(0..n).map(|v| !mix(seed ^ 0x3C, (v / 16) as u64).is_multiple_of(3)).collect::<Vec<_>>(),
        );
        let per_source = |_w: f32, src: u32, _dst: u32| conductance[src as usize];
        let over_source = |w: f32, src: u32, _dst: u32| f64::from(w) / degrees[src as usize];
        let forms = [
            (EdgeValueFn::per_source(&conductance), EdgeValueFn::new(&per_source)),
            (EdgeValueFn::weight_over_source(&degrees), EdgeValueFn::new(&over_source)),
        ];
        let active = LaneFrontier::from_masks(std::slice::from_ref(&mask));
        let addends = vec![(0..n).map(|v| (v % 11) as f64 * 0.375).collect::<Vec<_>>()];
        for (data, closure) in &forms {
            let reference = StreamingExecutor::new(&tiled, &config, spec).with_tile_reference();
            let expected = mac_scan_of(data, &inputs, &mask, reference);
            for threads in 1..=3 {
                let exec = || StreamingExecutor::new(&tiled, &config, spec).with_threads(threads);
                let got = mac_scan_of(data, &inputs, &mask, exec());
                prop_assert_eq!(&got, &mac_scan_of(closure, &inputs, &mask, exec()), "closure at {} threads", threads);
                prop_assert_eq!(&got.0, &expected.0, "outputs at {} threads", threads);
                prop_assert_eq!(&got.1, &expected.1, "metrics at {} threads", threads);
            }
            let exec = || StreamingExecutor::new(&tiled, &config, spec);
            prop_assert_eq!(
                add_op_scan(data, &active, &addends, exec()),
                add_op_scan(closure, &active, &addends, exec())
            );
        }
    }
}

/// A value table shorter than |V| is rejected when a MAC scan starts.
#[test]
#[should_panic(expected = "value table has 9 entries for 10 vertices")]
fn short_per_source_tables_are_rejected() {
    let g = Rmat::new(10, 40).seed(1).generate();
    let config = config(4, StreamingOrder::ColumnMajor, false);
    let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");
    let spec = FixedSpec::new(16, 12).expect("Q4.12 is valid");
    let mut exec = StreamingExecutor::new(&tiled, &config, spec);
    exec.scan_mac(&EdgeValueFn::per_source(&[0.5; 9]), &[&[1.0; 10]]);
}

/// A value table shorter than |V| is rejected when an add-op scan starts.
#[test]
#[should_panic(expected = "value table has 0 entries for 10 vertices")]
fn short_weight_over_source_tables_are_rejected() {
    let g = Rmat::new(10, 40).seed(1).generate();
    let config = config(4, StreamingOrder::ColumnMajor, false);
    let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");
    let spec = FixedSpec::new(16, 0).expect("Q16.0 is valid");
    let active = LaneFrontier::full(10, 1);
    let addends = vec![vec![0.0; 10]];
    add_op_scan(
        &EdgeValueFn::weight_over_source(&[]),
        &active,
        &addends,
        StreamingExecutor::new(&tiled, &config, spec),
    );
}

/// The scans of `programmed_streams_match_tile_reference` on one executor,
/// each scan's outputs as bits with the metrics it charged. Value C's
/// pruned scan fills only its planned runs, so the dense scan after it
/// must refill the rest; the masked scans of B and C read the codes a
/// dense scan filled, but never its charges.
fn program_sequence(
    signed: bool,
    inputs: &[Vec<f64>],
    mask: &FrontierMask,
    mut exec: StreamingExecutor<'_>,
) -> Vec<(Vec<Vec<u64>>, Metrics)> {
    let a = edge_value(signed);
    let b =
        |w: f32, src: u32, dst: u32| f64::from(w) * 0.5 + f64::from((src + 2 * dst) % 4) * 0.125;
    let c = |w: f32, src: u32, dst: u32| f64::from(w) * 0.25 + f64::from((src ^ dst) % 3) * 0.25;
    let (a, b, c) = (
        EdgeValueFn::new(&a),
        EdgeValueFn::new(&b),
        EdgeValueFn::new(&c),
    );
    let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
    let (dense, masked) = (exec.plan(None), exec.plan(Some(mask)));
    let steps: [(&ScanPlan, &EdgeValueFn<'_>, usize); 8] = [
        (&dense, &a, 1),
        (&dense, &a, 3),
        (&dense, &b, 1),
        (&masked, &b, 1),
        (&dense, &a, 1),
        (&masked, &c, 1),
        (&dense, &c, 1),
        (&masked, &c, 5),
    ];
    steps
        .into_iter()
        .map(|(plan, value, k)| {
            let out = exec.scan_mac_planned(plan, value, &refs[..k]);
            (bits(&out), exec.take_metrics())
        })
        .collect()
}

/// The thread counts the program tests sweep: inline, two workers, and
/// worker counts that do not divide the units evenly.
const THREADS: [usize; 4] = [1, 2, 3, 7];

/// A MAC-run result compared bit for bit: values and the whole `Metrics`.
fn run_bits(run: ScalarRun) -> (Vec<u64>, Metrics) {
    (
        run.values.iter().map(|v| v.to_bits()).collect(),
        run.metrics,
    )
}

/// A multigraph large enough that programs are filled on every worker
/// (its edge count passes the fan-out cutoff).
fn table_graph() -> EdgeList {
    multigraph(600, 6000, 17, 3)
}

/// Ten PageRank iterations reuse the codes their first scan fills; a
/// masked SpMV's pruned units fill scratch codes for only the subgraphs
/// they scan. Both equal the tile reference bit for bit at
/// every thread count.
#[test]
fn mac_drivers_with_reused_codes_match_tile_reference() {
    let g = table_graph();
    let n = g.num_vertices();
    let config = config(8, StreamingOrder::ColumnMajor, false);
    let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");

    let pagerank = PageRankOptions {
        max_iterations: 10,
        tolerance: 0.0,
        ..PageRankOptions::default()
    };
    let spec = pagerank.matrix_spec;
    let pr = |exec: StreamingExecutor<'_>| {
        let mut exec = exec;
        run_bits(run_pagerank_with(&g, &mut exec, &pagerank).expect("pagerank runs"))
    };
    let expected = pr(StreamingExecutor::new(&tiled, &config, spec).with_tile_reference());
    assert_eq!(expected.1.iterations, 10);
    for threads in THREADS {
        let got = pr(StreamingExecutor::new(&tiled, &config, spec).with_threads(threads));
        assert_eq!(got, expected, "pagerank at {threads} threads");
    }

    let mask = FrontierMask::from_slice(&(0..n).map(|v| (v / 64) % 3 == 1).collect::<Vec<_>>());
    let spmv = SpmvOptions {
        input: Some(
            (0..n)
                .map(|v| {
                    if mask.get(v) {
                        (v % 9) as f64 * 0.25
                    } else {
                        0.0
                    }
                })
                .collect(),
        ),
        source_mask: Some(mask),
        ..SpmvOptions::default()
    };
    let spec = spmv.matrix_spec;
    let mv = |exec: StreamingExecutor<'_>| {
        let mut exec = exec;
        run_bits(run_spmv_with(&g, &mut exec, &spmv).expect("spmv runs"))
    };
    let expected = mv(StreamingExecutor::new(&tiled, &config, spec).with_tile_reference());
    assert!(
        expected.1.events.subgraphs_pruned > 0,
        "the mask must prune"
    );
    for threads in THREADS {
        let got = mv(StreamingExecutor::new(&tiled, &config, spec).with_threads(threads));
        assert_eq!(got, expected, "masked spmv at {threads} threads");
    }
}

/// One executor scanning two different values in runs of two and three
/// scans gives every scan the result a fresh executor gives that value:
/// a value's first scan fills the units' programs and later ones reuse
/// them, programs held for one value are never read for the other, and
/// a new value refills them.
#[test]
fn distinct_values_on_one_executor_match_fresh_executors() {
    let g = table_graph();
    let n = g.num_vertices();
    let config = config(8, StreamingOrder::ColumnMajor, true);
    let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");
    let spec = FixedSpec::new(16, 12).expect("Q4.12 is valid");
    let x: Vec<f64> = (0..n).map(|v| (v % 5) as f64 * 0.25 - 0.5).collect();
    let weight = |w: f32, _s: u32, _d: u32| f64::from(w) * 0.25;
    let signed = edge_value(true);
    let values = [EdgeValueFn::new(&weight), EdgeValueFn::new(&signed)];
    let scan = |exec: &mut StreamingExecutor<'_>, value: &EdgeValueFn<'_>| {
        let out = exec.scan_mac(value, &[&x]);
        (bits(&out), exec.take_metrics())
    };
    let fresh: Vec<_> = values
        .iter()
        .map(|value| scan(&mut StreamingExecutor::new(&tiled, &config, spec), value))
        .collect();
    assert_ne!(fresh[0].0, fresh[1].0, "the two values must differ");
    for threads in THREADS {
        let mut exec = StreamingExecutor::new(&tiled, &config, spec).with_threads(threads);
        for (round, which) in [0, 0, 0, 1, 1, 0, 0].into_iter().enumerate() {
            let got = scan(&mut exec, &values[which]);
            assert_eq!(got, fresh[which], "scan {round} at {threads} threads");
        }
    }
}

/// A dense MAC scan sizes the kept codes exactly: each unit's entry of
/// `programmed_units()` holds one code per distinct `(source,
/// destination)` pair of the edge list among the unit's destinations,
/// however many parallel edges share it, and the executor holds 4 bytes
/// per code. A pruned scan of the same value afterwards reads those kept
/// codes, so the list, the held bytes and the tiling's index bytes stay
/// as they were. A fresh executor's pruned scan under a new value
/// allocates codes for its planned units only and fills only their
/// planned runs, so it lists no unit as holding a value. Every scan gives
/// the tile reference's bits on inputs that are not dyadic, so every
/// output's column sums must also reduce in walk order.
#[test]
fn dense_programs_hold_exactly_their_stored_pairs() {
    let base = config(4, StreamingOrder::ColumnMajor, false);
    let strip = base.strip_width();
    let config = GraphRConfig {
        block_vertices: Some(2 * strip),
        ..base
    };
    config.check().expect("valid test geometry");
    let n = 3 * 2 * strip - 5;
    let mut edges = multigraph(n, 6000, 23, 2).edges().to_vec();
    for v in (0..n as u32).step_by(5) {
        edges.extend([Edge::new(v, v, 1.5), Edge::new(v, v, 2.25)]);
    }
    let g = EdgeList::from_edges(n, edges).expect("in-range edges");
    let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");
    assert!(tiled.order().blocks_per_side() >= 2);

    let mut pairs: Vec<(u32, u32)> = g.edges().iter().map(|e| (e.src, e.dst)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    assert!(
        pairs.len() < g.num_edges(),
        "parallel edges must share cells"
    );
    let expected: Vec<(usize, usize)> = strip_units(&tiled)
        .iter()
        .map(|unit| {
            let window = unit.dst_start..unit.dst_start + unit.dst_len;
            let cells = pairs
                .iter()
                .filter(|&&(_, dst)| window.contains(&(dst as usize)));
            (unit.index, cells.count())
        })
        .collect();

    let spec = FixedSpec::new(16, 12).expect("Q4.12 is valid");
    let x: Vec<f64> = (0..n).map(|v| 1.0 / (v + 3) as f64).collect();
    let value = edge_value(false);
    let value = EdgeValueFn::new(&value);
    let mask = FrontierMask::from_slice(&(0..n).map(|v| (v / 16) % 3 == 1).collect::<Vec<_>>());
    let mut reference = StreamingExecutor::new(&tiled, &config, spec).with_tile_reference();
    let dense_bits = bits(&reference.scan_mac(&value, &[&x]));
    let plan = reference.plan(Some(&mask));
    let pruned_bits = bits(&reference.scan_mac_planned(&plan, &value, &[&x]));
    // Sources 60..64 reach four of the six units.
    let first_mask = FrontierMask::from_slice(&(0..n).map(|v| v / 4 == 15).collect::<Vec<_>>());
    let plan = reference.plan(Some(&first_mask));
    let first_bits = bits(&reference.scan_mac_planned(&plan, &value, &[&x]));
    for threads in [1, 2] {
        let mut exec = StreamingExecutor::new(&tiled, &config, spec).with_threads(threads);
        let out = exec.scan_mac(&value, &[&x]);
        assert_eq!(bits(&out), dense_bits, "{threads} threads");
        assert_eq!(exec.programmed_units(), expected, "{threads} threads");
        // One 4-byte code per cell; each cell's source and meta byte are
        // the tiling's.
        let bytes = exec.program_bytes();
        assert_eq!(bytes, 4 * pairs.len(), "{threads} threads");
        let tiling_bytes = tiled.heap_bytes();
        assert!(
            tiling_bytes >= 5 * pairs.len(),
            "{tiling_bytes} tiling bytes for {} cells",
            pairs.len()
        );

        let pruned = exec.plan(Some(&mask));
        assert!(pruned.stats().subgraphs_pruned > 0, "the mask must prune");
        let out = exec.scan_mac_planned(&pruned, &value, &[&x]);
        assert_eq!(bits(&out), pruned_bits, "{threads} threads, pruned");
        assert_eq!(
            exec.programmed_units(),
            expected,
            "{threads} threads, pruned"
        );
        assert_eq!(exec.program_bytes(), bytes, "{threads} threads, pruned");
        assert_eq!(
            tiled.heap_bytes(),
            tiling_bytes,
            "{threads} threads, pruned"
        );
        let [_, fanned_out] = exec.scan_paths();
        assert_eq!(fanned_out > 0, threads > 1, "{threads} threads: fan-out");

        let mut exec = StreamingExecutor::new(&tiled, &config, spec).with_threads(threads);
        let pruned = exec.plan(Some(&first_mask));
        let fresh = edge_value(false);
        let out = exec.scan_mac_planned(&pruned, &EdgeValueFn::new(&fresh), &[&x]);
        assert_eq!(bits(&out), first_bits, "{threads} threads, pruned first");
        assert_eq!(
            exec.programmed_units(),
            [],
            "{threads} threads, pruned first"
        );
        let planned: Vec<usize> = pruned.units().iter().map(|p| p.unit.index).collect();
        assert!(planned.len() < expected.len(), "the mask must prune units");
        let cells = expected.iter().filter(|(unit, _)| planned.contains(unit));
        let cells: usize = cells.map(|&(_, cells)| cells).sum();
        assert_eq!(
            exec.program_bytes(),
            4 * cells,
            "{threads} threads, pruned first"
        );
    }
}

/// Cells the index must keep apart or count exactly, on a 3×3-block grid of
/// 4-row crossbars and 16-wide strips, each in a subgraph of its own
/// among 5,000 other edges: 300 parallel edges in one cell, whose values
/// only sum to the tile reference's bits in streamed order; one source's
/// cell at the same `(row, column)` at the end of one tile and the start of
/// the next, two parallel edges each; and one destination's cells at the
/// same `(row, column)` at the end of one subgraph and the start of the
/// next, in the same slot and across block rows. MAC scans at 1, 3 and 5
/// inputs over the dense plan and over a pruned plan that keeps these
/// subgraphs give the tile reference's bits and metrics at one and two
/// threads.
#[test]
fn index_edge_cases_match_tile_reference() {
    let base = config(4, StreamingOrder::ColumnMajor, false);
    let strip = base.strip_width();
    assert_eq!(strip, 16);
    let config = GraphRConfig {
        block_vertices: Some(2 * strip),
        ..base
    };
    config.check().expect("valid test geometry");
    let n = 3 * 2 * strip - 5;
    // `(source, destination)` pairs of the special cells; each sits in a
    // `(source chunk, strip)` subgraph no other edge enters.
    let tile_edge = [(13, 23), (13, 27)];
    let subgraph_edge = [(29, 50), (33, 50), (37, 50)];
    let special = |src: u32, dst: u32| {
        let subgraph = (src / 4, dst / 16);
        [(5, 9)]
            .iter()
            .chain(&tile_edge)
            .chain(&subgraph_edge)
            .any(|&(s, d)| (s / 4, d / 16) == subgraph)
    };
    let mut edges: Vec<Edge> = multigraph(n, 5000, 31, 4)
        .edges()
        .iter()
        .filter(|e| !special(e.src, e.dst))
        .copied()
        .collect();
    edges.extend((0..300).map(|i| Edge::new(5, 9, ((i * 7) % 11) as f32 * 0.25 + 0.125)));
    for (i, &(src, dst)) in tile_edge.iter().chain(&tile_edge).enumerate() {
        edges.push(Edge::new(src, dst, 1.0 + i as f32 * 0.75));
    }
    edges.extend(
        subgraph_edge
            .iter()
            .map(|&(src, dst)| Edge::new(src, dst, 2.5)),
    );
    let g = EdgeList::from_edges(n, edges).expect("in-range edges");
    let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");

    // Source 13's subgraph holds row 1, column 3 of two adjacent tiles.
    let span = tiled
        .source_index()
        .spans()
        .find(|span| {
            let dst0 = tiled.strip_dst_start(span.block as usize, span.strip as usize);
            (span.src_start, dst0) == (12, 16)
        })
        .expect("source 13's subgraph");
    // Per tile, each edge's `(row, column)` within it.
    let sg = tiled.subgraph(span.ordinal as usize);
    let mut cells: Vec<(usize, Vec<(u8, u8)>)> = Vec::new();
    for cell in sg.cells() {
        let t = usize::from(cell.local) / 4;
        if cells.last().is_none_or(|&(last, _)| last != t) {
            cells.push((t, Vec::new()));
        }
        let at = (
            (cell.src as usize - sg.src_start()) as u8,
            (cell.local % 4) as u8,
        );
        let tile = &mut cells.last_mut().expect("a tile is open").1;
        tile.extend(std::iter::repeat_n(at, cell.weights.len()));
    }
    assert_eq!(cells, [(1, vec![(1, 3); 2]), (2, vec![(1, 3); 2])]);

    let value =
        |w: f32, src: u32, dst: u32| f64::from(w) * 0.01 + f64::from((src + dst) % 3) * 3e-4;
    let value = EdgeValueFn::new(&value);
    let chunks = [1, 3, 7, 8, 9];
    let mask = FrontierMask::from_slice(
        &(0..n)
            .map(|v| chunks.contains(&(v / 4)) || (v / 16) % 3 == 1)
            .collect::<Vec<_>>(),
    );
    let spec = FixedSpec::new(16, 12).expect("Q4.12 is valid");
    for k in [1, 3, 5] {
        let inputs: Vec<Vec<f64>> = (0..k)
            .map(|q| {
                (0..n)
                    .map(|v| {
                        if mix(q as u64, v as u64).is_multiple_of(7) {
                            0.0
                        } else {
                            1.0 / (v + 3 + q) as f64
                        }
                    })
                    .collect()
            })
            .collect();
        let reference = StreamingExecutor::new(&tiled, &config, spec).with_tile_reference();
        let expected = mac_scan_of(&value, &inputs, &mask, reference);
        for threads in [1, 2] {
            let exec = StreamingExecutor::new(&tiled, &config, spec).with_threads(threads);
            let got = mac_scan_of(&value, &inputs, &mask, exec);
            assert_eq!(got.0, expected.0, "outputs at k = {k}, {threads} threads");
            assert_eq!(got.1, expected.1, "metrics at k = {k}, {threads} threads");
        }
    }
    let mut exec = StreamingExecutor::new(&tiled, &config, spec).with_threads(2);
    assert!(
        exec.plan(Some(&mask)).stats().subgraphs_pruned > 0,
        "the mask must prune"
    );
    exec.scan_mac(&value, &[&vec![1.0; n]]);
    assert_eq!(exec.scan_paths(), [0, 1], "a dense scan fans out");
}

/// Collaborative filtering programs new values every epoch and direction;
/// three epochs match the tile reference bit for bit.
#[test]
fn cf_epochs_match_tile_reference() {
    let m = RatingMatrix::new(120, 40, 3000).seed(5).generate();
    let (users, items) = (120, 40);
    let opts = CfOptions {
        features: 4,
        epochs: 3,
        ..CfOptions::default()
    };
    let cf_config = cf_config_for(&config(8, StreamingOrder::ColumnMajor, false))
        .expect("differential tiles fit");
    let tiled = TiledGraph::preprocess(m.graph(), &cf_config).expect("valid geometry");
    let tiled_t =
        TiledGraph::preprocess(&m.graph().transposed(), &cf_config).expect("valid geometry");
    let run = |threads: Option<usize>| {
        let mut make_engine = |matrix| -> Box<dyn ScanEngine + '_> {
            let t = match matrix {
                CfMatrix::Ratings => &tiled,
                CfMatrix::Transposed => &tiled_t,
            };
            let exec = StreamingExecutor::new(t, &cf_config, opts.spec);
            Box::new(match threads {
                Some(threads) => exec.with_threads(threads),
                None => exec.with_tile_reference(),
            })
        };
        let run = run_cf_with(m.graph(), users, items, &cf_config, &opts, &mut make_engine)
            .expect("cf runs");
        let rmse: Vec<u64> = run.rmse_history.iter().map(|v| v.to_bits()).collect();
        (rmse, run.metrics)
    };
    let expected = run(None);
    for threads in THREADS {
        assert_eq!(run(Some(threads)), expected, "cf at {threads} threads");
    }
}

/// The `(unit index, cells)` programs a cluster node last reported.
type Census = Rc<RefCell<Vec<(usize, usize)>>>;

/// A cluster node that reports, after every MAC scan, which strip units
/// its executor holds programs for.
struct CensusNode<'a> {
    exec: StreamingExecutor<'a>,
    held: Census,
}

impl ScanEngine for CensusNode<'_> {
    fn plan(&mut self, active: Option<&FrontierMask>) -> Arc<ScanPlan> {
        self.exec.plan(active)
    }

    fn plan_with_delta(&mut self, active: &FrontierMask, delta: &FrontierDelta) -> Arc<ScanPlan> {
        self.exec.plan_with_delta(active, delta)
    }

    fn scan_mac_planned(
        &mut self,
        plan: &ScanPlan,
        value: &EdgeValueFn<'_>,
        inputs: &[&[f64]],
    ) -> Vec<Vec<f64>> {
        let out = self.exec.scan_mac_planned(plan, value, inputs);
        *self.held.borrow_mut() = self.exec.programmed_units();
        out
    }

    fn scan_add_op_lanes_planned(
        &mut self,
        plan: &ScanPlan,
        value: &EdgeValueFn<'_>,
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
        addends: &[Vec<f64>],
        active: &LaneFrontier,
        frontiers: &mut [Vec<f64>],
        updated: &mut LaneFrontier,
    ) -> u64 {
        self.exec
            .scan_add_op_lanes_planned(plan, value, combine, addends, active, frontiers, updated)
    }

    fn set_disk(&mut self, disk: Option<DiskModel>) {
        self.exec.set_disk(disk);
    }

    fn set_trace(&mut self, trace: Option<TraceHandle>) {
        self.exec.set_trace(trace);
    }

    fn trace(&self) -> Option<&TraceHandle> {
        self.exec.trace()
    }

    fn end_iteration(&mut self) {
        ScanEngine::end_iteration(&mut self.exec);
    }

    fn metrics(&self) -> &Metrics {
        ScanEngine::metrics(&self.exec)
    }

    fn take_metrics(&mut self) -> Metrics {
        self.exec.take_metrics()
    }
}

/// A 4-node cluster's PageRank ranks equal the single engine's bit for
/// bit. Each node programs only the units it owns: the round-robin nodes
/// together hold exactly the single engine's programmed cells, and no
/// node holds a unit another node owns.
#[test]
fn cluster_mac_scans_match_the_single_engine() {
    let g = table_graph();
    let config = config(8, StreamingOrder::ColumnMajor, false);
    let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");
    let opts = PageRankOptions {
        max_iterations: 4,
        tolerance: 0.0,
        ..PageRankOptions::default()
    };
    let mut single_exec = StreamingExecutor::new(&tiled, &config, opts.matrix_spec);
    let single = run_pagerank_with(&g, &mut single_exec, &opts).expect("pagerank runs");
    for owner in [OwnerPolicy::RoundRobin, OwnerPolicy::DegreeWeighted] {
        let cluster = MultiNodeConfig {
            owner,
            ..MultiNodeConfig::pcie_cluster(4)
        };
        let mut exec = ClusterExecutor::new(&tiled, &config, opts.matrix_spec, cluster);
        let run = run_pagerank_with(&g, &mut exec, &opts).expect("pagerank runs");
        assert_eq!(
            run_bits(run).0,
            run_bits(single.clone()).0,
            "{owner:?} cluster ranks"
        );
    }

    let held: Vec<Census> = (0..4).map(|_| Rc::default()).collect();
    let planner = Planner::new(&tiled, Arc::new(PlanSkeleton::build(&tiled)));
    let mut cluster = ClusterExecutor::with_engines(
        &tiled,
        &config,
        MultiNodeConfig::pcie_cluster(4).with_owner(OwnerPolicy::RoundRobin),
        planner,
        |node| {
            Box::new(CensusNode {
                exec: StreamingExecutor::new(&tiled, &config, opts.matrix_spec),
                held: Rc::clone(&held[node]),
            })
        },
    );
    let run = run_pagerank_with(&g, &mut cluster, &opts).expect("pagerank runs");
    assert_eq!(
        run_bits(run).0,
        run_bits(single.clone()).0,
        "census cluster ranks"
    );
    let dense = cluster.plan(None);
    let shards = cluster.shard(&dense);
    let mut union = Vec::new();
    for (node, (held, shard)) in held.iter().zip(&shards).enumerate() {
        let owned: Vec<usize> = shard.units().iter().map(|p| p.unit.index).collect();
        for &(unit, _) in held.borrow().iter() {
            assert!(owned.contains(&unit), "node {node} holds unit {unit}");
        }
        union.extend(held.borrow().iter().copied());
    }
    union.sort_unstable();
    let programmed = single_exec.programmed_units();
    assert_eq!(programmed.len(), PlanSkeleton::build(&tiled).num_units());
    assert_eq!(
        union, programmed,
        "the nodes' programs are the single engine's"
    );
}
