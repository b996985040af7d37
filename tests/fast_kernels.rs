//! Oracle tests of the Fast-fidelity scan kernels: the default kernels
//! walk each tile's stored cells, while the tile reference
//! ([`StreamingExecutor::with_tile_reference`]) programs a dense
//! [`TileCompute`](graphr_repro::core::engine::TileCompute) image per tile
//! and reads it back with `mac` / `row_entries`. Both must agree to the
//! last bit — outputs by `f64::to_bits`, lane frontiers, updated lane
//! words, row drives and the whole `Metrics` — on multigraphs, signed
//! values, zero inputs, every crossbar size, padded columns, both
//! streaming orders and at one and two worker threads.
//!
//! `PROPTEST_CASES` sets the cases per property (default 32).

use graphr_repro::core::exec::{FrontierMask, LaneFrontier, ScanEngine, StreamingExecutor};
use graphr_repro::core::{GraphRConfig, Metrics, StreamingOrder, TiledGraph};
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

/// One MAC scan of `inputs`: outputs as bits, and the metrics.
fn mac_scan(
    signed: bool,
    inputs: &[Vec<f64>],
    mut exec: StreamingExecutor<'_>,
) -> (Vec<Vec<u64>>, Metrics) {
    let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
    let out = exec.scan_mac(&edge_value(signed), &refs);
    (bits(&out), exec.into_metrics())
}

/// One lane-fused add-op scan over the union plan of `active`: lane
/// frontiers as bits, updated lanes, row drives and the metrics.
fn add_op_scan(
    signed: bool,
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
        &edge_value(signed),
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
        let reference = StreamingExecutor::new(&tiled, &config, spec).with_tile_reference();
        let expected = mac_scan(signed, &inputs, reference);
        for threads in [1, 2] {
            let exec = StreamingExecutor::new(&tiled, &config, spec).with_threads(threads);
            let got = mac_scan(signed, &inputs, exec);
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
        let reference = StreamingExecutor::new(&tiled, &config, spec).with_tile_reference();
        let expected = add_op_scan(signed, &active, &addends, reference);
        for threads in [1, 2] {
            let exec = StreamingExecutor::new(&tiled, &config, spec).with_threads(threads);
            let got = add_op_scan(signed, &active, &addends, exec);
            prop_assert_eq!(&got.0, &expected.0, "frontiers at {} threads", threads);
            prop_assert_eq!(&got.1, &expected.1, "updated lanes at {} threads", threads);
            prop_assert_eq!(got.2, expected.2, "row drives at {} threads", threads);
            prop_assert_eq!(&got.3, &expected.3, "metrics at {} threads", threads);
        }
    }
}
