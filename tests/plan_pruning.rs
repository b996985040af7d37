//! Property tests of the plan/execute split: a pruned-plan scan must be
//! observationally equivalent — bit-identical frontier, updated mask, and
//! activation count — to the full-plan scan under the same active mask,
//! for random graphs and random masks, while streaming no more (and on
//! sparse frontiers strictly fewer) edges.

use graphr_repro::core::exec::mask::FrontierMask;
use graphr_repro::core::exec::{EdgeValueFn, PlanSkeleton, ScanEngine, StreamingExecutor};
use graphr_repro::core::sim::{run_bfs, TraversalOptions};
use graphr_repro::core::{GraphRConfig, TiledGraph};
use graphr_repro::graph::generators::rmat::Rmat;
use graphr_repro::graph::generators::structured::grid;
use graphr_repro::units::FixedSpec;
use proptest::prelude::*;

fn small_config() -> GraphRConfig {
    GraphRConfig::builder()
        .crossbar_size(4)
        .crossbars_per_ge(8)
        .num_ges(2)
        .build()
        .expect("valid test geometry")
}

/// One add-op scan over `tiled` with `mask`, on either the full or the
/// pruned plan; returns (frontier, updated, rows, bytes streamed).
fn add_op_scan(
    tiled: &TiledGraph,
    config: &GraphRConfig,
    mask: &FrontierMask,
    addend: &[f64],
    pruned: bool,
) -> (Vec<f64>, Vec<bool>, u64, u64) {
    let n = tiled.num_vertices();
    let spec = FixedSpec::new(16, 0).expect("Q16.0 is valid");
    let mut exec = StreamingExecutor::new(tiled, config, spec);
    let plan = if pruned {
        exec.plan(Some(mask))
    } else {
        exec.plan(None)
    };
    let mut frontier = addend.to_vec();
    let mut updated = FrontierMask::new(n);
    let rows = exec.scan_add_op_planned(
        &plan,
        &EdgeValueFn::new(&|w, _, _| f64::from(w)),
        &|du, w| du + w,
        addend,
        mask,
        &mut frontier,
        &mut updated,
    );
    let metrics = exec.into_metrics();
    (
        frontier,
        updated.to_vec(),
        rows,
        metrics.events.bytes_streamed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any graph and any mask, pruning is invisible in functional
    /// state: frontier, updated mask and activation count are
    /// bit-identical, and the pruned scan never streams more.
    #[test]
    fn pruned_plan_scan_is_bit_identical_to_full_plan_scan(
        n in 1usize..120,
        m in 0usize..500,
        seed in 0u64..20,
        mask_seed in 0u64..64,
        density in 0u32..5,
    ) {
        let g = Rmat::new(n, m).seed(seed).max_weight(9).generate();
        let config = small_config();
        let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");
        // Deterministic pseudo-random mask at one of five densities
        // (0 ≈ empty … 4 ≈ full).
        let dense: Vec<bool> = (0..n)
            .map(|v| {
                let h = (v as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(mask_seed)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (h >> 60) < u64::from(density) * 4
            })
            .collect();
        let mask = FrontierMask::from_slice(&dense);
        let spec = FixedSpec::new(16, 0).expect("Q16.0 is valid");
        let inf = spec.max_value();
        let addend: Vec<f64> = (0..n).map(|v| if dense[v] { v as f64 % 7.0 } else { inf }).collect();

        let (f_full, u_full, r_full, b_full) = add_op_scan(&tiled, &config, &mask, &addend, false);
        let (f_pruned, u_pruned, r_pruned, b_pruned) =
            add_op_scan(&tiled, &config, &mask, &addend, true);

        prop_assert_eq!(f_full, f_pruned, "frontier must be bit-identical");
        prop_assert_eq!(u_full, u_pruned, "updated mask must be bit-identical");
        prop_assert_eq!(r_full, r_pruned, "activation counts must agree");
        prop_assert!(b_pruned <= b_full, "pruning must never stream more");
    }

    /// The planned/pruned split always accounts for every nonempty
    /// subgraph and every edge, whatever the mask.
    #[test]
    fn plan_stats_partition_the_graph(
        n in 1usize..100,
        m in 0usize..400,
        seed in 0u64..20,
        stride in 1usize..13,
    ) {
        let g = Rmat::new(n, m).seed(seed).generate();
        let config = small_config();
        let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");
        let skeleton = PlanSkeleton::build(&tiled);
        let dense: Vec<bool> = (0..n).map(|v| v % stride == 0).collect();
        let mask = FrontierMask::from_slice(&dense);
        let plan = skeleton.pruned_plan(&tiled, &mask);
        let stats = plan.stats();
        prop_assert_eq!(
            stats.subgraphs_planned + stats.subgraphs_pruned,
            tiled.nonempty_subgraphs() as u64
        );
        prop_assert_eq!(
            stats.edges_planned + stats.edges_pruned,
            tiled.total_edges() as u64
        );
        prop_assert_eq!(
            stats.units_planned + stats.units_pruned,
            skeleton.num_units()
        );
    }
}

/// A pruned MAC scan is exact when the inputs are zero outside the mask,
/// and its subgraph accounting partitions cleanly: processed + pruned =
/// nonempty, with plan-pruned windows not leaking into the empty-window
/// skip statistics.
#[test]
fn pruned_mac_scan_is_exact_on_masked_inputs() {
    let g = Rmat::new(200, 1200).seed(23).max_weight(7).generate();
    let config = small_config();
    let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");
    let n = tiled.num_vertices();
    let spec = FixedSpec::new(16, 8).expect("Q8.8 is valid");
    let dense: Vec<bool> = (0..n).map(|v| v % 5 == 0).collect();
    let mask = FrontierMask::from_slice(&dense);
    let x: Vec<f64> = (0..n)
        .map(|v| if dense[v] { (v % 9) as f64 * 0.25 } else { 0.0 })
        .collect();
    let value = |w: f32, _: u32, _: u32| f64::from(w);

    let mut full_exec = StreamingExecutor::new(&tiled, &config, spec);
    let y_full = full_exec.scan_mac(&EdgeValueFn::new(&value), &[&x]);
    let m_full = full_exec.into_metrics();

    let mut pruned_exec = StreamingExecutor::new(&tiled, &config, spec);
    let plan = pruned_exec.plan(Some(&mask));
    let y_pruned = pruned_exec.scan_mac_planned(&plan, &EdgeValueFn::new(&value), &[&x]);
    let m_pruned = pruned_exec.into_metrics();

    assert_eq!(y_full, y_pruned, "zero rows contribute nothing");
    let ev = &m_pruned.events;
    assert!(ev.subgraphs_pruned > 0, "the mask must actually prune");
    assert_eq!(
        ev.subgraphs_processed + ev.subgraphs_pruned,
        tiled.nonempty_subgraphs() as u64,
        "processed and pruned must partition the nonempty subgraphs"
    );
    assert!(
        ev.subgraphs_skipped_empty <= m_full.events.subgraphs_skipped_empty,
        "pruned windows must not double-count as skipped-empty: {} vs full {}",
        ev.subgraphs_skipped_empty,
        m_full.events.subgraphs_skipped_empty
    );
    assert!(m_pruned.events.bytes_streamed < m_full.events.bytes_streamed);
}

/// The acceptance check: on a sparse frontier (single active source in a
/// high-diameter graph) a pruned plan streams strictly fewer edges than
/// the full plan, with identical functional outcome.
#[test]
fn sparse_frontier_streams_strictly_fewer_edges() {
    let g = grid(24, 24);
    let config = small_config();
    let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");
    let n = tiled.num_vertices();
    let spec = FixedSpec::new(16, 0).expect("Q16.0 is valid");
    let inf = spec.max_value();
    let mut mask = FrontierMask::new(n);
    mask.set(0);
    let mut addend = vec![inf; n];
    addend[0] = 0.0;

    let (f_full, u_full, r_full, b_full) = add_op_scan(&tiled, &config, &mask, &addend, false);
    let (f_pruned, u_pruned, r_pruned, b_pruned) =
        add_op_scan(&tiled, &config, &mask, &addend, true);
    assert_eq!(f_full, f_pruned);
    assert_eq!(u_full, u_pruned);
    assert_eq!(r_full, r_pruned);
    assert!(
        b_pruned < b_full,
        "single-source frontier must stream strictly fewer edges: pruned {b_pruned} vs full {b_full}"
    );
    assert!(b_pruned > 0, "the planned subgraphs still stream");
}

/// End-to-end: the BFS driver rebuilds a pruned plan every iteration, so a
/// full run on a high-diameter graph streams far fewer edges than |E| ×
/// iterations — and still matches the gold BFS exactly.
#[test]
fn bfs_driver_iteration_cost_tracks_the_frontier() {
    let g = grid(20, 20);
    let config = small_config();
    let run = run_bfs(&g, &config, &TraversalOptions::default()).expect("bfs runs");
    let gold = graphr_repro::graph::algorithms::bfs::bfs(&g.to_csr(), 0);
    let gold_f: Vec<Option<f64>> = gold.levels.iter().map(|l| l.map(f64::from)).collect();
    assert_eq!(run.distances, gold_f);

    let iters = run.metrics.iterations as u64;
    let total_edges = g.num_edges() as u64;
    let streamed = run.metrics.events.bytes_streamed / graphr_repro::graph::BYTES_PER_EDGE;
    assert!(
        iters > 30,
        "a 20×20 grid BFS needs many rounds, got {iters}"
    );
    assert!(
        streamed < total_edges * iters / 4,
        "pruned plans must stream far less than |E| per round: {streamed} vs {} full-scan edges",
        total_edges * iters
    );
    assert!(run.metrics.events.edges_pruned > 0);
}
