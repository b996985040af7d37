//! Property tests of the plan-aware out-of-core model: an [`IoPlan`]
//! derived from any pruned plan must never load more than the full
//! restream, must load exactly the full restream for the dense plan, and
//! the per-iteration disk accounting must sum back to the legacy
//! aggregate estimate whenever nothing is pruned.
//!
//! [`IoPlan`]: graphr_repro::core::outofcore::IoPlan

use graphr_repro::core::exec::{PlanSkeleton, StreamingExecutor};
use graphr_repro::core::outofcore::{estimate_out_of_core, DiskModel, IoPlan};
use graphr_repro::core::sim::{
    run_pagerank_with, run_sssp_with, PageRankOptions, TraversalOptions,
};
use graphr_repro::core::{GraphRConfig, TiledGraph};
use graphr_repro::graph::generators::rmat::Rmat;
use graphr_repro::graph::BYTES_PER_EDGE;
use proptest::prelude::*;

fn small_config() -> GraphRConfig {
    GraphRConfig::builder()
        .crossbar_size(4)
        .crossbars_per_ge(8)
        .num_ges(2)
        .block_vertices(64)
        .build()
        .expect("valid test geometry")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Over any mask, the pruned plan's IoPlan loads no more than the
    /// full restream, partitions its bytes exactly into loaded + skipped,
    /// and covers every on-disk block exactly once (loaded or seeked).
    #[test]
    fn io_plan_bytes_bounded_by_full_restream(
        n in 2usize..160,
        m in 1usize..600,
        seed in 0u64..24,
        mask_seed in 0u64..24,
    ) {
        let g = Rmat::new(n, m).seed(seed).generate();
        let tiled = TiledGraph::preprocess(&g, &small_config()).unwrap();
        let skeleton = PlanSkeleton::build(&tiled);
        let full = IoPlan::full_restream(&tiled);
        prop_assert_eq!(full.bytes_loaded, tiled.total_edges() as u64 * BYTES_PER_EDGE);

        // A splitmix-ish deterministic mask.
        let mut state = mask_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut mask = graphr_repro::core::exec::mask::FrontierMask::new(n);
        for v in 0..n {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            if (state >> 33) & 1 == 1 {
                mask.set(v);
            }
        }
        let io = IoPlan::from_scan_plan(&tiled, &skeleton.pruned_plan(&tiled, &mask));
        prop_assert!(io.bytes_loaded <= full.bytes_loaded);
        prop_assert_eq!(io.bytes_loaded + io.bytes_skipped, full.bytes_loaded);
        prop_assert_eq!(io.blocks_loaded + io.blocks_seeked, tiled.num_blocks());
        // Segments never exceed planned subgraph visits, and a plan with
        // bytes has at least one.
        if io.bytes_loaded > 0 {
            prop_assert!(io.segments >= 1);
        } else {
            prop_assert_eq!(io.segments, 0);
        }
        // Pricing is monotone in what the plan loads.
        let disk = DiskModel::sata_ssd();
        prop_assert!(disk.plan_time(&io) <= disk.plan_time(&full));
    }

    /// The dense plan's IoPlan *is* the full restream.
    #[test]
    fn dense_plan_equals_full_restream(
        n in 2usize..160,
        m in 1usize..600,
        seed in 0u64..24,
    ) {
        let g = Rmat::new(n, m).seed(seed).generate();
        let tiled = TiledGraph::preprocess(&g, &small_config()).unwrap();
        let skeleton = PlanSkeleton::build(&tiled);
        let dense = IoPlan::from_scan_plan(&tiled, &skeleton.full_plan());
        prop_assert_eq!(dense, IoPlan::full_restream(&tiled));
        // An all-active mask prunes nothing, so it matches too.
        let all = IoPlan::from_scan_plan(
            &tiled,
            &skeleton.pruned_plan(&tiled, &graphr_repro::core::exec::mask::FrontierMask::full(n)),
        );
        prop_assert_eq!(all, dense);
    }
}

/// Dense workloads never prune, so the per-iteration accounting must sum
/// back to `estimate_out_of_core`'s aggregate (same bytes, same per-block
/// charges, iteration by iteration).
#[test]
fn unpruned_iterations_sum_to_legacy_aggregate() {
    let g = Rmat::new(300, 2400).seed(17).max_weight(9).generate();
    let config = small_config();
    let tiled = TiledGraph::preprocess(&g, &config).unwrap();
    let disk = DiskModel::sata_ssd();
    let opts = PageRankOptions {
        max_iterations: 7,
        tolerance: 0.0,
        ..PageRankOptions::default()
    };
    let mut exec = StreamingExecutor::new(&tiled, &config, opts.matrix_spec).with_disk(disk);
    let run = run_pagerank_with(&g, &mut exec, &opts).unwrap();
    let m = &run.metrics;
    assert_eq!(m.iterations, 7);
    assert_eq!(m.events.subgraphs_pruned, 0, "PageRank plans are dense");

    let legacy = estimate_out_of_core(&tiled, m, &disk);
    assert_eq!(
        m.disk.bytes_loaded,
        legacy.bytes_per_iteration * m.iterations as u64
    );
    assert_eq!(
        m.disk.blocks_loaded + m.disk.blocks_seeked,
        legacy.blocks as u64 * m.iterations as u64
    );
    // Σ per-iteration time = aggregate (float: iterated sum vs multiply).
    let rel =
        (m.disk.time.as_nanos() - legacy.disk_time.as_nanos()).abs() / legacy.disk_time.as_nanos();
    assert!(
        rel < 1e-9,
        "per-iteration sum drifted from aggregate: {rel}"
    );
    // With identical per-iteration shares, per-iteration overlap equals
    // the aggregate overlap.
    let rel = (m.disk.overlapped.as_nanos() - legacy.overlapped_time.as_nanos()).abs()
        / legacy.overlapped_time.as_nanos();
    assert!(rel < 1e-9, "overlap drifted from aggregate: {rel}");
}

/// Serial and parallel engines must produce bit-identical disk metrics
/// for the same out-of-core traversal (the same contract as compute
/// accounting, extended to the disk side).
#[test]
fn serial_parallel_disk_metrics_bit_identical() {
    let g = Rmat::new(250, 1500).seed(42).max_weight(9).generate();
    let config = small_config();
    let tiled = TiledGraph::preprocess(&g, &config).unwrap();
    let disk = DiskModel::nvme();
    let opts = TraversalOptions::default();

    let mut serial = StreamingExecutor::new(&tiled, &config, opts.spec).with_disk(disk);
    let rs = run_sssp_with(&g, &mut serial, &opts).unwrap();
    for threads in [1, 3, 8] {
        let mut par = StreamingExecutor::new(&tiled, &config, opts.spec)
            .with_threads(threads)
            .with_disk(disk);
        let rp = run_sssp_with(&g, &mut par, &opts).unwrap();
        assert_eq!(rs.distances, rp.distances);
        assert_eq!(
            rs.metrics, rp.metrics,
            "disk metrics must not depend on thread count ({threads} threads)"
        );
        assert!(rp.metrics.disk.is_active());
    }
    // The traversal pruned something, so it must have loaded strictly
    // fewer bytes than restreaming every iteration.
    let full_bytes = tiled.total_edges() as u64 * BYTES_PER_EDGE;
    assert!(rs.metrics.events.edges_pruned > 0);
    assert!(rs.metrics.disk.bytes_loaded < full_bytes * rs.metrics.iterations as u64);
}
