//! Microbenchmark: the scan executor on every host thread vs. one thread
//! on a 100 k-edge R-MAT graph and on a 240×240-grid BFS whose scans are
//! small enough to run inline at any thread count, the Fast-fidelity scan
//! kernels' host ns per edge on a 1 M-edge R-MAT graph (the MAC kernel
//! on a fresh tiling, on a fresh executor and with its codes reused), the
//! session cache's cold-vs-warm preprocessing saving, and the plan layer's
//! sparse-frontier win — full-scan vs. pruned-plan BFS iterations on a
//! high-diameter grid.
//!
//! On a multi-core host the strip-sharded fan-out should deliver ≥ 2×
//! wall-clock speedup on the scan-heavy PageRank workload; on a
//! single-core host it degrades to the inline unit loop (speedup ≈ 1).
//! Either way the results are bit-identical — asserted here on every run,
//! as is the pruned-plan BFS being strictly cheaper than full scans.

use std::time::Instant;

use graphr_bench::perf::{bench_config, bfs_from_zero, bfs_full_plan_rounds};
use graphr_core::exec::mask::FrontierMask;
use graphr_core::exec::{EdgeValueFn, ScanEngine, StreamingExecutor};
use graphr_core::multinode::{ClusterExecutor, MultiNodeConfig, MultiNodeEstimate};
use graphr_core::outofcore::{estimate_out_of_core, DiskModel};
use graphr_core::sim::{PageRankOptions, SpmvOptions, TraversalOptions};
use graphr_core::{GraphRConfig, TiledGraph};
use graphr_graph::generators::rmat::Rmat;
use graphr_graph::generators::structured::grid;
use graphr_graph::{GraphHandle, BYTES_PER_EDGE};
use graphr_runtime::{pool, Job, JobSpec, Session};
use graphr_units::FixedSpec;

fn best_of<F: FnMut() -> std::time::Duration>(reps: usize, mut run: F) -> f64 {
    (0..reps)
        .map(|_| run().as_secs_f64())
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let threads = pool::available_threads();
    println!("micro_runtime: {threads} host threads");

    // ≥ 100 k edges; 50 k vertices → 13 destination strips under the
    // default 4096-wide §5.2 geometry, enough units to shard.
    let graph = Rmat::new(50_000, 100_000).seed(9).max_weight(16).generate();
    let handle = GraphHandle::new("rmat-100k", graph);
    let config = GraphRConfig::default();

    // The grid BFS is the small-scan case: every round plans a thin
    // wavefront, so its scans stay below the executor's fan-out cutoff and
    // run inline at any thread count.
    let grid_handle = GraphHandle::new("grid-240", grid(240, 240));
    let grid_config = bench_config();
    for (name, handle, config, spec) in [
        (
            "pagerank(5 iters)",
            &handle,
            &config,
            JobSpec::PageRank(PageRankOptions {
                max_iterations: 5,
                tolerance: 0.0,
                ..PageRankOptions::default()
            }),
        ),
        (
            "sssp",
            &handle,
            &config,
            JobSpec::Sssp(TraversalOptions::default()),
        ),
        (
            "bfs(240x240 grid)",
            &grid_handle,
            &grid_config,
            JobSpec::Bfs(TraversalOptions::default()),
        ),
    ] {
        // Warm one session per thread count so only scan time is measured.
        let serial = Session::new(config.clone()).with_threads(1);
        let parallel = Session::new(config.clone()).with_threads(threads);
        let job = Job::new(handle.clone(), spec.clone());
        let out_s = serial.submit(&job).expect("serial run");
        let out_p = parallel.submit(&job).expect("parallel run");
        assert_eq!(
            out_s.output, out_p.output,
            "parallel must be bit-identical to serial"
        );

        let t_serial = best_of(3, || {
            let start = Instant::now();
            serial.submit(&job).expect("serial rep");
            start.elapsed()
        });
        let t_parallel = best_of(3, || {
            let start = Instant::now();
            parallel.submit(&job).expect("parallel rep");
            start.elapsed()
        });
        println!(
            "  {name}: serial {:.1} ms, parallel {:.1} ms → {:.2}x speedup",
            t_serial * 1e3,
            t_parallel * 1e3,
            t_serial / t_parallel
        );
    }

    // Cache: cold submit (tiler runs) vs warm submit (tiler skipped).
    let session = Session::new(config).with_threads(threads);
    let job = Job::new(
        handle,
        JobSpec::PageRank(PageRankOptions {
            max_iterations: 1,
            tolerance: 0.0,
            ..PageRankOptions::default()
        }),
    );
    let start = Instant::now();
    let cold = session.submit(&job).expect("cold submit");
    let t_cold = start.elapsed().as_secs_f64();
    assert_eq!(cold.cache_hits, 0);
    let start = Instant::now();
    let warm = session.submit(&job).expect("warm submit");
    let t_warm = start.elapsed().as_secs_f64();
    assert!(warm.cache_hits > 0, "second submit must hit the cache");
    println!(
        "  session cache: cold {:.1} ms (tiler) vs warm {:.1} ms → {:.2}x",
        t_cold * 1e3,
        t_warm * 1e3,
        t_cold / t_warm
    );

    scan_kernel_case();
    sparse_frontier_case();
    incremental_planner_case();
    planner_replay_case();
    fused_wave_case();
    serve_stats_case();
    out_of_core_sparse_frontier_case(threads);
    pipelined_prefetch_case(threads);
    cluster_sparse_frontier_case();
    tracing_overhead_case();
}

/// The Fast-fidelity scan kernels in host ns per stored edge on the
/// `pagerank_rmat`-shaped R-MAT graph (65,536 vertices, 1 M edges): a
/// PageRank-valued MAC scan of one input at 1 and 2 threads, as a fresh
/// tiling's first dense scan (tiling excluded), as a fresh executor's
/// first dense scan on a tiling already scanned (each fills every unit's
/// codes and scans them: a dense SpMV's cost), and as a scan that reuses
/// the codes, with the tiling's heap bytes per stored edge (asserted at
/// most 15) and the executor's code bytes per stored edge. The fresh
/// executor's scan runs under PageRank's values as
/// `EdgeValueFn::per_source` and as the equal closure, and under SpMV's
/// as `EdgeValueFn::weight_over_source` and as its closure; each pair
/// must give the same bits, and each fresh scan prints its ratio to the
/// reused one. Then a masked SpMV scan over the plan of a 1-in-100 source
/// mask, whose fresh value refills the kept codes of its
/// planned runs on every scan, one fill and one scan call per run of
/// adjacent planned subgraphs, with the code bytes per stored edge its
/// executor then holds (its planned units' codes only); and a one-lane
/// SSSP add-op scan with every vertex active at one thread. Best of 7
/// scans; printed, not asserted (host time is too noisy to gate on). All
/// three dense MAC scans must give the same bits.
fn scan_kernel_case() {
    use graphr_core::exec::LaneFrontier;

    let graph = Rmat::new(65_536, 1_000_000).seed(3).generate();
    let n = graph.num_vertices();
    let edges = graph.num_edges() as f64;
    let config = bench_config();
    let tile = || TiledGraph::preprocess(&graph, &config).expect("tile the R-MAT graph");
    let tiled = tile();
    let degrees = graph.out_degrees();
    let conductance: Vec<f64> = degrees.iter().map(|&d| 0.85 / f64::from(d)).collect();
    let out_degrees: Vec<f64> = degrees.iter().map(|&d| f64::from(d)).collect();
    let pagerank = |_w: f32, src: u32, _dst: u32| conductance[src as usize];
    let over_degree = |w: f32, src: u32, _dst: u32| f64::from(w) / out_degrees[src as usize];
    let x = vec![1.0; n];
    let matrix_spec = PageRankOptions::default().matrix_spec;
    let spmv_spec = SpmvOptions::default().matrix_spec;
    for threads in [1, 2] {
        let fresh = |spec| StreamingExecutor::new(&tiled, &config, spec).with_threads(threads);
        // A fresh tiling per scan, tiled before the clock starts.
        let mut cold = Vec::new();
        let t_cold = best_of(7, || {
            let tiled = tile();
            let mut mac =
                StreamingExecutor::new(&tiled, &config, matrix_spec).with_threads(threads);
            let value = EdgeValueFn::per_source(&conductance);
            let start = Instant::now();
            cold = mac.scan_mac(&value, &[&x]);
            start.elapsed()
        });
        // A fresh executor per scan on a tiling already scanned, as a SpMV
        // run makes: each first scan fills and scans every unit's codes.
        let (pr, mv) = (|| fresh(matrix_spec), || fresh(spmv_spec));
        let (t_table, first) = first_scan(pr, || EdgeValueFn::per_source(&conductance), &x);
        let (t_closure, by_closure) = first_scan(pr, || EdgeValueFn::new(&pagerank), &x);
        assert_eq!(first, by_closure, "per_source must give its closure's bits");
        let (t_over, over) = first_scan(mv, || EdgeValueFn::weight_over_source(&out_degrees), &x);
        let (t_over_closure, by_closure) = first_scan(mv, || EdgeValueFn::new(&over_degree), &x);
        assert_eq!(
            over, by_closure,
            "weight_over_source must give its closure's bits"
        );
        let mut mac = fresh(matrix_spec);
        let value = EdgeValueFn::per_source(&conductance);
        let mut reused = mac.scan_mac(&value, &[&x]);
        let t_reused = best_of(7, || {
            let start = Instant::now();
            reused = mac.scan_mac(&value, &[&x]);
            start.elapsed()
        });
        assert_eq!(cold, first, "a scanned tiling must give a fresh one's bits");
        let tiling_bytes = tiled.heap_bytes() as f64 / edges;
        assert!(tiling_bytes <= 15.0, "{tiling_bytes:.2} tiling B/edge");
        assert_eq!(first, reused, "reused codes must give the filled bits");
        let plural = if threads == 1 { "" } else { "s" };
        println!(
            "  scan kernels (Fast, {threads} thread{plural}, R-MAT 65,536 V / 1 M E): MAC fill + scan {:.1} ms on a fresh tiling, {:.1} ns/edge ({:.1} ms, a dense SpMV) on a fresh executor, reused {:.1} ns/edge; tiling {:.2} B/edge, codes {:.2} B/edge",
            t_cold * 1e3,
            t_table * 1e9 / edges,
            t_table * 1e3,
            t_reused * 1e9 / edges,
            tiling_bytes,
            mac.program_bytes() as f64 / edges,
        );
        let ratio = |t: f64| t / t_reused;
        println!(
            "  scan kernels (Fast, {threads} thread{plural}): fresh-executor dense scan, PageRank values per_source {:.1} ms ({:.2}x reused) vs closure {:.1} ms ({:.2}x), SpMV values weight_over_source {:.1} ms ({:.2}x) vs closure {:.1} ms ({:.2}x)",
            t_table * 1e3,
            ratio(t_table),
            t_closure * 1e3,
            ratio(t_closure),
            t_over * 1e3,
            ratio(t_over),
            t_over_closure * 1e3,
            ratio(t_over_closure),
        );
    }

    let mut mask = FrontierMask::new(n);
    for v in (0..n).step_by(100) {
        mask.set(v);
    }
    let masked_x: Vec<f64> = (0..n)
        .map(|v| if mask.get(v) { 1.0 } else { 0.0 })
        .collect();
    let mut spmv = StreamingExecutor::new(&tiled, &config, spmv_spec);
    let plan = ScanEngine::plan(&mut spmv, Some(&mask));
    let t_masked = best_of(7, || {
        let value = EdgeValueFn::weight_over_source(&out_degrees);
        let start = Instant::now();
        spmv.scan_mac_planned(&plan, &value, &[&masked_x]);
        start.elapsed()
    });
    println!(
        "  scan kernels (Fast, 1 thread, R-MAT 65,536 V / 1 M E): masked SpMV (1-in-100 sources, {} planned edges) {:.2} ms, {:.1} ns/planned edge; codes {:.2} B/edge",
        plan.stats().edges_planned,
        t_masked * 1e3,
        t_masked * 1e9 / plan.stats().edges_planned.max(1) as f64,
        spmv.program_bytes() as f64 / edges,
    );

    let spec = FixedSpec::new(16, 0).expect("Q16.0 is valid");
    let mut addop = StreamingExecutor::new(&tiled, &config, spec);
    let plan = ScanEngine::plan(&mut addop, None);
    let active = LaneFrontier::full(n, 1);
    let addends = vec![vec![1.0; n]];
    let weight = EdgeValueFn::new(&|w, _, _| f64::from(w));
    let t_addop = best_of(3, || {
        let mut frontiers = vec![vec![spec.max_value(); n]];
        let mut updated = LaneFrontier::new(n, 1);
        let start = Instant::now();
        addop.scan_add_op_lanes_planned(
            &plan,
            &weight,
            &|du, w| du + w,
            &addends,
            &active,
            &mut frontiers,
            &mut updated,
        );
        start.elapsed()
    });
    println!(
        "  scan kernels (Fast, 1 thread, R-MAT 65,536 V / 1 M E): add-op {:.1} ns/edge",
        t_addop * 1e9 / edges,
    );
}

/// A fresh executor's first dense MAC scan of `x` under `value()`: the
/// best of 7 host times, and its outputs.
fn first_scan<'a, 'v>(
    fresh: impl Fn() -> StreamingExecutor<'a>,
    value: impl Fn() -> EdgeValueFn<'v>,
    x: &[f64],
) -> (f64, Vec<Vec<f64>>) {
    let mut first = fresh().scan_mac(&value(), &[x]);
    let t_first = best_of(7, || {
        let (mut mac, value) = (fresh(), value());
        let start = Instant::now();
        first = mac.scan_mac(&value, &[x]);
        start.elapsed()
    });
    (t_first, first)
}

/// Observability is passive: draining the same serve batch with and
/// without stats collection must leave the simulated `Metrics`
/// bit-identical, and two identical observed drains must render
/// byte-identical registries (the determinism contract for the
/// service-level histograms).
fn serve_stats_case() {
    use graphr_core::stats::StatsRegistry;
    use graphr_runtime::{ServeConfig, Server};

    let handle = GraphHandle::new("grid-120", grid(120, 120));
    let config = GraphRConfig::builder()
        .crossbar_size(8)
        .crossbars_per_ge(32)
        .num_ges(4)
        .build()
        .expect("valid bench geometry");
    let run = |collect: bool| {
        let session = Session::new(config.clone());
        let mut server = Server::new(ServeConfig::default());
        for i in 0..6u32 {
            let spec = JobSpec::Bfs(TraversalOptions {
                source: i * 5,
                ..TraversalOptions::default()
            });
            server
                .enqueue(Job::new(handle.clone(), spec))
                .expect("admit bfs");
        }
        let results = server.drain(&session);
        let metrics: Vec<graphr_core::Metrics> = results
            .iter()
            .map(|r| {
                r.report
                    .as_ref()
                    .expect("serve run")
                    .output
                    .metrics()
                    .clone()
            })
            .collect();
        let rendered = collect.then(|| {
            let mut registry = StatsRegistry::new();
            server.collect_stats(&mut registry);
            registry.render_prometheus()
        });
        (metrics, rendered)
    };
    let (m_plain, _) = run(false);
    let (m_observed, r_first) = run(true);
    let (_, r_second) = run(true);
    assert_eq!(
        m_plain, m_observed,
        "stats collection must not perturb the simulated Metrics"
    );
    assert_eq!(
        r_first, r_second,
        "identical drains must render byte-identical registries"
    );
    println!(
        "  serve stats (120x120 grid, 6-query batch): collection is passive — Metrics bit-identical, registry render reproducible ({} bytes)",
        r_first.map_or(0, |r| r.len()),
    );
}

fn sparse_frontier_case() {
    // A 120×120 grid: ~14.4 k vertices, diameter ~238 — the frontier is a
    // thin wavefront, the worst case for full scans and the best for
    // pruned plans.
    let g = grid(120, 120);
    let config = GraphRConfig::builder()
        .crossbar_size(8)
        .crossbars_per_ge(32)
        .num_ges(4)
        .build()
        .expect("valid bench geometry");
    let tiled = TiledGraph::preprocess(&g, &config).expect("grid tiles");
    let spec = FixedSpec::new(16, 0).expect("Q16.0 is valid");

    // A dense-plan scan loop runs every iteration in O(|E|); the driver
    // re-plans from the frontier each round, so iteration cost follows
    // the (small) wavefront of a high-diameter structured graph.
    let full = || {
        let mut exec = StreamingExecutor::new(&tiled, &config, spec);
        bfs_full_plan_rounds(&mut exec, spec, tiled.num_vertices())
    };
    let pruned = || bfs_from_zero(&g, &mut StreamingExecutor::new(&tiled, &config, spec));
    let t_full = best_of(2, || {
        let start = Instant::now();
        let _ = full();
        start.elapsed()
    });
    let t_pruned = best_of(2, || {
        let start = Instant::now();
        let _ = pruned();
        start.elapsed()
    });
    let (d_full, m_full) = full();
    let (d_pruned, m_pruned) = pruned();
    assert_eq!(d_full, d_pruned, "pruning must not change BFS labels");
    assert!(
        m_pruned.events.bytes_streamed < m_full.events.bytes_streamed,
        "pruned plans must stream fewer edges"
    );
    assert!(
        m_pruned.total_time() < m_full.total_time(),
        "pruned iterations must be cheaper in simulated time: {} vs {}",
        m_pruned.total_time(),
        m_full.total_time()
    );
    println!(
        "  sparse-frontier bfs (120x120 grid, {} rounds): full-scan {:.1} ms host / {} sim, pruned-plan {:.1} ms host / {} sim → {:.1}x sim, {:.1}x fewer edges streamed",
        m_pruned.iterations,
        t_full * 1e3,
        m_full.total_time(),
        t_pruned * 1e3,
        m_pruned.total_time(),
        m_full.total_time().as_nanos() / m_pruned.total_time().as_nanos(),
        m_full.events.bytes_streamed as f64 / m_pruned.events.bytes_streamed.max(1) as f64,
    );

    // Host cost per pruned traversal round at one and two workers: every
    // round's scan is below the fan-out cutoff, so the ratio shows what a
    // second worker costs a frontier-sized round. Printed, not asserted.
    let per_round_us = |threads: usize| {
        let t = best_of(3, || {
            let mut exec = StreamingExecutor::new(&tiled, &config, spec).with_threads(threads);
            let start = Instant::now();
            let _ = bfs_from_zero(&g, &mut exec);
            start.elapsed()
        });
        t * 1e6 / m_pruned.iterations as f64
    };
    let (one, two) = (per_round_us(1), per_round_us(2));
    println!(
        "  sparse-frontier bfs host per round: {one:.1} µs at 1 thread, {two:.1} µs at 2 threads ({:.2}x)",
        two / one,
    );
}

/// The incremental planner on the same sparse-frontier BFS: consecutive
/// frontiers overlap, so after the first rebuild every round's plan is a
/// delta patch of the previous one — strictly fewer span-table walks, a
/// measured planning-time win over per-iteration scratch rebuilds, and
/// bit-identical plans throughout (labels and streamed work agree).
fn incremental_planner_case() {
    use graphr_core::exec::PlanSkeleton;
    use std::sync::Arc;

    let g = grid(120, 120);
    let config = GraphRConfig::builder()
        .crossbar_size(8)
        .crossbars_per_ge(32)
        .num_ges(4)
        .build()
        .expect("valid bench geometry");
    let tiled = TiledGraph::preprocess(&g, &config).expect("grid tiles");
    let n = tiled.num_vertices();
    let spec = FixedSpec::new(16, 0).expect("Q16.0 is valid");
    let skeleton = PlanSkeleton::build(&tiled);

    // Scratch baseline: every round rebuilds its plan through the
    // stateless skeleton; planning time is measured around the rebuild.
    let scratch_run = || {
        let mut exec = StreamingExecutor::new(&tiled, &config, spec);
        let inf = spec.max_value();
        let mut dist = vec![inf; n];
        dist[0] = 0.0;
        let mut active = FrontierMask::new(n);
        active.set(0);
        let hop = EdgeValueFn::new(&|_w, _, _| 1.0);
        let mut planning = std::time::Duration::ZERO;
        for _ in 0..n {
            let t0 = Instant::now();
            let plan = Arc::new(skeleton.pruned_plan(&tiled, &active));
            planning += t0.elapsed();
            let mut frontier = dist.clone();
            let mut updated = FrontierMask::new(n);
            exec.scan_add_op_planned(
                &plan,
                &hop,
                &|du, w| du + w,
                &dist,
                &active,
                &mut frontier,
                &mut updated,
            );
            exec.end_iteration();
            dist = frontier;
            active = updated;
            if active.is_empty() {
                break;
            }
        }
        let inf = spec.max_value();
        let dist: Vec<Option<f64>> = dist.into_iter().map(|d| (d < inf).then_some(d)).collect();
        (dist, exec.take_metrics(), planning.as_secs_f64())
    };
    let (d_scratch, m_scratch, _) = scratch_run();
    let t_scratch = best_of(5, || std::time::Duration::from_secs_f64(scratch_run().2));

    // Delta planner: the engine's own plan() path; Metrics::plan carries
    // the measured planning time.
    let delta_run = || bfs_from_zero(&g, &mut StreamingExecutor::new(&tiled, &config, spec));
    let (d_delta, m_delta) = delta_run();
    let t_delta = best_of(5, || {
        std::time::Duration::from_secs_f64(delta_run().1.plan.time.as_secs())
    });

    assert_eq!(d_scratch, d_delta, "delta plans must not change labels");
    assert_eq!(
        m_scratch.events, m_delta.events,
        "delta plans must stream exactly what scratch plans stream"
    );
    assert!(
        m_delta.plan.delta_patches > m_delta.plan.full_rebuilds,
        "overlapping BFS frontiers must mostly patch: {:?}",
        m_delta.plan
    );
    assert!(
        t_delta < t_scratch,
        "delta planning must beat per-iteration rebuilds: {:.3} ms vs {:.3} ms",
        t_delta * 1e3,
        t_scratch * 1e3
    );
    println!(
        "  incremental planner (120x120 grid bfs, {} rounds): {} delta patches / {} rebuilds, {} units reused; planning {:.3} ms vs {:.3} ms scratch rebuilds → {:.1}x less planning time",
        m_delta.iterations,
        m_delta.plan.delta_patches,
        m_delta.plan.full_rebuilds,
        m_delta.plan.units_reused,
        t_delta * 1e3,
        t_scratch * 1e3,
        t_scratch / t_delta.max(1e-9),
    );
}

/// The incremental planner's cost per frontier delta: a corner BFS's 478
/// anti-diagonal frontiers on the 240×240 grid, replayed through
/// `Planner::plan_for_delta` on the `traverse_grid` geometry. Best of 5
/// replays; printed, not asserted (host time is too noisy to gate on).
fn planner_replay_case() {
    use graphr_core::exec::mask::FrontierDelta;
    use graphr_core::exec::{PlanSkeleton, Planner, PlannerIndex};
    use graphr_core::metrics::PlanCounters;
    use std::sync::Arc;

    const SIDE: usize = 240;
    let config = bench_config();
    let tiled = TiledGraph::preprocess(&grid(SIDE, SIDE), &config).expect("grid tiles");
    let skeleton = Arc::new(PlanSkeleton::build(&tiled));
    let index = Arc::new(PlannerIndex::build(&tiled));
    let masks: Vec<FrontierMask> = (0..2 * SIDE - 1)
        .map(|r| {
            let mut mask = FrontierMask::new(SIDE * SIDE);
            for i in r.saturating_sub(SIDE - 1)..=r.min(SIDE - 1) {
                mask.set(i * SIDE + (r - i));
            }
            mask
        })
        .collect();
    let deltas: Vec<FrontierDelta> = masks
        .windows(2)
        .map(|pair| FrontierDelta::between(&pair[0], &pair[1]))
        .collect();
    let replay = best_of(5, || {
        let mut planner = Planner::with_index(Arc::clone(&skeleton), Arc::clone(&index));
        let mut counters = PlanCounters::default();
        let _ = planner.plan_for(&config, Some(&masks[0]), &mut counters);
        let start = Instant::now();
        for (mask, delta) in masks[1..].iter().zip(&deltas) {
            std::hint::black_box(planner.plan_for_delta(&config, mask, delta, &mut counters));
        }
        start.elapsed()
    });
    println!(
        "  planner replay (240x240 grid, {} anti-diagonal deltas): {:.2} µs per plan_for_delta call (best of 5)",
        deltas.len(),
        replay * 1e6 / deltas.len() as f64
    );
}

/// The serve layer's fusion win: K=16 co-located BFS queries on the
/// 240×240 grid advanced together as frontier lanes of one machine
/// execution vs run one at a time. Every lane's labels and attribution
/// row are bit-identical to its independent run (asserted), but the
/// fused wave plans the *union* frontier once per round — one plan and
/// one scan of the shared edge stream instead of sixteen — so it must
/// stream strictly fewer total edges and spend strictly less host
/// planning time than the sequential sum.
fn fused_wave_case() {
    use graphr_core::sim::{run_bfs_lanes_with, run_bfs_with, LaneTraversalOptions};

    let g = grid(240, 240);
    let config = GraphRConfig::builder()
        .crossbar_size(8)
        .crossbars_per_ge(32)
        .num_ges(4)
        .build()
        .expect("valid bench geometry");
    let tiled = TiledGraph::preprocess(&g, &config).expect("grid tiles");
    // Sixteen sources spread along the first row: co-located enough that
    // the sixteen wavefronts overlap almost immediately.
    let sources: Vec<u32> = (0..16u32).map(|i| i * 3).collect();
    let opts = LaneTraversalOptions::new(sources.clone());

    let fused_run = || {
        let mut exec = StreamingExecutor::new(&tiled, &config, opts.spec);
        run_bfs_lanes_with(&g, &mut exec, &opts).expect("fused wave")
    };
    let solo_runs = || {
        sources
            .iter()
            .map(|&source| {
                let mut exec = StreamingExecutor::new(&tiled, &config, opts.spec);
                run_bfs_with(
                    &g,
                    &mut exec,
                    &TraversalOptions {
                        source,
                        ..TraversalOptions::default()
                    },
                )
                .expect("solo run")
            })
            .collect::<Vec<_>>()
    };

    let fused = fused_run();
    let solos = solo_runs();
    for (q, solo) in solos.iter().enumerate() {
        assert_eq!(
            fused.distances[q], solo.distances,
            "lane {q} must match its independent run"
        );
        assert_eq!(
            fused.metrics.lanes[q], solo.metrics.lanes[0],
            "lane {q} attribution must match its independent run"
        );
    }
    let solo_bytes: u64 = solos.iter().map(|s| s.metrics.events.bytes_streamed).sum();
    assert!(
        fused.metrics.events.bytes_streamed < solo_bytes,
        "the fused wave must stream fewer edges than the sequential sum: {} vs {} bytes",
        fused.metrics.events.bytes_streamed,
        solo_bytes
    );

    let t_fused_plan = best_of(2, || {
        std::time::Duration::from_secs_f64(fused_run().metrics.plan.time.as_secs())
    });
    let t_solo_plan = best_of(2, || {
        std::time::Duration::from_secs_f64(
            solo_runs()
                .iter()
                .map(|s| s.metrics.plan.time.as_secs())
                .sum(),
        )
    });
    assert!(
        t_fused_plan < t_solo_plan,
        "one union plan per round must beat sixteen: {:.3} ms vs {:.3} ms",
        t_fused_plan * 1e3,
        t_solo_plan * 1e3
    );
    println!(
        "  fused wave (240x240 grid, 16-lane bfs, {} rounds): {:.1} MiB streamed vs {:.1} MiB sequential ({:.1}x less), planning {:.3} ms vs {:.3} ms ({:.1}x less)",
        fused.metrics.iterations,
        fused.metrics.events.bytes_streamed as f64 / (1024.0 * 1024.0),
        solo_bytes as f64 / (1024.0 * 1024.0),
        solo_bytes as f64 / fused.metrics.events.bytes_streamed.max(1) as f64,
        t_fused_plan * 1e3,
        t_solo_plan * 1e3,
        t_solo_plan / t_fused_plan.max(1e-9),
    );
}

/// The telemetry tax: the same sparse-frontier BFS with a trace sink
/// attached vs without. Tracing is an observation — labels and the full
/// `Metrics` must be bit-identical either way (asserted) — and its host
/// cost is a handful of mutex-guarded pushes per iteration, reported here
/// as an overhead ratio.
fn tracing_overhead_case() {
    use graphr_core::trace::{TraceHandle, TraceSink};

    let g = grid(120, 120);
    let config = GraphRConfig::builder()
        .crossbar_size(8)
        .crossbars_per_ge(32)
        .num_ges(4)
        .build()
        .expect("valid bench geometry");
    let tiled = TiledGraph::preprocess(&g, &config).expect("grid tiles");
    let spec = FixedSpec::new(16, 0).expect("Q16.0 is valid");

    let plain_run = || bfs_from_zero(&g, &mut StreamingExecutor::new(&tiled, &config, spec));
    let traced_run = || {
        let sink = TraceSink::shared();
        let mut exec = StreamingExecutor::new(&tiled, &config, spec);
        exec.set_trace(Some(TraceHandle::new(std::sync::Arc::clone(&sink))));
        let out = bfs_from_zero(&g, &mut exec);
        (out, sink)
    };

    let (d_plain, m_plain) = plain_run();
    let ((d_traced, m_traced), sink) = traced_run();
    assert_eq!(d_plain, d_traced, "tracing must not change labels");
    assert_eq!(
        m_plain, m_traced,
        "tracing must not change Metrics — it only observes"
    );
    assert!(!sink.is_empty(), "the sink must have seen the run");

    let t_plain = best_of(3, || {
        let start = Instant::now();
        let _ = plain_run();
        start.elapsed()
    });
    let t_traced = best_of(3, || {
        let start = Instant::now();
        let _ = traced_run();
        start.elapsed()
    });
    // Host timing is noisy; only the absurd direction would indicate a
    // bug (tracing making the *untraced* run look slower than 2x).
    assert!(
        t_plain <= t_traced * 2.0,
        "untraced runs can't cost 2x a traced run: {:.3} ms vs {:.3} ms",
        t_plain * 1e3,
        t_traced * 1e3
    );
    println!(
        "  tracing overhead (120x120 grid bfs, {} rounds, {} events): plain {:.3} ms vs traced {:.3} ms → {:.2}x",
        m_traced.iterations,
        sink.len(),
        t_plain * 1e3,
        t_traced * 1e3,
        t_traced / t_plain.max(1e-9),
    );
}

/// The same sparse-frontier BFS on a simulated 4-node cluster: the
/// frontier-delta exchange ships only the properties each round updated,
/// so the interconnect traffic is a fraction of the dense `|V| × 2`-byte
/// all-gather the legacy multi-node estimate assumes every round.
fn cluster_sparse_frontier_case() {
    let g = grid(120, 120);
    let config = GraphRConfig::builder()
        .crossbar_size(8)
        .crossbars_per_ge(32)
        .num_ges(4)
        .build()
        .expect("valid bench geometry");
    let tiled = TiledGraph::preprocess(&g, &config).expect("grid tiles");
    let n = tiled.num_vertices();
    let spec = FixedSpec::new(16, 0).expect("Q16.0 is valid");

    let (d_single, m_single) =
        bfs_from_zero(&g, &mut StreamingExecutor::new(&tiled, &config, spec));
    let mut cluster = ClusterExecutor::new(&tiled, &config, spec, MultiNodeConfig::pcie_cluster(4));
    let (d_cluster, m_cluster) = bfs_from_zero(&g, &mut cluster);
    assert_eq!(d_single, d_cluster, "partitioning must not change labels");
    assert_eq!(
        m_single.events, m_cluster.events,
        "summed per-node events must equal the single-node scan"
    );

    let dense = MultiNodeEstimate::dense_exchange_bytes(n, m_cluster.iterations);
    assert!(
        m_cluster.net.bytes_exchanged < dense,
        "frontier-delta exchange must beat the dense all-gather: {} vs {} bytes",
        m_cluster.net.bytes_exchanged,
        dense
    );
    assert!(m_cluster.net.bytes_exchanged > 0);
    println!(
        "  cluster bfs (120x120 grid, 4 nodes, {} rounds): {:.1} KiB exchanged vs {:.1} KiB dense all-gather ({:.1}x less), exchange {} of cluster total {}",
        m_cluster.iterations,
        m_cluster.net.bytes_exchanged as f64 / 1024.0,
        dense as f64 / 1024.0,
        dense as f64 / m_cluster.net.bytes_exchanged.max(1) as f64,
        m_cluster.net.time,
        m_cluster.net.overlapped,
    );
}

/// The same sparse-frontier BFS in the out-of-core regime: every round's
/// plan becomes an `IoPlan`, so pruned rounds load only the frontier's
/// spans from disk instead of restreaming the whole ordered edge list —
/// enough to flip a disk-bound deployment back to compute-bound.
fn out_of_core_sparse_frontier_case(threads: usize) {
    // A 240×240 grid on an NVMe drive: the legacy model restreams ~1.3 MiB
    // per round and is hopelessly disk-bound; the pruned plan loads only
    // the wavefront's spans, whose transfer (plus the block request) costs
    // less than the round's compute.
    let g = grid(240, 240);
    let config = GraphRConfig::builder()
        .crossbar_size(8)
        .crossbars_per_ge(32)
        .num_ges(4)
        .build()
        .expect("valid bench geometry");
    let tiled = TiledGraph::preprocess(&g, &config).expect("grid tiles");
    let spec = FixedSpec::new(16, 0).expect("Q16.0 is valid");
    let disk = DiskModel::nvme();

    let mut serial = StreamingExecutor::new(&tiled, &config, spec).with_disk(disk);
    let (d_serial, m_serial) = bfs_from_zero(&g, &mut serial);
    let mut parallel = StreamingExecutor::new(&tiled, &config, spec)
        .with_threads(threads)
        .with_disk(disk);
    let (d_parallel, m_parallel) = bfs_from_zero(&g, &mut parallel);
    assert_eq!(d_serial, d_parallel, "disk model must not change labels");
    assert_eq!(
        m_serial, m_parallel,
        "serial and parallel disk metrics must be bit-identical"
    );

    // Pruned iterations must load strictly fewer bytes than restreaming
    // the whole ordered edge list every round...
    let restream_bytes = tiled.total_edges() as u64 * BYTES_PER_EDGE * m_serial.iterations as u64;
    assert!(
        m_serial.disk.bytes_loaded < restream_bytes,
        "pruned rounds must beat the full restream: {} vs {} bytes",
        m_serial.disk.bytes_loaded,
        restream_bytes
    );
    // ...and the per-iteration overlapped total must beat the legacy
    // aggregate estimate, which assumes exactly that restream...
    let legacy = estimate_out_of_core(&tiled, &m_serial, &disk);
    assert!(
        m_serial.disk.overlapped < legacy.overlapped_time,
        "plan-aware overlap must beat the aggregate estimate: {} vs {}",
        m_serial.disk.overlapped,
        legacy.overlapped_time
    );
    // ...flipping the deployment's regime: legacy says the drive bounds
    // it, the plan-aware accounting says the accelerator does.
    assert!(legacy.is_disk_bound(), "full restream should swamp an NVMe");
    assert!(
        !m_serial.disk.is_disk_bound(m_serial.total_time()),
        "pruned rounds should flip the deployment back to compute-bound: disk {} vs compute {}",
        m_serial.disk.time,
        m_serial.total_time()
    );
    // The bottleneck attribution must agree — and flip with the storage
    // regime: the same pruned BFS is compute-bound in-core and on NVMe
    // but disk-bound on the SATA-era drive (what `graphr-run`'s `bound:`
    // row shows between `--disk none` and `--disk sata`).
    {
        use graphr_core::analyze::{BottleneckReport, Resource};
        let (_, m_incore) = bfs_from_zero(&g, &mut StreamingExecutor::new(&tiled, &config, spec));
        let mut sata =
            StreamingExecutor::new(&tiled, &config, spec).with_disk(DiskModel::sata_ssd());
        let (_, m_sata) = bfs_from_zero(&g, &mut sata);
        assert_eq!(
            BottleneckReport::classify(&m_incore).bound,
            Resource::Compute,
            "in-core BFS must classify compute-bound"
        );
        assert_eq!(
            BottleneckReport::classify(&m_serial).bound,
            Resource::Compute,
            "pruned NVMe BFS must classify compute-bound"
        );
        assert_eq!(
            BottleneckReport::classify(&m_sata).bound,
            Resource::Disk,
            "pruned SATA BFS must classify disk-bound: {}",
            BottleneckReport::classify(&m_sata).summary()
        );
    }
    println!(
        "  out-of-core bfs (240x240 grid, NVMe, {} rounds): {:.1} MiB loaded vs {:.1} MiB restreamed ({:.1}x less), plan-aware total {} vs legacy estimate {} → {}-bound instead of {}-bound",
        m_serial.iterations,
        m_serial.disk.bytes_loaded as f64 / (1024.0 * 1024.0),
        restream_bytes as f64 / (1024.0 * 1024.0),
        restream_bytes as f64 / m_serial.disk.bytes_loaded.max(1) as f64,
        m_serial.disk.overlapped,
        legacy.overlapped_time,
        if m_serial.disk.is_disk_bound(m_serial.total_time()) {
            "disk"
        } else {
            "compute"
        },
        if legacy.is_disk_bound() { "disk" } else { "compute" },
    );
}

/// The pipelined I/O lane (`--disk nvme-pipe`): cross-iteration prefetch
/// must change *when* bytes move, never *what* the run computes or how
/// the full pricing reads. Asserted here on the same 240×240-grid NVMe
/// BFS as above, plus a static-frontier replay where the read-ahead
/// window structure is controlled exactly.
fn pipelined_prefetch_case(threads: usize) {
    use graphr_core::analyze::{BottleneckReport, Resource};
    use graphr_core::exec::PlanSkeleton;
    use graphr_core::outofcore::DiskAccountant;
    use graphr_core::Metrics;
    use graphr_units::Nanos;

    let g = grid(240, 240);
    let config = GraphRConfig::builder()
        .crossbar_size(8)
        .crossbars_per_ge(32)
        .num_ges(4)
        .build()
        .expect("valid bench geometry");
    let tiled = TiledGraph::preprocess(&g, &config).expect("grid tiles");
    let n = tiled.num_vertices();
    let spec = FixedSpec::new(16, 0).expect("Q16.0 is valid");
    let off = DiskModel::nvme();
    let on = off.with_prefetch();

    // Sparse BFS, prefetch off vs on, across all three engines: labels,
    // events, and every prefetch-independent disk counter bit-identical;
    // the read-ahead is active and the compute lane waits strictly less
    // on the drive without the overlapped wall ever regressing.
    let mut serial_off = StreamingExecutor::new(&tiled, &config, spec).with_disk(off);
    let (d_off, m_off) = bfs_from_zero(&g, &mut serial_off);
    let mut serial_on = StreamingExecutor::new(&tiled, &config, spec).with_disk(on);
    let (d_on, m_on) = bfs_from_zero(&g, &mut serial_on);
    assert_eq!(d_off, d_on, "prefetch must not change labels");
    assert_eq!(m_off.events, m_on.events, "prefetch must not change events");
    assert_eq!(
        m_off.disk.sans_prefetch(),
        m_on.disk.sans_prefetch(),
        "full pricing must be bit-identical with prefetch on vs off"
    );
    assert!(m_on.disk.bytes_prefetched > 0, "read-ahead must be active");
    assert!(m_on.disk.prefetch_hits > 0, "read-ahead must be consumed");
    assert!(
        m_on.disk.demand_time < m_off.disk.demand_time,
        "the compute lane must wait strictly less on the drive: {} vs {}",
        m_on.disk.demand_time,
        m_off.disk.demand_time
    );
    assert!(
        m_on.disk.overlapped <= m_off.disk.overlapped,
        "pipelining must never raise the per-iteration overlap total"
    );
    let mut parallel_on = StreamingExecutor::new(&tiled, &config, spec)
        .with_threads(threads)
        .with_disk(on);
    let (d_par, m_par) = bfs_from_zero(&g, &mut parallel_on);
    let mut cluster_on =
        ClusterExecutor::new(&tiled, &config, spec, MultiNodeConfig::pcie_cluster(1)).with_disk(on);
    let (d_clu, m_clu) = bfs_from_zero(&g, &mut cluster_on);
    assert_eq!(d_on, d_par, "parallel prefetch must not change labels");
    assert_eq!(
        d_on, d_clu,
        "one-node cluster prefetch must not change labels"
    );
    assert_eq!(
        m_on, m_par,
        "serial and parallel prefetched metrics must be bit-identical"
    );
    assert_eq!(
        m_on.disk, m_clu.disk,
        "one-node cluster prefetched disk counters must be bit-identical"
    );

    // A dense traversal restreams everything every round: there is no
    // idle tail to fund reads ahead, and the capped demand pricing keeps
    // the run inside the legacy aggregate bound.
    let mut dense_on = StreamingExecutor::new(&tiled, &config, spec).with_disk(on);
    let (_, m_dense) = bfs_full_plan_rounds(&mut dense_on, spec, n);
    let legacy = estimate_out_of_core(&tiled, &m_dense, &off);
    assert!(
        m_dense.disk.overlapped <= legacy.overlapped_time,
        "a dense prefetched run must stay within the legacy bound: {} vs {}",
        m_dense.disk.overlapped,
        legacy.overlapped_time
    );

    // A static frontier replay with alternating per-round compute — the
    // bursty profile pipelined I/O exists for. The graph is laid out in
    // five on-disk blocks; the replayed plan touches one. Heavy rounds
    // leave an idle I/O tail that reads the whole next round ahead, so
    // every other round's demand stream vanishes: the per-iteration
    // overlap model pays the drive every round, the pipelined lane every
    // second round — a strict wall win the bottleneck report attributes
    // (the deployment flips from disk-bound to compute-bound), with
    // nothing read ahead in vain.
    let blocked = GraphRConfig::builder()
        .crossbar_size(8)
        .crossbars_per_ge(32)
        .num_ges(4)
        .block_vertices(56 * 256)
        .build()
        .expect("valid blocked geometry");
    let btiled = TiledGraph::preprocess(&g, &blocked).expect("grid tiles");
    let skeleton = PlanSkeleton::build(&btiled);
    let mut mask = FrontierMask::new(n);
    for v in 2400..2880 {
        mask.set(v);
    }
    let plan = skeleton.pruned_plan(&btiled, &mask);
    let rounds = 40usize;

    // One probe window prices the replayed plan's demand stream.
    let mut probe = Metrics::new();
    let mut acc = DiskAccountant::new(off, Nanos::ZERO);
    acc.charge_scan(&btiled, &plan, &mut probe);
    probe.elapsed += Nanos::new(1.0);
    let demand = acc.commit(&mut probe).demand;
    let heavy = demand * 1.3;
    let light = demand * 0.3;

    let replay = |model: DiskModel| -> Metrics {
        let mut m = Metrics::new();
        let mut acc = DiskAccountant::new(model, Nanos::ZERO);
        for round in 0..rounds {
            acc.charge_scan(&btiled, &plan, &mut m);
            m.elapsed += if round % 2 == 0 { heavy } else { light };
            acc.commit(&mut m);
        }
        m.iterations = rounds;
        m
    };
    let r_off = replay(off);
    let r_on = replay(on);
    r_on.validate().expect("prefetch invariants must hold");
    assert_eq!(
        r_off.disk.sans_prefetch(),
        r_on.disk.sans_prefetch(),
        "replay full pricing must be bit-identical with prefetch on vs off"
    );
    assert_eq!(
        r_on.disk.prefetch_wasted, 0,
        "a static frontier replay must waste nothing"
    );
    assert!(
        r_on.disk.overlapped < r_off.disk.overlapped,
        "the pipelined replay must strictly beat the per-iteration overlap model: {} vs {}",
        r_on.disk.overlapped,
        r_off.disk.overlapped
    );
    let b_off = BottleneckReport::classify(&r_off);
    let b_on = BottleneckReport::classify(&r_on);
    assert_eq!(
        b_off.bound,
        Resource::Disk,
        "the unpipelined replay must classify disk-bound: {}",
        b_off.summary()
    );
    assert_eq!(
        b_on.bound,
        Resource::Compute,
        "prefetch must flip the replay to compute-bound: {}",
        b_on.summary()
    );
    println!(
        "  pipelined i/o (240x240 grid, NVMe): bfs demand {} vs {} off ({:.1} KiB ahead, {} hits); replay wall {} vs {} off ({:.2}x, {}-bound -> {}-bound, 0 wasted)",
        m_on.disk.demand_time,
        m_off.disk.demand_time,
        m_on.disk.bytes_prefetched as f64 / 1024.0,
        m_on.disk.prefetch_hits,
        r_on.disk.overlapped,
        r_off.disk.overlapped,
        r_off.disk.overlapped.as_nanos() / r_on.disk.overlapped.as_nanos(),
        b_off.bound.name(),
        b_on.bound.name(),
    );
}
