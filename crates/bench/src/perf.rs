//! Perf-baseline scenarios: the `micro_runtime` cases as deterministic,
//! structured measurements.
//!
//! Each scenario runs one of the runtime microbenchmark's workloads and
//! returns a [`ScenarioRow`] of simulated facts — bytes streamed from
//! memory ReRAM, bytes loaded from disk, bytes exchanged on the
//! interconnect, host planning time, the simulated total, and the
//! bottleneck classification — plus, for the serve scenario, the
//! simulated latency percentiles. The `perf_report` bench target writes
//! the rows to `BENCH_micro.json` (the tracked perf baseline CI
//! regenerates on every run); the `micro_runtime` target narrates the
//! same workloads with host timings and correctness assertions, sharing
//! the BFS drivers below so both harnesses measure the same loops.

use graphr_core::analyze::BottleneckReport;
use graphr_core::exec::mask::FrontierMask;
use graphr_core::exec::{ScanEngine, StreamingExecutor};
use graphr_core::json::JsonObject;
use graphr_core::multinode::{ClusterExecutor, MultiNodeConfig};
use graphr_core::outofcore::DiskModel;
use graphr_core::sim::{run_bfs_lanes_with, run_bfs_with, LaneTraversalOptions, TraversalOptions};
use graphr_core::stats::Histogram;
use graphr_core::{GraphRConfig, Metrics, TiledGraph};
use graphr_graph::generators::structured::grid;
use graphr_graph::{EdgeList, GraphHandle};
use graphr_runtime::{Job, JobSpec, ServeConfig, Server, Session};
use graphr_units::FixedSpec;

/// The small §5.2-derived geometry every micro scenario uses: 8×8
/// crossbars, 32 per GE, 4 GEs — big enough to exercise strip sharding,
/// small enough that a full BFS converges in milliseconds of host time.
#[must_use]
pub fn bench_config() -> GraphRConfig {
    GraphRConfig::builder()
        .crossbar_size(8)
        .crossbars_per_ge(32)
        .num_ges(4)
        .build()
        .expect("valid bench geometry")
}

/// The BFS label format (its maximum is the "unreached" sentinel).
#[must_use]
pub fn bfs_spec() -> FixedSpec {
    FixedSpec::new(16, 0).expect("Q16.0 is valid")
}

/// BFS from vertex 0 through the simulator's driver
/// ([`run_bfs_with`]) on any engine (any thread count, with or without a
/// disk model or cluster attached): frontier-pruned plans patched by the
/// driver's deltas. The engine must use [`bfs_spec`].
pub fn bfs_from_zero(graph: &EdgeList, exec: &mut dyn ScanEngine) -> (Vec<Option<f64>>, Metrics) {
    let run = run_bfs_with(graph, exec, &TraversalOptions::default()).expect("vertex 0 exists");
    (run.distances, run.metrics)
}

/// The unpruned reference for [`bfs_from_zero`]: the same BFS with every
/// round scanning the dense full plan over `n` vertices. `spec` must be
/// the label format the engine was built with.
pub fn bfs_full_plan_rounds(
    exec: &mut dyn ScanEngine,
    spec: FixedSpec,
    n: usize,
) -> (Vec<Option<f64>>, Metrics) {
    let inf = spec.max_value();
    let mut dist = vec![inf; n];
    dist[0] = 0.0;
    let mut active = FrontierMask::new(n);
    active.set(0);
    for _ in 0..n {
        let plan = exec.plan(None);
        let mut frontier = dist.clone();
        let mut updated = FrontierMask::new(n);
        exec.scan_add_op_planned(
            &plan,
            &|_w, _, _| 1.0,
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
    let distances = dist.into_iter().map(|d| (d < inf).then_some(d)).collect();
    (distances, exec.take_metrics())
}

/// The serve scenario's latency summary: admission counters plus the
/// simulated end-to-end latency percentiles (whole nanoseconds, exact —
/// see `graphr_core::stats::Histogram`).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeLatencySummary {
    /// Queries admitted to the queue.
    pub admitted: u64,
    /// Queries the admission controller rejected.
    pub rejected: u64,
    /// Machine executions the drain ran: distinct
    /// `QueryResult::wave` numbers, so solo runs count as well as fused
    /// waves.
    pub waves: u64,
    /// Median simulated latency, ns.
    pub p50_ns: u64,
    /// 95th-percentile simulated latency, ns.
    pub p95_ns: u64,
    /// 99th-percentile simulated latency, ns.
    pub p99_ns: u64,
    /// Worst simulated latency, ns.
    pub max_ns: u64,
}

impl ServeLatencySummary {
    fn from_latency(latency: &Histogram, admitted: u64, rejected: u64, waves: u64) -> Self {
        ServeLatencySummary {
            admitted,
            rejected,
            waves,
            p50_ns: latency.percentile(50),
            p95_ns: latency.percentile(95),
            p99_ns: latency.percentile(99),
            max_ns: latency.max(),
        }
    }

    fn to_json(&self) -> String {
        let mut out = String::new();
        let mut obj = JsonObject::open(&mut out);
        obj.raw("admitted", self.admitted)
            .raw("rejected", self.rejected)
            .raw("waves", self.waves);
        let mut latency = JsonObject::open(obj.key("latency_ns"));
        latency
            .raw("p50", self.p50_ns)
            .raw("p95", self.p95_ns)
            .raw("p99", self.p99_ns)
            .raw("max", self.max_ns);
        latency.close();
        obj.close();
        out
    }
}

/// One scenario's measured facts — the `BENCH_micro.json` row.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRow {
    /// Scenario name (stable across runs; CI validates the full set).
    pub name: &'static str,
    /// Iterations the workload converged in.
    pub iterations: usize,
    /// Edge bytes streamed out of memory ReRAM.
    pub bytes_streamed: u64,
    /// Bytes loaded from the simulated disk (0 when in-core).
    pub bytes_loaded: u64,
    /// Property bytes exchanged on the simulated interconnect (0 when
    /// single-node).
    pub bytes_exchanged: u64,
    /// Host planning time, milliseconds (the one host-measured field —
    /// the perf baseline proper; everything else is simulated and
    /// deterministic).
    pub plan_time_ms: f64,
    /// Simulated total time, ns.
    pub sim_time_ns: f64,
    /// The run's effective wall-clock from
    /// [`BottleneckReport::classify`] — composed cluster elapsed,
    /// per-window overlapped disk total, or plain compute, whichever
    /// regime the run was in. This is the axis the prefetch scenarios
    /// compare on (pipelined I/O must never raise it).
    pub wall_ns: f64,
    /// Time the compute lane actually waited on the disk
    /// (`DiskCounters::demand_pressure`) — with prefetch on, the
    /// read-ahead absorbed the difference to the full pricing.
    pub demand_io_ns: f64,
    /// Bytes the `ScanDriver` read ahead on the I/O lane (0 with
    /// prefetch off or in-core).
    pub bytes_prefetched: u64,
    /// The bottleneck classification's dominant resource.
    pub bound: &'static str,
    /// Latency summary (serve scenario only).
    pub serve: Option<ServeLatencySummary>,
}

impl ScenarioRow {
    fn from_metrics(name: &'static str, m: &Metrics) -> Self {
        let report = BottleneckReport::classify(m);
        ScenarioRow {
            name,
            iterations: m.iterations,
            bytes_streamed: m.events.bytes_streamed,
            bytes_loaded: m.disk.bytes_loaded,
            bytes_exchanged: m.net.bytes_exchanged,
            plan_time_ms: m.plan.time.as_secs() * 1e3,
            sim_time_ns: m.total_time().as_nanos(),
            wall_ns: report.wall.as_nanos(),
            demand_io_ns: m.disk.demand_pressure().as_nanos(),
            bytes_prefetched: m.disk.bytes_prefetched,
            bound: report.bound.name(),
            serve: None,
        }
    }

    /// Renders the row as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut obj = JsonObject::open(&mut out);
        obj.str("name", self.name)
            .raw("iterations", self.iterations)
            .raw("bytes_streamed", self.bytes_streamed)
            .raw("bytes_loaded", self.bytes_loaded)
            .raw("bytes_exchanged", self.bytes_exchanged)
            .raw("plan_time_ms", self.plan_time_ms)
            .raw("sim_time_ns", self.sim_time_ns)
            .raw("wall_ns", self.wall_ns)
            .raw("demand_io_ns", self.demand_io_ns)
            .raw("bytes_prefetched", self.bytes_prefetched)
            .str("bound", self.bound);
        if let Some(serve) = &self.serve {
            obj.raw("serve", serve.to_json());
        }
        obj.close();
        out
    }
}

/// Renders the full `BENCH_micro.json` document.
#[must_use]
pub fn render_json(rows: &[ScenarioRow]) -> String {
    let body: Vec<String> = rows.iter().map(ScenarioRow::to_json).collect();
    let mut out = String::new();
    let mut doc = JsonObject::open(&mut out);
    doc.str("schema", "graphr-bench-micro/v2")
        .raw("scenarios", format!("[{}]", body.join(",")));
    doc.close();
    out.push('\n');
    out
}

/// Pruned-plan BFS on the 120×120 grid (the sparse-frontier win).
#[must_use]
pub fn sparse_frontier() -> ScenarioRow {
    let g = grid(120, 120);
    let config = bench_config();
    let tiled = TiledGraph::preprocess(&g, &config).expect("grid tiles");
    let mut exec = StreamingExecutor::new(&tiled, &config, bfs_spec());
    let (_, m) = bfs_from_zero(&g, &mut exec);
    ScenarioRow::from_metrics("sparse_frontier", &m)
}

/// Hierarchical-mask BFS with driver-supplied deltas on the 240×240 grid.
#[must_use]
pub fn frontier_mask() -> ScenarioRow {
    let g = grid(240, 240);
    let config = bench_config();
    let tiled = TiledGraph::preprocess(&g, &config).expect("grid tiles");
    let mut exec = StreamingExecutor::new(&tiled, &config, bfs_spec());
    let (_, m) = bfs_from_zero(&g, &mut exec);
    ScenarioRow::from_metrics("frontier_mask", &m)
}

/// K=16 co-located BFS queries advanced as fused frontier lanes on the
/// 240×240 grid.
#[must_use]
pub fn fused_wave() -> ScenarioRow {
    let g = grid(240, 240);
    let config = bench_config();
    let tiled = TiledGraph::preprocess(&g, &config).expect("grid tiles");
    let sources: Vec<u32> = (0..16u32).map(|i| i * 3).collect();
    let opts = LaneTraversalOptions::new(sources);
    let mut exec = StreamingExecutor::new(&tiled, &config, opts.spec);
    let fused = run_bfs_lanes_with(&g, &mut exec, &opts).expect("fused wave");
    ScenarioRow::from_metrics("fused_wave", &fused.metrics)
}

/// Pruned BFS on the 240×240 grid in the out-of-core regime.
#[must_use]
pub fn out_of_core(disk: DiskModel, name: &'static str) -> ScenarioRow {
    let g = grid(240, 240);
    let config = bench_config();
    let tiled = TiledGraph::preprocess(&g, &config).expect("grid tiles");
    let mut exec = StreamingExecutor::new(&tiled, &config, bfs_spec()).with_disk(disk);
    let (_, m) = bfs_from_zero(&g, &mut exec);
    ScenarioRow::from_metrics(name, &m)
}

/// Pruned BFS on the 120×120 grid sharded across a simulated 4-node
/// PCIe cluster.
#[must_use]
pub fn cluster() -> ScenarioRow {
    let g = grid(120, 120);
    let config = bench_config();
    let tiled = TiledGraph::preprocess(&g, &config).expect("grid tiles");
    let mut cluster = ClusterExecutor::new(
        &tiled,
        &config,
        bfs_spec(),
        MultiNodeConfig::pcie_cluster(4),
    );
    let (_, m) = bfs_from_zero(&g, &mut cluster);
    ScenarioRow::from_metrics("cluster_4node", &m)
}

/// A serve batch — eight co-located BFS queries plus one PageRank on the
/// 120×120 grid through the `graphr-serve` scheduler — measured on the
/// simulated service clock: the row's facts come from the drain's summed
/// machine executions, the `serve` field from the latency histograms.
#[must_use]
pub fn serve_batch() -> ScenarioRow {
    use graphr_core::sim::PageRankOptions;

    let handle = GraphHandle::new("grid-120", grid(120, 120));
    let session = Session::new(bench_config());
    let mut server = Server::new(ServeConfig::default());
    for i in 0..8u32 {
        let spec = JobSpec::Bfs(TraversalOptions {
            source: i * 3,
            ..TraversalOptions::default()
        });
        server
            .enqueue(Job::new(handle.clone(), spec))
            .expect("admit bfs");
    }
    server
        .enqueue(Job::new(
            handle.clone(),
            JobSpec::PageRank(PageRankOptions {
                max_iterations: 3,
                tolerance: 0.0,
                ..PageRankOptions::default()
            }),
        ))
        .expect("admit pagerank");

    let results = server.drain(&session);
    let mut iterations = 0usize;
    let mut bytes_streamed = 0u64;
    let mut plan_time_ms = 0f64;
    let mut sim_time_ns = 0f64;
    let mut wall_ns = 0f64;
    // The bound of the execution with the largest wall.
    let mut slowest: Option<BottleneckReport> = None;
    let mut seen_waves = std::collections::BTreeSet::new();
    for result in &results {
        let report = result.report.as_ref().expect("serve run");
        let m = report.output.metrics();
        // Fused waves share one machine execution; count it once.
        if seen_waves.insert(result.wave) {
            iterations += m.iterations;
            bytes_streamed += m.events.bytes_streamed;
            plan_time_ms += m.plan.time.as_secs() * 1e3;
            sim_time_ns += m.total_time().as_nanos();
            let bottleneck = BottleneckReport::classify(m);
            wall_ns += bottleneck.wall.as_nanos();
            if slowest.as_ref().is_none_or(|s| bottleneck.wall > s.wall) {
                slowest = Some(bottleneck);
            }
        }
    }
    let stats = server.stats();
    let latency = &server.latency().latency;
    ScenarioRow {
        name: "serve_batch",
        iterations,
        bytes_streamed,
        bytes_loaded: 0,
        bytes_exchanged: 0,
        plan_time_ms,
        sim_time_ns,
        wall_ns,
        demand_io_ns: 0.0,
        bytes_prefetched: 0,
        bound: slowest.map_or("compute", |s| s.bound.name()),
        serve: Some(ServeLatencySummary::from_latency(
            latency,
            stats.admitted,
            stats.rejected,
            seen_waves.len() as u64,
        )),
    }
}

/// Runs every scenario in its canonical order.
#[must_use]
pub fn run_all() -> Vec<ScenarioRow> {
    vec![
        sparse_frontier(),
        frontier_mask(),
        fused_wave(),
        out_of_core(DiskModel::nvme(), "out_of_core_nvme"),
        out_of_core(
            DiskModel::nvme().with_prefetch(),
            "out_of_core_nvme_prefetch",
        ),
        out_of_core(DiskModel::sata_ssd(), "out_of_core_sata"),
        cluster(),
        serve_batch(),
    ]
}
