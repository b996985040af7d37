//! Job specifications and results for the runtime service layer.

use std::fmt;
use std::time::Duration;

use graphr_core::analyze::BottleneckReport;
use graphr_core::json::JsonObject;
use graphr_core::sim::{
    CfOptions, CfRun, PageRankOptions, ScalarRun, SpmvOptions, TraversalOptions, TraversalRun,
    WccRun,
};
use graphr_core::Metrics;
use graphr_graph::GraphHandle;

/// What to run — one variant per evaluated application (plus the WCC
/// extension).
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// PageRank (parallel-MAC pattern, §4.1).
    PageRank(PageRankOptions),
    /// One SpMV pass (parallel-MAC pattern).
    Spmv(SpmvOptions),
    /// BFS from a source (parallel add-op, §4.2).
    Bfs(TraversalOptions),
    /// SSSP from a source (parallel add-op).
    Sssp(TraversalOptions),
    /// Weakly-connected components (label propagation extension).
    Wcc,
    /// Collaborative filtering; the graph handle must carry bipartite
    /// dimensions.
    Cf(CfOptions),
}

impl JobSpec {
    /// Short application name (as used in job files and reports).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            JobSpec::PageRank(_) => "pagerank",
            JobSpec::Spmv(_) => "spmv",
            JobSpec::Bfs(_) => "bfs",
            JobSpec::Sssp(_) => "sssp",
            JobSpec::Wcc => "wcc",
            JobSpec::Cf(_) => "cf",
        }
    }
}

/// One unit of work: a graph and an application. How it runs (the
/// architectural configuration, disk, cluster and trace sink) is the
/// session's.
#[derive(Debug, Clone)]
pub struct Job {
    /// The registered graph to run on.
    pub graph: GraphHandle,
    /// The application and its options.
    pub spec: JobSpec,
}

impl Job {
    /// A job of `spec` on `graph`.
    #[must_use]
    pub fn new(graph: GraphHandle, spec: JobSpec) -> Self {
        Job { graph, spec }
    }

    /// Whether this job's application can ride a fused multi-source wave
    /// at all: only the parallel-add-op traversals (BFS, SSSP, WCC) map
    /// onto frontier lanes. PageRank/SpMV/CF always run alone.
    #[must_use]
    pub fn is_fusable(&self) -> bool {
        matches!(self.spec, JobSpec::Bfs(_) | JobSpec::Sssp(_) | JobSpec::Wcc)
    }

    /// Whether `other` may share one fused run with this job: both must
    /// be fusable, on the same graph, running the same application with
    /// the same non-source options. Only the source vertex may differ —
    /// that is what the lanes carry.
    #[must_use]
    pub fn fusable_with(&self, other: &Job) -> bool {
        let same_spec = match (&self.spec, &other.spec) {
            (JobSpec::Bfs(a), JobSpec::Bfs(b)) | (JobSpec::Sssp(a), JobSpec::Sssp(b)) => {
                a.max_iterations == b.max_iterations && a.spec == b.spec
            }
            (JobSpec::Wcc, JobSpec::Wcc) => true,
            _ => false,
        };
        same_spec && self.is_fusable() && self.graph.id() == other.graph.id()
    }
}

/// The application-specific result of a completed job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    /// PageRank / SpMV result.
    Scalar(ScalarRun),
    /// BFS / SSSP result.
    Traversal(TraversalRun),
    /// WCC result.
    Wcc(WccRun),
    /// CF result.
    Cf(CfRun),
}

impl JobOutput {
    /// The simulated-hardware accounting of the run.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        match self {
            JobOutput::Scalar(r) => &r.metrics,
            JobOutput::Traversal(r) => &r.metrics,
            JobOutput::Wcc(r) => &r.metrics,
            JobOutput::Cf(r) => &r.metrics,
        }
    }

    /// One line summarising the functional result.
    #[must_use]
    pub fn summary(&self) -> String {
        match self {
            JobOutput::Scalar(r) => format!(
                "{} values, converged: {}, Σ = {:.6}",
                r.values.len(),
                r.converged,
                r.values.iter().sum::<f64>()
            ),
            JobOutput::Traversal(r) => {
                let reached = r.distances.iter().filter(|d| d.is_some()).count();
                format!("{} of {} vertices reached", reached, r.distances.len())
            }
            JobOutput::Wcc(r) => format!(
                "{} components over {} vertices",
                r.num_components,
                r.labels.len()
            ),
            JobOutput::Cf(r) => format!(
                "rmse {:.4} → {:.4} over {} epochs",
                r.rmse_history.first().copied().unwrap_or(f64::NAN),
                r.rmse_history.last().copied().unwrap_or(f64::NAN),
                r.rmse_history.len()
            ),
        }
    }
}

/// A completed job: its output plus service-level accounting.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Application name.
    pub app: &'static str,
    /// Name of the graph the job ran on.
    pub graph: String,
    /// The functional result and simulated metrics.
    pub output: JobOutput,
    /// Host wall-clock spent executing the job.
    pub wall: Duration,
    /// Preprocessed-graph cache hits this job scored (nonzero means the
    /// tiler was skipped at least once).
    pub cache_hits: u64,
    /// Preprocessed-graph cache misses this job caused (each one ran the
    /// tiler and built a plan skeleton).
    pub cache_misses: u64,
}

/// The derived quantities both report forms present, computed once in
/// [`JobReport::derived`] so the text rendering and the JSON form can
/// never drift apart.
struct ReportDerived {
    /// Subgraphs the plans named (processed + streamed-but-inactive).
    subgraphs_planned: u64,
    /// Edges streamed from memory ReRAM, from the byte counter.
    edges_streamed: u64,
    /// Frontier-mask words the planner popcounted across all plans.
    mask_words: u64,
    /// Chunk spans the planner skipped wholesale via the mask's summary
    /// level without touching their payload words.
    summary_skips: u64,
    /// Driver-supplied delta words `plan_for_delta` consumed in place of
    /// full mask re-scans.
    delta_words: u64,
    /// `Some(true)` when the overlapped disk time dominates compute;
    /// `None` when no disk model priced the job (or the per-node overlap
    /// was composed into a cluster total instead).
    disk_bound: Option<bool>,
    /// `Some(true)` when the exchange time dominates the bottleneck
    /// node's compute; `None` off-cluster.
    network_bound: Option<bool>,
    /// The full bottleneck attribution (dominant resource, utilization
    /// and overlap-efficiency fractions), classified once from the
    /// metrics — the `bound:` row and the JSON `bottleneck` object.
    bottleneck: BottleneckReport,
}

impl JobReport {
    /// Edges the job's scans streamed from memory ReRAM (cumulative across
    /// iterations), derived from the byte counter.
    #[must_use]
    pub fn edges_streamed(&self) -> u64 {
        self.output.metrics().events.bytes_streamed / graphr_graph::BYTES_PER_EDGE
    }

    /// The shared derived quantities (single source of truth for
    /// [`JobReport::render`] and [`JobReport::to_json`]).
    fn derived(&self) -> ReportDerived {
        let m = self.output.metrics();
        let ev = &m.events;
        ReportDerived {
            subgraphs_planned: ev.subgraphs_processed + ev.subgraphs_skipped_inactive,
            edges_streamed: self.edges_streamed(),
            mask_words: m.plan.mask_words,
            summary_skips: m.plan.summary_skips,
            delta_words: m.plan.delta_words,
            disk_bound: (m.disk.is_active() && !m.net.is_active())
                .then(|| m.disk.is_disk_bound(m.total_time())),
            network_bound: m
                .net
                .is_active()
                .then(|| m.net.is_network_bound(m.total_time() - m.net.time)),
            bottleneck: BottleneckReport::classify(m),
        }
    }

    /// Bottleneck attribution of the run: which resource (compute, disk,
    /// network) bounds it, with per-resource utilization fractions. The
    /// same classification the `bound:` report row and the JSON
    /// `bottleneck` object carry.
    #[must_use]
    pub fn bottleneck(&self) -> BottleneckReport {
        self.derived().bottleneck
    }

    /// Renders the standard multi-line report block. The `plan:` line
    /// tells the whole planning story in one row: the pruning split
    /// (subgraphs/edges planned vs pruned), the incremental planner's
    /// reuse counters (delta patches vs full rebuilds, units reused,
    /// host planning time), and the session's skeleton-cache traffic.
    /// The `frontier:` line tells the mask story: how many mask words the
    /// planner actually popcounted, how many chunk spans the hierarchical
    /// summary let it skip wholesale, and how many driver-supplied delta
    /// words replaced full mask re-scans.
    /// Jobs that ran under a disk model gain a `disk:` line with the
    /// plan-aware out-of-core breakdown: bytes loaded vs seeked past,
    /// disk time vs compute time, and the double-buffered (per-iteration
    /// overlapped) total. Jobs that ran on a multi-node cluster gain a
    /// `net:` line with the plan-aware interconnect breakdown: property
    /// bytes exchanged, exchange time vs the bottleneck node's compute,
    /// and the composed cluster total.
    /// Every report ends with a `bound:` line — the bottleneck
    /// attribution of [`BottleneckReport::classify`]: which resource
    /// bounds the run, each active resource's utilization of the
    /// effective wall-clock, and how much of the possible overlap the
    /// run realized.
    #[must_use]
    pub fn render(&self) -> String {
        let m = self.output.metrics();
        let ev = &m.events;
        let d = self.derived();
        let subgraphs_planned = d.subgraphs_planned;
        let streamed = d.edges_streamed;
        let mut report = format!(
            "{} on {}\n  result:     {}\n  sim time:   {} over {} iterations\n  sim energy: {}\n  events:     {} subgraphs, {} edges loaded, {:.1}% slots skipped\n  plan:       {} subgraphs planned / {} pruned; {} edges streamed / {} pruned; {} delta patches / {} rebuilds, {} units reused, planning {} (cache: {} hits / {} misses)\n  frontier:   {} mask words scanned, {} summary skips, {} delta words",
            self.app,
            self.graph,
            self.output.summary(),
            m.total_time(),
            m.iterations,
            m.total_energy(),
            ev.subgraphs_processed,
            ev.edges_loaded,
            m.skip_fraction() * 100.0,
            subgraphs_planned,
            ev.subgraphs_pruned,
            streamed,
            ev.edges_pruned,
            m.plan.delta_patches,
            m.plan.full_rebuilds,
            m.plan.units_reused,
            m.plan.time,
            self.cache_hits,
            self.cache_misses,
            d.mask_words,
            d.summary_skips,
            d.delta_words,
        );
        if let [lane] = m.lanes.as_slice() {
            // Traversal reports carry the query's own attribution row —
            // under a fused wave this is the only per-query accounting
            // (the machine-level counters above are the wave's totals).
            report.push_str(&format!(
                "\n  query:      {} iterations, frontier Σ {} / peak {}, {} settled",
                lane.iterations, lane.frontier_total, lane.frontier_peak, lane.settled,
            ));
        }
        if m.disk.is_active() {
            let dc = &m.disk;
            // Runs under a pipelined disk model (`*-pipe`) carry the
            // read-ahead accounting; prefetch-free runs keep the legacy
            // row byte-for-byte.
            let prefetch = if dc.bytes_prefetched > 0 {
                format!(
                    "; prefetch: {} KiB read ahead / {} hits / {} KiB wasted, demand {} of disk {}",
                    dc.bytes_prefetched / 1024,
                    dc.prefetch_hits,
                    dc.prefetch_wasted / 1024,
                    dc.demand_time,
                    dc.time,
                )
            } else {
                String::new()
            };
            if m.net.is_active() {
                // On a cluster, the disk counters are sums over nodes:
                // comparing them against the composed cluster wall-clock
                // (or printing the summed per-node overlap as a total)
                // would mislead — the composed total including each
                // node's disk overlap is the net line's cluster total.
                report.push_str(&format!(
                    "\n  disk:       {} KiB loaded / {} blocks loaded / {} seeked past (summed over cluster nodes); disk {} across nodes, per-node overlap composed into the cluster total below{prefetch}",
                    dc.bytes_loaded / 1024,
                    dc.blocks_loaded,
                    dc.blocks_seeked,
                    dc.time,
                ));
            } else {
                report.push_str(&format!(
                    "\n  disk:       {} KiB loaded / {} blocks loaded / {} seeked past; disk {} vs compute {} → {}-bound, overlapped {}{prefetch}",
                    dc.bytes_loaded / 1024,
                    dc.blocks_loaded,
                    dc.blocks_seeked,
                    dc.demand_pressure(),
                    m.total_time(),
                    if d.disk_bound == Some(true) {
                        "disk"
                    } else {
                        "compute"
                    },
                    dc.overlapped,
                ));
            }
        }
        if m.net.is_active() {
            let net = &m.net;
            report.push_str(&format!(
                "\n  net:        {} KiB exchanged over {} exchanges; exchange {} vs bottleneck compute {} → {}-bound, cluster total {}",
                net.bytes_exchanged / 1024,
                net.exchanges,
                net.time,
                m.total_time() - net.time,
                if d.network_bound == Some(true) {
                    "network"
                } else {
                    "compute"
                },
                net.overlapped,
            ));
        }
        report.push_str(&format!("\n  bound:      {}", d.bottleneck.summary()));
        report.push_str(&format!(
            "\n  host wall:  {:.3} ms (tiler {})",
            self.wall.as_secs_f64() * 1e3,
            if self.cache_hits > 0 { "warm" } else { "cold" },
        ));
        report
    }

    /// The machine-readable form of the report: one JSON object carrying
    /// the same facts as [`JobReport::render`] — result summary, full
    /// [`Metrics`] (via [`Metrics::to_json`]), the derived planning/IO
    /// quantities, and the service-level accounting. `host_wall_ms` and
    /// the metrics' `plan.host_time_ns` are the only host-measured
    /// fields.
    #[must_use]
    pub fn to_json(&self) -> String {
        let d = self.derived();
        let opt_bool = |b: Option<bool>| b.map_or("null".to_string(), |v| v.to_string());
        let mut out = String::new();
        let mut obj = JsonObject::open(&mut out);
        obj.str("app", self.app)
            .str("graph", &self.graph)
            .str("result", &self.output.summary())
            .raw("subgraphs_planned", d.subgraphs_planned)
            .raw("edges_streamed", d.edges_streamed);
        let mut frontier = JsonObject::open(obj.key("frontier"));
        frontier
            .raw("mask_words", d.mask_words)
            .raw("summary_skips", d.summary_skips)
            .raw("delta_words", d.delta_words);
        frontier.close();
        obj.raw("disk_bound", opt_bool(d.disk_bound))
            .raw("network_bound", opt_bool(d.network_bound))
            .raw("bottleneck", d.bottleneck.to_json())
            .raw("cache_hits", self.cache_hits)
            .raw("cache_misses", self.cache_misses)
            .raw("host_wall_ms", self.wall.as_secs_f64() * 1e3)
            .raw("metrics", self.output.metrics().to_json());
        obj.close();
        out
    }
}

impl fmt::Display for JobReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}
