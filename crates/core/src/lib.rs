//! The GraphR accelerator model — the primary contribution of *GraphR:
//! Accelerating Graph Processing Using ReRAM* (HPCA 2018).
//!
//! A GraphR node couples **memory ReRAM** (holding the graph in preprocessed
//! coordinate-list order) with **graph engines** (GEs): meshes of small
//! ReRAM crossbars that execute sparse matrix–vector multiplication in the
//! analog domain, plus sALUs for the reductions crossbars cannot do. This
//! crate implements the whole stack:
//!
//! * [`config`] — the architectural parameter set (§5.2: 8×8 crossbars,
//!   32 per GE, 64 GEs) and its derived geometry,
//! * [`preprocess`] — §3.4's edge-list ordering: the global-order-ID
//!   formulas and the tiler that groups edges into blocks → subgraphs →
//!   crossbar tiles,
//! * [`engine`] — graph engine components: bit-sliced crossbar tiles,
//!   sALU, and the RegI/RegO register files,
//! * [`program`] — the vertex-program abstraction of Figure 6 and the five
//!   evaluated applications (PageRank, SpMV, BFS, SSSP, collaborative
//!   filtering) expressed in the paper's two mapping patterns
//!   (parallel MAC, §4.1; parallel add-op, §4.2),
//! * [`exec`] — the streaming-apply execution model (§3.3, column- or
//!   row-major) with empty-subgraph skipping and active-vertex tracking,
//!   built around a plan/execute split: [`exec::plan::ScanPlan`]s —
//!   frontier-pruned through the tiler's source-range index — describe
//!   exactly which strips, block rows and subgraphs a scan streams,
//! * [`outofcore`] — the plan-aware out-of-core disk model (Figure 9's
//!   workflow): each iteration's [`exec::plan::ScanPlan`] becomes an
//!   [`outofcore::IoPlan`] — planned spans load sequentially, pruned
//!   blocks are seeked past — overlapped against compute per iteration,
//! * [`multinode`] — the §3.1 scale-out (declared future work,
//!   implemented): [`multinode::ClusterExecutor`] shards every scan plan
//!   by destination-strip ownership across simulated GraphR nodes and
//!   charges the plan-aware per-iteration property exchange into
//!   [`metrics::NetCounters`],
//! * [`sim`] — the top-level façade: run an algorithm on a graph, get the
//!   algorithm result plus a full time/energy [`metrics::Metrics`] report,
//! * [`trace`] — run telemetry: per-iteration [`trace::TraceEvent`]s on
//!   the simulated clock, collected by a [`trace::TraceSink`] any engine
//!   or driver emits into, exportable as JSONL or a Chrome/Perfetto
//!   trace-event timeline,
//! * [`stats`] — deterministic service-level statistics: the
//!   integer-state log₂ [`stats::Histogram`] (exact p50/p95/p99/max) and
//!   counter/gauge values, collected into a [`stats::StatsRegistry`]
//!   with Prometheus text and JSON expositions,
//! * [`analyze`] — bottleneck attribution:
//!   [`analyze::BottleneckReport::classify`] names the resource that
//!   bounds a run (compute, disk, or network) with per-resource
//!   utilization and overlap-efficiency fractions, derived purely from
//!   the simulated [`metrics::Metrics`].
//!
//! # Examples
//!
//! ```
//! use graphr_core::{GraphRConfig, sim};
//! use graphr_graph::generators::rmat::Rmat;
//!
//! let graph = Rmat::new(256, 1024).seed(1).generate();
//! let config = GraphRConfig::builder().build()?;
//! let run = sim::run_pagerank(&graph, &config, &sim::PageRankOptions::default())?;
//! assert!(run.metrics.total_time().as_nanos() > 0.0);
//! assert!((run.values.iter().sum::<f64>() - 1.0).abs() < 0.05);
//! # Ok::<(), graphr_core::sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod config;
pub mod engine;
pub mod exec;
pub mod json;
pub mod metrics;
pub mod multinode;
pub mod outofcore;
pub mod preprocess;
pub mod program;
pub mod sim;
pub mod stats;
pub mod trace;

pub use config::{ConfigError, Fidelity, GraphRConfig, StreamingOrder};
pub use metrics::Metrics;
pub use preprocess::tiler::TiledGraph;
