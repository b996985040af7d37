//! Job runtime and analytics service layer over the GraphR simulator
//! stack.
//!
//! The simulator in `graphr-core` is exact, and its one scan engine,
//! [`StreamingExecutor`](graphr_core::exec::StreamingExecutor), already
//! shards every plan's destination strips over a worker count (the
//! paper's inter-subgraph GE parallelism, §3.3, mapped onto host threads)
//! with bit-identical results at any count. But each `sim::run_*` call
//! preprocesses its graph from scratch. This crate turns that stack into
//! a service:
//!
//! * [`session::Session`] — a long-lived, thread-safe query session: a
//!   preprocessed-graph cache keyed by *(graph id, tiling geometry,
//!   streaming order)* with hit/miss counters, so repeated queries skip
//!   the §3.4 tiler and reuse the cached plan skeleton plus the
//!   incremental planner's graph-derived index (each engine gets a
//!   fresh `Planner` stamped from it — frontier-delta re-planning
//!   without re-walking the span table); one worker budget
//!   ([`Session::with_threads`](session::Session::with_threads)) for
//!   every engine; batched multi-job submission; and the execution
//!   settings every job runs under. A [`Job`] is only a graph and a
//!   [`JobSpec`]; how it runs is the session's:
//!   * an optional out-of-core disk model
//!     ([`Session::with_disk`](session::Session::with_disk)) under which
//!     every scan's plan also prices its disk loading (plan-aware and
//!     per-iteration — see `graphr_core::outofcore`);
//!   * an optional cluster
//!     ([`Session::with_cluster`](session::Session::with_cluster)) under
//!     which every scan plan is sharded by destination-strip ownership
//!     across simulated GraphR nodes, with the plan-aware property
//!     exchange charged into `Metrics::net` (see `graphr_core::multinode`);
//!   * an optional telemetry sink
//!     ([`Session::with_trace`](session::Session::with_trace)) collecting
//!     every run's per-iteration trace events on the simulated clock,
//!     exportable as JSONL or a Chrome/Perfetto timeline (see
//!     `graphr_core::trace`).
//!
//!   Every submission reaches one job runner that executes a *wave*:
//!   [`Session::submit`](session::Session::submit) is a one-job wave,
//!   so a lone BFS/SSSP/WCC query is the one-lane case of the fused
//!   traversal loop.
//! * [`serve`] — the `graphr-serve` scheduler on top of the session: a
//!   bounded FIFO query queue with admission control whose
//!   [`Server::drain`](serve::Server::drain) coalesces compatible queued
//!   traversal queries into **fused waves** — one frontier lane per
//!   query, one scan of each iteration's union plan for all of them
//!   ([`Session::submit_fused`](session::Session::submit_fused)), with
//!   per-query attribution and answers bit-identical to solo runs;
//!   [`ServeConfig::max_lanes`](serve::ServeConfig::max_lanes) caps a
//!   wave's width (`1` runs every query alone).
//! * [`pool`] — the scoped worker pool (re-exported from
//!   `graphr_core::exec::pool`), and [`ParallelExecutor`], a
//!   constructor kept only for source compatibility.
//! * [`job`] — [`JobSpec`] covers all five evaluated
//!   applications (PageRank, SpMV, BFS, SSSP, CF) plus the WCC extension;
//!   [`JobReport`] carries the functional result, the
//!   simulated time/energy, and service-level accounting (including
//!   plan-pruning and cache statistics).
//! * `graphr-run` (this crate's binary) — runs a job file end-to-end and
//!   prints the metrics reports; see the repository README for the file
//!   format.
//!
//! # Examples
//!
//! ```
//! use graphr_core::GraphRConfig;
//! use graphr_core::sim::PageRankOptions;
//! use graphr_graph::GraphHandle;
//! use graphr_graph::generators::rmat::Rmat;
//! use graphr_runtime::{Job, JobSpec, Session};
//!
//! let config = GraphRConfig::builder()
//!     .crossbar_size(4)
//!     .crossbars_per_ge(8)
//!     .num_ges(2)
//!     .build()?;
//! let session = Session::new(config);
//! let graph = GraphHandle::new("demo", Rmat::new(256, 1500).seed(7).generate());
//! let job = Job::new(graph, JobSpec::PageRank(PageRankOptions::default()));
//!
//! let cold = session.submit(&job)?;
//! let warm = session.submit(&job)?; // same tiling, served from cache
//! assert_eq!(cold.output, warm.output);
//! assert!(warm.cache_hits > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
pub mod parallel;
pub mod pool;
pub mod serve;
pub mod session;

pub use job::{Job, JobOutput, JobReport, JobSpec};
pub use parallel::ParallelExecutor;
pub use serve::{AdmissionError, QueryResult, ServeConfig, ServeLatency, ServeStats, Server};
pub use session::{CacheStats, GraphVariant, RuntimeError, Session};
