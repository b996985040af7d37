//! Top-level simulation drivers: one function per evaluated application.
//!
//! Each driver preprocesses the graph (§3.4), builds a streaming executor,
//! runs the algorithm's iteration loop with the paper's mapping pattern,
//! and returns the *functional result* (computed through the emulated
//! fixed-point/analog datapath) together with full [`Metrics`].
//!
//! The generic `run_*_with` drivers thread an optional out-of-core disk
//! model through the loop: attach one to the engine
//! ([`ScanEngine::set_disk`], or the executors' `with_disk` builders) and
//! every per-iteration plan the driver executes also charges its disk
//! loading, with each `end_iteration` closing that iteration's
//! disk-vs-compute overlap window (see [`crate::outofcore`]).
//!
//! They also thread run telemetry: when the engine carries a
//! [`TraceHandle`] (see [`ScanEngine::set_trace`]), each driver emits one
//! [`TraceData::Iteration`](crate::trace::TraceData) snapshot
//! per algorithm iteration — the frontier size plus the *delta* of every
//! counter family since the previous snapshot — through an [`IterTracer`].
//! Tracing only observes the engine's [`Metrics`]; a traced run computes
//! bit-identical results and accounting to an untraced one.
//!
//! Fixed-point formats are per-algorithm, as they would be in a real
//! deployment of the architecture:
//!
//! | algorithm | matrix (conductance) format | register format |
//! |---|---|---|
//! | PageRank | Q1.15 (`r/outdeg ≤ r < 1`) | Q10.6 on ranks scaled by `|V|` |
//! | SpMV | Q8.8 (`w/outdeg ≤ 64`) | Q8.8 |
//! | BFS/SSSP | Q16.0 (integer labels — exact) | same |
//! | CF | Q4.12, differential (signed errors) | Q4.12 |

use std::error::Error;
use std::fmt;

use graphr_graph::EdgeList;
use graphr_units::FixedSpec;

use crate::config::{ConfigError, GraphRConfig};
use crate::exec::lanes::{LaneFrontier, MAX_LANES};
use crate::exec::mask::{FrontierDelta, FrontierMask};
use crate::exec::streaming::{EdgeValueFn, StreamingExecutor};
use crate::exec::ScanEngine;
use crate::metrics::{LaneCounters, Metrics};
use crate::preprocess::tiler::TiledGraph;
use crate::trace::{IterTracer, TraceData, TraceHandle};

/// Errors from the simulation drivers.
#[derive(Debug)]
pub enum SimError {
    /// The architectural configuration or graph geometry is invalid.
    Config(ConfigError),
    /// An edge weight is unusable for the algorithm (e.g. SSSP needs
    /// weights ≥ 1 so they stay nonzero in the integer format).
    BadWeight {
        /// Source of the offending edge.
        src: u32,
        /// Destination of the offending edge.
        dst: u32,
        /// The weight found.
        weight: f32,
    },
    /// The requested source vertex does not exist.
    BadSource {
        /// The requested source.
        source: u32,
        /// The graph's vertex count.
        num_vertices: usize,
    },
    /// Bipartite dimensions do not match the graph.
    BadBipartite {
        /// Expected vertex count (`users + items`).
        expected: usize,
        /// The graph's vertex count.
        got: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "{e}"),
            SimError::BadWeight { src, dst, weight } => write!(
                f,
                "edge ({src}, {dst}) weight {weight} unusable for this algorithm"
            ),
            SimError::BadSource {
                source,
                num_vertices,
            } => write!(
                f,
                "source vertex {source} out of range for {num_vertices} vertices"
            ),
            SimError::BadBipartite { expected, got } => write!(
                f,
                "bipartite dimensions expect {expected} vertices, graph has {got}"
            ),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

/// Result of a scalar-valued run (PageRank, SpMV).
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarRun {
    /// Final per-vertex values (ranks for PageRank, products for SpMV).
    pub values: Vec<f64>,
    /// Whether the tolerance was met before the iteration cap.
    pub converged: bool,
    /// Full accounting.
    pub metrics: Metrics,
}

/// Result of a traversal run (BFS, SSSP).
#[derive(Debug, Clone, PartialEq)]
pub struct TraversalRun {
    /// Distance labels; `None` = unreachable (label still at the reserved
    /// maximum `M`).
    pub distances: Vec<Option<f64>>,
    /// Full accounting.
    pub metrics: Metrics,
}

/// Result of a collaborative-filtering run.
#[derive(Debug, Clone, PartialEq)]
pub struct CfRun {
    /// Training RMSE after each epoch.
    pub rmse_history: Vec<f64>,
    /// Full accounting.
    pub metrics: Metrics,
}

// ---------------------------------------------------------------- PageRank

/// PageRank options (Figure 13's program).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankOptions {
    /// Damping factor `r`.
    pub damping: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Mean-absolute-delta convergence threshold (on ranks scaled by `|V|`).
    pub tolerance: f64,
    /// Conductance fixed-point format.
    pub matrix_spec: FixedSpec,
    /// Register (vertex property) fixed-point format, applied to ranks
    /// scaled by `|V|` so small per-vertex probabilities stay
    /// representable.
    pub register_spec: FixedSpec,
}

impl Default for PageRankOptions {
    fn default() -> Self {
        PageRankOptions {
            damping: 0.85,
            max_iterations: 50,
            tolerance: 1e-4,
            matrix_spec: FixedSpec::new(16, 15).expect("Q1.15 is valid"),
            register_spec: FixedSpec::new(16, 6).expect("Q10.6 is valid"),
        }
    }
}

/// Runs PageRank on GraphR (parallel-MAC pattern, §4.1).
///
/// The rank mass of vertices without out-edges (dangling mass) is
/// redistributed uniformly every iteration, which keeps `Σ rank = 1`;
/// Figure 13's literal program drops it.
///
/// # Errors
///
/// Returns [`SimError::Config`] for invalid configurations or an empty
/// graph.
pub fn run_pagerank(
    graph: &EdgeList,
    config: &GraphRConfig,
    opts: &PageRankOptions,
) -> Result<ScalarRun, SimError> {
    if graph.num_vertices() == 0 {
        return Err(SimError::Config(ConfigError::new(
            "pagerank requires at least one vertex",
        )));
    }
    let tiled = TiledGraph::preprocess(graph, config)?;
    let mut exec = StreamingExecutor::new(&tiled, config, opts.matrix_spec);
    run_pagerank_with(graph, &mut exec, opts)
}

/// Runs PageRank on any [`ScanEngine`] (the generic core of
/// [`run_pagerank`], also driven by `graphr-runtime`'s parallel
/// executor). The engine must have been built over a preprocessing of
/// `graph` with the algorithm's matrix format.
///
/// # Errors
///
/// Returns [`SimError::Config`] for an empty graph.
pub fn run_pagerank_with(
    graph: &EdgeList,
    exec: &mut dyn ScanEngine,
    opts: &PageRankOptions,
) -> Result<ScalarRun, SimError> {
    let n = graph.num_vertices();
    if n == 0 {
        return Err(SimError::Config(ConfigError::new(
            "pagerank requires at least one vertex",
        )));
    }
    let degrees = graph.out_degrees();
    let r = opts.damping;
    // Each source's programmed conductance r / outdeg, once per run; a
    // source without out-edges is never read.
    let conductance: Vec<f64> = degrees.iter().map(|&d| r / f64::from(d)).collect();
    let value = EdgeValueFn::per_source(&conductance);
    // Those sources' ranks are the dangling mass.
    let sinks: Vec<usize> = (0..n).filter(|&v| degrees[v] == 0).collect();

    // Ranks scaled by n: uniform start is exactly 1.0.
    let qr = opts.register_spec.quantizer();
    let mut s = vec![qr.quantize_value(1.0); n];
    let base = 1.0 - r;
    let mut converged = false;
    let trace = exec.trace().cloned();
    let mut tracer = IterTracer::new();
    while exec.metrics().iterations < opts.max_iterations {
        let y = exec.scan_mac(&value, &[&s]);
        let dangling = sinks.iter().map(|&v| s[v]).sum::<f64>() / n as f64;
        let mut delta = 0.0;
        for v in 0..n {
            // `y` already carries the damping factor (the programmed
            // conductance is r/outdeg); only the dangling mass still needs
            // damping here.
            let updated = qr.quantize_value(base + y[0][v] + r * dangling);
            delta += (updated - s[v]).abs();
            s[v] = updated;
        }
        exec.end_iteration();
        tracer.record(trace.as_ref(), exec.metrics(), None);
        if delta / n as f64 <= opts.tolerance {
            converged = true;
            break;
        }
    }
    let values = s.iter().map(|&sv| sv / n as f64).collect();
    let metrics = exec.take_metrics();
    tracer.finish(trace.as_ref(), &metrics);
    Ok(ScalarRun {
        values,
        converged,
        metrics,
    })
}

// ------------------------------------------------------------------- SpMV

/// SpMV options (Table 2's vertex program: one normalised pass).
#[derive(Debug, Clone, PartialEq)]
pub struct SpmvOptions {
    /// Input vector; `None` = all-ones.
    pub input: Option<Vec<f64>>,
    /// Optional source-activity mask (MAC-side pruning): when set, the
    /// scan executes the plan pruned to subgraphs holding at least one
    /// masked-active source. A pruned MAC plan is functionally exact only
    /// when the input vector is zero outside the mask, so the driver
    /// *validates* that precondition and rejects violating inputs — the
    /// sparse-input case where this legally skips most of the streamed
    /// order.
    pub source_mask: Option<FrontierMask>,
    /// Conductance format.
    pub matrix_spec: FixedSpec,
    /// Register format (applied to the output).
    pub register_spec: FixedSpec,
}

impl Default for SpmvOptions {
    fn default() -> Self {
        SpmvOptions {
            input: None,
            source_mask: None,
            matrix_spec: FixedSpec::new(16, 8).expect("Q8.8 is valid"),
            register_spec: FixedSpec::new(16, 8).expect("Q8.8 is valid"),
        }
    }
}

/// Runs one SpMV pass on GraphR (parallel-MAC pattern):
/// `y[v] = Σ_{u→v} x[u] / outdeg(u) · w(u, v)`.
///
/// # Errors
///
/// Returns [`SimError::Config`] for invalid configurations or an input
/// vector of the wrong length.
pub fn run_spmv(
    graph: &EdgeList,
    config: &GraphRConfig,
    opts: &SpmvOptions,
) -> Result<ScalarRun, SimError> {
    if let Some(v) = &opts.input {
        if v.len() != graph.num_vertices() {
            return Err(SimError::Config(ConfigError::new(format!(
                "input vector has {} entries, graph has {} vertices",
                v.len(),
                graph.num_vertices()
            ))));
        }
    }
    let tiled = TiledGraph::preprocess(graph, config)?;
    let mut exec = StreamingExecutor::new(&tiled, config, opts.matrix_spec);
    run_spmv_with(graph, &mut exec, opts)
}

/// Runs one SpMV pass on any [`ScanEngine`] (the generic core of
/// [`run_spmv`]). A [`SpmvOptions::source_mask`] makes the pass execute
/// the mask-pruned plan — legal (and validated) only for inputs that are
/// zero outside the mask.
///
/// # Errors
///
/// Returns [`SimError::Config`] for an input vector or source mask of the
/// wrong length, or an input that is nonzero at a masked-out vertex (a
/// pruned MAC plan would silently drop its contributions).
pub fn run_spmv_with(
    graph: &EdgeList,
    exec: &mut dyn ScanEngine,
    opts: &SpmvOptions,
) -> Result<ScalarRun, SimError> {
    let n = graph.num_vertices();
    let x = match &opts.input {
        Some(v) => {
            if v.len() != n {
                return Err(SimError::Config(ConfigError::new(format!(
                    "input vector has {} entries, graph has {n} vertices",
                    v.len()
                ))));
            }
            v.clone()
        }
        None => vec![1.0; n],
    };
    if let Some(mask) = &opts.source_mask {
        if mask.num_vertices() != n {
            return Err(SimError::Config(ConfigError::new(format!(
                "source mask ranges over {} vertices, graph has {n}",
                mask.num_vertices()
            ))));
        }
        if let Some(v) = (0..n).find(|&v| !mask.get(v) && x[v] != 0.0) {
            return Err(SimError::Config(ConfigError::new(format!(
                "source mask excludes vertex {v} whose input {} is nonzero; \
                 a pruned MAC plan is only exact for inputs that vanish \
                 outside the mask",
                x[v]
            ))));
        }
    }
    // The conductance w / outdeg is divided per edge as the scan fills:
    // w · (1 / outdeg) would round differently.
    let degrees: Vec<f64> = graph.out_degrees().into_iter().map(f64::from).collect();
    let value = EdgeValueFn::weight_over_source(&degrees);
    let qreg = opts.register_spec.quantizer();
    let qx: Vec<f64> = x.iter().map(|&v| qreg.quantize_value(v)).collect();
    let trace = exec.trace().cloned();
    let mut tracer = IterTracer::new();
    let plan = exec.plan(opts.source_mask.as_ref());
    let y = exec.scan_mac_planned(&plan, &value, &[&qx]);
    exec.end_iteration();
    let frontier = opts.source_mask.as_ref().map(|m| m.len() as u64);
    tracer.record(trace.as_ref(), exec.metrics(), frontier);
    let values = y[0].iter().map(|&v| qreg.quantize_value(v)).collect();
    let metrics = exec.take_metrics();
    tracer.finish(trace.as_ref(), &metrics);
    Ok(ScalarRun {
        values,
        converged: true,
        metrics,
    })
}

// ------------------------------------------------------------- BFS / SSSP

/// Options for the traversal algorithms (BFS, SSSP).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraversalOptions {
    /// Source vertex.
    pub source: u32,
    /// Iteration cap; `None` = `|V|` rounds (the Bellman-Ford bound).
    pub max_iterations: Option<usize>,
    /// Label format — Q16.0 keeps integer distances exact, making GraphR's
    /// BFS/SSSP results bit-identical to the gold references.
    pub spec: FixedSpec,
}

impl Default for TraversalOptions {
    fn default() -> Self {
        TraversalOptions {
            source: 0,
            max_iterations: None,
            spec: FixedSpec::new(16, 0).expect("Q16.0 is valid"),
        }
    }
}

impl TraversalOptions {
    /// The one-lane fused options running this single query.
    fn one_lane(&self) -> LaneTraversalOptions {
        LaneTraversalOptions {
            sources: vec![self.source],
            max_iterations: self.max_iterations,
            spec: self.spec,
        }
    }
}

/// Runs BFS on GraphR (parallel add-op, §4.2, with unit edge values).
///
/// # Errors
///
/// Returns [`SimError::BadSource`] for an out-of-range source and
/// [`SimError::Config`] for invalid configurations.
pub fn run_bfs(
    graph: &EdgeList,
    config: &GraphRConfig,
    opts: &TraversalOptions,
) -> Result<TraversalRun, SimError> {
    check_source(graph, opts)?;
    let tiled = TiledGraph::preprocess(graph, config)?;
    let mut exec = StreamingExecutor::new(&tiled, config, opts.spec);
    run_bfs_with(graph, &mut exec, opts)
}

/// Validates a traversal source before any preprocessing is paid for.
fn check_source(graph: &EdgeList, opts: &TraversalOptions) -> Result<(), SimError> {
    if (opts.source as usize) >= graph.num_vertices() {
        return Err(SimError::BadSource {
            source: opts.source,
            num_vertices: graph.num_vertices(),
        });
    }
    Ok(())
}

/// Runs BFS on any [`ScanEngine`] (the generic core of [`run_bfs`]): the
/// one-lane case of [`run_bfs_lanes_with`].
///
/// # Errors
///
/// Returns [`SimError::BadSource`] for an out-of-range source.
pub fn run_bfs_with(
    graph: &EdgeList,
    exec: &mut dyn ScanEngine,
    opts: &TraversalOptions,
) -> Result<TraversalRun, SimError> {
    run_bfs_lanes_with(graph, exec, &opts.one_lane()).map(LaneRun::into_single)
}

/// Runs SSSP on GraphR (parallel add-op, §4.2, Figure 16c).
///
/// # Errors
///
/// Returns [`SimError::BadWeight`] if any edge weight is below 1 (it would
/// vanish or go negative in the integer label format),
/// [`SimError::BadSource`] for an out-of-range source, and
/// [`SimError::Config`] for invalid configurations.
pub fn run_sssp(
    graph: &EdgeList,
    config: &GraphRConfig,
    opts: &TraversalOptions,
) -> Result<TraversalRun, SimError> {
    check_source(graph, opts)?;
    check_sssp_weights(graph)?;
    let tiled = TiledGraph::preprocess(graph, config)?;
    let mut exec = StreamingExecutor::new(&tiled, config, opts.spec);
    run_sssp_with(graph, &mut exec, opts)
}

/// Validates SSSP edge weights (≥ 1 so they stay nonzero in the integer
/// label format) before any preprocessing is paid for.
fn check_sssp_weights(graph: &EdgeList) -> Result<(), SimError> {
    for e in graph.iter() {
        if e.weight < 1.0 {
            return Err(SimError::BadWeight {
                src: e.src,
                dst: e.dst,
                weight: e.weight,
            });
        }
    }
    Ok(())
}

/// Runs SSSP on any [`ScanEngine`] (the generic core of [`run_sssp`]):
/// the one-lane case of [`run_sssp_lanes_with`].
///
/// # Errors
///
/// Returns [`SimError::BadWeight`] if any edge weight is below 1 and
/// [`SimError::BadSource`] for an out-of-range source.
pub fn run_sssp_with(
    graph: &EdgeList,
    exec: &mut dyn ScanEngine,
    opts: &TraversalOptions,
) -> Result<TraversalRun, SimError> {
    run_sssp_lanes_with(graph, exec, &opts.one_lane()).map(LaneRun::into_single)
}

// -------------------------------- Fused multi-source traversals (lanes)

/// Options for a fused multi-source traversal: one lane per source, all
/// advanced by a single scan of each iteration's union-planned edge
/// stream.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneTraversalOptions {
    /// One source vertex per lane (duplicates allowed; lanes stay
    /// independent). Must hold between 1 and [`MAX_LANES`] entries —
    /// callers with more queries split them into waves (see
    /// `graphr-serve`).
    pub sources: Vec<u32>,
    /// Iteration cap; `None` = `|V|` rounds (the Bellman-Ford bound).
    pub max_iterations: Option<usize>,
    /// Label format, as in [`TraversalOptions::spec`].
    pub spec: FixedSpec,
}

impl LaneTraversalOptions {
    /// Options for `sources` with the defaults of [`TraversalOptions`].
    #[must_use]
    pub fn new(sources: Vec<u32>) -> Self {
        LaneTraversalOptions {
            sources,
            max_iterations: None,
            spec: FixedSpec::new(16, 0).expect("Q16.0 is valid"),
        }
    }
}

/// Result of a fused multi-source traversal run (BFS, SSSP).
///
/// The machine-level [`Metrics`] account the *fused* run — one streamed
/// union plan per iteration serving every lane. Per-query attribution
/// lives in [`Metrics::lanes`]: row `q` holds exactly the counters an
/// independent run of query `q` would have produced.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneRun {
    /// Per-lane distance labels; `None` = unreachable.
    pub distances: Vec<Vec<Option<f64>>>,
    /// Fused accounting, with per-lane attribution in [`Metrics::lanes`].
    pub metrics: Metrics,
}

impl LaneRun {
    /// Narrows a one-lane run to the single query's result; the metrics
    /// (one attribution row) carry over unchanged.
    fn into_single(self) -> TraversalRun {
        let distances = self.distances.into_iter().next().expect("one lane");
        TraversalRun {
            distances,
            metrics: self.metrics,
        }
    }
}

/// Result of a fused connected-components run (K lanes of label
/// propagation; see [`run_wcc_lanes_with`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WccLaneRun {
    /// Per-lane component labels.
    pub labels: Vec<Vec<u32>>,
    /// Per-lane distinct-component counts.
    pub num_components: Vec<usize>,
    /// Fused accounting, with per-lane attribution in [`Metrics::lanes`].
    pub metrics: Metrics,
}

/// Validates a lane count for the fused drivers.
fn check_lane_count(k: usize) -> Result<(), SimError> {
    if k == 0 || k > MAX_LANES {
        return Err(SimError::Config(ConfigError::new(format!(
            "fused runs take 1..={MAX_LANES} lanes, got {k}"
        ))));
    }
    Ok(())
}

/// Runs K BFS queries fused on GraphR: one lane per source, every
/// iteration's union plan streamed once for all lanes.
///
/// # Errors
///
/// Returns [`SimError::BadSource`] for an out-of-range source,
/// [`SimError::Config`] for invalid configurations or a lane count
/// outside `1..=`[`MAX_LANES`].
pub fn run_bfs_lanes(
    graph: &EdgeList,
    config: &GraphRConfig,
    opts: &LaneTraversalOptions,
) -> Result<LaneRun, SimError> {
    check_lane_count(opts.sources.len())?;
    let tiled = TiledGraph::preprocess(graph, config)?;
    let mut exec = StreamingExecutor::new(&tiled, config, opts.spec);
    run_bfs_lanes_with(graph, &mut exec, opts)
}

/// Runs K BFS queries fused on any [`ScanEngine`] (the generic core of
/// [`run_bfs_lanes`]).
///
/// # Errors
///
/// Returns [`SimError::BadSource`] for an out-of-range source and
/// [`SimError::Config`] for a lane count outside `1..=`[`MAX_LANES`].
pub fn run_bfs_lanes_with(
    graph: &EdgeList,
    exec: &mut dyn ScanEngine,
    opts: &LaneTraversalOptions,
) -> Result<LaneRun, SimError> {
    run_add_op_lanes_with(graph, exec, opts, &|_w, _s, _d| 1.0, &|du, w| du + w)
}

/// Runs K SSSP queries fused on GraphR.
///
/// # Errors
///
/// As [`run_bfs_lanes`], plus [`SimError::BadWeight`] for weights below 1.
pub fn run_sssp_lanes(
    graph: &EdgeList,
    config: &GraphRConfig,
    opts: &LaneTraversalOptions,
) -> Result<LaneRun, SimError> {
    check_lane_count(opts.sources.len())?;
    check_sssp_weights(graph)?;
    let tiled = TiledGraph::preprocess(graph, config)?;
    let mut exec = StreamingExecutor::new(&tiled, config, opts.spec);
    run_sssp_lanes_with(graph, &mut exec, opts)
}

/// Runs K SSSP queries fused on any [`ScanEngine`] (the generic core of
/// [`run_sssp_lanes`]).
///
/// # Errors
///
/// As [`run_bfs_lanes_with`], plus [`SimError::BadWeight`] for weights
/// below 1.
pub fn run_sssp_lanes_with(
    graph: &EdgeList,
    exec: &mut dyn ScanEngine,
    opts: &LaneTraversalOptions,
) -> Result<LaneRun, SimError> {
    check_sssp_weights(graph)?;
    run_add_op_lanes_with(graph, exec, opts, &|w, _s, _d| f64::from(w), &|du, w| {
        du + w
    })
}

fn run_add_op_lanes_with(
    graph: &EdgeList,
    exec: &mut dyn ScanEngine,
    opts: &LaneTraversalOptions,
    value: &(dyn Fn(f32, u32, u32) -> f64 + Sync),
    combine: &(dyn Fn(f64, f64) -> f64 + Sync),
) -> Result<LaneRun, SimError> {
    let n = graph.num_vertices();
    let k = opts.sources.len();
    check_lane_count(k)?;
    for &source in &opts.sources {
        if (source as usize) >= n {
            return Err(SimError::BadSource {
                source,
                num_vertices: n,
            });
        }
    }
    let inf = opts.spec.max_value();
    let mut dists = vec![vec![inf; n]; k];
    let mut active = LaneFrontier::new(n, k);
    for (q, &source) in opts.sources.iter().enumerate() {
        dists[q][source as usize] = 0.0;
        active.set(q, source as usize);
    }
    let cap = opts.max_iterations.unwrap_or(n.max(1));
    let (dists, mut metrics) = run_lanes_loop(exec, value, combine, dists, active, cap);
    let distances: Vec<Vec<Option<f64>>> = dists
        .into_iter()
        .map(|d| {
            d.into_iter()
                .map(|x| if x >= inf { None } else { Some(x) })
                .collect()
        })
        .collect();
    for (lane, dist) in metrics.lanes.iter_mut().zip(&distances) {
        lane.settled = dist.iter().filter(|d| d.is_some()).count() as u64;
    }
    Ok(LaneRun { distances, metrics })
}

/// Runs K fused lanes of connected-components label propagation on
/// GraphR. WCC takes no source, so the lanes start (and stay) identical —
/// the point is serving K *queued queries* from one streamed run, with
/// each query getting its own attribution row.
///
/// # Errors
///
/// Returns [`SimError::Config`] for invalid configurations, an oversized
/// graph (see [`run_wcc`]), or a lane count outside `1..=`[`MAX_LANES`].
pub fn run_wcc_lanes(
    graph: &EdgeList,
    config: &GraphRConfig,
    k: usize,
) -> Result<WccLaneRun, SimError> {
    check_lane_count(k)?;
    let sym = symmetrised(graph);
    let tiled = TiledGraph::preprocess(&sym, config)?;
    let spec = FixedSpec::new(16, 0).expect("Q16.0 is valid");
    let mut exec = StreamingExecutor::new(&tiled, config, spec);
    run_wcc_lanes_with(graph, &mut exec, k)
}

/// Runs K fused WCC lanes on any [`ScanEngine`] (the generic core of
/// [`run_wcc_lanes`]). The engine must have been built over a
/// preprocessing of the [`symmetrised`] graph with a Q16.0 format.
///
/// # Errors
///
/// Returns [`SimError::Config`] for an oversized graph or a lane count
/// outside `1..=`[`MAX_LANES`].
pub fn run_wcc_lanes_with(
    graph: &EdgeList,
    exec: &mut dyn ScanEngine,
    k: usize,
) -> Result<WccLaneRun, SimError> {
    check_lane_count(k)?;
    let n = graph.num_vertices();
    let spec = FixedSpec::new(16, 0).expect("Q16.0 is valid");
    if n as f64 > spec.max_value() {
        return Err(SimError::Config(ConfigError::new(format!(
            "WCC labels vertices by id; {n} vertices exceed the 16-bit format"
        ))));
    }
    let value = |_w: f32, _s: u32, _d: u32| 1.0; // presence marker
    let combine = |du: f64, _w: f64| du; // forward the label unchanged
    let init: Vec<f64> = (0..n).map(|v| v as f64).collect();
    let dists = vec![init; k];
    let active = LaneFrontier::full(n, k);
    let (labels_f, mut metrics) = run_lanes_loop(exec, &value, &combine, dists, active, n.max(1));
    let labels: Vec<Vec<u32>> = labels_f
        .into_iter()
        .map(|l| l.iter().map(|&x| x as u32).collect())
        .collect();
    let num_components: Vec<usize> = labels
        .iter()
        .map(|l| {
            let mut distinct = l.clone();
            distinct.sort_unstable();
            distinct.dedup();
            distinct.len()
        })
        .collect();
    // "Settled" for label propagation = vertices relabelled below their
    // own id.
    for (lane, l) in metrics.lanes.iter_mut().zip(&labels) {
        lane.settled = l
            .iter()
            .enumerate()
            .filter(|&(v, &label)| (label as usize) < v)
            .count() as u64;
    }
    Ok(WccLaneRun {
        labels,
        num_components,
        metrics,
    })
}

/// The one add-op iteration loop, for single and fused traversals alike:
/// plans the *union* frontier, advances every lane through one
/// [`ScanEngine::scan_add_op_lanes_planned`] call per round, and recovers
/// per-lane attribution from the lane masks. One next-label buffer per
/// lane lives across rounds: a scan lowers a label only where it sets
/// that lane's `updated` bit, so copying back exactly those labels keeps
/// it equal to `dists` between rounds, and a round costs what its frontier
/// touches rather than `O(|V| · K)`. The first round plans from
/// the mask; every later round hands the planner the delta recorded while
/// advancing the frontier, so planning costs the flipped words, not a
/// walk of the whole mask or span table. A lane participates in a round
/// iff its pre-scan frontier is nonempty — the exact rounds an
/// independent run of that query executes, so its [`LaneCounters`] row
/// (and its [`TraceData::Lane`] event count) matches the independent
/// run's by construction.
fn run_lanes_loop(
    exec: &mut dyn ScanEngine,
    value: &(dyn Fn(f32, u32, u32) -> f64 + Sync),
    combine: &(dyn Fn(f64, f64) -> f64 + Sync),
    mut dists: Vec<Vec<f64>>,
    mut active: LaneFrontier,
    cap: usize,
) -> (Vec<Vec<f64>>, Metrics) {
    let n = active.num_vertices();
    let k = active.num_lanes();
    let value = EdgeValueFn::new(value);
    let trace = exec.trace().cloned();
    let mut tracer = IterTracer::new();
    let mut counters = vec![LaneCounters::default(); k];
    let mut delta: Option<FrontierDelta> = None;
    let mut frontiers = dists.clone();
    for round in 0..cap {
        let plan = match &delta {
            Some(d) => exec.plan_with_delta(active.union(), d),
            None => exec.plan(Some(active.union())),
        };
        // Bit `q` set iff lane `q` enters this round.
        let participating = (0..k)
            .filter(|&q| !active.lane_is_empty(q))
            .fold(0u64, |bits, q| bits | 1 << q);
        let mut updated = LaneFrontier::new(n, k);
        exec.scan_add_op_lanes_planned(
            &plan,
            &value,
            combine,
            &dists,
            &active,
            &mut frontiers,
            &mut updated,
        );
        exec.end_iteration();
        for v in updated.union().iter() {
            let mut lanes = updated.vertex_lanes(v);
            while lanes != 0 {
                let q = lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                dists[q][v] = frontiers[q][v];
            }
        }
        delta = Some(FrontierDelta::between(active.union(), updated.union()));
        active = updated;
        for (q, counter) in counters.iter_mut().enumerate() {
            counter.iterations += (participating >> q) & 1;
            let size = active.lane_len(q);
            counter.frontier_total += size;
            counter.frontier_peak = counter.frontier_peak.max(size);
        }
        let union_size = active.union().len() as u64;
        tracer.record(trace.as_ref(), exec.metrics(), Some(union_size));
        if let Some(trace) = &trace {
            for q in (0..k).filter(|&q| (participating >> q) & 1 == 1) {
                trace.emit(TraceData::Lane {
                    lane: q as u32,
                    iteration: round as u64,
                    frontier: active.lane_len(q),
                });
            }
        }
        if union_size == 0 {
            break;
        }
    }
    let mut metrics = exec.take_metrics();
    tracer.finish(trace.as_ref(), &metrics);
    // Attribution rows go in after the tracer: telemetry deltas never
    // see them.
    metrics.lanes = counters;
    (dists, metrics)
}

// -------------------------------------------------------------------- WCC

/// Result of a connected-components run.
#[derive(Debug, Clone, PartialEq)]
pub struct WccRun {
    /// Component label per vertex (smallest vertex id in the component).
    pub labels: Vec<u32>,
    /// Number of distinct components.
    pub num_components: usize,
    /// Full accounting.
    pub metrics: Metrics,
}

/// Runs weakly-connected components on GraphR — an *extension* application
/// demonstrating the generality claim (§3.5: GraphR accelerates any vertex
/// program in SpMV form). Label propagation in the parallel add-op pattern:
/// `processEdge` forwards the source's label (`combine(du, _w) = du`),
/// `reduce` is `min`, over the symmetrised graph.
///
/// # Errors
///
/// Returns [`SimError::Config`] if the graph has more vertices than the
/// 16-bit label format can name (the §3.2 data format caps labels at
/// `2^15 − 1`), or for invalid configurations.
pub fn run_wcc(graph: &EdgeList, config: &GraphRConfig) -> Result<WccRun, SimError> {
    let sym = symmetrised(graph);
    let tiled = TiledGraph::preprocess(&sym, config)?;
    let spec = FixedSpec::new(16, 0).expect("Q16.0 is valid");
    let mut exec = StreamingExecutor::new(&tiled, config, spec);
    run_wcc_with(graph, &mut exec)
}

/// Symmetrises a graph by adding every transposed edge — the
/// preprocessing step label-propagation algorithms (WCC) need before
/// tiling, split out so callers with preprocessed-graph caches can key on
/// it.
#[must_use]
pub fn symmetrised(graph: &EdgeList) -> EdgeList {
    let mut sym = graph.clone();
    for e in graph.transposed().iter() {
        sym.add_edge(*e).expect("transposed edges are in range");
    }
    sym
}

/// Runs WCC on any [`ScanEngine`] (the generic core of [`run_wcc`]): the
/// one-lane case of [`run_wcc_lanes_with`]. The engine must have been
/// built over a preprocessing of the [`symmetrised`] graph with a Q16.0
/// format.
///
/// # Errors
///
/// Returns [`SimError::Config`] if the graph has more vertices than the
/// 16-bit label format can name.
pub fn run_wcc_with(graph: &EdgeList, exec: &mut dyn ScanEngine) -> Result<WccRun, SimError> {
    let run = run_wcc_lanes_with(graph, exec, 1)?;
    Ok(WccRun {
        labels: run.labels.into_iter().next().expect("one lane"),
        num_components: run.num_components[0],
        metrics: run.metrics,
    })
}

// --------------------------------------------------------------------- CF

/// Collaborative-filtering options (batch gradient-descent matrix
/// factorisation — the SpMV-shaped formulation that maps onto crossbars;
/// §5.1 uses feature length 32 on Netflix).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfOptions {
    /// Latent feature length.
    pub features: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Gradient-descent learning rate.
    pub learning_rate: f64,
    /// L2 regularisation.
    pub regularization: f64,
    /// Factor-initialisation seed.
    pub seed: u64,
    /// Fixed-point format for factors and errors (signed → the driver
    /// forces differential tiles).
    pub spec: FixedSpec,
}

impl Default for CfOptions {
    fn default() -> Self {
        CfOptions {
            features: 32,
            epochs: 5,
            learning_rate: 0.1,
            regularization: 0.005,
            seed: 1,
            spec: FixedSpec::new(16, 12).expect("Q4.12 is valid"),
        }
    }
}

/// Runs collaborative filtering on GraphR.
///
/// Per epoch: errors `e_ui = r_ui − p_u·q_i` are formed by the sALUs while
/// streaming the rating tiles; the two gradient products `EᵀP` and `EQ` are
/// parallel-MAC scans (one tile-programming pass each, amortised over all
/// `F` feature vectors); the controller applies the degree-normalised
/// update `P += lr (deg⁻¹ E Q − λP)`, `Q += lr (deg⁻¹ Eᵀ P − λQ)` in fixed
/// point (normalising by each vertex's rating count keeps the step size
/// bounded for hot users/items — without it batch gradient descent
/// diverges on power-law popularity; the scaling is a diagonal the
/// controller applies during the register write-back).
///
/// # Errors
///
/// Returns [`SimError::BadBipartite`] if `users + items` does not match the
/// graph, and [`SimError::Config`] for invalid configurations.
pub fn run_cf(
    ratings: &EdgeList,
    users: usize,
    items: usize,
    config: &GraphRConfig,
    opts: &CfOptions,
) -> Result<CfRun, SimError> {
    let cf_config = cf_config_for(config)?;
    let tiled = TiledGraph::preprocess(ratings, &cf_config)?;
    let transposed = ratings.transposed();
    let tiled_t = TiledGraph::preprocess(&transposed, &cf_config)?;
    run_cf_with(ratings, users, items, &cf_config, opts, &mut |matrix| {
        let t = match matrix {
            CfMatrix::Ratings => &tiled,
            CfMatrix::Transposed => &tiled_t,
        };
        Box::new(StreamingExecutor::new(t, &cf_config, opts.spec))
    })
}

/// Which orientation of the ratings matrix a CF engine streams: `R` for
/// item-side gradients, `Rᵀ` for user-side gradients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CfMatrix {
    /// The ratings matrix `R` (users → items).
    Ratings,
    /// The transposed matrix `Rᵀ` (items → users).
    Transposed,
}

/// Derives the CF execution configuration from a base configuration:
/// signed errors need differential tiles.
///
/// # Errors
///
/// Returns [`SimError::Config`] if the geometry cannot accommodate
/// differential tiles.
pub fn cf_config_for(config: &GraphRConfig) -> Result<GraphRConfig, SimError> {
    let mut cf_config = config.clone();
    cf_config.sign_mode = graphr_reram::SignMode::Differential;
    if !cf_config
        .crossbars_per_ge
        .is_multiple_of(cf_config.arrays_per_tile())
    {
        return Err(SimError::Config(ConfigError::new(
            "crossbars_per_ge must accommodate differential tiles for CF",
        )));
    }
    Ok(cf_config)
}

/// Runs collaborative filtering on engines supplied per scan (the generic
/// core of [`run_cf`], also driven by `graphr-runtime`). `make_engine` is
/// called twice per epoch — once per [`CfMatrix`] orientation — and must
/// build engines over preprocessings of `R`/`Rᵀ` under [`cf_config_for`]'s
/// configuration (passed here as `config` for the controller's cost
/// charging).
///
/// # Errors
///
/// Returns [`SimError::BadBipartite`] if `users + items` does not match
/// the graph.
pub fn run_cf_with<'e>(
    ratings: &EdgeList,
    users: usize,
    items: usize,
    config: &GraphRConfig,
    opts: &CfOptions,
    make_engine: &mut dyn FnMut(CfMatrix) -> Box<dyn ScanEngine + 'e>,
) -> Result<CfRun, SimError> {
    if ratings.num_vertices() != users + items {
        return Err(SimError::BadBipartite {
            expected: users + items,
            got: ratings.num_vertices(),
        });
    }
    let cf_config = config;
    let n = users + items;
    let f = opts.features.max(1);
    let q = opts.spec.quantizer();

    // Deterministic small positive init (splitmix64), quantised.
    let mut state = opts.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next_init = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        0.2 + (z >> 11) as f64 / (1u64 << 53) as f64 * 0.4
    };
    let mut p: Vec<f64> = (0..users * f)
        .map(|_| q.quantize_value(next_init()))
        .collect();
    let mut qm: Vec<f64> = (0..items * f)
        .map(|_| q.quantize_value(next_init()))
        .collect();

    let out_deg = ratings.out_degrees();
    let in_deg = ratings.in_degrees();
    let mut metrics = Metrics::new();
    let mut rmse_history = Vec::with_capacity(opts.epochs);
    let mut trace: Option<TraceHandle> = None;
    let mut tracer = IterTracer::new();
    for _epoch in 0..opts.epochs {
        // Error closure: e(u, i) = rating − p_u · q_i, in fixed point.
        let p_ref = &p;
        let q_ref = &qm;
        let error_ui = move |w: f32, u: usize, i: usize| -> f64 {
            let pu = &p_ref[u * f..(u + 1) * f];
            let qi = &q_ref[i * f..(i + 1) * f];
            let pred: f64 = pu.iter().zip(qi).map(|(a, b)| a * b).sum();
            q.quantize_value(f64::from(w) - pred)
        };
        // Item-side gradients: y[i] = Σ_u e_ui · p_u[feat] over R.
        let value_r =
            |w: f32, src: u32, dst: u32| -> f64 { error_ui(w, src as usize, dst as usize - users) };
        let value_r = EdgeValueFn::new(&value_r);
        let p_cols: Vec<Vec<f64>> = (0..f)
            .map(|feat| {
                let mut col = vec![0.0; n];
                for u in 0..users {
                    col[u] = p[u * f + feat];
                }
                col
            })
            .collect();
        let p_col_refs: Vec<&[f64]> = p_cols.iter().map(Vec::as_slice).collect();
        let mut exec_r = make_engine(CfMatrix::Ratings);
        if trace.is_none() {
            trace = exec_r.trace().cloned();
        }
        let grad_q = exec_r.scan_mac(&value_r, &p_col_refs);
        exec_r.end_iteration();
        metrics.merge(&exec_r.take_metrics());
        // Each engine goes with its codes before the next one fills its own.
        drop(exec_r);

        // User-side gradients: y[u] = Σ_i e_ui · q_i[feat] over Rᵀ.
        let value_rt =
            |w: f32, src: u32, dst: u32| -> f64 { error_ui(w, dst as usize, src as usize - users) };
        let value_rt = EdgeValueFn::new(&value_rt);
        let q_cols: Vec<Vec<f64>> = (0..f)
            .map(|feat| {
                let mut col = vec![0.0; n];
                for i in 0..items {
                    col[users + i] = qm[i * f + feat];
                }
                col
            })
            .collect();
        let q_col_refs: Vec<&[f64]> = q_cols.iter().map(Vec::as_slice).collect();
        let mut exec_t = make_engine(CfMatrix::Transposed);
        let grad_p = exec_t.scan_mac(&value_rt, &q_col_refs);
        metrics.merge(&exec_t.take_metrics());
        drop(exec_t);

        // Controller update, quantised.
        let lr = opts.learning_rate;
        let reg = opts.regularization;
        let mut p_new = p.clone();
        for u in 0..users {
            let norm = f64::from(out_deg[u].max(1));
            for feat in 0..f {
                let g = grad_p[feat][u] / norm;
                let cur = p[u * f + feat];
                p_new[u * f + feat] = q.quantize_value(cur + lr * (g - reg * cur));
            }
        }
        let mut q_new = qm.clone();
        for i in 0..items {
            let norm = f64::from(in_deg[users + i].max(1));
            for feat in 0..f {
                let g = grad_q[feat][users + i] / norm;
                let cur = qm[i * f + feat];
                q_new[i * f + feat] = q.quantize_value(cur + lr * (g - reg * cur));
            }
        }
        p = p_new;
        qm = q_new;

        // Training RMSE (controller work: F MACs per rating, charged to the
        // sALUs which computed the errors during streaming anyway).
        let mut sq = 0.0;
        for e in ratings.iter() {
            let u = e.src as usize;
            let i = e.dst as usize - users;
            let pu = &p[u * f..(u + 1) * f];
            let qi = &qm[i * f..(i + 1) * f];
            let pred: f64 = pu.iter().zip(qi).map(|(a, b)| a * b).sum();
            let err = f64::from(e.weight) - pred;
            sq += err * err;
        }
        rmse_history.push((sq / ratings.num_edges().max(1) as f64).sqrt());
        // Charge the per-edge error formation: F sALU MACs per rating,
        // spread over all GEs' sALUs.
        let cost = &cf_config.cost;
        let ops = ratings.num_edges() as u64 * f as u64;
        metrics.energy.salu += cost.salu_energy(ops);
        metrics.events.salu_ops += ops;
        let t = cost.salu_latency(ops / cf_config.num_ges.max(1) as u64);
        metrics.elapsed += t;
        metrics.time_breakdown.apply += t;
        tracer.record(trace.as_ref(), &metrics, None);
    }
    tracer.finish(trace.as_ref(), &metrics);
    Ok(CfRun {
        rmse_history,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphr_graph::algorithms::bfs::bfs;
    use graphr_graph::algorithms::pagerank::{pagerank, PageRankParams};
    use graphr_graph::algorithms::spmv::spmv_vertex_program;
    use graphr_graph::algorithms::sssp::dijkstra;
    use graphr_graph::generators::bipartite::RatingMatrix;
    use graphr_graph::generators::rmat::Rmat;
    use graphr_graph::generators::structured::{cycle, grid, star};

    fn test_config() -> GraphRConfig {
        GraphRConfig::builder()
            .crossbar_size(4)
            .crossbars_per_ge(8)
            .num_ges(2)
            .build()
            .unwrap()
    }

    #[test]
    fn pagerank_uniform_on_cycle() {
        let run = run_pagerank(&cycle(8), &test_config(), &PageRankOptions::default()).unwrap();
        assert!(run.converged);
        for &v in &run.values {
            assert!((v - 0.125).abs() < 1e-3, "rank {v} should be ~1/8");
        }
        assert!(run.metrics.total_time().as_nanos() > 0.0);
        assert!(run.metrics.total_energy().as_joules() > 0.0);
    }

    #[test]
    fn pagerank_tracks_gold_ordering() {
        let g = Rmat::new(120, 700).seed(4).generate();
        let run = run_pagerank(&g, &test_config(), &PageRankOptions::default()).unwrap();
        let gold = pagerank(&g.to_csr(), &PageRankParams::default());
        // Quantised ranks should correlate strongly with gold: check that
        // the top-5 gold vertices all land in the sim's top-15.
        let top = |vals: &[f64], k: usize| -> Vec<usize> {
            let mut idx: Vec<usize> = (0..vals.len()).collect();
            idx.sort_by(|&a, &b| vals[b].total_cmp(&vals[a]));
            idx.truncate(k);
            idx
        };
        let gold_top = top(&gold.ranks, 5);
        let sim_top = top(&run.values, 15);
        for v in gold_top {
            assert!(sim_top.contains(&v), "gold top vertex {v} missing");
        }
        // Total mass stays near 1 despite quantisation.
        let total: f64 = run.values.iter().sum();
        assert!((total - 1.0).abs() < 0.05, "mass {total}");
    }

    #[test]
    fn spmv_matches_quantised_reference() {
        let g = Rmat::new(60, 250).seed(9).max_weight(8).generate();
        let opts = SpmvOptions::default();
        let run = run_spmv(&g, &test_config(), &opts).unwrap();
        let gold = spmv_vertex_program(&g.to_csr(), &vec![1.0; 60]);
        for (a, b) in run.values.iter().zip(&gold) {
            assert!((a - b).abs() < 0.1 + b.abs() * 0.02, "spmv {a} vs gold {b}");
        }
    }

    #[test]
    fn masked_spmv_matches_unmasked_and_prunes() {
        // A sparse input (zero outside the mask): the mask-pruned plan
        // must produce bit-identical values while legally skipping the
        // subgraphs no active source reaches.
        let g = Rmat::new(120, 600).seed(14).max_weight(8).generate();
        let dense: Vec<bool> = (0..120).map(|v| v % 11 == 0).collect();
        let mask = FrontierMask::from_slice(&dense);
        let input: Vec<f64> = (0..120)
            .map(|v| if dense[v] { (v % 5) as f64 * 0.5 } else { 0.0 })
            .collect();
        let unmasked = run_spmv(
            &g,
            &test_config(),
            &SpmvOptions {
                input: Some(input.clone()),
                ..SpmvOptions::default()
            },
        )
        .unwrap();
        let masked = run_spmv(
            &g,
            &test_config(),
            &SpmvOptions {
                input: Some(input),
                source_mask: Some(mask),
                ..SpmvOptions::default()
            },
        )
        .unwrap();
        assert_eq!(masked.values, unmasked.values);
        assert!(
            masked.metrics.events.subgraphs_pruned > 0,
            "the sparse mask must actually prune"
        );
        assert_eq!(unmasked.metrics.events.subgraphs_pruned, 0);
        assert!(masked.metrics.events.bytes_streamed < unmasked.metrics.events.bytes_streamed);
    }

    #[test]
    fn masked_spmv_rejects_nonzero_input_outside_mask() {
        let g = Rmat::new(40, 150).seed(2).generate();
        let mut mask = FrontierMask::new(40);
        mask.set(0);
        let err = run_spmv(
            &g,
            &test_config(),
            &SpmvOptions {
                input: Some(vec![1.0; 40]), // nonzero everywhere
                source_mask: Some(mask),
                ..SpmvOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SimError::Config(_)));
    }

    #[test]
    fn bfs_matches_gold_exactly() {
        for (g, src) in [
            (grid(5, 5), 0u32),
            (star(9), 0),
            (Rmat::new(80, 400).seed(3).generate(), 1),
        ] {
            let run = run_bfs(
                &g,
                &test_config(),
                &TraversalOptions {
                    source: src,
                    ..TraversalOptions::default()
                },
            )
            .unwrap();
            let gold = bfs(&g.to_csr(), src);
            let gold_f: Vec<Option<f64>> = gold.levels.iter().map(|l| l.map(f64::from)).collect();
            assert_eq!(run.distances, gold_f);
        }
    }

    #[test]
    fn sssp_matches_gold_exactly() {
        let g = Rmat::new(70, 350).seed(8).max_weight(32).generate();
        let run = run_sssp(&g, &test_config(), &TraversalOptions::default()).unwrap();
        let gold = dijkstra(&g.to_csr(), 0);
        assert_eq!(run.distances, gold.distances);
    }

    #[test]
    fn sssp_rejects_sub_unit_weights() {
        let mut g = EdgeList::new(2);
        g.add_edge(graphr_graph::Edge::new(0, 1, 0.25)).unwrap();
        let err = run_sssp(&g, &test_config(), &TraversalOptions::default()).unwrap_err();
        assert!(matches!(err, SimError::BadWeight { .. }));
    }

    #[test]
    fn traversal_rejects_bad_source() {
        let g = cycle(4);
        let err = run_bfs(
            &g,
            &test_config(),
            &TraversalOptions {
                source: 99,
                ..TraversalOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SimError::BadSource { .. }));
    }

    #[test]
    fn cf_rmse_decreases() {
        let m = RatingMatrix::new(40, 15, 600).seed(5).generate();
        let opts = CfOptions {
            features: 8,
            epochs: 6,
            ..CfOptions::default()
        };
        let run = run_cf(m.graph(), 40, 15, &test_config(), &opts).unwrap();
        assert_eq!(run.rmse_history.len(), 6);
        let first = run.rmse_history[0];
        let last = *run.rmse_history.last().unwrap();
        assert!(last < first, "rmse should drop: {first} → {last}");
        assert!(run.metrics.total_energy().as_joules() > 0.0);
    }

    #[test]
    fn wcc_matches_union_find_gold() {
        use graphr_graph::algorithms::wcc::wcc as gold_wcc;
        let g = Rmat::new(90, 200).seed(12).generate();
        let run = run_wcc(&g, &test_config()).unwrap();
        let gold = gold_wcc(&g);
        assert_eq!(run.labels, gold.labels);
        assert_eq!(run.num_components, gold.num_components);
        assert!(run.metrics.total_time().as_nanos() > 0.0);
    }

    #[test]
    fn wcc_rejects_oversized_graphs() {
        let g = EdgeList::new(40_000);
        let err = run_wcc(&g, &test_config()).unwrap_err();
        assert!(matches!(err, SimError::Config(_)));
    }

    #[test]
    fn cf_rejects_wrong_dimensions() {
        let m = RatingMatrix::new(10, 5, 50).seed(1).generate();
        let err = run_cf(m.graph(), 10, 4, &test_config(), &CfOptions::default()).unwrap_err();
        assert!(matches!(err, SimError::BadBipartite { .. }));
    }

    #[test]
    fn disabled_skip_forces_dense_traversal_plans() {
        // `skip_empty = false` models a controller with no index to seek
        // by (the §3.3 sparsity ablation): traversal drivers must fall
        // back to dense plans — same labels, strictly more streamed work.
        let g = Rmat::new(100, 500).seed(6).generate();
        let noskip_cfg = GraphRConfig::builder()
            .crossbar_size(4)
            .crossbars_per_ge(8)
            .num_ges(2)
            .skip_empty(false)
            .build()
            .unwrap();
        let dense = run_sssp(&g, &noskip_cfg, &TraversalOptions::default()).unwrap();
        assert_eq!(dense.metrics.events.subgraphs_pruned, 0);
        assert_eq!(dense.metrics.events.edges_pruned, 0);
        let pruned = run_sssp(&g, &test_config(), &TraversalOptions::default()).unwrap();
        assert_eq!(dense.distances, pruned.distances);
        assert!(dense.metrics.events.bytes_streamed > pruned.metrics.events.bytes_streamed);
        assert!(dense.metrics.elapsed > pruned.metrics.elapsed);
    }

    #[test]
    fn fused_bfs_matches_independent_runs() {
        let g = Rmat::new(80, 400).seed(3).generate();
        let cfg = test_config();
        let sources = vec![0u32, 5, 17, 17, 42];
        let fused = run_bfs_lanes(&g, &cfg, &LaneTraversalOptions::new(sources.clone())).unwrap();
        assert_eq!(fused.metrics.lanes.len(), sources.len());
        let mut solo_bytes = 0u64;
        for (q, &s) in sources.iter().enumerate() {
            let solo = run_bfs(
                &g,
                &cfg,
                &TraversalOptions {
                    source: s,
                    ..TraversalOptions::default()
                },
            )
            .unwrap();
            assert_eq!(fused.distances[q], solo.distances, "lane {q}");
            assert_eq!(fused.metrics.lanes[q], solo.metrics.lanes[0], "lane {q}");
            solo_bytes += solo.metrics.events.bytes_streamed;
        }
        assert!(
            fused.metrics.events.bytes_streamed < solo_bytes,
            "fusing must share the streamed union plan: {} vs {solo_bytes}",
            fused.metrics.events.bytes_streamed
        );
    }

    #[test]
    fn fused_sssp_single_lane_is_the_unfused_run() {
        let g = Rmat::new(70, 350).seed(8).max_weight(32).generate();
        let cfg = test_config();
        let fused = run_sssp_lanes(&g, &cfg, &LaneTraversalOptions::new(vec![0])).unwrap();
        let solo = run_sssp(&g, &cfg, &TraversalOptions::default()).unwrap();
        assert_eq!(fused.distances[0], solo.distances);
        assert_eq!(fused.metrics, solo.metrics, "K=1 must be the unfused run");
    }

    #[test]
    fn fused_wcc_lanes_match_single_run() {
        let g = Rmat::new(60, 150).seed(7).generate();
        let cfg = test_config();
        let fused = run_wcc_lanes(&g, &cfg, 3).unwrap();
        let solo = run_wcc(&g, &cfg).unwrap();
        for q in 0..3 {
            assert_eq!(fused.labels[q], solo.labels);
            assert_eq!(fused.num_components[q], solo.num_components);
            assert_eq!(fused.metrics.lanes[q], solo.metrics.lanes[0]);
        }
    }

    #[test]
    fn fused_rejects_zero_and_oversized_lane_counts() {
        let g = cycle(6);
        let cfg = test_config();
        let err = run_bfs_lanes(&g, &cfg, &LaneTraversalOptions::new(vec![])).unwrap_err();
        assert!(matches!(err, SimError::Config(_)));
        let err = run_bfs_lanes(&g, &cfg, &LaneTraversalOptions::new(vec![0; 65])).unwrap_err();
        assert!(matches!(err, SimError::Config(_)));
        let err = run_bfs_lanes(&g, &cfg, &LaneTraversalOptions::new(vec![0, 99])).unwrap_err();
        assert!(matches!(err, SimError::BadSource { .. }));
    }

    #[test]
    fn mac_apps_process_all_subgraphs_addop_prunes() {
        let g = Rmat::new(100, 500).seed(6).generate();
        let cfg = test_config();
        let pr = run_pagerank(&g, &cfg, &PageRankOptions::default()).unwrap();
        assert_eq!(pr.metrics.events.subgraphs_skipped_inactive, 0);
        assert_eq!(pr.metrics.events.subgraphs_pruned, 0);
        let ss = run_sssp(&g, &cfg, &TraversalOptions::default()).unwrap();
        assert!(
            ss.metrics.events.subgraphs_pruned > 0,
            "SSSP should prune inactive subgraphs from its plans"
        );
        assert_eq!(
            ss.metrics.events.subgraphs_skipped_inactive, 0,
            "pruned plans never stream a subgraph without active sources"
        );
        assert!(ss.metrics.events.edges_pruned > 0);
    }

    use graphr_graph::EdgeList;

    /// The add-op driver loop as it was before label buffers persisted:
    /// every round clones every lane's labels into fresh next-label
    /// buffers and adopts them wholesale after the scan. The oracle for
    /// [`run_lanes_loop`]'s copy-back of lowered labels only.
    fn clone_every_round_oracle(
        exec: &mut dyn ScanEngine,
        value: &(dyn Fn(f32, u32, u32) -> f64 + Sync),
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
        mut dists: Vec<Vec<f64>>,
        mut active: LaneFrontier,
        cap: usize,
    ) -> (Vec<Vec<f64>>, Metrics) {
        let n = active.num_vertices();
        let k = active.num_lanes();
        let value = EdgeValueFn::new(value);
        let mut counters = vec![LaneCounters::default(); k];
        let mut delta: Option<FrontierDelta> = None;
        for _ in 0..cap {
            let plan = match &delta {
                Some(d) => exec.plan_with_delta(active.union(), d),
                None => exec.plan(Some(active.union())),
            };
            let participating = (0..k)
                .filter(|&q| !active.lane_is_empty(q))
                .fold(0u64, |bits, q| bits | 1 << q);
            let mut frontiers = dists.clone();
            let mut updated = LaneFrontier::new(n, k);
            exec.scan_add_op_lanes_planned(
                &plan,
                &value,
                combine,
                &dists,
                &active,
                &mut frontiers,
                &mut updated,
            );
            exec.end_iteration();
            dists = frontiers;
            delta = Some(FrontierDelta::between(active.union(), updated.union()));
            active = updated;
            for (q, counter) in counters.iter_mut().enumerate() {
                counter.iterations += (participating >> q) & 1;
                let size = active.lane_len(q);
                counter.frontier_total += size;
                counter.frontier_peak = counter.frontier_peak.max(size);
            }
            if active.is_empty() {
                break;
            }
        }
        let mut metrics = exec.take_metrics();
        metrics.lanes = counters;
        (dists, metrics)
    }

    fn proptest_cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(32)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(proptest_cases()))]

        /// Fused BFS, SSSP and WCC lanes through [`run_lanes_loop`] equal
        /// the clone-every-round oracle: every label bit and the whole
        /// `Metrics`, at one and two worker threads.
        #[test]
        fn lanes_loop_matches_clone_every_round_oracle(
            app_lanes in (0u8..3, 1usize..=8),
            shape in (16usize..300, 1usize..8),
            seeds in (0u64..1 << 32, 0u64..1 << 32),
            threads in 1usize..=2,
        ) {
            let (app, k) = app_lanes;
            let (n, degree) = shape;
            let g = Rmat::new(n, n * degree).seed(seeds.0).max_weight(9).generate();
            let g = if app == 2 { symmetrised(&g) } else { g };
            let cfg = test_config();
            let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
            let spec = FixedSpec::new(16, 0).unwrap();
            let (dists, active, cap) = if app == 2 {
                let labels: Vec<f64> = (0..n).map(|v| v as f64).collect();
                (vec![labels; k], LaneFrontier::full(n, k), n)
            } else {
                let mut dists = vec![vec![spec.max_value(); n]; k];
                let mut active = LaneFrontier::new(n, k);
                let mut pick = seeds.1;
                for (q, dist) in dists.iter_mut().enumerate() {
                    pick = pick.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(q as u64 + 1);
                    let source = (pick >> 33) as usize % n;
                    dist[source] = 0.0;
                    active.set(q, source);
                }
                (dists, active, n)
            };
            let unit = |_w: f32, _s: u32, _d: u32| 1.0;
            let weight = |w: f32, _s: u32, _d: u32| f64::from(w);
            let relax = |du: f64, w: f64| du + w;
            let forward = |du: f64, _w: f64| du;
            let value: &(dyn Fn(f32, u32, u32) -> f64 + Sync) = if app == 1 { &weight } else { &unit };
            let combine: &(dyn Fn(f64, f64) -> f64 + Sync) = if app == 2 { &forward } else { &relax };
            let engine = || StreamingExecutor::new(&tiled, &cfg, spec).with_threads(threads);
            let (got, got_metrics) =
                run_lanes_loop(&mut engine(), value, combine, dists.clone(), active.clone(), cap);
            let (want, want_metrics) =
                clone_every_round_oracle(&mut engine(), value, combine, dists, active, cap);
            let bits = |d: &[Vec<f64>]| -> Vec<Vec<u64>> {
                d.iter().map(|l| l.iter().map(|x| x.to_bits()).collect()).collect()
            };
            proptest::prop_assert_eq!(bits(&got), bits(&want));
            proptest::prop_assert_eq!(got_metrics, want_metrics);
        }
    }
}
