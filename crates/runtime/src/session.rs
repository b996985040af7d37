//! The session: a reusable, cacheable, multi-query service over the
//! simulator stack.
//!
//! A [`Session`] owns an architectural configuration, a worker budget, and
//! a **preprocessed-graph cache**: tiling a graph (§3.4's edge-list
//! ordering) is the expensive once-per-graph software step, so the session
//! keys each [`TiledGraph`] by *(graph id, tiling geometry, streaming
//! order, graph variant)* and shares it across every job that needs it —
//! repeated queries skip the tiler entirely. The cache entry also carries
//! the graph's [`PlanSkeleton`] (unit table + dense plan over the tiler's
//! source-range index) and the incremental planner's
//! [`PlannerIndex`], so warm jobs stamp out per-engine
//! [`Planner`]s — frontier-delta re-planning of per-iteration
//! [`ScanPlan`](graphr_core::exec::ScanPlan)s — without re-enumerating
//! units or re-walking the span table. Hits and misses are counted, and
//! the cache is safe to use from concurrent batch jobs.
//!
//! Every submission reaches one private job runner, which executes a
//! *wave*: [`Session::submit`] is a one-job wave, [`Session::submit_fused`]
//! a checked wave of up to [`MAX_LANES`] compatible traversals, and
//! [`Session::submit_batch`] one wave per job on a share of the thread
//! budget. A traversal wave runs one frontier lane per job, so a lone
//! BFS/SSSP/WCC query is the one-lane case of the fused loop; its report
//! and trace are those of an unfused run, under the trace job name
//! `"<app> on <graph>"` (`"<app>[xK] on <graph>"` for K ≥ 2 lanes).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use graphr_core::config::StreamingOrder;
use graphr_core::exec::plan::PlanSkeleton;
use graphr_core::exec::planner::{Planner, PlannerIndex};
use graphr_core::exec::{ScanEngine, StreamingExecutor, MAX_LANES};
use graphr_core::multinode::{ClusterExecutor, MultiNodeConfig};
use graphr_core::outofcore::DiskModel;
use graphr_core::sim::{
    self, cf_config_for, run_bfs_lanes_with, run_cf_with, run_pagerank_with, run_spmv_with,
    run_sssp_lanes_with, run_wcc_lanes_with, CfMatrix, LaneTraversalOptions, SimError,
    TraversalRun, WccRun,
};
use graphr_core::trace::{TraceHandle, TraceSink};
use graphr_core::{GraphRConfig, Metrics, TiledGraph};
use graphr_graph::{EdgeList, GraphHandle, GraphId};
use graphr_units::FixedSpec;

use crate::job::{Job, JobOutput, JobReport, JobSpec};
use crate::pool;

/// Errors from the runtime service layer.
#[derive(Debug)]
pub enum RuntimeError {
    /// The underlying simulation failed.
    Sim(SimError),
    /// A CF job was submitted on a graph without bipartite dimensions.
    NotBipartite {
        /// Name of the offending graph.
        graph: String,
    },
    /// A fused wave was submitted whose jobs cannot share one run (see
    /// [`Job::fusable_with`]).
    NotFusable {
        /// Why the wave cannot fuse.
        reason: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Sim(e) => write!(f, "{e}"),
            RuntimeError::NotBipartite { graph } => {
                write!(f, "graph '{graph}' carries no user/item split for CF")
            }
            RuntimeError::NotFusable { reason } => {
                write!(f, "wave cannot fuse: {reason}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Sim(e) => Some(e),
            RuntimeError::NotBipartite { .. } | RuntimeError::NotFusable { .. } => None,
        }
    }
}

impl From<SimError> for RuntimeError {
    fn from(e: SimError) -> Self {
        RuntimeError::Sim(e)
    }
}

/// Which derived edge list of a handle a tiling covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphVariant {
    /// The graph as registered.
    Forward,
    /// The transposed graph (CF's `Rᵀ` scans).
    Transposed,
    /// The symmetrised graph (WCC's label propagation).
    Symmetrised,
}

/// Preprocessed-graph cache key: graph identity plus everything the tiler
/// output depends on, plus the streaming order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TileKey {
    graph: GraphId,
    variant: GraphVariant,
    crossbar_size: usize,
    strip_width: usize,
    tiles_per_ge: usize,
    num_ges: usize,
    block_vertices: Option<usize>,
    row_major: bool,
}

impl TileKey {
    fn new(graph: GraphId, variant: GraphVariant, config: &GraphRConfig) -> Self {
        TileKey {
            graph,
            variant,
            crossbar_size: config.crossbar_size,
            strip_width: config.strip_width(),
            tiles_per_ge: config.tiles_per_ge(),
            num_ges: config.num_ges,
            block_vertices: config.block_vertices,
            row_major: config.order == StreamingOrder::RowMajor,
        }
    }
}

/// Cache observability counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that ran the tiler.
    pub misses: u64,
    /// Preprocessed graphs currently held.
    pub entries: usize,
}

/// A cached preprocessing: the tiled graph plus the plan skeleton and the
/// incremental planner's graph-derived index built over it, shared by
/// every job on the same (graph, geometry) key. Engines stamp out cheap
/// per-run [`Planner`]s from the cached state instead of re-walking the
/// span table.
#[derive(Clone)]
struct CachedTiling {
    tiled: Arc<TiledGraph>,
    skeleton: Arc<PlanSkeleton>,
    planner_index: Arc<PlannerIndex>,
}

impl CachedTiling {
    /// A fresh incremental planner over the cached skeleton + index.
    fn planner(&self) -> Planner {
        Planner::with_index(Arc::clone(&self.skeleton), Arc::clone(&self.planner_index))
    }
}

/// A long-lived, thread-safe query session over the simulator stack.
pub struct Session {
    config: GraphRConfig,
    threads: usize,
    disk: Option<DiskModel>,
    cluster: Option<MultiNodeConfig>,
    trace: Option<Arc<TraceSink>>,
    tilings: Mutex<HashMap<TileKey, CachedTiling>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Session {
    /// A session at `config` using all available host threads.
    #[must_use]
    pub fn new(config: GraphRConfig) -> Self {
        Session {
            config,
            threads: pool::available_threads(),
            disk: None,
            cluster: None,
            trace: None,
            tilings: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Caps the worker threads jobs may use (`1` runs every scan inline
    /// on the submitting thread; results are identical at any count).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Runs every job in the out-of-core regime by default: scans price
    /// their disk loading under `disk` (plan-aware, per-iteration) and
    /// reports gain the disk-vs-compute breakdown. A job's own
    /// [`Job::with_disk`] still overrides this session default.
    #[must_use]
    pub fn with_disk(mut self, disk: DiskModel) -> Self {
        self.disk = Some(disk);
        self
    }

    /// The session's default disk model, if out-of-core pricing is on.
    #[must_use]
    pub fn disk(&self) -> Option<&DiskModel> {
        self.disk.as_ref()
    }

    /// Runs every job on a simulated multi-node cluster by default: each
    /// scan plan is sharded by destination-strip ownership across
    /// `cluster.nodes` engines, and the
    /// plan-aware property exchange lands in
    /// [`Metrics::net`](graphr_core::Metrics). A job's own
    /// [`Job::with_cluster`] / [`Job::single_node`] still overrides this
    /// session default. Composes with the disk configuration: each node
    /// prices its own plan-aware loading.
    #[must_use]
    pub fn with_cluster(mut self, cluster: MultiNodeConfig) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// The session's default cluster configuration, if any.
    #[must_use]
    pub fn cluster(&self) -> Option<&MultiNodeConfig> {
        self.cluster.as_ref()
    }

    /// Collects every job's telemetry into `sink` by default: each
    /// submission opens one job in the sink (named `"<app> on <graph>"`,
    /// or `"<app>[xK] on <graph>"` for a fused wave of K ≥ 2) and the
    /// drivers' per-iteration snapshots plus the engines' span events
    /// land there (see [`graphr_core::trace`]). A job's own
    /// [`Job::with_trace`] / [`Job::untraced`] still overrides this
    /// session default. Tracing only observes the runs — results and
    /// [`Metrics`] stay bit-identical to an
    /// untraced session.
    #[must_use]
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// The session's default trace sink, if telemetry is on.
    #[must_use]
    pub fn trace(&self) -> Option<&Arc<TraceSink>> {
        self.trace.as_ref()
    }

    /// The session's architectural configuration.
    #[must_use]
    pub fn config(&self) -> &GraphRConfig {
        &self.config
    }

    /// The session's worker budget.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Current cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.tilings().len(),
        }
    }

    /// The preprocessed form of a graph variant under `config`, served
    /// from the cache when warm.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when the configuration fails
    /// [`GraphRConfig::check`].
    pub fn tiled(
        &self,
        handle: &GraphHandle,
        variant: GraphVariant,
        config: &GraphRConfig,
    ) -> Result<Arc<TiledGraph>, SimError> {
        Ok(self
            .tiling_counted(handle, variant, config, &mut 0, &mut 0)?
            .tiled)
    }

    /// The tiling cache. A panic while it was held cannot leave it
    /// inconsistent (entries are inserted whole), so a poisoned lock is
    /// recovered.
    fn tilings(&self) -> MutexGuard<'_, HashMap<TileKey, CachedTiling>> {
        self.tilings.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// [`Session::tiled`] with per-caller hit/miss counters, so concurrent
    /// batch jobs attribute cache traffic to themselves rather than to
    /// whichever job happens to read the global counters.
    fn tiling_counted(
        &self,
        handle: &GraphHandle,
        variant: GraphVariant,
        config: &GraphRConfig,
        local_hits: &mut u64,
        local_misses: &mut u64,
    ) -> Result<CachedTiling, SimError> {
        // The key covers only the tiling geometry, so a warm hit would
        // skip the tiler's check of the rest of the configuration.
        config.check()?;
        let key = TileKey::new(handle.id().clone(), variant, config);
        if let Some(hit) = self.tilings().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            *local_hits += 1;
            return Ok(hit.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        *local_misses += 1;
        // Preprocess outside the lock: concurrent first-touch jobs may
        // race to tile the same graph, but both produce identical results
        // and the cache stays consistent.
        let derived: EdgeList;
        let graph = match variant {
            GraphVariant::Forward => handle.graph(),
            GraphVariant::Transposed => {
                derived = handle.graph().transposed();
                &derived
            }
            GraphVariant::Symmetrised => {
                derived = sim::symmetrised(handle.graph());
                &derived
            }
        };
        let tiled = Arc::new(TiledGraph::preprocess(graph, config)?);
        let skeleton = Arc::new(PlanSkeleton::build(&tiled));
        let planner_index = Arc::new(PlannerIndex::build(&tiled));
        let entry = CachedTiling {
            tiled,
            skeleton,
            planner_index,
        };
        self.tilings().insert(key, entry.clone());
        Ok(entry)
    }

    /// One single-node engine over a cached tiling, carrying a planner
    /// stamped out from the cached skeleton + index.
    fn node_engine<'a>(
        tiling: &'a CachedTiling,
        config: &'a GraphRConfig,
        spec: FixedSpec,
        scan_threads: usize,
    ) -> Box<dyn ScanEngine + 'a> {
        Box::new(
            StreamingExecutor::with_planner(&tiling.tiled, config, spec, tiling.planner())
                .with_threads(scan_threads),
        )
    }

    // One parameter per orthogonal per-job setting; bundling them would
    // just move the argument list into a struct literal at every call.
    #[allow(clippy::too_many_arguments)]
    fn engine<'a>(
        &self,
        tiling: &'a CachedTiling,
        config: &'a GraphRConfig,
        spec: FixedSpec,
        scan_threads: usize,
        disk: Option<DiskModel>,
        cluster: Option<MultiNodeConfig>,
        trace: Option<TraceHandle>,
    ) -> Box<dyn ScanEngine + 'a> {
        let mut engine: Box<dyn ScanEngine + 'a> = match cluster {
            // Cluster nodes execute one after another on the host, so each
            // node's engine may use the full scan budget.
            Some(c) => Box::new(ClusterExecutor::with_engines(
                &tiling.tiled,
                config,
                c,
                tiling.planner(),
                |_node| Self::node_engine(tiling, config, spec, scan_threads),
            )),
            None => Self::node_engine(tiling, config, spec, scan_threads),
        };
        engine.set_disk(disk);
        engine.set_trace(trace);
        engine
    }

    /// Executes one job to completion: a one-job wave of the session's
    /// one job runner.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NotBipartite`] for CF on a non-bipartite
    /// handle and [`RuntimeError::Sim`] for simulation-level failures
    /// (including a per-job configuration with an invalid geometry).
    pub fn submit(&self, job: &Job) -> Result<JobReport, RuntimeError> {
        self.submit_with_budget(job, self.threads)
    }

    /// [`Session::submit`] with an explicit scan-thread budget (batch
    /// submission splits the session budget across concurrent jobs).
    fn submit_with_budget(
        &self,
        job: &Job,
        scan_threads: usize,
    ) -> Result<JobReport, RuntimeError> {
        let mut reports = self.run_wave(std::slice::from_ref(job), scan_threads)?;
        Ok(reports.remove(0))
    }

    /// Executes a wave of compatible traversal jobs as **one fused run**:
    /// each job becomes one frontier lane
    /// ([`LaneFrontier`](graphr_core::exec::LaneFrontier)), every
    /// iteration plans the *union* frontier, and one scan of the planned
    /// edge stream advances all lanes at once — K queries for roughly one
    /// query's streaming cost when their frontiers overlap.
    ///
    /// Returns one [`JobReport`] per job, in wave order, functionally
    /// bit-identical to submitting each job alone. Machine-level
    /// [`Metrics`] in each report are the *fused
    /// run's* totals (shared by the whole wave — summing reports
    /// double-counts), while the single
    /// [`Metrics::lanes`](graphr_core::metrics::LaneCounters) row is the
    /// query's own attribution: its iterations, frontier population, and
    /// settled-vertex count, equal to what an independent run would
    /// report. Wall time and cache counters are likewise the wave's. A
    /// one-job wave *is* [`Session::submit`]: same report, same trace.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NotFusable`] for an empty wave, a wave
    /// over [`MAX_LANES`] lanes, a non-traversal application, or jobs
    /// that disagree on anything but the source vertex (see
    /// [`Job::fusable_with`]); [`RuntimeError::Sim`] for simulation-level
    /// failures (e.g. an out-of-range source).
    pub fn submit_fused(&self, jobs: &[Job]) -> Result<Vec<JobReport>, RuntimeError> {
        let template = jobs.first().ok_or_else(|| RuntimeError::NotFusable {
            reason: "empty wave".to_owned(),
        })?;
        if !template.is_fusable() {
            return Err(RuntimeError::NotFusable {
                reason: format!(
                    "'{}' does not map onto frontier lanes",
                    template.spec.name()
                ),
            });
        }
        if jobs.len() > MAX_LANES {
            return Err(RuntimeError::NotFusable {
                reason: format!(
                    "wave of {} exceeds {MAX_LANES} lanes; split into waves",
                    jobs.len()
                ),
            });
        }
        if let Some(bad) = jobs[1..].iter().find(|job| !template.fusable_with(job)) {
            return Err(RuntimeError::NotFusable {
                reason: format!(
                    "'{}' on '{}' does not match the wave's '{}' on '{}'",
                    bad.spec.name(),
                    bad.graph.id().name(),
                    template.spec.name(),
                    template.graph.id().name()
                ),
            });
        }
        self.run_wave(jobs, self.threads)
    }

    /// Executes a batch of jobs, fanning independent jobs out across the
    /// worker budget; results come back in submission order. The scan
    /// budget is split across concurrent jobs so the batch does not
    /// oversubscribe the host.
    pub fn submit_batch(&self, jobs: &[Job]) -> Vec<Result<JobReport, RuntimeError>> {
        let workers = self.threads.min(jobs.len()).max(1);
        let scan_threads = (self.threads / workers).max(1);
        pool::run_indexed(
            jobs.len(),
            workers,
            || (),
            |(), idx| self.submit_with_budget(&jobs[idx], scan_threads),
        )
    }

    /// The session's one job runner: executes a wave of jobs as one
    /// machine run and returns one report per job, in wave order. A wave
    /// is either a single job of any application or K ≥ 2 jobs that
    /// [`Session::submit_fused`] has checked fuse; a traversal wave runs
    /// one frontier lane per job, so a lone BFS/SSSP/WCC query is the
    /// one-lane case of the same loop.
    fn run_wave(&self, jobs: &[Job], scan_threads: usize) -> Result<Vec<JobReport>, RuntimeError> {
        let template = &jobs[0];
        let start = Instant::now();
        let mut cache_hits = 0u64;
        let mut cache_misses = 0u64;
        let config = template.config.as_ref().unwrap_or(&self.config);
        let disk = template.disk.resolve(self.disk);
        let cluster = template.cluster.resolve(self.cluster);
        if let Some(cluster) = &cluster {
            cluster.check().map_err(SimError::Config)?;
        }
        // One sink job per wave: the run is one machine execution, so its
        // spans and per-lane events share one timeline, tagged with the
        // index `begin_job` hands out so batch jobs sharing a sink stay
        // separable.
        let trace = template.trace.resolve(self.trace.as_ref()).map(|sink| {
            let (app, graph) = (template.spec.name(), template.graph.id().name());
            let index = sink.begin_job(&match jobs.len() {
                1 => format!("{app} on {graph}"),
                k => format!("{app}[x{k}] on {graph}"),
            });
            TraceHandle::for_job(sink, index)
        });
        let mut tiling = |variant, config: &GraphRConfig| {
            self.tiling_counted(
                &template.graph,
                variant,
                config,
                &mut cache_hits,
                &mut cache_misses,
            )
        };
        let graph = template.graph.graph();
        let (variant, spec) = engine_setup(&template.spec);
        let outputs = if let JobSpec::Cf(opts) = &template.spec {
            let (users, items) =
                template
                    .graph
                    .bipartite_dims()
                    .ok_or_else(|| RuntimeError::NotBipartite {
                        graph: template.graph.id().name().to_owned(),
                    })?;
            let cf_config = cf_config_for(config)?;
            let tiling_r = tiling(variant, &cf_config)?;
            let tiling_t = tiling(GraphVariant::Transposed, &cf_config)?;
            let run = run_cf_with(graph, users, items, &cf_config, opts, &mut |matrix| {
                let tiling = match matrix {
                    CfMatrix::Ratings => &tiling_r,
                    CfMatrix::Transposed => &tiling_t,
                };
                self.engine(
                    tiling,
                    &cf_config,
                    spec,
                    scan_threads,
                    disk,
                    cluster,
                    trace.clone(),
                )
            })?;
            vec![JobOutput::Cf(run)]
        } else {
            let tiling = tiling(variant, config)?;
            let mut exec = self.engine(&tiling, config, spec, scan_threads, disk, cluster, trace);
            let exec = exec.as_mut();
            match &template.spec {
                JobSpec::PageRank(opts) => {
                    vec![JobOutput::Scalar(run_pagerank_with(graph, exec, opts)?)]
                }
                JobSpec::Spmv(opts) => vec![JobOutput::Scalar(run_spmv_with(graph, exec, opts)?)],
                JobSpec::Bfs(opts) | JobSpec::Sssp(opts) => {
                    let lane_opts = LaneTraversalOptions {
                        sources: jobs
                            .iter()
                            .map(|job| match &job.spec {
                                JobSpec::Bfs(o) | JobSpec::Sssp(o) => o.source,
                                _ => unreachable!("wave verified homogeneous"),
                            })
                            .collect(),
                        max_iterations: opts.max_iterations,
                        spec: opts.spec,
                    };
                    let run = if matches!(template.spec, JobSpec::Bfs(_)) {
                        run_bfs_lanes_with(graph, exec, &lane_opts)?
                    } else {
                        run_sssp_lanes_with(graph, exec, &lane_opts)?
                    };
                    let metrics = run.metrics;
                    run.distances
                        .into_iter()
                        .enumerate()
                        .map(|(q, distances)| {
                            JobOutput::Traversal(TraversalRun {
                                distances,
                                metrics: lane_metrics(&metrics, q),
                            })
                        })
                        .collect()
                }
                JobSpec::Wcc => {
                    let run = run_wcc_lanes_with(graph, exec, jobs.len())?;
                    let metrics = run.metrics;
                    run.labels
                        .into_iter()
                        .zip(run.num_components)
                        .enumerate()
                        .map(|(q, (labels, num_components))| {
                            JobOutput::Wcc(WccRun {
                                labels,
                                num_components,
                                metrics: lane_metrics(&metrics, q),
                            })
                        })
                        .collect()
                }
                JobSpec::Cf(_) => unreachable!("CF runs above"),
            }
        };
        let wall = start.elapsed();
        Ok(outputs
            .into_iter()
            .map(|output| JobReport {
                app: template.spec.name(),
                graph: template.graph.id().name().to_owned(),
                output,
                wall,
                cache_hits,
                cache_misses,
            })
            .collect())
    }
}

/// The graph variant a job tiles and the value format its engines
/// quantise to (CF tiles the ratings `R` here, plus `Rᵀ`).
fn engine_setup(spec: &JobSpec) -> (GraphVariant, FixedSpec) {
    match spec {
        JobSpec::PageRank(opts) => (GraphVariant::Forward, opts.matrix_spec),
        JobSpec::Spmv(opts) => (GraphVariant::Forward, opts.matrix_spec),
        JobSpec::Bfs(opts) | JobSpec::Sssp(opts) => (GraphVariant::Forward, opts.spec),
        JobSpec::Wcc => (
            GraphVariant::Symmetrised,
            FixedSpec::new(16, 0).expect("Q16.0 is valid"),
        ),
        JobSpec::Cf(opts) => (GraphVariant::Forward, opts.spec),
    }
}

/// One lane's report metrics: the wave's shared machine totals, narrowed
/// to the lane's own attribution row.
fn lane_metrics(shared: &Metrics, q: usize) -> Metrics {
    let mut metrics = shared.clone();
    metrics.lanes = vec![shared.lanes[q]];
    metrics
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.cache_stats();
        f.debug_struct("Session")
            .field("threads", &self.threads)
            .field("cache", &stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphr_core::sim::{PageRankOptions, TraversalOptions};
    use graphr_graph::generators::rmat::Rmat;

    fn small_config() -> GraphRConfig {
        GraphRConfig::builder()
            .crossbar_size(4)
            .crossbars_per_ge(8)
            .num_ges(2)
            .build()
            .unwrap()
    }

    fn handle() -> GraphHandle {
        GraphHandle::new("test-rmat", Rmat::new(120, 700).seed(4).generate())
    }

    #[test]
    fn warm_session_skips_the_tiler() {
        let session = Session::new(small_config());
        let job = Job::new(handle(), JobSpec::PageRank(PageRankOptions::default()));
        let first = session.submit(&job).unwrap();
        assert_eq!(first.cache_hits, 0, "cold submit must miss");
        let stats = session.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);

        let second = session.submit(&job).unwrap();
        assert!(second.cache_hits > 0, "warm submit must hit the cache");
        assert_eq!(session.cache_stats().misses, 1, "no second tiling");
        // Identical results either way.
        assert_eq!(
            format!("{:?}", first.output),
            format!("{:?}", second.output)
        );
    }

    #[test]
    fn distinct_geometries_do_not_collide() {
        let session = Session::new(small_config());
        let h = handle();
        let job = Job::new(h.clone(), JobSpec::PageRank(PageRankOptions::default()));
        session.submit(&job).unwrap();
        let other = GraphRConfig::builder()
            .crossbar_size(8)
            .crossbars_per_ge(8)
            .num_ges(2)
            .build()
            .unwrap();
        let job2 = Job::new(h, JobSpec::PageRank(PageRankOptions::default())).with_config(other);
        session.submit(&job2).unwrap();
        let stats = session.cache_stats();
        assert_eq!(stats.misses, 2, "different geometry → different tiling");
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn batch_returns_in_submission_order() {
        let session = Session::new(small_config()).with_threads(4);
        let h = handle();
        let jobs = vec![
            Job::new(h.clone(), JobSpec::PageRank(PageRankOptions::default())),
            Job::new(h.clone(), JobSpec::Sssp(TraversalOptions::default())),
            Job::new(h, JobSpec::Wcc),
        ];
        let reports = session.submit_batch(&jobs);
        assert_eq!(reports.len(), 3);
        let apps: Vec<_> = reports.iter().map(|r| r.as_ref().unwrap().app).collect();
        assert_eq!(apps, vec!["pagerank", "sssp", "wcc"]);
    }

    #[test]
    fn session_disk_default_and_job_override() {
        let session = Session::new(small_config()).with_disk(DiskModel::sata_ssd());
        let job = Job::new(handle(), JobSpec::Sssp(TraversalOptions::default()));
        let report = session.submit(&job).unwrap();
        let m = report.output.metrics();
        assert!(m.disk.is_active(), "session default must reach the engine");
        assert!(m.disk.bytes_loaded > 0);
        assert!(m.disk.time.as_nanos() > 0.0);
        // Σ max(compute, disk) dominates both components.
        assert!(m.disk.overlapped >= m.disk.time);
        assert!(m.disk.overlapped >= m.elapsed);
        assert!(
            report.render().contains("disk:"),
            "report gains a disk line"
        );

        // A per-job NVMe override must beat the session's SATA default.
        let nvme = session
            .submit(&job.clone().with_disk(DiskModel::nvme()))
            .unwrap();
        assert!(nvme.output.metrics().disk.time < m.disk.time);
        // Identical functional results and compute accounting either way.
        assert_eq!(nvme.output.metrics().elapsed, m.elapsed);

        // A job can also opt back out to in-core despite the session
        // default (the API mirror of the CLI's `--disk none`).
        let opted_out = session.submit(&job.clone().in_core()).unwrap();
        assert!(!opted_out.output.metrics().disk.is_active());
        assert_eq!(opted_out.output.metrics().elapsed, m.elapsed);

        // Without any disk configuration the counters stay silent.
        let in_core = Session::new(small_config()).submit(&job).unwrap();
        assert!(!in_core.output.metrics().disk.is_active());
        assert!(!in_core.render().contains("disk:"));
    }

    #[test]
    fn session_cluster_default_and_job_override() {
        use graphr_core::multinode::MultiNodeConfig;
        let session = Session::new(small_config()).with_cluster(MultiNodeConfig::pcie_cluster(4));
        let job = Job::new(handle(), JobSpec::Sssp(TraversalOptions::default()));
        let report = session.submit(&job).unwrap();
        let m = report.output.metrics();
        assert!(m.net.is_active(), "session default must reach the engine");
        assert!(m.net.bytes_exchanged > 0);
        assert!(report.render().contains("net:"), "report gains a net line");

        // Functional results are unchanged by partitioning.
        let single = Session::new(small_config()).submit(&job).unwrap();
        assert!(!single.output.metrics().net.is_active());
        match (&report.output, &single.output) {
            (JobOutput::Traversal(c), JobOutput::Traversal(s)) => {
                assert_eq!(c.distances, s.distances);
            }
            other => panic!("unexpected outputs {other:?}"),
        }

        // A job can opt back out to single-node despite the session
        // default...
        let opted_out = session.submit(&job.clone().single_node()).unwrap();
        assert_eq!(opted_out.output, single.output);
        // ...and a one-node cluster override is bit-identical to the
        // single-node engine, full Metrics included.
        let one = session
            .submit(&job.clone().with_cluster(MultiNodeConfig::pcie_cluster(1)))
            .unwrap();
        assert_eq!(one.output, single.output);

        // Cluster + disk compose: each node prices its own loading.
        let both = session
            .submit(&job.clone().with_disk(DiskModel::nvme()))
            .unwrap();
        let bm = both.output.metrics();
        assert!(bm.net.is_active() && bm.disk.is_active());
        match (&both.output, &single.output) {
            (JobOutput::Traversal(c), JobOutput::Traversal(s)) => {
                assert_eq!(c.distances, s.distances);
            }
            other => panic!("unexpected outputs {other:?}"),
        }
    }

    #[test]
    fn cf_on_directed_graph_is_rejected() {
        let session = Session::new(small_config());
        let job = Job::new(
            handle(),
            JobSpec::Cf(graphr_core::sim::CfOptions::default()),
        );
        let err = session.submit(&job).unwrap_err();
        assert!(matches!(err, RuntimeError::NotBipartite { .. }));
    }
}
