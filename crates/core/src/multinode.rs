//! Multi-node GraphR — the paper's declared future work, implemented as a
//! cluster execution subsystem.
//!
//! §3.1: *"multi-node: one can connect different GraphR nodes … to process
//! large graphs. In this case, each block is processed by a GraphR node.
//! Data movements happen between GraphR nodes. … we leave this as future
//! work and extension."*
//!
//! The natural partitioning under column-major streaming-apply assigns
//! each node a slice of destination strips: every node scans only the
//! subgraphs whose destinations it owns, reducing into its private RegO
//! windows, and at the end of each iteration the updated vertex properties
//! are exchanged so every node starts the next iteration with the full
//! property vector.
//!
//! Two models are provided:
//!
//! * [`ClusterExecutor`] — the **plan-aware cluster subsystem**. It is a
//!   [`ScanEngine`], so every `sim` driver (including the incremental
//!   re-planning traversal loops) runs on a cluster unchanged. Each
//!   executed [`ScanPlan`] is sharded by destination-strip ownership
//!   under an [`OwnerPolicy`] — round-robin `index % nodes` by default
//!   (the same rule as [`partition_by_strip`]), or degree-weighted
//!   ([`OwnerPolicy::DegreeWeighted`]) to tighten the per-node bottleneck
//!   on power-law graphs — and each shard runs through a *real* inner
//!   engine, so tile packing, skipping, energy and disk accounting stay
//!   exact per node. Shard units are `Arc`-shared with the global plan,
//!   so re-sharding a delta-patched plan clones pointers, not unit
//!   state. A plan-aware exchange then charges the per-iteration
//!   property traffic only for vertices the iteration actually touched —
//!   the `updated` frontier delta for the add-op applications, the planned
//!   units' destination coverage for the MAC applications — into
//!   [`Metrics::net`](crate::metrics::NetCounters), and composes iteration
//!   time as `max(per-node scan [+ disk]) + exchange`.
//! * [`estimate_pagerank_scaling`] — the **legacy dense all-gather**
//!   estimate, kept as the documented upper bound (the multi-node analogue
//!   of [`estimate_out_of_core`](crate::outofcore::estimate_out_of_core)):
//!   every iteration exchanges the full `|V| × 2`-byte property vector.
//!   The plan-aware exchange never charges more bytes per iteration, and
//!   on sparse frontiers charges radically fewer.
//!
//! Determinism contract: destination strips are disjoint, every shard is a
//! subsequence of the global plan (merge order preserved), and per-node
//! metrics compose in node order — so cluster results are bit-identical to
//! the single-node engine executing the same plans, and a **one-node
//! cluster is bit-identical in results *and* full [`Metrics`]** (no
//! interconnect, no net counters). The `cluster_plan` integration tests
//! assert both.
//!
//! # Examples
//!
//! Run PageRank on a simulated 4-node cluster through the unchanged
//! driver:
//!
//! ```
//! use graphr_core::multinode::{ClusterExecutor, MultiNodeConfig};
//! use graphr_core::sim::{run_pagerank, run_pagerank_with, PageRankOptions};
//! use graphr_core::{GraphRConfig, TiledGraph};
//! use graphr_graph::generators::rmat::Rmat;
//!
//! let graph = Rmat::new(300, 2000).seed(3).generate();
//! let config = GraphRConfig::builder()
//!     .crossbar_size(4)
//!     .crossbars_per_ge(8)
//!     .num_ges(2)
//!     .build()?;
//! let opts = PageRankOptions { max_iterations: 3, tolerance: 0.0, ..PageRankOptions::default() };
//! let tiled = TiledGraph::preprocess(&graph, &config)?;
//! let spec = opts.matrix_spec;
//!
//! let mut cluster =
//!     ClusterExecutor::new(&tiled, &config, spec, MultiNodeConfig::pcie_cluster(4));
//! let run = run_pagerank_with(&graph, &mut cluster, &opts)?;
//! let single = run_pagerank(&graph, &config, &opts)?;
//! assert_eq!(run.values, single.values, "partitioning is invisible");
//! assert!(run.metrics.net.is_active(), "4 nodes must exchange properties");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use graphr_graph::{Edge, EdgeList};
use graphr_units::{FixedSpec, Joules, Nanos};
use serde::{Deserialize, Serialize};

use crate::config::GraphRConfig;
use crate::exec::lanes::LaneFrontier;
use crate::exec::mask::{FrontierDelta, FrontierMask};
use crate::exec::plan::{PlanSkeleton, PlanStats, PlanUnit, ScanPlan};
use crate::exec::planner::Planner;
use crate::exec::streaming::{EdgeValueFn, StreamingExecutor};
use crate::exec::ScanEngine;
use crate::metrics::{Metrics, NetCounters, PlanCounters};
use crate::outofcore::DiskModel;
use crate::preprocess::tiler::TiledGraph;
use crate::sim::{run_pagerank, PageRankOptions, SimError};
use crate::trace::TraceHandle;

/// Bytes per exchanged vertex property (the §3.2 16-bit data format).
pub const BYTES_PER_PROPERTY: u64 = 2;

/// Per-unit `(subgraphs, edges)` counts keyed by the `Arc<PlanUnit>`
/// they were derived from (see `ClusterExecutor::counts_for`).
type UnitCountCache = RefCell<HashMap<usize, (Arc<PlanUnit>, (u64, u64))>>;

/// How destination strips are assigned to cluster nodes.
///
/// Ownership decides which node scans which strip units; any policy
/// preserves results (strips are disjoint) and the summed event
/// accounting, but it moves the per-node *bottleneck*: on power-law
/// graphs a handful of hub strips concentrate most edges, and round-robin
/// can pile several onto one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum OwnerPolicy {
    /// `unit.index % nodes` — the PR 4 rule, kept as the default.
    #[default]
    RoundRobin,
    /// Degree-weighted: units are assigned greedily, heaviest first, to
    /// the least-loaded node (longest-processing-time scheduling over
    /// per-strip edge counts), tightening `max(per-node edges)`.
    DegreeWeighted,
}

impl OwnerPolicy {
    /// Looks a policy up by its CLI/job-file name (`"rr"` or `"degree"`).
    #[must_use]
    pub fn by_name(name: &str) -> Option<OwnerPolicy> {
        match name {
            "rr" => Some(OwnerPolicy::RoundRobin),
            "degree" => Some(OwnerPolicy::DegreeWeighted),
            _ => None,
        }
    }

    /// The CLI/job-file name of this policy.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OwnerPolicy::RoundRobin => "rr",
            OwnerPolicy::DegreeWeighted => "degree",
        }
    }
}

/// Interconnect parameters of a multi-node GraphR cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiNodeConfig {
    /// Number of GraphR nodes.
    pub nodes: usize,
    /// Point-to-point interconnect bandwidth per node, GB/s (PCIe/NVLink
    /// class).
    pub interconnect_gbps: f64,
    /// Per-exchange fixed latency (link setup + synchronisation).
    pub exchange_latency: Nanos,
    /// Energy per byte crossing the interconnect (≈10 pJ/bit links).
    pub energy_per_byte: Joules,
    /// How destination strips are assigned to nodes.
    pub owner: OwnerPolicy,
}

impl MultiNodeConfig {
    /// A small cluster with PCIe-class links (round-robin strip
    /// ownership).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    #[must_use]
    pub fn pcie_cluster(nodes: usize) -> Self {
        assert!(nodes > 0, "a cluster needs at least one node");
        MultiNodeConfig {
            nodes,
            interconnect_gbps: 12.0,
            exchange_latency: Nanos::from_micros(2.0),
            energy_per_byte: Joules::from_picojoules(80.0),
            owner: OwnerPolicy::RoundRobin,
        }
    }

    /// Selects the strip-ownership policy.
    #[must_use]
    pub fn with_owner(mut self, owner: OwnerPolicy) -> Self {
        self.owner = owner;
        self
    }
}

/// Splits a graph into per-node edge sets by destination-strip ownership
/// (node `k` owns strips `s` with `s % nodes == k`), the partitioning that
/// keeps each node's RegO windows private.
#[must_use]
pub fn partition_by_strip(graph: &EdgeList, config: &GraphRConfig, nodes: usize) -> Vec<EdgeList> {
    let width = config.strip_width();
    let mut parts: Vec<Vec<Edge>> = vec![Vec::new(); nodes.max(1)];
    for e in graph.iter() {
        let strip = e.dst as usize / width;
        parts[strip % nodes.max(1)].push(*e);
    }
    parts
        .into_iter()
        .map(|edges| {
            EdgeList::from_edges(graph.num_vertices(), edges)
                .expect("partition preserves vertex range")
        })
        .collect()
}

// ------------------------------------------------------- cluster execution

/// What one node owns of the full plan: its share of the unit table and
/// the subgraph/edge totals beneath it (the baseline its shards' pruned
/// counts are measured against).
#[derive(Debug, Clone, Copy, Default)]
struct NodeShare {
    units: usize,
    subgraphs: u64,
    edges: u64,
}

/// Plan-aware interconnect accounting for a cluster run: accumulates the
/// per-iteration property exchange into [`Metrics::net`] and composes the
/// cluster's effective iteration time.
///
/// The exchange is *plan-aware*: an iteration is charged
/// [`BYTES_PER_PROPERTY`] bytes per vertex it actually touched (recorded
/// by the owning [`ClusterExecutor`] at scan time), never the dense
/// `|V| × BYTES_PER_PROPERTY` all-gather of
/// [`estimate_pagerank_scaling`] — that legacy formula is the documented
/// upper bound. An iteration that touched nothing exchanges nothing. A
/// one-node cluster charges nothing at all (there is no interconnect),
/// which is what keeps it bit-identical to the single-node engine.
#[derive(Debug, Clone)]
pub struct NetAccountant {
    cluster: MultiNodeConfig,
    /// Vertices touched by the current iteration window's scans.
    pending_vertices: u64,
}

impl NetAccountant {
    /// Creates an accountant for `cluster`.
    #[must_use]
    pub fn new(cluster: MultiNodeConfig) -> Self {
        NetAccountant {
            cluster,
            pending_vertices: 0,
        }
    }

    /// The interconnect parameters in force.
    #[must_use]
    pub fn cluster(&self) -> &MultiNodeConfig {
        &self.cluster
    }

    /// Records vertices whose properties the current iteration updated
    /// (they must cross the interconnect at the iteration boundary).
    pub fn touch(&mut self, vertices: u64) {
        if self.cluster.nodes > 1 {
            self.pending_vertices += vertices;
        }
    }

    /// Closes one iteration window: charges the queued property exchange
    /// into `net` and returns the exchange time the cluster's iteration
    /// composition must add after the bottleneck node. `bottleneck` is
    /// `max(per-node scan [+ disk])` for the window.
    pub fn commit(&mut self, bottleneck: Nanos, net: &mut NetCounters) -> Nanos {
        if self.cluster.nodes <= 1 {
            return Nanos::ZERO;
        }
        let exchange = if self.pending_vertices > 0 {
            let bytes = self.pending_vertices * BYTES_PER_PROPERTY;
            let time = self.cluster.exchange_latency
                + Nanos::new(bytes as f64 / self.cluster.interconnect_gbps);
            net.bytes_exchanged += bytes;
            net.exchanges += 1;
            net.time += time;
            // Each node's owned slice crosses to every other node through
            // the switch: one link crossing per byte per node.
            net.energy += self.cluster.energy_per_byte * (bytes * self.cluster.nodes as u64) as f64;
            time
        } else {
            Nanos::ZERO
        };
        net.overlapped += bottleneck + exchange;
        self.pending_vertices = 0;
        exchange
    }
}

/// A [`ScanEngine`] that executes every plan on a simulated multi-node
/// cluster: plans are sharded by destination-strip ownership, each shard
/// runs through a real per-node inner engine (a one-thread
/// [`StreamingExecutor`] by default, any [`ScanEngine`] via
/// [`ClusterExecutor::with_engines`]), and a
/// [`NetAccountant`] charges the plan-aware property exchange.
///
/// Composition of the cluster [`Metrics`]:
///
/// * `iterations` — algorithm iterations (not summed over nodes),
/// * `elapsed` — `Σ_iterations max(per-node compute) + exchange` (the
///   cluster wall-clock seen by the accelerator; per-node disk overlap is
///   composed into [`net.overlapped`](crate::metrics::NetCounters)),
/// * `events`, `energy`, `time_breakdown`, `disk` — summed over nodes
///   (each node's accounting is exact, produced by the real engines),
/// * `net` — the interconnect counters (zero for a one-node cluster).
///
/// Every node holds the full §3.4-ordered edge list (preprocessing is
/// replicated, as in block-replicated out-of-core deployments); a node's
/// disk model therefore loads its owned planned spans and seeks past
/// everything else.
pub struct ClusterExecutor<'a> {
    tiled: &'a TiledGraph,
    config: &'a GraphRConfig,
    cluster: MultiNodeConfig,
    planner: Planner,
    nodes: Vec<Box<dyn ScanEngine + 'a>>,
    /// Owning node of each strip unit, by unit index (derived from the
    /// cluster's [`OwnerPolicy`] once at construction).
    owners: Vec<u32>,
    /// Full-plan ownership baseline per node.
    shares: Vec<NodeShare>,
    /// The dense plan's shards, computed once on first use — every MAC
    /// iteration executes the same cached full plan, so resharding it per
    /// scan would repeat an O(plan) walk and clone.
    dense_shards: Option<Arc<Vec<ScanPlan>>>,
    /// Per strip unit: the planned `(subgraphs, edges)` of the last plan
    /// content seen for it, keyed by the `Arc<PlanUnit>` it was counted
    /// from — so re-sharding a delta-patched plan re-counts only touched
    /// strips (the sharding analogue of the disk layer's per-unit span
    /// cache).
    count_cache: UnitCountCache,
    net: NetAccountant,
    /// Composed cluster metrics, refreshed after every mutating call.
    metrics: Metrics,
    /// Cluster-level accumulators behind `metrics`.
    iterations: usize,
    elapsed: Nanos,
    net_totals: NetCounters,
    /// Planning happens once at cluster level (shards are derived, not
    /// re-planned), so its counters accumulate here, not per node.
    plan_totals: PlanCounters,
    /// Per-node `elapsed` / `disk.overlapped` at the open window's start.
    elapsed_marks: Vec<Nanos>,
    overlap_marks: Vec<Nanos>,
    has_disk: bool,
    /// Cluster-level telemetry emitter (plan + exchange events; each node
    /// engine additionally holds a per-node rebinding of the same handle).
    trace: Option<TraceHandle>,
}

impl<'a> ClusterExecutor<'a> {
    /// A cluster of one-thread [`StreamingExecutor`] nodes over one
    /// preprocessed graph, quantising values to `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `cluster.nodes` is zero.
    #[must_use]
    pub fn new(
        tiled: &'a TiledGraph,
        config: &'a GraphRConfig,
        spec: FixedSpec,
        cluster: MultiNodeConfig,
    ) -> Self {
        let skeleton = Arc::new(PlanSkeleton::build(tiled));
        let planner = Planner::new(tiled, Arc::clone(&skeleton));
        let index = Arc::clone(planner.index());
        Self::with_engines(tiled, config, cluster, planner, |_k| {
            Box::new(StreamingExecutor::with_planner(
                tiled,
                config,
                spec,
                Planner::with_index(Arc::clone(&skeleton), Arc::clone(&index)),
            ))
        })
    }

    /// A cluster over caller-built per-node engines (`make_engine(k)`
    /// builds node `k`'s — e.g. a multi-thread [`StreamingExecutor`]).
    /// Every engine must have been built over this same `tiled` (and, for
    /// cached skeletons, the same skeleton `planner` was built from).
    ///
    /// # Panics
    ///
    /// Panics if `cluster.nodes` is zero.
    #[must_use]
    pub fn with_engines(
        tiled: &'a TiledGraph,
        config: &'a GraphRConfig,
        cluster: MultiNodeConfig,
        planner: Planner,
        mut make_engine: impl FnMut(usize) -> Box<dyn ScanEngine + 'a>,
    ) -> Self {
        assert!(cluster.nodes > 0, "a cluster needs at least one node");
        let nodes: Vec<_> = (0..cluster.nodes).map(&mut make_engine).collect();
        let full = planner.skeleton().full_plan();
        // One walk of the dense plan feeds both the ownership assignment
        // (edge weights) and the per-node baseline shares.
        let counts: Vec<(u64, u64)> = full
            .units()
            .iter()
            .map(|punit| count_planned(tiled, punit))
            .collect();
        let owners = assign_owners(&counts, cluster.nodes, cluster.owner);
        let mut shares = vec![NodeShare::default(); cluster.nodes];
        for (punit, &(subgraphs, edges)) in full.units().iter().zip(&counts) {
            let share = &mut shares[owners[punit.unit.index] as usize];
            share.units += 1;
            share.subgraphs += subgraphs;
            share.edges += edges;
        }
        ClusterExecutor {
            tiled,
            config,
            cluster,
            planner,
            nodes,
            owners,
            shares,
            dense_shards: None,
            count_cache: RefCell::new(HashMap::new()),
            net: NetAccountant::new(cluster),
            metrics: Metrics::new(),
            iterations: 0,
            elapsed: Nanos::ZERO,
            net_totals: NetCounters::default(),
            plan_totals: PlanCounters::default(),
            elapsed_marks: vec![Nanos::ZERO; cluster.nodes],
            overlap_marks: vec![Nanos::ZERO; cluster.nodes],
            has_disk: false,
            trace: None,
        }
    }

    /// The interconnect parameters in force.
    #[must_use]
    pub fn cluster(&self) -> &MultiNodeConfig {
        &self.cluster
    }

    /// Number of simulated nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Builder form of [`ScanEngine::set_disk`]: attaches `disk` to every
    /// node (each node loads its owned planned spans and seeks past the
    /// rest of its replicated on-disk image).
    #[must_use]
    pub fn with_disk(mut self, disk: DiskModel) -> Self {
        ScanEngine::set_disk(&mut self, Some(disk));
        self
    }

    /// Consumes the executor, yielding its composed metrics (closing any
    /// open iteration window first).
    #[must_use]
    pub fn into_metrics(mut self) -> Metrics {
        self.take_metrics()
    }

    /// Shards `plan` by destination-strip ownership: node `k`'s shard is
    /// the subsequence of planned units the [`OwnerPolicy`] assigns to
    /// `k`, with stats measured against the node's share of the full plan
    /// — so the shards' stats sum exactly to the global plan's and
    /// per-node `charge_plan` accounting stays partition-consistent.
    /// Shard units are `Arc` clones of the global plan's, so re-sharding
    /// an incrementally patched plan shares all untouched per-unit state.
    #[must_use]
    pub fn shard(&self, plan: &ScanPlan) -> Vec<ScanPlan> {
        let nodes = self.cluster.nodes;
        let mut units: Vec<Vec<Arc<PlanUnit>>> = vec![Vec::new(); nodes];
        let mut planned = vec![NodeShare::default(); nodes];
        for punit in plan.units() {
            let owner = self.owners[punit.unit.index] as usize;
            let (subgraphs, edges) = self.counts_for(punit);
            planned[owner].units += 1;
            planned[owner].subgraphs += subgraphs;
            planned[owner].edges += edges;
            units[owner].push(Arc::clone(punit));
        }
        units
            .into_iter()
            .zip(planned)
            .zip(&self.shares)
            .map(|((shard_units, p), share)| {
                ScanPlan::from_parts(
                    shard_units,
                    PlanStats {
                        units_planned: p.units,
                        units_pruned: share.units - p.units,
                        subgraphs_planned: p.subgraphs,
                        subgraphs_pruned: share.subgraphs - p.subgraphs,
                        edges_planned: p.edges,
                        edges_pruned: share.edges - p.edges,
                    },
                )
            })
            .collect()
    }

    /// One unit's planned `(subgraphs, edges)`, served from the per-unit
    /// cache when the plan carries the same `Arc` as the previous scan
    /// (untouched strips under incremental re-planning), re-counted
    /// otherwise.
    fn counts_for(&self, punit: &Arc<PlanUnit>) -> (u64, u64) {
        let mut cache = self.count_cache.borrow_mut();
        let key = punit.unit.index;
        if let Some((cached_unit, counts)) = cache.get(&key) {
            if Arc::ptr_eq(cached_unit, punit) {
                return *counts;
            }
        }
        let counts = count_planned(self.tiled, punit);
        cache.insert(key, (Arc::clone(punit), counts));
        counts
    }

    /// [`ClusterExecutor::shard`] with the dense plan's shards cached:
    /// drivers execute the skeleton's (`Arc`-shared) full plan every MAC
    /// iteration, so its shards are derived once and reused.
    fn shards_for(&mut self, plan: &ScanPlan) -> Arc<Vec<ScanPlan>> {
        let full = self.planner.skeleton().full_plan();
        if std::ptr::eq(plan, Arc::as_ptr(&full)) {
            if let Some(cached) = &self.dense_shards {
                return Arc::clone(cached);
            }
            let shards = Arc::new(self.shard(plan));
            self.dense_shards = Some(Arc::clone(&shards));
            return shards;
        }
        Arc::new(self.shard(plan))
    }

    /// Recomposes the externally visible metrics from the nodes' current
    /// state plus the cluster-level accumulators.
    fn resync(&mut self) {
        let mut m = Metrics::new();
        for node in &self.nodes {
            m.merge(node.metrics());
        }
        m.iterations = self.iterations;
        m.elapsed = self.elapsed;
        m.net = self.net_totals;
        m.plan = self.plan_totals;
        self.metrics = m;
    }

    /// The open window's bottleneck across per-node metrics: the largest
    /// compute delta since the marks, and the largest total delta (disk
    /// overlap when a disk model is attached, compute otherwise). The
    /// single definition of "per-node iteration time" shared by
    /// [`ClusterExecutor::close_window`] and the final `take_metrics`
    /// drain, so the two cannot desynchronize.
    fn window_maxima<'m>(&self, per_node: impl Iterator<Item = &'m Metrics>) -> (Nanos, Nanos) {
        let mut max_compute = Nanos::ZERO;
        let mut max_total = Nanos::ZERO;
        for (k, m) in per_node.enumerate() {
            let compute = m.elapsed - self.elapsed_marks[k];
            let total = if self.has_disk {
                m.disk.overlapped - self.overlap_marks[k]
            } else {
                compute
            };
            max_compute = max_compute.max(compute);
            max_total = max_total.max(total);
        }
        (max_compute, max_total)
    }

    /// Closes the open iteration window against the nodes' current
    /// metrics: finds the bottleneck node, charges the queued exchange,
    /// and advances the marks.
    fn close_window(&mut self) {
        let (max_compute, max_total) = self.window_maxima(self.nodes.iter().map(|n| n.metrics()));
        for (k, node) in self.nodes.iter().enumerate() {
            let m = node.metrics();
            self.elapsed_marks[k] = m.elapsed;
            self.overlap_marks[k] = m.disk.overlapped;
        }
        let exchange = self.commit_exchange(max_compute, max_total);
        self.elapsed += max_compute + exchange;
    }

    /// Charges the queued exchange for one closed window and emits its
    /// trace span on the composed cluster clock (starting after the
    /// window's bottleneck). A one-node cluster exchanges nothing and
    /// emits nothing — preserving its bit-identity to the single engine.
    fn commit_exchange(&mut self, max_compute: Nanos, max_total: Nanos) -> Nanos {
        let bytes_before = self.net_totals.bytes_exchanged;
        let exchange = self.net.commit(max_total, &mut self.net_totals);
        if exchange > Nanos::ZERO {
            if let Some(trace) = &self.trace {
                trace.record_exchange(
                    self.elapsed + max_compute,
                    exchange,
                    self.net_totals.bytes_exchanged - bytes_before,
                );
            }
        }
        exchange
    }
}

/// Counts the set `updated` bits inside a plan's destination ranges —
/// the only places a scan of that plan can set them. Word-level popcounts
/// through the mask; dead 4096-vertex spans cost one summary probe.
fn planned_updates(plan: &ScanPlan, updated: &FrontierMask) -> u64 {
    plan.units()
        .iter()
        .map(|p| {
            let u = &p.unit;
            updated.count_range(u.dst_start, u.dst_start + u.dst_len)
        })
        .sum()
}

/// Assigns every strip unit of the dense plan to a node under `policy`,
/// given each unit's full-plan `(subgraphs, edges)` counts.
fn assign_owners(counts: &[(u64, u64)], nodes: usize, policy: OwnerPolicy) -> Vec<u32> {
    let num_units = counts.len();
    match policy {
        OwnerPolicy::RoundRobin => (0..num_units).map(|i| (i % nodes) as u32).collect(),
        OwnerPolicy::DegreeWeighted => {
            // Longest-processing-time greedy: heaviest strip first onto
            // the least-loaded node; ties break deterministically by unit
            // index and node index.
            let weights: Vec<u64> = counts.iter().map(|&(_, edges)| edges).collect();
            let mut order: Vec<usize> = (0..num_units).collect();
            order.sort_by_key(|&u| (std::cmp::Reverse(weights[u]), u));
            let mut loads = vec![0u64; nodes];
            let mut owners = vec![0u32; num_units];
            for u in order {
                let node = (0..nodes).min_by_key(|&k| (loads[k], k)).expect(">0 nodes");
                owners[u] = node as u32;
                loads[node] += weights[u];
            }
            owners
        }
    }
}

/// Counts the subgraph visits and edges a planned unit will stream.
fn count_planned(tiled: &TiledGraph, punit: &PlanUnit) -> (u64, u64) {
    let mut subgraphs = 0u64;
    let mut edges = 0u64;
    for row in &punit.rows {
        let slot = tiled.slot_subgraphs(row.block as usize, punit.unit.strip as usize);
        for &pos in &row.subgraphs {
            subgraphs += 1;
            edges += u64::from(tiled.subgraph(slot.start + pos as usize).edges());
        }
    }
    (subgraphs, edges)
}

impl ScanEngine for ClusterExecutor<'_> {
    fn plan(&mut self, active: Option<&FrontierMask>) -> Arc<ScanPlan> {
        // The cluster plans once, globally; shards are derived from the
        // planned result, so the planning cost lives at cluster level —
        // and so does the plan trace event (inner nodes never plan),
        // keeping the event stream identical to a single engine's.
        let before = self.plan_totals;
        let plan = self
            .planner
            .plan_for(self.config, active, &mut self.plan_totals);
        if let Some(trace) = &self.trace {
            trace.record_plan(&before, &self.plan_totals);
        }
        self.metrics.plan = self.plan_totals;
        plan
    }

    fn plan_with_delta(&mut self, active: &FrontierMask, delta: &FrontierDelta) -> Arc<ScanPlan> {
        let before = self.plan_totals;
        let plan = self
            .planner
            .plan_for_delta(self.config, active, delta, &mut self.plan_totals);
        if let Some(trace) = &self.trace {
            trace.record_plan(&before, &self.plan_totals);
        }
        self.metrics.plan = self.plan_totals;
        plan
    }

    fn scan_mac_planned(
        &mut self,
        plan: &ScanPlan,
        value: &EdgeValueFn<'_>,
        inputs: &[&[f64]],
    ) -> Vec<Vec<f64>> {
        let n = self.tiled.num_vertices();
        let shards = self.shards_for(plan);
        let mut outputs = vec![vec![0.0; n]; inputs.len()];
        for (node, shard) in self.nodes.iter_mut().zip(shards.iter()) {
            let local = node.scan_mac_planned(shard, value, inputs);
            // Stitch the node's owned (disjoint) destination ranges.
            for punit in shard.units() {
                let u = &punit.unit;
                if u.dst_len > 0 {
                    for (out, buf) in outputs.iter_mut().zip(&local) {
                        out[u.dst_start..u.dst_start + u.dst_len]
                            .copy_from_slice(&buf[u.dst_start..u.dst_start + u.dst_len]);
                    }
                }
            }
        }
        // MAC scans update every planned destination; those properties
        // cross the interconnect at the iteration boundary.
        self.net
            .touch(plan.units().iter().map(|p| p.unit.dst_len as u64).sum());
        self.resync();
        outputs
    }

    fn scan_add_op_lanes_planned(
        &mut self,
        plan: &ScanPlan,
        value: &EdgeValueFn<'_>,
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
        addends: &[Vec<f64>],
        active: &LaneFrontier,
        frontiers: &mut [Vec<f64>],
        updated: &mut LaneFrontier,
    ) -> u64 {
        // Every node advances all K lanes over its shard of the *union*
        // plan. Frontier-delta exchange needs the newly set `updated`
        // flags: inner engines only write planned units' (disjoint)
        // destination ranges, so counting inside those ranges is exact
        // and costs O(planned coverage), not O(|V|) — and nothing at all
        // on a one-node cluster, which exchanges nothing. The exchange
        // counts union-updated vertices: a vertex any lane lowered crosses
        // the interconnect once — lanes share the property exchange
        // exactly like they share the edge stream.
        let count = self.cluster.nodes > 1;
        let before = if count {
            planned_updates(plan, updated.union())
        } else {
            0
        };
        let shards = self.shards_for(plan);
        let mut rows = 0u64;
        for (node, shard) in self.nodes.iter_mut().zip(shards.iter()) {
            // Each node writes only its owned destination ranges of the
            // per-lane `frontiers` / `updated` lane words; the ranges are
            // disjoint.
            rows += node.scan_add_op_lanes_planned(
                shard, value, combine, addends, active, frontiers, updated,
            );
        }
        if count {
            let after = planned_updates(plan, updated.union());
            self.net.touch(after - before);
        }
        self.resync();
        rows
    }

    fn set_disk(&mut self, disk: Option<DiskModel>) {
        for node in &mut self.nodes {
            node.set_disk(disk);
        }
        self.has_disk = disk.is_some();
        // Inner set_disk commits any open per-node disk window; re-anchor
        // the overlap marks so the next cluster window starts clean.
        for (k, node) in self.nodes.iter().enumerate() {
            self.overlap_marks[k] = node.metrics().disk.overlapped;
        }
        self.resync();
    }

    fn set_trace(&mut self, trace: Option<TraceHandle>) {
        // Node k emits compute/disk spans on its own lane; plan and
        // exchange events stay cluster-level.
        for (k, node) in self.nodes.iter_mut().enumerate() {
            node.set_trace(trace.as_ref().map(|t| t.for_node(k as u32)));
        }
        self.trace = trace;
    }

    fn trace(&self) -> Option<&TraceHandle> {
        self.trace.as_ref()
    }

    fn end_iteration(&mut self) {
        for node in &mut self.nodes {
            node.end_iteration();
        }
        self.close_window();
        self.iterations += 1;
        self.resync();
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn take_metrics(&mut self) -> Metrics {
        // Drain the nodes (committing their disk windows), close the
        // cluster window against the drained state, compose, reset.
        let taken: Vec<Metrics> = self.nodes.iter_mut().map(|n| n.take_metrics()).collect();
        let (max_compute, max_total) = self.window_maxima(taken.iter());
        let window_open = max_total > Nanos::ZERO || self.net.pending_vertices > 0;
        if window_open {
            let exchange = self.commit_exchange(max_compute, max_total);
            self.elapsed += max_compute + exchange;
        }
        let mut out = Metrics::new();
        for m in &taken {
            out.merge(m);
        }
        out.iterations = self.iterations;
        out.elapsed = self.elapsed;
        out.net = self.net_totals;
        out.plan = self.plan_totals;

        self.iterations = 0;
        self.elapsed = Nanos::ZERO;
        self.net_totals = NetCounters::default();
        self.plan_totals = PlanCounters::default();
        self.elapsed_marks.fill(Nanos::ZERO);
        self.overlap_marks.fill(Nanos::ZERO);
        self.metrics = Metrics::new();
        out
    }
}

// --------------------------------------------- legacy dense-exchange model

/// Scaling estimate for one algorithm run on a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiNodeEstimate {
    /// Nodes in the estimate.
    pub nodes: usize,
    /// Single-node runtime of the same workload (the baseline).
    pub single_node_time: Nanos,
    /// Slowest node's scan time across the run.
    pub bottleneck_scan_time: Nanos,
    /// Total property-exchange time across the run.
    pub exchange_time: Nanos,
    /// Estimated cluster runtime (`bottleneck + exchange`).
    pub total_time: Nanos,
    /// Compute energy summed over nodes plus interconnect energy.
    pub total_energy: Joules,
    /// `single_node_time / total_time`.
    pub speedup: f64,
}

impl MultiNodeEstimate {
    /// Total property bytes the dense all-gather exchanges across the run
    /// — the upper bound the plan-aware
    /// [`Metrics::net`](crate::metrics::NetCounters) accounting of a
    /// [`ClusterExecutor`] run never exceeds.
    #[must_use]
    pub fn dense_exchange_bytes(num_vertices: usize, iterations: usize) -> u64 {
        num_vertices as u64 * BYTES_PER_PROPERTY * iterations as u64
    }
}

/// Estimates multi-node PageRank scaling with the **legacy dense
/// all-gather** model: each node's scan workload runs through the real
/// executor (on a physically partitioned edge list), and every iteration
/// is synchronised by a full `|V| × 2`-byte property all-gather —
/// the multi-node analogue of
/// [`estimate_out_of_core`](crate::outofcore::estimate_out_of_core)'s
/// dense restream, kept as the documented upper bound the plan-aware
/// [`ClusterExecutor`] is compared against.
///
/// # Errors
///
/// Returns [`SimError`] if the configuration is invalid.
///
/// # Panics
///
/// Panics if `cluster.nodes` is zero.
pub fn estimate_pagerank_scaling(
    graph: &EdgeList,
    config: &GraphRConfig,
    cluster: &MultiNodeConfig,
    opts: &PageRankOptions,
) -> Result<MultiNodeEstimate, SimError> {
    assert!(cluster.nodes > 0, "a cluster needs at least one node");
    let single = run_pagerank(graph, config, opts)?;
    let iterations = single.metrics.iterations.max(1);

    // Per-node workloads: same iteration count, disjoint destination sets.
    let mut bottleneck = Nanos::ZERO;
    let mut compute_energy = Joules::ZERO;
    let fixed_iter_opts = PageRankOptions {
        max_iterations: iterations,
        tolerance: 0.0,
        ..*opts
    };
    for part in partition_by_strip(graph, config, cluster.nodes) {
        if part.num_edges() == 0 {
            continue;
        }
        let node_run = run_pagerank(&part, config, &fixed_iter_opts)?;
        bottleneck = bottleneck.max(node_run.metrics.total_time());
        compute_energy += node_run.metrics.total_energy();
    }

    // All-gather of 16-bit properties once per iteration: each node sends
    // its owned slice to every other node; with a switch this is |V|·2
    // bytes in and out per node.
    let bytes_per_exchange = (graph.num_vertices() as u64 * BYTES_PER_PROPERTY) as f64;
    let per_exchange =
        cluster.exchange_latency + Nanos::new(bytes_per_exchange / cluster.interconnect_gbps);
    let exchange_time = per_exchange * iterations as f64;
    let exchange_energy =
        cluster.energy_per_byte * (bytes_per_exchange * cluster.nodes as f64 * iterations as f64);

    let total_time = bottleneck + exchange_time;
    Ok(MultiNodeEstimate {
        nodes: cluster.nodes,
        single_node_time: single.metrics.total_time(),
        bottleneck_scan_time: bottleneck,
        exchange_time,
        total_time,
        total_energy: compute_energy + exchange_energy,
        speedup: single.metrics.total_time().ratio(total_time),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{run_pagerank_with, run_sssp, run_sssp_with, TraversalOptions};
    use graphr_graph::generators::rmat::Rmat;

    fn config() -> GraphRConfig {
        GraphRConfig::builder()
            .crossbar_size(4)
            .crossbars_per_ge(8)
            .num_ges(2)
            .build()
            .unwrap()
    }

    fn graph() -> EdgeList {
        Rmat::new(600, 4000).seed(21).self_loops(false).generate()
    }

    #[test]
    fn partition_conserves_edges_and_separates_destinations() {
        let g = graph();
        let cfg = config();
        let parts = partition_by_strip(&g, &cfg, 4);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(EdgeList::num_edges).sum();
        assert_eq!(total, g.num_edges());
        let width = cfg.strip_width();
        for (k, part) in parts.iter().enumerate() {
            for e in part.iter() {
                assert_eq!((e.dst as usize / width) % 4, k);
            }
        }
    }

    #[test]
    fn scaling_beats_single_node_and_saturates() {
        let g = graph();
        let cfg = config();
        let opts = PageRankOptions {
            max_iterations: 5,
            tolerance: 0.0,
            ..PageRankOptions::default()
        };
        let two =
            estimate_pagerank_scaling(&g, &cfg, &MultiNodeConfig::pcie_cluster(2), &opts).unwrap();
        let eight =
            estimate_pagerank_scaling(&g, &cfg, &MultiNodeConfig::pcie_cluster(8), &opts).unwrap();
        assert!(two.speedup > 1.0, "two nodes should help: {}", two.speedup);
        assert!(
            eight.speedup >= two.speedup * 0.9,
            "more nodes should not badly regress"
        );
        assert!(
            eight.speedup < 8.0,
            "exchange cost must prevent perfect scaling"
        );
        assert!(eight.exchange_time > two.exchange_time * 0.9);
    }

    #[test]
    fn one_node_cluster_has_no_advantage() {
        let g = graph();
        let cfg = config();
        let opts = PageRankOptions {
            max_iterations: 3,
            tolerance: 0.0,
            ..PageRankOptions::default()
        };
        let one =
            estimate_pagerank_scaling(&g, &cfg, &MultiNodeConfig::pcie_cluster(1), &opts).unwrap();
        assert!(
            one.speedup <= 1.0 + 1e-9,
            "one node plus exchange cannot beat one node: {}",
            one.speedup
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let _ = MultiNodeConfig::pcie_cluster(0);
    }

    #[test]
    fn one_node_cluster_is_bit_identical_to_single_engine() {
        let g = graph();
        let cfg = config();
        let opts = PageRankOptions {
            max_iterations: 4,
            tolerance: 0.0,
            ..PageRankOptions::default()
        };
        let single = run_pagerank(&g, &cfg, &opts).unwrap();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let mut cluster = ClusterExecutor::new(
            &tiled,
            &cfg,
            opts.matrix_spec,
            MultiNodeConfig::pcie_cluster(1),
        );
        let run = run_pagerank_with(&g, &mut cluster, &opts).unwrap();
        assert_eq!(run.values, single.values);
        assert_eq!(run.metrics, single.metrics, "full Metrics must agree");
        assert!(!run.metrics.net.is_active());
    }

    #[test]
    fn cluster_results_match_single_node_across_node_counts() {
        let g = graph();
        let cfg = config();
        let opts = TraversalOptions::default();
        let single = run_sssp(&g, &cfg, &opts).unwrap();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        for nodes in [2usize, 3, 5] {
            let mut cluster = ClusterExecutor::new(
                &tiled,
                &cfg,
                opts.spec,
                MultiNodeConfig::pcie_cluster(nodes),
            );
            let run = run_sssp_with(&g, &mut cluster, &opts).unwrap();
            assert_eq!(run.distances, single.distances, "{nodes} nodes");
            // Per-node event accounting sums back to the single-node scan.
            assert_eq!(run.metrics.events, single.metrics.events, "{nodes} nodes");
            assert_eq!(run.metrics.iterations, single.metrics.iterations);
            assert!(run.metrics.net.is_active(), "{nodes} nodes must exchange");
        }
    }

    #[test]
    fn shard_stats_sum_to_the_global_plan() {
        let g = graph();
        let cfg = config();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let spec = FixedSpec::new(16, 0).unwrap();
        let mut cluster =
            ClusterExecutor::new(&tiled, &cfg, spec, MultiNodeConfig::pcie_cluster(3));
        let mut mask = FrontierMask::new(tiled.num_vertices());
        for v in (0..tiled.num_vertices()).step_by(7) {
            mask.set(v);
        }
        for plan in [
            cluster.plan(None),
            cluster.plan(Some(&mask)),
            cluster.plan(Some(&FrontierMask::new(tiled.num_vertices()))),
        ] {
            let shards = cluster.shard(&plan);
            assert_eq!(shards.len(), 3);
            let mut sum = PlanStats::default();
            let mut unit_indices = Vec::new();
            for shard in &shards {
                let s = shard.stats();
                sum.units_planned += s.units_planned;
                sum.units_pruned += s.units_pruned;
                sum.subgraphs_planned += s.subgraphs_planned;
                sum.subgraphs_pruned += s.subgraphs_pruned;
                sum.edges_planned += s.edges_planned;
                sum.edges_pruned += s.edges_pruned;
                unit_indices.extend(shard.units().iter().map(|p| p.unit.index));
            }
            assert_eq!(&sum, plan.stats(), "shard stats must sum to the plan's");
            unit_indices.sort_unstable();
            let mut expected: Vec<usize> = plan.units().iter().map(|p| p.unit.index).collect();
            expected.sort_unstable();
            assert_eq!(unit_indices, expected, "shards partition the units");
        }
    }

    #[test]
    fn degree_weighted_ownership_is_invisible_and_tightens_the_bottleneck() {
        let g = graph();
        let cfg = config();
        let opts = TraversalOptions::default();
        let single = run_sssp(&g, &cfg, &opts).unwrap();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let rr_cfg = MultiNodeConfig::pcie_cluster(3);
        let deg_cfg = rr_cfg.with_owner(OwnerPolicy::DegreeWeighted);
        assert_eq!(OwnerPolicy::by_name("degree"), Some(deg_cfg.owner));

        // Ownership must be invisible in results and summed accounting.
        let mut cluster = ClusterExecutor::new(&tiled, &cfg, opts.spec, deg_cfg);
        let run = run_sssp_with(&g, &mut cluster, &opts).unwrap();
        assert_eq!(run.distances, single.distances);
        assert_eq!(run.metrics.events, single.metrics.events);
        assert!(run.metrics.net.is_active());

        // On the full plan, the degree-weighted bottleneck (max per-node
        // planned edges) never exceeds round-robin's.
        let rr = ClusterExecutor::new(&tiled, &cfg, opts.spec, rr_cfg);
        let deg = ClusterExecutor::new(&tiled, &cfg, opts.spec, deg_cfg);
        let full = deg.planner.skeleton().full_plan();
        let max_edges = |cl: &ClusterExecutor<'_>| {
            cl.shard(&full)
                .iter()
                .map(|s| s.stats().edges_planned)
                .max()
                .unwrap()
        };
        assert!(
            max_edges(&deg) <= max_edges(&rr),
            "LPT assignment must not worsen the bottleneck: {} vs {}",
            max_edges(&deg),
            max_edges(&rr)
        );
    }

    #[test]
    fn one_node_degree_cluster_is_bit_identical_too() {
        let g = graph();
        let cfg = config();
        let opts = PageRankOptions {
            max_iterations: 3,
            tolerance: 0.0,
            ..PageRankOptions::default()
        };
        let single = run_pagerank(&g, &cfg, &opts).unwrap();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let mut cluster = ClusterExecutor::new(
            &tiled,
            &cfg,
            opts.matrix_spec,
            MultiNodeConfig::pcie_cluster(1).with_owner(OwnerPolicy::DegreeWeighted),
        );
        let run = run_pagerank_with(&g, &mut cluster, &opts).unwrap();
        assert_eq!(run.values, single.values);
        assert_eq!(run.metrics, single.metrics);
    }

    #[test]
    fn cluster_fused_lanes_match_single_engine() {
        use crate::sim::{run_sssp_lanes, run_sssp_lanes_with, LaneTraversalOptions};
        let g = graph();
        let cfg = config();
        let opts = LaneTraversalOptions::new(vec![0, 7, 400]);
        let single = run_sssp_lanes(&g, &cfg, &opts).unwrap();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        for nodes in [1usize, 3] {
            let mut cluster = ClusterExecutor::new(
                &tiled,
                &cfg,
                opts.spec,
                MultiNodeConfig::pcie_cluster(nodes),
            );
            let run = run_sssp_lanes_with(&g, &mut cluster, &opts).unwrap();
            assert_eq!(run.distances, single.distances, "{nodes} nodes");
            assert_eq!(run.metrics.events, single.metrics.events, "{nodes} nodes");
            assert_eq!(run.metrics.lanes, single.metrics.lanes, "{nodes} nodes");
            if nodes == 1 {
                assert_eq!(run.metrics, single.metrics, "one node is bit-identical");
                assert!(!run.metrics.net.is_active());
            } else {
                assert!(run.metrics.net.is_active(), "{nodes} nodes must exchange");
            }
        }
    }

    #[test]
    fn plan_aware_exchange_never_exceeds_dense_all_gather() {
        let g = graph();
        let cfg = config();
        let opts = TraversalOptions::default();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let mut cluster =
            ClusterExecutor::new(&tiled, &cfg, opts.spec, MultiNodeConfig::pcie_cluster(4));
        let run = run_sssp_with(&g, &mut cluster, &opts).unwrap();
        let dense =
            MultiNodeEstimate::dense_exchange_bytes(g.num_vertices(), run.metrics.iterations);
        assert!(
            run.metrics.net.bytes_exchanged < dense,
            "frontier-delta exchange must beat the all-gather: {} vs {}",
            run.metrics.net.bytes_exchanged,
            dense
        );
        assert!(run.metrics.net.bytes_exchanged > 0);
        assert!(run.metrics.net.overlapped >= run.metrics.net.time);
    }
}
