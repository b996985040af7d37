//! Out-of-core disk modelling (Figure 9's workflow), plan-aware.
//!
//! In the paper's evaluation graphs fit in memory and disk I/O is excluded
//! (§5.2), but the architecture is explicitly a **drop-in accelerator for
//! out-of-core frameworks**: blocks of the §3.4-ordered edge list load from
//! disk strictly sequentially and stream through the node. This module
//! prices that loading so the drop-in story can be examined.
//!
//! Two models are provided:
//!
//! * [`IoPlan`] + [`DiskAccountant`] — the **plan-aware, per-iteration**
//!   model. Each iteration's [`ScanPlan`] already names exactly which
//!   subgraphs of the ordered edge list the scan will stream; deriving an
//!   [`IoPlan`] from it turns contiguous planned spans into sequential-read
//!   segments and pruned subgraphs into seeks past their bytes (a pruned
//!   block is charged only [`DiskModel::per_block_latency`], never its
//!   data). The accountant accumulates the result into
//!   [`Metrics::disk`](crate::metrics::Metrics) and overlaps each
//!   iteration's loads against that iteration's compute.
//! * [`driver::ScanDriver`] — the **pipelined I/O lane** on top of the
//!   per-iteration model, enabled by [`DiskModel::prefetch`] (the
//!   `-pipe` drive names). A frontier-pruned plan is only known once
//!   the previous frontier has settled, so an *exact* prefetch cannot
//!   reach across iterations — but consecutive frontiers overlap, so the
//!   bulk of the next plan is *predictable*: at each window
//!   commit the driver exports the window's planned ordinals as
//!   candidates, spends the window's idle I/O-lane time reading a
//!   greedy prefix of them ahead, and serves the next iteration's scans
//!   from the read-ahead buffer at zero marginal latency, synchronously
//!   fetching only the delta. Full-plan counters stay bit-identical;
//!   [`DiskCounters::demand_time`] and the `overlapped` clock carry the
//!   improvement.
//! * [`estimate_out_of_core`] — the **legacy aggregate** estimate, kept as
//!   the dense upper bound: it assumes every iteration re-streams the
//!   entire ordered edge list, which is exact for the dense MAC
//!   applications (PageRank, SpMV, CF) and pessimistic for traversal
//!   workloads whose pruned plans skip most blocks on sparse frontiers.
//!
//! Because the preprocessed order makes every planned access sequential,
//! loads double-buffer against computation; the per-iteration model shows
//! the *regime change* both ways: a dense deployment is disk-bound (GraphR
//! outruns the drive), while sparse BFS iterations can load so little that
//! the same deployment flips back to compute-bound.
//!
//! [`DiskCounters::demand_time`]: crate::metrics::DiskCounters::demand_time
//!
//! # Examples
//!
//! From a [`ScanPlan`] to an [`IoPlan`] to nanoseconds of disk time:
//!
//! ```
//! use graphr_core::exec::PlanSkeleton;
//! use graphr_core::outofcore::{DiskModel, IoPlan};
//! use graphr_core::{GraphRConfig, TiledGraph};
//! use graphr_graph::generators::structured::grid;
//!
//! let config = GraphRConfig::builder()
//!     .crossbar_size(4)
//!     .crossbars_per_ge(8)
//!     .num_ges(2)
//!     .build()?;
//! let tiled = TiledGraph::preprocess(&grid(20, 20), &config)?;
//! let skeleton = PlanSkeleton::build(&tiled);
//!
//! // The dense full plan restreams the whole ordered edge list: one
//! // sequential segment covering every byte.
//! let full = IoPlan::from_scan_plan(&tiled, &skeleton.full_plan());
//! assert_eq!(
//!     full.bytes_loaded,
//!     tiled.total_edges() as u64 * graphr_graph::BYTES_PER_EDGE
//! );
//! assert_eq!(full.segments, 1);
//! assert_eq!(full.bytes_skipped, 0);
//!
//! // A sparse frontier prunes most subgraphs; the pruned plan's IoPlan
//! // loads strictly fewer bytes and seeks past the rest.
//! let mut mask = graphr_core::exec::FrontierMask::new(tiled.num_vertices());
//! mask.set(0);
//! let sparse = IoPlan::from_scan_plan(&tiled, &skeleton.pruned_plan(&tiled, &mask));
//! assert!(sparse.bytes_loaded < full.bytes_loaded);
//! assert_eq!(sparse.bytes_loaded + sparse.bytes_skipped, full.bytes_loaded);
//!
//! // Price one iteration of each on a SATA-era drive.
//! let disk = DiskModel::sata_ssd();
//! assert!(disk.plan_time(&sparse) < disk.plan_time(&full));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`ScanPlan`]: crate::exec::plan::ScanPlan

use graphr_graph::BYTES_PER_EDGE;
use graphr_units::Nanos;
use serde::{Deserialize, Serialize};

use crate::exec::plan::ScanPlan;
use crate::metrics::Metrics;
use crate::preprocess::tiler::TiledGraph;

pub mod driver;

use driver::ScanDriver;

/// At what granularity the drive charges its fixed request latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RequestGranularity {
    /// One request per on-disk block, loaded or seeked past — the
    /// original model, kept as the default.
    #[default]
    Block,
    /// One request per contiguous sequential-read segment of the
    /// [`IoPlan`]: contiguity in the §3.4 streamed order is rewarded
    /// (one long run costs one request however many blocks it crosses),
    /// and seeked-past data costs nothing beyond the next segment's
    /// request.
    Segment,
}

/// Sequential-load characteristics of the backing store.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskModel {
    /// Sustained sequential read bandwidth, GB/s.
    pub sequential_gbps: f64,
    /// Fixed per-request latency (request issue, seek-equivalent); what
    /// counts as a request is set by [`DiskModel::granularity`].
    pub per_block_latency: Nanos,
    /// Request-charging granularity (per-block by default).
    pub granularity: RequestGranularity,
    /// Whether the accountant runs a [`driver::ScanDriver`]: the I/O
    /// lane reads previously-planned segments ahead during idle windows
    /// and later scans fetch only their delta synchronously (the
    /// `-pipe` drive names; off by default).
    pub prefetch: bool,
}

impl DiskModel {
    /// A SATA-era SSD — the out-of-core hardware of *GridGraph:
    /// Large-Scale Graph Processing on a Single Machine Using 2-Level
    /// Hierarchical Partitioning* (Zhu, Han, Chen — USENIX ATC 2015),
    /// the block-grid framework whose workflow Figure 9 drops GraphR
    /// into (see PAPERS.md, "Referenced systems").
    #[must_use]
    pub fn sata_ssd() -> Self {
        DiskModel {
            sequential_gbps: 0.5,
            per_block_latency: Nanos::from_micros(80.0),
            granularity: RequestGranularity::Block,
            prefetch: false,
        }
    }

    /// A modern NVMe drive.
    #[must_use]
    pub fn nvme() -> Self {
        DiskModel {
            sequential_gbps: 3.0,
            per_block_latency: Nanos::from_micros(15.0),
            granularity: RequestGranularity::Block,
            prefetch: false,
        }
    }

    /// Switches the model to segment-granular requests (see
    /// [`RequestGranularity::Segment`]).
    #[must_use]
    pub fn with_segment_requests(mut self) -> Self {
        self.granularity = RequestGranularity::Segment;
        self
    }

    /// Turns on the pipelined I/O lane: the accountant runs a
    /// [`driver::ScanDriver`] that reads previously-planned segments
    /// ahead during idle windows (see [`DiskModel::prefetch`]).
    #[must_use]
    pub fn with_prefetch(mut self) -> Self {
        self.prefetch = true;
        self
    }

    /// Looks a model up by its CLI/job-file name: `"sata"` or `"nvme"`
    /// (per-block requests), `"sata-seg"` or `"nvme-seg"` (the same drive
    /// with segment-granular requests); any of the four with a `-pipe`
    /// suffix (e.g. `"nvme-pipe"`, `"sata-seg-pipe"`) adds the pipelined
    /// prefetching I/O lane. `None` for anything else (including
    /// `"none"`, which callers map to "no disk model").
    #[must_use]
    pub fn by_name(name: &str) -> Option<DiskModel> {
        let (base, prefetch) = match name.strip_suffix("-pipe") {
            Some(base) => (base, true),
            None => (name, false),
        };
        let model = match base {
            "sata" => DiskModel::sata_ssd(),
            "nvme" => DiskModel::nvme(),
            "sata-seg" => DiskModel::sata_ssd().with_segment_requests(),
            "nvme-seg" => DiskModel::nvme().with_segment_requests(),
            _ => return None,
        };
        Some(if prefetch {
            model.with_prefetch()
        } else {
            model
        })
    }

    /// Time to service one scan's [`IoPlan`]: planned bytes at sequential
    /// bandwidth, plus the fixed request latency at the model's
    /// [`RequestGranularity`] — per on-disk block by default (loaded
    /// blocks pay it as the request issue, pruned blocks as the seek past
    /// them; their data is never transferred), or per sequential segment
    /// under [`RequestGranularity::Segment`], which rewards contiguity.
    ///
    /// For the dense full plan under per-block requests this is exactly
    /// the per-iteration cost of [`estimate_out_of_core`]'s legacy
    /// formula, which is what lets per-iteration accounting sum back to
    /// the aggregate estimate when no pruning occurs.
    #[must_use]
    pub fn plan_time(&self, io: &IoPlan) -> Nanos {
        let requests = match self.granularity {
            RequestGranularity::Block => io.blocks_loaded + io.blocks_seeked,
            RequestGranularity::Segment => io.segments,
        };
        Nanos::new(io.bytes_loaded as f64 / self.sequential_gbps)
            + self.per_block_latency * requests as f64
    }
}

/// The disk side of one executed [`ScanPlan`]: which parts of the ordered
/// edge list the iteration actually reads, and which it seeks past.
///
/// The §3.4 streamed order lays every nonempty subgraph's edges out
/// contiguously, and the tiler's
/// [`SourceRangeIndex`](crate::preprocess::tiler::SourceRangeIndex)
/// gives each subgraph's offset into that order — so a plan's subgraphs
/// translate directly into byte ranges of the on-disk file. Contiguous
/// planned subgraphs coalesce into sequential-read [`IoPlan::segments`];
/// pruned subgraphs contribute only [`IoPlan::bytes_skipped`] (seeked
/// past, never transferred).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IoPlan {
    /// Bytes of edge data the plan loads (planned subgraphs only).
    pub bytes_loaded: u64,
    /// Bytes of edge data the plan seeks past (pruned subgraphs).
    pub bytes_skipped: u64,
    /// Maximal contiguous sequential-read runs in the streamed order.
    pub segments: usize,
    /// On-disk blocks holding at least one planned subgraph.
    pub blocks_loaded: usize,
    /// On-disk blocks seeked past (no planned subgraph; empty blocks
    /// keep their slot in the §3.4 layout, so they count here too).
    pub blocks_seeked: usize,
}

impl IoPlan {
    /// Derives the disk plan of one scan: marks the plan's subgraphs by
    /// streamed ordinal, then walks the blocks in disk order and
    /// classifies every nonempty subgraph as loaded or seeked past.
    /// `plan` must have been built for `tiled`.
    #[must_use]
    pub fn from_scan_plan(tiled: &TiledGraph, plan: &ScanPlan) -> IoPlan {
        let mut planned = vec![false; tiled.nonempty_subgraphs()];
        for ord in plan.units().iter().flat_map(|punit| punit.ordinals(tiled)) {
            planned[ord as usize] = true;
        }
        let mut io = IoPlan::default();
        // Ordinals follow the ordered edge list exactly (asserted in the
        // tiler's layout proptest), so adjacency in this walk *is* byte
        // contiguity on disk.
        let mut in_segment = false;
        for block in 0..tiled.num_blocks() {
            let mut block_loaded = false;
            for ord in tiled.block_subgraphs(block) {
                let hit = planned[ord];
                let bytes = u64::from(tiled.subgraph(ord).edges()) * BYTES_PER_EDGE;
                if hit {
                    io.bytes_loaded += bytes;
                    if !in_segment {
                        io.segments += 1;
                    }
                    block_loaded = true;
                } else {
                    io.bytes_skipped += bytes;
                }
                in_segment = hit;
            }
            if block_loaded {
                io.blocks_loaded += 1;
            }
        }
        io.blocks_seeked = tiled.num_blocks() - io.blocks_loaded;
        io
    }

    /// The full-restream disk plan: what an engine with no plan layer
    /// loads every iteration (every nonempty subgraph, one segment).
    #[must_use]
    pub fn full_restream(tiled: &TiledGraph) -> IoPlan {
        let blocks_loaded = (0..tiled.num_blocks())
            .filter(|&b| !tiled.block_subgraphs(b).is_empty())
            .count();
        IoPlan {
            bytes_loaded: tiled.total_edges() as u64 * BYTES_PER_EDGE,
            bytes_skipped: 0,
            segments: usize::from(tiled.total_edges() > 0),
            blocks_loaded,
            blocks_seeked: tiled.num_blocks() - blocks_loaded,
        }
    }
}

/// The planned subgraph ordinals of one scan in streamed (disk) order —
/// the currency [`IoIndex`] and [`driver::ScanDriver`] trade in. A byte
/// range of the static on-disk edge list is the same range no matter
/// which plan names it, so the driver serves prefetched ordinals to any
/// later plan that wants them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PlannedSet {
    /// A full-restream plan: every nonempty subgraph is planned.
    Full,
    /// Sorted planned ordinals of a pruned plan.
    Sparse(Vec<u32>),
}

/// Once-per-graph lookup behind [`DiskAccountant`]: every nonempty
/// subgraph's block, by streamed ordinal (adjacency of ordinals ⇔ byte
/// contiguity on disk; plan units name subgraphs by ordinal, and their
/// bytes are read off the tiled graph) — so a sparse scan's [`IoPlan`] costs
/// `O(planned · log planned)` instead of a walk over the whole graph
/// ([`IoPlan::from_scan_plan`]'s general path, which this is tested
/// against).
struct IoIndex {
    /// Per-ordinal owning block index (non-decreasing along ordinals).
    block_of: Vec<u32>,
    /// Total on-disk block slots.
    total_blocks: usize,
    /// Bytes of the whole ordered edge list.
    total_bytes: u64,
    /// The dense plan's IoPlan, precomputed.
    full: IoPlan,
}

impl IoIndex {
    fn build(tiled: &TiledGraph) -> IoIndex {
        let block_of = (0..tiled.num_blocks())
            .flat_map(|b| std::iter::repeat_n(b as u32, tiled.block_subgraphs(b).len()))
            .collect();
        IoIndex {
            block_of,
            total_blocks: tiled.num_blocks(),
            total_bytes: tiled.total_edges() as u64 * BYTES_PER_EDGE,
            full: IoPlan::full_restream(tiled),
        }
    }

    /// [`IoPlan::from_scan_plan`] in time proportional to the *plan*, not
    /// the graph: planned ordinals are gathered from the plan units and
    /// sorted once; runs of consecutive ordinals are the sequential
    /// segments, block transitions count the loaded blocks.
    #[cfg(test)]
    fn io_plan(&self, tiled: &TiledGraph, plan: &ScanPlan) -> IoPlan {
        let planned = self.planned_set(tiled, plan);
        self.io_for(tiled, &planned)
    }

    /// Gathers `plan`'s ordinals into a [`PlannedSet`], sorted once.
    fn planned_set(&self, tiled: &TiledGraph, plan: &ScanPlan) -> PlannedSet {
        // Full-restream short-circuit. Deliberately *not* `plan.is_full()`:
        // a cluster shard's stats are measured against its node's share,
        // so a shard of a dense plan reports zero pruned while covering
        // only a fraction of the streamed order — compare the planned
        // count against the graph's nonempty subgraphs instead.
        if plan.stats().subgraphs_planned as usize == self.block_of.len() {
            return PlannedSet::Full;
        }
        let mut planned: Vec<u32> = Vec::with_capacity(plan.stats().subgraphs_planned as usize);
        for punit in plan.units() {
            planned.extend(punit.ordinals(tiled));
        }
        planned.sort_unstable();
        PlannedSet::Sparse(planned)
    }

    /// Prices a [`PlannedSet`]: runs of consecutive ordinals are the
    /// sequential segments, block transitions count the loaded blocks.
    fn io_for(&self, tiled: &TiledGraph, planned: &PlannedSet) -> IoPlan {
        let ordinals = match planned {
            PlannedSet::Full => return self.full,
            PlannedSet::Sparse(v) => v,
        };
        let mut io = IoPlan::default();
        let mut prev: Option<u32> = None;
        for &ord in ordinals {
            io.bytes_loaded += subgraph_bytes(tiled, ord);
            if prev != Some(ord.wrapping_sub(1)) {
                io.segments += 1;
            }
            if prev.map(|p| self.block_of[p as usize]) != Some(self.block_of[ord as usize]) {
                io.blocks_loaded += 1;
            }
            prev = Some(ord);
        }
        io.bytes_skipped = self.total_bytes - io.bytes_loaded;
        io.blocks_seeked = self.total_blocks - io.blocks_loaded;
        io
    }
}

/// Bytes of the subgraph at streamed `ordinal`.
fn subgraph_bytes(tiled: &TiledGraph, ordinal: u32) -> u64 {
    u64::from(tiled.subgraph(ordinal as usize).edges()) * BYTES_PER_EDGE
}

/// Per-iteration disk accounting for an executor: charges every executed
/// plan's [`IoPlan`] into [`Metrics::disk`] and, at each iteration
/// boundary, overlaps the iteration's accumulated disk time against the
/// compute time the iteration added to [`Metrics::elapsed`].
///
/// Both the serial and the parallel executor drive the *same* accountant
/// methods from the same call sites (one `charge_scan` per executed plan,
/// one `commit` per `end_iteration`/`take_metrics`), so their disk
/// accounting is bit-identical by construction — the same contract the
/// plan-order metrics merge establishes for compute accounting.
pub struct DiskAccountant {
    model: DiskModel,
    /// `Metrics::elapsed` when the current iteration window opened.
    window_start: Nanos,
    /// Disk time accumulated by this window's scans (full-plan pricing,
    /// unaffected by prefetch — the counters' stable baseline).
    pending: Nanos,
    /// Disk time the window's compute actually waits on: the demand
    /// remainder after the [`ScanDriver`] served what it read ahead.
    /// Equals `pending` when no driver is running (or nothing was hot).
    pending_demand: Nanos,
    /// The pipelined I/O lane — `Some` iff [`DiskModel::prefetch`].
    driver: Option<ScanDriver>,
    /// Byte/block/segment counts accumulated by this window's scans
    /// (the per-window view of what `charge_scan` added to the
    /// cumulative [`Metrics::disk`] counters).
    window: DiskWindow,
    /// Streamed-order span index, built once on the first charged scan so
    /// sparse iterations derive their [`IoPlan`] in time proportional to
    /// the plan, not the graph.
    index: Option<IoIndex>,
}

/// Summary of one closed iteration window of a [`DiskAccountant`] —
/// what [`DiskAccountant::commit`] just folded into the cumulative
/// [`Metrics::disk`] counters, exposed so the trace subsystem can emit a
/// per-iteration disk span on the simulated clock.
///
/// All fields are **simulated** quantities derived from the executed
/// plans, so windows are bit-identical across the serial and parallel
/// executors (the same accounting contract as [`Metrics`]).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DiskWindow {
    /// [`Metrics::elapsed`] when the window opened (the simulated start
    /// of both the window's compute and its double-buffered loads).
    pub start: Nanos,
    /// Compute time the window added to [`Metrics::elapsed`].
    pub compute: Nanos,
    /// Disk-load time the window's scans queued.
    pub disk: Nanos,
    /// Bytes loaded by the window's scans.
    pub bytes_loaded: u64,
    /// Blocks loaded by the window's scans.
    pub blocks_loaded: u64,
    /// Blocks seeked past by the window's scans.
    pub blocks_seeked: u64,
    /// Sequential-read segments issued by the window's scans.
    pub segments: u64,
    /// Disk time the window's compute actually waited on (`== disk`
    /// without prefetch; what the window's prefetch hits shaved off it
    /// otherwise). The window's simulated duration is
    /// `max(compute, demand)`.
    pub demand: Nanos,
    /// Simulated time the window's speculative reads occupied the I/O
    /// lane (inside the *previous* window's idle tail).
    pub prefetch: Nanos,
    /// Where on the simulated clock those speculative reads began.
    pub prefetch_start: Nanos,
    /// Bytes read ahead for this window.
    pub bytes_prefetched: u64,
    /// Prefetched runs the window's scans consumed.
    pub prefetch_hits: u64,
    /// Prefetched bytes the window discarded unread at commit.
    pub prefetch_wasted: u64,
}

impl DiskWindow {
    /// Whether the window did any disk work at all (idle windows are not
    /// worth a trace event).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.disk == Nanos::ZERO
            && self.bytes_loaded == 0
            && self.blocks_loaded == 0
            && self.blocks_seeked == 0
            && self.segments == 0
    }
}

impl DiskAccountant {
    /// Creates an accountant for `model`, opening its first iteration
    /// window at elapsed time `now` (the owning executor's current
    /// [`Metrics::elapsed`]).
    #[must_use]
    pub fn new(model: DiskModel, now: Nanos) -> Self {
        DiskAccountant {
            driver: model.prefetch.then(ScanDriver::new),
            model,
            window_start: now,
            pending: Nanos::ZERO,
            pending_demand: Nanos::ZERO,
            window: DiskWindow::default(),
            index: None,
        }
    }

    /// The disk model in force.
    #[must_use]
    pub fn model(&self) -> &DiskModel {
        &self.model
    }

    /// Charges one executed scan: derives `plan`'s [`IoPlan`], adds its
    /// byte/block counts to `metrics.disk`, and queues its load time into
    /// the current iteration window. `tiled` must be the graph every plan
    /// this accountant sees was built for (an executor's accountant only
    /// ever sees its own graph).
    pub fn charge_scan(&mut self, tiled: &TiledGraph, plan: &ScanPlan, metrics: &mut Metrics) {
        let index = self.index.get_or_insert_with(|| IoIndex::build(tiled));
        let planned = index.planned_set(tiled, plan);
        let io = index.io_for(tiled, &planned);
        let d = &mut metrics.disk;
        d.bytes_loaded += io.bytes_loaded;
        d.blocks_loaded += io.blocks_loaded as u64;
        d.blocks_seeked += io.blocks_seeked as u64;
        d.io_segments += io.segments as u64;
        let w = &mut self.window;
        w.bytes_loaded += io.bytes_loaded;
        w.blocks_loaded += io.blocks_loaded as u64;
        w.blocks_seeked += io.blocks_seeked as u64;
        w.segments += io.segments as u64;
        let full_t = self.model.plan_time(&io);
        self.pending += full_t;
        // The demand lane: with a driver, hot ordinals cost nothing and
        // only the remainder is fetched synchronously — capped at the
        // full plan's price so prefetch never slows a scan down. The
        // full-plan counters above are charged either way, keeping the
        // byte/block/segment totals bit-identical with prefetch off.
        let demand_t = match &mut self.driver {
            Some(driver) => {
                let demand_io = driver.serve(
                    &planned,
                    &io,
                    |ord| subgraph_bytes(tiled, ord),
                    &index.block_of,
                    index.total_blocks,
                    index.total_bytes,
                    &self.model,
                );
                driver.note_candidates(planned);
                self.model.plan_time(&demand_io).min(full_t)
            }
            None => full_t,
        };
        self.pending_demand += demand_t;
    }

    /// Closes the current iteration window: commits the queued disk time
    /// and the double-buffered total `max(compute, demand)` for the
    /// window, where compute is what the window added to
    /// `metrics.elapsed` and demand is the disk time compute actually
    /// waited on (all of it without prefetch; the post-serve remainder
    /// with a [`ScanDriver`] running, whose window commit also lands the
    /// prefetch counters here). Call
    /// after [`Metrics::charge_iteration`] so the controller's iteration
    /// charge lands inside the window it belongs to. Returns the closed
    /// window's summary (for the trace subsystem; callers that only
    /// account may ignore it).
    pub fn commit(&mut self, metrics: &mut Metrics) -> DiskWindow {
        let compute = metrics.elapsed - self.window_start;
        let duration = compute.max(self.pending_demand);
        metrics.disk.time += self.pending;
        metrics.disk.demand_time += self.pending_demand;
        metrics.disk.overlapped += duration;
        let mut closed = DiskWindow {
            start: self.window_start,
            compute,
            disk: self.pending,
            demand: self.pending_demand,
            ..self.window
        };
        if let Some(driver) = &mut self.driver {
            let c = driver.commit_window(self.window_start, self.pending_demand, duration);
            metrics.disk.bytes_prefetched += c.bytes_prefetched;
            metrics.disk.prefetch_hits += c.hits;
            metrics.disk.prefetch_wasted += c.wasted;
            closed.prefetch = c.issued_time;
            closed.prefetch_start = c.issued_start;
            closed.bytes_prefetched = c.bytes_prefetched;
            closed.prefetch_hits = c.hits;
            closed.prefetch_wasted = c.wasted;
        }
        self.window_start = metrics.elapsed;
        self.pending = Nanos::ZERO;
        self.pending_demand = Nanos::ZERO;
        self.window = DiskWindow::default();
        closed
    }

    /// Re-opens the window at elapsed zero — for executors whose metrics
    /// were just taken (and therefore zeroed).
    pub fn reset(&mut self) {
        self.window_start = Nanos::ZERO;
        self.pending = Nanos::ZERO;
        self.pending_demand = Nanos::ZERO;
        self.window = DiskWindow::default();
        if let Some(driver) = &mut self.driver {
            driver.reset();
        }
    }
}

/// Disk/compute composition of an out-of-core run (the legacy aggregate
/// view; the per-iteration equivalent lives in
/// [`Metrics::disk`](crate::metrics::DiskCounters)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OutOfCoreEstimate {
    /// Blocks per full pass over the graph.
    pub blocks: usize,
    /// Bytes loaded from disk per iteration (the whole ordered edge list).
    pub bytes_per_iteration: u64,
    /// Accelerator time (from the run's metrics).
    pub compute_time: Nanos,
    /// Total disk-load time across all iterations.
    pub disk_time: Nanos,
    /// Total with double-buffered loads (sequential order permits it):
    /// `max(compute, disk)`.
    pub overlapped_time: Nanos,
    /// Total without overlap: `compute + disk`.
    pub serial_time: Nanos,
}

impl OutOfCoreEstimate {
    /// Whether the disk, not the accelerator, bounds the deployment.
    #[must_use]
    pub fn is_disk_bound(&self) -> bool {
        self.disk_time > self.compute_time
    }
}

/// Prices the disk side of a run with the **legacy aggregate** model:
/// `metrics` must come from executing an algorithm over `tiled`, and every
/// iteration is assumed to re-stream the entire ordered edge list — the
/// dense upper bound.
///
/// Exact for the dense MAC applications (their full plans really do
/// restream everything); pessimistic for traversal workloads, whose
/// frontier-pruned [`ScanPlan`]s skip disk blocks — use a
/// [`DiskAccountant`] (or the runtime's disk configuration) for the
/// plan-aware per-iteration accounting, and compare against this estimate
/// to see what plan-aware loading saves.
#[must_use]
pub fn estimate_out_of_core(
    tiled: &TiledGraph,
    metrics: &Metrics,
    disk: &DiskModel,
) -> OutOfCoreEstimate {
    let blocks = tiled.num_blocks();
    let bytes_per_iteration = tiled.total_edges() as u64 * BYTES_PER_EDGE;
    let iterations = metrics.iterations.max(1) as f64;
    let per_iteration = Nanos::new(bytes_per_iteration as f64 / disk.sequential_gbps)
        + disk.per_block_latency * blocks as f64;
    let disk_time = per_iteration * iterations;
    let compute_time = metrics.total_time();
    OutOfCoreEstimate {
        blocks,
        bytes_per_iteration,
        compute_time,
        disk_time,
        overlapped_time: compute_time.max(disk_time),
        serial_time: compute_time + disk_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GraphRConfig;
    use crate::exec::mask::FrontierMask;
    use crate::exec::plan::PlanSkeleton;
    use crate::exec::planner::Planner;
    use crate::metrics::PlanCounters;
    use crate::sim::{run_pagerank, PageRankOptions};
    use graphr_graph::generators::rmat::Rmat;

    fn run() -> (TiledGraph, Metrics) {
        let g = Rmat::new(2000, 16_000).seed(3).self_loops(false).generate();
        let config = GraphRConfig::default();
        let tiled = TiledGraph::preprocess(&g, &config).unwrap();
        let pr = run_pagerank(
            &g,
            &config,
            &PageRankOptions {
                max_iterations: 10,
                tolerance: 0.0,
                ..PageRankOptions::default()
            },
        )
        .unwrap();
        (tiled, pr.metrics)
    }

    fn blocked_config() -> GraphRConfig {
        GraphRConfig::builder()
            .crossbar_size(4)
            .crossbars_per_ge(2)
            .num_ges(2)
            .spec(graphr_units::FixedSpec::new(5, 0).unwrap())
            .slicer(graphr_units::BitSlicer::new(4, 1).unwrap())
            .block_vertices(32)
            .build()
            .unwrap()
    }

    #[test]
    fn sata_deployment_is_disk_bound() {
        let (tiled, metrics) = run();
        let est = estimate_out_of_core(&tiled, &metrics, &DiskModel::sata_ssd());
        assert!(
            est.is_disk_bound(),
            "GraphR should outrun a SATA SSD: compute {} vs disk {}",
            est.compute_time,
            est.disk_time
        );
        assert_eq!(est.bytes_per_iteration, 16_000 * 12);
        assert_eq!(est.overlapped_time, est.disk_time);
        assert!(est.serial_time > est.overlapped_time);
    }

    #[test]
    fn faster_disks_shrink_the_gap() {
        let (tiled, metrics) = run();
        let sata = estimate_out_of_core(&tiled, &metrics, &DiskModel::sata_ssd());
        let nvme = estimate_out_of_core(&tiled, &metrics, &DiskModel::nvme());
        assert!(nvme.disk_time < sata.disk_time);
        assert_eq!(nvme.compute_time, sata.compute_time);
        assert!(nvme.overlapped_time <= sata.overlapped_time);
    }

    #[test]
    fn overlap_never_beats_either_component() {
        let (tiled, metrics) = run();
        let est = estimate_out_of_core(&tiled, &metrics, &DiskModel::nvme());
        assert!(est.overlapped_time >= est.compute_time);
        assert!(est.overlapped_time >= est.disk_time);
        assert_eq!(
            est.serial_time.as_nanos(),
            est.compute_time.as_nanos() + est.disk_time.as_nanos()
        );
    }

    #[test]
    fn dense_io_plan_matches_full_restream_and_legacy_cost() {
        let g = Rmat::new(120, 700).seed(5).generate();
        let tiled = TiledGraph::preprocess(&g, &blocked_config()).unwrap();
        let skeleton = PlanSkeleton::build(&tiled);
        let dense = IoPlan::from_scan_plan(&tiled, &skeleton.full_plan());
        assert_eq!(dense, IoPlan::full_restream(&tiled));
        assert_eq!(dense.bytes_loaded, 700 * BYTES_PER_EDGE);
        assert_eq!(dense.bytes_skipped, 0);
        assert_eq!(dense.segments, 1, "dense restream is one sequential run");
        assert_eq!(
            dense.blocks_loaded + dense.blocks_seeked,
            tiled.num_blocks()
        );
        // One dense iteration prices exactly like the legacy formula.
        let disk = DiskModel::sata_ssd();
        let legacy = Nanos::new(dense.bytes_loaded as f64 / disk.sequential_gbps)
            + disk.per_block_latency * tiled.num_blocks() as f64;
        assert_eq!(disk.plan_time(&dense), legacy);
    }

    #[test]
    fn pruned_io_plan_partitions_the_bytes_and_costs_less() {
        let g = Rmat::new(120, 700).seed(5).generate();
        let tiled = TiledGraph::preprocess(&g, &blocked_config()).unwrap();
        let skeleton = PlanSkeleton::build(&tiled);
        let dense = IoPlan::from_scan_plan(&tiled, &skeleton.full_plan());
        let mut mask = FrontierMask::new(120);
        for v in (0..120).step_by(29) {
            mask.set(v);
        }
        let pruned = IoPlan::from_scan_plan(&tiled, &skeleton.pruned_plan(&tiled, &mask));
        assert_eq!(
            pruned.bytes_loaded + pruned.bytes_skipped,
            dense.bytes_loaded
        );
        assert!(pruned.bytes_loaded < dense.bytes_loaded);
        assert_eq!(
            pruned.blocks_loaded + pruned.blocks_seeked,
            tiled.num_blocks()
        );
        let disk = DiskModel::nvme();
        assert!(disk.plan_time(&pruned) < disk.plan_time(&dense));
    }

    #[test]
    fn empty_plan_only_seeks() {
        let g = Rmat::new(90, 400).seed(8).generate();
        let tiled = TiledGraph::preprocess(&g, &blocked_config()).unwrap();
        let skeleton = PlanSkeleton::build(&tiled);
        let io = IoPlan::from_scan_plan(
            &tiled,
            &skeleton.pruned_plan(&tiled, &FrontierMask::new(90)),
        );
        assert_eq!(io.bytes_loaded, 0);
        assert_eq!(io.segments, 0);
        assert_eq!(io.blocks_loaded, 0);
        assert_eq!(io.blocks_seeked, tiled.num_blocks());
        assert_eq!(io.bytes_skipped, 400 * BYTES_PER_EDGE);
        // Seeking past everything still pays the per-block request issue.
        let disk = DiskModel::sata_ssd();
        assert_eq!(
            disk.plan_time(&io),
            disk.per_block_latency * tiled.num_blocks() as f64
        );
    }

    #[test]
    fn indexed_io_plan_matches_the_general_walk() {
        // The accountant's O(planned)-path must agree with the
        // whole-graph walk for dense, sparse, empty and delta-patched
        // plans alike.
        let g = Rmat::new(140, 900).seed(21).generate();
        let tiled = TiledGraph::preprocess(&g, &blocked_config()).unwrap();
        let skeleton = PlanSkeleton::build(&tiled);
        let index = IoIndex::build(&tiled);
        assert_eq!(
            index.io_plan(&tiled, &skeleton.full_plan()),
            IoPlan::from_scan_plan(&tiled, &skeleton.full_plan())
        );
        for seed in 0u64..12 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let dense: Vec<bool> = (0..140)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1);
                    (state >> 33) % 4 == 0
                })
                .collect();
            let plan = skeleton.pruned_plan(&tiled, &FrontierMask::from_slice(&dense));
            assert_eq!(
                index.io_plan(&tiled, &plan),
                IoPlan::from_scan_plan(&tiled, &plan),
                "indexed and walked IoPlans diverged (seed {seed})"
            );
        }
        let empty = skeleton.pruned_plan(&tiled, &FrontierMask::new(140));
        assert_eq!(
            index.io_plan(&tiled, &empty),
            IoPlan::from_scan_plan(&tiled, &empty)
        );

        // Overlapping frontiers through the incremental planner: the
        // later plans mix carried-over and re-derived units.
        let g = graphr_graph::generators::structured::grid(16, 16);
        let cfg = blocked_config();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let n = tiled.num_vertices();
        let mut planner = Planner::new(&tiled, std::sync::Arc::new(PlanSkeleton::build(&tiled)));
        let mut counters = PlanCounters::default();
        let index = IoIndex::build(&tiled);
        let mask1 = FrontierMask::from_slice(&(0..n).map(|v| v < n / 2).collect::<Vec<_>>());
        let mask2 =
            FrontierMask::from_slice(&(0..n).map(|v| v > 4 && v < n / 2 + 4).collect::<Vec<_>>());
        for mask in [&mask1, &mask2, &mask1] {
            let plan = planner.plan_for(&cfg, Some(mask), &mut counters);
            assert_eq!(
                index.io_plan(&tiled, &plan),
                IoPlan::from_scan_plan(&tiled, &plan),
                "delta-patched plans must price like the general walk"
            );
        }
        assert!(counters.delta_patches > 0, "frontiers must have patched");
    }

    #[test]
    fn segment_requests_reward_contiguity_and_keep_block_default() {
        let g = Rmat::new(120, 700).seed(5).generate();
        let tiled = TiledGraph::preprocess(&g, &blocked_config()).unwrap();
        let skeleton = PlanSkeleton::build(&tiled);
        let dense = IoPlan::from_scan_plan(&tiled, &skeleton.full_plan());

        // The default stays per-block: `by_name` without the -seg suffix
        // must price exactly as before.
        let block = DiskModel::by_name("sata").unwrap();
        assert_eq!(block.granularity, RequestGranularity::Block);
        let legacy = Nanos::new(dense.bytes_loaded as f64 / block.sequential_gbps)
            + block.per_block_latency * tiled.num_blocks() as f64;
        assert_eq!(block.plan_time(&dense), legacy);

        // Segment granularity: the dense restream is one contiguous run,
        // so it pays one request instead of one per block.
        let seg = DiskModel::by_name("sata-seg").unwrap();
        assert_eq!(seg.granularity, RequestGranularity::Segment);
        assert_eq!(
            seg.plan_time(&dense),
            Nanos::new(dense.bytes_loaded as f64 / seg.sequential_gbps) + seg.per_block_latency
        );
        assert!(seg.plan_time(&dense) <= block.plan_time(&dense));

        // A fragmented pruned plan pays one request per segment — still
        // charged for its fragmentation, never for seeked-past data.
        let mut mask = FrontierMask::new(120);
        for v in (0..120).step_by(29) {
            mask.set(v);
        }
        let pruned = IoPlan::from_scan_plan(&tiled, &skeleton.pruned_plan(&tiled, &mask));
        assert_eq!(
            seg.plan_time(&pruned),
            Nanos::new(pruned.bytes_loaded as f64 / seg.sequential_gbps)
                + seg.per_block_latency * pruned.segments as f64
        );
    }

    #[test]
    fn accountant_overlaps_per_iteration() {
        let g = Rmat::new(90, 400).seed(8).generate();
        let tiled = TiledGraph::preprocess(&g, &blocked_config()).unwrap();
        let skeleton = PlanSkeleton::build(&tiled);
        let disk = DiskModel::sata_ssd();
        let mut metrics = Metrics::new();
        let mut acc = DiskAccountant::new(disk, Nanos::ZERO);

        // Iteration 1: dense scan, tiny compute → disk-bound window.
        let full = skeleton.full_plan();
        acc.charge_scan(&tiled, &full, &mut metrics);
        metrics.elapsed += Nanos::new(10.0);
        acc.commit(&mut metrics);
        let d1 = disk.plan_time(&IoPlan::full_restream(&tiled));
        assert_eq!(metrics.disk.time, d1);
        assert_eq!(metrics.disk.overlapped, d1.max(Nanos::new(10.0)));

        // Iteration 2: everything pruned, huge compute → compute-bound.
        let none = skeleton.pruned_plan(&tiled, &FrontierMask::new(90));
        acc.charge_scan(&tiled, &none, &mut metrics);
        let big = Nanos::from_millis(5.0);
        metrics.elapsed += big;
        acc.commit(&mut metrics);
        assert_eq!(metrics.disk.bytes_loaded, 400 * BYTES_PER_EDGE);
        assert!(metrics.disk.overlapped >= d1 + big);
        assert!(metrics.disk.time < metrics.disk.overlapped);
    }

    #[test]
    fn accountant_prefetch_serves_a_static_replay_for_free() {
        let g = Rmat::new(90, 400).seed(8).generate();
        let tiled = TiledGraph::preprocess(&g, &blocked_config()).unwrap();
        let skeleton = PlanSkeleton::build(&tiled);
        let disk = DiskModel::sata_ssd().with_prefetch();
        let mut metrics = Metrics::new();
        let mut acc = DiskAccountant::new(disk, Nanos::ZERO);
        let full = skeleton.full_plan();
        let d1 = disk.plan_time(&IoPlan::full_restream(&tiled));

        // Window 1: dense scan with compute rich enough that the idle
        // tail funds reading the whole next round ahead.
        acc.charge_scan(&tiled, &full, &mut metrics);
        metrics.elapsed += d1 * 3.0;
        let w1 = acc.commit(&mut metrics);
        assert_eq!(w1.demand, d1, "nothing was read ahead for window 1");
        assert_eq!(metrics.disk.bytes_prefetched, 0);

        // Window 2 replays the same plan: it was read ahead during
        // window 1's idle tail, so the compute lane waits on nothing.
        acc.charge_scan(&tiled, &full, &mut metrics);
        metrics.elapsed += Nanos::new(10.0);
        let w2 = acc.commit(&mut metrics);
        assert_eq!(w2.disk, d1, "full pricing is unchanged by prefetch");
        assert_eq!(w2.demand, Nanos::ZERO, "every planned byte was hot");
        assert_eq!(w2.bytes_prefetched, 400 * BYTES_PER_EDGE);
        assert_eq!(w2.prefetch_hits, 1, "one dense run, consumed once");
        assert_eq!(w2.prefetch_wasted, 0, "a static replay wastes nothing");
        assert_eq!(w2.prefetch, d1, "the read-ahead paid full price off-lane");
        assert_eq!(w2.prefetch_start, d1, "issued after window 1's demand");
        assert_eq!(metrics.disk.time, d1 + d1);
        assert_eq!(metrics.disk.demand_time, d1);
        assert_eq!(metrics.disk.overlapped, d1 * 3.0 + Nanos::new(10.0));
        metrics.validate().expect("prefetch invariants must hold");
    }

    #[test]
    fn prefetch_models_resolve_by_name_and_cap_demand() {
        let pipe = DiskModel::by_name("nvme-pipe").unwrap();
        assert!(pipe.prefetch);
        assert_eq!(
            DiskModel {
                prefetch: false,
                ..pipe
            },
            DiskModel::nvme()
        );
        let seg = DiskModel::by_name("sata-seg-pipe").unwrap();
        assert!(seg.prefetch);
        assert_eq!(seg.granularity, RequestGranularity::Segment);
        assert!(DiskModel::by_name("none-pipe").is_none());
        assert!(!DiskModel::by_name("sata").unwrap().prefetch);

        // A disk-bound cadence leaves no idle tail: the driver never
        // issues, and demand stays exactly the full price.
        let g = Rmat::new(90, 400).seed(8).generate();
        let tiled = TiledGraph::preprocess(&g, &blocked_config()).unwrap();
        let skeleton = PlanSkeleton::build(&tiled);
        let disk = DiskModel::sata_ssd().with_prefetch();
        let mut metrics = Metrics::new();
        let mut acc = DiskAccountant::new(disk, Nanos::ZERO);
        let full = skeleton.full_plan();
        for _ in 0..3 {
            acc.charge_scan(&tiled, &full, &mut metrics);
            metrics.elapsed += Nanos::new(1.0);
            let w = acc.commit(&mut metrics);
            assert_eq!(w.demand, w.disk, "no idle time → nothing served hot");
            assert_eq!(w.bytes_prefetched, 0);
        }
        assert_eq!(metrics.disk.demand_time, metrics.disk.time);
        assert_eq!(metrics.disk.prefetch_wasted, 0);
        metrics
            .validate()
            .expect("disk-bound cadence must validate");
    }
}
