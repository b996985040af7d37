//! The streaming-apply execution model (paper §3.3).
//!
//! [`streaming::StreamingExecutor`] walks a [`TiledGraph`] in the §3.4
//! order, programs subgraphs into the (scratch) graph engines, evaluates
//! them in one of the two mapping patterns — parallel MAC (§4.1) or
//! parallel add-op (§4.2) — reduces on the fly through the sALU into RegO,
//! and charges every event to the [`Metrics`].
//!
//! [`plan`] is the plan/execute split: a [`plan::ScanPlan`] names the
//! [`strip::StripUnit`]s — and, within each, the block rows and subgraphs —
//! one scan will visit. The dense scan is the trivial full plan; sparse
//! iterations build a plan pruned by the frontier's active mask through the
//! tiler's source-range index, so work (and every [`Metrics`] charge) is
//! proportional to planned, not total, edges.
//!
//! [`mask`] is the frontier representation every layer shares: a
//! hierarchical [`mask::FrontierMask`] bitset (packed words plus a
//! summary level, `O(1)` popcount) and the word-granular
//! [`mask::FrontierDelta`] a driver records as it flips vertices.
//!
//! [`planner`] makes that per-iteration planning *incremental*: every
//! engine owns a stateful [`planner::Planner`] that diffs each new
//! frontier against the previous one and patches the previous plan in
//! `O(|delta|)` instead of rebuilding in `O(units)`, sharing untouched
//! per-unit state by `Arc` — bit-identical plans, radically cheaper
//! planning on overlapping traversal frontiers (reported through
//! [`Metrics::plan`](crate::metrics::PlanCounters)). Drivers that hand
//! their recorded [`mask::FrontierDelta`] to
//! [`ScanEngine::plan_with_delta`] skip the mask re-scan entirely.
//!
//! [`strip`] exposes the scan's parallel-safe decomposition: one
//! [`strip::StripUnit`] per global destination strip, executed by a
//! per-worker [`strip::StripScanner`] with one kernel per mapping
//! pattern. The add-op kernel advances K ≤ 64 queries ([`lanes`]) per
//! pass; a single traversal is a one-lane run, so there is one add-op
//! path from the drivers down to the strip. [`pool`] is the scoped
//! worker pool the executor fans units out on; its thread count only
//! schedules the one per-unit path, so results and metrics are
//! bit-identical at any count by construction.
//!
//! [`ScanEngine`] abstracts over engines so the `sim` drivers can run
//! the same algorithm loops on the executor or on a simulated cluster of
//! them (`crate::multinode::ClusterExecutor`). An
//! engine may additionally carry an out-of-core
//! [`DiskModel`] (see
//! [`ScanEngine::set_disk`]): each executed plan then also charges the
//! disk side of the iteration — planned spans loaded sequentially, pruned
//! blocks seeked past — into [`Metrics::disk`](crate::metrics::DiskCounters).
//!
//! [`TiledGraph`]: crate::preprocess::tiler::TiledGraph
//! [`Metrics`]: crate::metrics::Metrics

pub mod lanes;
pub mod mask;
pub mod plan;
pub mod planner;
pub mod pool;
pub mod streaming;
pub mod strip;

pub use lanes::{LaneFrontier, MAX_LANES};
pub use mask::{FrontierDelta, FrontierMask};
pub use plan::{PlanRow, PlanSkeleton, PlanStats, PlanUnit, ScanPlan};
pub use planner::{Planner, PlannerIndex};
pub use streaming::{EdgeValueFn, StreamingExecutor};
pub use strip::{mac_rego_capacity, strip_units, StripScanner, StripUnit};

use std::sync::Arc;

use crate::metrics::Metrics;
use crate::outofcore::DiskModel;
use crate::trace::TraceHandle;

/// An executor capable of running the two streaming-apply scan
/// primitives over [`ScanPlan`]s. Implemented by the single-node
/// [`StreamingExecutor`] and by the multi-node cluster engine; the `sim`
/// drivers are generic over it.
///
/// The planned methods are the primitives; the plain [`ScanEngine::scan_mac`]
/// is a provided convenience that executes the dense full plan. Add-op
/// scans have one primitive, [`ScanEngine::scan_add_op_lanes_planned`];
/// the single-query [`ScanEngine::scan_add_op_planned`] is its provided
/// one-lane case. Every other method is required, so an engine cannot
/// forget to route planning or tracing through its own state.
pub trait ScanEngine {
    /// Builds a scan plan for this engine's preprocessed graph: the dense
    /// full plan for `None`, or one pruned to the subgraphs holding at
    /// least one vertex active under the mask. Engines route this through
    /// their stateful incremental [`planner::Planner`], which diffs the
    /// mask against the previous frontier and patches the previous plan
    /// in `O(|delta|)` when the frontiers overlap (falling back to a
    /// scratch rebuild otherwise) — bit-identical to
    /// [`plan::PlanSkeleton::pruned_plan`] either way, with the planning
    /// cost reported in [`Metrics::plan`](crate::metrics::PlanCounters).
    fn plan(&mut self, active: Option<&FrontierMask>) -> Arc<ScanPlan>;

    /// Builds the pruned plan for `active` from a driver-supplied
    /// [`FrontierDelta`] describing exactly which mask words flipped since
    /// the engine's previously planned frontier — the planner re-derives
    /// activity for only the chunks those words overlap instead of
    /// re-scanning the whole mask; see [`planner::Planner::plan_for_delta`].
    /// Bit-identical to `plan(Some(active))`.
    fn plan_with_delta(&mut self, active: &FrontierMask, delta: &FrontierDelta) -> Arc<ScanPlan>;

    /// One parallel-MAC pass (§4.1) over a plan; see
    /// [`StreamingExecutor::scan_mac_planned`].
    fn scan_mac_planned(
        &mut self,
        plan: &ScanPlan,
        value: &EdgeValueFn<'_>,
        inputs: &[&[f64]],
    ) -> Vec<Vec<f64>>;

    /// One parallel-add-op pass (§4.2) advancing all K lanes of `active`
    /// over one plan — normally the *union* plan derived from
    /// [`LaneFrontier::union`], so one scan of the planned edge stream
    /// serves every query; see
    /// [`StreamingExecutor::scan_add_op_lanes_planned`]. `addends` and
    /// `frontiers` carry one buffer per lane; lowered destinations are
    /// recorded per lane in `updated`, and a lane's label changes only
    /// where the scan sets that lane's bit, so a caller may copy back just
    /// those. Returns the per-lane row drives.
    /// This is the only add-op primitive: a single query is a one-lane
    /// run.
    ///
    /// The scan only ever sets `updated` bits, never clears one, and sets
    /// them only inside the destination windows of `plan`'s units. So the
    /// growth of `updated.union().len()` across the call is exactly the
    /// number of vertices some lane lowered; the cluster engine counts
    /// its property exchange that way.
    #[allow(clippy::too_many_arguments)]
    fn scan_add_op_lanes_planned(
        &mut self,
        plan: &ScanPlan,
        value: &EdgeValueFn<'_>,
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
        addends: &[Vec<f64>],
        active: &LaneFrontier,
        frontiers: &mut [Vec<f64>],
        updated: &mut LaneFrontier,
    ) -> u64;

    /// One single-query parallel-add-op pass over a plan: `addend` holds
    /// the current labels (read for active sources), `frontier` the next
    /// labels (min-updated in place), and `updated` gains every
    /// destination whose label dropped (bits it already holds are kept).
    /// Provided as the one-lane case of
    /// [`ScanEngine::scan_add_op_lanes_planned`], so it charges exactly
    /// what a one-lane run charges.
    #[allow(clippy::too_many_arguments)]
    fn scan_add_op_planned(
        &mut self,
        plan: &ScanPlan,
        value: &EdgeValueFn<'_>,
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
        addend: &[f64],
        active: &FrontierMask,
        frontier: &mut [f64],
        updated: &mut FrontierMask,
    ) -> u64 {
        let active = LaneFrontier::from_masks(std::slice::from_ref(active));
        let mut lane_updated = LaneFrontier::new(active.num_vertices(), 1);
        let mut frontiers = [frontier.to_vec()];
        let rows = self.scan_add_op_lanes_planned(
            plan,
            value,
            combine,
            &[addend.to_vec()],
            &active,
            &mut frontiers,
            &mut lane_updated,
        );
        frontier.copy_from_slice(&frontiers[0]);
        for v in lane_updated.union().iter() {
            updated.set(v);
        }
        rows
    }

    /// One parallel-MAC pass over the whole graph (the dense full plan).
    fn scan_mac(&mut self, value: &EdgeValueFn<'_>, inputs: &[&[f64]]) -> Vec<Vec<f64>> {
        let plan = self.plan(None);
        self.scan_mac_planned(&plan, value, inputs)
    }

    /// Attaches (or detaches, with `None`) an out-of-core disk model.
    /// While attached, every executed plan charges its
    /// [`IoPlan`](crate::outofcore::IoPlan) into
    /// [`Metrics::disk`](crate::metrics::DiskCounters), and each
    /// [`ScanEngine::end_iteration`] overlaps that iteration's loads
    /// against its compute. Attach before the first scan. Disk accounting
    /// runs on the calling thread through one
    /// [`DiskAccountant`](crate::outofcore::DiskAccountant), so it is
    /// bit-identical at any worker count.
    fn set_disk(&mut self, disk: Option<DiskModel>);

    /// Attaches (or detaches, with `None`) a trace handle: while
    /// attached, the engine emits per-iteration
    /// [`TraceData`](crate::trace::TraceData) span events (compute, disk
    /// windows, plan decisions) into the handle's sink. Tracing only
    /// *observes* the engine's [`Metrics`] — attaching a handle never
    /// changes results or accounting.
    fn set_trace(&mut self, trace: Option<TraceHandle>);

    /// The attached trace handle, if any (drivers clone it to emit their
    /// own per-iteration snapshots alongside the engine's spans).
    fn trace(&self) -> Option<&TraceHandle>;

    /// Marks the end of one algorithm iteration.
    fn end_iteration(&mut self);

    /// The metrics accumulated so far.
    fn metrics(&self) -> &Metrics;

    /// Takes the accumulated metrics, leaving zeroed ones behind.
    fn take_metrics(&mut self) -> Metrics;
}
