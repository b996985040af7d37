//! Scan plans: the plan/execute split of the streaming-apply scan.
//!
//! GraphR's sparse-workload optimisation (§4.2) is skipping subgraphs with
//! no active source. Executing that skip *after* streaming a subgraph past
//! the scanner still costs a full pass over the §3.4-ordered edge list per
//! iteration. A [`ScanPlan`] moves the decision in front of execution: the
//! per-block-row
//! [`SourceRangeIndex`](crate::preprocess::tiler::SourceRangeIndex),
//! read off the tiler's subgraph tables, is intersected
//! with the frontier's active mask once per scan, yielding the ordered list
//! of [`StripUnit`]s — restricted to the block rows and subgraphs holding
//! at least one active source — that the executors then walk. Pruned
//! subgraphs are never streamed, never charged, and are reported through
//! the `subgraphs_pruned` / `edges_pruned` counters of
//! [`Metrics`](crate::metrics::Metrics); the dense scan is simply the
//! trivial full plan. This is the selective scheduling GridGraph-style
//! out-of-core engines apply to blocks, lowered to GraphR's subgraph
//! granularity.
//!
//! The split also names a cacheable unit: a [`PlanSkeleton`] (the unit
//! table plus the precomputed full plan) depends only on the preprocessed
//! graph, so a session can cache it alongside the [`TiledGraph`] and stamp
//! out pruned plans per iteration at mask-intersection cost.
//!
//! Determinism: a plan lists its units in merge (`index`) order and, within
//! a unit, block rows in streamed order. Serial and parallel executors
//! consume the *same* plan through the same per-unit scanner entry points
//! and merge per-unit metrics in plan order, so results and accounting stay
//! bit-identical regardless of thread count — the same contract
//! [`strip`](crate::exec::strip) established for dense scans.
//!
//! A plan also prices the *disk* side of an out-of-core iteration: because
//! the tiler's source-range index records each subgraph's byte offset into
//! the §3.4 streamed order, a `ScanPlan` translates directly into an
//! [`IoPlan`](crate::outofcore::IoPlan) — contiguous planned spans become
//! sequential reads, pruned subgraphs become seeks (see
//! [`crate::outofcore`]).
//!
//! # Examples
//!
//! Build a skeleton once, stamp out a frontier-pruned plan, and derive the
//! iteration's disk plan from it:
//!
//! ```
//! use graphr_core::exec::plan::PlanSkeleton;
//! use graphr_core::outofcore::IoPlan;
//! use graphr_core::{GraphRConfig, TiledGraph};
//! use graphr_graph::generators::rmat::Rmat;
//!
//! let graph = Rmat::new(200, 1200).seed(7).generate();
//! let config = GraphRConfig::builder()
//!     .crossbar_size(4)
//!     .crossbars_per_ge(8)
//!     .num_ges(2)
//!     .build()?;
//! let tiled = TiledGraph::preprocess(&graph, &config)?;
//! let skeleton = PlanSkeleton::build(&tiled);
//!
//! // A sparse frontier: only vertex 3 is active.
//! let mut active = graphr_core::exec::mask::FrontierMask::new(200);
//! active.set(3);
//! let plan = skeleton.pruned_plan(&tiled, &active);
//! let stats = plan.stats();
//! assert!(stats.subgraphs_pruned > 0, "most subgraphs hold no active source");
//! assert_eq!(
//!     stats.edges_planned + stats.edges_pruned,
//!     tiled.total_edges() as u64
//! );
//!
//! // The same plan, seen from the disk: planned spans load, pruned
//! // subgraphs are seeked past.
//! let io = IoPlan::from_scan_plan(&tiled, &plan);
//! assert_eq!(io.bytes_loaded, stats.edges_planned * graphr_graph::BYTES_PER_EDGE);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::ops::Range;
use std::sync::Arc;

use crate::exec::mask::{range_words, set_bits, set_runs, FrontierMask, WORD_BITS};
use crate::exec::strip::{strip_units, StripUnit};
use crate::preprocess::tiler::{SubgraphSpan, TiledGraph};

/// One planned scan unit: a [`StripUnit`] plus which of its spans the scan
/// will stream, and the totals of that visit — set where the unit is built
/// or patched, so no downstream layer re-counts them.
///
/// A unit's *span table* is its nonempty subgraphs in streamed order,
/// block rows ascending: slot `k` is the `k`-th ordinal of the unit's
/// concatenated [`TiledGraph::slot_subgraphs`] ranges. The planned content
/// is a bitset over that table, so the incremental planner patches a unit
/// by flipping exactly the slots a flipped source chunk gates. Read it
/// back with [`PlanUnit::rows`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanUnit {
    /// The destination strip being scanned.
    pub unit: StripUnit,
    /// Bit `k` set iff span-table slot `k` is planned.
    spans: Box<[u64]>,
    /// Whether every block row is visited, planned subgraphs or not — the
    /// dense plan's walk, which charges strip write-back per row.
    all_rows: bool,
    /// Planned subgraph visits.
    pub subgraphs: u64,
    /// Edges inside the planned subgraphs.
    pub edges: u64,
}

impl PlanUnit {
    /// A unit with a `spans`-slot span table and nothing planned yet.
    pub(crate) fn new(unit: StripUnit, spans: usize) -> PlanUnit {
        PlanUnit {
            unit,
            spans: vec![0; spans.div_ceil(WORD_BITS)].into_boxed_slice(),
            all_rows: false,
            subgraphs: 0,
            edges: 0,
        }
    }

    /// Plans (`on`) or unplans span-table `slot`, a subgraph of `edges`
    /// edges, moving the unit's totals; the slot must currently be in the
    /// other state.
    #[inline]
    pub(crate) fn set_span(&mut self, slot: usize, edges: u32, on: bool) {
        let bit = 1u64 << (slot % WORD_BITS);
        let word = &mut self.spans[slot / WORD_BITS];
        debug_assert_eq!(*word & bit == 0, on, "span slot {slot} set twice");
        *word ^= bit;
        if on {
            self.subgraphs += 1;
            self.edges += u64::from(edges);
        } else {
            self.subgraphs -= 1;
            self.edges -= u64::from(edges);
        }
    }

    /// Whether this is a unit of the dense plan: every block row visited,
    /// every subgraph planned. Only [`PlanSkeleton::build`] makes these,
    /// and nothing patches them, so what a scan of a dense unit walks and
    /// charges depends on the unit alone. A cluster node's shard of the
    /// dense plan holds the same units.
    #[must_use]
    pub(crate) fn is_dense(&self) -> bool {
        self.all_rows
    }

    /// The block rows the scan visits, ascending, each with its planned
    /// subgraphs. A row with nothing planned is visited only by the dense
    /// plan. `tiled` must be the graph the unit was planned for.
    #[inline]
    pub fn rows<'a>(&'a self, tiled: &'a TiledGraph) -> impl Iterator<Item = PlanRow<'a>> + 'a {
        let per_side = tiled.order().blocks_per_side();
        let first_block = self.unit.bj as usize * per_side;
        let mut lo = 0;
        (first_block..first_block + per_side).filter_map(move |block| {
            let slot = tiled.slot_subgraphs(block, self.unit.strip as usize);
            let row = PlanRow {
                block: block as u32,
                first_ordinal: slot.start as u32,
                spans: &self.spans,
                lo,
                hi: lo + slot.len(),
            };
            lo = row.hi;
            (self.all_rows || row.subgraphs().next().is_some()).then_some(row)
        })
    }

    /// The planned streamed ordinals, in the order [`PlanUnit::rows`]
    /// visits them.
    #[inline]
    pub fn ordinals<'a>(&'a self, tiled: &'a TiledGraph) -> impl Iterator<Item = u32> + 'a {
        self.rows(tiled).flat_map(|row| row.subgraphs())
    }
}

/// One visited block row of a [`PlanUnit`]: which block to enter and which
/// of its strip's subgraphs to stream.
#[derive(Debug, Clone, Copy)]
pub struct PlanRow<'a> {
    /// Column-major block index (`0..`[`TiledGraph::num_blocks`]).
    pub block: u32,
    /// Streamed ordinal of the row's first span-table slot.
    first_ordinal: u32,
    spans: &'a [u64],
    /// The row's slots in the unit's span table.
    lo: usize,
    hi: usize,
}

impl<'a> PlanRow<'a> {
    /// Streamed ordinals of the planned subgraphs, ascending — all inside
    /// [`TiledGraph::slot_subgraphs`]`(block, strip)`; read each with
    /// [`TiledGraph::subgraph`].
    #[inline]
    pub fn subgraphs(self) -> impl Iterator<Item = u32> + 'a {
        let (first, lo) = (self.first_ordinal, self.lo);
        set_bits(self.spans, lo, self.hi).map(move |slot| first + (slot - lo) as u32)
    }

    /// The planned subgraphs as maximal runs of adjacent streamed
    /// ordinals, ascending.
    #[inline]
    pub(crate) fn planned_runs(self) -> impl Iterator<Item = Range<usize>> + 'a {
        let (first, lo) = (self.first_ordinal as usize, self.lo);
        set_runs(self.spans, lo, self.hi)
            .map(move |slots| first + slots.start - lo..first + slots.end - lo)
    }

    /// Planned subgraphs in this row.
    #[must_use]
    #[inline]
    pub fn planned(&self) -> usize {
        range_words(self.spans, self.lo, self.hi)
            .map(|(_, word)| word.count_ones() as usize)
            .sum()
    }

    /// Nonempty subgraphs of this row the plan excluded.
    #[must_use]
    #[inline]
    pub fn pruned(&self) -> usize {
        self.hi - self.lo - self.planned()
    }
}

/// Every span of `tiled`'s source-range index with its unit's ordinal in
/// the unit table and its slot in that unit's span table. The index lists
/// block rows ascending and streamed order within a row, so each unit
/// meets its spans in span-table order.
pub(crate) fn span_slots(
    tiled: &TiledGraph,
) -> impl Iterator<Item = (usize, usize, SubgraphSpan)> + '_ {
    let per_side = tiled.order().blocks_per_side();
    let strips_per_block = tiled.order().strips_per_block();
    // Per block: the unit ordinal of its first strip.
    let first_unit: Vec<usize> = (0..per_side)
        .flat_map(|bj| std::iter::repeat_n(bj * strips_per_block, per_side))
        .collect();
    let mut next_slot = vec![0usize; per_side * strips_per_block];
    tiled.source_index().spans().map(move |span| {
        let unit = first_unit[span.block as usize] + span.strip as usize;
        let slot = next_slot[unit];
        next_slot[unit] += 1;
        (unit, slot, span)
    })
}

/// What a plan kept and what it pruned, relative to the full scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Units with at least one planned visit.
    pub units_planned: usize,
    /// Units dropped entirely (no active source reaches their strip).
    pub units_pruned: usize,
    /// Nonempty subgraphs the plan will stream.
    pub subgraphs_planned: u64,
    /// Nonempty subgraphs excluded before streaming.
    pub subgraphs_pruned: u64,
    /// Edges inside planned subgraphs.
    pub edges_planned: u64,
    /// Edges inside pruned subgraphs.
    pub edges_pruned: u64,
}

/// An executable description of one scan: which units to run and, within
/// each, which subgraphs to stream. Built from a [`PlanSkeleton`] — dense
/// (the full plan) or pruned by an active-vertex mask — or patched from a
/// previous plan by the incremental
/// [`Planner`](crate::exec::planner::Planner).
///
/// Each unit names its subgraphs by streamed ordinal and carries its
/// planned `(subgraphs, edges)`, so the cluster layer shards and the
/// out-of-core layer prices a plan straight from its units. Units are held
/// by [`Arc`] so derived plans share them instead of cloning: the
/// incremental planner carries untouched units between consecutive plans,
/// and the cluster layer's shards are `Arc` clones of the global plan's
/// units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanPlan {
    units: Vec<Arc<PlanUnit>>,
    stats: PlanStats,
}

impl ScanPlan {
    /// Assembles a plan from already-derived parts. Crate-internal: used
    /// by layers that derive new plans from an existing one (the cluster
    /// layer's per-node shards, the incremental planner's patches) and
    /// therefore already hold consistent stats.
    pub(crate) fn from_parts(units: Vec<Arc<PlanUnit>>, stats: PlanStats) -> ScanPlan {
        ScanPlan { units, stats }
    }

    /// The planned units in merge order.
    #[must_use]
    pub fn units(&self) -> &[Arc<PlanUnit>] {
        &self.units
    }

    /// Pruning statistics of this plan.
    #[must_use]
    pub fn stats(&self) -> &PlanStats {
        &self.stats
    }

    /// Whether this plan prunes nothing (a dense scan).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.stats.subgraphs_pruned == 0 && self.stats.units_pruned == 0
    }
}

/// The reusable part of planning: the unit table of a preprocessed graph
/// plus its precomputed full plan. Depends only on the [`TiledGraph`], so
/// it can be built once and cached alongside it; pruned plans are stamped
/// out from the skeleton per scan.
#[derive(Debug, Clone)]
pub struct PlanSkeleton {
    /// The dense plan; its `PlanUnit`s *are* the unit table.
    full: Arc<ScanPlan>,
}

impl PlanSkeleton {
    /// Builds the skeleton for a preprocessed graph: enumerates the unit
    /// table and materialises the dense plan over it.
    #[must_use]
    pub fn build(tiled: &TiledGraph) -> Self {
        let per_side = tiled.order().blocks_per_side();
        let plan_units: Vec<Arc<PlanUnit>> = strip_units(tiled)
            .into_iter()
            .map(|unit| {
                // Every block row is visited, every subgraph streamed — the
                // §3.4 disk-order walk, exactly as a plan.
                let slots = || {
                    (0..per_side).map(move |bi| {
                        let block = unit.bj as usize * per_side + bi;
                        tiled.slot_subgraphs(block, unit.strip as usize)
                    })
                };
                let mut punit = PlanUnit::new(unit, slots().map(|slot| slot.len()).sum());
                for (slot, ordinal) in slots().flatten().enumerate() {
                    punit.set_span(slot, tiled.subgraph(ordinal).edges(), true);
                }
                punit.all_rows = true;
                Arc::new(punit)
            })
            .collect();
        let full = Arc::new(ScanPlan {
            stats: PlanStats {
                units_planned: plan_units.len(),
                units_pruned: 0,
                subgraphs_planned: tiled.nonempty_subgraphs() as u64,
                subgraphs_pruned: 0,
                edges_planned: tiled.total_edges() as u64,
                edges_pruned: 0,
            },
            units: plan_units,
        });
        PlanSkeleton { full }
    }

    /// Size of the unit table (one [`StripUnit`] per global destination
    /// strip).
    #[must_use]
    pub fn num_units(&self) -> usize {
        self.full.units.len()
    }

    /// The dense plan: every unit, every block row, every subgraph.
    #[must_use]
    pub fn full_plan(&self) -> Arc<ScanPlan> {
        Arc::clone(&self.full)
    }

    /// Builds a plan restricted to the subgraphs whose source range holds
    /// at least one vertex active under `mask` — and therefore to the block
    /// rows and units containing such a subgraph. Everything else is
    /// pruned: not visited, not streamed, not charged.
    ///
    /// Functionally this is exact for the add-op pattern (a subgraph with
    /// no active source contributes nothing); for the MAC pattern it is
    /// exact only when the input vectors are zero outside `mask`.
    ///
    /// # Panics
    ///
    /// Panics if `mask` does not range over the (unpadded) vertex count.
    #[must_use]
    pub fn pruned_plan(&self, tiled: &TiledGraph, mask: &FrontierMask) -> ScanPlan {
        assert_eq!(
            mask.num_vertices(),
            tiled.num_vertices(),
            "active mask must range over every vertex"
        );
        let mut building: Vec<PlanUnit> = self
            .full
            .units
            .iter()
            .map(|p| PlanUnit::new(p.unit, p.subgraphs as usize))
            .collect();
        for (unit, slot, span) in span_slots(tiled) {
            if span.intersects(mask) {
                building[unit].set_span(slot, span.edges, true);
            }
        }
        let units: Vec<Arc<PlanUnit>> = building
            .into_iter()
            .filter(|u| u.subgraphs > 0)
            .map(Arc::new)
            .collect();
        let subgraphs: u64 = units.iter().map(|u| u.subgraphs).sum();
        let edges: u64 = units.iter().map(|u| u.edges).sum();
        let stats = PlanStats {
            units_planned: units.len(),
            units_pruned: self.num_units() - units.len(),
            subgraphs_planned: subgraphs,
            subgraphs_pruned: tiled.nonempty_subgraphs() as u64 - subgraphs,
            edges_planned: edges,
            edges_pruned: tiled.total_edges() as u64 - edges,
        };
        ScanPlan { units, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GraphRConfig;
    use graphr_graph::generators::rmat::Rmat;

    fn small_config() -> GraphRConfig {
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
    fn full_plan_covers_every_nonempty_subgraph() {
        let g = Rmat::new(100, 500).seed(3).generate();
        let tiled = TiledGraph::preprocess(&g, &small_config()).unwrap();
        let skeleton = PlanSkeleton::build(&tiled);
        let full = skeleton.full_plan();
        assert!(full.is_full());
        assert_eq!(
            full.stats().subgraphs_planned,
            tiled.nonempty_subgraphs() as u64
        );
        assert_eq!(full.stats().edges_planned, tiled.total_edges() as u64);
        let visits: u64 = full.units().iter().map(|u| u.subgraphs).sum();
        assert_eq!(visits, tiled.nonempty_subgraphs() as u64);
        // Every block row appears in every unit of the dense plan.
        let per_side = tiled.order().blocks_per_side();
        for pu in full.units() {
            assert_eq!(pu.rows(&tiled).count(), per_side);
        }
    }

    #[test]
    fn all_active_mask_plans_all_subgraphs() {
        let g = Rmat::new(90, 400).seed(8).generate();
        let tiled = TiledGraph::preprocess(&g, &small_config()).unwrap();
        let skeleton = PlanSkeleton::build(&tiled);
        let plan = skeleton.pruned_plan(&tiled, &FrontierMask::full(90));
        assert_eq!(plan.stats().subgraphs_pruned, 0);
        assert_eq!(plan.stats().edges_pruned, 0);
        assert_eq!(
            plan.stats().subgraphs_planned,
            tiled.nonempty_subgraphs() as u64
        );
    }

    #[test]
    fn all_inactive_mask_prunes_everything() {
        let g = Rmat::new(90, 400).seed(8).generate();
        let tiled = TiledGraph::preprocess(&g, &small_config()).unwrap();
        let skeleton = PlanSkeleton::build(&tiled);
        let plan = skeleton.pruned_plan(&tiled, &FrontierMask::new(90));
        assert!(plan.units().is_empty());
        assert_eq!(
            plan.stats().subgraphs_pruned,
            tiled.nonempty_subgraphs() as u64
        );
        assert_eq!(plan.stats().edges_pruned, tiled.total_edges() as u64);
        assert_eq!(plan.stats().units_pruned, skeleton.num_units());
    }

    #[test]
    fn pruned_plan_keeps_exactly_intersecting_spans() {
        let g = Rmat::new(120, 700).seed(5).generate();
        let tiled = TiledGraph::preprocess(&g, &small_config()).unwrap();
        let skeleton = PlanSkeleton::build(&tiled);
        let mut mask = FrontierMask::new(120);
        for v in (0..120).step_by(17) {
            mask.set(v);
        }
        let plan = skeleton.pruned_plan(&tiled, &mask);
        // Reconstruct the planned set and compare with a direct filter of
        // the source index.
        let spans = tiled.source_index().spans();
        let expected = spans.filter(|s| s.intersects(&mask)).count() as u64;
        assert_eq!(plan.stats().subgraphs_planned, expected);
        assert_eq!(
            plan.stats().subgraphs_planned + plan.stats().subgraphs_pruned,
            tiled.nonempty_subgraphs() as u64
        );
        // Planned rows are sorted and nonempty; units in merge order.
        let mut last_index = None;
        for pu in plan.units() {
            assert!(last_index < Some(pu.unit.index));
            last_index = Some(pu.unit.index);
            assert!(pu.subgraphs > 0);
            let mut last_block = None;
            for row in pu.rows(&tiled) {
                assert!(last_block < Some(row.block));
                last_block = Some(row.block);
                assert!(row.planned() > 0);
            }
        }
    }

    #[test]
    fn edge_offsets_partition_the_streamed_order() {
        let g = Rmat::new(80, 600).seed(11).generate();
        let tiled = TiledGraph::preprocess(&g, &small_config()).unwrap();
        // Spans across all rows, sorted by edge offset, must tile
        // [0, total_edges) exactly.
        let mut spans: Vec<_> = tiled.source_index().spans().collect();
        spans.sort_by_key(|s| s.edge_offset);
        let mut next = 0u64;
        for s in &spans {
            assert_eq!(s.edge_offset, next, "gap in streamed order");
            next += u64::from(s.edges);
        }
        assert_eq!(next, tiled.total_edges() as u64);
    }
}
