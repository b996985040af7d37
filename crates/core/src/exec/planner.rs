//! The incremental planner: frontier-delta re-planning.
//!
//! The plan/execute split makes every sparse iteration build a
//! [`ScanPlan`] from its active mask. Rebuilding that plan from scratch
//! walks the tiler's whole span table — `O(nonempty subgraphs)` per
//! iteration — even though successive traversal frontiers overlap
//! heavily: a BFS wavefront activates a thin band of new vertices and
//! deactivates last round's band, leaving the vast majority of the plan
//! untouched. (GridGraph's selective scheduling pays off the same way at
//! the block level; X-Stream's dense streaming is the baseline that never
//! plans at all.)
//!
//! A [`Planner`] makes planning *stateful*: it remembers the previous
//! mask's per-chunk activity and the previous plan's per-unit content,
//! and patches only the strip units whose gating chunks flipped —
//! `O(|delta|)` span work instead of `O(units)` — falling back to a full
//! rebuild when the delta is dense. Untouched units are carried into the
//! new plan as shared [`Arc`]s rather than rebuilt. Every unit, carried or
//! rebuilt, names its subgraphs by streamed ordinal and carries its
//! planned `(subgraphs, edges)`, so the plan's running totals move by the
//! replaced unit's own fields and downstream layers (cluster sharding,
//! disk pricing) read the units as they are.
//!
//! Chunk activity comes from the hierarchical [`FrontierMask`]: the
//! summary level proves whole word spans inactive without reading dense
//! bits ([`Planner::plan_for`]), and when the driver supplies the
//! [`FrontierDelta`] it already built while flipping vertices,
//! [`Planner::plan_for_delta`] re-derives activity for exactly the
//! chunks the delta's words overlap — the old `O(|V|)` mask re-scan and
//! the planner-side chunk diff both disappear from the steady state.
//!
//! **Determinism contract:** a delta-patched plan is bit-identical —
//! units, [`PlanStats`], and therefore all
//! downstream [`Metrics`](crate::metrics::Metrics) of executing it — to
//! a plan rebuilt from scratch for the same mask. The
//! `plan_incremental` integration tests assert this over random frontier
//! sequences on every engine. What *does* differ is the planning cost,
//! reported through [`PlanCounters`]
//! (rebuilds vs patches, units reused, host planning time).
//!
//! The split mirrors the session cache: a [`PlannerIndex`] depends only
//! on the preprocessed graph (it can be built once and cached beside the
//! [`PlanSkeleton`]), while a [`Planner`] is the cheap per-engine state
//! stamped out from it.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use graphr_core::exec::mask::{FrontierDelta, FrontierMask};
//! use graphr_core::exec::planner::Planner;
//! use graphr_core::exec::PlanSkeleton;
//! use graphr_core::metrics::PlanCounters;
//! use graphr_core::{GraphRConfig, TiledGraph};
//! use graphr_graph::generators::structured::grid;
//!
//! let config = GraphRConfig::builder()
//!     .crossbar_size(4)
//!     .crossbars_per_ge(8)
//!     .num_ges(2)
//!     .build()?;
//! let tiled = TiledGraph::preprocess(&grid(20, 20), &config)?;
//! let skeleton = Arc::new(PlanSkeleton::build(&tiled));
//! let mut planner = Planner::new(&tiled, Arc::clone(&skeleton));
//! let mut counters = PlanCounters::default();
//!
//! // First frontier: a full rebuild (there is nothing to patch yet).
//! let mut mask = FrontierMask::new(tiled.num_vertices());
//! mask.set(0);
//! let first = planner.plan_for(&config, Some(&mask), &mut counters);
//! assert_eq!(counters.full_rebuilds, 1);
//!
//! // The frontier advances one step. The driver flipped the vertices, so
//! // it already knows the delta — the planner patches exactly the chunks
//! // those words overlap, and the result is bit-identical to a scratch
//! // rebuild.
//! let mut next = mask.clone();
//! next.clear(0);
//! next.set(1);
//! let delta = FrontierDelta::between(&mask, &next);
//! let second = planner.plan_for_delta(&config, &next, &delta, &mut counters);
//! assert_eq!(counters.delta_patches, 1);
//! assert_eq!(*second, skeleton.pruned_plan(&tiled, &next));
//! # let _ = first;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::Arc;
use std::time::Instant;

use graphr_units::Nanos;

use crate::config::GraphRConfig;
use crate::exec::mask::{FrontierDelta, FrontierMask, SUMMARY_SPAN, WORD_BITS};
use crate::exec::plan::{PlanSkeleton, PlanStats, PlanUnit, ScanPlan};
use crate::exec::strip::StripUnit;
use crate::metrics::PlanCounters;
use crate::preprocess::tiler::TiledGraph;

/// One nonempty subgraph of a strip unit, as the planner sees it: where
/// it sits in the unit's streamed order and which source chunk gates it.
#[derive(Debug, Clone, Copy)]
struct UnitSpan {
    /// Column-major block index.
    block: u32,
    /// Streamed ordinal of the subgraph.
    ordinal: u32,
    /// Ordinal of the source chunk whose activity gates this span.
    chunk: u32,
    /// Edges in the subgraph.
    edges: u32,
}

/// The frontier diff at source-chunk granularity: which chunks (crossbar
/// row ranges of the source dimension — the granularity at which a mask
/// can change a plan at all) became active, and which fell inactive,
/// between two consecutive masks. Internal to the planner; drivers speak
/// the word-granular [`FrontierDelta`] instead.
#[derive(Debug, Clone, Default)]
struct ChunkDelta {
    /// Chunk ordinals active under the new mask but not the old.
    activated: Vec<u32>,
    /// Chunk ordinals active under the old mask but not the new.
    deactivated: Vec<u32>,
}

impl ChunkDelta {
    /// Diffs two per-chunk activity vectors (same length).
    fn between(old: &[bool], new: &[bool]) -> ChunkDelta {
        let mut delta = ChunkDelta::default();
        for (chunk, (&o, &n)) in old.iter().zip(new).enumerate() {
            if o != n {
                if n {
                    delta.activated.push(chunk as u32);
                } else {
                    delta.deactivated.push(chunk as u32);
                }
            }
        }
        delta
    }

    /// Whether nothing flipped (the previous plan can be reused whole).
    fn is_empty(&self) -> bool {
        self.activated.is_empty() && self.deactivated.is_empty()
    }
}

/// The reusable, graph-derived part of incremental planning: per-unit
/// span tables in streamed order, the distinct source chunks, and the
/// chunk → units reverse index. Depends only on the [`TiledGraph`], so a
/// session caches one beside the [`PlanSkeleton`] and stamps out cheap
/// per-engine [`Planner`]s from it.
#[derive(Debug)]
pub struct PlannerIndex {
    num_vertices: usize,
    units: Vec<StripUnit>,
    total_subgraphs: u64,
    total_edges: u64,
    /// Distinct source ranges `(src_start, src_len)`, ascending and
    /// disjoint — the granularity at which a mask gates spans.
    chunks: Vec<(u32, u32)>,
    /// Per unit: its spans in streamed order (ordinals ascending) —
    /// exactly the order
    /// [`PlanSkeleton::pruned_plan`] emits.
    unit_spans: Vec<Vec<UnitSpan>>,
    /// Per chunk: the units holding at least one span gated by it.
    chunk_units: Vec<Vec<u32>>,
}

impl PlannerIndex {
    /// Builds the index for a preprocessed graph (one walk of the tiler's
    /// source-range index).
    #[must_use]
    pub fn build(tiled: &TiledGraph) -> PlannerIndex {
        let per_side = tiled.order().blocks_per_side();
        let strips_per_block = tiled.order().strips_per_block();
        let units: Vec<StripUnit> = crate::exec::strip::strip_units(tiled);
        let num_units = units.len();

        let spans = tiled.source_index().spans();
        let mut chunks: Vec<(u32, u32)> = spans.iter().map(|s| (s.src_start, s.src_len)).collect();
        chunks.sort_unstable();
        chunks.dedup();

        let mut unit_spans: Vec<Vec<UnitSpan>> = vec![Vec::new(); num_units];
        let mut chunk_units: Vec<Vec<u32>> = vec![Vec::new(); chunks.len()];
        // Rows ascending by block row, spans in streamed order within a
        // row: every unit accumulates its spans already in the order the
        // scratch rebuild would emit them.
        for span in spans {
            let bj = span.block as usize / per_side;
            let unit = (bj * strips_per_block + span.strip as usize) as u32;
            let chunk = chunks
                .binary_search(&(span.src_start, span.src_len))
                .expect("chunk table covers every span") as u32;
            unit_spans[unit as usize].push(UnitSpan {
                block: span.block,
                ordinal: span.ordinal,
                chunk,
                edges: span.edges,
            });
            if chunk_units[chunk as usize].last() != Some(&unit) {
                chunk_units[chunk as usize].push(unit);
            }
        }
        for chunk in &mut chunk_units {
            chunk.sort_unstable();
            chunk.dedup();
        }
        PlannerIndex {
            num_vertices: tiled.num_vertices(),
            units,
            total_subgraphs: tiled.nonempty_subgraphs() as u64,
            total_edges: tiled.total_edges() as u64,
            chunks,
            unit_spans,
            chunk_units,
        }
    }

    /// Number of strip units in the unit table.
    #[must_use]
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// Number of distinct source chunks (the delta granularity).
    #[must_use]
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Per-chunk activity of a mask: a chunk is active when any vertex of
    /// its source range is. Walks the mask at word granularity, and uses
    /// the summary level to discharge every chunk inside an all-zero
    /// 4096-vertex span without reading its dense words at all. Charges
    /// words examined / spans skipped into `counters`.
    fn chunk_activity(&self, mask: &FrontierMask, counters: &mut PlanCounters) -> Vec<bool> {
        let mut bits = vec![false; self.chunks.len()];
        let mut ci = 0usize;
        while ci < self.chunks.len() {
            let (start, len) = self.chunks[ci];
            let lo = start as usize;
            let hi = lo + len as usize;
            let span = lo / SUMMARY_SPAN;
            let span_end = (span + 1) * SUMMARY_SPAN;
            if hi <= span_end && mask.summary_word(span) == 0 {
                // The whole summary span is dead: every chunk that ends
                // inside it is inactive, wholesale.
                counters.summary_skips += 1;
                while ci < self.chunks.len() {
                    let (s, l) = self.chunks[ci];
                    if (s as usize + l as usize) > span_end {
                        break;
                    }
                    ci += 1;
                }
                continue;
            }
            let (active, words) = mask.any_in_range_counted(lo, hi);
            counters.mask_words += words;
            bits[ci] = active;
            ci += 1;
        }
        bits
    }

    /// The units any flipped chunk gates, ascending and deduplicated.
    fn affected_units(&self, delta: &ChunkDelta) -> Vec<u32> {
        let mut affected: Vec<u32> = delta
            .activated
            .iter()
            .chain(&delta.deactivated)
            .flat_map(|&c| self.chunk_units[c as usize].iter().copied())
            .collect();
        affected.sort_unstable();
        affected.dedup();
        affected
    }

    /// Rebuilds one unit's planned content under a per-chunk activity
    /// vector; `None` when no span survives (the unit is pruned from the
    /// plan).
    fn build_unit(&self, unit: usize, bits: &[bool]) -> Option<Arc<PlanUnit>> {
        let mut punit = PlanUnit::new(self.units[unit]);
        for span in &self.unit_spans[unit] {
            if bits[span.chunk as usize] {
                punit.push(span.block, span.ordinal, span.edges);
            }
        }
        (!punit.rows.is_empty()).then(|| Arc::new(punit))
    }
}

/// Stateful incremental planning over one preprocessed graph: owns the
/// previous mask's chunk activity and the previous plan's per-unit
/// content, and turns each new frontier into a [`ScanPlan`] by patching
/// the delta — or rebuilding when the delta is dense or there is no
/// previous state. Every engine carries one; see the
/// [module docs](self) for the determinism contract.
#[derive(Debug)]
pub struct Planner {
    skeleton: Arc<PlanSkeleton>,
    index: Arc<PlannerIndex>,
    /// Chunk activity of the mask the current state was planned for.
    bits: Option<Vec<bool>>,
    /// Current per-unit plan content (`None` = unit pruned).
    unit_table: Vec<Option<Arc<PlanUnit>>>,
    planned_units: usize,
    planned_subgraphs: u64,
    planned_edges: u64,
}

impl Planner {
    /// A planner over `tiled`, building its own [`PlannerIndex`]. The
    /// skeleton must have been built from the same `tiled`.
    #[must_use]
    pub fn new(tiled: &TiledGraph, skeleton: Arc<PlanSkeleton>) -> Planner {
        Planner::with_index(skeleton, Arc::new(PlannerIndex::build(tiled)))
    }

    /// A planner reusing an already-built index (a session's cached one;
    /// skeleton and index must come from the same preprocessed graph).
    #[must_use]
    pub fn with_index(skeleton: Arc<PlanSkeleton>, index: Arc<PlannerIndex>) -> Planner {
        let num_units = index.num_units();
        Planner {
            skeleton,
            index,
            bits: None,
            unit_table: vec![None; num_units],
            planned_units: 0,
            planned_subgraphs: 0,
            planned_edges: 0,
        }
    }

    /// The plan skeleton this planner stamps plans from.
    #[must_use]
    pub fn skeleton(&self) -> &Arc<PlanSkeleton> {
        &self.skeleton
    }

    /// The shared graph-derived index (for stamping out sibling planners
    /// without re-walking the span table).
    #[must_use]
    pub fn index(&self) -> &Arc<PlannerIndex> {
        &self.index
    }

    /// The plan an engine under `config` should execute for an optional
    /// active mask — the stateful analogue of
    /// [`PlanSkeleton::plan_for`], and the single policy point every
    /// engine routes [`ScanEngine::plan`](crate::exec::ScanEngine::plan)
    /// through. `None` (or `skip_empty = false`, the §3.3 sparsity
    /// ablation: a controller with no index cannot prune) yields the
    /// cached dense plan and leaves the delta state untouched; a mask
    /// yields the pruned plan by delta patch or rebuild, with the outcome
    /// charged into `counters`.
    ///
    /// # Panics
    ///
    /// Panics if `mask` does not have one entry per (unpadded) vertex.
    #[must_use]
    pub fn plan_for(
        &mut self,
        config: &GraphRConfig,
        active: Option<&FrontierMask>,
        counters: &mut PlanCounters,
    ) -> Arc<ScanPlan> {
        match active {
            Some(mask) if config.skip_empty => self.masked_plan(mask, counters),
            _ => self.skeleton.full_plan(),
        }
    }

    /// The mask-pruned plan when the driver already knows exactly which
    /// mask words flipped since the previous planned frontier: re-derives
    /// activity for only the chunks those words overlap, skipping both the
    /// `O(|V|)` mask re-scan and the planner-side chunk diff. Falls back
    /// to [`Planner::plan_for`] semantics when there is no previous state
    /// to patch against (first plan, or after a dense interleave cleared
    /// nothing — the delta state survives dense requests). Bit-identical
    /// to a scratch [`PlanSkeleton::pruned_plan`] of `active` either way.
    ///
    /// The delta must describe the transition from the mask this planner
    /// last planned to `active`; drivers get it for free by recording the
    /// words they flip (see [`FrontierDelta::between`]).
    ///
    /// # Panics
    ///
    /// Panics if `active` does not range over every (unpadded) vertex.
    #[must_use]
    pub fn plan_for_delta(
        &mut self,
        config: &GraphRConfig,
        active: &FrontierMask,
        delta: &FrontierDelta,
        counters: &mut PlanCounters,
    ) -> Arc<ScanPlan> {
        if !config.skip_empty {
            return self.skeleton.full_plan();
        }
        assert_eq!(
            active.num_vertices(),
            self.index.num_vertices,
            "active mask must range over every vertex"
        );
        if self.bits.is_none() {
            return self.masked_plan(active, counters);
        }
        let start = Instant::now();
        counters.delta_words += delta.len() as u64;
        let mut bits = self.bits.take().expect("checked above");
        let mut chunk_delta = ChunkDelta::default();
        // Words ascending and chunks ascending: a cursor keeps straddler
        // chunks (overlapping two touched words) from re-deriving twice.
        let mut rechecked_until = 0usize;
        for &w in &delta.touched_words() {
            let lo = w as usize * WORD_BITS;
            let hi = lo + WORD_BITS;
            let mut ci = self
                .index
                .chunks
                .partition_point(|&(s, l)| (s as usize + l as usize) <= lo)
                .max(rechecked_until);
            while ci < self.index.chunks.len() {
                let (cs, cl) = self.index.chunks[ci];
                if (cs as usize) >= hi {
                    break;
                }
                let (act, words) =
                    active.any_in_range_counted(cs as usize, cs as usize + cl as usize);
                counters.mask_words += words;
                if bits[ci] != act {
                    bits[ci] = act;
                    if act {
                        chunk_delta.activated.push(ci as u32);
                    } else {
                        chunk_delta.deactivated.push(ci as u32);
                    }
                }
                ci += 1;
            }
            rechecked_until = ci;
        }
        self.commit(bits, chunk_delta, counters);
        let plan = self.emit();
        counters.time += Nanos::new(start.elapsed().as_nanos() as f64);
        plan
    }

    /// The mask-pruned plan: delta-patched against the previous frontier
    /// when possible, rebuilt from scratch otherwise. Bit-identical to
    /// [`PlanSkeleton::pruned_plan`] for the same mask, either way.
    fn masked_plan(&mut self, mask: &FrontierMask, counters: &mut PlanCounters) -> Arc<ScanPlan> {
        assert_eq!(
            mask.num_vertices(),
            self.index.num_vertices,
            "active mask must range over every vertex"
        );
        let start = Instant::now();
        let new_bits = self.index.chunk_activity(mask, counters);
        match self.bits.take() {
            None => {
                self.rebuild(&new_bits);
                counters.full_rebuilds += 1;
                self.bits = Some(new_bits);
            }
            Some(old_bits) => {
                let delta = ChunkDelta::between(&old_bits, &new_bits);
                self.commit(new_bits, delta, counters);
            }
        }
        let plan = self.emit();
        counters.time += Nanos::new(start.elapsed().as_nanos() as f64);
        plan
    }

    /// Applies a chunk-level delta to the cached per-unit state — patch,
    /// whole-plan reuse, or dense-fallback rebuild — charging the outcome
    /// into `counters`, and stores `bits` as the new planned activity.
    fn commit(&mut self, bits: Vec<bool>, delta: ChunkDelta, counters: &mut PlanCounters) {
        if delta.is_empty() {
            counters.delta_patches += 1;
            counters.units_reused += self.planned_units as u64;
        } else {
            let affected = self.index.affected_units(&delta);
            // A dense delta touches most of the plan anyway; the
            // straight rebuild is cheaper than patching.
            if affected.len() * 2 > self.index.num_units() {
                self.rebuild(&bits);
                counters.full_rebuilds += 1;
            } else {
                for &unit in &affected {
                    self.repatch_unit(unit as usize, &bits);
                }
                counters.delta_patches += 1;
                counters.units_patched += affected.len() as u64;
                let affected_planned = affected
                    .iter()
                    .filter(|&&u| self.unit_table[u as usize].is_some())
                    .count();
                counters.units_reused += (self.planned_units - affected_planned) as u64;
            }
        }
        self.bits = Some(bits);
    }

    /// Rebuilds the whole per-unit state under `bits` (first mask, or a
    /// dense delta).
    fn rebuild(&mut self, bits: &[bool]) {
        for unit in 0..self.index.num_units() {
            self.repatch_unit(unit, bits);
        }
    }

    /// Re-derives one touched unit under `bits`, moving the running stats
    /// by the replaced and the new unit's own counts.
    fn repatch_unit(&mut self, unit: usize, bits: &[bool]) {
        if let Some(old) = &self.unit_table[unit] {
            self.planned_units -= 1;
            self.planned_subgraphs -= old.subgraphs;
            self.planned_edges -= old.edges;
        }
        let entry = self.index.build_unit(unit, bits);
        if let Some(new) = &entry {
            self.planned_units += 1;
            self.planned_subgraphs += new.subgraphs;
            self.planned_edges += new.edges;
        }
        self.unit_table[unit] = entry;
    }

    /// Materialises the current state as a [`ScanPlan`]: planned units in
    /// merge order (shared by `Arc`, so untouched units are pointer-equal
    /// across consecutive plans) plus stats in exactly
    /// [`PlanSkeleton::pruned_plan`]'s form.
    fn emit(&self) -> Arc<ScanPlan> {
        let units: Vec<Arc<PlanUnit>> = self.unit_table.iter().flatten().cloned().collect();
        let stats = PlanStats {
            units_planned: self.planned_units,
            units_pruned: self.index.num_units() - self.planned_units,
            subgraphs_planned: self.planned_subgraphs,
            subgraphs_pruned: self.index.total_subgraphs - self.planned_subgraphs,
            edges_planned: self.planned_edges,
            edges_pruned: self.index.total_edges - self.planned_edges,
        };
        Arc::new(ScanPlan::from_parts(units, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphr_graph::generators::rmat::Rmat;
    use graphr_graph::generators::structured::grid;

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

    fn mask_at(n: usize, seed: u64, density: u64) -> FrontierMask {
        let mut mask = FrontierMask::new(n);
        for v in 0..n {
            let h = (v as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            if (h >> 60) < density {
                mask.set(v);
            }
        }
        mask
    }

    #[test]
    fn first_mask_rebuilds_and_matches_scratch() {
        let g = Rmat::new(120, 700).seed(5).generate();
        let cfg = small_config();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let skeleton = Arc::new(PlanSkeleton::build(&tiled));
        let mut planner = Planner::new(&tiled, Arc::clone(&skeleton));
        let mut counters = PlanCounters::default();
        let mask = mask_at(120, 3, 4);
        let plan = planner.plan_for(&cfg, Some(&mask), &mut counters);
        assert_eq!(*plan, skeleton.pruned_plan(&tiled, &mask));
        assert_eq!(counters.full_rebuilds, 1);
        assert_eq!(counters.delta_patches, 0);
    }

    #[test]
    fn advancing_frontier_patches_and_stays_exact() {
        let g = grid(16, 16);
        let cfg = small_config();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let n = tiled.num_vertices();
        let skeleton = Arc::new(PlanSkeleton::build(&tiled));
        let mut planner = Planner::new(&tiled, Arc::clone(&skeleton));
        let mut counters = PlanCounters::default();
        // A frontier growing one grid row per step: earlier rows stay
        // active, so most planned units sit outside each step's delta.
        for step in 0..12usize {
            let dense: Vec<bool> = (0..n).map(|v| v / 16 <= step).collect();
            let mask = FrontierMask::from_slice(&dense);
            let plan = planner.plan_for(&cfg, Some(&mask), &mut counters);
            assert_eq!(*plan, skeleton.pruned_plan(&tiled, &mask), "step {step}");
        }
        assert!(
            counters.delta_patches > counters.full_rebuilds,
            "overlapping frontiers must mostly patch: {counters:?}"
        );
        assert!(counters.units_reused > 0);
    }

    #[test]
    fn unchanged_mask_reuses_the_whole_plan() {
        let g = Rmat::new(90, 500).seed(9).generate();
        let cfg = small_config();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let mut planner = Planner::new(&tiled, Arc::new(PlanSkeleton::build(&tiled)));
        let mut counters = PlanCounters::default();
        let mask = mask_at(90, 7, 6);
        let first = planner.plan_for(&cfg, Some(&mask), &mut counters);
        let second = planner.plan_for(&cfg, Some(&mask), &mut counters);
        assert_eq!(first, second);
        assert_eq!(counters.delta_patches, 1);
        assert_eq!(counters.units_patched, 0);
        // Every planned unit is the same allocation, not just equal.
        for (a, b) in first.units().iter().zip(second.units()) {
            assert!(Arc::ptr_eq(a, b));
        }
    }

    #[test]
    fn untouched_units_are_shared_by_pointer() {
        let g = grid(16, 16);
        let cfg = small_config();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let n = tiled.num_vertices();
        let mut planner = Planner::new(&tiled, Arc::new(PlanSkeleton::build(&tiled)));
        let mut counters = PlanCounters::default();
        let mut mask = FrontierMask::full(n);
        let first = planner.plan_for(&cfg, Some(&mask), &mut counters);
        // Flip one vertex: at most the units its chunk gates re-derive.
        mask.clear(0);
        let second = planner.plan_for(&cfg, Some(&mask), &mut counters);
        let shared = second
            .units()
            .iter()
            .filter(|u| first.units().iter().any(|v| Arc::ptr_eq(u, v)))
            .count();
        assert!(
            shared > 0 && second.units().len() - shared <= counters.units_patched as usize,
            "only patched units may be new allocations: {shared} shared of {}",
            second.units().len()
        );
    }

    #[test]
    fn dense_delta_falls_back_to_rebuild_and_stays_exact() {
        let g = Rmat::new(140, 900).seed(21).generate();
        let cfg = small_config();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let skeleton = Arc::new(PlanSkeleton::build(&tiled));
        let mut planner = Planner::new(&tiled, Arc::clone(&skeleton));
        let mut counters = PlanCounters::default();
        let empty = FrontierMask::new(140);
        let full = FrontierMask::full(140);
        let _ = planner.plan_for(&cfg, Some(&empty), &mut counters);
        // empty → full flips every chunk: the dense fallback must trigger
        // and still match scratch.
        let plan = planner.plan_for(&cfg, Some(&full), &mut counters);
        assert_eq!(*plan, skeleton.pruned_plan(&tiled, &full));
        assert_eq!(counters.full_rebuilds, 2);
        assert_eq!(counters.delta_patches, 0);
    }

    #[test]
    fn dense_requests_leave_delta_state_untouched() {
        let g = Rmat::new(100, 500).seed(2).generate();
        let cfg = small_config();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let skeleton = Arc::new(PlanSkeleton::build(&tiled));
        let mut planner = Planner::new(&tiled, Arc::clone(&skeleton));
        let mut counters = PlanCounters::default();
        let mask = mask_at(100, 11, 3);
        let masked = planner.plan_for(&cfg, Some(&mask), &mut counters);
        let dense = planner.plan_for(&cfg, None, &mut counters);
        assert!(dense.is_full());
        // Interleaved dense plans neither count nor corrupt the state:
        // the next masked request still patches against `masked`.
        let again = planner.plan_for(&cfg, Some(&mask), &mut counters);
        assert_eq!(masked, again);
        assert_eq!(counters.full_rebuilds, 1);
        assert_eq!(counters.delta_patches, 1);
    }

    #[test]
    fn disabled_skip_yields_the_dense_plan() {
        let g = Rmat::new(80, 300).seed(4).generate();
        let cfg = GraphRConfig::builder()
            .crossbar_size(4)
            .crossbars_per_ge(2)
            .num_ges(2)
            .spec(graphr_units::FixedSpec::new(5, 0).unwrap())
            .slicer(graphr_units::BitSlicer::new(4, 1).unwrap())
            .block_vertices(32)
            .skip_empty(false)
            .build()
            .unwrap();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let mut planner = Planner::new(&tiled, Arc::new(PlanSkeleton::build(&tiled)));
        let mut counters = PlanCounters::default();
        let plan = planner.plan_for(&cfg, Some(&FrontierMask::full(80)), &mut counters);
        assert!(plan.is_full());
        assert_eq!(counters.full_rebuilds + counters.delta_patches, 0);
    }

    #[test]
    fn driver_deltas_match_mask_scans_and_scratch() {
        let g = Rmat::new(150, 900).seed(13).generate();
        let cfg = small_config();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let n = tiled.num_vertices();
        let skeleton = Arc::new(PlanSkeleton::build(&tiled));
        let mut by_delta = Planner::new(&tiled, Arc::clone(&skeleton));
        let mut by_scan = Planner::new(&tiled, Arc::clone(&skeleton));
        let mut dc = PlanCounters::default();
        let mut sc = PlanCounters::default();
        let mut prev = mask_at(n, 1, 3);
        let _ = by_delta.plan_for(&cfg, Some(&prev), &mut dc);
        let _ = by_scan.plan_for(&cfg, Some(&prev), &mut sc);
        // A mix of sparse flips and wholesale jumps: the delta path must
        // agree with the full-scan path and with scratch at every step.
        for step in 0..10u64 {
            let next = mask_at(n, step * 7 + 2, 1 + (step % 4));
            let delta = FrontierDelta::between(&prev, &next);
            let a = by_delta.plan_for_delta(&cfg, &next, &delta, &mut dc);
            let b = by_scan.plan_for(&cfg, Some(&next), &mut sc);
            assert_eq!(a, b, "step {step}");
            assert_eq!(*a, skeleton.pruned_plan(&tiled, &next), "step {step}");
            prev = next;
        }
        assert!(
            dc.delta_words > 0,
            "delta path must record its input: {dc:?}"
        );
        assert!(
            dc.mask_words <= sc.mask_words,
            "delta path may not examine more words than full scans: {dc:?} vs {sc:?}"
        );
    }

    #[test]
    fn delta_with_no_prior_state_falls_back_to_a_rebuild() {
        let g = Rmat::new(110, 600).seed(8).generate();
        let cfg = small_config();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let skeleton = Arc::new(PlanSkeleton::build(&tiled));
        let mut planner = Planner::new(&tiled, Arc::clone(&skeleton));
        let mut counters = PlanCounters::default();
        let mask = mask_at(110, 4, 5);
        // A delta against the empty mask, handed to a fresh planner: with
        // nothing to patch it must do the first-mask rebuild, exactly.
        let delta = FrontierDelta::between(&FrontierMask::new(110), &mask);
        let plan = planner.plan_for_delta(&cfg, &mask, &delta, &mut counters);
        assert_eq!(*plan, skeleton.pruned_plan(&tiled, &mask));
        assert_eq!(counters.full_rebuilds, 1);
        assert_eq!(counters.delta_patches, 0);
        assert_eq!(counters.delta_words, 0);
    }

    #[test]
    fn empty_driver_delta_reuses_the_whole_plan() {
        let g = Rmat::new(100, 520).seed(17).generate();
        let cfg = small_config();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let mut planner = Planner::new(&tiled, Arc::new(PlanSkeleton::build(&tiled)));
        let mut counters = PlanCounters::default();
        let mask = mask_at(100, 6, 6);
        let first = planner.plan_for(&cfg, Some(&mask), &mut counters);
        let second = planner.plan_for_delta(&cfg, &mask, &FrontierDelta::default(), &mut counters);
        assert_eq!(first, second);
        for (a, b) in first.units().iter().zip(second.units()) {
            assert!(Arc::ptr_eq(a, b));
        }
        assert_eq!(counters.delta_patches, 1);
        assert_eq!(counters.units_patched, 0);
    }

    #[test]
    fn summary_skips_fire_on_sparse_tall_graphs() {
        // 8200 vertices spans three summary words; a frontier confined to
        // the first word leaves the later spans provably dead.
        let g = grid(82, 100);
        let cfg = small_config();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let n = tiled.num_vertices();
        let skeleton = Arc::new(PlanSkeleton::build(&tiled));
        let mut planner = Planner::new(&tiled, Arc::clone(&skeleton));
        let mut counters = PlanCounters::default();
        let mut mask = FrontierMask::new(n);
        mask.set(0);
        mask.set(40);
        let plan = planner.plan_for(&cfg, Some(&mask), &mut counters);
        assert_eq!(*plan, skeleton.pruned_plan(&tiled, &mask));
        assert!(
            counters.summary_skips > 0,
            "dead 4096-vertex spans must be skipped wholesale: {counters:?}"
        );
    }
}
