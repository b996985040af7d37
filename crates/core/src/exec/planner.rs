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
//! and pays per flipped chunk and per flipped span. A [`PlanUnit`]'s
//! content is a bitset over its unit's span table (see
//! [`PlanUnit::rows`]) plus running `(subgraphs, edges)` counts; the
//! [`PlannerIndex`] maps every source chunk to the `(unit, span slot)`
//! pairs it gates, so a flipped chunk flips exactly those bits and moves
//! the counts by their edges. A touched unit is taken out of the table
//! (copied if an earlier plan still holds it), patched and stored under
//! a new [`Arc`]; untouched units are carried into the new plan as shared
//! `Arc`s, and the plan's running totals move span by span. Downstream
//! layers (cluster sharding, disk pricing) read the units as they are.
//!
//! Chunk activity comes from the hierarchical [`FrontierMask`]. The first
//! plan re-scans the mask at word granularity, and the summary level
//! proves whole word spans inactive without reading dense bits
//! ([`Planner::plan_for`]). After that the driver supplies the
//! [`FrontierDelta`] it built while flipping vertices, and
//! [`Planner::plan_for_delta`] re-derives activity for exactly the chunks
//! the delta's words overlap: the index's word table gives each touched
//! word its first chunk by lookup, a chunk inside one word is tested
//! against that word inline, and the delta's two sorted word lists are
//! merged without allocating. A delta that touches more than half the
//! units is counted as a rebuild (`full_rebuilds`), a patch otherwise.
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
use crate::exec::plan::{span_slots, PlanSkeleton, PlanStats, PlanUnit, ScanPlan};
use crate::exec::strip::StripUnit;
use crate::metrics::PlanCounters;
use crate::preprocess::tiler::TiledGraph;

/// One nonempty subgraph a source chunk gates: its unit, its slot in that
/// unit's span table, and its edges.
#[derive(Debug, Clone, Copy, Default)]
struct GatedSpan {
    unit: u32,
    slot: u32,
    edges: u32,
}

/// The reusable, graph-derived part of incremental planning: the distinct
/// source chunks, a mask-word → chunk table, and the chunk → span index.
/// Depends only on the [`TiledGraph`], so a session caches one beside the
/// [`PlanSkeleton`] and stamps out cheap per-engine [`Planner`]s from it.
#[derive(Debug)]
pub struct PlannerIndex {
    num_vertices: usize,
    units: Vec<StripUnit>,
    /// Per unit: the size of its span table.
    unit_spans: Vec<u32>,
    total_subgraphs: u64,
    total_edges: u64,
    /// Distinct source ranges `(src_start, src_len)`, ascending and
    /// disjoint — the granularity at which a mask gates spans.
    chunks: Vec<(u32, u32)>,
    /// Per chunk lying inside one mask word: its bits in that word; 0 for
    /// a chunk that crosses a word boundary.
    chunk_mask: Vec<u64>,
    /// Per mask word `w`: the first chunk ending past vertex `64w`, i.e.
    /// the first a flip inside word `w` can gate.
    word_chunk: Vec<u32>,
    /// Chunk `c` gates `gated[chunk_gated[c]..chunk_gated[c + 1]]`, at
    /// most one span per unit.
    chunk_gated: Vec<u32>,
    gated: Vec<GatedSpan>,
}

impl PlannerIndex {
    /// Builds the index for a preprocessed graph (one walk of the tiler's
    /// source-range index).
    #[must_use]
    pub fn build(tiled: &TiledGraph) -> PlannerIndex {
        let units: Vec<StripUnit> = crate::exec::strip::strip_units(tiled);
        let spans = tiled.source_index().spans();
        // Chunks are crossbar-row aligned, so one slot per `C` vertices
        // collects them in order without a sort.
        let rows = tiled.order().crossbar_size();
        let mut len_at = vec![0u32; tiled.num_vertices().div_ceil(rows)];
        for s in spans {
            debug_assert_eq!(s.src_start as usize % rows, 0, "chunks are row-aligned");
            len_at[s.src_start as usize / rows] = s.src_len;
        }
        let chunks: Vec<(u32, u32)> = (0..len_at.len())
            .filter(|&k| len_at[k] > 0)
            .map(|k| ((k * rows) as u32, len_at[k]))
            .collect();

        let chunk_mask = chunks
            .iter()
            .map(|&(s, l)| {
                let (offset, len) = (s as usize % WORD_BITS, l as usize);
                if len > 0 && offset + len <= WORD_BITS {
                    (u64::MAX >> (WORD_BITS - len)) << offset
                } else {
                    0
                }
            })
            .collect();
        let word_chunk: Vec<u32> = (0..tiled.num_vertices().div_ceil(WORD_BITS))
            .map(|w| {
                chunks.partition_point(|&(s, l)| s as usize + l as usize <= w * WORD_BITS) as u32
            })
            .collect();

        // Counting sort of the spans by chunk.
        let chunk_of: Vec<u32> = spans
            .iter()
            .map(|s| {
                // A span's chunk ends past its first vertex, so it is at or
                // after the first chunk of that vertex's word.
                let mut c = word_chunk[s.src_start as usize / WORD_BITS] as usize;
                while chunks[c].0 != s.src_start {
                    c += 1;
                }
                c as u32
            })
            .collect();
        let mut chunk_gated = vec![0u32; chunks.len() + 1];
        for &c in &chunk_of {
            chunk_gated[c as usize + 1] += 1;
        }
        for c in 0..chunks.len() {
            chunk_gated[c + 1] += chunk_gated[c];
        }
        let mut fill = chunk_gated.clone();
        let mut gated = vec![GatedSpan::default(); spans.len()];
        let mut unit_spans = vec![0u32; units.len()];
        for ((unit, slot, span), &c) in span_slots(tiled).zip(&chunk_of) {
            gated[fill[c as usize] as usize] = GatedSpan {
                unit: unit as u32,
                slot: slot as u32,
                edges: span.edges,
            };
            fill[c as usize] += 1;
            unit_spans[unit] += 1;
        }
        PlannerIndex {
            num_vertices: tiled.num_vertices(),
            units,
            unit_spans,
            total_subgraphs: tiled.nonempty_subgraphs() as u64,
            total_edges: tiled.total_edges() as u64,
            chunks,
            chunk_mask,
            word_chunk,
            chunk_gated,
            gated,
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

    /// The spans chunk `c` gates.
    #[inline]
    fn gated(&self, c: u32) -> &[GatedSpan] {
        let c = c as usize;
        &self.gated[self.chunk_gated[c] as usize..self.chunk_gated[c + 1] as usize]
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
}

/// Stateful incremental planning over one preprocessed graph: owns the
/// previous mask's chunk activity and the previous plan's per-unit
/// content, and turns each new frontier into a [`ScanPlan`] by flipping
/// the span slots of the chunks that changed. Every engine carries one;
/// see the [module docs](self) for the determinism contract.
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
    /// Scratch: chunks whose activity flipped in the current request.
    flipped: Vec<u32>,
    /// Scratch: owned copies of the units the current request touches,
    /// and each unit's position among them (`UNSTAGED` when untouched).
    staged: Vec<PlanUnit>,
    staged_at: Vec<u32>,
}

/// `Planner::staged_at` of a unit the current request has not touched.
const UNSTAGED: u32 = u32::MAX;

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
            flipped: Vec::new(),
            staged: Vec::new(),
            staged_at: vec![UNSTAGED; num_units],
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
    /// words they flip (see [`FrontierDelta::between`]). A word past the
    /// mask's last gates nothing and is ignored.
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
        let Some(mut bits) = self.bits.take() else {
            return self.masked_plan(active, counters);
        };
        let start = Instant::now();
        counters.delta_words += delta.len() as u64;
        self.flipped.clear();
        let chunks = &self.index.chunks;
        let mut examined = 0u64;
        // Words ascending and chunks ascending: a cursor keeps straddler
        // chunks (overlapping two touched words) from re-deriving twice.
        let mut rechecked_until = 0usize;
        for w in delta.touched_words() {
            let w = w as usize;
            let Some(&first) = self.index.word_chunk.get(w) else {
                continue;
            };
            let hi = (w + 1) * WORD_BITS;
            let word = active.word(w);
            let from = (first as usize).max(rechecked_until);
            let mut ci = from;
            let rest = chunks[from..]
                .iter()
                .zip(&self.index.chunk_mask[from..])
                .zip(&mut bits[from..]);
            for ((&(cs, cl), &mask), bit) in rest {
                let (cs, cl) = (cs as usize, cl as usize);
                if cs >= hi {
                    break;
                }
                let act = if mask != 0 {
                    // Inside the touched word: test the word already loaded.
                    examined += 1;
                    word & mask != 0
                } else {
                    let (act, words) = active.any_in_range_counted(cs, cs + cl);
                    examined += words;
                    act
                };
                if *bit != act {
                    *bit = act;
                    self.flipped.push(ci as u32);
                }
                ci += 1;
            }
            rechecked_until = ci;
        }
        counters.mask_words += examined;
        self.commit(bits, false, counters);
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
        let old_bits = self.bits.take();
        self.flipped.clear();
        for (c, &act) in new_bits.iter().enumerate() {
            if act != old_bits.as_ref().is_some_and(|old| old[c]) {
                self.flipped.push(c as u32);
            }
        }
        self.commit(new_bits, old_bits.is_none(), counters);
        let plan = self.emit();
        counters.time += Nanos::new(start.elapsed().as_nanos() as f64);
        plan
    }

    /// Flips the span slots the `flipped` chunks gate, working on an
    /// owned copy of each touched unit (plans already handed out keep
    /// theirs) that goes back into the table under a new `Arc`; the
    /// running totals move by the replaced and the new unit's own counts.
    /// Stores `bits` as the new planned activity. The outcome is charged
    /// into `counters`: a rebuild for the first plan (`first`) or a delta
    /// touching more than half the units — the same plan a scratch build
    /// gives — and a patch otherwise.
    fn commit(&mut self, bits: Vec<bool>, first: bool, counters: &mut PlanCounters) {
        let Planner {
            index,
            unit_table,
            planned_units,
            planned_subgraphs,
            planned_edges,
            flipped,
            staged,
            staged_at,
            ..
        } = self;
        for &c in flipped.iter() {
            let on = bits[c as usize];
            for span in index.gated(c) {
                let u = span.unit as usize;
                if staged_at[u] == UNSTAGED {
                    staged_at[u] = staged.len() as u32;
                    staged.push(match unit_table[u].take() {
                        Some(planned) => {
                            *planned_units -= 1;
                            *planned_subgraphs -= planned.subgraphs;
                            *planned_edges -= planned.edges;
                            Arc::unwrap_or_clone(planned)
                        }
                        None => PlanUnit::new(index.units[u], index.unit_spans[u] as usize),
                    });
                }
                staged[staged_at[u] as usize].set_span(span.slot as usize, span.edges, on);
            }
        }
        let touched = staged.len();
        let untouched_planned = *planned_units;
        for punit in staged.drain(..) {
            let u = punit.unit.index;
            staged_at[u] = UNSTAGED;
            if punit.subgraphs > 0 {
                *planned_units += 1;
                *planned_subgraphs += punit.subgraphs;
                *planned_edges += punit.edges;
                unit_table[u] = Some(Arc::new(punit));
            }
        }
        if first || touched * 2 > index.num_units() {
            counters.full_rebuilds += 1;
        } else {
            counters.delta_patches += 1;
            counters.units_patched += touched as u64;
            counters.units_reused += untouched_planned as u64;
        }
        self.bits = Some(bits);
    }

    /// Materialises the current state as a [`ScanPlan`]: planned units in
    /// merge order (shared by `Arc`, so untouched units are pointer-equal
    /// across consecutive plans) plus stats in exactly
    /// [`PlanSkeleton::pruned_plan`]'s form.
    fn emit(&self) -> Arc<ScanPlan> {
        let mut units = Vec::with_capacity(self.planned_units);
        units.extend(self.unit_table.iter().flatten().cloned());
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
    fn delta_words_past_the_mask_are_ignored() {
        // `FrontierDelta`'s fields are public, so a caller can name words
        // the 100-vertex mask (words 0 and 1) does not have.
        let g = Rmat::new(100, 500).seed(3).generate();
        let cfg = small_config();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let skeleton = Arc::new(PlanSkeleton::build(&tiled));
        let mut planner = Planner::new(&tiled, Arc::clone(&skeleton));
        let mut counters = PlanCounters::default();
        let mask = mask_at(100, 5, 4);
        let first = planner.plan_for(&cfg, Some(&mask), &mut counters);
        let malformed = FrontierDelta {
            activated: vec![1, 2, 1_000],
            deactivated: vec![u32::MAX],
        };
        let plan = planner.plan_for_delta(&cfg, &mask, &malformed, &mut counters);
        assert_eq!(plan, first);
        assert_eq!(*plan, skeleton.pruned_plan(&tiled, &mask));
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
