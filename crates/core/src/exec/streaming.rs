//! The streaming-apply executor.
//!
//! Two scan primitives cover all five applications:
//!
//! * [`StreamingExecutor::scan_mac`] — parallel MAC (§4.1): every wordline
//!   of a tile is driven simultaneously; bitline sums accumulate into RegO
//!   through an `add`-configured sALU. PageRank and SpMV use one input
//!   vector; collaborative filtering amortises one programming pass over
//!   `F` feature vectors.
//! * [`StreamingExecutor::scan_add_op_lanes_planned`] — parallel add-op
//!   (§4.2): active wordlines are driven one at a time (Figure 16 c3's
//!   `t = 1..4`); the row's stored weights plus the source's distance label
//!   are min-reduced into RegO by the sALU, and lowered destinations become
//!   active for the next iteration. It advances K ≤ 64 queries (lanes) per
//!   pass over one streamed plan; a single query is the one-lane case.
//!
//! Both primitives execute a [`ScanPlan`] — the ordered
//! [`PlanUnit`]s of either the dense full plan or a frontier-pruned plan
//! (see [`crate::exec::plan`]) — one unit at a time through a
//! [`StripScanner`], then merge per-unit [`Metrics`] in plan order. A
//! plan's units cover ascending, disjoint destination ranges, so before a
//! scan one forward `split_at_mut` pass per output vector cuts each unit
//! its own window of every lane's labels (or every input's outputs), and
//! the unit reduces into those windows in place: nothing is staged or
//! copied back. An add-op unit also lists the destinations it lowered, and
//! only those reach `updated`, so a round's host cost follows the planned
//! edges and the lowered vertices, not the strip widths or `|V|`.
//!
//! Both scan kinds run through that one per-unit path, and each has one
//! strip kernel. The worker count ([`StreamingExecutor::with_threads`])
//! only schedules it. A scan whose planned work (edges × lanes or input
//! vectors) is small, or any scan at one worker, runs its units inline on
//! the calling thread: spawning threads would cost it more than it saves.
//! A larger scan fans out over the workers, each keeping its own
//! long-lived scanner, and the calling thread is worker 0 (see
//! [`crate::exec::pool`]); each unit moves to the worker that claims it
//! together with its windows. Results and accounting are therefore
//! bit-identical at any thread count (see [`crate::exec::strip`]).
//!
//! # Timing: dense tile packing within a strip
//!
//! Under column-major streaming, everything processed while a destination
//! strip's RegO window is open reduces into the same register file, so the
//! controller is free to feed the `G × tiles_per_ge` crossbar slots with
//! the strip's *nonempty* tiles back to back, regardless of which source
//! chunk they come from — the ordered edge list of §3.4 delivers them in
//! exactly this order. Sparsity waste therefore only arises *inside* tiles
//! and at packing boundaries ("when one GE has an empty matrix but others
//! do not", §3.3). A strip with `T` nonempty tiles takes
//! `⌈T / slots⌉` GE steps; each step costs `max(program, compute)` when
//! double-buffered drivers pipeline programming against the previous
//! step's evaluation (`pipelined`, default) or their sum otherwise.
//!
//! With `skip_empty` disabled the controller degenerates to scanning every
//! aligned `C × strip_width` window — one step per source chunk, empty or
//! not — which is the ablation quantifying what sparsity-awareness buys.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::config::GraphRConfig;
use crate::exec::lanes::LaneFrontier;
use crate::exec::mask::{FrontierDelta, FrontierMask};
use crate::exec::plan::{PlanSkeleton, PlanUnit, ScanPlan};
use crate::exec::planner::Planner;
use crate::exec::pool;
use crate::exec::strip::{mac_rego_capacity, Fill, StripScanner, UnitCodes};
use crate::exec::ScanEngine;
use crate::metrics::Metrics;
use crate::outofcore::{DiskAccountant, DiskModel};
use crate::preprocess::tiler::TiledGraph;
use crate::trace::{SpanMark, TraceHandle};

/// Computes the value programmed into a crossbar cell for an edge:
/// `(weight, src, dst) → value`. This is the `processEdge`-side transform —
/// e.g. PageRank programs `r / outdegree(src)`, SSSP programs the weight.
/// It is a closure ([`EdgeValueFn::new`]), or data:
/// [`EdgeValueFn::per_source`] (`table[src]`, PageRank's conductance) or
/// [`EdgeValueFn::weight_over_source`] (`w / table[src]`, SpMV's). Every
/// kernel sees [`EdgeValueFn::eval`]'s values; the Fast MAC fill reads a
/// table directly, with the same bits, and a scan rejects a table shorter
/// than |V|.
///
/// Each constructor draws a process-unique id. A Fast-fidelity MAC scan
/// keeps its units' codes, tagged with that id (see
/// [`crate::exec::strip`]'s `# Kernels`). A scan under another id refills
/// the runs it plans; once a dense scan has filled a unit, later scans
/// under the same id, dense or pruned, read its codes. So a closure must
/// give the same value for the same arguments for as long as the id is
/// scanned; a data form borrows its table, which therefore cannot change
/// under the id. A driver makes one per run (CF, whose values change
/// every epoch, one per epoch and direction).
#[derive(Clone, Copy)]
pub struct EdgeValueFn<'f> {
    pub(crate) form: ValueForm<'f>,
    id: u64,
}

/// What an [`EdgeValueFn`] computes its values from.
#[derive(Clone, Copy)]
pub(crate) enum ValueForm<'f> {
    Closure(&'f (dyn Fn(f32, u32, u32) -> f64 + Sync + 'f)),
    PerSource(&'f [f64]),
    WeightOverSource(&'f [f64]),
}

impl<'f> EdgeValueFn<'f> {
    /// Wraps `f` under a fresh id.
    #[must_use]
    pub fn new(f: &'f (dyn Fn(f32, u32, u32) -> f64 + Sync + 'f)) -> Self {
        Self::of(ValueForm::Closure(f))
    }

    /// The value `table[src]` for an edge out of `src`, under a fresh id.
    #[must_use]
    pub fn per_source(table: &'f [f64]) -> Self {
        Self::of(ValueForm::PerSource(table))
    }

    /// The value `f64::from(w) / table[src]` for an edge of weight `w` out
    /// of `src`, under a fresh id.
    #[must_use]
    pub fn weight_over_source(table: &'f [f64]) -> Self {
        Self::of(ValueForm::WeightOverSource(table))
    }

    fn of(form: ValueForm<'f>) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        EdgeValueFn {
            form,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The value of an edge of `weight` from `src` to `dst`.
    #[inline]
    #[must_use]
    pub fn eval(&self, weight: f32, src: u32, dst: u32) -> f64 {
        match self.form {
            ValueForm::Closure(f) => f(weight, src, dst),
            ValueForm::PerSource(table) => table[src as usize],
            ValueForm::WeightOverSource(table) => f64::from(weight) / table[src as usize],
        }
    }

    /// Panics unless a data form's table covers `n` vertices.
    fn assert_covers(&self, n: usize) {
        if let ValueForm::PerSource(table) | ValueForm::WeightOverSource(table) = self.form {
            let len = table.len();
            assert!(len >= n, "value table has {len} entries for {n} vertices");
        }
    }

    /// The id MAC codes are keyed by.
    #[must_use]
    pub(crate) fn id(&self) -> u64 {
        self.id
    }
}

/// The streaming-apply executor over one preprocessed graph.
///
/// Reusable across iterations; every scan accumulates into the same
/// [`Metrics`], which [`StreamingExecutor::into_metrics`] finally yields.
pub struct StreamingExecutor<'a> {
    tiled: &'a TiledGraph,
    config: &'a GraphRConfig,
    /// One long-lived scanner per worker; the worker count is its length.
    /// At one worker, `scanners[0]` runs every unit inline.
    scanners: Vec<StripScanner<'a>>,
    planner: Planner,
    metrics: Metrics,
    disk: Option<DiskAccountant>,
    /// Attached telemetry emitter (observation only; never feeds back
    /// into `metrics`).
    trace: Option<TraceHandle>,
    /// Where the last emitted compute span ended.
    span_mark: SpanMark,
    /// Scans run inline (`[0]`) and fanned out (`[1]`): host scheduling
    /// only, kept out of `metrics`.
    scan_paths: [u64; 2],
    /// Scratch: the current unit's lowered destinations, for inline scans.
    lowered: Vec<(usize, u64)>,
    /// Per strip unit, its kept MAC codes; empty until a Fast MAC scan.
    units: Vec<UnitCodes>,
}

/// Planned work (`edges_planned × K`, K being an add-op scan's lane count
/// or a MAC scan's input-vector count) below which a scan runs inline on
/// the calling thread even when the executor has more workers.
///
/// Fanning out spawns scoped helpers on every scan, which a small plan
/// never earns back. Median host time per scan on a 2-vCPU host, every
/// scan of a `hostbench` workload fanned out over 2 workers vs every scan
/// inline, by planned work: the 240×240-grid traversals' node scans (all
/// below 1,024) 42.5 vs 10.3 µs; `serve_mixed` scans of 1,024–4,096
/// 81 vs 38 µs, 4,096–16,384 104 vs 46 µs, 16,384–100 K 754 vs 1,120 µs
/// and above 100 K 1.04 vs 1.46 ms; 1 M-edge PageRank scans 16.7 vs
/// 28.8 ms. Every traversal scan therefore stays inline. Per scan the
/// break-even now sits between 16 K and 32 K, but sweeping the cutoff
/// over {1,024, 4,096, 16,384} (3 runs of 10 s each) left the median of
/// `serve_mixed` at 927 / 947 / 904 queries/s and of `pagerank_rmat` at
/// 57.7 / 53.5 / 55.8 M edges/s, all within run-to-run noise, so the
/// cutoff stays at the middle value.
const FAN_OUT_MIN_WORK: u64 = 4096;

/// Whether a scan of `work` planned edge-lanes fans out over `workers`.
fn fans_out(work: u64, workers: usize) -> bool {
    workers > 1 && work >= FAN_OUT_MIN_WORK
}

impl<'a> StreamingExecutor<'a> {
    /// Creates a one-thread executor for `tiled` under `config`,
    /// quantising values to `spec` (each algorithm picks its own
    /// fixed-point format).
    #[must_use]
    pub fn new(
        tiled: &'a TiledGraph,
        config: &'a GraphRConfig,
        spec: graphr_units::FixedSpec,
    ) -> Self {
        let planner = Planner::new(tiled, Arc::new(PlanSkeleton::build(tiled)));
        Self::with_planner(tiled, config, spec, planner)
    }

    /// Creates a one-thread executor around a prepared incremental
    /// [`Planner`] (typically stamped out from a session's cached
    /// skeleton + planner index; both must come from this `tiled`).
    #[must_use]
    pub fn with_planner(
        tiled: &'a TiledGraph,
        config: &'a GraphRConfig,
        spec: graphr_units::FixedSpec,
        planner: Planner,
    ) -> Self {
        StreamingExecutor {
            tiled,
            config,
            scanners: vec![StripScanner::new(tiled, config, spec)],
            planner,
            metrics: Metrics::new(),
            disk: None,
            trace: None,
            span_mark: SpanMark::default(),
            scan_paths: [0; 2],
            lowered: Vec::new(),
            units: Vec::new(),
        }
    }

    /// Sets the worker count scans use (at least 1). Only scheduling
    /// changes: results and metrics are bit-identical at any count. The
    /// calling thread is worker 0, and a scan whose plan is too small to
    /// pay for the threads runs inline on it whatever the count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        let threads = threads.max(1);
        self.scanners.truncate(threads);
        while self.scanners.len() < threads {
            let scanner = self.scanners[0].sibling();
            self.scanners.push(scanner);
        }
        self
    }

    /// Runs every tile through [`TileCompute`](crate::engine::TileCompute)
    /// on every worker: see [`StripScanner::tile_reference`]. Results and
    /// metrics are bit-identical to the default kernels.
    #[must_use]
    pub fn with_tile_reference(mut self) -> Self {
        self.scanners = self
            .scanners
            .into_iter()
            .map(StripScanner::tile_reference)
            .collect();
        self
    }

    /// Builder form of [`ScanEngine::set_disk`]: prices every scan's disk
    /// loading under `disk` (see [`crate::outofcore`]).
    #[must_use]
    pub fn with_disk(mut self, disk: DiskModel) -> Self {
        ScanEngine::set_disk(&mut self, Some(disk));
        self
    }

    /// The metrics accumulated so far.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// How many scans so far ran inline and how many fanned out over the
    /// workers, as `[inline, fanned_out]`. This is host scheduling, not a
    /// simulated fact: it depends on the worker count and is never part of
    /// [`Metrics`].
    #[must_use]
    pub fn scan_paths(&self) -> [u64; 2] {
        self.scan_paths
    }

    /// The strip units whose MAC codes this executor holds for one value,
    /// ascending, as `(unit index, codes held)`: one code per stored
    /// `(source, destination)` pair of the unit. Host state, like
    /// [`StreamingExecutor::scan_paths`], never part of [`Metrics`].
    #[must_use]
    pub fn programmed_units(&self) -> Vec<(usize, usize)> {
        let units = self.units.iter().enumerate();
        let held = units.filter_map(|(unit, kept)| kept.value.and(Some((unit, kept.codes.len()))));
        held.collect()
    }

    /// Heap bytes of the MAC codes this executor keeps, whatever values
    /// they hold: host state, never part of [`Metrics`]. The tiling's
    /// tables are counted apart, by [`TiledGraph::heap_bytes`].
    #[must_use]
    pub fn program_bytes(&self) -> usize {
        let codes = self.units.iter().map(|unit| unit.codes.capacity());
        codes.sum::<usize>() * std::mem::size_of::<i32>()
    }

    /// Consumes the executor, yielding its metrics (closing any open disk
    /// accounting window first).
    #[must_use]
    pub fn into_metrics(mut self) -> Metrics {
        self.record_compute();
        self.commit_disk();
        self.metrics
    }

    /// Marks the end of one algorithm iteration (bumps the counter and
    /// charges the controller's convergence check — one GE cycle), then
    /// closes the iteration's disk window: its loads overlap against its
    /// compute, never against a neighbouring iteration's.
    pub fn end_iteration(&mut self) {
        self.metrics.charge_iteration(self.config.ge_cycle());
        self.record_compute();
        self.commit_disk();
    }

    /// Emits a compute span up to the current state, if traced.
    fn record_compute(&mut self) {
        if let Some(trace) = &self.trace {
            trace.record_compute(&mut self.span_mark, &self.metrics);
        }
    }

    /// Closes the open disk window, if any, tracing it.
    fn commit_disk(&mut self) {
        if let Some(disk) = &mut self.disk {
            let window = disk.commit(&mut self.metrics);
            if let Some(trace) = &self.trace {
                trace.record_disk(&window);
            }
        }
    }

    /// The one per-unit path every scan kind runs through. `out` holds
    /// one vector per lane or input vector; `scan` runs one unit in place
    /// on its own windows of them (see [`unit_windows`]) with its entry of
    /// `states` (one per planned unit), appending the destinations it
    /// lowered to its `lowered` list. A plan whose work —
    /// `edges_planned × out.len()` — is below [`FAN_OUT_MIN_WORK`], or any
    /// plan at one worker, runs inline on `scanners[0]`; a larger one fans
    /// out over the worker scanners, each unit moving to its worker with
    /// its windows. Either way unit metrics merge, and `on_lowered` sees
    /// each unit's lowered list, in plan order. Returns the summed
    /// per-unit counts.
    fn run_units<S: Send>(
        &mut self,
        plan: &ScanPlan,
        out: &mut [Vec<f64>],
        states: Vec<S>,
        scan: impl Fn(
                &mut StripScanner<'a>,
                &PlanUnit,
                S,
                &mut [&mut [f64]],
                &mut Vec<(usize, u64)>,
                &mut Metrics,
            ) -> u64
            + Sync,
        mut on_lowered: impl FnMut(&[(usize, u64)]),
    ) -> u64 {
        let lanes = out.len();
        let work = plan.stats().edges_planned.saturating_mul(lanes as u64);
        let fan_out = fans_out(work, self.scanners.len());
        self.scan_paths[usize::from(fan_out)] += 1;
        let mut windows = unit_windows(plan, out);
        let units = plan
            .units()
            .iter()
            .zip(windows.chunks_mut(lanes))
            .zip(states);
        let mut total = 0u64;
        if !fan_out {
            let (scanner, lowered) = (&mut self.scanners[0], &mut self.lowered);
            for ((punit, unit_windows), state) in units {
                let mut unit_metrics = Metrics::new();
                lowered.clear();
                total += scan(
                    scanner,
                    punit,
                    state,
                    unit_windows,
                    lowered,
                    &mut unit_metrics,
                );
                self.metrics.merge(&unit_metrics);
                on_lowered(lowered);
            }
            return total;
        }
        let per_unit = pool::run_on(
            &mut self.scanners,
            units,
            |scanner, ((punit, unit_windows), state)| {
                let (mut lowered, mut unit_metrics) = (Vec::new(), Metrics::new());
                let count = scan(
                    scanner,
                    punit,
                    state,
                    unit_windows,
                    &mut lowered,
                    &mut unit_metrics,
                );
                (unit_metrics, count, lowered)
            },
        );
        for (unit_metrics, count, lowered) in &per_unit {
            total += count;
            self.metrics.merge(unit_metrics);
            on_lowered(lowered);
        }
        total
    }

    /// What every scan charges once after its units: the plan's stream
    /// statistics, its disk loading, and the RegO capacity it needs.
    fn finish_scan(&mut self, plan: &ScanPlan, rego_capacity: u64) {
        self.metrics.charge_plan(plan.stats());
        if let Some(disk) = &mut self.disk {
            disk.charge_scan(self.tiled, plan, &mut self.metrics);
        }
        let events = &mut self.metrics.events;
        events.rego_capacity_required = events.rego_capacity_required.max(rego_capacity);
    }

    /// One parallel-MAC pass over the whole graph: for each input vector
    /// `x` in `inputs`, computes `y[dst] = Σ_{src→dst} value(w, src, dst) ·
    /// x[src]`, returning one output vector per input. All inputs share a
    /// single tile-programming pass (K MVM evaluations per tile). Executes
    /// the dense full plan.
    pub fn scan_mac(&mut self, value: &EdgeValueFn<'_>, inputs: &[&[f64]]) -> Vec<Vec<f64>> {
        let plan = self.planner.skeleton().full_plan();
        self.scan_mac_planned(&plan, value, inputs)
    }

    /// [`StreamingExecutor::scan_mac`] over an explicit [`ScanPlan`]. A
    /// pruned plan is functionally exact only when the inputs are zero on
    /// pruned source rows (see
    /// [`PlanSkeleton::pruned_plan`](crate::exec::plan::PlanSkeleton::pruned_plan)).
    pub fn scan_mac_planned(
        &mut self,
        plan: &ScanPlan,
        value: &EdgeValueFn<'_>,
        inputs: &[&[f64]],
    ) -> Vec<Vec<f64>> {
        let n = self.tiled.num_vertices();
        let k = inputs.len();
        assert!(k > 0, "at least one input vector required");
        for x in inputs {
            assert_eq!(x.len(), n, "input vectors must have one entry per vertex");
        }
        value.assert_covers(n);
        let mut outputs = vec![vec![0.0; n]; k];
        // Out of the executor while the scan runs, so a scan that panics
        // leaves no half-filled codes behind. The tile kernel keeps none.
        let mut held = std::mem::take(&mut self.units);
        if !self.scanners[0].programs_tiles() {
            let order = self.tiled.order();
            let units = order.blocks_per_side() * order.strips_per_block();
            held.resize_with(units, UnitCodes::default);
            for punit in plan.units() {
                let unit = punit.unit.index;
                if held[unit].codes.is_empty() {
                    held[unit].codes = vec![0; self.tiled.unit_cells(unit)];
                }
            }
        }
        let mut rest = held.iter_mut().enumerate();
        let states = plan.units().iter().map(|punit| {
            let found = rest.find(|(unit, _)| *unit == punit.unit.index);
            found.map(|(_, codes)| codes)
        });
        let fill = Fill {
            value,
            source_codes: OnceLock::new(),
        };
        self.run_units(
            plan,
            &mut outputs,
            states.collect(),
            |scanner, punit, codes, outputs, _, metrics| {
                scanner.scan_mac_unit(punit, &fill, codes, inputs, outputs, metrics);
                0
            },
            |_| {},
        );
        self.units = held;
        self.finish_scan(plan, mac_rego_capacity(self.config, self.tiled));
        outputs
    }

    /// One parallel-add-op pass (Figure 16 c3) advancing all K lanes of
    /// `active` over one plan — normally the union plan built from
    /// [`LaneFrontier::union`]. Each planned subgraph is streamed and
    /// programmed once; active rows are driven once per lane holding them
    /// (every lane needs its own `dist(u)` on the constant line, so lanes
    /// serialise on the wordline), and each lane min-reduces the candidate
    /// `combine(addends[q][src], stored_weight)` into its own
    /// `frontiers[q]` buffer. Lowered destinations are recorded per lane
    /// in `updated`, and `frontiers[q][v]` changes only where lane `q`'s
    /// bit at `v` gets set. Returns the per-lane row drives.
    ///
    /// `combine` is the relaxation arithmetic — `du + w` for SSSP (the
    /// crossbar row plus the constant line of Figure 16), `du + 1` for BFS,
    /// plain `du` for label propagation. A single query is the one-lane
    /// case; [`ScanEngine::scan_add_op_planned`] wraps one for callers
    /// holding plain masks.
    #[allow(clippy::too_many_arguments)]
    pub fn scan_add_op_lanes_planned(
        &mut self,
        plan: &ScanPlan,
        value: &EdgeValueFn<'_>,
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
        addends: &[Vec<f64>],
        active: &LaneFrontier,
        frontiers: &mut [Vec<f64>],
        updated: &mut LaneFrontier,
    ) -> u64 {
        let n = self.tiled.num_vertices();
        let k = active.num_lanes();
        value.assert_covers(n);
        assert_eq!(addends.len(), k, "one addend vector per lane required");
        assert_eq!(frontiers.len(), k, "one frontier vector per lane required");
        assert_eq!(updated.num_lanes(), k, "updated must carry the same lanes");
        assert_eq!(
            active.num_vertices(),
            n,
            "active lanes must range over every vertex"
        );
        assert_eq!(
            updated.num_vertices(),
            n,
            "updated lanes must range over every vertex"
        );
        for (q, (a, f)) in addends.iter().zip(frontiers.iter()).enumerate() {
            assert_eq!(a.len(), n, "lane {q} addend must have one entry per vertex");
            assert_eq!(
                f.len(),
                n,
                "lane {q} frontier must have one entry per vertex"
            );
        }
        let rows = self.run_units(
            plan,
            frontiers,
            vec![(); plan.units().len()],
            |scanner, punit, (), frontiers, lowered, metrics| {
                scanner.scan_add_op_lanes_unit(
                    punit, value, combine, addends, active, frontiers, lowered, metrics,
                )
            },
            // The scan only ever *sets* lane bits, so OR-ing each unit's
            // lowered destinations preserves whatever the caller seeded.
            |lowered| {
                for &(v, word) in lowered {
                    updated.or_lanes(v, word);
                }
            },
        );
        // Every lane keeps its own strip window open in RegO.
        self.finish_scan(plan, (k * self.config.strip_width()) as u64);
        rows
    }
}

/// Cuts every plan unit's window out of each vector in `lanes`: entry
/// `u × K + q` of the result is lane `q`'s slice over exactly unit `u`'s
/// destinations (empty for a padding-only strip, whose `dst_start` may lie
/// past the last vertex). A plan's units run in ascending, disjoint
/// destination order, so one forward `split_at_mut` pass per lane yields
/// them all and the windows never alias.
///
/// # Panics
///
/// Panics if the plan's units are out of destination order or run past
/// the vectors' ends.
fn unit_windows<'v>(plan: &ScanPlan, lanes: &'v mut [Vec<f64>]) -> Vec<&'v mut [f64]> {
    let mut rest: Vec<&'v mut [f64]> = lanes.iter_mut().map(Vec::as_mut_slice).collect();
    let mut windows = Vec::with_capacity(plan.units().len() * rest.len());
    let mut pos = 0;
    for punit in plan.units() {
        let unit = &punit.unit;
        if unit.dst_len == 0 {
            windows.extend(rest.iter().map(|_| <&mut [f64]>::default()));
            continue;
        }
        assert!(
            unit.dst_start >= pos,
            "plan units must run in ascending, disjoint destination order"
        );
        for lane in &mut rest {
            let tail = std::mem::take(lane).split_at_mut(unit.dst_start - pos).1;
            let (window, next) = tail.split_at_mut(unit.dst_len);
            windows.push(window);
            *lane = next;
        }
        pos = unit.dst_start + unit.dst_len;
    }
    windows
}

impl ScanEngine for StreamingExecutor<'_> {
    fn plan(&mut self, active: Option<&FrontierMask>) -> Arc<ScanPlan> {
        let before = self.metrics.plan;
        let plan = self
            .planner
            .plan_for(self.config, active, &mut self.metrics.plan);
        if let Some(trace) = &self.trace {
            trace.record_plan(&before, &self.metrics.plan);
        }
        plan
    }

    fn plan_with_delta(&mut self, active: &FrontierMask, delta: &FrontierDelta) -> Arc<ScanPlan> {
        let before = self.metrics.plan;
        let plan = self
            .planner
            .plan_for_delta(self.config, active, delta, &mut self.metrics.plan);
        if let Some(trace) = &self.trace {
            trace.record_plan(&before, &self.metrics.plan);
        }
        plan
    }

    fn scan_mac_planned(
        &mut self,
        plan: &ScanPlan,
        value: &EdgeValueFn<'_>,
        inputs: &[&[f64]],
    ) -> Vec<Vec<f64>> {
        StreamingExecutor::scan_mac_planned(self, plan, value, inputs)
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
        StreamingExecutor::scan_add_op_lanes_planned(
            self, plan, value, combine, addends, active, frontiers, updated,
        )
    }

    fn set_disk(&mut self, disk: Option<DiskModel>) {
        self.commit_disk();
        self.disk = disk.map(|model| DiskAccountant::new(model, self.metrics.elapsed));
    }

    fn set_trace(&mut self, trace: Option<TraceHandle>) {
        // Anchor the next compute span at the current state, so a handle
        // attached mid-run does not backdate a span to time zero.
        self.span_mark = SpanMark::at(&self.metrics);
        self.trace = trace;
    }

    fn trace(&self) -> Option<&TraceHandle> {
        self.trace.as_ref()
    }

    fn end_iteration(&mut self) {
        StreamingExecutor::end_iteration(self);
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn take_metrics(&mut self) -> Metrics {
        // A trailing span covers scans since the last iteration boundary
        // (e.g. CF's transposed pass, which never calls end_iteration).
        self.record_compute();
        self.commit_disk();
        if let Some(disk) = &mut self.disk {
            disk.reset();
        }
        self.span_mark = SpanMark::default();
        std::mem::take(&mut self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Fidelity, GraphRConfig, StreamingOrder};
    use graphr_graph::algorithms::spmv::spmv;
    use graphr_graph::generators::rmat::Rmat;
    use graphr_graph::EdgeList;
    use graphr_units::FixedSpec;

    fn small_config(fidelity: Fidelity) -> GraphRConfig {
        GraphRConfig::builder()
            .crossbar_size(4)
            .crossbars_per_ge(8)
            .num_ges(2)
            .fidelity(fidelity)
            .build()
            .unwrap()
    }

    fn weights_value(w: f32, _s: u32, _d: u32) -> f64 {
        f64::from(w)
    }

    /// One single-query add-op pass over the dense full plan: subgraphs
    /// without active sources are still streamed, only their GE work is
    /// skipped.
    fn dense_add_op(
        exec: &mut StreamingExecutor<'_>,
        value: &EdgeValueFn<'_>,
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
        addend: &[f64],
        active: &FrontierMask,
        frontier: &mut [f64],
        updated: &mut FrontierMask,
    ) -> u64 {
        let plan = exec.plan(None);
        exec.scan_add_op_planned(&plan, value, combine, addend, active, frontier, updated)
    }

    #[test]
    fn mac_scan_matches_gold_spmv() {
        let g = Rmat::new(50, 300).seed(11).max_weight(4).generate();
        let cfg = small_config(Fidelity::Fast);
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let spec = FixedSpec::new(16, 8).unwrap();
        let mut exec = StreamingExecutor::new(&tiled, &cfg, spec);
        let x: Vec<f64> = (0..50).map(|i| (i % 5) as f64 * 0.25).collect();
        let y = exec.scan_mac(&EdgeValueFn::new(&weights_value), &[&x]);
        let gold = spmv(&g.to_csr(), &x);
        for (a, b) in y[0].iter().zip(&gold) {
            assert!((a - b).abs() < 1e-6, "mac {a} vs gold {b}");
        }
    }

    #[test]
    fn fast_and_analog_scans_agree() {
        let g = Rmat::new(40, 150).seed(5).max_weight(3).generate();
        let cfg_f = small_config(Fidelity::Fast);
        let cfg_a = small_config(Fidelity::Analog);
        let tiled_f = TiledGraph::preprocess(&g, &cfg_f).unwrap();
        let tiled_a = TiledGraph::preprocess(&g, &cfg_a).unwrap();
        let spec = FixedSpec::new(16, 8).unwrap();
        let x: Vec<f64> = (0..40).map(|i| (i % 3) as f64).collect();
        let mut ef = StreamingExecutor::new(&tiled_f, &cfg_f, spec);
        let mut ea = StreamingExecutor::new(&tiled_a, &cfg_a, spec);
        let yf = ef.scan_mac(&EdgeValueFn::new(&weights_value), &[&x]);
        let ya = ea.scan_mac(&EdgeValueFn::new(&weights_value), &[&x]);
        for (a, b) in yf[0].iter().zip(&ya[0]) {
            assert!((a - b).abs() < 1e-9);
        }
        // Identical event counts and therefore identical time and energy.
        let (mf, ma) = (ef.into_metrics(), ea.into_metrics());
        assert_eq!(mf.events, ma.events);
        assert_eq!(mf.elapsed, ma.elapsed);
        assert_eq!(mf.energy, ma.energy);
    }

    #[test]
    fn multi_input_mac_shares_programming() {
        let g = Rmat::new(30, 100).seed(2).generate();
        let cfg = small_config(Fidelity::Fast);
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let spec = FixedSpec::new(16, 8).unwrap();
        let x1: Vec<f64> = vec![1.0; 30];
        let x2: Vec<f64> = (0..30).map(|i| i as f64 * 0.1).collect();

        let mut e2 = StreamingExecutor::new(&tiled, &cfg, spec);
        let both = e2.scan_mac(&EdgeValueFn::new(&weights_value), &[&x1, &x2]);
        let m2 = e2.into_metrics();

        let mut e1 = StreamingExecutor::new(&tiled, &cfg, spec);
        let only1 = e1.scan_mac(&EdgeValueFn::new(&weights_value), &[&x1]);
        let m1 = e1.into_metrics();

        assert_eq!(both[0], only1[0]);
        // Programming happened once in both runs...
        assert_eq!(m2.events.edges_loaded, m1.events.edges_loaded);
        assert_eq!(m2.events.tiles_loaded, m1.events.tiles_loaded);
        // ...but the 2-input scan ran twice the MVMs.
        assert_eq!(m2.events.mvm_scans, 2 * m1.events.mvm_scans);
    }

    #[test]
    fn add_op_relaxes_like_bellman_ford_round() {
        // Path 0 →(2) 1 →(3) 2 with initial dist [0, INF, INF].
        let mut g = EdgeList::new(3);
        g.add_edge(graphr_graph::Edge::new(0, 1, 2.0)).unwrap();
        g.add_edge(graphr_graph::Edge::new(1, 2, 3.0)).unwrap();
        let cfg = small_config(Fidelity::Fast);
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let spec = FixedSpec::new(16, 0).unwrap();
        let inf = spec.max_value();
        let mut exec = StreamingExecutor::new(&tiled, &cfg, spec);

        let dist = vec![0.0, inf, inf];
        let active = FrontierMask::from_slice(&[true, false, false]);
        let mut frontier = dist.clone();
        let mut updated = FrontierMask::new(3);
        let rows = dense_add_op(
            &mut exec,
            &EdgeValueFn::new(&weights_value),
            &|du, w| du + w,
            &dist,
            &active,
            &mut frontier,
            &mut updated,
        );
        assert_eq!(rows, 1);
        assert_eq!(frontier, vec![0.0, 2.0, inf]);
        assert_eq!(updated.to_vec(), vec![false, true, false]);

        // Second round from vertex 1.
        let dist = frontier.clone();
        let active = updated.clone();
        let mut updated2 = FrontierMask::new(3);
        let mut frontier2 = dist.clone();
        dense_add_op(
            &mut exec,
            &EdgeValueFn::new(&weights_value),
            &|du, w| du + w,
            &dist,
            &active,
            &mut frontier2,
            &mut updated2,
        );
        assert_eq!(frontier2, vec![0.0, 2.0, 5.0]);
        assert_eq!(updated2.to_vec(), vec![false, false, true]);
    }

    #[test]
    fn add_op_skips_inactive_subgraphs() {
        let g = Rmat::new(64, 300).seed(9).generate();
        let cfg = small_config(Fidelity::Fast);
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let spec = FixedSpec::new(16, 0).unwrap();
        let inf = spec.max_value();
        let mut exec = StreamingExecutor::new(&tiled, &cfg, spec);
        let dist = vec![inf; 64];
        let active = FrontierMask::new(64); // nothing active: everything skipped
        let mut frontier = dist.clone();
        let mut updated = FrontierMask::new(64);
        let rows = dense_add_op(
            &mut exec,
            &EdgeValueFn::new(&weights_value),
            &|du, w| du + w,
            &dist,
            &active,
            &mut frontier,
            &mut updated,
        );
        assert_eq!(rows, 0);
        let m = exec.into_metrics();
        assert_eq!(m.events.subgraphs_processed, 0);
        assert!(m.events.subgraphs_skipped_inactive > 0);
    }

    #[test]
    fn disabling_skip_charges_idle_windows() {
        let g = Rmat::new(64, 50).seed(3).generate();
        let cfg_skip = small_config(Fidelity::Fast);
        let cfg_noskip = GraphRConfig::builder()
            .crossbar_size(4)
            .crossbars_per_ge(8)
            .num_ges(2)
            .skip_empty(false)
            .build()
            .unwrap();
        let tiled = TiledGraph::preprocess(&g, &cfg_skip).unwrap();
        let spec = FixedSpec::new(16, 8).unwrap();
        let x = vec![1.0; 64];

        let mut es = StreamingExecutor::new(&tiled, &cfg_skip, spec);
        let ys = es.scan_mac(&EdgeValueFn::new(&weights_value), &[&x]);
        let ms = es.into_metrics();

        let tiled2 = TiledGraph::preprocess(&g, &cfg_noskip).unwrap();
        let mut en = StreamingExecutor::new(&tiled2, &cfg_noskip, spec);
        let yn = en.scan_mac(&EdgeValueFn::new(&weights_value), &[&x]);
        let mn = en.into_metrics();

        assert_eq!(ys, yn, "skipping must not change results");
        assert!(
            mn.elapsed > ms.elapsed,
            "skipping must save time: {} vs {}",
            mn.elapsed,
            ms.elapsed
        );
        assert!(mn.events.adc_conversions > ms.events.adc_conversions);
    }

    #[test]
    fn packing_beats_one_step_per_chunk() {
        // A graph whose edges spread over many chunks but few tiles per
        // chunk: packing should need far fewer steps than chunks.
        let g = Rmat::new(512, 600).seed(4).generate();
        let cfg = small_config(Fidelity::Fast);
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let spec = FixedSpec::new(16, 8).unwrap();
        let x = vec![1.0; 512];
        let mut exec = StreamingExecutor::new(&tiled, &cfg, spec);
        let _ = exec.scan_mac(&EdgeValueFn::new(&weights_value), &[&x]);
        let m = exec.into_metrics();
        // 512 vertices / 4 rows = 128 chunks per strip-pass; with 4 slots
        // per step and ~hundreds of tiles, packed steps must stay well
        // below the aligned-window count while covering all tiles.
        let slots = 2 * 2; // num_ges × tiles_per_ge
        let min_steps = m.events.tiles_loaded.div_ceil(slots);
        let cycle_ns = cfg.ge_cycle().as_nanos();
        let compute_ns = m.time_breakdown.compute.as_nanos();
        assert!(
            compute_ns >= min_steps as f64 * cycle_ns - 1e-6,
            "compute time must cover packed steps"
        );
    }

    #[test]
    fn row_major_needs_bigger_rego_and_more_writes() {
        let g = Rmat::new(64, 400).seed(7).generate();
        let col_cfg = small_config(Fidelity::Fast);
        let row_cfg = GraphRConfig::builder()
            .crossbar_size(4)
            .crossbars_per_ge(8)
            .num_ges(2)
            .order(StreamingOrder::RowMajor)
            .build()
            .unwrap();
        let spec = FixedSpec::new(16, 8).unwrap();
        let x = vec![0.5; 64];

        let tiled_c = TiledGraph::preprocess(&g, &col_cfg).unwrap();
        let mut ec = StreamingExecutor::new(&tiled_c, &col_cfg, spec);
        let yc = ec.scan_mac(&EdgeValueFn::new(&weights_value), &[&x]);
        let mc = ec.into_metrics();

        let tiled_r = TiledGraph::preprocess(&g, &row_cfg).unwrap();
        let mut er = StreamingExecutor::new(&tiled_r, &row_cfg, spec);
        let yr = er.scan_mac(&EdgeValueFn::new(&weights_value), &[&x]);
        let mr = er.into_metrics();

        assert_eq!(yc, yr, "traversal order must not change results");
        assert!(
            mr.events.register_writes > mc.events.register_writes,
            "row-major should write registers more: {} vs {}",
            mr.events.register_writes,
            mc.events.register_writes
        );
        assert!(mr.events.rego_capacity_required >= mc.events.rego_capacity_required);
        assert!(mr.elapsed > mc.elapsed, "row-major should be slower");
    }

    /// Runs `run` three times back to back on one long-lived executor per
    /// worker count in `[1, 2, 3, 7]` and asserts every pass equals the
    /// one-thread executor's: scratch must not leak from one scan into the
    /// next once scanners persist. Returns the summed `[inline,
    /// fanned_out]` scan counts of the multi-worker executors.
    fn assert_thread_sweep_identical<T: PartialEq + std::fmt::Debug>(
        tiled: &TiledGraph,
        cfg: &GraphRConfig,
        spec: FixedSpec,
        run: impl Fn(&mut StreamingExecutor<'_>) -> T,
    ) -> [u64; 2] {
        let passes = |threads| {
            let mut exec = StreamingExecutor::new(tiled, cfg, spec).with_threads(threads);
            let outputs = (0..3).map(|_| run(&mut exec)).collect::<Vec<T>>();
            (outputs, exec.scan_paths())
        };
        let (reference, [_, fanned_out]) = passes(1);
        assert_eq!(fanned_out, 0, "one worker always runs inline");
        let mut paths = [0; 2];
        for threads in [2, 3, 7] {
            let (outputs, [inline, fanned_out]) = passes(threads);
            assert_eq!(outputs, reference, "{threads} threads");
            paths[0] += inline;
            paths[1] += fanned_out;
        }
        paths
    }

    #[test]
    fn mac_is_bit_identical_at_every_thread_count() {
        // The larger graph's full plans reach the fan-out cutoff; one-vertex
        // masks and the smaller graph's plans stay below it.
        for (n, edges, straddles) in [(300, 2000, false), (600, 6000, true)] {
            let g = Rmat::new(n, edges).seed(3).max_weight(7).generate();
            let cfg = small_config(Fidelity::Fast);
            let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
            let spec = FixedSpec::new(16, 8).unwrap();
            let x1: Vec<f64> = (0..n).map(|i| (i % 11) as f64 * 0.125).collect();
            let x2: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
            let [inline, fanned_out] = assert_thread_sweep_identical(&tiled, &cfg, spec, |exec| {
                let mut outputs = Vec::new();
                for round in 0..4 {
                    outputs.push(exec.scan_mac(&EdgeValueFn::new(&weights_value), &[&x1]));
                    outputs.push(exec.scan_mac(&EdgeValueFn::new(&weights_value), &[&x1, &x2]));
                    // A one-vertex mask plans fewer units than workers.
                    let mut mask = FrontierMask::new(n);
                    mask.set(round * 70);
                    let plan = exec.plan(Some(&mask));
                    outputs.push(exec.scan_mac_planned(
                        &plan,
                        &EdgeValueFn::new(&weights_value),
                        &[&x2],
                    ));
                    exec.end_iteration();
                }
                (outputs, exec.take_metrics())
            });
            if straddles {
                assert!(
                    inline > 0 && fanned_out > 0,
                    "{edges} edges: both paths must run"
                );
            }
        }
    }

    #[test]
    fn add_op_is_bit_identical_at_every_thread_count() {
        let g = Rmat::new(200, 1200).seed(5).max_weight(9).generate();
        let cfg = small_config(Fidelity::Fast);
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let spec = FixedSpec::new(16, 0).unwrap();
        let inf = spec.max_value();
        assert_thread_sweep_identical(&tiled, &cfg, spec, |exec| {
            let mut dist = vec![inf; 200];
            dist[0] = 0.0;
            let mut active = FrontierMask::new(200);
            active.set(0);
            let mut rows_history = Vec::new();
            for _ in 0..200 {
                let mut frontier = dist.clone();
                let mut updated = FrontierMask::new(200);
                rows_history.push(dense_add_op(
                    exec,
                    &EdgeValueFn::new(&weights_value),
                    &|du, w| du + w,
                    &dist,
                    &active,
                    &mut frontier,
                    &mut updated,
                ));
                exec.end_iteration();
                dist = frontier;
                active = updated;
                if active.is_empty() {
                    break;
                }
            }
            (dist, rows_history, exec.take_metrics())
        });
    }

    #[test]
    fn fused_lanes_are_bit_identical_at_every_thread_count() {
        use crate::sim::{run_sssp_lanes_with, LaneTraversalOptions};
        // The larger graph's middle rounds plan past the fan-out cutoff;
        // its first rounds, from a few sources, stay below it.
        for (n, edges, straddles) in [(200u32, 1200, false), (800, 8000, true)] {
            let g = Rmat::new(n as usize, edges)
                .seed(5)
                .max_weight(9)
                .generate();
            let cfg = small_config(Fidelity::Fast);
            let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
            let mut paths = [0; 2];
            for sources in [vec![0u32], vec![0, 3, 50, n - 1]] {
                let opts = LaneTraversalOptions::new(sources);
                let [inline, fanned_out] =
                    assert_thread_sweep_identical(&tiled, &cfg, opts.spec, |exec| {
                        run_sssp_lanes_with(&g, exec, &opts).unwrap()
                    });
                paths[0] += inline;
                paths[1] += fanned_out;
            }
            if straddles {
                assert!(
                    paths[0] > 0 && paths[1] > 0,
                    "{edges} edges: both paths must run"
                );
            }
        }
    }

    /// A graph of four disjoint R-MAT quarters: sources in one quarter
    /// reach no other quarter's strips, so their plans prune those units.
    fn quarters(n: usize, edges_per_quarter: usize) -> EdgeList {
        let quarter = Rmat::new(n / 4, edges_per_quarter)
            .seed(7)
            .max_weight(9)
            .generate();
        let edges = (0..4u32)
            .flat_map(|i| {
                let shift = i * (n / 4) as u32;
                quarter
                    .edges()
                    .iter()
                    .map(move |e| graphr_graph::Edge::new(e.src + shift, e.dst + shift, e.weight))
            })
            .collect();
        EdgeList::from_edges(n, edges).unwrap()
    }

    /// Units write only inside their own destination windows: labels and
    /// `updated` lane words seeded outside every planned unit's window
    /// leave a scan untouched, and everything inside matches the
    /// one-thread scan, at 1, 2, 3 and 7 threads, on plans below and above
    /// [`FAN_OUT_MIN_WORK`]. Sources sit in the second and fourth quarter,
    /// so pruned units lie before, between and after the planned ones.
    #[test]
    fn add_op_scans_write_only_inside_planned_windows() {
        // Above any label the scan can produce, so a stray write lowers it.
        const SENTINEL: f64 = 1e12;
        // Quarters are whole source chunks and strips, so no planned
        // subgraph holds a source from an inactive quarter.
        for (n, edges, k, fan_out) in [(256, 150, 1, false), (1600, 4000, 3, true)] {
            let g = quarters(n, edges);
            let cfg = small_config(Fidelity::Fast);
            let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
            let spec = FixedSpec::new(16, 0).unwrap();
            let masks: Vec<FrontierMask> = (0..k)
                .map(|q| {
                    let mut mask = FrontierMask::new(n);
                    for quarter in [1, 3] {
                        let sources = quarter * n / 4 + q..(quarter + 1) * n / 4;
                        for v in sources.step_by(if fan_out { 2 + q } else { 19 }) {
                            mask.set(v);
                        }
                    }
                    mask
                })
                .collect();
            let active = LaneFrontier::from_masks(&masks);
            // Sources at 0 and the rest spread over 1..50, so scans lower.
            let addends: Vec<Vec<f64>> = (0..k)
                .map(|q| {
                    let label = |v| {
                        if masks[q].get(v) {
                            0.0
                        } else {
                            (1 + (v * 7 + q) % 49) as f64
                        }
                    };
                    (0..n).map(label).collect()
                })
                .collect();
            let scan = |threads: usize| {
                let mut exec = StreamingExecutor::new(&tiled, &cfg, spec).with_threads(threads);
                let plan = exec.plan(Some(active.union()));
                let mut inside = vec![false; n];
                for punit in plan.units() {
                    let unit = &punit.unit;
                    inside[unit.dst_start..unit.dst_start + unit.dst_len].fill(true);
                }
                let mut frontiers = addends.clone();
                let mut updated = LaneFrontier::new(n, k);
                for v in (0..n).filter(|&v| !inside[v]) {
                    for frontier in &mut frontiers {
                        frontier[v] = SENTINEL;
                    }
                    updated.set(v % k, v);
                }
                let seeded = updated.clone();
                exec.scan_add_op_lanes_planned(
                    &plan,
                    &EdgeValueFn::new(&weights_value),
                    &|du, w| du + w,
                    &addends,
                    &active,
                    &mut frontiers,
                    &mut updated,
                );
                // Inside, a label drops exactly where its lane's bit is set.
                for v in (0..n).filter(|&v| inside[v]) {
                    for (q, frontier) in frontiers.iter().enumerate() {
                        let lowered = frontier[v] < addends[q][v];
                        assert_eq!(
                            lowered,
                            updated.get(q, v),
                            "{threads} threads: lane {q} at {v}"
                        );
                    }
                }
                for v in (0..n).filter(|&v| !inside[v]) {
                    for (q, frontier) in frontiers.iter().enumerate() {
                        assert_eq!(frontier[v], SENTINEL, "{threads} threads: lane {q} at {v}");
                    }
                    assert_eq!(
                        updated.vertex_lanes(v),
                        seeded.vertex_lanes(v),
                        "{threads} threads: updated at {v}"
                    );
                }
                let first = inside.iter().position(|&i| i);
                let last = inside.iter().rposition(|&i| i);
                assert!(first > Some(0), "the plan must prune a leading unit");
                let gap = (first.unwrap()..last.unwrap()).any(|v| !inside[v]);
                assert!(gap, "the plan must prune a unit between planned ones");
                (frontiers, updated, exec.take_metrics(), exec.scan_paths())
            };
            let (frontiers, updated, metrics, _) = scan(1);
            let lowered = frontiers.iter().zip(&addends);
            assert!(
                lowered
                    .flat_map(|(f, a)| f.iter().zip(a))
                    .any(|(f, a)| f < a),
                "the scan must lower labels"
            );
            for threads in [2, 3, 7] {
                let (f, u, m, [inline, fanned_out]) = scan(threads);
                assert_eq!(
                    (&f, &u, &m),
                    (&frontiers, &updated, &metrics),
                    "{threads} threads"
                );
                assert_eq!((inline, fanned_out), if fan_out { (0, 1) } else { (1, 0) });
            }
        }
    }

    /// Executors over one tiling agree whatever ran on it before: after an
    /// add-op scan and a tile-reference MAC scan, a first Fast MAC scan at
    /// two threads and a later one-thread executor under a new value id
    /// give the tile reference's outputs.
    #[test]
    fn executors_over_one_tiling_agree() {
        let g = Rmat::new(300, 2000).seed(3).max_weight(7).generate();
        let cfg = small_config(Fidelity::Fast);
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let spec = FixedSpec::new(16, 8).unwrap();
        let value = EdgeValueFn::new(&weights_value);
        let x: Vec<f64> = (0..300).map(|i| (i % 7) as f64 * 0.25).collect();

        let mut addop = StreamingExecutor::new(&tiled, &cfg, spec);
        let mut active = FrontierMask::new(300);
        active.set(0);
        let (dist, mut updated) = (vec![0.0; 300], FrontierMask::new(300));
        let mut frontier = dist.clone();
        dense_add_op(
            &mut addop,
            &value,
            &|du, w| du + w,
            &dist,
            &active,
            &mut frontier,
            &mut updated,
        );
        let reference = StreamingExecutor::new(&tiled, &cfg, spec).with_tile_reference();
        let expected = reference.with_threads(2).scan_mac(&value, &[&x]);

        let mut first = StreamingExecutor::new(&tiled, &cfg, spec).with_threads(2);
        assert_eq!(first.scan_mac(&value, &[&x]), expected);
        let mut second = StreamingExecutor::new(&tiled, &cfg, spec);
        assert_eq!(
            second.scan_mac(&EdgeValueFn::new(&weights_value), &[&x]),
            expected
        );
    }

    #[test]
    fn iteration_counter_and_controller_charge() {
        let g = Rmat::new(10, 20).seed(1).generate();
        let cfg = small_config(Fidelity::Fast);
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let mut exec = StreamingExecutor::new(&tiled, &cfg, FixedSpec::new(16, 8).unwrap());
        exec.end_iteration();
        exec.end_iteration();
        assert_eq!(exec.metrics().iterations, 2);
        assert!(exec.metrics().elapsed.as_nanos() > 0.0);
    }
}
