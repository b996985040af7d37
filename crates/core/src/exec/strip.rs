//! Strip-level scan units: the parallel-safe decomposition of the
//! streaming-apply scan.
//!
//! GraphR's column-major streaming (§3.3) processes one *destination
//! strip* at a time: everything reducing into a strip's RegO window is
//! independent of every other strip. That makes the global destination
//! strip — the `(block column, strip)` pair, spanning all block rows — the
//! natural unit of host-side parallelism, mirroring the accelerator's own
//! inter-subgraph GE parallelism. A [`StripUnit`] names one such unit;
//! [`StripScanner`] executes one unit with private engine state
//! ([`SAlu`], scratch buffers), writing functional results in place into
//! the unit's own windows of the caller's output vectors — one slice per
//! lane or input vector, covering exactly the unit's destinations — and
//! charging time/energy into a unit-local [`Metrics`]. An add-op scan
//! also lists the destinations it lowered, one `(vertex, lane word)`
//! entry each, so its caller touches only those.
//!
//! # Kernels
//!
//! In [`Fidelity::Fast`] the MAC and add-op kernels walk the tiling's
//! stored cells once, in the tiler's streamed order (§3.4, equation (8)):
//! columns by ascending strip-local destination, rows ascending within a
//! column, so host work follows the stored edges, not the `C × C` crossbar;
//! the simulated cost of the empty cells is still charged from counts. A
//! cell is one stored `(source, destination)` pair, and its parallel edges
//! follow one another in input order, so its value is its edges' values
//! merged in that order (`Sum` for MAC, `Min` for add-op) and quantised
//! once.
//!
//! MAC reads those values as data. §4.1 programs a crossbar once and
//! evaluates it many times, and so does the host. Everything about a cell
//! but its value is the tiling's: its source, its edge count and
//! column-end flag, its column's strip-local destination, and where each
//! subgraph's cells, columns and edges start. A fill is one linear pass
//! over a run of cells and their edges: it evaluates each cell's edges,
//! merges them, quantises once and writes a 4-byte code in place. The
//! executor keeps each unit's codes, its block rows' cells one row after
//! another, tagged with the value they hold, and one kernel serves dense
//! and pruned plans: inside the unit's task it walks the planned runs of
//! adjacent subgraphs, fills a run's codes unless the tag names the scan's
//! value, and scans them in one tight loop. A dense fill sets the tag, and
//! a dense unit keeps its charges per input count; a pruned fill covers
//! only its runs, so it clears the tag. The streamed order is exact with no
//! sort: each column's cells are adjacent with rows ascending, and each
//! output meets its columns in the walk's order, however the columns of
//! different outputs interleave. Add-op merges and quantises each cell as
//! the walk meets it, since a traversal meets a cell about once per run.
//! MAC sums each column's rows in ascending order per input vector,
//! skipping zero inputs, and reduces a nonzero sum into RegO; add-op drives
//! each cell for every lane in its row's lane word. That is the arithmetic
//! and the per-output reduction order of [`TileCompute`]'s `load` then
//! `mac` / `row_entries`, so results and metrics are bit-identical to it.
//! [`TileCompute`] remains the datapath in [`Fidelity::Analog`], and in
//! Fast fidelity it is the oracle: [`StripScanner::tile_reference`] runs
//! every tile through it. Tiles are not stored: a tile is the run of a
//! subgraph's columns under one crossbar's `C` bitlines, and the tile
//! kernels gather each one's cells as they meet it.
//!
//! Determinism contract: a scan is the [`PlanUnit`]s of a
//! [`ScanPlan`](crate::exec::plan::ScanPlan), each executed by one
//! per-unit path, with their metrics [`Metrics::merge`]d in plan order.
//! The [`StreamingExecutor`] runs that path inline or on worker threads;
//! the thread count only schedules it, so results and metrics are
//! **bit-identical** at any count — every floating-point reduction
//! happens inside one unit, in one deterministic order, regardless of
//! which thread ran it.
//!
//! [`StreamingExecutor`]: crate::exec::streaming::StreamingExecutor

use std::iter::Peekable;
use std::ops::Range;

use crate::config::{Fidelity, GraphRConfig, StreamingOrder};
use crate::engine::salu::{ReduceOp, SAlu};
use crate::engine::tile::{MergeRule, TileCompute};
use crate::exec::plan::PlanUnit;
use crate::exec::streaming::EdgeValueFn;
use crate::metrics::Metrics;
use crate::preprocess::tiler::{ends_column, ends_tile, Cell, SubgraphView, TiledGraph};

/// Bytes per COO edge record streamed from memory ReRAM — the binary
/// record format is owned by the graph crate.
pub(crate) use graphr_graph::BYTES_PER_EDGE;

/// One strip unit's MAC codes as its executor keeps them: one raw
/// fixed-point code per cell of the unit, its block rows one after another,
/// each in streamed order.
#[derive(Debug, Default)]
pub(crate) struct UnitCodes {
    /// The [`EdgeValueFn`] id every code holds, or `None` if some do not.
    pub(crate) value: Option<u64>,
    pub(crate) codes: Vec<i32>,
    /// Everything a dense MAC scan of the unit charges except the sALU
    /// operations, with the input count it was charged for.
    pub(crate) charges: Option<(usize, Metrics)>,
}

/// One global destination strip: the parallel work unit of a scan.
///
/// Covers destination vertices `dst_start .. dst_start + dst_len` across
/// *all* block rows (source ranges), so no two units ever write the same
/// output element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripUnit {
    /// Position in the deterministic merge order.
    pub index: usize,
    /// Block column (destination side).
    pub bj: u32,
    /// Strip index within the block column.
    pub strip: u32,
    /// First destination vertex of the strip.
    pub dst_start: usize,
    /// Real (unpadded) destination vertices covered; may be zero for
    /// strips that exist only in the padding.
    pub dst_len: usize,
}

/// Enumerates the scan units of a preprocessed graph in merge order
/// (block columns outer, strips inner — the column-major disk order).
#[must_use]
pub fn strip_units(tiled: &TiledGraph) -> Vec<StripUnit> {
    let order = tiled.order();
    let n = tiled.num_vertices();
    let per_side = order.blocks_per_side();
    let strips = order.strips_per_block();
    let width = order.strip_width();
    let mut units = Vec::with_capacity(per_side * strips);
    for bj in 0..per_side {
        for s in 0..strips {
            let dst_start = bj * order.block_size() + s * width;
            units.push(StripUnit {
                index: units.len(),
                bj: bj as u32,
                strip: s as u32,
                dst_start,
                dst_len: width.min(n.saturating_sub(dst_start)),
            });
        }
    }
    units
}

/// RegO capacity a MAC scan requires, in entries (§3.3: one strip under
/// column-major streaming, every strip of a block at once under
/// row-major).
#[must_use]
pub fn mac_rego_capacity(config: &GraphRConfig, tiled: &TiledGraph) -> u64 {
    match config.order {
        StreamingOrder::ColumnMajor => config.strip_width() as u64,
        StreamingOrder::RowMajor => {
            (config.strip_width() * tiled.order().strips_per_block()) as u64
        }
    }
}

/// Executes scan units with private engine state.
///
/// One scanner per worker thread: the [`SAlu`] and the staging buffers
/// are all owned, so scanners on different units never share mutable
/// state.
pub struct StripScanner<'a> {
    tiled: &'a TiledGraph,
    config: &'a GraphRConfig,
    spec: graphr_units::FixedSpec,
    /// `spec`'s quantisation with its scale factors computed once.
    quant: graphr_units::Quantizer,
    /// The tile datapath: present in Analog fidelity, or in Fast fidelity
    /// when the scanner is the [`StripScanner::tile_reference`].
    tile: Option<TileKernel>,
    /// Scratch: the cells of the tile being driven.
    tile_cells: Vec<Cell<'a>>,
    /// Scratch: one subgraph's lane word per source row (add-op).
    row_lanes: Vec<u64>,
    /// Scratch: one strip visit's per-tile driven-row counts.
    tile_rows_buf: Vec<u64>,
    /// Scratch: one add-op unit's lowered lanes per local destination.
    marks: LaneMarks,
}

/// The lanes one add-op unit lowered at each of its destinations, kept
/// sparse: `words` is all zero between units, and `touched` lists the
/// local destinations whose word is nonzero, in first-lowered order.
#[derive(Default)]
struct LaneMarks {
    words: Vec<u64>,
    touched: Vec<u32>,
}

impl LaneMarks {
    fn new(width: usize) -> Self {
        LaneMarks {
            words: vec![0; width],
            touched: Vec::new(),
        }
    }

    /// Records that lane `q` lowered local destination `local`.
    #[inline]
    fn mark(&mut self, local: usize, q: usize) {
        let word = &mut self.words[local];
        if *word == 0 {
            self.touched.push(local as u32);
        }
        *word |= 1u64 << q;
    }

    /// Appends one `(dst_start + local, lane word)` entry per marked
    /// destination to `lowered` and clears the marks.
    fn drain_into(&mut self, dst_start: usize, lowered: &mut Vec<(usize, u64)>) {
        let words = &mut self.words;
        lowered.extend(self.touched.drain(..).map(|local| {
            (
                dst_start + local as usize,
                std::mem::take(&mut words[local as usize]),
            )
        }));
    }
}

/// The [`TileCompute`] kernels and their per-tile staging buffers.
struct TileKernel {
    tile: TileCompute,
    /// Chunk-local input slice.
    input_buf: Vec<f64>,
    /// One tile row's stored `(col, value)` entries.
    entry_buf: Vec<(usize, f64)>,
}

impl TileKernel {
    fn new(config: &GraphRConfig, spec: graphr_units::FixedSpec) -> Self {
        let c = config.crossbar_size;
        TileKernel {
            tile: TileCompute::new(config, spec),
            input_buf: vec![0.0; c],
            entry_buf: Vec::with_capacity(c),
        }
    }

    /// Programs the tile holding `cells`, whose row `r` is source vertex
    /// `src0 + r` and whose strip-local destination `local` is vertex
    /// `dst0 + local`, in bitline `local % C`.
    fn load(
        &mut self,
        cells: &[Cell<'_>],
        src0: usize,
        dst0: usize,
        value: &EdgeValueFn<'_>,
        merge: MergeRule,
    ) {
        let c = self.input_buf.len();
        self.tile.load(cells.iter().map(|cell| {
            let (src, local) = (cell.src as usize, usize::from(cell.local));
            let v = cell_value(cell.weights, src, dst0 + local, value, merge);
            (src - src0, local % c, v)
        }));
    }
}

/// Gathers the next tile of a subgraph's `cells` into `tile` and returns
/// its index within the strip, or `None` past the last tile.
fn next_tile<'g>(
    cells: &mut Peekable<impl Iterator<Item = Cell<'g>>>,
    c: usize,
    tile: &mut Vec<Cell<'g>>,
) -> Option<usize> {
    let t = usize::from(cells.peek()?.local) / c;
    tile.clear();
    tile.extend(std::iter::from_fn(|| {
        cells.next_if(|cell| usize::from(cell.local) / c == t)
    }));
    Some(t)
}

impl<'a> StripScanner<'a> {
    /// Creates a scanner for `tiled` under `config`, quantising values to
    /// `spec`.
    #[must_use]
    pub fn new(
        tiled: &'a TiledGraph,
        config: &'a GraphRConfig,
        spec: graphr_units::FixedSpec,
    ) -> Self {
        StripScanner {
            tiled,
            config,
            spec,
            quant: spec.quantizer(),
            tile: (config.fidelity == Fidelity::Analog).then(|| TileKernel::new(config, spec)),
            tile_cells: Vec::new(),
            row_lanes: vec![0; config.crossbar_size],
            tile_rows_buf: Vec::new(),
            marks: LaneMarks::new(config.strip_width()),
        }
    }

    /// Turns this scanner into the tile reference: every tile goes
    /// through [`TileCompute`] (`load`, then `mac` or `row_entries`) in
    /// either fidelity. In Fast fidelity this is the oracle the
    /// stored-cell kernels are tested against: results and metrics are
    /// bit-identical, only host time grows.
    #[must_use]
    pub fn tile_reference(mut self) -> Self {
        if self.tile.is_none() {
            self.tile = Some(TileKernel::new(self.config, self.spec));
        }
        self
    }

    /// A fresh scanner over the same graph, configuration, format and
    /// kernels.
    #[must_use]
    pub(crate) fn sibling(&self) -> Self {
        let fresh = StripScanner::new(self.tiled, self.config, self.spec);
        if self.tile.is_some() {
            fresh.tile_reference()
        } else {
            fresh
        }
    }

    /// The fixed-point format in use.
    #[must_use]
    pub fn spec(&self) -> graphr_units::FixedSpec {
        self.spec
    }

    /// Whether this scanner's MAC kernel programs each tile itself through
    /// [`TileCompute`] (Analog fidelity or the tile reference) rather than
    /// reading programmed codes.
    #[must_use]
    pub(crate) fn programs_tiles(&self) -> bool {
        self.tile.is_some()
    }

    /// Total crossbar tile slots across the node.
    fn tile_slots(&self) -> usize {
        self.config.num_ges * self.config.tiles_per_ge()
    }

    /// One parallel-MAC pass over a single planned unit: for each input
    /// vector in `inputs`, accumulates `y[dst - dst_start] += value(w, src,
    /// dst) · x[src]` into the unit's window of that input's output
    /// (`outputs[i]` covers exactly the unit's destinations and is
    /// pre-zeroed by the caller), charging the planned work's share of time
    /// and energy into `metrics`. Only the block rows and subgraphs the
    /// plan lists are visited, through the unit's kept codes `held` (see
    /// the module's `# Kernels`) or, for `None`, the tile kernel, which
    /// programs each tile from `value`.
    pub(crate) fn scan_mac_unit(
        &mut self,
        punit: &PlanUnit,
        value: &EdgeValueFn<'_>,
        held: Option<&mut UnitCodes>,
        inputs: &[&[f64]],
        outputs: &mut [&mut [f64]],
        metrics: &mut Metrics,
    ) {
        let Some(held) = held else {
            let mut salu = SAlu::new(ReduceOp::Add);
            let dst0 = punit.unit.dst_start;
            self.walk_mac_unit(punit, inputs.len(), metrics, |scanner, sg| {
                scanner.mac_subgraph(dst0, sg, value, inputs, outputs, &mut salu);
            });
            metrics.events.salu_ops += salu.ops_performed();
            return;
        };
        let (k, dense) = (inputs.len(), punit.is_dense());
        let kept = held.charges.take_if(|kept| dense && kept.0 == k);
        let (_, charges) = kept.unwrap_or_else(|| {
            let mut charges = Metrics::new();
            self.walk_mac_unit(punit, k, &mut charges, |_, _| {});
            (k, charges)
        });
        let fill = held.value != Some(value.id());
        let (tiled, dst0) = (self.tiled, punit.unit.dst_start);
        let strip = punit.unit.strip as usize;
        // The unit's codes hold its block rows' cells one row after
        // another: `base` is the code position of block `block`'s first.
        let (mut base, mut block) = (0, punit.unit.bj as usize * tiled.order().blocks_per_side());
        let mut salu_ops = 0;
        for row in punit.rows(tiled) {
            let row_block = row.block as usize;
            base += (block..row_block)
                .map(|skipped| tiled.slot_cells(skipped, strip).len())
                .sum::<usize>();
            let slot = tiled.slot_cells(row_block, strip);
            for ordinals in row.planned_runs() {
                let (first, cells) = tiled.run(ordinals);
                let at = base + cells.start - slot.start;
                let codes = &mut held.codes[at..at + cells.len()];
                let column = first.column as usize;
                if fill {
                    self.fill_cells(&cells, column, first.edge as usize, dst0, value, codes);
                }
                salu_ops += self.scan_cells(&cells, column, codes, inputs, outputs);
            }
            (base, block) = (base + slot.len(), row_block + 1);
        }
        if fill {
            held.value = dense.then_some(value.id());
        }
        metrics.merge(&charges);
        metrics.events.salu_ops += salu_ops;
        if dense {
            held.charges = Some((k, charges));
        }
    }

    /// Writes the codes of the tiling's `cells`, whose columns start at
    /// position `column` and edges at position `edge`, in the unit whose
    /// first destination is `dst0`, for `value`: one pass over the cells
    /// and their edges, each cell's edges evaluated and merged in streamed
    /// order and quantised once (what [`TileCompute::load`] is programmed
    /// with), shifted up one bit over the cell's column-end flag; formats
    /// have at most 31 bits.
    fn fill_cells(
        &self,
        cells: &Range<usize>,
        column: usize,
        edge: usize,
        dst0: usize,
        value: &EdgeValueFn<'_>,
        codes: &mut [i32],
    ) {
        let tiled = self.tiled;
        let (srcs, meta) = tiled.cells(cells.clone());
        let (locals, weights) = (tiled.locals(column), tiled.weights(edge));
        let (mut edge, mut columns) = (0, 0);
        for (at, ((&src, &meta), code)) in srcs.iter().zip(meta).zip(codes).enumerate() {
            let edges = tiled.cell_edges(cells.start + at, meta);
            let (src, dst) = (src as usize, dst0 + usize::from(locals[columns]));
            let v = cell_value(
                &weights[edge..edge + edges],
                src,
                dst,
                value,
                MergeRule::Sum,
            );
            edge += edges;
            *code = self.quant.quantize(v) << 1 | i32::from(ends_column(meta));
            columns += usize::from(ends_column(meta));
        }
    }

    /// The MAC kernel over the `codes` of the tiling's `cells`, whose
    /// columns start at position `column`: for each input vector `x`, sums
    /// `code · x[src]` over each column's cells in order, skipping zero
    /// inputs, and reduces a nonzero sum into the column's destination in
    /// that input's output window — [`TileCompute::mac`]'s arithmetic, and
    /// for every output the reduction order of the streamed walk. Returns
    /// the sALU operations performed.
    fn scan_cells(
        &self,
        cells: &Range<usize>,
        column: usize,
        codes: &[i32],
        inputs: &[&[f64]],
        outputs: &mut [&mut [f64]],
    ) -> u64 {
        /// Cells per chunk of whole columns that every input vector scans
        /// in turn, so the chunk stays in cache across inputs.
        const CHUNK: usize = 1024;
        let (tiled, quant) = (self.tiled, self.quant);
        let (mut srcs, mut codes) = (tiled.cells(cells.clone()).0, codes);
        let mut locals = tiled.locals(column);
        let mut salu = SAlu::new(ReduceOp::Add);
        while !srcs.is_empty() {
            let mut end = CHUNK.min(srcs.len());
            end += codes[end - 1..]
                .iter()
                .position(|code| code & 1 != 0)
                .unwrap_or(0);
            let mut columns = 0;
            for (x, out) in inputs.iter().zip(outputs.iter_mut()) {
                let (mut column, mut sum) = (0, 0.0);
                for (&src, &code) in srcs[..end].iter().zip(&codes[..end]) {
                    let xv = x[src as usize];
                    if xv != 0.0 {
                        sum += quant.dequantize(code >> 1) * xv;
                    }
                    if code & 1 != 0 {
                        if sum != 0.0 {
                            salu.reduce_one(&mut out[usize::from(locals[column])], sum);
                        }
                        sum = 0.0;
                        column += 1;
                    }
                }
                columns = column;
            }
            (srcs, codes, locals) = (&srcs[end..], &codes[end..], &locals[columns..]);
        }
        salu.ops_performed()
    }

    /// Walks `punit`'s planned subgraphs in streamed order, handing each
    /// to `visit`, and charges the time, energy and events of a MAC scan of
    /// `k` input vectors into `metrics` — all but the sALU operations,
    /// which depend on the data.
    fn walk_mac_unit(
        &mut self,
        punit: &PlanUnit,
        k: usize,
        metrics: &mut Metrics,
        mut visit: impl FnMut(&mut Self, SubgraphView<'a>),
    ) {
        let tiled = self.tiled;
        let writeback = self.config.strip_width().min(tiled.num_vertices());
        // Column-major streaming feeds the strip's planned tiles to the GE
        // slots back to back, and writes RegO back once per strip.
        // Row-major streaming revisits the strip's RegO window per source
        // chunk, so every nonempty subgraph costs its own GE step and a
        // full RegO spill — the §3.3 argument. Subgraphs are stored in
        // ascending chunk order, which is the source-major visit order.
        let row_major = self.config.order == StreamingOrder::RowMajor;
        for row in punit.rows(tiled) {
            let pruned = row.pruned() as u64;
            let (mut strip_tiles, mut strip_edges) = (0, 0);
            for ord in row.subgraphs() {
                let sg = tiled.subgraph(ord as usize);
                let (tiles, edges) = (u64::from(sg.num_tiles()), u64::from(sg.edges()));
                visit(self, sg);
                self.charge_mac_subgraph(tiles, edges, k, metrics);
                if row_major {
                    let step = tiles.min(self.tile_slots() as u64);
                    self.charge_strip_time(step, edges, pruned, k, metrics);
                    self.charge_strip_writeback(writeback, metrics);
                }
                (strip_tiles, strip_edges) = (strip_tiles + tiles, strip_edges + edges);
            }
            if !row_major {
                self.charge_strip_time(strip_tiles, strip_edges, pruned, k, metrics);
                self.charge_strip_writeback(writeback, metrics);
            }
        }
    }

    /// Charges the time for one strip's worth of `tiles` nonempty tiles
    /// (MAC pattern): `⌈tiles/slots⌉` packed GE steps, or one step per
    /// source chunk when skipping is disabled. `pruned` is the number of
    /// nonempty subgraphs the plan excluded from this strip visit — those
    /// windows belong to the `subgraphs_pruned` counter (charged once per
    /// scan), not to the empty-window skip statistics here.
    fn charge_strip_time(
        &mut self,
        tiles: u64,
        edges: u64,
        pruned: u64,
        k: usize,
        metrics: &mut Metrics,
    ) {
        let slots = self.tile_slots() as u64;
        let steps = if self.config.skip_empty {
            tiles.div_ceil(slots)
        } else {
            let per_chunk = self.tiled.order().chunks_per_block() as u64;
            self.charge_idle_conversions(per_chunk * slots - tiles, k, metrics);
            per_chunk
        };
        if steps == 0 && edges == 0 {
            return;
        }
        let program = self.config.program_latency() * steps as f64;
        let compute = self.config.ge_cycle() * (steps * k as u64) as f64;
        let stream = self
            .config
            .cost
            .memory_stream_latency(edges * BYTES_PER_EDGE);
        metrics.time_breakdown.program += program;
        metrics.time_breakdown.compute += compute;
        metrics.time_breakdown.memory += stream;
        metrics.elapsed += if self.config.pipelined {
            program.max(compute).max(stream)
        } else {
            program + compute + stream
        };
        if self.config.skip_empty {
            // Count fully-empty windows avoided, for the skip statistics —
            // excluding plan-pruned windows, which are not empty.
            let windows = (self.tiled.order().chunks_per_block() as u64).saturating_sub(pruned);
            let used = tiles.div_ceil(slots);
            metrics.events.subgraphs_skipped_empty += windows.saturating_sub(used);
        }
    }

    /// Idle tile slots still drain their bitlines through the shared ADCs
    /// when empty-window scanning is forced.
    fn charge_idle_conversions(&mut self, idle_tiles: u64, k: usize, metrics: &mut Metrics) {
        let c = self.config.crossbar_size as u64;
        let arrays = self.config.arrays_per_tile() as u64;
        let conversions = idle_tiles * c * arrays * k as u64;
        metrics.energy.adc += self.config.cost.adc_energy(conversions);
        metrics.events.adc_conversions += conversions;
    }

    /// The functional part of one planned subgraph of a MAC scan through
    /// the tile kernel, reduced into the output windows of the unit whose
    /// first destination is `dst0`.
    fn mac_subgraph(
        &mut self,
        dst0: usize,
        sg: SubgraphView<'a>,
        value: &EdgeValueFn<'_>,
        inputs: &[&[f64]],
        outputs: &mut [&mut [f64]],
        salu: &mut SAlu,
    ) {
        let n = self.tiled.num_vertices();
        let c = self.config.crossbar_size;
        let src0 = sg.src_start();
        let kernel = self.tile.as_mut().expect("a tile-kernel scanner");
        let mut cells = sg.cells().peekable();
        while let Some(t) = next_tile(&mut cells, c, &mut self.tile_cells) {
            let local0 = t * c;
            kernel.load(&self.tile_cells, src0, dst0, value, MergeRule::Sum);
            for (ki, x) in inputs.iter().enumerate() {
                for r in 0..c {
                    let src = src0 + r;
                    kernel.input_buf[r] = if src < n { x[src] } else { 0.0 };
                }
                let y = kernel.tile.mac(&kernel.input_buf);
                for (col, &yv) in y.iter().enumerate() {
                    if yv == 0.0 {
                        continue;
                    }
                    if dst0 + local0 + col < n {
                        salu.reduce_one(&mut outputs[ki][local0 + col], yv);
                    }
                }
            }
        }
    }

    /// Charges the energy and events of one planned subgraph of `tiles`
    /// tiles and `edges` edges in a MAC scan of `k` input vectors (time is
    /// charged per strip).
    fn charge_mac_subgraph(&self, tiles: u64, edges: u64, k: usize, metrics: &mut Metrics) {
        let c = self.config.crossbar_size;
        let arrays = self.config.arrays_per_tile() as u64;
        let cost = &self.config.cost;
        let cells = edges * arrays;
        let conversions = tiles * c as u64 * arrays * k as u64;
        metrics.energy.program += cost.program_energy(cells);
        metrics.energy.mvm += cost.mvm_energy(cells * k as u64);
        metrics.energy.driver += cost.driver_energy(c as u64 * tiles * arrays * k as u64);
        metrics.energy.adc += cost.adc_energy(conversions);
        metrics.energy.sample_hold += cost.sample_hold_energy(conversions);
        metrics.energy.shift_add += cost.shift_add_energy(conversions);
        metrics.energy.salu += cost.salu_energy(tiles * c as u64 * k as u64);
        let reg_reads = tiles * c as u64 * k as u64; // per-tile RegI row reads
        let reg_writes = tiles * c as u64 * k as u64; // RegO merges
        metrics.energy.registers += cost.register_energy(reg_reads + reg_writes);
        metrics.energy.memory += cost.memory_stream_energy(edges * BYTES_PER_EDGE);

        let ev = &mut metrics.events;
        ev.subgraphs_processed += 1;
        ev.tiles_loaded += tiles;
        ev.edges_loaded += edges;
        ev.mvm_scans += tiles * k as u64;
        ev.adc_conversions += conversions;
        ev.register_reads += reg_reads;
        ev.register_writes += reg_writes;
        ev.bytes_streamed += edges * BYTES_PER_EDGE;
    }

    /// One parallel-add-op pass over a single planned unit (Figure 16 c3)
    /// advancing all K lanes of `active` at once. This is the only add-op
    /// kernel: a single query is the one-lane case.
    ///
    /// Every subgraph the plan lists is *streamed* once for the whole
    /// batch (its edge bytes pass the scanner and are charged), but only
    /// those with an active source row cost GE work; a subgraph with none
    /// counts as `subgraphs_skipped_inactive`. Subgraphs a pruned plan
    /// excluded are never streamed at all — the source-range index lets
    /// the controller seek past them. Each tile is programmed once for the
    /// batch, while row drives are charged per `(row, lane)` pair: every
    /// lane needs its own `dist(u)` on the constant line, so lanes
    /// serialise on the wordline (the multi-source BFS pattern of Then et
    /// al., VLDB 2015).
    ///
    /// Candidates `combine(addends[q][src], stored_weight)` are
    /// min-reduced in place into lane `q`'s labels: `frontiers[q]` is lane
    /// `q`'s window over exactly the unit's destinations. Each destination
    /// some lane lowered is appended to `lowered` once, as `(vertex, lane
    /// word)` with bit `q` set for every lane `q` that lowered it; a label
    /// changes only where its lane's bit is reported. Returns the per-lane
    /// row activations executed.
    #[allow(clippy::too_many_arguments)]
    pub fn scan_add_op_lanes_unit(
        &mut self,
        punit: &PlanUnit,
        value: &EdgeValueFn<'_>,
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
        addends: &[Vec<f64>],
        active: &crate::exec::lanes::LaneFrontier,
        frontiers: &mut [&mut [f64]],
        lowered: &mut Vec<(usize, u64)>,
        metrics: &mut Metrics,
    ) -> u64 {
        let tiled = self.tiled;
        let n = tiled.num_vertices();
        let unit = &punit.unit;
        let mut salu = SAlu::new(ReduceOp::Min);
        let mut total_drives: u64 = 0;
        let mut row_lanes = std::mem::take(&mut self.row_lanes);
        let mut tile_rows = std::mem::take(&mut self.tile_rows_buf);
        let mut marks = std::mem::take(&mut self.marks);

        for row in punit.rows(tiled) {
            // Per-tile active-row counts drive the packed timing.
            tile_rows.clear();
            let mut strip_edges = 0u64;
            for ord in row.subgraphs() {
                let sg = tiled.subgraph(ord as usize);
                let src0 = sg.src_start();
                // Planned means streamed — once for the whole batch, and
                // whether or not any of its rows end up driven.
                strip_edges += u64::from(sg.edges());
                let stream_bytes = u64::from(sg.edges()) * BYTES_PER_EDGE;
                metrics.energy.memory += self.config.cost.memory_stream_energy(stream_bytes);
                metrics.events.bytes_streamed += stream_bytes;
                // Rows past the last vertex hold no lanes.
                let mut any_active = 0u64;
                for (r, lanes) in row_lanes.iter_mut().enumerate() {
                    *lanes = active.vertex_lanes(src0 + r);
                    any_active |= *lanes;
                }
                if any_active == 0 {
                    metrics.events.subgraphs_skipped_inactive += 1;
                    continue;
                }
                total_drives += self.addop_lanes_subgraph(
                    src0,
                    sg,
                    unit,
                    value,
                    combine,
                    addends,
                    &row_lanes,
                    frontiers,
                    &mut marks,
                    &mut salu,
                    &mut tile_rows,
                    metrics,
                );
            }
            self.charge_addop_strip_time(&mut tile_rows, strip_edges, metrics);
            self.charge_strip_writeback(self.config.strip_width().min(n), metrics);
        }
        marks.drain_into(unit.dst_start, lowered);
        self.row_lanes = row_lanes;
        self.tile_rows_buf = tile_rows;
        self.marks = marks;
        metrics.events.salu_ops += salu.ops_performed();
        total_drives
    }

    /// Packs active tiles into GE steps; a step's latency is its tallest
    /// tile's serial row count times the GE cycle (all tiles in the step
    /// progress in lockstep behind the shared ADC schedule).
    fn charge_addop_strip_time(
        &mut self,
        tile_rows: &mut [u64],
        edges: u64,
        metrics: &mut Metrics,
    ) {
        if tile_rows.is_empty() {
            // No GE work, but planned (visited) edge data still streams
            // past the scanner, and disabled skipping forces programming
            // of every window even with nothing active.
            let mut program = graphr_units::Nanos::new(0.0);
            if !self.config.skip_empty {
                let steps = self.tiled.order().chunks_per_block() as u64;
                program = self.config.program_latency() * steps as f64;
                metrics.time_breakdown.program += program;
            }
            let stream = self
                .config
                .cost
                .memory_stream_latency(edges * BYTES_PER_EDGE);
            metrics.time_breakdown.memory += stream;
            metrics.elapsed += if self.config.pipelined {
                program.max(stream)
            } else {
                program + stream
            };
            return;
        }
        tile_rows.sort_unstable_by(|a, b| b.cmp(a));
        let slots = self.tile_slots();
        let mut serial_rows = 0u64;
        let mut steps = 0u64;
        let mut idx = 0usize;
        while idx < tile_rows.len() {
            serial_rows += tile_rows[idx]; // tallest tile of this step
            steps += 1;
            idx += slots;
        }
        if !self.config.skip_empty {
            steps = steps.max(self.tiled.order().chunks_per_block() as u64);
            serial_rows = serial_rows.max(steps);
        }
        let program = self.config.program_latency() * steps as f64;
        let compute = self.config.ge_cycle() * serial_rows as f64;
        let stream = self
            .config
            .cost
            .memory_stream_latency(edges * BYTES_PER_EDGE);
        metrics.time_breakdown.program += program;
        metrics.time_breakdown.compute += compute;
        metrics.time_breakdown.memory += stream;
        metrics.elapsed += if self.config.pipelined {
            program.max(compute).max(stream)
        } else {
            program + compute + stream
        };
    }

    /// One subgraph of [`StripScanner::scan_add_op_lanes_unit`]: one tile
    /// programming serves every lane; row drives, sALU reductions and the
    /// dependent energy/conversion charges are per `(row, lane)`.
    /// `row_lanes` holds each local source row's lane word, zero for an
    /// inactive row; every lowered label is recorded in `marks`. Returns
    /// the per-lane row activations.
    #[allow(clippy::too_many_arguments)]
    fn addop_lanes_subgraph(
        &mut self,
        src0: usize,
        sg: SubgraphView<'a>,
        unit: &StripUnit,
        value: &EdgeValueFn<'_>,
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
        addends: &[Vec<f64>],
        row_lanes: &[u64],
        frontiers: &mut [&mut [f64]],
        marks: &mut LaneMarks,
        salu: &mut SAlu,
        tile_rows: &mut Vec<u64>,
        metrics: &mut Metrics,
    ) -> u64 {
        let tiled = self.tiled;
        let n = tiled.num_vertices();
        let c = self.config.crossbar_size;
        let quant = self.quant;
        let dst0 = unit.dst_start;
        let arrays = self.config.arrays_per_tile() as u64;
        let tiles = u64::from(sg.num_tiles());
        let edges = u64::from(sg.edges());
        let mut active_cells: u64 = 0;
        let mut rows_driven: u64 = 0;
        let activations: u64 = row_lanes.iter().map(|l| u64::from(l.count_ones())).sum();

        // --- functional compute: per tile, program once, drive each
        // active row once per lane holding it; each tile's driven rows feed
        // the packed timing ---
        let mut close_tile = |rows: u64| {
            if rows > 0 {
                tile_rows.push(rows);
                rows_driven += rows;
            }
        };
        match &mut self.tile {
            Some(kernel) => {
                let mut cells = sg.cells().peekable();
                while let Some(t) = next_tile(&mut cells, c, &mut self.tile_cells) {
                    let local0 = t * c;
                    let mut this_tile_rows = 0u64;
                    kernel.load(&self.tile_cells, src0, dst0, value, MergeRule::Min);
                    for (r, &lanes) in row_lanes.iter().enumerate() {
                        if lanes == 0 {
                            continue;
                        }
                        kernel.tile.row_entries(r, &mut kernel.entry_buf);
                        if kernel.entry_buf.is_empty() {
                            continue; // no edge from this source in this tile
                        }
                        let src = src0 + r;
                        let mut lane_bits = lanes;
                        while lane_bits != 0 {
                            let q = lane_bits.trailing_zeros() as usize;
                            lane_bits &= lane_bits - 1;
                            this_tile_rows += 1;
                            let du = addends[q][src];
                            let frontier = &mut *frontiers[q];
                            for &(col, w) in &kernel.entry_buf {
                                active_cells += arrays;
                                let local = local0 + col;
                                if dst0 + local >= n {
                                    continue;
                                }
                                // The relaxation (e.g. dist(u) + w(u, v)),
                                // saturating in the fixed-point datapath,
                                // then min via the sALU.
                                let candidate = quant.quantize_value(combine(du, w));
                                if salu.reduce_one(&mut frontier[local], candidate) {
                                    marks.mark(local, q);
                                }
                            }
                        }
                    }
                    close_tile(this_tile_rows);
                }
            }
            None => {
                // A row counts once per tile, however many of its cells the
                // walk meets; a `u8` row fits 256 bits.
                let (first, cells) = tiled.run(sg.ordinal()..sg.ordinal() + 1);
                let (srcs, meta) = tiled.cells(cells.clone());
                let locals = tiled.locals(first.column as usize);
                let weights = tiled.weights(first.edge as usize);
                let (mut edge, mut column) = (0, 0);
                let (mut seen, mut this_tile_rows) = ([0u64; 4], 0u64);
                for (at, (&src, &meta)) in srcs.iter().zip(meta).enumerate() {
                    let edges = tiled.cell_edges(cells.start + at, meta);
                    let (cell, local) = (&weights[edge..edge + edges], usize::from(locals[column]));
                    (edge, column) = (edge + edges, column + usize::from(ends_column(meta)));
                    let (src, r) = (src as usize, src as usize - src0);
                    let lanes = row_lanes[r];
                    if lanes != 0 {
                        let drives = u64::from(lanes.count_ones());
                        let bit = 1u64 << (r % 64);
                        if seen[r / 64] & bit == 0 {
                            seen[r / 64] |= bit;
                            this_tile_rows += drives;
                        }
                        active_cells += arrays * drives;
                        let w = cell_value(cell, src, dst0 + local, value, MergeRule::Min);
                        let w = quant.quantize_value(w);
                        let mut lane_bits = lanes;
                        while lane_bits != 0 {
                            let q = lane_bits.trailing_zeros() as usize;
                            lane_bits &= lane_bits - 1;
                            let candidate = quant.quantize_value(combine(addends[q][src], w));
                            if salu.reduce_one(&mut frontiers[q][local], candidate) {
                                marks.mark(local, q);
                            }
                        }
                    }
                    if ends_tile(meta) {
                        close_tile(this_tile_rows);
                        (seen, this_tile_rows) = ([0; 4], 0);
                    }
                }
            }
        }

        // --- energy & events (time is charged per strip): programming
        // once per subgraph, drives per (row, lane) ---
        let cost = &self.config.cost;
        let cells = edges * arrays;
        let conversions = tiles * c as u64 * arrays * rows_driven.max(1);
        metrics.energy.program += cost.program_energy(cells);
        metrics.energy.mvm += cost.mvm_energy(active_cells);
        // Each activation drives one wordline plus the constant-1 line
        // carrying dist(u) (Figure 16's green row).
        metrics.energy.driver += cost.driver_energy(2 * arrays * rows_driven);
        metrics.energy.adc += cost.adc_energy(conversions);
        metrics.energy.sample_hold += cost.sample_hold_energy(conversions);
        metrics.energy.shift_add += cost.shift_add_energy(conversions);
        metrics.energy.salu += cost.salu_energy(c as u64 * rows_driven);
        let reg_reads = rows_driven; // dist(u) per activation
        let reg_writes = c as u64 * rows_driven; // RegO min-merge
        metrics.energy.registers += cost.register_energy(reg_reads + reg_writes);
        // Memory streaming is charged by the caller for every *planned*
        // subgraph, driven or not.

        let ev = &mut metrics.events;
        ev.subgraphs_processed += 1;
        ev.tiles_loaded += tiles;
        ev.edges_loaded += edges;
        ev.mvm_scans += rows_driven;
        ev.rows_activated += activations;
        ev.adc_conversions += conversions;
        ev.register_reads += reg_reads;
        ev.register_writes += reg_writes;
        activations
    }

    /// Charges the once-per-strip RegO write-back of `entries` values.
    fn charge_strip_writeback(&mut self, entries: usize, metrics: &mut Metrics) {
        let cost = &self.config.cost;
        metrics.energy.registers += cost.register_energy(entries as u64);
        metrics.events.register_writes += entries as u64;
        let t = cost.salu_latency(entries as u64 / self.config.num_ges.max(1) as u64);
        metrics.time_breakdown.apply += t;
        metrics.elapsed += t;
    }
}

/// One crossbar cell's programmed value before quantisation: the values
/// of its parallel edges, of `weights`, merged under `merge` in streamed
/// (input) order. `weights` is never empty.
fn cell_value(
    weights: &[f32],
    src: usize,
    dst: usize,
    value: &EdgeValueFn<'_>,
    merge: MergeRule,
) -> f64 {
    let (src, dst) = (src as u32, dst as u32);
    let first = value.eval(weights[0], src, dst);
    weights[1..]
        .iter()
        .fold(first, |v, &w| merge.combine(v, value.eval(w, src, dst)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::lanes::LaneFrontier;
    use crate::exec::mask::FrontierMask;
    use crate::metrics::EventCounters;
    use graphr_graph::generators::rmat::Rmat;
    use graphr_units::FixedSpec;

    fn small_config() -> GraphRConfig {
        GraphRConfig::builder()
            .crossbar_size(4)
            .crossbars_per_ge(8)
            .num_ges(2)
            .build()
            .unwrap()
    }

    #[test]
    fn units_tile_the_destination_axis_exactly() {
        let g = Rmat::new(100, 400).seed(1).generate();
        let cfg = small_config();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let units = strip_units(&tiled);
        assert!(!units.is_empty());
        // Units are in merge order, disjoint, and cover [0, n).
        let mut covered = 0usize;
        for (i, u) in units.iter().enumerate() {
            assert_eq!(u.index, i);
            covered += u.dst_len;
            assert!(u.dst_start + u.dst_len <= tiled.num_vertices() || u.dst_len == 0);
        }
        assert_eq!(covered, tiled.num_vertices());
    }

    /// A hand-built 6-vertex graph: one strip unit, two source chunks.
    fn golden_graph() -> graphr_graph::EdgeList {
        let mut g = graphr_graph::EdgeList::new(6);
        for (src, dst, w) in [
            (0, 1, 2.0),
            (0, 4, 1.0),
            (1, 2, 3.0),
            (1, 5, 1.0),
            (4, 5, 2.0),
            (2, 3, 1.0),
            (5, 3, 4.0),
            (3, 0, 1.0),
        ] {
            g.add_edge(graphr_graph::Edge::new(src, dst, w)).unwrap();
        }
        g
    }

    /// A cell's code is its parallel edges' summed value, quantised once:
    /// a unit's program holds one code per stored `(source, destination)`
    /// pair, however many edges share it.
    #[test]
    fn programs_code_each_cell_once() {
        let mut g = golden_graph();
        for w in [0.5, 0.25] {
            g.add_edge(graphr_graph::Edge::new(0, 1, w)).unwrap();
        }
        let cfg = small_config();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let plan = crate::exec::plan::PlanSkeleton::build(&tiled).full_plan();
        let mut scanner = StripScanner::new(&tiled, &cfg, FixedSpec::new(16, 2).unwrap());
        let value = EdgeValueFn::new(&|w, _, _| f64::from(w));
        let x = vec![0.0; 6];
        let mut cells = Vec::new();
        for punit in plan.units() {
            // One block: the unit's cells are its one slot's.
            let unit_cells = tiled.slot_cells(0, punit.unit.strip as usize);
            assert_eq!(unit_cells.len(), tiled.unit_cells(punit.unit.index));
            let mut held = UnitCodes {
                codes: vec![0; unit_cells.len()],
                ..UnitCodes::default()
            };
            let mut out = vec![0.0; punit.unit.dst_len];
            let outputs = &mut [&mut out[..]];
            let m = &mut Metrics::new();
            scanner.scan_mac_unit(punit, &value, Some(&mut held), &[&x], outputs, m);
            assert_eq!(held.value, Some(value.id()), "a dense fill tags its value");
            let codes = held.codes;
            assert!(
                codes.iter().all(|code| code & 1 == 1),
                "one cell per column here"
            );
            let srcs = tiled.cells(unit_cells).0.iter();
            cells.extend(codes.iter().zip(srcs).map(|(code, &src)| (code >> 1, src)));
        }
        // Q14.2 codes are four times the value: (0, 1) sums to 2.75.
        assert!(cells.contains(&(11, 0)));
        let mut codes: Vec<i32> = cells.iter().map(|&(code, _)| code).collect();
        codes.sort_unstable();
        assert_eq!(codes, [4, 4, 4, 4, 8, 11, 12, 16]);
    }

    /// One SSSP add-op scan of `active` over the dense full plan, unit by
    /// unit, each scanning in place into its windows of a copy of
    /// `labels`: the per-lane labels, the per-vertex updated lane words
    /// (ORed from the units' lowered lists), the returned row drives and
    /// the merged metrics.
    fn golden_scan(
        active: &LaneFrontier,
        labels: &[Vec<f64>],
    ) -> (Vec<Vec<f64>>, Vec<u64>, u64, Metrics) {
        let cfg = small_config();
        let tiled = TiledGraph::preprocess(&golden_graph(), &cfg).unwrap();
        let plan = crate::exec::plan::PlanSkeleton::build(&tiled).full_plan();
        let mut scanner = StripScanner::new(&tiled, &cfg, FixedSpec::new(16, 0).unwrap());
        let (mut out, mut updated) = (labels.to_vec(), vec![0u64; 6]);
        let (mut drives, mut merged, mut lowered) = (0, Metrics::new(), Vec::new());
        for punit in plan.units() {
            let dst = punit.unit.dst_start..punit.unit.dst_start + punit.unit.dst_len;
            let mut windows: Vec<&mut [f64]> =
                out.iter_mut().map(|o| &mut o[dst.clone()]).collect();
            let mut m = Metrics::new();
            lowered.clear();
            drives += scanner.scan_add_op_lanes_unit(
                punit,
                &EdgeValueFn::new(&|w, _, _| f64::from(w)),
                &|du, w| du + w,
                labels,
                active,
                &mut windows,
                &mut lowered,
                &mut m,
            );
            merged.merge(&m);
            for &(v, word) in &lowered {
                assert!(dst.contains(&v), "unit lowered {v} outside its window");
                updated[v] |= word;
            }
        }
        (out, updated, drives, merged)
    }

    /// Golden add-op accounting, pinned exactly so that any change to what
    /// an add-op scan charges fails here: one scan from {0, 1}, and a
    /// 2-lane scan where vertex 1 is active in both lanes, so it is driven
    /// once per lane on every tile holding its row.
    #[test]
    fn add_op_scan_charges_match_golden_values() {
        let inf = FixedSpec::new(16, 0).unwrap().max_value();
        let mut lane0 = FrontierMask::new(6);
        lane0.set(0);
        lane0.set(1);
        let labels0 = vec![0.0, 2.0, inf, inf, 1.0, inf];

        let (out, updated, drives, m) = golden_scan(
            &LaneFrontier::from_masks(std::slice::from_ref(&lane0)),
            std::slice::from_ref(&labels0),
        );
        assert_eq!(out, vec![vec![0.0, 2.0, 5.0, inf, 1.0, 3.0]]);
        assert_eq!(updated, vec![0, 0, 1, 0, 0, 1]);
        assert_eq!(drives, 2);
        let golden = EventCounters {
            subgraphs_processed: 1,
            subgraphs_skipped_inactive: 1,
            tiles_loaded: 2,
            edges_loaded: 6,
            mvm_scans: 4,
            rows_activated: 2,
            adc_conversions: 128,
            salu_ops: 4,
            register_reads: 4,
            register_writes: 22,
            bytes_streamed: 96,
            ..EventCounters::default()
        };
        assert_eq!(m.events, golden);
        assert_eq!(m.elapsed.as_nanos(), 67.0);

        let mut lane1 = FrontierMask::new(6);
        lane1.set(1);
        lane1.set(2);
        let labels1 = vec![inf, 0.0, 3.0, inf, inf, 1.0];
        let (out, updated, drives, m) = golden_scan(
            &LaneFrontier::from_masks(&[lane0, lane1]),
            &[labels0, labels1],
        );
        assert_eq!(out[1], vec![inf, 0.0, 3.0, 4.0, inf, 1.0]);
        assert_eq!(updated, vec![0, 0, 0b01, 0b10, 0, 0b01]);
        assert_eq!(drives, 4);
        let golden = EventCounters {
            mvm_scans: 7,
            rows_activated: 4,
            adc_conversions: 224,
            salu_ops: 7,
            register_reads: 7,
            register_writes: 34,
            ..golden
        };
        assert_eq!(m.events, golden);
        assert_eq!(m.elapsed.as_nanos(), 131.0);
    }

    #[test]
    fn unit_scan_equals_whole_scan() {
        use crate::exec::streaming::StreamingExecutor;
        let g = Rmat::new(120, 700).seed(9).max_weight(5).generate();
        let cfg = small_config();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let spec = FixedSpec::new(16, 8).unwrap();
        let x: Vec<f64> = (0..120).map(|i| (i % 7) as f64 * 0.5).collect();

        let value = EdgeValueFn::new(&|w, _, _| f64::from(w));
        let mut exec = StreamingExecutor::new(&tiled, &cfg, spec);
        let whole = exec.scan_mac(&value, &[&x]);
        let whole_metrics = exec.into_metrics();

        // Hand-rolled plan-unit loop: same results, same merged metrics.
        let skeleton = crate::exec::plan::PlanSkeleton::build(&tiled);
        let plan = skeleton.full_plan();
        let mut scanner = StripScanner::new(&tiled, &cfg, spec);
        let units = plan.units();
        let mut held: Vec<UnitCodes> = units
            .iter()
            .map(|punit| UnitCodes {
                codes: vec![0; tiled.unit_cells(punit.unit.index)],
                ..UnitCodes::default()
            })
            .collect();
        // The first pass fills the kept codes and the second reads them.
        for _ in 0..2 {
            let mut merged = Metrics::new();
            let mut out = vec![0.0; 120];
            for (punit, held) in units.iter().zip(&mut held) {
                let unit = &punit.unit;
                let window = &mut out[unit.dst_start..unit.dst_start + unit.dst_len];
                let mut m = Metrics::new();
                scanner.scan_mac_unit(punit, &value, Some(held), &[&x], &mut [window], &mut m);
                merged.merge(&m);
            }
            merged.events.rego_capacity_required = merged
                .events
                .rego_capacity_required
                .max(mac_rego_capacity(&cfg, &tiled));
            assert_eq!(out, whole[0]);
            assert_eq!(merged, whole_metrics);
        }
    }
}
