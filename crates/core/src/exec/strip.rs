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
//! ([`TileCompute`], [`SAlu`], scratch buffers), writing functional
//! results into unit-local buffers and charging time/energy into a
//! unit-local [`Metrics`].
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

use crate::config::{GraphRConfig, StreamingOrder};
use crate::engine::salu::{ReduceOp, SAlu};
use crate::engine::tile::{MergeRule, TileCompute};
use crate::exec::plan::PlanUnit;
use crate::exec::streaming::EdgeValueFn;
use crate::metrics::Metrics;
use crate::preprocess::tiler::{SubgraphView, TiledGraph};

/// Bytes per COO edge record streamed from memory ReRAM — the binary
/// record format is owned by the graph crate.
pub(crate) use graphr_graph::BYTES_PER_EDGE;

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
/// One scanner per worker thread: [`TileCompute`] (the scratch crossbar
/// tile), the [`SAlu`], and the value/input staging buffers are all owned,
/// so scanners on different units never share mutable state.
pub struct StripScanner<'a> {
    tiled: &'a TiledGraph,
    config: &'a GraphRConfig,
    tile: TileCompute,
    /// Scratch: per-tile programmed values, reused across tiles.
    value_buf: Vec<f64>,
    /// Scratch: chunk-local input slice.
    input_buf: Vec<f64>,
    /// Scratch: one subgraph's active rows with their lane words.
    row_buf: Vec<(usize, u64)>,
    /// Scratch: one tile row's stored `(col, value)` entries.
    entry_buf: Vec<(usize, f64)>,
    /// Scratch: one strip visit's per-tile driven-row counts.
    tile_rows_buf: Vec<u64>,
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
        let c = config.crossbar_size;
        StripScanner {
            tiled,
            config,
            tile: TileCompute::new(config, spec),
            value_buf: Vec::with_capacity(c * c),
            input_buf: vec![0.0; c],
            row_buf: Vec::with_capacity(c),
            entry_buf: Vec::with_capacity(c),
            tile_rows_buf: Vec::new(),
        }
    }

    /// The fixed-point format in use.
    #[must_use]
    pub fn spec(&self) -> graphr_units::FixedSpec {
        self.tile.spec()
    }

    /// Total crossbar tile slots across the node.
    fn tile_slots(&self) -> usize {
        self.config.num_ges * self.config.tiles_per_ge()
    }

    /// One parallel-MAC pass over a single planned unit: for each input
    /// vector in `inputs`, accumulates `y[dst - dst_start] += value(w, src,
    /// dst) · x[src]` into the unit-local `outputs` (one buffer of at least
    /// `strip_width` entries per input, pre-zeroed by the caller), charging
    /// the planned work's share of time and energy into `metrics`. Only the
    /// block rows and subgraphs the plan lists are visited.
    pub fn scan_mac_unit(
        &mut self,
        punit: &PlanUnit,
        value: &EdgeValueFn<'_>,
        inputs: &[&[f64]],
        outputs: &mut [Vec<f64>],
        metrics: &mut Metrics,
    ) {
        let tiled = self.tiled;
        let n = tiled.num_vertices();
        let k = inputs.len();
        let unit = &punit.unit;
        let sidx = unit.strip as usize;
        let mut salu = SAlu::new(ReduceOp::Add);

        for row in &punit.rows {
            let bidx = row.block as usize;
            let slot = tiled.slot_subgraphs(bidx, sidx);
            let pruned = (slot.len() - row.subgraphs.len()) as u64;
            match self.config.order {
                StreamingOrder::ColumnMajor => {
                    // Dense tile packing: the whole strip's planned tiles
                    // feed the GE slots back to back.
                    let mut strip_tiles = 0u64;
                    let mut strip_edges = 0u64;
                    for &g in &row.subgraphs {
                        let sg = tiled.subgraph(slot.start + g as usize);
                        strip_tiles += sg.tiles().len() as u64;
                        strip_edges += u64::from(sg.edges());
                        self.mac_subgraph(
                            bidx, sidx, sg, unit, value, inputs, outputs, &mut salu, metrics,
                        );
                    }
                    self.charge_strip_time(strip_tiles, strip_edges, pruned, k, metrics);
                    // Strip write-back: RegO → memory, once per strip.
                    self.charge_strip_writeback(self.config.strip_width().min(n), metrics);
                }
                StreamingOrder::RowMajor => {
                    // Source-major: each chunk revisits the strip's RegO
                    // window, so every nonempty subgraph costs its own GE
                    // step and a full RegO spill — the §3.3 argument.
                    // Subgraphs are stored in ascending chunk order, which
                    // is exactly the source-major visit order within one
                    // strip.
                    for &g in &row.subgraphs {
                        let sg = tiled.subgraph(slot.start + g as usize);
                        let (tiles, edges) = (sg.tiles().len() as u64, u64::from(sg.edges()));
                        self.mac_subgraph(
                            bidx, sidx, sg, unit, value, inputs, outputs, &mut salu, metrics,
                        );
                        self.charge_strip_time(
                            tiles.min(self.tile_slots() as u64),
                            edges,
                            pruned,
                            k,
                            metrics,
                        );
                        self.charge_strip_writeback(self.config.strip_width().min(n), metrics);
                    }
                }
            }
        }
        metrics.events.salu_ops += salu.ops_performed();
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

    #[allow(clippy::too_many_arguments)]
    fn mac_subgraph(
        &mut self,
        bidx: usize,
        sidx: usize,
        sg: SubgraphView<'_>,
        unit: &StripUnit,
        value: &EdgeValueFn<'_>,
        inputs: &[&[f64]],
        outputs: &mut [Vec<f64>],
        salu: &mut SAlu,
        metrics: &mut Metrics,
    ) {
        let tiled = self.tiled;
        let n = tiled.num_vertices();
        let c = self.config.crossbar_size;
        let k = inputs.len();
        let src0 = tiled.chunk_src_start(bidx, sg.chunk());
        let dst0 = tiled.strip_dst_start(bidx, sidx);
        let arrays = self.config.arrays_per_tile() as u64;
        let tiles = sg.tiles().len() as u64;
        let edges = u64::from(sg.edges());

        // --- functional compute ---
        for (t, entries) in sg.tiles() {
            let tile_dst0 = dst0 + t * c;
            self.value_buf.clear();
            for e in entries {
                let src = (src0 + e.row as usize) as u32;
                let dst = (tile_dst0 + e.col as usize) as u32;
                self.value_buf.push(value(e.weight, src, dst));
            }
            self.tile.load(entries, &self.value_buf, MergeRule::Sum);
            for (ki, x) in inputs.iter().enumerate() {
                for r in 0..c {
                    let src = src0 + r;
                    self.input_buf[r] = if src < n { x[src] } else { 0.0 };
                }
                let y = self.tile.mac(&self.input_buf);
                for (col, &yv) in y.iter().enumerate() {
                    if yv == 0.0 {
                        continue;
                    }
                    let dst = tile_dst0 + col;
                    if dst < n {
                        let slot = &mut outputs[ki][dst - unit.dst_start];
                        salu.reduce_one(slot, yv);
                    }
                }
            }
        }

        // --- energy & events (time is charged per strip) ---
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
    /// min-reduced into lane `q`'s unit-local labels: `frontiers` holds K
    /// buffers of `strip_width` entries back to back, pre-seeded with each
    /// lane's strip labels by the caller. `updated` holds one lane word
    /// per local destination, pre-zeroed, and gains bit `q` wherever lane
    /// `q` lowered a label. Returns the per-lane row activations executed.
    #[allow(clippy::too_many_arguments)]
    pub fn scan_add_op_lanes_unit(
        &mut self,
        punit: &PlanUnit,
        value: &EdgeValueFn<'_>,
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
        addends: &[Vec<f64>],
        active: &crate::exec::lanes::LaneFrontier,
        frontiers: &mut [f64],
        updated: &mut [u64],
        metrics: &mut Metrics,
    ) -> u64 {
        let tiled = self.tiled;
        let n = tiled.num_vertices();
        let c = self.config.crossbar_size;
        let unit = &punit.unit;
        let sidx = unit.strip as usize;
        let mut salu = SAlu::new(ReduceOp::Min);
        let mut total_drives: u64 = 0;
        let mut active_rows = std::mem::take(&mut self.row_buf);
        let mut tile_rows = std::mem::take(&mut self.tile_rows_buf);

        for row in &punit.rows {
            let bidx = row.block as usize;
            let slot_start = tiled.slot_subgraphs(bidx, sidx).start;
            // Per-tile active-row counts drive the packed timing.
            tile_rows.clear();
            let mut strip_edges = 0u64;
            for &g in &row.subgraphs {
                let sg = tiled.subgraph(slot_start + g as usize);
                let src0 = tiled.chunk_src_start(bidx, sg.chunk());
                // Planned means streamed — once for the whole batch, and
                // whether or not any of its rows end up driven.
                strip_edges += u64::from(sg.edges());
                let stream_bytes = u64::from(sg.edges()) * BYTES_PER_EDGE;
                metrics.energy.memory += self.config.cost.memory_stream_energy(stream_bytes);
                metrics.events.bytes_streamed += stream_bytes;
                // Rows past the last vertex hold no lanes.
                active_rows.clear();
                active_rows.extend((0..c).filter_map(|r| {
                    let lanes = active.vertex_lanes(src0 + r);
                    (lanes != 0).then_some((r, lanes))
                }));
                if active_rows.is_empty() {
                    metrics.events.subgraphs_skipped_inactive += 1;
                    continue;
                }
                total_drives += self.addop_lanes_subgraph(
                    bidx,
                    sidx,
                    sg,
                    unit,
                    value,
                    combine,
                    addends,
                    &active_rows,
                    frontiers,
                    updated,
                    &mut salu,
                    &mut tile_rows,
                    metrics,
                );
            }
            self.charge_addop_strip_time(&mut tile_rows, strip_edges, metrics);
            self.charge_strip_writeback(self.config.strip_width().min(n), metrics);
        }
        self.row_buf = active_rows;
        self.tile_rows_buf = tile_rows;
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
    /// `active_rows` pairs each active local row with its lane word.
    /// Returns the per-lane row activations.
    #[allow(clippy::too_many_arguments)]
    fn addop_lanes_subgraph(
        &mut self,
        bidx: usize,
        sidx: usize,
        sg: SubgraphView<'_>,
        unit: &StripUnit,
        value: &EdgeValueFn<'_>,
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
        addends: &[Vec<f64>],
        active_rows: &[(usize, u64)],
        frontiers: &mut [f64],
        updated: &mut [u64],
        salu: &mut SAlu,
        tile_rows: &mut Vec<u64>,
        metrics: &mut Metrics,
    ) -> u64 {
        let tiled = self.tiled;
        let n = tiled.num_vertices();
        let c = self.config.crossbar_size;
        let spec = self.tile.spec();
        let width = self.config.strip_width();
        let src0 = tiled.chunk_src_start(bidx, sg.chunk());
        let dst0 = tiled.strip_dst_start(bidx, sidx);
        let arrays = self.config.arrays_per_tile() as u64;
        let tiles = sg.tiles().len() as u64;
        let edges = u64::from(sg.edges());
        let mut active_cells: u64 = 0;
        let mut rows_driven: u64 = 0;
        let activations: u64 = active_rows
            .iter()
            .map(|&(_, lanes)| u64::from(lanes.count_ones()))
            .sum();

        // --- functional compute: per tile, program once, drive each
        // active row once per lane holding it ---
        for (t, entries) in sg.tiles() {
            let tile_dst0 = dst0 + t * c;
            self.value_buf.clear();
            for e in entries {
                let src = (src0 + e.row as usize) as u32;
                let dst = (tile_dst0 + e.col as usize) as u32;
                self.value_buf.push(value(e.weight, src, dst));
            }
            self.tile.load(entries, &self.value_buf, MergeRule::Min);
            let mut this_tile_rows = 0u64;
            for &(r, lanes) in active_rows {
                self.tile.row_entries(r, &mut self.entry_buf);
                if self.entry_buf.is_empty() {
                    continue; // no edge from this source in this tile
                }
                let src = src0 + r;
                let mut lane_bits = lanes;
                while lane_bits != 0 {
                    let q = lane_bits.trailing_zeros() as usize;
                    lane_bits &= lane_bits - 1;
                    this_tile_rows += 1;
                    let du = addends[q][src];
                    let frontier = &mut frontiers[q * width..(q + 1) * width];
                    for &(col, w) in &self.entry_buf {
                        active_cells += arrays;
                        let dst = tile_dst0 + col;
                        if dst >= n {
                            continue;
                        }
                        // The relaxation (e.g. dist(u) + w(u, v)),
                        // saturating in the fixed-point datapath, then min
                        // via the sALU.
                        let candidate = spec.quantize_value(combine(du, w));
                        if salu.reduce_one(&mut frontier[dst - unit.dst_start], candidate) {
                            updated[dst - unit.dst_start] |= 1u64 << q;
                        }
                    }
                }
            }
            if this_tile_rows > 0 {
                tile_rows.push(this_tile_rows);
                rows_driven += this_tile_rows;
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

    /// One SSSP add-op scan of `active` over the dense full plan, unit by
    /// unit: the per-lane labels, the per-vertex updated lane words, the
    /// returned row drives and the merged metrics.
    fn golden_scan(
        active: &LaneFrontier,
        labels: &[Vec<f64>],
    ) -> (Vec<Vec<f64>>, Vec<u64>, u64, Metrics) {
        let cfg = small_config();
        let tiled = TiledGraph::preprocess(&golden_graph(), &cfg).unwrap();
        let plan = crate::exec::plan::PlanSkeleton::build(&tiled).full_plan();
        let mut scanner = StripScanner::new(&tiled, &cfg, FixedSpec::new(16, 0).unwrap());
        let width = cfg.strip_width();
        let (mut out, mut updated) = (labels.to_vec(), vec![0u64; 6]);
        let (mut drives, mut merged) = (0, Metrics::new());
        for punit in plan.units() {
            let dst = punit.unit.dst_start..punit.unit.dst_start + punit.unit.dst_len;
            let mut local = vec![0.0; labels.len() * width];
            for (buf, l) in local.chunks_mut(width).zip(labels) {
                buf[..dst.len()].copy_from_slice(&l[dst.clone()]);
            }
            let mut local_updated = vec![0u64; width];
            let mut m = Metrics::new();
            drives += scanner.scan_add_op_lanes_unit(
                punit,
                &|w, _, _| f64::from(w),
                &|du, w| du + w,
                labels,
                active,
                &mut local,
                &mut local_updated,
                &mut m,
            );
            merged.merge(&m);
            for (o, buf) in out.iter_mut().zip(local.chunks(width)) {
                o[dst.clone()].copy_from_slice(&buf[..dst.len()]);
            }
            updated[dst.clone()].copy_from_slice(&local_updated[..dst.len()]);
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

        let mut exec = StreamingExecutor::new(&tiled, &cfg, spec);
        let whole = exec.scan_mac(&|w, _, _| f64::from(w), &[&x]);
        let whole_metrics = exec.into_metrics();

        // Hand-rolled plan-unit loop: same results, same merged metrics.
        let skeleton = crate::exec::plan::PlanSkeleton::build(&tiled);
        let plan = skeleton.full_plan();
        let mut scanner = StripScanner::new(&tiled, &cfg, spec);
        let mut merged = Metrics::new();
        let mut out = vec![0.0; 120];
        let w = cfg.strip_width();
        for punit in plan.units() {
            let mut local = vec![vec![0.0; w]];
            let mut m = Metrics::new();
            scanner.scan_mac_unit(punit, &|w, _, _| f64::from(w), &[&x], &mut local, &mut m);
            merged.merge(&m);
            let unit = &punit.unit;
            out[unit.dst_start..unit.dst_start + unit.dst_len]
                .copy_from_slice(&local[0][..unit.dst_len]);
        }
        merged.events.rego_capacity_required = merged
            .events
            .rego_capacity_required
            .max(mac_rego_capacity(&cfg, &tiled));
        assert_eq!(out, whole[0]);
        assert_eq!(merged, whole_metrics);
    }
}
