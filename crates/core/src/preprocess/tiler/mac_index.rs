//! The per-tiling MAC cell index: all a Fast MAC scan needs of a tiling
//! but the codes. A cell is one stored `(source, destination)` pair,
//! whose parallel edges merge into one code. The index lists every cell
//! once, unit by unit, each unit in the tiler's streamed order (block
//! rows, subgraphs, tiles, columns, rows): per cell its source and its
//! edge count over its column-end flag, per column its strip-local
//! destination, and per subgraph where its run of cells starts. A unit's
//! runs follow its span table, so a plan's span slots address them, and
//! its columns follow one another across its runs, since no column spans
//! two tiles.

use std::ops::Range;

use crate::exec::plan::PlanRow;
use crate::exec::pool;
use crate::preprocess::tiler::{TileEntry, TiledGraph};

/// The widest strip the index addresses: destinations are `u16`.
pub(crate) const MAX_STRIP_WIDTH: usize = 1 << u16::BITS;
/// Cells of more than this many edges keep their count in `wide`.
const NARROW_EDGES: usize = 0x7F;
/// While a unit is written, flags of the edges that open a tile or a run.
const OPENS_TILE: u8 = 1;
const OPENS_RUN: u8 = 2;

/// A tiling's cells in streamed order (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct MacIndex {
    /// Per cell: its source vertex.
    srcs: Vec<u32>,
    /// Per cell: its edge count (0 above [`NARROW_EDGES`]) shifted up one
    /// bit over its column-end flag.
    meta: Vec<u8>,
    /// Per column: its strip-local destination.
    locals: Vec<u16>,
    /// `(cell, edge count)` of the cells above [`NARROW_EDGES`] edges.
    wide: Vec<(u32, u32)>,
    /// Per subgraph, plus a trailing end: its first cell.
    runs: Vec<u32>,
    /// Per unit, plus a trailing end: its first run and first column.
    units: Vec<(u32, u32)>,
}

/// The next `len` items of `rest`, which keeps the remainder.
fn take<'s, T>(rest: &mut &'s mut [T], len: usize) -> &'s mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

impl MacIndex {
    /// Builds `tiled`'s index, its units fanned out over one worker per
    /// entry of `workers`. The arrays are allocated once on the calling
    /// thread with room for a cell per edge; each unit writes its cells in
    /// place from its first edge's position, and the calling thread then
    /// slides the units together.
    pub(crate) fn build<S: Send>(tiled: &TiledGraph, workers: &mut [S]) -> MacIndex {
        let order = tiled.order();
        let units = order.blocks_per_side() * order.strips_per_block();
        let sizes: Vec<(usize, usize)> = (0..units)
            .map(|unit| {
                let slots = unit_slots(tiled, unit).map(|(_, slot)| slot);
                slots.fold((0, 0), |(runs, edges), slot| {
                    (runs + slot.len(), edges + tiled.subgraph_edges(slot).len())
                })
            })
            .collect();
        let (runs, edges) = sizes.iter().fold((0, 0), |(r, e), s| (r + s.0, e + s.1));
        let (mut srcs, mut meta, mut locals) = (vec![0; edges], vec![0; edges], vec![0; edges]);
        let mut starts = vec![0; runs + 1];
        let (mut s, mut m, mut l, mut r) = (
            &mut srcs[..],
            &mut meta[..],
            &mut locals[..],
            &mut starts[..],
        );
        let tasks = sizes.iter().enumerate().map(|(unit, &(runs, edges))| {
            let windows = (
                take(&mut s, edges),
                take(&mut m, edges),
                take(&mut l, edges),
            );
            (unit, windows, take(&mut r, runs))
        });
        let tasks: Vec<_> = tasks.collect();
        let written = pool::run_on(workers, tasks, |_, (unit, (s, m, l), r)| {
            write_unit(tiled, unit, s, m, l, r)
        });

        let mut index = MacIndex {
            runs: starts,
            units: Vec::with_capacity(units + 1),
            ..MacIndex::default()
        };
        let (mut cells, mut columns, mut from, mut run) = (0, 0, 0, 0);
        for ((unit_runs, unit_edges), (unit_cells, unit_columns, wide)) in
            sizes.into_iter().zip(written)
        {
            srcs.copy_within(from..from + unit_cells, cells);
            meta.copy_within(from..from + unit_cells, cells);
            locals.copy_within(from..from + unit_columns, columns);
            index.runs[run..run + unit_runs]
                .iter_mut()
                .for_each(|start| *start += cells as u32);
            index
                .wide
                .extend(wide.into_iter().map(|(cell, n)| (cell + cells as u32, n)));
            index.units.push((run as u32, columns as u32));
            (cells, columns, from, run) = (
                cells + unit_cells,
                columns + unit_columns,
                from + unit_edges,
                run + unit_runs,
            );
        }
        index.runs[runs] = cells as u32;
        index.units.push((runs as u32, columns as u32));
        srcs.truncate(cells);
        meta.truncate(cells);
        locals.truncate(columns);
        (index.srcs, index.meta, index.locals) = (srcs, meta, locals);
        index.srcs.shrink_to_fit();
        index.meta.shrink_to_fit();
        index.locals.shrink_to_fit();
        index
    }

    /// Heap bytes the index holds.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.srcs[..])
            + self.meta.len()
            + std::mem::size_of_val(&self.locals[..])
            + std::mem::size_of_val(&self.wide[..])
            + std::mem::size_of_val(&self.runs[..])
            + std::mem::size_of_val(&self.units[..])
    }

    /// Index positions of `unit`'s cells, and of its first column.
    pub(crate) fn unit_cells(&self, unit: usize) -> (Range<usize>, usize) {
        let ((first, column), (end, _)) = (self.units[unit], self.units[unit + 1]);
        let cells = self.runs[first as usize] as usize..self.runs[end as usize] as usize;
        (cells, column as usize)
    }

    /// The planned subgraphs of `row`, a block row of `unit`, as maximal
    /// runs of adjacent span-table slots, ascending: each as the index
    /// positions of its cells and its edges in streamed order.
    pub(crate) fn planned_runs<'t>(
        &'t self,
        tiled: &'t TiledGraph,
        unit: usize,
        row: PlanRow<'t>,
    ) -> impl Iterator<Item = (Range<usize>, &'t [TileEntry])> + 't {
        let first = self.units[unit].0 as usize;
        row.planned_runs().map(move |(slots, ordinals)| {
            let cells =
                self.runs[first + slots.start] as usize..self.runs[first + slots.end] as usize;
            (cells, &tiled.entries[tiled.subgraph_edges(ordinals)])
        })
    }

    /// Per cell of `cells`: its source vertex and its metadata.
    pub(crate) fn cells(&self, cells: Range<usize>) -> (&[u32], &[u8]) {
        (&self.srcs[cells.clone()], &self.meta[cells])
    }

    /// Destinations of the columns from index position `column` on.
    pub(crate) fn locals(&self, column: usize) -> &[u16] {
        &self.locals[column..]
    }

    /// The columns that end among `cells`.
    pub(crate) fn columns_ending(&self, cells: Range<usize>) -> usize {
        // Byte sums of at most 255 flags, which vectorise.
        let chunks = self.meta[cells].chunks(usize::from(u8::MAX));
        chunks
            .map(|chunk| usize::from(chunk.iter().fold(0u8, |n, m| n + (m & 1))))
            .sum()
    }

    /// The edge count of the cell at position `cell`, whose metadata is
    /// `meta`.
    #[inline]
    pub(crate) fn edges(&self, cell: usize, meta: u8) -> usize {
        match usize::from(meta >> 1) {
            0 => self.wide[self.wide.partition_point(|&(c, _)| (c as usize) < cell)].1 as usize,
            edges => edges,
        }
    }
}

/// Whether a cell with metadata `meta` ends its column.
#[inline]
pub(crate) fn ends_column(meta: u8) -> bool {
    meta & 1 != 0
}

/// `unit`'s `(block, strip)` slots, block rows ascending, each as its
/// block and its streamed ordinals.
fn unit_slots(tiled: &TiledGraph, unit: usize) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
    let (per_side, strips) = (
        tiled.order().blocks_per_side(),
        tiled.order().strips_per_block(),
    );
    let (bj, strip) = (unit / strips, unit % strips);
    (bj * per_side..(bj + 1) * per_side)
        .map(move |block| (block, tiled.slot_subgraphs(block, strip)))
}

/// Writes `unit`'s cells, columns and run starts into its windows,
/// counting positions from its first cell and column, and returns its
/// cell and column counts and its cells above [`NARROW_EDGES`] edges.
///
/// A first pass flags each edge that opens a tile or a run, in `meta`.
/// The second meets the edges in order without branching on the layout:
/// flags count cells, columns and runs, and every edge writes its cell's
/// and column's entries, so a cell's last edge leaves the final ones. A
/// cell's entry never lies past its first edge, so an edge's flags are
/// read before any entry overwrites them. Each edge writes the next run's
/// start as the next cell, which stands once that run opens.
fn write_unit(
    tiled: &TiledGraph,
    unit: usize,
    srcs: &mut [u32],
    meta: &mut [u8],
    locals: &mut [u16],
    runs: &mut [u32],
) -> (usize, usize, Vec<(u32, u32)>) {
    let c = tiled.order().crossbar_size();
    let (entries, chunks, tile_index) =
        (&tiled.entries[..], &tiled.chunks[..], &tiled.tile_index[..]);
    let (tile_starts, subgraph_starts) = (&tiled.tile_starts[..], &tiled.subgraph_starts[..]);
    let mut edge = 0;
    for (_, slot) in unit_slots(tiled, unit) {
        let first = tiled.subgraph_edges(slot.clone()).start;
        let tiles = subgraph_starts[slot.start] as usize..subgraph_starts[slot.end] as usize;
        for &start in &tile_starts[tiles.clone()] {
            meta[edge + start as usize - first] = OPENS_TILE;
        }
        for &tile in &subgraph_starts[slot] {
            meta[edge + tile_starts[tile as usize] as usize - first] |= OPENS_RUN;
        }
        edge += tile_starts[tiles.end] as usize - first;
    }

    let (mut cells, mut columns, mut run, mut edges, mut edge) = (0, 0, 0, 0, 0);
    let mut wide = Vec::new();
    for (block, slot) in unit_slots(tiled, unit) {
        let src0 = tiled.chunk_src_start(block, 0);
        let span = tiled.subgraph_edges(slot.clone());
        // The open tile and subgraph, one before the first until one opens.
        let (mut tile, mut ord) = (
            (subgraph_starts[slot.start] as usize).wrapping_sub(1),
            slot.start.wrapping_sub(1),
        );
        let mut prev = (0, 0);
        for e in span.clone() {
            let (entry, flags) = (entries[e], meta[edge]);
            let opens_tile = flags & OPENS_TILE != 0;
            tile = tile.wrapping_add(usize::from(opens_tile));
            ord = ord.wrapping_add(usize::from(flags & OPENS_RUN != 0));
            run += usize::from(flags & OPENS_RUN != 0);
            let opens_cell = opens_tile || (entry.col, entry.row) != prev;
            prev = (entry.col, entry.row);
            cells += usize::from(opens_cell);
            edges = if opens_cell { 1 } else { edges + 1 };
            let next = entries[(e + 1).min(span.end - 1)];
            let tile_ends = e + 1 == span.end || meta[edge + 1] & OPENS_TILE != 0;
            let ends_column = tile_ends || next.col != entry.col;
            srcs[cells - 1] = (src0 + chunks[ord] as usize * c + usize::from(entry.row)) as u32;
            let narrow = if edges > NARROW_EDGES { 0 } else { edges as u8 };
            meta[cells - 1] = narrow << 1 | u8::from(ends_column);
            if edges > NARROW_EDGES && (ends_column || next.row != entry.row) {
                wide.push(((cells - 1) as u32, edges as u32));
            }
            locals[columns] = (tile_index[tile] as usize * c + usize::from(entry.col)) as u16;
            columns += usize::from(ends_column);
            if let Some(start) = runs.get_mut(run) {
                *start = cells as u32;
            }
            edge += 1;
        }
    }
    debug_assert_eq!(run, runs.len());
    (cells, columns, wide)
}
