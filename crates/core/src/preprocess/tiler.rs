//! The tiler: applies [`TileOrder`] to a concrete edge list, producing the
//! streamed-order cell layout every scan walks.
//!
//! The layout is the §3.4 ordered edge list, stored once. Its order is
//! global-order-ID order: blocks in column-major order, destination strips
//! within a block, source chunks (subgraphs) within a strip, and within a
//! subgraph the crossbar columns by ascending strip-local destination, rows
//! ascending within a column and parallel edges in input order. A *cell* is
//! one stored `(source, destination)` pair, which its parallel edges share.
//! The tiling holds
//! - per edge, its weight;
//! - per cell, its source vertex and a meta byte: its edge count (0 above
//!   63, where a short side list keeps it) over its tile-end and
//!   column-end flags;
//! - per column, its strip-local destination;
//! - per nonempty subgraph, where its edges, cells, columns and tiles start;
//! - per `(block, strip)` slot, its first subgraph.
//!
//! Keeping only the nonempty subgraphs is what lets GraphR skip work
//! (§3.3). A subgraph's *ordinal*, its position among them, is also its
//! place on disk: adjacent ordinals are adjacent bytes. Spans and plans
//! name subgraphs by ordinal, so every layer reads a subgraph with one
//! [`TiledGraph::subgraph`] lookup. Tiles are derived: a tile is the run of
//! a subgraph's columns under one crossbar's `C` bitlines (`local / C`), and
//! only their count is kept. A subgraph's source chunk is read off its first
//! cell's source. Spans are not stored either: [`SourceRangeIndex::spans`]
//! reads them off the slot and subgraph tables.
//!
//! The layout is built in linear passes, not one global sort. The order is
//! a partition into `(block, strip)` slots followed by a small order within
//! each slot, and every coordinate of an edge comes from its source alone
//! or its destination alone, so two per-vertex tables give every edge its
//! slot and a key within the slot with no division. The key packs chunk,
//! tile, column and row into bit fields, so it sorts as the global order
//! ID does and reads back with shifts. One counting pass and one scatter
//! drop each edge's `(key, weight, source)` into its slot's bucket in
//! input order; each bucket is then radix-sorted by key, stably, so
//! parallel edges keep their input order, and drained once. Equal keys are
//! one cell, and a column, tile or subgraph opens where the key's bits
//! above its row, its column or its tile change.

use std::ops::Range;

use graphr_graph::{Edge, EdgeList};

use crate::config::{ConfigError, GraphRConfig};
use crate::preprocess::order::TileOrder;

/// The widest strip the layout addresses: strip-local destinations are
/// `u16`.
pub(crate) const MAX_STRIP_WIDTH: usize = 1 << u16::BITS;
/// Cells of more than this many edges keep their count in the side list.
const NARROW_EDGES: usize = 0x3F;

/// Whether a cell with metadata `meta` ends its column.
#[inline]
pub(crate) fn ends_column(meta: u8) -> bool {
    meta & 1 != 0
}

/// Whether a cell with metadata `meta` ends its tile (and so its column).
#[inline]
pub(crate) fn ends_tile(meta: u8) -> bool {
    meta & 2 != 0
}

/// One stored `(source, destination)` pair of a subgraph: a crossbar cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell<'a> {
    /// Source vertex; its crossbar row is `src` minus
    /// [`SubgraphView::src_start`].
    pub src: u32,
    /// Strip-local destination: crossbar tile `local / C`, bitline
    /// `local % C`.
    pub local: u16,
    /// The weights of its parallel edges, in input order.
    pub weights: &'a [f32],
}

/// One nonempty subgraph's place in the §3.4 streamed order, seen from the
/// source side: which source vertices it covers and where its edges sit in
/// the ordered edge list.
///
/// Spans are the entries of the [`SourceRangeIndex`]; the plan layer
/// intersects their source ranges with an active-vertex mask to decide
/// which subgraphs a scan must stream at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubgraphSpan {
    /// Column-major block index (`0..`[`TiledGraph::num_blocks`]).
    pub block: u32,
    /// Strip index within the block.
    pub strip: u32,
    /// The subgraph's streamed ordinal (see [`TiledGraph::subgraph`]).
    pub ordinal: u32,
    /// First source vertex the subgraph covers.
    pub src_start: u32,
    /// Real (unpadded) source vertices covered — the crossbar row count,
    /// clamped at the graph's vertex count.
    pub src_len: u32,
    /// Offset of the subgraph's first edge in the §3.4 streamed order.
    pub edge_offset: u64,
    /// Edges in the subgraph.
    pub edges: u32,
}

impl SubgraphSpan {
    /// Whether any covered source vertex is active under `mask`
    /// (word-level — the span never reads individual bits).
    #[must_use]
    pub fn intersects(&self, mask: &crate::exec::mask::FrontierMask) -> bool {
        let lo = self.src_start as usize;
        mask.any_in_range(lo, lo + self.src_len as usize)
    }
}

/// Source-side index of which source ranges hold edges, read off the
/// tiler's tables — nothing is stored beyond them.
///
/// Every nonempty subgraph appears once as a [`SubgraphSpan`] carrying its
/// source-vertex range and its edge offset into the ordered edge list,
/// grouped by block row (ascending) and in streamed order within a row.
/// This is what lets a scan plan restrict the walk to block rows that
/// contain at least one active source *before* streaming anything: the
/// controller seeks straight to the planned spans' offsets instead of
/// scanning edges past the GEs.
#[derive(Debug, Clone, Copy)]
pub struct SourceRangeIndex<'a> {
    graph: &'a TiledGraph,
}

impl<'a> SourceRangeIndex<'a> {
    /// Every span: block rows ascending, streamed order within a row.
    pub fn spans(self) -> impl Iterator<Item = SubgraphSpan> + 'a {
        let g = self.graph;
        let (per_side, strips) = (g.order.blocks_per_side(), g.order.strips_per_block());
        let c = g.order.crossbar_size();
        let rows = (0..per_side).flat_map(move |bi| (0..per_side).map(move |bj| (bi, bj)));
        let slots = rows.flat_map(move |(bi, bj)| (0..strips).map(move |strip| (bi, bj, strip)));
        slots.flat_map(move |(bi, bj, strip)| {
            let block = bi + per_side * bj;
            g.slot_subgraphs(block, strip).map(move |ord| {
                let (first, end) = (g.subgraphs[ord], g.subgraphs[ord + 1]);
                let src_start = g.subgraph(ord).src_start();
                SubgraphSpan {
                    block: block as u32,
                    strip: strip as u32,
                    ordinal: ord as u32,
                    src_start: src_start as u32,
                    src_len: c.min(g.num_vertices.saturating_sub(src_start)) as u32,
                    edge_offset: u64::from(first.edge),
                    edges: end.edge - first.edge,
                }
            })
        })
    }
}

/// Where one nonempty subgraph's entries start in the per-edge, per-cell
/// and per-column tables, and how many tiles precede it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Starts {
    pub(crate) edge: u32,
    pub(crate) cell: u32,
    pub(crate) column: u32,
    pub(crate) tile: u32,
}

/// A graph preprocessed into GraphR's streaming order.
///
/// # Examples
///
/// ```
/// use graphr_core::{GraphRConfig, TiledGraph};
/// use graphr_graph::generators::structured::figure5;
///
/// let config = GraphRConfig::builder()
///     .crossbar_size(4)
///     .crossbars_per_ge(2)
///     .num_ges(2)
///     .spec(graphr_units::FixedSpec::new(5, 0)?)
///     .slicer(graphr_units::BitSlicer::new(4, 1)?)
///     .build()?;
/// let tiled = TiledGraph::preprocess(&figure5(), &config)?;
/// assert_eq!(tiled.total_edges(), 25);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TiledGraph {
    order: TileOrder,
    num_vertices: usize,
    /// Per edge, in §3.4 streamed order: its weight.
    weights: Vec<f32>,
    /// Per cell: its source vertex.
    srcs: Vec<u32>,
    /// Per cell: its edge count (0 above [`NARROW_EDGES`]) shifted up two
    /// bits over its tile-end and column-end flags.
    meta: Vec<u8>,
    /// `(cell, edge count)` of the cells above [`NARROW_EDGES`] edges, by
    /// cell.
    wide: Vec<(u32, u32)>,
    /// Per column: its strip-local destination.
    locals: Vec<u16>,
    /// Per nonempty subgraph (by ordinal), plus a trailing end: where it
    /// starts.
    subgraphs: Vec<Starts>,
    /// Per `(block, strip)` slot, `block · strips_per_block + strip`: its
    /// first subgraph ordinal, plus a trailing subgraph count. Empty slots
    /// keep their place, so the disk-order walk stays arithmetic.
    slot_starts: Vec<u32>,
}

/// One nonempty subgraph of a [`TiledGraph`]: a `C × strip_width` window
/// of the adjacency matrix, read in place from the layout.
#[derive(Debug, Clone, Copy)]
pub struct SubgraphView<'a> {
    graph: &'a TiledGraph,
    ordinal: usize,
}

impl<'a> SubgraphView<'a> {
    /// First source vertex the subgraph covers: its cells' sources share
    /// one `C`-aligned chunk.
    #[must_use]
    pub fn src_start(&self) -> usize {
        let c = self.graph.order.crossbar_size();
        let src = self.graph.srcs[self.starts().cell as usize] as usize;
        src - src % c
    }

    /// Source chunk index within the block.
    #[must_use]
    pub fn chunk(&self) -> u32 {
        let order = &self.graph.order;
        (self.src_start() % order.block_size() / order.crossbar_size()) as u32
    }

    /// Total edges in the subgraph.
    #[must_use]
    pub fn edges(&self) -> u32 {
        self.end().edge - self.starts().edge
    }

    /// Nonempty crossbar tiles in the subgraph.
    #[must_use]
    pub fn num_tiles(&self) -> u32 {
        self.end().tile - self.starts().tile
    }

    /// The cells, in streamed order: columns by ascending strip-local
    /// destination, rows ascending within a column.
    pub fn cells(&self) -> impl Iterator<Item = Cell<'a>> + 'a {
        let g = self.graph;
        let (first, end) = (self.starts(), self.end());
        let (mut edge, mut column) = (first.edge as usize, first.column as usize);
        (first.cell as usize..end.cell as usize).map(move |cell| {
            let meta = g.meta[cell];
            let edges = g.cell_edges(cell, meta);
            let held = Cell {
                src: g.srcs[cell],
                local: g.locals[column],
                weights: &g.weights[edge..edge + edges],
            };
            edge += edges;
            column += usize::from(ends_column(meta));
            held
        })
    }

    /// The subgraph's streamed ordinal.
    pub(crate) fn ordinal(&self) -> usize {
        self.ordinal
    }

    fn starts(&self) -> Starts {
        self.graph.subgraphs[self.ordinal]
    }

    fn end(&self) -> Starts {
        self.graph.subgraphs[self.ordinal + 1]
    }
}

impl TiledGraph {
    /// Preprocesses `graph` for `config` — the software step of Figure 9,
    /// performed once.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration's geometry is
    /// inconsistent (see [`GraphRConfig::check`] and
    /// [`TileOrder::new`]), if its strips are wider than the 65,536
    /// destinations the layout addresses, or if the graph has more edges,
    /// or the geometry more `(block, strip)` slots, than the `u32` tables
    /// address, or a slot more positions than 63-bit keys hold.
    pub fn preprocess(graph: &EdgeList, config: &GraphRConfig) -> Result<Self, ConfigError> {
        config.check()?;
        if config.strip_width() > MAX_STRIP_WIDTH {
            return Err(ConfigError::new(format!(
                "strip width {} exceeds the {MAX_STRIP_WIDTH} destinations a tiling addresses",
                config.strip_width()
            )));
        }
        let c = config.crossbar_size;
        let n = graph.num_vertices();
        let block_size = config.effective_block_vertices(n);
        let order = TileOrder::new(n.max(1), c, config.strip_width(), block_size)?;

        let edges = graph.edges();
        u32::try_from(edges.len()).map_err(|_| ConfigError::new("more than u32::MAX edges"))?;

        let (per_side, strips) = (order.blocks_per_side(), order.strips_per_block());
        let num_slots = order.num_blocks() * strips;
        u32::try_from(num_slots).map_err(|_| ConfigError::new("more than u32::MAX slots"))?;
        let layout = KeyLayout::new(&order)
            .ok_or_else(|| ConfigError::new("slot positions need more than 63 key bits"))?;

        // Every coordinate of an edge comes from its source alone or its
        // destination alone, so per-vertex tables give each edge its
        // `(block, strip)` slot and its key within the slot as two sums.
        // Vertices are met in order, so nested counters give their
        // coordinates with no division.
        let (src_slot, src_key): (Vec<u32>, Vec<u64>) = (0..per_side)
            .flat_map(|bi| {
                let chunks = 0..order.chunks_per_block();
                chunks.flat_map(move |chunk| {
                    (0..c).map(move |row| ((bi * strips) as u32, layout.source(chunk, row)))
                })
            })
            .take(n)
            .unzip();
        let (dst_slot, dst_key): (Vec<u32>, Vec<u64>) = (0..per_side * strips)
            .flat_map(|column| {
                let tiles = 0..order.strip_width() / c;
                let slot = (per_side * strips * (column / strips) + column % strips) as u32;
                tiles.flat_map(move |tile| {
                    (0..c).map(move |col| (slot, layout.destination(tile, col)))
                })
            })
            .take(n)
            .unzip();
        let slot_of = |e: &Edge| (src_slot[e.src as usize] + dst_slot[e.dst as usize]) as usize;

        // Count, then scatter each edge's `(key, weight, source)` into its
        // slot's bucket, in input order.
        let mut bucket_starts = vec![0u32; num_slots + 1];
        for e in edges {
            bucket_starts[slot_of(e) + 1] += 1;
        }
        for s in 0..num_slots {
            bucket_starts[s + 1] += bucket_starts[s];
        }
        let mut fill = bucket_starts.clone();
        let mut buckets = vec![(0u64, 0f32, 0u32); edges.len()];
        for e in edges {
            let slot = slot_of(e);
            let key = src_key[e.src as usize] + dst_key[e.dst as usize];
            buckets[fill[slot] as usize] = (key, e.weight, e.src);
            fill[slot] += 1;
        }
        drop((fill, src_slot, src_key, dst_slot, dst_key));

        // Sort each bucket by key, stably, so parallel edges keep their
        // input order, and drain it into the tables: its weights, then one
        // entry per run of equal keys, a cell. A column, tile or subgraph
        // opens where the key's bits above its row, column or tile change.
        // Keys restart in every slot, so each slot opens all three afresh.
        let mut weights = Vec::with_capacity(edges.len());
        let (mut srcs, mut meta) = (
            Vec::with_capacity(edges.len()),
            Vec::with_capacity(edges.len()),
        );
        let mut locals = Vec::with_capacity(edges.len());
        let (mut wide, mut subgraphs) = (Vec::new(), Vec::new());
        let mut slot_starts = Vec::with_capacity(num_slots + 1);
        let mut tiles = 0;
        let largest = bucket_starts.windows(2).map(|w| w[1] - w[0]).max();
        let mut scratch = vec![(0u64, 0f32, 0u32); largest.unwrap_or(0) as usize];
        for slot in 0..num_slots {
            slot_starts.push(subgraphs.len() as u32);
            let bucket =
                &mut buckets[bucket_starts[slot] as usize..bucket_starts[slot + 1] as usize];
            sort_bucket(bucket, &mut scratch, layout.bits);
            let first = weights.len();
            weights.extend(bucket.iter().map(|&(_, weight, _)| weight));
            let (mut edge, mut prev) = (0, u64::MAX);
            for cell in bucket.chunk_by(|a, b| a.0 == b.0) {
                let (key, edges) = (cell[0].0, cell.len());
                let changed = key ^ prev;
                let opens_column = changed >> layout.cell_bits != 0;
                if changed >> layout.chunk_shift != 0 {
                    subgraphs.push(Starts {
                        edge: (first + edge) as u32,
                        cell: srcs.len() as u32,
                        column: locals.len() as u32,
                        tile: tiles,
                    });
                }
                // The cell ends its tile or column where the next key's
                // bits above its column or row differ, or the slot ends.
                let ends = key ^ bucket.get(edge + edges).map_or(u64::MAX, |next| next.0);
                let flags = u8::from(ends >> layout.tile_shift != 0) << 1
                    | u8::from(ends >> layout.cell_bits != 0);
                if edges > NARROW_EDGES {
                    wide.push((srcs.len() as u32, edges as u32));
                }
                let count = if edges > NARROW_EDGES { 0 } else { edges as u8 };
                meta.push(count << 2 | flags);
                srcs.push(cell[0].2);
                if opens_column {
                    tiles += u32::from(changed >> layout.tile_shift != 0);
                    locals.push(layout.local(key, c) as u16);
                }
                (edge, prev) = (edge + edges, key);
            }
        }
        slot_starts.push(subgraphs.len() as u32);
        subgraphs.push(Starts {
            edge: weights.len() as u32,
            cell: srcs.len() as u32,
            column: locals.len() as u32,
            tile: tiles,
        });
        srcs.shrink_to_fit();
        meta.shrink_to_fit();
        locals.shrink_to_fit();
        subgraphs.shrink_to_fit();
        Ok(TiledGraph {
            order,
            num_vertices: n,
            weights,
            srcs,
            meta,
            wide,
            locals,
            subgraphs,
            slot_starts,
        })
    }

    /// Heap bytes of every table the tiling holds: host state, never part
    /// of [`Metrics`](crate::Metrics).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        fn bytes<T>(table: &Vec<T>) -> usize {
            table.capacity() * std::mem::size_of::<T>()
        }
        bytes(&self.weights)
            + bytes(&self.srcs)
            + bytes(&self.meta)
            + bytes(&self.wide)
            + bytes(&self.locals)
            + bytes(&self.subgraphs)
            + bytes(&self.slot_starts)
    }

    /// Where the subgraphs at `ordinals` start, and the positions of
    /// their cells.
    pub(crate) fn run(&self, ordinals: Range<usize>) -> (Starts, Range<usize>) {
        let (first, end) = (self.subgraphs[ordinals.start], self.subgraphs[ordinals.end]);
        (first, first.cell as usize..end.cell as usize)
    }

    /// Per cell of `cells`: its source vertex and its metadata.
    pub(crate) fn cells(&self, cells: Range<usize>) -> (&[u32], &[u8]) {
        (&self.srcs[cells.clone()], &self.meta[cells])
    }

    /// Destinations of the columns from position `column` on.
    pub(crate) fn locals(&self, column: usize) -> &[u16] {
        &self.locals[column..]
    }

    /// Weights of the edges from position `edge` on.
    pub(crate) fn weights(&self, edge: usize) -> &[f32] {
        &self.weights[edge..]
    }

    /// The edge count of the cell at position `cell`, whose metadata is
    /// `meta`.
    #[inline]
    pub(crate) fn cell_edges(&self, cell: usize, meta: u8) -> usize {
        match usize::from(meta >> 2) {
            0 => self.wide[self.wide.partition_point(|&(c, _)| (c as usize) < cell)].1 as usize,
            edges => edges,
        }
    }

    /// Positions of the cells of the subgraphs in `(block, strip)`.
    pub(crate) fn slot_cells(&self, block: usize, strip: usize) -> Range<usize> {
        self.run(self.slot_subgraphs(block, strip)).1
    }

    /// Cells of the strip unit `unit` (`bj · strips_per_block + strip`),
    /// over all its block rows.
    pub(crate) fn unit_cells(&self, unit: usize) -> usize {
        let (per_side, strips) = (self.order.blocks_per_side(), self.order.strips_per_block());
        let blocks = unit / strips * per_side..(unit / strips + 1) * per_side;
        blocks
            .map(|block| self.slot_cells(block, unit % strips).len())
            .sum()
    }

    /// The ordering geometry in use.
    #[must_use]
    pub fn order(&self) -> &TileOrder {
        &self.order
    }

    /// The per-block-row source-range index over the subgraph tables.
    #[must_use]
    pub fn source_index(&self) -> SourceRangeIndex<'_> {
        SourceRangeIndex { graph: self }
    }

    /// Original (unpadded) vertex count.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Block slots in column-major (disk) order, empty blocks included.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.order.num_blocks()
    }

    /// Streamed ordinals of the nonempty subgraphs in `(block, strip)`,
    /// in ascending chunk order.
    #[must_use]
    pub fn slot_subgraphs(&self, block: usize, strip: usize) -> Range<usize> {
        let slot = block * self.order.strips_per_block() + strip;
        self.slot_starts[slot] as usize..self.slot_starts[slot + 1] as usize
    }

    /// Streamed ordinals of every nonempty subgraph in `block`.
    #[must_use]
    pub(crate) fn block_subgraphs(&self, block: usize) -> Range<usize> {
        let strips = self.order.strips_per_block();
        self.slot_starts[block * strips] as usize..self.slot_starts[(block + 1) * strips] as usize
    }

    /// The nonempty subgraph at streamed `ordinal`; the view's methods
    /// panic unless `ordinal` is below [`TiledGraph::nonempty_subgraphs`].
    #[must_use]
    pub fn subgraph(&self, ordinal: usize) -> SubgraphView<'_> {
        SubgraphView {
            graph: self,
            ordinal,
        }
    }

    /// Total edges across all tiles.
    #[must_use]
    pub fn total_edges(&self) -> usize {
        self.weights.len()
    }

    /// Number of subgraphs containing at least one edge.
    #[must_use]
    pub fn nonempty_subgraphs(&self) -> usize {
        self.subgraphs.len() - 1
    }

    /// Number of logical crossbar tiles containing at least one edge.
    #[must_use]
    pub fn nonempty_tiles(&self) -> usize {
        self.subgraphs[self.nonempty_subgraphs()].tile as usize
    }

    /// Total subgraph slots (empty included) — the denominator of the
    /// §3.3 skipping benefit.
    #[must_use]
    pub fn total_subgraph_slots(&self) -> usize {
        self.order.num_blocks() * self.order.subgraphs_per_block()
    }

    /// First destination vertex of `strip` in `block`.
    #[must_use]
    pub fn strip_dst_start(&self, block: usize, strip: usize) -> usize {
        let bj = block / self.order.blocks_per_side();
        bj * self.order.block_size() + strip * self.order.strip_width()
    }
}

/// Where each coordinate of a position sits in its key within a
/// `(block, strip)` slot. From the most significant bit: chunk, tile,
/// column within the tile, row. Equation (9) orders a slot's positions by
/// chunk, then column (tile, then column within it), then row, so keys
/// sort exactly as global IDs do; yet each field reads back with a shift
/// and a mask, so emitting the layout divides nothing.
#[derive(Debug, Clone, Copy)]
struct KeyLayout {
    /// Bits of a row (and of a column) within a tile.
    cell_bits: u32,
    tile_shift: u32,
    chunk_shift: u32,
    /// Bits of a whole key.
    bits: u32,
}

impl KeyLayout {
    /// The layout for `order`, or `None` if a key needs more than 63 bits.
    fn new(order: &TileOrder) -> Option<KeyLayout> {
        // Bits holding `0..count`.
        let width = |count: usize| usize::BITS - (count - 1).leading_zeros();
        let c = order.crossbar_size();
        let cell_bits = width(c);
        let tile_shift = 2 * cell_bits;
        let chunk_shift = tile_shift + width(order.strip_width() / c);
        let bits = chunk_shift + width(order.chunks_per_block());
        (bits < u64::BITS).then_some(KeyLayout {
            cell_bits,
            tile_shift,
            chunk_shift,
            bits,
        })
    }

    /// The source's share of a key: its chunk and row.
    fn source(&self, chunk: usize, row: usize) -> u64 {
        (chunk as u64) << self.chunk_shift | row as u64
    }

    /// The destination's share of a key: its tile and column within it.
    fn destination(&self, tile: usize, col: usize) -> u64 {
        (tile as u64) << self.tile_shift | (col as u64) << self.cell_bits
    }

    /// `key`'s strip-local destination, `tile · c + column`, for `c`-row
    /// crossbars.
    fn local(&self, key: u64, c: usize) -> usize {
        let field = |shift: u32, bits: u32| (key >> shift) as usize & ((1 << bits) - 1);
        let tile = field(self.tile_shift, self.chunk_shift - self.tile_shift);
        tile * c + field(self.cell_bits, self.cell_bits)
    }
}

/// Sorts a bucket of `(key, weight, source)` edges by key, stably, so
/// equal keys — parallel edges — keep their order. Keys hold at most
/// `bits` bits. Least-significant-digit radix passes, one per byte,
/// ping-pong through `scratch` (at least as long as `keyed`); a byte every
/// edge shares costs no pass. Buckets no longer than one digit's histogram take a
/// comparison sort instead.
fn sort_bucket(keyed: &mut [(u64, f32, u32)], scratch: &mut [(u64, f32, u32)], bits: u32) {
    const RADIX: usize = 256;
    if keyed.len() <= RADIX {
        keyed.sort_by_key(|&(key, _, _)| key);
        return;
    }
    let digits = bits.div_ceil(8) as usize;
    let mut counts = [[0u32; RADIX]; 8];
    for &(key, _, _) in keyed.iter() {
        for (d, count) in counts[..digits].iter_mut().enumerate() {
            count[(key >> (8 * d)) as u8 as usize] += 1;
        }
    }
    let len = keyed.len();
    let (mut from, mut to) = (keyed, &mut scratch[..len]);
    let mut in_scratch = false;
    for (d, count) in counts[..digits].iter_mut().enumerate() {
        if count.iter().any(|&c| c as usize == len) {
            continue;
        }
        let mut next = 0;
        for c in count.iter_mut() {
            (*c, next) = (next, next + *c);
        }
        for &pair in from.iter() {
            let digit = (pair.0 >> (8 * d)) as u8 as usize;
            to[count[digit] as usize] = pair;
            count[digit] += 1;
        }
        std::mem::swap(&mut from, &mut to);
        in_scratch = !in_scratch;
    }
    if in_scratch {
        to.copy_from_slice(from);
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use graphr_graph::generators::rmat::Rmat;
    use graphr_graph::generators::structured::figure5;
    use graphr_units::{BitSlicer, FixedSpec};
    use proptest::prelude::*;

    fn small_config() -> GraphRConfig {
        // Figure 12 geometry: C=4, N=2, G=2 → strip width 16, block 32.
        GraphRConfig::builder()
            .crossbar_size(4)
            .crossbars_per_ge(2)
            .num_ges(2)
            .spec(FixedSpec::new(5, 0).unwrap())
            .slicer(BitSlicer::new(4, 1).unwrap())
            .block_vertices(32)
            .build()
            .unwrap()
    }

    /// Every `(src, dst, weight)` the layout holds, walked slot by slot.
    fn reconstruct(tiled: &TiledGraph) -> Vec<(u32, u32, f32)> {
        let mut out = Vec::new();
        for block in 0..tiled.num_blocks() {
            for strip in 0..tiled.order().strips_per_block() {
                let dst0 = tiled.strip_dst_start(block, strip);
                for ord in tiled.slot_subgraphs(block, strip) {
                    for cell in tiled.subgraph(ord).cells() {
                        let dst = (dst0 + usize::from(cell.local)) as u32;
                        out.extend(cell.weights.iter().map(|&w| (cell.src, dst, w)));
                    }
                }
            }
        }
        out
    }

    /// The exact §3.4 layout of Figure 5's graph, pinned: the streamed
    /// `(tile, row, col, weight)` sequence, each subgraph's
    /// `(chunk, edges)`, and the nonempty counts.
    #[test]
    fn figure5_layout_is_pinned() {
        let tiled = TiledGraph::preprocess(&figure5(), &small_config()).unwrap();
        // 8 vertices < one 32-vertex block → single block.
        assert_eq!((tiled.num_blocks(), tiled.total_edges()), (1, 25));
        let mut streamed = Vec::new();
        let mut subgraphs = Vec::new();
        for ord in 0..tiled.nonempty_subgraphs() {
            let sg = tiled.subgraph(ord);
            subgraphs.push((sg.chunk(), sg.edges()));
            for cell in sg.cells() {
                let (t, col) = (usize::from(cell.local) / 4, (cell.local % 4) as u8);
                let row = (cell.src as usize - sg.src_start()) as u8;
                streamed.extend(cell.weights.iter().map(|&w| (t, row, col, w)));
            }
        }
        #[rustfmt::skip]
        let expected = [
            (0, 2, 0), (0, 3, 0), (0, 3, 1), (0, 0, 2), (0, 1, 2), (0, 0, 3), (0, 1, 3),
            (0, 1, 0), (0, 2, 0), (0, 0, 1), (0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 2, 2),
            (0, 3, 2), (0, 2, 3),
            (1, 2, 0), (1, 3, 0), (1, 2, 1), (1, 0, 2), (1, 1, 2), (1, 3, 2), (1, 0, 3),
            (1, 1, 3), (1, 3, 3),
        ];
        let expected: Vec<(usize, u8, u8, f32)> =
            expected.iter().map(|&(t, r, c)| (t, r, c, 1.0)).collect();
        assert_eq!(streamed, expected);
        assert_eq!(subgraphs, [(0, 7), (1, 18)]);
        assert_eq!((tiled.nonempty_tiles(), tiled.nonempty_subgraphs()), (3, 2));
    }

    #[test]
    fn tile_coordinates_reconstruct_original_edges() {
        let g = Rmat::new(60, 300).seed(7).max_weight(9).generate();
        let tiled = TiledGraph::preprocess(&g, &small_config()).unwrap();
        let mut reconstructed = reconstruct(&tiled);
        let mut expected: Vec<(u32, u32, f32)> =
            g.iter().map(|e| (e.src, e.dst, e.weight)).collect();
        reconstructed.sort_by(|a, b| a.partial_cmp(b).unwrap());
        expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(reconstructed, expected);
    }

    #[test]
    fn subgraphs_are_in_chunk_order_and_nonempty() {
        let g = Rmat::new(64, 400).seed(3).generate();
        let tiled = TiledGraph::preprocess(&g, &small_config()).unwrap();
        for block in 0..tiled.num_blocks() {
            for strip in 0..tiled.order().strips_per_block() {
                let slot = tiled.slot_subgraphs(block, strip);
                let chunks: Vec<u32> = slot.clone().map(|o| tiled.subgraph(o).chunk()).collect();
                assert!(chunks.windows(2).all(|w| w[0] < w[1]), "chunks must ascend");
                for ord in slot {
                    let sg = tiled.subgraph(ord);
                    assert!(sg.edges() > 0);
                    assert_ne!(sg.num_tiles(), 0);
                    assert!(sg.cells().all(|cell| !cell.weights.is_empty()));
                }
            }
        }
    }

    #[test]
    fn skipping_statistics_are_consistent() {
        let g = Rmat::new(64, 100).seed(5).generate();
        let tiled = TiledGraph::preprocess(&g, &small_config()).unwrap();
        assert!(tiled.nonempty_subgraphs() <= tiled.total_subgraph_slots());
        assert!(tiled.nonempty_tiles() >= tiled.nonempty_subgraphs());
        assert!(tiled.nonempty_tiles() <= tiled.total_edges());
        // 64 vertices / block 32 → 2×2 blocks of 16 subgraphs.
        assert_eq!(tiled.total_subgraph_slots(), 64);
    }

    #[test]
    fn default_config_single_block() {
        let g = Rmat::new(500, 2000).seed(2).generate();
        let cfg = GraphRConfig::default();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        // 500 vertices pad to one 4096-strip-width block.
        assert_eq!(tiled.num_blocks(), 1);
        assert_eq!(tiled.order().padded_vertices(), 4096);
        assert_eq!(tiled.total_edges(), 2000);
    }

    #[test]
    fn empty_graph_has_no_subgraphs() {
        let g = EdgeList::new(10);
        let tiled = TiledGraph::preprocess(&g, &small_config()).unwrap();
        assert_eq!(tiled.nonempty_subgraphs(), 0);
        assert_eq!(tiled.total_edges(), 0);
    }

    /// Every field of a tiling is its value: two tilings of one graph
    /// compare and print the same, and so does a clone.
    #[test]
    fn tilings_compare_print_and_clone_by_value() {
        let g = Rmat::new(60, 300).seed(7).max_weight(9).generate();
        let first = TiledGraph::preprocess(&g, &small_config()).unwrap();
        let second = TiledGraph::preprocess(&g, &small_config()).unwrap();
        assert_eq!(first, second);
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
        let clone = first.clone();
        assert_eq!(clone, first);
    }

    proptest! {
        #[test]
        fn every_edge_lands_in_exactly_one_tile(
            n in 1usize..100,
            m in 0usize..400,
            seed in 0u64..20,
            three_rows in 0usize..2,
        ) {
            // Either Figure 12's geometry, or 3-row crossbars with
            // 6-vertex strips and 12-vertex blocks over at least 3×3
            // blocks, the last one padded unless 12 divides the count.
            let (n, config) = if three_rows == 1 {
                let config = GraphRConfig::builder()
                    .crossbar_size(3)
                    .crossbars_per_ge(2)
                    .num_ges(1)
                    .spec(FixedSpec::new(5, 0).unwrap())
                    .slicer(BitSlicer::new(4, 1).unwrap())
                    .block_vertices(12)
                    .build()
                    .unwrap();
                (n + 24, config)
            } else {
                (n, small_config())
            };
            let g = Rmat::new(n, m).seed(seed).generate();
            let tiled = TiledGraph::preprocess(&g, &config).unwrap();
            prop_assert_eq!(reconstruct(&tiled).len(), m);
            let by_counter: u32 = (0..tiled.nonempty_subgraphs())
                .map(|ord| tiled.subgraph(ord).edges())
                .sum();
            prop_assert_eq!(by_counter as usize, m);
            // Every span's byte range of the streamed order is exactly its
            // subgraph's edges, tiles strictly ascending: the in-memory
            // layout is the byte order the disk model prices.
            let c = config.crossbar_size;
            for span in tiled.source_index().spans() {
                let sg = tiled.subgraph(span.ordinal as usize);
                prop_assert_eq!(sg.edges(), span.edges);
                let held: Vec<f32> =
                    sg.cells().flat_map(|cell| cell.weights.iter().copied()).collect();
                let lo = span.edge_offset as usize;
                prop_assert_eq!(&tiled.weights[lo..lo + span.edges as usize], &held[..]);
                let mut tiles: Vec<usize> =
                    sg.cells().map(|cell| usize::from(cell.local) / c).collect();
                tiles.dedup();
                prop_assert!(tiles.windows(2).all(|w| w[0] < w[1]), "tiles {:?}", tiles);
                prop_assert_eq!(tiles.len(), sg.num_tiles() as usize);
            }
        }
    }
}
