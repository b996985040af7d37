//! The tiler: applies [`TileOrder`] to a concrete edge list, producing the
//! flat streamed-order layout the streaming-apply executor walks.
//!
//! The layout is exactly the §3.4 ordered edge list, materialised once:
//! every edge sits in one array in global-order-ID order — blocks in
//! column-major order, destination strips within a block, source chunks
//! (subgraphs) within a strip, and within a subgraph the logical crossbar
//! tiles in ascending index. Three offset tables cut that array into
//! nonempty tiles, nonempty subgraphs — keeping only those is what lets
//! GraphR skip work (§3.3) — and `(block, strip)` slots. A subgraph's
//! *ordinal*, its position among the nonempty subgraphs, is therefore also
//! its place on disk: adjacent ordinals are adjacent bytes. Spans and
//! plans name subgraphs by ordinal, so every layer reads a subgraph with
//! one [`TiledGraph::subgraph`] lookup.
//!
//! The layout is built in linear passes, not one global sort. The order is
//! a partition into `(block, strip)` slots followed by a small order within
//! each slot, and every coordinate of an edge comes from its source alone
//! or its destination alone, so two per-vertex tables give every edge its
//! slot and a key within the slot with no division. The key packs chunk,
//! tile, column and row into bit fields, so it sorts as the global order
//! ID does and reads back with shifts. One counting pass and one scatter
//! drop each edge's `(key, weight)` into its slot's bucket in input order;
//! each bucket is then radix-sorted by key, stably, so parallel edges keep
//! their input order, and emitted. A subgraph or tile opens only where a
//! key passes the open one's end. Spans are not stored:
//! [`SourceRangeIndex::spans`] reads them off the slot, chunk, subgraph and
//! tile tables.

use std::ops::Range;

use graphr_graph::{Edge, EdgeList};
use serde::{Deserialize, Serialize};

use crate::config::{ConfigError, GraphRConfig};
use crate::preprocess::order::TileOrder;

/// One edge placed inside a crossbar tile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileEntry {
    /// Wordline within the tile (`0..C`).
    pub row: u8,
    /// Bitline within the tile (`0..C`).
    pub col: u8,
    /// Edge weight.
    pub weight: f32,
}

/// One nonempty subgraph's place in the §3.4 streamed order, seen from the
/// source side: which source vertices it covers and where its edges sit in
/// the ordered edge list.
///
/// Spans are the entries of the [`SourceRangeIndex`]; the plan layer
/// intersects their source ranges with an active-vertex mask to decide
/// which subgraphs a scan must stream at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
/// tiler's offset tables — nothing is stored beyond them.
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
        let order = &g.order;
        let (per_side, strips) = (order.blocks_per_side(), order.strips_per_block());
        let c = order.crossbar_size();
        let rows = (0..per_side).flat_map(move |bi| (0..per_side).map(move |bj| (bi, bj)));
        let slots = rows.flat_map(move |(bi, bj)| (0..strips).map(move |strip| (bi, bj, strip)));
        slots.flat_map(move |(bi, bj, strip)| {
            let block = bi + per_side * bj;
            let src_base = bi * order.block_size();
            g.slot_subgraphs(block, strip).map(move |ord| {
                let src_start = src_base + g.chunks[ord] as usize * c;
                let first = g.tile_starts[g.subgraph_starts[ord] as usize];
                let end = g.tile_starts[g.subgraph_starts[ord + 1] as usize];
                SubgraphSpan {
                    block: block as u32,
                    strip: strip as u32,
                    ordinal: ord as u32,
                    src_start: src_start as u32,
                    src_len: c.min(g.num_vertices.saturating_sub(src_start)) as u32,
                    edge_offset: u64::from(first),
                    edges: end - first,
                }
            })
        })
    }
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
    /// Every edge, in §3.4 streamed order.
    entries: Vec<TileEntry>,
    /// Per nonempty tile: its first entry, plus a trailing entry count.
    tile_starts: Vec<u32>,
    /// Per nonempty tile: its index `ge · tiles_per_ge + slot` within its
    /// subgraph.
    tile_index: Vec<u32>,
    /// Per nonempty subgraph (by ordinal): its first tile, plus a trailing
    /// tile count.
    subgraph_starts: Vec<u32>,
    /// Per nonempty subgraph: its source chunk within the block.
    chunks: Vec<u32>,
    /// Per `(block, strip)` slot, `block · strips_per_block + strip`: its
    /// first subgraph ordinal, plus a trailing subgraph count. Empty slots
    /// keep their place, so the disk-order walk stays arithmetic.
    slot_starts: Vec<u32>,
}

/// One nonempty subgraph of a [`TiledGraph`]: a `C × strip_width` window
/// of the adjacency matrix, read in place from the flat layout.
#[derive(Debug, Clone, Copy)]
pub struct SubgraphView<'a> {
    graph: &'a TiledGraph,
    ordinal: usize,
}

impl<'a> SubgraphView<'a> {
    /// Source chunk index within the block.
    #[must_use]
    pub fn chunk(&self) -> u32 {
        self.graph.chunks[self.ordinal]
    }

    /// Total edges in the subgraph.
    #[must_use]
    pub fn edges(&self) -> u32 {
        let tiles = self.tile_range();
        self.graph.tile_starts[tiles.end] - self.graph.tile_starts[tiles.start]
    }

    /// The nonempty tiles in ascending tile index
    /// (`ge · tiles_per_ge + slot`), each with its edges in streamed order.
    pub fn tiles(&self) -> impl ExactSizeIterator<Item = (usize, &'a [TileEntry])> + 'a {
        let g = self.graph;
        self.tile_range().map(move |t| {
            let entries = g.tile_starts[t] as usize..g.tile_starts[t + 1] as usize;
            (g.tile_index[t] as usize, &g.entries[entries])
        })
    }

    fn tile_range(&self) -> Range<usize> {
        let starts = &self.graph.subgraph_starts;
        starts[self.ordinal] as usize..starts[self.ordinal + 1] as usize
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
    /// [`TileOrder::new`]), or if the graph has more edges, or the
    /// geometry more `(block, strip)` slots, than the `u32` offset tables
    /// address, or a slot more positions than 63-bit keys hold.
    pub fn preprocess(graph: &EdgeList, config: &GraphRConfig) -> Result<Self, ConfigError> {
        config.check()?;
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
        let (src_slot, src_key): (Vec<u32>, Vec<u64>) = (0..n)
            .map(|i| {
                let (bi, chunk, row) = order.source_coords(i);
                ((bi * strips) as u32, layout.source(chunk, row))
            })
            .unzip();
        let (dst_slot, dst_key): (Vec<u32>, Vec<u64>) = (0..n)
            .map(|j| {
                let (bj, strip, sub_col) = order.destination_coords(j);
                let slot = per_side * bj * strips + strip;
                (slot as u32, layout.destination(sub_col / c, sub_col % c))
            })
            .unzip();
        let slot_of = |e: &Edge| (src_slot[e.src as usize] + dst_slot[e.dst as usize]) as usize;

        // Count, then scatter each edge's `(key, weight)` into its slot's
        // bucket, in input order.
        let mut bucket_starts = vec![0u32; num_slots + 1];
        for e in edges {
            bucket_starts[slot_of(e) + 1] += 1;
        }
        for s in 0..num_slots {
            bucket_starts[s + 1] += bucket_starts[s];
        }
        let mut fill = bucket_starts.clone();
        let mut buckets = vec![(0u64, 0f32); edges.len()];
        for e in edges {
            let slot = slot_of(e);
            let key = src_key[e.src as usize] + dst_key[e.dst as usize];
            buckets[fill[slot] as usize] = (key, e.weight);
            fill[slot] += 1;
        }
        drop((fill, src_slot, src_key, dst_slot, dst_key));

        // Sort each bucket by key, stably, so parallel edges keep their
        // input order, and emit it. Keys ascend, so a subgraph or tile
        // opens only where a key passes the open one's end.
        let mut entries = Vec::with_capacity(edges.len());
        let mut tile_starts = Vec::new();
        let mut tile_index = Vec::new();
        let mut subgraph_starts = Vec::new();
        let mut chunks: Vec<u32> = Vec::new();
        let mut slot_starts = Vec::with_capacity(num_slots + 1);
        let largest = bucket_starts.windows(2).map(|w| w[1] - w[0]).max();
        let mut scratch = vec![(0u64, 0f32); largest.unwrap_or(0) as usize];
        for slot in 0..num_slots {
            slot_starts.push(chunks.len() as u32);
            let bucket =
                &mut buckets[bucket_starts[slot] as usize..bucket_starts[slot + 1] as usize];
            sort_bucket(bucket, &mut scratch, layout.bits);
            let (mut subgraph_end, mut tile_end) = (0, 0);
            for &(key, weight) in bucket.iter() {
                if key >= subgraph_end {
                    subgraph_end = layout.chunk_end(key);
                    subgraph_starts.push(tile_index.len() as u32);
                    chunks.push(layout.chunk(key));
                }
                if key >= tile_end {
                    tile_end = layout.tile_end(key);
                    tile_starts.push(entries.len() as u32);
                    tile_index.push(layout.tile(key));
                }
                let (row, col) = layout.cell(key);
                entries.push(TileEntry { row, col, weight });
            }
        }
        slot_starts.push(chunks.len() as u32);
        subgraph_starts.push(tile_index.len() as u32);
        tile_starts.push(entries.len() as u32);
        Ok(TiledGraph {
            order,
            num_vertices: n,
            entries,
            tile_starts,
            tile_index,
            subgraph_starts,
            chunks,
            slot_starts,
        })
    }

    /// The ordering geometry in use.
    #[must_use]
    pub fn order(&self) -> &TileOrder {
        &self.order
    }

    /// The per-block-row source-range index over the offset tables.
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
        self.entries.len()
    }

    /// Number of subgraphs containing at least one edge.
    #[must_use]
    pub fn nonempty_subgraphs(&self) -> usize {
        self.chunks.len()
    }

    /// Number of logical crossbar tiles containing at least one edge.
    #[must_use]
    pub fn nonempty_tiles(&self) -> usize {
        self.tile_index.len()
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

    /// First source vertex of source `chunk` in `block`.
    #[must_use]
    pub fn chunk_src_start(&self, block: usize, chunk: u32) -> usize {
        let bi = block % self.order.blocks_per_side();
        bi * self.order.block_size() + chunk as usize * self.order.crossbar_size()
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

    fn chunk(&self, key: u64) -> u32 {
        (key >> self.chunk_shift) as u32
    }

    /// The first key past `key`'s subgraph.
    fn chunk_end(&self, key: u64) -> u64 {
        ((key >> self.chunk_shift) + 1) << self.chunk_shift
    }

    fn tile(&self, key: u64) -> u32 {
        let mask = (1u64 << (self.chunk_shift - self.tile_shift)) - 1;
        ((key >> self.tile_shift) & mask) as u32
    }

    /// The first key past `key`'s tile.
    fn tile_end(&self, key: u64) -> u64 {
        ((key >> self.tile_shift) + 1) << self.tile_shift
    }

    /// `key`'s `(row, column)` within its tile.
    fn cell(&self, key: u64) -> (u8, u8) {
        let mask = (1u64 << self.cell_bits) - 1;
        ((key & mask) as u8, ((key >> self.cell_bits) & mask) as u8)
    }
}

/// Sorts a bucket of `(key, weight)` pairs by key, stably, so equal keys
/// — parallel edges — keep their order. Keys hold at most `bits` bits.
/// Least-significant-digit radix passes, one per byte, ping-pong through
/// `scratch` (at least as long as `keyed`); a byte every pair shares
/// costs no pass. Buckets no longer than one digit's histogram take a
/// comparison sort instead.
fn sort_bucket(keyed: &mut [(u64, f32)], scratch: &mut [(u64, f32)], bits: u32) {
    const RADIX: usize = 256;
    if keyed.len() <= RADIX {
        keyed.sort_by_key(|&(key, _)| key);
        return;
    }
    let digits = bits.div_ceil(8) as usize;
    let mut counts = [[0u32; RADIX]; 8];
    for &(key, _) in keyed.iter() {
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
        let c = tiled.order().crossbar_size();
        let mut out = Vec::new();
        for block in 0..tiled.num_blocks() {
            for strip in 0..tiled.order().strips_per_block() {
                let dst0 = tiled.strip_dst_start(block, strip);
                for ord in tiled.slot_subgraphs(block, strip) {
                    let sg = tiled.subgraph(ord);
                    let src0 = tiled.chunk_src_start(block, sg.chunk());
                    for (t, entries) in sg.tiles() {
                        for e in entries {
                            let src = src0 + e.row as usize;
                            let dst = dst0 + t * c + e.col as usize;
                            out.push((src as u32, dst as u32, e.weight));
                        }
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
            for (t, entries) in sg.tiles() {
                streamed.extend(entries.iter().map(|e| (t, e.row, e.col, e.weight)));
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
                    assert_ne!(sg.tiles().len(), 0);
                    assert!(sg.tiles().all(|(_, entries)| !entries.is_empty()));
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
            // subgraph's entries, tiles strictly ascending: the in-memory
            // layout is the byte order the disk model prices.
            for span in tiled.source_index().spans() {
                let sg = tiled.subgraph(span.ordinal as usize);
                prop_assert_eq!(sg.edges(), span.edges);
                let held: Vec<TileEntry> =
                    sg.tiles().flat_map(|(_, entries)| entries.iter().copied()).collect();
                let lo = span.edge_offset as usize;
                prop_assert_eq!(&tiled.entries[lo..lo + span.edges as usize], &held[..]);
                let tiles: Vec<usize> = sg.tiles().map(|(t, _)| t).collect();
                prop_assert!(tiles.windows(2).all(|w| w[0] < w[1]), "tiles {:?}", tiles);
            }
        }
    }
}
