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
//! its place on disk: adjacent ordinals are adjacent bytes, and the
//! subgraph at `position` within a slot is ordinal
//! `slot start + position`.

use std::ops::Range;

use graphr_graph::EdgeList;
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
    /// Position among the `(block, strip)` slot's nonempty subgraphs: the
    /// subgraph's streamed ordinal is
    /// [`TiledGraph::slot_subgraphs`]`(block, strip).start + position`.
    pub position: u32,
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

/// Source-side index of which source ranges hold edges — built once at
/// tiling time, in the same pass that lays out the edges.
///
/// Every nonempty subgraph appears once as a [`SubgraphSpan`] carrying its
/// source-vertex range and its edge offset into the ordered edge list,
/// grouped by block row (ascending) and in streamed order within a row.
/// This is what lets a scan plan restrict the walk to block rows that
/// contain at least one active source *before* streaming anything: the
/// controller seeks straight to the planned spans' offsets instead of
/// scanning edges past the GEs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceRangeIndex {
    spans: Vec<SubgraphSpan>,
}

impl SourceRangeIndex {
    /// Every span: block rows ascending, streamed order within a row.
    #[must_use]
    pub fn spans(&self) -> &[SubgraphSpan] {
        &self.spans
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
    /// Source-side index over the subgraphs, built in the same pass.
    source_index: SourceRangeIndex,
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
    /// inconsistent (see [`TileOrder::new`]), or if the graph has more
    /// edges than the `u32` offset tables address.
    pub fn preprocess(graph: &EdgeList, config: &GraphRConfig) -> Result<Self, ConfigError> {
        let c = config.crossbar_size;
        let n = graph.num_vertices();
        let block_size = config.effective_block_vertices(n);
        let order = TileOrder::new(n.max(1), c, config.strip_width(), block_size)?;

        let edges = graph.edges();
        u32::try_from(edges.len()).map_err(|_| ConfigError::new("more than u32::MAX edges"))?;

        // Sort (global order ID, edge index) keys — the §3.4
        // preprocessing, each ID computed once; the index keeps parallel
        // edges in input order, and the weight rides along so the pass
        // below never revisits the edge list.
        let mut keys: Vec<(u64, u32, f32)> = edges
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let id = order.global_id(e.src as usize, e.dst as usize);
                (id, i as u32, e.weight)
            })
            .collect();
        keys.sort_unstable_by_key(|&(id, i, _)| (id, i));

        // One linear pass. A subgraph covers `C × strip_width` consecutive
        // IDs and a tile `C × C` of them (column-major within the
        // subgraph), so ID quotients mark where each one opens; sorted IDs
        // therefore also visit a subgraph's tiles in ascending index.
        let per_subgraph = order.positions_per_subgraph();
        let per_tile = (c * c) as u64;
        let strips_per_block = order.strips_per_block();
        let per_side = order.blocks_per_side();
        let mut entries = Vec::with_capacity(edges.len());
        let mut tile_starts = Vec::new();
        let mut tile_index = Vec::new();
        let mut subgraph_starts = Vec::new();
        let mut chunks: Vec<u32> = Vec::new();
        let num_slots = order.num_blocks() * strips_per_block;
        let mut slot_starts = Vec::with_capacity(num_slots + 1);
        let mut spans = Vec::new();
        let (mut open_subgraph, mut open_tile) = (None, None);
        for &(id, _, weight) in &keys {
            let co = order.coords_of(id);
            if open_subgraph != Some(id / per_subgraph) {
                open_subgraph = Some(id / per_subgraph);
                let slot = co.block as usize * strips_per_block + co.strip as usize;
                slot_starts.resize(slot + 1, chunks.len() as u32);
                let bi = co.block as usize % per_side;
                let src_start = bi * block_size + co.chunk as usize * c;
                spans.push(SubgraphSpan {
                    block: co.block as u32,
                    strip: co.strip as u32,
                    position: chunks.len() as u32 - slot_starts[slot],
                    src_start: src_start as u32,
                    src_len: c.min(n.saturating_sub(src_start)) as u32,
                    edge_offset: entries.len() as u64,
                    edges: 0,
                });
                subgraph_starts.push(tile_index.len() as u32);
                chunks.push(co.chunk as u32);
            }
            if open_tile != Some(id / per_tile) {
                open_tile = Some(id / per_tile);
                tile_starts.push(entries.len() as u32);
                tile_index.push((co.sub_col as usize / c) as u32);
            }
            spans.last_mut().expect("span just opened").edges += 1;
            entries.push(TileEntry {
                row: co.sub_row as u8,
                col: (co.sub_col as usize % c) as u8,
                weight,
            });
        }
        slot_starts.resize(num_slots + 1, chunks.len() as u32);
        // Group by block row; the stable sort keeps streamed order within.
        spans.sort_by_key(|s| s.block as usize % per_side);
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
            source_index: SourceRangeIndex { spans },
        })
    }

    /// The ordering geometry in use.
    #[must_use]
    pub fn order(&self) -> &TileOrder {
        &self.order
    }

    /// The per-block-row source-range index (built at tiling time).
    #[must_use]
    pub fn source_index(&self) -> &SourceRangeIndex {
        &self.source_index
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
        ) {
            let g = Rmat::new(n, m).seed(seed).generate();
            let tiled = TiledGraph::preprocess(&g, &small_config()).unwrap();
            prop_assert_eq!(reconstruct(&tiled).len(), m);
            let by_counter: u32 = (0..tiled.nonempty_subgraphs())
                .map(|ord| tiled.subgraph(ord).edges())
                .sum();
            prop_assert_eq!(by_counter as usize, m);
            // Every span's byte range of the streamed order is exactly its
            // subgraph's entries, tiles strictly ascending: the in-memory
            // layout is the byte order the disk model prices.
            for span in tiled.source_index().spans() {
                let slot = tiled.slot_subgraphs(span.block as usize, span.strip as usize);
                let sg = tiled.subgraph(slot.start + span.position as usize);
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
