//! The reference tiler: one comparison sort of `(global_id, edge index)`
//! keys, then one pass that unwinds each ID into its coordinates. It is
//! the direct reading of §3.4 — sort the edge list by equation (9) — and
//! the property test below demands that the bucketed tiler in the parent
//! module writes exactly its tables.

use graphr_graph::{Edge, EdgeList};
use graphr_units::{BitSlicer, FixedSpec};
use proptest::prelude::*;

use super::{SubgraphSpan, TileEntry, TiledGraph};
use crate::config::GraphRConfig;
use crate::preprocess::order::{PositionCoords, TileOrder};

/// Every table of the reference layout, spans stored.
struct Reference {
    entries: Vec<TileEntry>,
    tile_starts: Vec<u32>,
    tile_index: Vec<u32>,
    subgraph_starts: Vec<u32>,
    chunks: Vec<u32>,
    slot_starts: Vec<u32>,
    spans: Vec<SubgraphSpan>,
}

/// Coordinates of the position whose global order ID is `id`: equations
/// (9), (8) and (6) unwound.
fn coords_of(order: &TileOrder, id: u64) -> PositionCoords {
    let c = order.crossbar_size() as u64;
    let chunks = order.chunks_per_block() as u64;
    let per_subgraph = order.positions_per_subgraph();
    let (subgraph, within) = (id / per_subgraph, id % per_subgraph);
    let per_block = order.subgraphs_per_block() as u64;
    PositionCoords {
        block: subgraph / per_block,
        strip: subgraph % per_block / chunks,
        chunk: subgraph % per_block % chunks,
        sub_col: within / c,
        sub_row: within % c,
    }
}

fn reference(graph: &EdgeList, config: &GraphRConfig) -> Reference {
    let c = config.crossbar_size;
    let n = graph.num_vertices();
    let block_size = config.effective_block_vertices(n);
    let order = TileOrder::new(n.max(1), c, config.strip_width(), block_size).unwrap();
    let mut keys: Vec<(u64, u32, f32)> = graph
        .edges()
        .iter()
        .enumerate()
        .map(|(i, e)| {
            (
                order.global_id(e.src as usize, e.dst as usize),
                i as u32,
                e.weight,
            )
        })
        .collect();
    keys.sort_unstable_by_key(|&(id, i, _)| (id, i));

    let per_subgraph = order.positions_per_subgraph();
    let per_tile = (c * c) as u64;
    let strips_per_block = order.strips_per_block();
    let per_side = order.blocks_per_side();
    let num_slots = order.num_blocks() * strips_per_block;
    let mut r = Reference {
        entries: Vec::new(),
        tile_starts: Vec::new(),
        tile_index: Vec::new(),
        subgraph_starts: Vec::new(),
        chunks: Vec::new(),
        slot_starts: Vec::new(),
        spans: Vec::new(),
    };
    let (mut open_subgraph, mut open_tile) = (None, None);
    for &(id, _, weight) in &keys {
        let co = coords_of(&order, id);
        if open_subgraph != Some(id / per_subgraph) {
            open_subgraph = Some(id / per_subgraph);
            let slot = co.block as usize * strips_per_block + co.strip as usize;
            r.slot_starts.resize(slot + 1, r.chunks.len() as u32);
            let bi = co.block as usize % per_side;
            let src_start = bi * block_size + co.chunk as usize * c;
            r.spans.push(SubgraphSpan {
                block: co.block as u32,
                strip: co.strip as u32,
                ordinal: r.chunks.len() as u32,
                src_start: src_start as u32,
                src_len: c.min(n.saturating_sub(src_start)) as u32,
                edge_offset: r.entries.len() as u64,
                edges: 0,
            });
            r.subgraph_starts.push(r.tile_index.len() as u32);
            r.chunks.push(co.chunk as u32);
        }
        if open_tile != Some(id / per_tile) {
            open_tile = Some(id / per_tile);
            r.tile_starts.push(r.entries.len() as u32);
            r.tile_index.push((co.sub_col as usize / c) as u32);
        }
        r.spans.last_mut().unwrap().edges += 1;
        r.entries.push(TileEntry {
            row: co.sub_row as u8,
            col: (co.sub_col as usize % c) as u8,
            weight,
        });
    }
    r.slot_starts.resize(num_slots + 1, r.chunks.len() as u32);
    // Group by block row; the stable sort keeps streamed order within.
    r.spans.sort_by_key(|s| s.block as usize % per_side);
    r.subgraph_starts.push(r.tile_index.len() as u32);
    r.tile_starts.push(r.entries.len() as u32);
    r
}

/// A `C`-row crossbar geometry with `tiles · ges` tiles per strip and,
/// when `strips > 0`, `strips` strips per block.
fn geometry(c: usize, tiles: usize, ges: usize, strips: usize) -> GraphRConfig {
    let mut builder = GraphRConfig::builder()
        .crossbar_size(c)
        .crossbars_per_ge(tiles)
        .num_ges(ges)
        .spec(FixedSpec::new(5, 0).unwrap())
        .slicer(BitSlicer::new(4, 1).unwrap());
    if strips > 0 {
        builder = builder.block_vertices(c * tiles * ges * strips);
    }
    builder.build().unwrap()
}

proptest! {
    /// The bucketed tiler writes the reference layout table for table,
    /// weights bit for bit, over crossbar sizes 2, 3, 4 and 8, strips
    /// that do not divide the vertex count, multi-block grids with
    /// padding, empty graphs, self-loops and parallel edges whose
    /// distinct weights must keep their input order.
    #[test]
    fn bucketed_tiler_matches_sort_oracle(
        c_pick in 0usize..4,
        tiles in 1usize..4,
        ges in 1usize..3,
        strips in 0usize..4,
        n in 0usize..300,
        pairs in proptest::collection::vec((0u32..1 << 20, 0u32..1 << 20, 0usize..3), 0..500),
    ) {
        let c = [2, 3, 4, 8][c_pick];
        let config = geometry(c, tiles, ges, strips);
        let mut edges = Vec::new();
        for (k, &(s, d, copies)) in pairs.iter().enumerate() {
            if n == 0 {
                break;
            }
            let (src, dst) = (s % n as u32, d % n as u32);
            // Every third pair is a self-loop; each pair repeats up to
            // twice more with a different weight, the first copy at -0.0.
            let dst = if k % 3 == 0 { src } else { dst };
            edges.push(Edge::new(src, dst, k as f32 * 0.5 - 40.0));
            for copy in 0..copies {
                let weight = if copy == 0 { -0.0 } else { k as f32 + 0.25 };
                edges.push(Edge::new(src, dst, weight));
            }
        }
        let graph = EdgeList::from_edges(n, edges).unwrap();
        let tiled = TiledGraph::preprocess(&graph, &config).unwrap();
        let want = reference(&graph, &config);

        let bits = |entries: &[TileEntry]| -> Vec<(u8, u8, u32)> {
            entries.iter().map(|e| (e.row, e.col, e.weight.to_bits())).collect()
        };
        prop_assert_eq!(bits(&tiled.entries), bits(&want.entries));
        prop_assert_eq!(&tiled.tile_starts, &want.tile_starts);
        prop_assert_eq!(&tiled.tile_index, &want.tile_index);
        prop_assert_eq!(&tiled.subgraph_starts, &want.subgraph_starts);
        prop_assert_eq!(&tiled.chunks, &want.chunks);
        prop_assert_eq!(&tiled.slot_starts, &want.slot_starts);
        let spans: Vec<SubgraphSpan> = tiled.source_index().spans().collect();
        prop_assert_eq!(spans, want.spans);
    }
}
