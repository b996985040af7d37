//! Graph preprocessing (paper §3.4).
//!
//! GraphR requires the edge list on disk to be ordered so that every block,
//! strip and subgraph load is strictly sequential. [`order`] implements the
//! paper's global-order-ID arithmetic (equations (1)–(9)); [`tiler`] applies
//! it to an edge list, producing one streamed-order edge array cut by
//! offset tables into crossbar tiles, subgraphs and `(block, strip)` slots —
//! the layout the streaming-apply executor consumes.

pub mod order;
pub mod tiler;

pub use order::TileOrder;
pub use tiler::{SourceRangeIndex, SubgraphSpan, SubgraphView, TileEntry, TiledGraph};
