//! Graph preprocessing (paper §3.4).
//!
//! GraphR requires the edge list on disk to be ordered so that every block,
//! strip and subgraph load is strictly sequential. [`order`] implements the
//! paper's global-order-ID arithmetic (equations (1)–(9)); [`tiler`] applies
//! it to an edge list, storing each edge once in streamed order, in cell
//! form, with tables that cut it into subgraphs and `(block, strip)` slots —
//! the layout the streaming-apply executor consumes.

pub mod order;
pub mod tiler;

pub use order::TileOrder;
pub use tiler::{Cell, SourceRangeIndex, SubgraphSpan, SubgraphView, TiledGraph};
