//! Graph engine components (paper Figure 8).
//!
//! A GE is a mesh of ReRAM crossbars (with their drivers and sample-and-hold
//! stages) feeding a shared ADC, a shift-and-add unit, a simple ALU (sALU),
//! and the RegI/RegO register files. The crossbar datapath lives in
//! `graphr-reram`; this module adds the pieces around it:
//!
//! * [`tile::TileCompute`] — the functional model of one logical tile in
//!   either fidelity (full analog emulation or fast fixed-point),
//! * [`salu::SAlu`] — the configurable reduction unit (`add` for PageRank,
//!   `min` for BFS/SSSP; Figure 15).

pub mod salu;
pub mod tile;

pub use salu::{ReduceOp, SAlu};
pub use tile::{MergeRule, TileCompute};
