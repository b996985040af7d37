//! # GraphR reproduction
//!
//! A full-system reproduction of *GraphR: Accelerating Graph Processing
//! Using ReRAM* (Song, Zhuo, Qian, Li, Chen — HPCA 2018): the first
//! ReRAM-based graph-processing accelerator, reproduced as a simulator
//! stack in Rust.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`units`] | fixed-point numerics, time/energy types, statistics |
//! | [`graph`] | graph substrate: COO/CSR, generators, datasets, gold algorithms |
//! | [`reram`] | ReRAM cells, crossbars, bit-sliced arrays, periphery, cost scalars |
//! | [`core`] | the GraphR node: preprocessing, graph engines, streaming-apply, algorithm mappings |
//! | [`gridgraph`] | the CPU software substrate (dual sliding windows, X-Stream) |
//! | [`platforms`] | analytical CPU/GPU/PIM cost models |
//! | [`runtime`] | job runtime: cached sessions, batched jobs, fused serve waves, `graphr-run` (the scans themselves live in [`core`]) |
//!
//! # Quickstart
//!
//! ```
//! use graphr_repro::core::sim::{run_pagerank, PageRankOptions};
//! use graphr_repro::core::GraphRConfig;
//! use graphr_repro::graph::generators::rmat::Rmat;
//!
//! let graph = Rmat::new(512, 2048).seed(42).generate();
//! let config = GraphRConfig::default(); // the paper's §5.2 node
//! let run = run_pagerank(&graph, &config, &PageRankOptions::default())?;
//! println!(
//!     "PageRank in {} using {}",
//!     run.metrics.total_time(),
//!     run.metrics.total_energy(),
//! );
//! # Ok::<(), graphr_repro::core::sim::SimError>(())
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios, `README.md` for the
//! build and the experiments, and `ARCHITECTURE.md` for the pipeline, the
//! paper-to-code map and the determinism contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use graphr_core as core;
pub use graphr_graph as graph;
pub use graphr_gridgraph as gridgraph;
pub use graphr_platforms as platforms;
pub use graphr_reram as reram;
pub use graphr_runtime as runtime;
pub use graphr_units as units;

/// The most commonly used items in one import.
pub mod prelude {
    pub use graphr_core::sim::{
        run_bfs, run_cf, run_pagerank, run_spmv, run_sssp, CfOptions, PageRankOptions, SpmvOptions,
        TraversalOptions,
    };
    pub use graphr_core::{GraphRConfig, Metrics, TiledGraph};
    pub use graphr_graph::{DatasetSpec, Edge, EdgeList, GraphHandle};
    pub use graphr_runtime::{Job, JobSpec, Session};
    pub use graphr_units::{Joules, Nanos};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        let config = crate::core::GraphRConfig::default();
        assert_eq!(config.crossbar_size, 8);
        let specs = crate::graph::DatasetSpec::catalog();
        assert_eq!(specs.len(), 7);
    }
}
