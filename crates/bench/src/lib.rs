//! Experiment harness: regenerates every table and figure of the GraphR
//! evaluation (§5), plus design-choice ablations (README.md, "Experiments").
//!
//! Each `cargo bench` target under `benches/` is a thin wrapper over this
//! library:
//!
//! | target | paper artefact |
//! |---|---|
//! | `table1_comparison` | Table 1 (+ Tables 4/5 machine specs) |
//! | `table2_applications` | Table 2 |
//! | `table3_datasets` | Table 3 |
//! | `fig17_speedup_cpu` | Figure 17 |
//! | `fig18_energy_cpu` | Figure 18 |
//! | `fig19_gpu` | Figure 19 |
//! | `fig20_pim` | Figure 20 |
//! | `fig21_sparsity` | Figure 21 |
//! | `ablation_*` | design-choice studies ([`ablations`]) |
//! | `micro_*` | criterion microbenchmarks of the simulator itself |
//! | `perf_report` | `BENCH_micro.json` — the [`perf`] scenarios' tracked baseline |
//!
//! Scaling: datasets are generated at `GRAPHR_SCALE` (default 1/32) of
//! their Table 3 size, uniformly, which preserves mean degree and the
//! cross-dataset density ordering. Fixed software overheads in the platform
//! models scale by the same factor so overhead-to-work ratios — which
//! create the paper's extreme cases — survive scaling. Set
//! `GRAPHR_SCALE=1` to run the full-size datasets (needs tens of GB and
//! hours).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod apps;
pub mod context;
pub mod figures;
pub mod perf;
pub mod report;

pub use apps::{App, AppRun, PlatformNumbers};
pub use context::ExperimentContext;
