//! The historical name of the multi-threaded scan executor.
//!
//! There is one single-node engine, [`StreamingExecutor`]: it runs every
//! scan through one per-unit path and a plan-order merge, and its worker
//! count ([`StreamingExecutor::with_threads`]) only schedules that path.
//! [`ParallelExecutor`] survives solely so existing callers of
//! `ParallelExecutor::with_planner` keep compiling; it builds that engine
//! with the given worker count.

use graphr_core::exec::planner::Planner;
use graphr_core::exec::StreamingExecutor;
use graphr_core::{GraphRConfig, TiledGraph};
use graphr_units::FixedSpec;

/// A stateless constructor kept for source compatibility: it exists only
/// so `ParallelExecutor::with_planner(..)` keeps building a
/// [`StreamingExecutor`] with a worker count. New code should call
/// `StreamingExecutor::with_planner(..).with_threads(n)` directly.
#[derive(Debug, Clone, Copy)]
pub struct ParallelExecutor;

impl ParallelExecutor {
    /// `StreamingExecutor::with_planner(tiled, config, spec, planner)`
    /// running scans on `threads` workers.
    #[must_use]
    pub fn with_planner<'a>(
        tiled: &'a TiledGraph,
        config: &'a GraphRConfig,
        spec: FixedSpec,
        planner: Planner,
        threads: usize,
    ) -> StreamingExecutor<'a> {
        StreamingExecutor::with_planner(tiled, config, spec, planner).with_threads(threads)
    }
}
