//! What every workload hands the measuring loop.

use std::ops::AddAssign;
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphr_core::analyze::{BottleneckReport, Resource};
use graphr_core::exec::{PlanSkeleton, PlannerIndex};
use graphr_core::{GraphRConfig, Metrics, TiledGraph};
use graphr_graph::{EdgeList, BYTES_PER_EDGE};

/// One workload: seeded inputs, a cold set-up, and numbered rounds.
///
/// Round `i`'s inputs are a pure function of the seed and `i`, and state
/// carried between rounds is kept apart for traced and untraced rounds,
/// so the traced run of rounds `0..n` repeats the untraced run's
/// simulated facts exactly.
pub trait Workload {
    /// Runs round `index` and checks its outputs. With `traced`, every
    /// engine the round builds is wrapped in a
    /// [`TimedEngine`](crate::profile::TimedEngine).
    fn round(&mut self, index: usize, traced: bool) -> Round;

    /// Rounds every run executes at least.
    fn min_rounds(&self) -> usize;
}

/// The cold set-up of a workload: repeated, and reported by its median.
#[derive(Debug, Clone, Default)]
pub struct Setup {
    /// Whole set-up time of each repetition, seconds.
    pub total_s: Vec<f64>,
    /// Tiler, plan skeleton and planner index builds of each repetition.
    pub tile_s: Vec<f64>,
    /// See [`Setup::tile_s`].
    pub skeleton_s: Vec<f64>,
    /// See [`Setup::tile_s`].
    pub index_s: Vec<f64>,
}

/// One measured round.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Host time of the timed part (input generation and checks excluded).
    pub wall: Duration,
    /// Operations (queries) attempted.
    pub queries: u64,
    /// Operations whose outcome differed from the expected one.
    pub failed: u64,
    /// Digest of the round's simulated facts.
    pub digest: u64,
    /// Simulated counters the per-layer report needs.
    pub facts: Facts,
}

/// Simulated counters of a round, plus the program's own host
/// figures that the per-layer report reads (planning time, job walls).
#[derive(Debug, Clone, Copy, Default)]
pub struct Facts {
    /// Edges streamed from memory ReRAM.
    pub edges: u64,
    /// Planner delta patches.
    pub delta_patches: u64,
    /// Planner scratch rebuilds.
    pub rebuilds: u64,
    /// Plan units reused by `Arc` across iterations.
    pub units_reused: u64,
    /// Interconnect bytes.
    pub bytes_exchanged: u64,
    /// Disk bytes loaded.
    pub bytes_loaded: u64,
    /// Plan units served by the prefetch lane.
    pub prefetch_hits: u64,
    /// Prefetched bytes discarded unread.
    pub prefetch_wasted: u64,
    /// The program's own host planning time (`Metrics::plan.time`), ns.
    pub plan_reported_ns: u64,
    /// Chrome trace bytes exported.
    pub trace_bytes: u64,
    /// `JobReport::wall` summed over distinct session runs, ns.
    pub session_ns: u64,
    /// Session tiling-cache hits and misses.
    pub cache_hits: u64,
    /// See [`Facts::cache_hits`].
    pub cache_misses: u64,
    /// Fused waves (two or more lanes) executed.
    pub fused_waves: u64,
    /// Runs of a single query.
    pub solo_runs: u64,
    /// Lanes summed over every distinct run.
    pub lanes: u64,
    /// Queries re-run alone after their fused wave failed.
    pub retried: u64,
    /// Runs classified compute-, disk- and network-bound by
    /// `BottleneckReport::classify`.
    pub bounds: [u64; 3],
}

impl Facts {
    /// Adds one run's simulated accounting.
    pub fn add_metrics(&mut self, m: &Metrics) {
        self.edges += m.events.bytes_streamed / BYTES_PER_EDGE;
        self.delta_patches += m.plan.delta_patches;
        self.rebuilds += m.plan.full_rebuilds;
        self.units_reused += m.plan.units_reused;
        self.bytes_exchanged += m.net.bytes_exchanged;
        self.bytes_loaded += m.disk.bytes_loaded;
        self.prefetch_hits += m.disk.prefetch_hits;
        self.prefetch_wasted += m.disk.prefetch_wasted;
        self.plan_reported_ns += m.plan.time.as_nanos().max(0.0).round() as u64;
        self.bounds[match BottleneckReport::classify(m).bound {
            Resource::Compute => 0,
            Resource::Disk => 1,
            Resource::Network => 2,
        }] += 1;
    }
}

impl AddAssign for Facts {
    fn add_assign(&mut self, o: Facts) {
        self.edges += o.edges;
        self.delta_patches += o.delta_patches;
        self.rebuilds += o.rebuilds;
        self.units_reused += o.units_reused;
        self.bytes_exchanged += o.bytes_exchanged;
        self.bytes_loaded += o.bytes_loaded;
        self.prefetch_hits += o.prefetch_hits;
        self.prefetch_wasted += o.prefetch_wasted;
        self.plan_reported_ns += o.plan_reported_ns;
        self.trace_bytes += o.trace_bytes;
        self.session_ns += o.session_ns;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.fused_waves += o.fused_waves;
        self.solo_runs += o.solo_runs;
        self.lanes += o.lanes;
        self.retried += o.retried;
        for (a, b) in self.bounds.iter_mut().zip(o.bounds) {
            *a += b;
        }
    }
}

/// The geometry every workload simulates: 8×8 crossbars, 32 per GE,
/// 4 GEs — the repository's micro-benchmark geometry, large enough that
/// scans shard across strips.
pub fn config() -> GraphRConfig {
    GraphRConfig::builder()
        .crossbar_size(8)
        .crossbars_per_ge(32)
        .num_ges(4)
        .build()
        .expect("valid benchmark geometry")
}

/// The cold set-up: tiler, plan skeleton and planner index, each timed.
pub fn preprocess(
    graph: &EdgeList,
    config: &GraphRConfig,
    setup: &mut Setup,
) -> (TiledGraph, Arc<PlanSkeleton>, Arc<PlannerIndex>) {
    let start = Instant::now();
    let tiled = TiledGraph::preprocess(graph, config).expect("benchmark geometry tiles");
    let tiled_at = start.elapsed();
    let skeleton = Arc::new(PlanSkeleton::build(&tiled));
    let skeleton_at = start.elapsed();
    let index = Arc::new(PlannerIndex::build(&tiled));
    let done = start.elapsed();
    setup.tile_s.push(tiled_at.as_secs_f64());
    setup
        .skeleton_s
        .push((skeleton_at - tiled_at).as_secs_f64());
    setup.index_s.push((done - skeleton_at).as_secs_f64());
    setup.total_s.push(done.as_secs_f64());
    (tiled, skeleton, index)
}

/// Runs the cold set-up `reps` times and keeps the last build. Each
/// repetition frees the previous build first, so peak memory holds one.
pub fn preprocess_repeated(
    graph: &EdgeList,
    config: &GraphRConfig,
    reps: usize,
) -> ((TiledGraph, Arc<PlanSkeleton>, Arc<PlannerIndex>), Setup) {
    let mut setup = Setup::default();
    let mut built = None;
    for _ in 0..reps.max(1) {
        drop(built.take());
        built = Some(preprocess(graph, config, &mut setup));
    }
    (built.expect("at least one set-up"), setup)
}

/// SplitMix64: the benchmark's input generator, independent of the
/// program's own RNG so inputs never shift with the program.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated per purpose by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    crate::check::percentile(samples, 50.0)
}
