//! Benchmark-side host-clock profiler: self time per layer, measured from
//! outside the program by timing calls into its public functions.
//!
//! [`span`] times one call and charges it to a [`Layer`]; spans nest, and
//! a layer's *self* time is its spans' durations minus the part covered by
//! the spans opened inside them. [`TimedEngine`] wraps any
//! [`ScanEngine`] so every trait call becomes such a span. Everything runs
//! on the benchmark's main thread (engine worker pools are internal to the
//! engines and never call back into a decorator), so the profile lives in
//! a thread-local.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use graphr_core::exec::{
    EdgeValueFn, FrontierDelta, FrontierMask, LaneFrontier, ScanEngine, ScanPlan,
};
use graphr_core::outofcore::DiskModel;
use graphr_core::trace::TraceHandle;
use graphr_core::Metrics;

/// The simulator layers self time is attributed to, named after the
/// program's modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The `core::sim` drivers' own loops.
    Sim,
    /// `core::exec::planner`, reached through `ScanEngine::plan*`.
    Planner,
    /// The scan kernels and the worker pool, reached through `scan_*`.
    Scan,
    /// `ClusterExecutor` sharding, stitching and exchange pricing.
    Multinode,
    /// Disk windows and the prefetch driver, reached through
    /// `end_iteration` and `take_metrics` of the scanning engines.
    Outofcore,
    /// Program telemetry: sink set-up and Chrome trace export.
    Trace,
    /// Stats collection and Prometheus rendering.
    Stats,
    /// `Session` job execution (`JobReport::wall` of distinct runs).
    Session,
    /// The serve scheduler: enqueue and drain minus session time.
    Serve,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 9] = [
        Layer::Sim,
        Layer::Planner,
        Layer::Scan,
        Layer::Multinode,
        Layer::Outofcore,
        Layer::Trace,
        Layer::Stats,
        Layer::Session,
        Layer::Serve,
    ];
}

/// Work counts recorded at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `plan` / `plan_with_delta` calls.
    pub planner_calls: u64,
    /// Scans executed by engines that scan themselves (cluster nodes or a
    /// single-node engine).
    pub scan_calls: u64,
    /// Edges those scans' plans stream.
    pub scan_edges: u64,
    /// Subgraphs those scans' plans pruned.
    pub scan_subgraphs_pruned: u64,
}

/// Accumulated self time (ns) per layer plus the work counts.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    self_ns: [u64; Layer::ALL.len()],
    /// Work counts.
    pub counts: Counts,
    /// Child time of every open span, innermost last.
    open: Vec<u64>,
}

impl Profile {
    /// Self time charged to `layer`, in seconds.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 * 1e-9
    }

    /// Adds another profile's self times and counts.
    pub fn merge(&mut self, other: &Profile) {
        for (a, b) in self.self_ns.iter_mut().zip(&other.self_ns) {
            *a += b;
        }
        let (c, o) = (&mut self.counts, &other.counts);
        c.planner_calls += o.planner_calls;
        c.scan_calls += o.scan_calls;
        c.scan_edges += o.scan_edges;
        c.scan_subgraphs_pruned += o.scan_subgraphs_pruned;
    }

    /// Total self time over every layer, in seconds.
    pub fn total_s(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 * 1e-9
    }
}

thread_local! {
    static PROFILE: RefCell<Profile> = RefCell::new(Profile::default());
}

/// Runs `f` as a span of `layer`.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    PROFILE.with(|p| p.borrow_mut().open.push(0));
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed().as_nanos() as u64;
    PROFILE.with(|p| {
        let mut p = p.borrow_mut();
        let children = p.open.pop().expect("span stack balanced");
        p.self_ns[layer as usize] += elapsed.saturating_sub(children);
        if let Some(parent) = p.open.last_mut() {
            *parent += elapsed;
        }
    });
    out
}

/// Moves `ns` of self time from `from` to `to` — for a child whose
/// duration the program reports itself (a `JobReport::wall` inside a
/// drain) rather than one the benchmark can wrap.
pub fn reattribute(from: Layer, to: Layer, ns: u64) {
    PROFILE.with(|p| {
        let mut p = p.borrow_mut();
        let moved = ns.min(p.self_ns[from as usize]);
        p.self_ns[from as usize] -= moved;
        p.self_ns[to as usize] += moved;
    });
}

fn count(f: impl FnOnce(&mut Counts)) {
    PROFILE.with(|p| f(&mut p.borrow_mut().counts));
}

/// Takes the accumulated profile, leaving an empty one behind.
pub fn take() -> Profile {
    PROFILE.with(|p| {
        let p = std::mem::take(&mut *p.borrow_mut());
        assert!(p.open.is_empty(), "profile taken inside an open span");
        p
    })
}

/// Where a [`TimedEngine`] sits in the engine stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A `ClusterExecutor`: its scans and windows fan out to node engines,
    /// whose own spans are subtracted, leaving the multinode self time.
    Cluster,
    /// An engine that scans itself: a cluster node or a single-node run.
    Node,
}

/// A [`ScanEngine`] decorator that times every trait call into the
/// wrapped engine. It forwards every method the wrapped engine might
/// override — including the defaulted `plan_with_delta`,
/// `scan_add_op_lanes_planned`, `set_trace` and `trace` — so the program
/// takes exactly the paths it takes undecorated. Only `scan_mac` and
/// `scan_add_op` keep their defaults: no engine overrides them, and the
/// defaults route through the timed `plan` and `scan_*_planned` here.
pub struct TimedEngine<'a> {
    inner: Box<dyn ScanEngine + 'a>,
    role: Role,
}

impl<'a> TimedEngine<'a> {
    /// Wraps `inner` in the given role.
    pub fn new(inner: Box<dyn ScanEngine + 'a>, role: Role) -> Self {
        TimedEngine { inner, role }
    }

    fn scan_layer(&self) -> Layer {
        match self.role {
            Role::Cluster => Layer::Multinode,
            Role::Node => Layer::Scan,
        }
    }

    fn window_layer(&self) -> Layer {
        match self.role {
            Role::Cluster => Layer::Multinode,
            Role::Node => Layer::Outofcore,
        }
    }

    fn count_scan(&self, plan: &ScanPlan) {
        if self.role == Role::Node {
            let stats = plan.stats();
            count(|c| {
                c.scan_calls += 1;
                c.scan_edges += stats.edges_planned;
                c.scan_subgraphs_pruned += stats.subgraphs_pruned;
            });
        }
    }
}

impl ScanEngine for TimedEngine<'_> {
    fn plan(&mut self, active: Option<&FrontierMask>) -> Arc<ScanPlan> {
        count(|c| c.planner_calls += 1);
        span(Layer::Planner, || self.inner.plan(active))
    }

    fn plan_with_delta(&mut self, active: &FrontierMask, delta: &FrontierDelta) -> Arc<ScanPlan> {
        count(|c| c.planner_calls += 1);
        span(Layer::Planner, || self.inner.plan_with_delta(active, delta))
    }

    fn scan_mac_planned(
        &mut self,
        plan: &ScanPlan,
        value: &EdgeValueFn<'_>,
        inputs: &[&[f64]],
    ) -> Vec<Vec<f64>> {
        self.count_scan(plan);
        let layer = self.scan_layer();
        span(layer, || self.inner.scan_mac_planned(plan, value, inputs))
    }

    fn scan_add_op_planned(
        &mut self,
        plan: &ScanPlan,
        value: &EdgeValueFn<'_>,
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
        addend: &[f64],
        active: &FrontierMask,
        frontier: &mut [f64],
        updated: &mut FrontierMask,
    ) -> u64 {
        self.count_scan(plan);
        let layer = self.scan_layer();
        span(layer, || {
            self.inner
                .scan_add_op_planned(plan, value, combine, addend, active, frontier, updated)
        })
    }

    fn scan_add_op_lanes_planned(
        &mut self,
        plan: &ScanPlan,
        value: &EdgeValueFn<'_>,
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
        addends: &[Vec<f64>],
        active: &LaneFrontier,
        frontiers: &mut [Vec<f64>],
        updated: &mut LaneFrontier,
    ) -> u64 {
        self.count_scan(plan);
        let layer = self.scan_layer();
        span(layer, || {
            self.inner.scan_add_op_lanes_planned(
                plan, value, combine, addends, active, frontiers, updated,
            )
        })
    }

    fn set_disk(&mut self, disk: Option<DiskModel>) {
        let layer = self.window_layer();
        span(layer, || self.inner.set_disk(disk));
    }

    fn set_trace(&mut self, trace: Option<TraceHandle>) {
        span(Layer::Trace, || self.inner.set_trace(trace));
    }

    fn trace(&self) -> Option<&TraceHandle> {
        self.inner.trace()
    }

    fn end_iteration(&mut self) {
        let layer = self.window_layer();
        span(layer, || self.inner.end_iteration());
    }

    fn metrics(&self) -> &Metrics {
        self.inner.metrics()
    }

    fn take_metrics(&mut self) -> Metrics {
        let layer = self.window_layer();
        span(layer, || self.inner.take_metrics())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphr_core::exec::{Planner, StreamingExecutor};
    use graphr_core::multinode::{ClusterExecutor, MultiNodeConfig};
    use graphr_core::sim::{
        run_bfs_lanes_with, run_bfs_with, LaneTraversalOptions, TraversalOptions,
    };
    use graphr_core::{GraphRConfig, TiledGraph};
    use graphr_graph::generators::structured::grid;

    /// A 3-node cluster of serial engines, optionally decorated at both
    /// levels the benchmark decorates.
    fn cluster<'a>(
        tiled: &'a TiledGraph,
        config: &'a GraphRConfig,
        timed: bool,
    ) -> Box<dyn ScanEngine + 'a> {
        let spec = TraversalOptions::default().spec;
        let skeleton = Arc::new(graphr_core::exec::PlanSkeleton::build(tiled));
        let planner = Planner::new(tiled, Arc::clone(&skeleton));
        let index = Arc::clone(planner.index());
        let c = ClusterExecutor::with_engines(
            tiled,
            config,
            MultiNodeConfig::pcie_cluster(3),
            planner,
            |_| {
                let planner = Planner::with_index(Arc::clone(&skeleton), Arc::clone(&index));
                let node: Box<dyn ScanEngine + 'a> = Box::new(StreamingExecutor::with_planner(
                    tiled, config, spec, planner,
                ));
                if timed {
                    Box::new(TimedEngine::new(node, Role::Node))
                } else {
                    node
                }
            },
        );
        let mut engine: Box<dyn ScanEngine + 'a> = if timed {
            Box::new(TimedEngine::new(Box::new(c), Role::Cluster))
        } else {
            Box::new(c)
        };
        engine.set_disk(Some(DiskModel::nvme().with_prefetch()));
        engine
    }

    #[test]
    fn decorated_engines_take_the_undecorated_paths() {
        let g = grid(24, 24);
        let config = GraphRConfig::builder()
            .crossbar_size(4)
            .crossbars_per_ge(8)
            .num_ges(2)
            .build()
            .unwrap();
        let tiled = TiledGraph::preprocess(&g, &config).unwrap();
        let opts = TraversalOptions {
            source: 3,
            ..TraversalOptions::default()
        };
        let lanes = LaneTraversalOptions::new(vec![0, 3, 50, 300]);
        let runs: Vec<_> = [false, true]
            .into_iter()
            .map(|timed| {
                let bfs =
                    run_bfs_with(&g, cluster(&tiled, &config, timed).as_mut(), &opts).unwrap();
                let fused =
                    run_bfs_lanes_with(&g, cluster(&tiled, &config, timed).as_mut(), &lanes)
                        .unwrap();
                let mut d = crate::check::Digest::default();
                d.debug(&bfs.distances);
                d.metrics(&bfs.metrics);
                d.debug(&fused.distances);
                d.metrics(&fused.metrics);
                d.value()
            })
            .collect();
        // Plan counters (delta vs. mask-rescan planning) and the fused
        // lane accounting (one shared scan vs. K passes) both enter the
        // digest, so a method left to its default changes it.
        assert_eq!(runs[0], runs[1]);
        let p = take();
        assert!(p.counts.planner_calls > 0 && p.counts.scan_calls > 0);
    }

    #[test]
    fn self_time_excludes_children_and_sums_to_the_outer_span() {
        take();
        let outer = Instant::now();
        span(Layer::Sim, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            span(Layer::Scan, || {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
        });
        let wall = outer.elapsed().as_secs_f64();
        let p = take();
        assert!(p.self_s(Layer::Scan) >= 0.003);
        assert!(p.self_s(Layer::Sim) >= 0.002);
        assert!(p.total_s() >= 0.005 && p.total_s() <= wall);
    }
}
