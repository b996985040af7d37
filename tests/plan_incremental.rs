//! Property tests of the incremental planner subsystem: for random
//! frontier sequences, a delta-patched plan must be **bit-identical** —
//! units, `PlanStats`, and the full downstream `Metrics` of executing it
//! — to a plan rebuilt from scratch for the same mask, on the serial,
//! parallel, and cluster engines alike. The planner may only differ in
//! *cost*, reported through `Metrics::plan`.
//!
//! `PROPTEST_CASES` sets the cases per property (default 32).

use std::sync::Arc;

use graphr_repro::core::exec::mask::{FrontierDelta, FrontierMask};
use graphr_repro::core::exec::planner::Planner;
use graphr_repro::core::exec::{
    EdgeValueFn, PlanSkeleton, PlanUnit, ScanEngine, ScanPlan, StreamingExecutor,
};
use graphr_repro::core::metrics::PlanCounters;
use graphr_repro::core::multinode::{ClusterExecutor, MultiNodeConfig, OwnerPolicy};
use graphr_repro::core::{GraphRConfig, Metrics, TiledGraph};
use graphr_repro::graph::generators::rmat::Rmat;
use graphr_repro::graph::generators::structured::grid;
use graphr_repro::units::FixedSpec;
use proptest::prelude::*;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

fn test_config() -> GraphRConfig {
    geometry(4, 8, 2, None)
}

fn geometry(crossbar: usize, per_ge: usize, ges: usize, block: Option<usize>) -> GraphRConfig {
    let mut builder = GraphRConfig::builder()
        .crossbar_size(crossbar)
        .crossbars_per_ge(per_ge)
        .num_ges(ges);
    if let Some(b) = block {
        builder = builder.block_vertices(b);
    }
    builder.build().expect("valid test geometry")
}

/// The geometries the properties run over. C = 4 with one block per side
/// gives every unit one block row, and no chunk crosses a mask word.
/// C = 6 does not divide 64, so some chunks straddle two words; C = 96 is
/// wider than a word, so every chunk does. 32-vertex blocks of two
/// 16-wide strips give each unit several block rows, some of them empty.
fn geometries() -> [GraphRConfig; 4] {
    [
        test_config(),
        geometry(6, 8, 2, None),
        geometry(96, 4, 1, None),
        geometry(4, 8, 2, Some(32)),
    ]
}

/// A deterministic pseudo-random mask sequence that evolves by flipping a
/// bounded number of vertices per step — the overlap profile delta
/// patching exists for, with occasional dense flips mixed in.
fn mask_sequence(n: usize, seed: u64, steps: usize) -> Vec<Vec<bool>> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let mut mask = vec![false; n];
    for bit in &mut mask {
        *bit = next() % 4 == 0;
    }
    let mut out = Vec::with_capacity(steps);
    out.push(mask.clone());
    for step in 1..steps {
        if step % 5 == 4 {
            // A dense jump: most chunks flip, exercising the rebuild
            // fallback mid-sequence.
            for bit in &mut mask {
                *bit = next() % 3 == 0;
            }
        } else {
            let flips = (next() as usize % (n / 4 + 1)).max(1);
            for _ in 0..flips {
                let v = next() as usize % n;
                mask[v] = !mask[v];
            }
        }
        out.push(mask.clone());
    }
    out
}

/// Oracle for a unit's carried counts: its planned subgraph visits and
/// their edges, recounted from the tiled graph by ordinal.
fn count_planned(tiled: &TiledGraph, punit: &PlanUnit) -> (u64, u64) {
    punit.ordinals(tiled).fold((0, 0), |(count, edges), ord| {
        (
            count + 1,
            edges + u64::from(tiled.subgraph(ord as usize).edges()),
        )
    })
}

/// Every unit of `plan` carries the counts its rows recount to.
fn units_carry_their_counts(tiled: &TiledGraph, plan: &ScanPlan) -> bool {
    plan.units()
        .iter()
        .all(|punit| (punit.subgraphs, punit.edges) == count_planned(tiled, punit))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The core contract: over a random frontier sequence, every plan the
    /// stateful planner emits equals the scratch rebuild — units (content
    /// *and* merge order) and `PlanStats` both, via `ScanPlan`'s
    /// `PartialEq` — whether the planner re-scans the mask itself or is
    /// handed the driver-recorded word delta.
    #[test]
    fn delta_patched_plans_equal_scratch_rebuilt_plans(
        n in 8usize..140,
        m in 0usize..600,
        seed in 0u64..24,
        steps in 2usize..10,
    ) {
        let g = Rmat::new(n, m).seed(seed).max_weight(9).generate();
        for config in geometries() {
            let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");
            let skeleton = Arc::new(PlanSkeleton::build(&tiled));
            let mut by_scan = Planner::new(&tiled, Arc::clone(&skeleton));
            let mut by_delta = Planner::new(&tiled, Arc::clone(&skeleton));
            let mut counters = PlanCounters::default();
            let mut delta_counters = PlanCounters::default();
            prop_assert!(units_carry_their_counts(&tiled, &skeleton.full_plan()));
            let mut prev: Option<FrontierMask> = None;
            for (step, dense) in mask_sequence(n, seed, steps).iter().enumerate() {
                let mask = FrontierMask::from_slice(dense);
                let plan = by_scan.plan_for(&config, Some(&mask), &mut counters);
                let scratch = skeleton.pruned_plan(&tiled, &mask);
                prop_assert_eq!(&*plan, &scratch, "C = {} step {} diverged", config.crossbar_size, step);
                // The driver-delta path: a second planner fed exactly the
                // word flips between consecutive masks must stay identical.
                let delta_plan = match &prev {
                    Some(p) => {
                        let delta = FrontierDelta::between(p, &mask);
                        by_delta.plan_for_delta(&config, &mask, &delta, &mut delta_counters)
                    }
                    None => by_delta.plan_for(&config, Some(&mask), &mut delta_counters),
                };
                prop_assert_eq!(&*delta_plan, &scratch, "C = {} delta step {} diverged", config.crossbar_size, step);
                for emitted in [&*plan, &*delta_plan, &scratch] {
                    prop_assert!(
                        units_carry_their_counts(&tiled, emitted),
                        "step {}: a unit's carried counts disagree with its rows",
                        step
                    );
                }
                prev = Some(mask);
            }
            prop_assert_eq!(
                counters.full_rebuilds + counters.delta_patches,
                steps as u64,
                "every masked request must be accounted as rebuild or patch"
            );
            prop_assert_eq!(
                delta_counters.full_rebuilds + delta_counters.delta_patches,
                steps as u64
            );
        }
    }

    /// End-to-end determinism: a full SSSP run whose iterations plan
    /// through the engine (delta patching under the hood) produces
    /// bit-identical distances, per-round activations and Metrics to the
    /// same loop fed scratch-rebuilt plans — on serial, parallel, and
    /// cluster engines.
    #[test]
    fn engine_runs_match_scratch_planned_runs(
        n in 8usize..100,
        m in 0usize..450,
        seed in 0u64..16,
        nodes in 2usize..5,
    ) {
        let g = Rmat::new(n, m).seed(seed).max_weight(9).generate();
        for config in geometries() {
            let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");
            let skeleton = Arc::new(PlanSkeleton::build(&tiled));
            let spec = FixedSpec::new(16, 0).expect("Q16.0 is valid");

            let scratch = scratch_planned_sssp(&tiled, &config, &skeleton, spec);
            let mut serial = StreamingExecutor::new(&tiled, &config, spec);
            let mut parallel = StreamingExecutor::new(&tiled, &config, spec).with_threads(4);
            let mut cluster = ClusterExecutor::new(
                &tiled,
                &config,
                spec,
                MultiNodeConfig::pcie_cluster(nodes).with_owner(OwnerPolicy::DegreeWeighted),
            );
            let mut serial_d = StreamingExecutor::new(&tiled, &config, spec);
            let mut parallel_d = StreamingExecutor::new(&tiled, &config, spec).with_threads(4);
            let mut cluster_d = ClusterExecutor::new(
                &tiled,
                &config,
                spec,
                MultiNodeConfig::pcie_cluster(nodes).with_owner(OwnerPolicy::DegreeWeighted),
            );
            let engines: [(&str, &mut dyn ScanEngine, bool); 6] = [
                ("serial", &mut serial, false),
                ("parallel", &mut parallel, false),
                ("cluster", &mut cluster, false),
                ("serial+delta", &mut serial_d, true),
                ("parallel+delta", &mut parallel_d, true),
                ("cluster+delta", &mut cluster_d, true),
            ];
            for (name, exec, driver_delta) in engines {
                let (dist, rows, metrics) = engine_planned_sssp(exec, spec, n, driver_delta);
                prop_assert_eq!(&dist, &scratch.0, "C = {} {} distances diverged", config.crossbar_size, name);
                prop_assert_eq!(&rows, &scratch.1, "{} activations diverged", name);
                if name.starts_with("serial") {
                    // Downstream Metrics must match bit for bit once the
                    // planner's own cost counters are set aside (the two
                    // loops planned differently on purpose).
                    let mut a = metrics.clone();
                    let mut b = scratch.2.clone();
                    a.plan = PlanCounters::default();
                    b.plan = PlanCounters::default();
                    prop_assert_eq!(a, b, "serial Metrics diverged");
                } else {
                    // Parallel merges in plan order; the cluster additionally
                    // composes elapsed/net — events stay exactly the scan's.
                    prop_assert_eq!(metrics.events, scratch.2.events, "{} events diverged", name);
                    prop_assert_eq!(metrics.iterations, scratch.2.iterations);
                }
            }
        }
    }
}

type SsspTrace = (Vec<f64>, Vec<u64>, Metrics);

/// The SSSP loop with every iteration's plan rebuilt from scratch through
/// the stateless skeleton — the pre-planner baseline.
fn scratch_planned_sssp(
    tiled: &TiledGraph,
    config: &GraphRConfig,
    skeleton: &PlanSkeleton,
    spec: FixedSpec,
) -> SsspTrace {
    let mut exec = StreamingExecutor::new(tiled, config, spec);
    let n = tiled.num_vertices();
    let inf = spec.max_value();
    let mut dist = vec![inf; n];
    dist[0] = 0.0;
    let mut active = FrontierMask::new(n);
    active.set(0);
    let mut rows_history = Vec::new();
    for _ in 0..n {
        let plan = skeleton.pruned_plan(tiled, &active);
        let mut frontier = dist.clone();
        let mut updated = FrontierMask::new(n);
        rows_history.push(exec.scan_add_op_planned(
            &plan,
            &EdgeValueFn::new(&|w, _, _| f64::from(w)),
            &|du, w| du + w,
            &dist,
            &active,
            &mut frontier,
            &mut updated,
        ));
        exec.end_iteration();
        dist = frontier;
        active = updated;
        if active.is_empty() {
            break;
        }
    }
    (dist, rows_history, exec.into_metrics())
}

/// The same loop planning through the engine, i.e. the incremental
/// planner — either re-scanning the mask each round (`exec.plan`) or
/// handing over the driver-recorded word delta (`exec.plan_with_delta`),
/// as the `sim` drivers do.
fn engine_planned_sssp(
    exec: &mut dyn ScanEngine,
    spec: FixedSpec,
    n: usize,
    driver_delta: bool,
) -> SsspTrace {
    let inf = spec.max_value();
    let mut dist = vec![inf; n];
    dist[0] = 0.0;
    let mut active = FrontierMask::new(n);
    active.set(0);
    let mut rows_history = Vec::new();
    let mut delta: Option<FrontierDelta> = None;
    for _ in 0..n {
        let plan = match &delta {
            Some(d) if driver_delta => exec.plan_with_delta(&active, d),
            _ => exec.plan(Some(&active)),
        };
        let mut frontier = dist.clone();
        let mut updated = FrontierMask::new(n);
        rows_history.push(exec.scan_add_op_planned(
            &plan,
            &EdgeValueFn::new(&|w, _, _| f64::from(w)),
            &|du, w| du + w,
            &dist,
            &active,
            &mut frontier,
            &mut updated,
        ));
        exec.end_iteration();
        dist = frontier;
        delta = Some(FrontierDelta::between(&active, &updated));
        active = updated;
        if active.is_empty() {
            break;
        }
    }
    (dist, rows_history, exec.take_metrics())
}

/// On a high-diameter grid BFS the planner must overwhelmingly patch —
/// one rebuild for the first frontier, deltas after — and reuse planned
/// units across rounds, while serial and parallel engines agree on the
/// full Metrics (planning counters included: both planned the same
/// sequence).
#[test]
fn grid_bfs_patches_dominate_and_engines_agree() {
    let g = grid(40, 40);
    let config = test_config();
    let tiled = TiledGraph::preprocess(&g, &config).expect("grid tiles");
    let spec = FixedSpec::new(16, 0).expect("Q16.0 is valid");
    let n = tiled.num_vertices();

    let mut serial = StreamingExecutor::new(&tiled, &config, spec);
    let (dist_s, _, m_serial) = engine_planned_sssp(&mut serial, spec, n, true);
    let mut parallel = StreamingExecutor::new(&tiled, &config, spec).with_threads(3);
    let (dist_p, _, m_parallel) = engine_planned_sssp(&mut parallel, spec, n, true);

    assert_eq!(dist_s, dist_p);
    assert_eq!(
        m_serial, m_parallel,
        "identical plan sequences must yield identical Metrics, planner counters included"
    );
    assert!(
        m_serial.plan.delta_patches > m_serial.plan.full_rebuilds,
        "overlapping BFS frontiers must mostly patch: {:?}",
        m_serial.plan
    );
    assert!(m_serial.plan.units_reused > 0);
}

/// The cluster re-shards each patched plan by `Arc` clone: a one-node
/// degree-weighted cluster running the engine-planned loop stays
/// bit-identical to the serial engine, planning counters included.
#[test]
fn one_node_cluster_engine_planned_run_is_bit_identical() {
    let g = Rmat::new(180, 1100).seed(7).max_weight(9).generate();
    let config = test_config();
    let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");
    let spec = FixedSpec::new(16, 0).expect("Q16.0 is valid");
    let n = tiled.num_vertices();

    let mut serial = StreamingExecutor::new(&tiled, &config, spec);
    let single = engine_planned_sssp(&mut serial, spec, n, true);
    let mut cluster = ClusterExecutor::new(
        &tiled,
        &config,
        spec,
        MultiNodeConfig::pcie_cluster(1).with_owner(OwnerPolicy::DegreeWeighted),
    );
    let clustered = engine_planned_sssp(&mut cluster, spec, n, true);
    assert_eq!(single.0, clustered.0);
    assert_eq!(single.1, clustered.1);
    assert_eq!(single.2, clustered.2, "full Metrics must agree");
}

/// The `i + j = r` anti-diagonal of a `side × side` grid: the frontier a
/// corner BFS holds in round `r`.
fn anti_diagonal(side: usize, r: usize) -> FrontierMask {
    let mut mask = FrontierMask::new(side * side);
    for i in r.saturating_sub(side - 1)..=r.min(side - 1) {
        mask.set(i * side + (r - i));
    }
    mask
}

/// Replays a corner BFS's 478 anti-diagonal frontier deltas on the
/// benchmark geometry (240×240 grid, C = 8, 32 crossbars per GE, 4 GEs):
/// every plan equals the scratch rebuild, and the planner's simulated
/// counters stay exactly where they are pinned. Each counter enters the
/// benchmark's digests, so a planner rewrite must keep its chunk
/// re-checks, examined words, affected units and rebuild rule.
#[test]
fn anti_diagonal_replay_pins_plan_counters() {
    const SIDE: usize = 240;
    let config = GraphRConfig::builder()
        .crossbar_size(8)
        .crossbars_per_ge(32)
        .num_ges(4)
        .build()
        .expect("valid benchmark geometry");
    let tiled = TiledGraph::preprocess(&grid(SIDE, SIDE), &config).expect("grid tiles");
    let skeleton = Arc::new(PlanSkeleton::build(&tiled));
    let mut planner = Planner::new(&tiled, Arc::clone(&skeleton));
    let mut counters = PlanCounters::default();
    let mut prev = anti_diagonal(SIDE, 0);
    let first = planner.plan_for(&config, Some(&prev), &mut counters);
    assert_eq!(*first, skeleton.pruned_plan(&tiled, &prev));
    for r in 1..2 * SIDE - 1 {
        let mask = anti_diagonal(SIDE, r);
        let delta = FrontierDelta::between(&prev, &mask);
        let plan = planner.plan_for_delta(&config, &mask, &delta, &mut counters);
        assert_eq!(*plan, skeleton.pruned_plan(&tiled, &mask), "round {r}");
        prev = mask;
    }
    let expected = PlanCounters {
        full_rebuilds: 1,
        delta_patches: 478,
        units_reused: 39_660,
        units_patched: 14_592,
        mask_words: 469_936,
        summary_skips: 14,
        delta_words: 115_198,
        ..PlanCounters::default()
    };
    assert_eq!(counters, expected, "{counters:?}");
}
