//! Integration tests of the run telemetry subsystem: attaching a trace
//! sink never changes results or `Metrics` (null-sink identity), the
//! simulated-clock event stream is **bit-identical** across the serial
//! engine, the parallel engine, and a one-node cluster (Chrome-export
//! bytes included), delta-patched and scratch-rebuilt planning differ
//! only in their `Plan` events, and — proptested — the per-iteration
//! deltas sum back to the final aggregate `Metrics` for every app on
//! serial, parallel, and 4-node-cluster execution.

use std::sync::Arc;

use graphr_repro::core::exec::{EdgeValueFn, PlanSkeleton, ScanEngine, StreamingExecutor};
use graphr_repro::core::metrics::{
    CounterField, CounterValue, DiskCounters, EventCounters, MergeRule, NetCounters, PlanCounters,
    TimeBreakdown,
};
use graphr_repro::core::multinode::MultiNodeConfig;
use graphr_repro::core::outofcore::DiskModel;
use graphr_repro::core::sim::{CfOptions, PageRankOptions, SpmvOptions, TraversalOptions};
use graphr_repro::core::trace::{TraceData, TraceEvent, TraceHandle, TraceSink};
use graphr_repro::core::{GraphRConfig, Metrics, TiledGraph};
use graphr_repro::graph::generators::bipartite::RatingMatrix;
use graphr_repro::graph::generators::rmat::Rmat;
use graphr_repro::graph::generators::structured::grid;
use graphr_repro::graph::GraphHandle;
use graphr_repro::units::FixedSpec;
use graphr_runtime::{Job, JobReport, JobSpec, Session};
use proptest::prelude::*;

fn test_config() -> GraphRConfig {
    GraphRConfig::builder()
        .crossbar_size(4)
        .crossbars_per_ge(8)
        .num_ges(2)
        .build()
        .expect("valid test geometry")
}

fn rmat_handle() -> GraphHandle {
    GraphHandle::new(
        "rmat-250",
        Rmat::new(250, 1500).seed(42).max_weight(9).generate(),
    )
}

fn cf_handle(seed: u64) -> GraphHandle {
    let m = RatingMatrix::new(12, 6, 40).seed(seed).generate();
    GraphHandle::bipartite("ratings", m.graph().clone(), 12, 6)
}

/// The five graph applications (CF rides on a bipartite handle and is
/// exercised separately where needed).
fn graph_specs() -> Vec<JobSpec> {
    vec![
        JobSpec::PageRank(PageRankOptions::default()),
        JobSpec::Spmv(SpmvOptions::default()),
        JobSpec::Bfs(TraversalOptions::default()),
        JobSpec::Sssp(TraversalOptions::default()),
        JobSpec::Wcc,
    ]
}

/// Submits one job on a fresh session wearing a fresh sink; returns the
/// sink and the report.
fn traced_submit(
    handle: &GraphHandle,
    spec: &JobSpec,
    threads: usize,
    cluster_nodes: Option<usize>,
    disk: Option<DiskModel>,
) -> (Arc<TraceSink>, JobReport) {
    let sink = TraceSink::shared();
    let mut session = Session::new(test_config())
        .with_threads(threads)
        .with_trace(Arc::clone(&sink));
    if let Some(nodes) = cluster_nodes {
        session = session.with_cluster(MultiNodeConfig::pcie_cluster(nodes));
    }
    if let Some(disk) = disk {
        session = session.with_disk(disk);
    }
    let report = session
        .submit(&Job::new(handle.clone(), spec.clone()))
        .expect("traced run");
    (sink, report)
}

/// Attaching a sink must be a pure observation: results **and** `Metrics`
/// (`JobOutput`'s `PartialEq` covers both) are bit-identical to the
/// untraced run, for every application.
#[test]
fn tracing_never_changes_results_or_metrics() {
    let handle = rmat_handle();
    let mut specs = graph_specs();
    specs.push(JobSpec::Cf(CfOptions {
        features: 4,
        epochs: 2,
        ..CfOptions::default()
    }));
    for spec in specs {
        let h = if matches!(spec, JobSpec::Cf(_)) {
            cf_handle(5)
        } else {
            handle.clone()
        };
        let plain = Session::new(test_config())
            .submit(&Job::new(h.clone(), spec.clone()))
            .expect("untraced run");
        let (sink, traced) = traced_submit(&h, &spec, 1, None, None);
        assert_eq!(
            plain.output,
            traced.output,
            "{}: tracing must not perturb the run",
            spec.name()
        );
        assert!(
            !sink.is_empty(),
            "{}: the sink must see events",
            spec.name()
        );
        assert!(
            sink.events()
                .iter()
                .any(|e| matches!(e.data, TraceData::Iteration(_))),
            "{}: drivers must emit per-iteration snapshots",
            spec.name()
        );
    }
}

/// A solo submission is a one-job wave of the session's one job runner:
/// for every traversal, `submit(&job)` and `submit_fused(&[job])` return
/// equal outputs (full `Metrics` included) and byte-identical Chrome
/// traces under the plain `"<app> on <graph>"` job name, while a wave of
/// two jobs keeps its `[x2]` name.
#[test]
fn solo_submit_is_a_one_job_wave() {
    let handle = rmat_handle();
    let traced = |sink: &Arc<TraceSink>| Session::new(test_config()).with_trace(Arc::clone(sink));
    let source = |source| TraversalOptions {
        source,
        ..TraversalOptions::default()
    };
    for spec in [
        JobSpec::Bfs(source(3)),
        JobSpec::Sssp(source(3)),
        JobSpec::Wcc,
    ] {
        let job = Job::new(handle.clone(), spec);
        let (solo_sink, wave_sink) = (TraceSink::shared(), TraceSink::shared());
        let solo = traced(&solo_sink).submit(&job).expect("solo run");
        let wave = traced(&wave_sink)
            .submit_fused(std::slice::from_ref(&job))
            .expect("one-job wave");
        let app = job.spec.name();
        assert_eq!(wave.len(), 1);
        assert_eq!(solo.output, wave[0].output, "{app}: outputs differ");
        assert_eq!(
            solo_sink.to_chrome_trace(),
            wave_sink.to_chrome_trace(),
            "{app}: Chrome traces differ"
        );
        assert_eq!(wave_sink.job_names(), [format!("{app} on rmat-250")]);
    }
    let sink = TraceSink::shared();
    let bfs = |s| Job::new(handle.clone(), JobSpec::Bfs(source(s)));
    traced(&sink)
        .submit_fused(&[bfs(0), bfs(7)])
        .expect("two-job wave");
    assert_eq!(sink.job_names(), ["bfs[x2] on rmat-250"]);
}

/// The determinism contract, extended to telemetry: the simulated-clock
/// event stream — and therefore the exported Chrome trace, byte for byte
/// — is identical across one worker, four workers, and a one-node
/// cluster, for every application.
#[test]
fn event_streams_identical_across_serial_parallel_and_one_node_cluster() {
    let handle = rmat_handle();
    for spec in graph_specs() {
        let (serial, _) = traced_submit(&handle, &spec, 1, None, None);
        let (parallel, _) = traced_submit(&handle, &spec, 4, None, None);
        let (cluster, _) = traced_submit(&handle, &spec, 1, Some(1), None);
        let evs = serial.events();
        assert!(
            evs.iter()
                .any(|e| matches!(e.data, TraceData::Compute { .. })),
            "{}: engines must emit compute spans",
            spec.name()
        );
        // `TraceEvent`'s `PartialEq` ignores host-measured fields, so this
        // is exactly the simulated part of the stream.
        assert_eq!(
            evs,
            parallel.events(),
            "{}: serial and parallel event streams must be bit-identical",
            spec.name()
        );
        assert_eq!(
            evs,
            cluster.events(),
            "{}: a one-node cluster's event stream must be bit-identical",
            spec.name()
        );
        // The Chrome export omits host fields entirely, so the bytes
        // agree too — the `graphr-run --trace` acceptance bar.
        let chrome = serial.to_chrome_trace();
        assert_eq!(chrome, parallel.to_chrome_trace(), "{}", spec.name());
        assert_eq!(chrome, cluster.to_chrome_trace(), "{}", spec.name());
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.ends_with("]}"));
    }
}

/// The same contract under a disk model: per-iteration `Disk` windows
/// appear in the stream and the exported bytes still agree across all
/// three execution shapes.
#[test]
fn disk_windows_trace_identically_across_modes() {
    let handle = rmat_handle();
    let spec = JobSpec::Sssp(TraversalOptions::default());
    let run = |threads, nodes: Option<usize>| {
        let sink = TraceSink::shared();
        let mut session = Session::new(test_config())
            .with_threads(threads)
            .with_disk(DiskModel::nvme())
            .with_trace(Arc::clone(&sink));
        if let Some(n) = nodes {
            session = session.with_cluster(MultiNodeConfig::pcie_cluster(n));
        }
        session
            .submit(&Job::new(handle.clone(), spec.clone()))
            .expect("traced disk run");
        sink
    };
    let serial = run(1, None);
    let parallel = run(4, None);
    let cluster = run(1, Some(1));
    assert!(
        serial
            .events()
            .iter()
            .any(|e| matches!(e.data, TraceData::Disk(_))),
        "an out-of-core run must emit disk windows"
    );
    assert_eq!(serial.events(), parallel.events());
    assert_eq!(serial.events(), cluster.events());
    assert_eq!(serial.to_chrome_trace(), parallel.to_chrome_trace());
    assert_eq!(serial.to_chrome_trace(), cluster.to_chrome_trace());
    // JSONL keeps host fields, so only spot-check its shape.
    let jsonl = serial.to_jsonl();
    assert!(jsonl.starts_with("{\"type\":\"job\""));
    assert!(jsonl.contains("\"type\":\"disk\""));
}

/// Delta-patched vs scratch-rebuilt planning: the engine-planned loop's
/// stream equals the scratch-planned loop's stream once the `Plan` events
/// — which report planning *cost*, exactly like `PlanCounters` — are set
/// aside.
#[test]
fn patched_and_scratch_planned_streams_agree_modulo_plan_events() {
    let g = grid(30, 30);
    let config = test_config();
    let tiled = TiledGraph::preprocess(&g, &config).expect("grid tiles");
    let skeleton = Arc::new(PlanSkeleton::build(&tiled));
    let spec = FixedSpec::new(16, 0).expect("Q16.0 is valid");
    let n = tiled.num_vertices();

    // A masked SSSP loop; `engine_plans` switches between planning through
    // the engine (delta patching) and the stateless scratch skeleton.
    let run = |engine_plans: bool| {
        let sink = TraceSink::shared();
        let mut exec = StreamingExecutor::new(&tiled, &config, spec);
        exec.set_trace(Some(TraceHandle::new(Arc::clone(&sink))));
        use graphr_repro::core::exec::mask::FrontierMask;
        let inf = spec.max_value();
        let mut dist = vec![inf; n];
        dist[0] = 0.0;
        let mut active = FrontierMask::new(n);
        active.set(0);
        for _ in 0..n {
            let engine_plan = engine_plans.then(|| exec.plan(Some(&active)));
            let scratch_plan;
            let plan = match &engine_plan {
                Some(p) => &**p,
                None => {
                    scratch_plan = skeleton.pruned_plan(&tiled, &active);
                    &scratch_plan
                }
            };
            let mut frontier = dist.clone();
            let mut updated = FrontierMask::new(n);
            exec.scan_add_op_planned(
                plan,
                &EdgeValueFn::new(&|w, _, _| f64::from(w)),
                &|du, w| du + w,
                &dist,
                &active,
                &mut frontier,
                &mut updated,
            );
            exec.end_iteration();
            dist = frontier;
            active = updated;
            if active.is_empty() {
                break;
            }
        }
        (dist, exec.take_metrics(), sink.events())
    };

    let (dist_patched, m_patched, evs_patched) = run(true);
    let (dist_scratch, m_scratch, evs_scratch) = run(false);
    assert_eq!(dist_patched, dist_scratch);
    assert!(
        m_patched.plan.delta_patches > 0,
        "the engine-planned loop must actually patch"
    );
    assert!(
        evs_patched
            .iter()
            .any(|e| matches!(e.data, TraceData::Plan { .. })),
        "the engine-planned loop must emit Plan events"
    );
    assert!(
        !evs_scratch
            .iter()
            .any(|e| matches!(e.data, TraceData::Plan { .. })),
        "scratch planning bypasses the engine and emits none"
    );
    assert_eq!(m_patched.events, m_scratch.events);
    let without_plans: Vec<&TraceEvent> = evs_patched
        .iter()
        .filter(|e| !matches!(e.data, TraceData::Plan { .. }))
        .collect();
    let scratch_refs: Vec<&TraceEvent> = evs_scratch.iter().collect();
    assert_eq!(
        without_plans, scratch_refs,
        "modulo Plan events the streams must be bit-identical"
    );
}

/// Every counter-family field an `Iteration` snapshot carries, tagged
/// with its family, through the families' `fields()` visitor.
fn snapshot_fields(
    time: &TimeBreakdown,
    events: &EventCounters,
    disk: &DiskCounters,
    net: &NetCounters,
    plan: &PlanCounters,
) -> Vec<(&'static str, CounterField)> {
    let tagged = |family, fields: Vec<CounterField>| fields.into_iter().map(move |f| (family, f));
    tagged("time", time.fields().collect())
        .chain(tagged("events", events.fields().collect()))
        .chain(tagged("disk", disk.fields().collect()))
        .chain(tagged("net", net.fields().collect()))
        .chain(tagged("plan", plan.fields().collect()))
        .collect()
}

/// Folds one delta into a running total by the field's merge rule.
fn fold(rule: MergeRule, total: CounterValue, delta: CounterValue) -> CounterValue {
    match (total, delta) {
        (CounterValue::Count(t), CounterValue::Count(d)) if rule == MergeRule::Max => {
            CounterValue::Count(t.max(d))
        }
        (CounterValue::Count(t), CounterValue::Count(d)) => CounterValue::Count(t + d),
        (CounterValue::Time(t), CounterValue::Time(d)) => CounterValue::Time(t + d),
        (CounterValue::Energy(t), CounterValue::Energy(d)) => CounterValue::Energy(t + d),
        other => panic!("a field changed unit between snapshots: {other:?}"),
    }
}

/// Asserts that the `Iteration` deltas in `events` fold back to the final
/// aggregate, field by field through every family's visitor: counts
/// exactly (a `Max` field through the running maximum), simulated
/// `Nanos`/`Joules` to f64 telescoping precision. `Host` fields
/// (`plan.time`) are exempt — `Metrics`' own equality excludes them, so
/// the tail snapshot legitimately may not cover them.
fn assert_deltas_sum_to(events: &[TraceEvent], m: &Metrics, label: &str) {
    let approx = |sum: f64, total: f64, what: &str| {
        let tol = 1e-9 * sum.abs().max(total.abs()).max(1.0);
        assert!(
            (sum - total).abs() <= tol,
            "{label}: {what} deltas sum to {sum}, final metrics say {total}"
        );
    };
    let zero = Metrics::default();
    let mut totals = snapshot_fields(
        &zero.time_breakdown,
        &zero.events,
        &zero.disk,
        &zero.net,
        &zero.plan,
    );
    let mut count = 0usize;
    let mut elapsed = 0.0f64;
    for ev in events {
        let TraceData::Iteration(snap) = &ev.data else {
            continue;
        };
        count += 1;
        elapsed += snap.elapsed.as_nanos();
        let deltas = snapshot_fields(&snap.time, &snap.events, &snap.disk, &snap.net, &snap.plan);
        for ((_, total), (_, delta)) in totals.iter_mut().zip(deltas) {
            total.value = fold(total.rule, total.value, delta.value);
        }
    }
    // One snapshot per end_iteration, plus at most one tail for post-loop
    // controller charges.
    assert!(
        count == m.iterations || count == m.iterations + 1,
        "{label}: {count} iteration events for {} iterations",
        m.iterations
    );
    approx(elapsed, m.elapsed.as_nanos(), "elapsed");
    let finals = snapshot_fields(&m.time_breakdown, &m.events, &m.disk, &m.net, &m.plan);
    assert_eq!(totals.len(), finals.len());
    for ((family, sum), (_, fin)) in totals.iter().zip(&finals) {
        let what = format!("{family}.{}", sum.name);
        match (sum.value, fin.value) {
            _ if sum.rule == MergeRule::Host => {}
            (CounterValue::Count(s), CounterValue::Count(f)) => {
                assert_eq!(s, f, "{label}: {what} deltas must sum exactly");
            }
            (CounterValue::Time(s), CounterValue::Time(f)) => {
                approx(s.as_nanos(), f.as_nanos(), &what);
            }
            (CounterValue::Energy(s), CounterValue::Energy(f)) => {
                approx(s.as_joules(), f.as_joules(), &what);
            }
            other => panic!("{label}: {what} changed unit: {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite 3: for any graph, every application's per-iteration
    /// trace deltas sum back to its final aggregate `Metrics` — on the
    /// serial engine, the parallel engine, a 4-node cluster, and out of
    /// core under a prefetching disk model.
    #[test]
    fn iteration_deltas_sum_to_final_metrics(
        n in 8usize..80,
        m in 0usize..300,
        seed in 0u64..12,
    ) {
        let handle = GraphHandle::new(
            "prop",
            Rmat::new(n, m).seed(seed).max_weight(9).generate(),
        );
        let mut specs = graph_specs();
        if let Some(JobSpec::PageRank(opts)) = specs.first_mut() {
            *opts = PageRankOptions {
                max_iterations: 5,
                tolerance: 0.0,
                ..PageRankOptions::default()
            };
        }
        specs.push(JobSpec::Cf(CfOptions {
            features: 4,
            epochs: 2,
            ..CfOptions::default()
        }));
        for spec in specs {
            let h = if matches!(spec, JobSpec::Cf(_)) {
                cf_handle(seed)
            } else {
                handle.clone()
            };
            // The prefetching out-of-core shape fills every disk counter,
            // demand and read-ahead included.
            let prefetch = Some(DiskModel::nvme().with_prefetch());
            let shapes = [
                ("serial", 1, None, None),
                ("parallel", 4, None, None),
                ("cluster-4", 1, Some(4), None),
                ("out-of-core", 1, None, prefetch),
            ];
            for (shape, threads, nodes, disk) in shapes {
                let (sink, report) = traced_submit(&h, &spec, threads, nodes, disk);
                let metrics = report.output.metrics();
                metrics
                    .validate()
                    .unwrap_or_else(|e| panic!("{} {shape}: invalid metrics: {e}", spec.name()));
                assert_deltas_sum_to(
                    &sink.events(),
                    metrics,
                    &format!("{} {shape}", spec.name()),
                );
            }
        }
    }
}

/// The machine-readable `JobReport` serialisation is one balanced JSON
/// object carrying the same aggregate the text report derives from.
#[test]
fn job_report_to_json_is_wellformed() {
    let handle = rmat_handle();
    let report = Session::new(test_config())
        .submit(&Job::new(
            handle,
            JobSpec::Sssp(TraversalOptions::default()),
        ))
        .expect("run");
    let json = report.to_json();
    assert!(json.starts_with("{\"app\":\"sssp\""));
    assert!(json.contains("\"metrics\":{"));
    assert!(json.contains("\"iterations\":"));
    assert!(json.contains("\"subgraphs_planned\":"));
    assert!(json.contains("\"frontier\":{\"mask_words\":"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    // The text rendering derives from the same numbers: the planned
    // subgraph count appears in both.
    let text = format!("{report}");
    assert!(
        text.contains("frontier:"),
        "text report must carry the frontier row"
    );
    let planned = json
        .split("\"subgraphs_planned\":")
        .nth(1)
        .and_then(|s| s.split(&[',', '}'][..]).next())
        .expect("field present");
    assert!(
        text.contains(planned),
        "text report must quote the same planned count ({planned})"
    );
}
