//! Integration tests of the service-level observability subsystem: the
//! deterministic log₂ [`Histogram`]'s percentiles against a sorted-`Vec`
//! nearest-rank reference (proptested), the serve layer's simulated
//! service clock (latency = wait + service exactly, FIFO waves start in
//! non-decreasing simulated order, a one-query queue never waits), the
//! determinism contract for the service histograms — the collected
//! registry renders **byte-identical** across the serial engine, the
//! parallel engine, and a one-node cluster, with coalescing on or off —
//! and lane attribution against the trace: each [`Metrics::lanes`] row's
//! frontier accounting must equal what its `Lane` trace events recorded.

use std::sync::Arc;

use graphr_repro::core::multinode::MultiNodeConfig;
use graphr_repro::core::sim::{run_bfs_lanes_with, LaneTraversalOptions, TraversalOptions};
use graphr_repro::core::stats::{bucket_bound, bucket_index, Histogram, StatsRegistry};
use graphr_repro::core::trace::{TraceData, TraceHandle, TraceSink};
use graphr_repro::core::{GraphRConfig, TiledGraph};
use graphr_repro::graph::generators::rmat::Rmat;
use graphr_repro::graph::GraphHandle;
use graphr_repro::runtime::{Job, JobSpec, ServeConfig, Server, Session};
use proptest::prelude::*;

fn small_config() -> GraphRConfig {
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

fn bfs(handle: &GraphHandle, source: u32) -> Job {
    Job::new(
        handle.clone(),
        JobSpec::Bfs(TraversalOptions {
            source,
            ..TraversalOptions::default()
        }),
    )
}

// ------------------------------------------------------------ histogram

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The integer-state histogram's percentile contract against the
    /// obvious reference: sort the samples, take the nearest-rank one,
    /// resolve it to its bucket's inclusive upper bound capped at the
    /// exact maximum.
    #[test]
    fn percentiles_match_sorted_reference(
        values in proptest::collection::vec(0u64..(1u64 << 48), 1..200),
        p in 1u8..=100,
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = ((values.len() as u64 * u64::from(p)).div_ceil(100)).max(1);
        let sample = sorted[rank as usize - 1];
        let expected = bucket_bound(bucket_index(sample)).min(h.max());
        prop_assert_eq!(h.percentile(p), expected);
        // The resolved bound never under-reports the sample it stands
        // for, and never exceeds the largest sample seen.
        prop_assert!(h.percentile(p) >= sample);
        prop_assert!(h.percentile(p) <= h.max());
        // Exact aggregates ride alongside the buckets.
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().map(|&v| u128::from(v)).sum::<u128>());
        prop_assert_eq!(h.min(), sorted[0]);
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
    }

    /// Merging two histograms must equal recording the concatenation.
    #[test]
    fn merge_equals_concatenation(
        a in proptest::collection::vec(0u64..(1u64 << 32), 0..60),
        b in proptest::collection::vec(0u64..(1u64 << 32), 0..60),
    ) {
        let mut ha = Histogram::new();
        for &v in &a {
            ha.record(v);
        }
        let mut hb = Histogram::new();
        for &v in &b {
            hb.record(v);
        }
        let mut merged = ha.clone();
        merged.merge(&hb);
        let mut both = Histogram::new();
        for &v in a.iter().chain(&b) {
            both.record(v);
        }
        prop_assert_eq!(merged, both);
    }
}

// ------------------------------------------------- simulated service clock

/// With a one-lane budget every query runs as its own wave, so the service
/// clock is a plain FIFO: query *i*'s wait is exactly the sum of the
/// service times before it, waves start in non-decreasing simulated
/// order, and the latency identity holds to the nanosecond.
#[test]
fn fifo_waves_price_wait_as_prior_service() {
    let handle = rmat_handle();
    let session = Session::new(small_config());
    let mut server = Server::new(ServeConfig {
        max_lanes: 1,
        ..ServeConfig::default()
    });
    for i in 0..5u32 {
        server.enqueue(bfs(&handle, i * 7)).expect("admit");
    }
    let results = server.drain(&session);
    assert_eq!(results.len(), 5);
    let mut prior_service = 0u64;
    let mut prev_start = 0u64;
    for result in &results {
        assert!(result.report.is_ok(), "query must run");
        assert_eq!(
            result.latency_ns,
            result.wait_ns + result.service_ns,
            "latency must be exactly wait + service"
        );
        assert!(result.service_ns > 0, "a real run takes simulated time");
        // All five arrived before the drain, at simulated time 0.
        assert_eq!(result.arrival_ns, 0);
        assert_eq!(
            result.wait_ns, prior_service,
            "FIFO wait must equal the service time already dispensed"
        );
        let start = result.arrival_ns + result.wait_ns;
        assert!(
            start >= prev_start,
            "FIFO waves must start in non-decreasing simulated order"
        );
        prev_start = start;
        prior_service += result.service_ns;
    }
    // The server's clock dispensed exactly the summed service time.
    assert_eq!(server.clock_ns(), prior_service);
    let latency = server.latency();
    assert_eq!(latency.latency.count(), 5);
    assert_eq!(latency.wait.min(), 0);
    assert_eq!(
        latency.wait.max(),
        results.last().expect("five results").wait_ns
    );
}

/// A queue holding a single query has nothing to wait behind: zero wait,
/// latency equal to service, and the occupancy histogram records one
/// single-lane wave.
#[test]
fn single_query_queue_never_waits() {
    let handle = rmat_handle();
    let session = Session::new(small_config());
    let mut server = Server::new(ServeConfig::default());
    server.enqueue(bfs(&handle, 0)).expect("admit");
    let results = server.drain(&session);
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].wait_ns, 0, "a lone query must not wait");
    assert_eq!(results[0].latency_ns, results[0].service_ns);
    let latency = server.latency();
    assert_eq!(latency.wait.max(), 0);
    assert_eq!(latency.occupancy.count(), 1);
    assert_eq!(latency.occupancy.max(), 1);
}

/// Failed queries advance no simulated time and enter no histogram.
#[test]
fn failed_queries_leave_the_clock_and_histograms_alone() {
    let handle = rmat_handle();
    let session = Session::new(small_config());
    let mut server = Server::new(ServeConfig::default());
    // Source beyond the vertex count fails validation before any scan.
    server.enqueue(bfs(&handle, 1_000_000)).expect("admitted");
    let results = server.drain(&session);
    assert!(results[0].report.is_err(), "out-of-range source must fail");
    assert_eq!(results[0].service_ns, 0);
    assert_eq!(results[0].latency_ns, 0);
    assert_eq!(server.clock_ns(), 0, "failures dispense no simulated time");
    assert_eq!(server.latency().latency.count(), 0);
}

// --------------------------------------------- engine-identity contract

/// Runs the same five-query batch on one engine configuration, in waves
/// of at most `max_lanes`, and returns the collected registry's
/// Prometheus rendering.
fn rendered_registry(threads: usize, cluster: Option<usize>, max_lanes: usize) -> String {
    let handle = rmat_handle();
    let mut session = Session::new(small_config()).with_threads(threads);
    if let Some(nodes) = cluster {
        session = session.with_cluster(MultiNodeConfig::pcie_cluster(nodes));
    }
    let mut server = Server::new(ServeConfig {
        max_lanes,
        ..ServeConfig::default()
    });
    for i in 0..5u32 {
        server.enqueue(bfs(&handle, i * 7)).expect("admit");
    }
    for result in server.drain(&session) {
        assert!(result.report.is_ok(), "every query must run");
    }
    let mut registry = StatsRegistry::new();
    server.collect_stats(&mut registry);
    assert!(!registry.is_empty());
    registry.render_prometheus()
}

/// The tentpole determinism contract: the service-level histograms are
/// simulated facts, so the full registry rendering — every bucket count,
/// sum, and percentile — must be byte-identical across one worker, four
/// workers, and a one-node cluster, whether waves
/// are coalesced or run solo.
#[test]
fn serve_registry_bit_identical_across_engines() {
    let fused = ServeConfig::default().max_lanes;
    for max_lanes in [fused, 1] {
        let serial = rendered_registry(1, None, max_lanes);
        let parallel = rendered_registry(4, None, max_lanes);
        let one_node = rendered_registry(4, Some(1), max_lanes);
        assert_eq!(
            serial, parallel,
            "serial and parallel registries must render byte-identically (max_lanes={max_lanes})"
        );
        assert_eq!(
            serial, one_node,
            "a one-node cluster's registry must render byte-identically (max_lanes={max_lanes})"
        );
    }
    // And the two scheduling modes genuinely differ — the contract is
    // not vacuous.
    assert_ne!(
        rendered_registry(1, None, fused),
        rendered_registry(1, None, 1),
        "coalesced and solo schedules have different wave accounting"
    );
}

// ------------------------------------------------ lane/trace consistency

/// [`Metrics::lanes`] against the telemetry: a fused run's per-lane
/// attribution must be recoverable from its `Lane` trace events — the
/// events' frontier populations sum to `frontier_total`, their maximum
/// is `frontier_peak`, and their count is the lane's active-iteration
/// count.
#[test]
fn lane_attribution_matches_traced_frontiers() {
    use graphr_repro::core::exec::{ScanEngine, StreamingExecutor};

    let graph = Rmat::new(250, 1500).seed(42).max_weight(9).generate();
    let config = small_config();
    let tiled = TiledGraph::preprocess(&graph, &config).expect("tiles");
    let opts = LaneTraversalOptions::new(vec![0, 5, 11, 42]);
    let sink = TraceSink::shared();
    let mut exec = StreamingExecutor::new(&tiled, &config, opts.spec);
    exec.set_trace(Some(TraceHandle::new(Arc::clone(&sink))));
    let run = run_bfs_lanes_with(&graph, &mut exec, &opts).expect("fused run");
    run.metrics
        .validate()
        .expect("fused metrics are consistent");
    assert_eq!(run.metrics.lanes.len(), 4);

    let mut totals = [0u64; 4];
    let mut peaks = [0u64; 4];
    let mut events = [0u64; 4];
    for event in sink.events() {
        if let TraceData::Lane { lane, frontier, .. } = event.data {
            let lane = lane as usize;
            totals[lane] += frontier;
            peaks[lane] = peaks[lane].max(frontier);
            events[lane] += 1;
        }
    }
    for (q, row) in run.metrics.lanes.iter().enumerate() {
        assert_eq!(
            row.frontier_total, totals[q],
            "lane {q}: trace frontiers must sum to the attribution total"
        );
        assert_eq!(
            row.frontier_peak, peaks[q],
            "lane {q}: the largest traced frontier must be the peak"
        );
        assert_eq!(
            row.iterations, events[q],
            "lane {q}: one Lane event per active iteration"
        );
    }
}
