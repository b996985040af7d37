//! Integration tests of the pipelined I/O lane (`ScanDriver`,
//! `--disk nvme-pipe`): cross-iteration prefetch is a *scheduling*
//! change, never a *semantic* one. For any graph and application,
//! results, event counters, and the full disk pricing are bit-identical
//! with prefetch on vs off (`DiskCounters::sans_prefetch`); with
//! prefetch on, the serial engine, the parallel engine, and a one-node
//! cluster still emit byte-identical Chrome traces; and every byte the
//! driver reads ahead was named by the *previous* window's planned
//! subgraphs — the containment property that keeps speculation honest.

use std::sync::Arc;

use graphr_repro::core::multinode::MultiNodeConfig;
use graphr_repro::core::outofcore::DiskModel;
use graphr_repro::core::sim::{PageRankOptions, TraversalOptions};
use graphr_repro::core::trace::{TraceData, TraceSink};
use graphr_repro::core::GraphRConfig;
use graphr_repro::graph::generators::rmat::Rmat;
use graphr_repro::graph::generators::structured::grid;
use graphr_repro::graph::GraphHandle;
use graphr_runtime::{Job, JobSpec, Session};
use proptest::prelude::*;

fn test_config() -> GraphRConfig {
    GraphRConfig::builder()
        .crossbar_size(4)
        .crossbars_per_ge(8)
        .num_ges(2)
        .build()
        .expect("valid test geometry")
}

/// The 240×240-grid geometry whose BFS wavefront leaves idle I/O tails
/// wide enough for the driver to actually read ahead (the same
/// workload `micro_runtime` measures); the smaller `test_config`
/// deployments are uniformly disk-bound, so their drivers correctly
/// never speculate.
fn pipelined_config() -> GraphRConfig {
    GraphRConfig::builder()
        .crossbar_size(8)
        .crossbars_per_ge(32)
        .num_ges(4)
        .build()
        .expect("valid pipelined geometry")
}

/// Applications whose windows differ enough to exercise both the hit
/// and the delta path of the driver.
fn specs() -> Vec<JobSpec> {
    vec![
        JobSpec::PageRank(PageRankOptions {
            max_iterations: 5,
            tolerance: 0.0,
            ..PageRankOptions::default()
        }),
        JobSpec::Bfs(TraversalOptions::default()),
        JobSpec::Sssp(TraversalOptions::default()),
        JobSpec::Wcc,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Prefetch on vs off: identical results, identical events,
    /// identical full pricing — only the prefetch-dependent counters
    /// (`demand_time`, `overlapped`, `bytes_prefetched`,
    /// `prefetch_hits`, `prefetch_wasted`) may move, and both runs'
    /// metrics hold every published invariant.
    #[test]
    fn prefetch_changes_nothing_but_the_io_lane(
        n in 8usize..100,
        m in 0usize..400,
        seed in 0u64..8,
    ) {
        let handle = GraphHandle::new(
            "prop",
            Rmat::new(n, m).seed(seed).max_weight(9).generate(),
        );
        for spec in specs() {
            let run = |disk: DiskModel| {
                Session::new(test_config())
                    .with_threads(1)
                    .with_disk(disk)
                    .submit(&Job::new(handle.clone(), spec.clone()))
                    .expect("out-of-core run")
            };
            let off = run(DiskModel::nvme());
            let on = run(DiskModel::nvme().with_prefetch());
            prop_assert_eq!(&off.output, &on.output, "{} results", spec.name());
            let (m_off, m_on) = (off.output.metrics(), on.output.metrics());
            prop_assert_eq!(&m_off.events, &m_on.events, "{} events", spec.name());
            prop_assert_eq!(
                m_off.disk.sans_prefetch(),
                m_on.disk.sans_prefetch(),
                "{} full pricing",
                spec.name()
            );
            prop_assert!(m_off.validate().is_ok(), "{}: {:?}", spec.name(), m_off.validate());
            prop_assert!(m_on.validate().is_ok(), "{}: {:?}", spec.name(), m_on.validate());
        }
    }
}

/// The determinism contract wears the prefetch lane: with `nvme-pipe`,
/// one worker, four workers, and a one-node cluster emit
/// bit-identical event streams and byte-identical Chrome exports —
/// speculative reads included.
#[test]
fn prefetched_traces_identical_across_modes() {
    let handle = GraphHandle::new("grid-240", grid(240, 240));
    let spec = JobSpec::Bfs(TraversalOptions::default());
    let disk = DiskModel::by_name("nvme-pipe").expect("pipelined model name");
    let run = |threads, nodes: Option<usize>| {
        let sink = TraceSink::shared();
        let mut session = Session::new(pipelined_config())
            .with_threads(threads)
            .with_disk(disk)
            .with_trace(Arc::clone(&sink));
        if let Some(n) = nodes {
            session = session.with_cluster(MultiNodeConfig::pcie_cluster(n));
        }
        session
            .submit(&Job::new(handle.clone(), spec.clone()))
            .expect("traced pipelined run");
        sink
    };
    let serial = run(1, None);
    let parallel = run(4, None);
    let cluster = run(1, Some(1));
    let prefetched: u64 = serial
        .events()
        .iter()
        .filter_map(|e| match &e.data {
            TraceData::Disk(w) => Some(w.bytes_prefetched),
            _ => None,
        })
        .sum();
    assert!(prefetched > 0, "the traced run must actually read ahead");
    assert_eq!(serial.events(), parallel.events());
    assert_eq!(serial.events(), cluster.events());
    assert_eq!(serial.to_chrome_trace(), parallel.to_chrome_trace());
    assert_eq!(serial.to_chrome_trace(), cluster.to_chrome_trace());
}

/// Containment: the driver only ever reads ahead what the previous
/// window's plan named, so per window `bytes_prefetched` is bounded by
/// the *previous* window's (full-pricing) loaded bytes, and the windows
/// sum back to the aggregate counter.
#[test]
fn prefetched_bytes_are_bounded_by_the_previous_plan() {
    let handle = GraphHandle::new("grid-240", grid(240, 240));
    let sink = TraceSink::shared();
    let report = Session::new(pipelined_config())
        .with_threads(1)
        .with_disk(DiskModel::nvme().with_prefetch())
        .with_trace(Arc::clone(&sink))
        .submit(&Job::new(handle, JobSpec::Bfs(TraversalOptions::default())))
        .expect("traced pipelined run");
    let windows: Vec<_> = sink
        .events()
        .iter()
        .filter_map(|e| match &e.data {
            TraceData::Disk(w) => Some(*w),
            _ => None,
        })
        .collect();
    assert!(!windows.is_empty(), "an out-of-core run must emit windows");
    let mut total = 0u64;
    for pair in windows.windows(2) {
        let (prev, cur) = (&pair[0], &pair[1]);
        assert!(
            cur.bytes_prefetched <= prev.bytes_loaded,
            "window read ahead {} bytes but the previous plan only named {}",
            cur.bytes_prefetched,
            prev.bytes_loaded
        );
        total += cur.bytes_prefetched;
    }
    assert_eq!(
        windows[0].bytes_prefetched, 0,
        "nothing can be resident before the first plan exists"
    );
    assert!(total > 0, "the run must actually read ahead");
    assert_eq!(
        total,
        report.output.metrics().disk.bytes_prefetched,
        "per-window prefetch must sum to the aggregate counter"
    );
}
