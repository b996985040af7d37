//! Deterministic tests for the `graphr-serve` scheduler: admission
//! control, queue-order fairness, the coalescing rule (only queries that
//! agree on graph, application and options share a fused wave), overflow
//! splitting past [`MAX_LANES`](graphr_repro::core::exec::MAX_LANES),
//! degenerate query streams (empty drains, duplicated sources), and
//! session configurations that skip the builder's checks.

use graphr_repro::core::exec::MAX_LANES;
use graphr_repro::core::multinode::MultiNodeConfig;
use graphr_repro::core::sim::{SimError, TraversalOptions};
use graphr_repro::core::GraphRConfig;
use graphr_repro::graph::generators::rmat::Rmat;
use graphr_repro::graph::GraphHandle;
use graphr_repro::runtime::{
    AdmissionError, GraphVariant, Job, JobOutput, JobSpec, RuntimeError, ServeConfig, Server,
    Session,
};
use graphr_repro::units::BitSlicer;

fn small_config() -> GraphRConfig {
    GraphRConfig::builder()
        .crossbar_size(4)
        .crossbars_per_ge(8)
        .num_ges(2)
        .build()
        .unwrap()
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

fn sssp(handle: &GraphHandle, source: u32) -> Job {
    Job::new(
        handle.clone(),
        JobSpec::Sssp(TraversalOptions {
            source,
            ..TraversalOptions::default()
        }),
    )
}

#[test]
fn draining_an_empty_queue_is_a_no_op() {
    let session = Session::new(small_config());
    let mut server = Server::new(ServeConfig::default());
    assert!(server.drain(&session).is_empty());
    assert_eq!(server.stats().solo, 0);
}

#[test]
fn results_come_back_in_submission_order_across_interleaved_waves() {
    // Interleave three incompatible streams; coalescing pulls each
    // stream's members into one wave, but ids must stay FIFO.
    let g1 = GraphHandle::new("g1", Rmat::new(90, 500).seed(1).generate());
    let g2 = GraphHandle::new("g2", Rmat::new(70, 350).seed(2).generate());
    let session = Session::new(small_config());
    let mut server = Server::new(ServeConfig::default());
    let jobs = [
        bfs(&g1, 0),  // wave A
        sssp(&g1, 1), // wave B (same graph, different app)
        bfs(&g2, 0),  // wave C (different graph)
        bfs(&g1, 5),  // wave A again
        sssp(&g1, 9), // wave B again
        bfs(&g1, 7),  // wave A again
    ];
    for job in &jobs {
        server.enqueue(job.clone()).unwrap();
    }
    let results = server.drain(&session);
    let ids: Vec<u64> = results.iter().map(|r| r.id).collect();
    assert_eq!(ids, vec![0, 1, 2, 3, 4, 5], "submission order");
    // Stream membership: indices 0, 3, 5 fused as the first wave;
    // 1 and 4 as the second; 2 ran alone as the third.
    let waves: Vec<u64> = results.iter().map(|r| r.wave).collect();
    assert_eq!(waves, vec![0, 1, 2, 0, 1, 0]);
    let lanes: Vec<usize> = results.iter().map(|r| r.lanes).collect();
    assert_eq!(lanes, vec![3, 2, 1, 3, 2, 3]);
    let stats = server.stats();
    assert_eq!((stats.waves, stats.fused, stats.solo), (2, 5, 1));
    // Every fused answer still matches its solo submission.
    for (result, job) in results.iter().zip(&jobs) {
        let solo = session.submit(job).unwrap();
        let fused = result.report.as_ref().unwrap();
        match (&fused.output, &solo.output) {
            (JobOutput::Traversal(f), JobOutput::Traversal(s)) => {
                assert_eq!(f.distances, s.distances, "query {}", result.id);
                assert_eq!(f.metrics.lanes, s.metrics.lanes, "query {}", result.id);
            }
            other => panic!("unexpected outputs {other:?}"),
        }
    }
}

#[test]
fn only_identical_settings_coalesce() {
    let handle = GraphHandle::new("settings", Rmat::new(80, 400).seed(3).generate());
    let session = Session::new(small_config());
    let mut server = Server::new(ServeConfig::default());
    server.enqueue(bfs(&handle, 0)).unwrap();
    // Different iteration cap: no fuse.
    server
        .enqueue(Job::new(
            handle.clone(),
            JobSpec::Bfs(TraversalOptions {
                source: 2,
                max_iterations: Some(2),
                ..TraversalOptions::default()
            }),
        ))
        .unwrap();
    // A dense app never fuses, even queued between compatible queries.
    server
        .enqueue(Job::new(
            handle.clone(),
            JobSpec::PageRank(graphr_repro::core::sim::PageRankOptions::default()),
        ))
        .unwrap();
    // Finally a genuine partner for the head query.
    server.enqueue(bfs(&handle, 3)).unwrap();
    let results = server.drain(&session);
    let lanes: Vec<usize> = results.iter().map(|r| r.lanes).collect();
    assert_eq!(lanes, vec![2, 1, 1, 2], "only queries 0 and 3 fuse");
    assert!(results.iter().all(|r| r.report.is_ok()));
    let stats = server.stats();
    assert_eq!((stats.waves, stats.fused, stats.solo), (1, 2, 2));
}

#[test]
fn oversized_streams_split_into_waves_in_queue_order() {
    let handle = GraphHandle::new("overflow", Rmat::new(150, 800).seed(4).generate());
    let session = Session::new(small_config());
    let mut server = Server::new(ServeConfig::default());
    let total = MAX_LANES + 6;
    for i in 0..total {
        server.enqueue(bfs(&handle, (i % 150) as u32)).unwrap();
    }
    let results = server.drain(&session);
    assert_eq!(results.len(), total);
    for (i, result) in results.iter().enumerate() {
        let (wave, lanes) = if i < MAX_LANES {
            (0, MAX_LANES)
        } else {
            (1, 6)
        };
        assert_eq!(result.wave, wave, "query {i}");
        assert_eq!(result.lanes, lanes, "query {i}");
        assert!(result.report.is_ok(), "query {i}");
    }
    let stats = server.stats();
    assert_eq!((stats.waves, stats.fused, stats.solo), (2, total as u64, 0));
}

#[test]
fn narrower_lane_budget_is_honoured() {
    let handle = GraphHandle::new("budget", Rmat::new(60, 300).seed(5).generate());
    let session = Session::new(small_config());
    let mut server = Server::new(ServeConfig {
        max_lanes: 2,
        ..ServeConfig::default()
    });
    for source in [0, 1, 2, 3, 4] {
        server.enqueue(bfs(&handle, source)).unwrap();
    }
    let results = server.drain(&session);
    let shape: Vec<(u64, usize)> = results.iter().map(|r| (r.wave, r.lanes)).collect();
    assert_eq!(shape, vec![(0, 2), (0, 2), (1, 2), (1, 2), (2, 1)]);
}

#[test]
fn duplicate_sources_stay_independent_lanes() {
    let handle = GraphHandle::new("dup", Rmat::new(100, 550).seed(6).generate());
    let session = Session::new(small_config());
    let mut server = Server::new(ServeConfig::default());
    for source in [13, 13, 13] {
        server.enqueue(sssp(&handle, source)).unwrap();
    }
    let results = server.drain(&session);
    assert!(results.iter().all(|r| r.lanes == 3));
    let solo = session.submit(&sssp(&handle, 13)).unwrap();
    for result in &results {
        let fused = result.report.as_ref().unwrap();
        match (&fused.output, &solo.output) {
            (JobOutput::Traversal(f), JobOutput::Traversal(s)) => {
                assert_eq!(f.distances, s.distances);
                assert_eq!(f.metrics.lanes, s.metrics.lanes);
            }
            other => panic!("unexpected outputs {other:?}"),
        }
    }
}

#[test]
fn admission_control_rejects_and_recovers() {
    let handle = GraphHandle::new("full", Rmat::new(50, 250).seed(7).generate());
    let session = Session::new(small_config());
    let mut server = Server::new(ServeConfig {
        queue_capacity: 3,
        ..ServeConfig::default()
    });
    for source in [0, 1, 2] {
        server.enqueue(bfs(&handle, source)).unwrap();
    }
    assert_eq!(
        server.enqueue(bfs(&handle, 3)).unwrap_err(),
        AdmissionError::QueueFull { capacity: 3 }
    );
    assert_eq!(server.queued(), 3, "a rejected query is not queued");
    let first = server.drain(&session);
    assert_eq!(first.len(), 3);
    // The drain freed capacity; the retried query gets a fresh id and
    // its own (solo) wave.
    let id = server.enqueue(bfs(&handle, 3)).unwrap();
    assert_eq!(id, 3);
    let second = server.drain(&session);
    assert_eq!(second.len(), 1);
    assert_eq!(second[0].id, 3);
    assert_eq!(second[0].lanes, 1);
    let stats = server.stats();
    assert_eq!(stats.admitted, 4);
    assert_eq!(stats.rejected, 1);
}

/// `GraphRConfig`'s fields are public, so a session configuration written
/// as a struct literal skips the builder's checks. The session checks it
/// again at every submit: a crossbar wider than the byte-wide tile
/// coordinates can address (they would wrap and corrupt distances) or of
/// zero width (a division by zero), no ADC (a panic in the cost model),
/// an out-of-range programming serialisation or a slicer too narrow for
/// the spec fails the submit with a configuration error, and so does a
/// cluster with no nodes or a link that is not a positive finite
/// bandwidth. The check also runs on a warm cache.
#[test]
fn invalid_per_job_geometry_fails_only_its_job() {
    let handle = GraphHandle::new("geometry", Rmat::new(1000, 3000).seed(7).generate());
    let session = Session::new(small_config());
    session
        .submit(&bfs(&handle, 0))
        .expect("a valid session runs");
    let literals = [
        GraphRConfig {
            crossbar_size: 512,
            ..small_config()
        },
        GraphRConfig {
            crossbar_size: 0,
            ..small_config()
        },
        GraphRConfig {
            adcs_per_ge: 0,
            ..small_config()
        },
        GraphRConfig {
            program_row_serialization: 0,
            ..small_config()
        },
        GraphRConfig {
            program_row_serialization: 5,
            ..small_config()
        },
        GraphRConfig {
            slicer: BitSlicer::new(4, 2).unwrap(),
            ..small_config()
        },
    ];
    let is_config_error =
        |err: &RuntimeError| matches!(err, RuntimeError::Sim(SimError::Config(_)));
    for config in &literals {
        let err = Session::new(config.clone())
            .submit(&bfs(&handle, 0))
            .unwrap_err();
        assert!(is_config_error(&err), "{config:?}: {err}");
        // The warm session's cache holds this geometry's tiling whenever
        // the tiling key matches; the lookup still rejects the config.
        assert!(
            matches!(
                session.tiled(&handle, GraphVariant::Forward, config),
                Err(SimError::Config(_))
            ),
            "{config:?}"
        );
        session.submit(&bfs(&handle, 0)).expect("the next job runs");
    }

    let no_nodes = MultiNodeConfig {
        nodes: 0,
        ..MultiNodeConfig::pcie_cluster(1)
    };
    let bad_links = [0.0, -1.0, f64::NAN].map(|interconnect_gbps| MultiNodeConfig {
        interconnect_gbps,
        ..MultiNodeConfig::pcie_cluster(2)
    });
    for cluster in bad_links.into_iter().chain([no_nodes]) {
        let bad = Session::new(small_config()).with_cluster(cluster);
        let err = bad.submit(&bfs(&handle, 0)).unwrap_err();
        assert!(is_config_error(&err), "{cluster:?}: {err}");
    }
}
