//! Integration tests of the `graphr-runtime` service layer: a multi-thread
//! session must be observationally indistinguishable from the one-thread
//! reference — bit-identical results and identical `Metrics` totals — for
//! every application, and a warm session must skip preprocessing.

use graphr_repro::core::sim::{
    run_bfs, run_cf, run_pagerank, run_spmv, run_sssp, run_wcc, CfOptions, PageRankOptions,
    SpmvOptions, TraversalOptions,
};
use graphr_repro::core::GraphRConfig;
use graphr_repro::graph::generators::bipartite::RatingMatrix;
use graphr_repro::graph::generators::rmat::Rmat;
use graphr_repro::graph::GraphHandle;
use graphr_runtime::{Job, JobOutput, JobSpec, Session};

fn test_config() -> GraphRConfig {
    GraphRConfig::builder()
        .crossbar_size(4)
        .crossbars_per_ge(8)
        .num_ges(2)
        .build()
        .expect("valid test geometry")
}

fn rmat_handle() -> GraphHandle {
    // Weights ≥ 1 so the same graph drives SSSP too.
    GraphHandle::new(
        "rmat-250",
        Rmat::new(250, 1500).seed(42).max_weight(9).generate(),
    )
}

/// Submits the same spec on one and on four workers against fresh
/// sessions and asserts bit-identical outputs (results **and** metrics —
/// `JobOutput`'s `PartialEq` covers both).
fn assert_modes_agree(handle: &GraphHandle, spec: JobSpec) -> JobOutput {
    let serial = Session::new(test_config())
        .with_threads(1)
        .submit(&Job::new(handle.clone(), spec.clone()))
        .expect("serial run");
    let parallel = Session::new(test_config())
        .with_threads(4)
        .submit(&Job::new(handle.clone(), spec.clone()))
        .expect("parallel run");
    assert_eq!(
        serial.output,
        parallel.output,
        "{}: serial and parallel runs must be bit-identical",
        spec.name()
    );
    serial
        .output
        .metrics()
        .validate()
        .unwrap_or_else(|e| panic!("{}: inconsistent serial metrics: {e}", spec.name()));
    parallel
        .output
        .metrics()
        .validate()
        .unwrap_or_else(|e| panic!("{}: inconsistent parallel metrics: {e}", spec.name()));
    parallel.output
}

#[test]
fn pagerank_serial_parallel_identical_with_gold_metrics() {
    let handle = rmat_handle();
    let opts = PageRankOptions::default();
    let output = assert_modes_agree(&handle, JobSpec::PageRank(opts));
    // Also identical to calling the plain sim driver directly.
    let gold = run_pagerank(handle.graph(), &test_config(), &opts).expect("gold run");
    match output {
        JobOutput::Scalar(run) => {
            assert_eq!(run.values, gold.values);
            assert_eq!(run.metrics, gold.metrics);
        }
        other => panic!("unexpected output {other:?}"),
    }
}

#[test]
fn sssp_serial_parallel_identical_with_gold_metrics() {
    let handle = rmat_handle();
    let opts = TraversalOptions::default();
    let output = assert_modes_agree(&handle, JobSpec::Sssp(opts));
    let gold = run_sssp(handle.graph(), &test_config(), &opts).expect("gold run");
    match output {
        JobOutput::Traversal(run) => {
            assert_eq!(run.distances, gold.distances);
            assert_eq!(run.metrics, gold.metrics);
        }
        other => panic!("unexpected output {other:?}"),
    }
}

#[test]
fn spmv_serial_parallel_identical() {
    let handle = rmat_handle();
    let output = assert_modes_agree(&handle, JobSpec::Spmv(SpmvOptions::default()));
    let gold = run_spmv(handle.graph(), &test_config(), &SpmvOptions::default()).expect("gold");
    match output {
        JobOutput::Scalar(run) => assert_eq!(run, gold),
        other => panic!("unexpected output {other:?}"),
    }
}

#[test]
fn bfs_serial_parallel_identical() {
    let handle = rmat_handle();
    let opts = TraversalOptions {
        source: 3,
        ..TraversalOptions::default()
    };
    let output = assert_modes_agree(&handle, JobSpec::Bfs(opts));
    let gold = run_bfs(handle.graph(), &test_config(), &opts).expect("gold");
    match output {
        JobOutput::Traversal(run) => assert_eq!(run, gold),
        other => panic!("unexpected output {other:?}"),
    }
}

#[test]
fn wcc_serial_parallel_identical() {
    let handle = rmat_handle();
    let output = assert_modes_agree(&handle, JobSpec::Wcc);
    let gold = run_wcc(handle.graph(), &test_config()).expect("gold");
    match output {
        JobOutput::Wcc(run) => assert_eq!(run, gold),
        other => panic!("unexpected output {other:?}"),
    }
}

#[test]
fn cf_serial_parallel_identical() {
    let m = RatingMatrix::new(60, 20, 900).seed(5).generate();
    let handle = GraphHandle::bipartite("ratings", m.graph().clone(), 60, 20);
    let opts = CfOptions {
        features: 8,
        epochs: 3,
        ..CfOptions::default()
    };
    let output = assert_modes_agree(&handle, JobSpec::Cf(opts));
    let gold = run_cf(handle.graph(), 60, 20, &test_config(), &opts).expect("gold");
    match output {
        JobOutput::Cf(run) => assert_eq!(run, gold),
        other => panic!("unexpected output {other:?}"),
    }
}

#[test]
fn pruned_plans_are_bit_identical_under_the_parallel_executor() {
    // The smaller graph's plans all stay below the executor's fan-out
    // cutoff, so every multi-worker scan on it runs inline; the larger
    // graph's middle rounds fan out.
    check_pruned_sweep(260, 1600, &[0, 17, 130, 0], false);
    check_pruned_sweep(1000, 8000, &[0, 17, 500, 0], true);
}

/// SSSP runs on an R-MAT graph of `n` vertices and `edges` edges, every
/// iteration executing the frontier-pruned plan, must be bit-identical at
/// every worker count. `fans_out` says whether the multi-worker executors
/// must run both scan paths (else they must run every scan inline).
fn check_pruned_sweep(n: usize, edges: usize, sources: &[usize], fans_out: bool) {
    use graphr_repro::core::exec::mask::FrontierMask;
    use graphr_repro::core::exec::{EdgeValueFn, ScanEngine, StreamingExecutor};
    use graphr_repro::core::TiledGraph;
    use graphr_repro::units::FixedSpec;

    let g = Rmat::new(n, edges).seed(17).max_weight(9).generate();
    let cfg = test_config();
    let tiled = TiledGraph::preprocess(&g, &cfg).expect("valid geometry");
    let spec = FixedSpec::new(16, 0).expect("Q16.0 is valid");
    let inf = spec.max_value();

    // Early and late rounds plan fewer units than the widest worker count
    // below.
    let run = |exec: &mut StreamingExecutor<'_>, source: usize| {
        let mut dist = vec![inf; n];
        dist[source] = 0.0;
        let mut active = FrontierMask::new(n);
        active.set(source);
        let mut rows_history = Vec::new();
        for _ in 0..n {
            let plan = exec.plan(Some(&active));
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
        (dist, rows_history, exec.take_metrics())
    };

    // One long-lived executor per worker count runs several traversals
    // back to back — hundreds of consecutive scans on the same scanners —
    // and must match the one-thread reference traversal for traversal:
    // distances, per-round activations and full Metrics. Scratch leaking
    // from one scan into the next would break this.
    let mut reference_exec = StreamingExecutor::new(&tiled, &cfg, spec);
    let reference: Vec<_> = sources
        .iter()
        .map(|&s| run(&mut reference_exec, s))
        .collect();
    let (_, _, first) = &reference[0];
    assert!(
        first.events.subgraphs_pruned > 0,
        "the sparse frontier must actually prune"
    );
    first
        .validate()
        .expect("pruned-run metrics must be consistent");
    for threads in [1, 2, 3, 7] {
        let mut exec = StreamingExecutor::new(&tiled, &cfg, spec).with_threads(threads);
        for (&source, (ds, rs, ms)) in sources.iter().zip(&reference) {
            let (dp, rp, mp) = run(&mut exec, source);
            assert_eq!(
                ds, &dp,
                "distances must be bit-identical ({threads} threads, source {source})"
            );
            assert_eq!(
                rs, &rp,
                "activations must match ({threads} threads, source {source})"
            );
            assert_eq!(
                ms, &mp,
                "metrics must be identical ({threads} threads, source {source})"
            );
        }
        let [inline, fanned_out] = exec.scan_paths();
        assert!(inline > 0, "{threads} threads: small plans must run inline");
        assert_eq!(
            fanned_out > 0,
            fans_out && threads > 1,
            "{threads} threads, {edges} edges: scans fanned out {fanned_out} times"
        );
    }
}

#[test]
fn warm_session_reuses_preprocessing_across_applications() {
    let session = Session::new(test_config()).with_threads(2);
    let handle = rmat_handle();
    // PageRank tiles the forward graph cold...
    let pr = session
        .submit(&Job::new(
            handle.clone(),
            JobSpec::PageRank(PageRankOptions::default()),
        ))
        .expect("pagerank");
    assert_eq!(pr.cache_hits, 0);
    // ...SSSP reuses the very same tiling (both scan the forward graph)...
    let sssp = session
        .submit(&Job::new(
            handle.clone(),
            JobSpec::Sssp(TraversalOptions::default()),
        ))
        .expect("sssp");
    assert!(sssp.cache_hits > 0, "sssp must reuse the cached tiling");
    // ...and a resubmission is a pure cache hit.
    let again = session
        .submit(&Job::new(
            handle,
            JobSpec::PageRank(PageRankOptions::default()),
        ))
        .expect("pagerank again");
    assert!(again.cache_hits > 0);
    let stats = session.cache_stats();
    assert_eq!(stats.misses, 1, "the tiler must have run exactly once");
    assert_eq!(stats.entries, 1);
}

#[test]
fn batch_submission_matches_individual_submission() {
    let handle = rmat_handle();
    let jobs: Vec<Job> = vec![
        Job::new(
            handle.clone(),
            JobSpec::PageRank(PageRankOptions::default()),
        ),
        Job::new(handle.clone(), JobSpec::Sssp(TraversalOptions::default())),
        Job::new(handle.clone(), JobSpec::Spmv(SpmvOptions::default())),
        Job::new(handle.clone(), JobSpec::Bfs(TraversalOptions::default())),
    ];
    let batch_session = Session::new(test_config()).with_threads(4);
    let batch: Vec<JobOutput> = batch_session
        .submit_batch(&jobs)
        .into_iter()
        .map(|r| r.expect("batch job").output)
        .collect();
    let solo_session = Session::new(test_config()).with_threads(4);
    for (job, batch_output) in jobs.iter().zip(&batch) {
        let solo = solo_session.submit(job).expect("solo job");
        assert_eq!(&solo.output, batch_output, "{} diverged", job.spec.name());
    }
}
