//! `serve_mixed`: a closed loop with one client over a warm `Session`.
//! Each round enqueues 8 BFS, 4 SSSP and 1 WCC query on a 4,096-vertex,
//! 40 K-edge R-MAT graph, drains the server, and scrapes its stats as
//! Prometheus text. Every eighth round one BFS source is out of range:
//! that query must fail with `BadSource`, and its whole wave is retried
//! one query at a time.

use std::collections::BTreeMap;
use std::time::Instant;

use graphr_core::sim::{SimError, TraversalOptions};
use graphr_core::stats::StatsRegistry;
use graphr_graph::algorithms::wcc::wcc;
use graphr_graph::generators::rmat::Rmat;
use graphr_graph::{Csr, GraphHandle};
use graphr_runtime::{
    GraphVariant, Job, JobOutput, JobSpec, QueryResult, RuntimeError, ServeConfig, Server, Session,
};

use crate::check::{bfs_gold, sssp_gold, traversal_ok, Digest};
use crate::profile::{reattribute, span, Layer};
use crate::workload::{config, preprocess, Rng, Round, Setup, Workload};

const VERTICES: usize = 4_096;
const EDGES: usize = 40_000;
const BFS: usize = 8;
const SSSP: usize = 4;
const POISON_EVERY: usize = 8;

/// One query of a round and the outcome it must have.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// BFS from a source; out of range means it must fail.
    Bfs(u32),
    /// SSSP from a source.
    Sssp(u32),
    /// Weakly connected components.
    Wcc,
}

/// The seeded R-MAT graph, with integer weights in `1..=8` for SSSP.
pub fn graph(seed: u64) -> GraphHandle {
    let g = Rmat::new(VERTICES, EDGES)
        .seed(seed)
        .max_weight(8)
        .generate();
    GraphHandle::new("rmat-4k", g)
}

/// Round `index`'s queries, in enqueue order.
pub fn queries(seed: u64, index: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed, 1 + index as u64);
    let mut source = || rng.below(VERTICES as u64) as u32;
    let mut out: Vec<Query> = (0..BFS).map(|_| Query::Bfs(source())).collect();
    out.extend((0..SSSP).map(|_| Query::Sssp(source())));
    out.push(Query::Wcc);
    if index % POISON_EVERY == POISON_EVERY - 1 {
        let victim = source() as usize % BFS;
        out[victim] = Query::Bfs(VERTICES as u32 + source());
    }
    out
}

pub struct ServeMixed {
    seed: u64,
    handle: GraphHandle,
    csr: Csr,
    gold_wcc: Vec<u32>,
    session: Session,
    /// One server per pass (untraced, traced): each carries its own
    /// simulated service clock through the rounds.
    servers: [Server; 2],
}

impl ServeMixed {
    /// Generates the inputs and warms `reps` fresh sessions, keeping the
    /// last. The tiler, skeleton and index builds of both graph variants
    /// the session caches are timed once more, directly, for the
    /// per-layer split.
    pub fn setup(seed: u64, reps: usize) -> (Self, Setup) {
        let handle = graph(seed);
        let mut setup = Setup::default();
        let mut session = None;
        for _ in 0..reps {
            let start = Instant::now();
            let warm = Session::new(config());
            for variant in [GraphVariant::Forward, GraphVariant::Symmetrised] {
                warm.tiled(&handle, variant, warm.config())
                    .expect("benchmark geometry tiles");
            }
            setup.total_s.push(start.elapsed().as_secs_f64());
            session = Some(warm);
        }
        let mut parts = Setup::default();
        let symmetrised = graphr_core::sim::symmetrised(handle.graph());
        for g in [handle.graph(), &symmetrised] {
            preprocess(g, &config(), &mut parts);
        }
        setup.tile_s.push(parts.tile_s.iter().sum());
        setup.skeleton_s.push(parts.skeleton_s.iter().sum());
        setup.index_s.push(parts.index_s.iter().sum());
        let csr = handle.graph().to_csr();
        let gold_wcc = wcc(handle.graph()).labels;
        let w = ServeMixed {
            seed,
            handle,
            csr,
            gold_wcc,
            session: session.expect("at least one set-up"),
            servers: [
                Server::new(ServeConfig::default()),
                Server::new(ServeConfig::default()),
            ],
        };
        (w, setup)
    }

    fn job(&self, query: &Query) -> Job {
        let traversal = |source| TraversalOptions {
            source,
            ..TraversalOptions::default()
        };
        let spec = match *query {
            Query::Bfs(s) => JobSpec::Bfs(traversal(s)),
            Query::Sssp(s) => JobSpec::Sssp(traversal(s)),
            Query::Wcc => JobSpec::Wcc,
        };
        Job::new(self.handle.clone(), spec)
    }

    /// Whether one query's outcome is the expected one.
    fn outcome_ok(&self, query: &Query, result: &QueryResult) -> bool {
        match (query, &result.report) {
            (Query::Bfs(s), Err(RuntimeError::Sim(SimError::BadSource { .. }))) => {
                *s as usize >= VERTICES
            }
            (_, Err(_)) => false,
            (query, Ok(report)) => match (query, &report.output) {
                (Query::Bfs(s), JobOutput::Traversal(run)) => {
                    (*s as usize) < VERTICES && traversal_ok(run, &bfs_gold(&self.csr, *s))
                }
                (Query::Sssp(s), JobOutput::Traversal(run)) => {
                    traversal_ok(run, &sssp_gold(&self.csr, *s))
                }
                (Query::Wcc, JobOutput::Wcc(run)) => {
                    run.labels == self.gold_wcc && run.metrics.validate().is_ok()
                }
                _ => false,
            },
        }
    }
}

impl Workload for ServeMixed {
    fn round(&mut self, index: usize, traced: bool) -> Round {
        let queries = queries(self.seed, index);
        let jobs: Vec<Job> = queries.iter().map(|q| self.job(q)).collect();
        let server = &mut self.servers[usize::from(traced)];
        let start = Instant::now();
        span(Layer::Serve, || {
            for job in jobs {
                server.enqueue(job).expect("queue holds a round");
            }
        });
        let results = span(Layer::Serve, || server.drain(&self.session));
        let prometheus = span(Layer::Stats, || {
            let mut registry = StatsRegistry::new();
            server.collect_stats(&mut registry);
            registry.render_prometheus()
        });
        let wall = start.elapsed();

        let mut round = Round {
            wall,
            queries: queries.len() as u64,
            ..Round::default()
        };
        let mut digest = Digest::default();
        // Distinct executions: a fused wave is one run shared by its
        // members; every lanes == 1 result is a run of its own.
        let mut fused: BTreeMap<u64, usize> = BTreeMap::new();
        let mut solo_per_wave: BTreeMap<u64, u64> = BTreeMap::new();
        for (query, result) in queries.iter().zip(&results) {
            if !self.outcome_ok(query, result) {
                round.failed += 1;
            }
            digest.debug(&(result.id, result.wave, result.lanes));
            digest.debug(&(
                result.arrival_ns,
                result.wait_ns,
                result.service_ns,
                result.latency_ns,
            ));
            let first_of_run = if result.lanes > 1 {
                fused.insert(result.wave, result.lanes).is_none()
            } else {
                *solo_per_wave.entry(result.wave).or_default() += 1;
                true
            };
            match &result.report {
                Ok(report) => {
                    digest_output(&mut digest, &report.output);
                    digest.debug(&(report.cache_hits, report.cache_misses));
                    if first_of_run {
                        let f = &mut round.facts;
                        f.add_metrics(report.output.metrics());
                        f.session_ns += report.wall.as_nanos() as u64;
                        f.cache_hits += report.cache_hits;
                        f.cache_misses += report.cache_misses;
                    }
                }
                Err(e) => digest.bytes(e.to_string().as_bytes()),
            }
        }
        let f = &mut round.facts;
        f.fused_waves = fused.len() as u64;
        f.solo_runs = solo_per_wave.values().sum();
        f.lanes = fused.values().sum::<usize>() as u64 + f.solo_runs;
        // Several solo runs under one wave index are a poisoned wave
        // retried one query at a time.
        f.retried = solo_per_wave.values().filter(|&&n| n > 1).sum();
        digest.bytes(prometheus.as_bytes());
        reattribute(Layer::Serve, Layer::Session, f.session_ns);
        round.digest = digest.value();
        round
    }

    fn min_rounds(&self) -> usize {
        100
    }
}

/// Folds a job's functional result and simulated accounting into `digest`.
fn digest_output(digest: &mut Digest, output: &JobOutput) {
    match output {
        JobOutput::Traversal(run) => digest.debug(&run.distances),
        JobOutput::Wcc(run) => digest.debug(&(&run.labels, run.num_components)),
        JobOutput::Scalar(run) => digest.debug(&run.values),
        JobOutput::Cf(run) => digest.debug(&run.rmse_history),
    }
    digest.metrics(output.metrics());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(graph(2).graph().edges(), graph(2).graph().edges());
        assert_ne!(graph(2).graph().edges(), graph(3).graph().edges());
        assert_eq!(queries(2, 7), queries(2, 7));
        assert_ne!(queries(2, 7), queries(3, 7));
    }

    #[test]
    fn a_poisoned_query_that_succeeds_is_a_failure() {
        let (w, _) = ServeMixed::setup(2, 1);
        let ok = w.session.submit(&w.job(&Query::Bfs(5))).unwrap();
        let result = |report| QueryResult {
            id: 0,
            wave: 0,
            lanes: 1,
            arrival_ns: 0,
            wait_ns: 0,
            service_ns: 0,
            latency_ns: 0,
            report,
        };
        let bad_source = || {
            Err(RuntimeError::Sim(SimError::BadSource {
                source: VERTICES as u32,
                num_vertices: VERTICES,
            }))
        };
        let poisoned = Query::Bfs(VERTICES as u32);
        assert!(w.outcome_ok(&Query::Bfs(5), &result(Ok(ok.clone()))));
        assert!(w.outcome_ok(&poisoned, &result(bad_source())));
        assert!(!w.outcome_ok(&poisoned, &result(Ok(ok.clone()))));
        assert!(!w.outcome_ok(&Query::Bfs(5), &result(bad_source())));
        assert!(!w.outcome_ok(&Query::Bfs(6), &result(Ok(ok))));
    }

    #[test]
    fn a_fixed_share_of_rounds_is_poisoned() {
        let poisoned = |q: &Vec<Query>| {
            q.iter()
                .filter(|q| matches!(q, Query::Bfs(s) if *s as usize >= VERTICES))
                .count()
        };
        for index in 0..32 {
            let expected = usize::from(index % POISON_EVERY == POISON_EVERY - 1);
            assert_eq!(poisoned(&queries(11, index)), expected);
        }
    }
}
