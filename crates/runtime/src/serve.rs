//! `graphr-serve`: a long-lived query service with admission control and
//! fused batching over a [`Session`].
//!
//! The session executes jobs; the server decides *which* jobs to run
//! *together*. Queries enter a bounded FIFO queue ([`Server::enqueue`],
//! rejected with [`AdmissionError::QueueFull`] past capacity) and are
//! executed by [`Server::drain`], which walks the queue in submission
//! order and **coalesces compatible traversal queries into fused waves**:
//! queued BFS/SSSP/WCC queries on the same graph with the same
//! application, options, and execution settings (see
//! [`Job::fusable_with`]) become one [`Session::submit_fused`] run — one
//! frontier lane per query, one scan of each iteration's union plan for
//! all of them. Queries that cannot fuse (PageRank/SpMV/CF, or a
//! traversal with no compatible neighbour) run alone through
//! [`Session::submit`] — for a traversal, the one-lane case of the same
//! fused loop.
//!
//! Scheduling is FIFO-fair: waves execute in the order of their earliest
//! member, a wave never takes more than [`ServeConfig::max_lanes`]
//! queries (more than [`MAX_LANES`] compatible queries split into
//! successive waves; `max_lanes: 1` runs every query alone), and results
//! always come back in submission order.
//! Fusion never changes answers — each query's results and per-lane
//! attribution are bit-identical to a solo submission (the determinism
//! contract extended; see `tests/lane_fusion.rs`).
//!
//! # The simulated service clock
//!
//! The server keeps a **simulated clock** in whole nanoseconds: queries
//! are stamped with the clock at [`Server::enqueue`] (their *arrival*),
//! and during a [`Server::drain`] the clock advances by each executed
//! run's simulated [`total_time`](graphr_core::Metrics::total_time) in
//! execution order. That yields, per query,
//!
//! * **wait** — wave start − arrival (time spent queued),
//! * **service** — the executing run's simulated time, and
//! * **latency** — exactly `wait + service` (integer nanoseconds, so the
//!   identity is exact, not float-approximate),
//!
//! carried on every [`QueryResult`] and recorded into the server's
//! [`ServeLatency`] histograms (latency, wait, service, plus wave lane
//! occupancy) by one helper for solo and fused runs alike. Because the
//! clock is driven purely by simulated run time, every latency statistic
//! inherits the determinism contract: sessions at any thread count,
//! one-node-cluster sessions — and reruns — produce bit-identical
//! histograms. [`Server::collect_stats`] snapshots the
//! counters and histograms into a
//! [`graphr_core::stats::StatsRegistry`] for exposition (the CLI's
//! `--stats`).

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use graphr_core::exec::MAX_LANES;
use graphr_core::stats::{Histogram, StatsRegistry};
use graphr_units::Nanos;

use crate::job::{Job, JobReport};
use crate::session::{RuntimeError, Session};

/// A simulated duration as whole nanoseconds (round-to-nearest). The
/// simulation produces bit-identical [`Nanos`] across engines, so this
/// conversion is deterministic too.
fn sim_ns(duration: Nanos) -> u64 {
    duration.as_nanos().max(0.0).round() as u64
}

/// Service-level policy of a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Admission control: queries beyond this many queued are rejected.
    pub queue_capacity: usize,
    /// Widest fused wave the scheduler builds (clamped to
    /// `1..=`[`MAX_LANES`]); `1` runs every query alone (the ablation /
    /// debugging mode).
    pub max_lanes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 1024,
            max_lanes: MAX_LANES,
        }
    }
}

/// Why [`Server::enqueue`] refused a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The queue is at capacity; retry after a drain.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(f, "serve queue full ({capacity} queries); drain first")
            }
        }
    }
}

impl Error for AdmissionError {}

/// Service observability counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Queries admitted into the queue.
    pub admitted: u64,
    /// Queries refused by admission control.
    pub rejected: u64,
    /// Fused waves executed (two or more lanes each).
    pub waves: u64,
    /// Queries that rode a fused wave.
    pub fused: u64,
    /// Queries executed alone.
    pub solo: u64,
}

/// Simulated-clock latency distributions of a server's lifetime, all in
/// integer domains (whole nanoseconds / lane counts) so they are
/// bit-identical across engines and reruns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeLatency {
    /// End-to-end query latency (`wait + service`), nanoseconds.
    pub latency: Histogram,
    /// Queue wait (wave start − arrival), nanoseconds.
    pub wait: Histogram,
    /// Service time (the executing run's simulated time), nanoseconds.
    pub service: Histogram,
    /// Lanes occupied per executed machine run (a fused wave records its
    /// width once; a solo run records 1).
    pub occupancy: Histogram,
}

/// One completed query: its report plus how the scheduler ran it.
#[derive(Debug)]
pub struct QueryResult {
    /// The ticket [`Server::enqueue`] returned for this query.
    pub id: u64,
    /// Index of the execution wave within the drain that ran it.
    pub wave: u64,
    /// Queries that shared the fused run (1 = ran alone).
    pub lanes: usize,
    /// Simulated clock at [`Server::enqueue`], nanoseconds.
    pub arrival_ns: u64,
    /// Simulated queue wait: wave start − arrival.
    pub wait_ns: u64,
    /// Simulated service time of the run that executed this query (a
    /// fused query reports its wave's time; 0 when the run failed).
    pub service_ns: u64,
    /// End-to-end simulated latency, exactly `wait_ns + service_ns`.
    pub latency_ns: u64,
    /// The per-query report — for a fused query, machine metrics are the
    /// wave's totals and the single `lanes` row is this query's own
    /// attribution (see [`Session::submit_fused`]).
    pub report: Result<JobReport, RuntimeError>,
}

/// One queued query awaiting execution.
#[derive(Debug)]
struct Pending {
    id: u64,
    job: Job,
    /// Simulated clock at admission.
    arrival_ns: u64,
}

/// The serve-layer scheduler: a bounded FIFO query queue that drains
/// through a [`Session`], fusing compatible traversals into waves.
#[derive(Debug, Default)]
pub struct Server {
    config: ServeConfig,
    queue: VecDeque<Pending>,
    next_id: u64,
    stats: ServeStats,
    /// Simulated service clock, whole nanoseconds: advances by each
    /// executed run's simulated time during [`Server::drain`].
    clock_ns: u64,
    latency: ServeLatency,
}

impl Server {
    /// A server with the given policy.
    #[must_use]
    pub fn new(config: ServeConfig) -> Self {
        Server {
            config,
            ..Server::default()
        }
    }

    /// The configured policy.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Queries currently queued.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Counters accumulated over the server's lifetime.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Simulated-clock latency distributions accumulated over the
    /// server's lifetime.
    #[must_use]
    pub fn latency(&self) -> &ServeLatency {
        &self.latency
    }

    /// The simulated service clock, whole nanoseconds: the sum of every
    /// simulated run time this server has executed.
    #[must_use]
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Snapshots the server's counters and latency histograms into a
    /// [`StatsRegistry`], under `graphr_serve_*` metric names. Purely
    /// observational — collecting never perturbs the scheduler or the
    /// simulated clock, so reports stay bit-identical with or without a
    /// collection pass.
    pub fn collect_stats(&self, registry: &mut StatsRegistry) {
        let s = &self.stats;
        registry.counter(
            "graphr_serve_admitted_total",
            "queries admitted into the serve queue",
            s.admitted,
        );
        registry.counter(
            "graphr_serve_rejected_total",
            "queries refused by admission control",
            s.rejected,
        );
        registry.counter(
            "graphr_serve_waves_total",
            "fused waves executed (two or more lanes)",
            s.waves,
        );
        registry.counter(
            "graphr_serve_coalesced_total",
            "queries that rode a fused wave",
            s.fused,
        );
        registry.counter("graphr_serve_solo_total", "queries executed alone", s.solo);
        registry.gauge(
            "graphr_serve_queue_depth",
            "queries currently queued",
            self.queue.len() as i64,
        );
        registry.counter(
            "graphr_serve_clock_ns",
            "simulated service clock (sum of executed run times)",
            self.clock_ns,
        );
        registry.histogram(
            "graphr_serve_latency_ns",
            "end-to-end simulated query latency (wait + service)",
            &self.latency.latency,
        );
        registry.histogram(
            "graphr_serve_wait_ns",
            "simulated queue wait (wave start - arrival)",
            &self.latency.wait,
        );
        registry.histogram(
            "graphr_serve_service_ns",
            "simulated service time of the executing run",
            &self.latency.service,
        );
        registry.histogram(
            "graphr_serve_wave_occupancy_lanes",
            "lanes occupied per executed machine run",
            &self.latency.occupancy,
        );
    }

    /// Admits one query, returning its ticket; results of a later
    /// [`Server::drain`] carry the same id. The query's arrival is
    /// stamped with the current simulated clock.
    ///
    /// # Errors
    ///
    /// Returns [`AdmissionError::QueueFull`] when the queue is at
    /// [`ServeConfig::queue_capacity`].
    pub fn enqueue(&mut self, job: Job) -> Result<u64, AdmissionError> {
        if self.queue.len() >= self.config.queue_capacity.max(1) {
            self.stats.rejected += 1;
            return Err(AdmissionError::QueueFull {
                capacity: self.config.queue_capacity.max(1),
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.stats.admitted += 1;
        self.queue.push_back(Pending {
            id,
            job,
            arrival_ns: self.clock_ns,
        });
        Ok(id)
    }

    /// Executes everything queued and returns one result per query, in
    /// submission order.
    ///
    /// The scheduler walks the queue front to back. Each unclaimed query
    /// starts a wave; when the query is fusable, the rest of the queue is
    /// scanned (in order) for compatible queries until the wave is
    /// [`ServeConfig::max_lanes`] wide — later compatible queries are
    /// pulled *forward into the wave's execution* but never reordered in
    /// the returned results. A wave that fails as a whole (e.g. one
    /// lane's source is out of range) is retried one query at a time, so
    /// a poisoned query only fails itself.
    pub fn drain(&mut self, session: &Session) -> Vec<QueryResult> {
        let pending: Vec<Pending> = self.queue.drain(..).collect();
        let mut claimed = vec![false; pending.len()];
        let mut results: Vec<Option<QueryResult>> = Vec::new();
        results.resize_with(pending.len(), || None);
        let max_lanes = self.config.max_lanes.clamp(1, MAX_LANES);
        let mut wave = 0u64;
        for head in 0..pending.len() {
            if claimed[head] {
                continue;
            }
            claimed[head] = true;
            let mut members = vec![head];
            if pending[head].job.is_fusable() {
                for cand in head + 1..pending.len() {
                    if members.len() >= max_lanes {
                        break;
                    }
                    if !claimed[cand] && pending[head].job.fusable_with(&pending[cand].job) {
                        claimed[cand] = true;
                        members.push(cand);
                    }
                }
            }
            if members.len() > 1 {
                let jobs: Vec<Job> = members.iter().map(|&i| pending[i].job.clone()).collect();
                match session.submit_fused(&jobs) {
                    Ok(reports) => {
                        self.stats.waves += 1;
                        self.stats.fused += members.len() as u64;
                        let reports = reports.into_iter().map(Ok).collect();
                        self.record_run(&pending, &members, wave, reports, &mut results);
                    }
                    Err(_) => {
                        // One lane poisoned the wave; isolate the failure
                        // by retrying each member alone.
                        for &i in &members {
                            self.run_solo(session, &pending, i, wave, &mut results);
                        }
                    }
                }
            } else {
                self.run_solo(session, &pending, head, wave, &mut results);
            }
            wave += 1;
        }
        results
            .into_iter()
            .map(|r| r.expect("every pending query is claimed by exactly one wave"))
            .collect()
    }

    /// Executes query `i` alone and records it on the simulated clock.
    fn run_solo(
        &mut self,
        session: &Session,
        pending: &[Pending],
        i: usize,
        wave: u64,
        results: &mut [Option<QueryResult>],
    ) {
        self.stats.solo += 1;
        let report = session.submit(&pending[i].job);
        self.record_run(pending, &[i], wave, vec![report], results);
    }

    /// Records one machine run — a lone query or a fused wave, one report
    /// per member — on the simulated clock and files its results. The run
    /// starts now, the clock advances by its simulated time, and every
    /// member shares that service time. A failed run consumed no
    /// simulated time — admission-style validation errors happen before
    /// any scan — so it leaves the clock untouched and stays out of the
    /// completed-query distributions.
    fn record_run(
        &mut self,
        pending: &[Pending],
        members: &[usize],
        wave: u64,
        reports: Vec<Result<JobReport, RuntimeError>>,
        results: &mut [Option<QueryResult>],
    ) {
        let start_ns = self.clock_ns;
        let service_ns = reports
            .iter()
            .find_map(|r| r.as_ref().ok())
            .map_or(0, |r| sim_ns(r.output.metrics().total_time()));
        self.clock_ns += service_ns;
        if reports.iter().any(Result::is_ok) {
            self.latency.occupancy.record(members.len() as u64);
        }
        for (&i, report) in members.iter().zip(reports) {
            let wait_ns = start_ns - pending[i].arrival_ns;
            let latency_ns = wait_ns + service_ns;
            if report.is_ok() {
                self.latency.wait.record(wait_ns);
                self.latency.service.record(service_ns);
                self.latency.latency.record(latency_ns);
            }
            results[i] = Some(QueryResult {
                id: pending[i].id,
                wave,
                lanes: members.len(),
                arrival_ns: pending[i].arrival_ns,
                wait_ns,
                service_ns,
                latency_ns,
                report,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobOutput, JobSpec};
    use graphr_core::sim::TraversalOptions;
    use graphr_core::GraphRConfig;
    use graphr_graph::generators::rmat::Rmat;
    use graphr_graph::GraphHandle;

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

    #[test]
    fn admission_control_bounds_the_queue() {
        let handle = GraphHandle::new("adm", Rmat::new(64, 300).seed(1).generate());
        let mut server = Server::new(ServeConfig {
            queue_capacity: 2,
            ..ServeConfig::default()
        });
        assert_eq!(server.enqueue(bfs(&handle, 0)).unwrap(), 0);
        assert_eq!(server.enqueue(bfs(&handle, 1)).unwrap(), 1);
        assert_eq!(
            server.enqueue(bfs(&handle, 2)).unwrap_err(),
            AdmissionError::QueueFull { capacity: 2 }
        );
        let stats = server.stats();
        assert_eq!((stats.admitted, stats.rejected), (2, 1));

        let session = Session::new(small_config());
        let results = server.drain(&session);
        assert_eq!(results.len(), 2);
        assert_eq!(server.queued(), 0, "drain empties the queue");
        // Freed capacity admits again.
        assert_eq!(server.enqueue(bfs(&handle, 2)).unwrap(), 2);
    }

    #[test]
    fn compatible_queries_fuse_into_one_wave() {
        let handle = GraphHandle::new("fuse", Rmat::new(100, 600).seed(2).generate());
        let session = Session::new(small_config());
        let mut server = Server::new(ServeConfig::default());
        for source in [0, 3, 9, 40] {
            server.enqueue(bfs(&handle, source)).unwrap();
        }
        let results = server.drain(&session);
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|r| r.wave == 0 && r.lanes == 4));
        let stats = server.stats();
        assert_eq!((stats.waves, stats.fused, stats.solo), (1, 4, 0));
        // Fused answers and attribution are bit-identical to solo
        // submissions (machine-level metrics are the wave's totals, so
        // only the functional result and the lanes row compare).
        for (result, source) in results.iter().zip([0u32, 3, 9, 40]) {
            let solo = session.submit(&bfs(&handle, source)).unwrap();
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
    fn one_lane_budget_runs_every_query_alone() {
        let handle = GraphHandle::new("solo", Rmat::new(80, 400).seed(3).generate());
        let session = Session::new(small_config());
        let mut server = Server::new(ServeConfig {
            max_lanes: 1,
            ..ServeConfig::default()
        });
        server.enqueue(bfs(&handle, 0)).unwrap();
        server.enqueue(bfs(&handle, 1)).unwrap();
        let results = server.drain(&session);
        assert!(results.iter().all(|r| r.lanes == 1));
        assert_eq!(results[0].wave, 0);
        assert_eq!(results[1].wave, 1);
    }

    #[test]
    fn simulated_clock_orders_waves_and_prices_latency() {
        let handle = GraphHandle::new("clock", Rmat::new(100, 600).seed(5).generate());
        let session = Session::new(small_config());
        let mut server = Server::new(ServeConfig {
            max_lanes: 1,
            ..ServeConfig::default()
        });
        for source in [0, 1, 2] {
            server.enqueue(bfs(&handle, source)).unwrap();
        }
        let results = server.drain(&session);
        // All three arrived at clock 0; each wave starts when the
        // previous one finishes, so waits accumulate service times and
        // the identity latency = wait + service holds exactly.
        assert_eq!(results[0].wait_ns, 0, "first query never waits");
        let mut clock = 0u64;
        for r in &results {
            assert_eq!(r.arrival_ns, 0);
            assert_eq!(r.wait_ns, clock, "FIFO wave start = accumulated service");
            assert_eq!(r.latency_ns, r.wait_ns + r.service_ns);
            assert!(r.service_ns > 0, "a completed run took simulated time");
            clock += r.service_ns;
        }
        assert_eq!(server.clock_ns(), clock);
        let lat = server.latency();
        assert_eq!(lat.latency.count(), 3);
        assert_eq!(lat.occupancy.max(), 1);
        // Collection is observational and deterministic.
        let mut a = graphr_core::stats::StatsRegistry::new();
        server.collect_stats(&mut a);
        let mut b = graphr_core::stats::StatsRegistry::new();
        server.collect_stats(&mut b);
        assert_eq!(a.render_prometheus(), b.render_prometheus());
        assert!(a
            .render_prometheus()
            .contains("graphr_serve_latency_ns_p99"));
    }

    #[test]
    fn poisoned_wave_fails_only_the_bad_query() {
        let handle = GraphHandle::new("poison", Rmat::new(60, 250).seed(4).generate());
        let session = Session::new(small_config());
        let mut server = Server::new(ServeConfig::default());
        server.enqueue(bfs(&handle, 0)).unwrap();
        server.enqueue(bfs(&handle, 10_000)).unwrap(); // out of range
        server.enqueue(bfs(&handle, 5)).unwrap();
        let results = server.drain(&session);
        assert!(results[0].report.is_ok());
        assert!(results[1].report.is_err());
        assert!(results[2].report.is_ok());
        assert!(
            results.iter().all(|r| r.lanes == 1),
            "the wave fell back to solo retries"
        );
    }
}
