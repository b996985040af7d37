//! Run telemetry: structured trace events on the **simulated** clock.
//!
//! The paper's performance model is code instrumentation (§5.2);
//! [`Metrics`] is its run-end aggregate view.
//! This module is the per-iteration view: every layer emits structured
//! [`TraceEvent`]s into a shared [`TraceSink`] —
//!
//! * the `sim` drivers emit one [`TraceData::Iteration`] snapshot per
//!   algorithm iteration (frontier size plus the *deltas* every counter
//!   family accumulated that iteration),
//! * the engines ([`StreamingExecutor`](crate::exec::StreamingExecutor),
//!   the runtime's parallel executor, and each
//!   [`ClusterExecutor`](crate::multinode::ClusterExecutor) node shard)
//!   emit per-iteration [`TraceData::Compute`] spans on their node-local
//!   simulated clock,
//! * the planner emits [`TraceData::Plan`] events (rebuild vs patch,
//!   units touched, host planning time),
//! * the [`DiskAccountant`](crate::outofcore::DiskAccountant) emits
//!   [`TraceData::Disk`] windows (bytes, blocks, segments, overlap), and
//! * the [`NetAccountant`](crate::multinode::NetAccountant) emits
//!   [`TraceData::Exchange`] spans on the composed cluster clock.
//!
//! Two exporters serialise a sink: [`TraceSink::to_jsonl`] (one JSON
//! object per event) and [`TraceSink::to_chrome_trace`] (Chrome
//! trace-event format laid out on the simulated clock, one lane per node
//! for compute/disk plus an interconnect lane — a file Perfetto or
//! `chrome://tracing` opens directly).
//!
//! # Determinism contract
//!
//! Telemetry extends the repo-wide contract: the simulated-clock event
//! stream is **bit-identical** across the serial engine, the parallel
//! engine, and a one-node cluster, and across delta-patched vs
//! scratch-rebuilt planning (the [`TraceData::Plan`] events legitimately
//! differ there — they report planning *cost*, exactly like
//! [`PlanCounters`]). Host-measured fields live in [`HostTimes`], which
//! [`TraceEvent`]'s `PartialEq` deliberately ignores — the same split
//! [`PlanCounters::time`] established. Tracing only *observes* the
//! metrics: attaching or detaching a sink never changes results or
//! [`Metrics`] by construction, and the
//! `trace_telemetry` integration tests assert every clause.

use std::sync::{Arc, Mutex};

use graphr_units::Nanos;

use crate::json::JsonObject;
use crate::metrics::{
    write_counters, DiskCounters, EventCounters, Metrics, NetCounters, PlanCounters, TimeBreakdown,
};
use crate::outofcore::DiskWindow;

/// Host-measured wall-clock fields of a [`TraceEvent`] — excluded from
/// equality, mirroring [`PlanCounters::time`] (see the determinism notes
/// there and in the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTimes {
    /// Host wall-clock the event's planning work took (nonzero only for
    /// [`TraceData::Plan`] events).
    pub plan: Nanos,
}

/// One structured telemetry event. Everything except [`TraceEvent::host`]
/// is simulated and covered by the determinism contract; `PartialEq`
/// compares exactly that simulated part.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Sink-assigned job index (see [`TraceSink::begin_job`]).
    pub job: u32,
    /// Emitting node (0 for single-node engines and driver-level events).
    pub node: u32,
    /// The simulated payload.
    pub data: TraceData,
    /// Host-measured fields, excluded from equality.
    pub host: HostTimes,
}

impl PartialEq for TraceEvent {
    fn eq(&self, other: &Self) -> bool {
        // `host` is wall-clock jitter, not part of the contract — the
        // same exclusion `PlanCounters`' manual `PartialEq` applies.
        self.job == other.job && self.node == other.node && self.data == other.data
    }
}

/// The simulated payload of a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceData {
    /// The planner produced one plan: a full rebuild or a delta patch
    /// (the host cost of doing so rides in [`TraceEvent::host`]).
    Plan {
        /// `true` for a full span-table rebuild, `false` for a delta
        /// patch of the previous plan.
        rebuild: bool,
        /// Units re-derived by the patch (0 for rebuilds).
        units_patched: u64,
        /// Units carried over as shared `Arc`s (0 for rebuilds).
        units_reused: u64,
    },
    /// One iteration's compute span on the emitting node's local
    /// simulated clock.
    Compute {
        /// Node-local `Metrics::elapsed` when the span opened.
        start: Nanos,
        /// Node-local `Metrics::elapsed` when the span closed.
        end: Nanos,
        /// Edges loaded into tiles during the span.
        edges: u64,
        /// Subgraphs streamed through the GEs during the span.
        subgraphs: u64,
    },
    /// One closed per-iteration disk window of the emitting node's
    /// [`DiskAccountant`](crate::outofcore::DiskAccountant).
    Disk(DiskWindow),
    /// One inter-node property exchange on the composed cluster clock.
    Exchange {
        /// Cluster-composed elapsed when the exchange started (after the
        /// window's bottleneck node finished).
        start: Nanos,
        /// Exchange duration (latency + transfer).
        duration: Nanos,
        /// Property bytes exchanged.
        bytes: u64,
    },
    /// One driver-level per-iteration snapshot: what every counter
    /// family accumulated during the iteration (boxed — the snapshot
    /// carries every counter family and would otherwise dominate the
    /// size of every event in the sink).
    Iteration(Box<IterationSnapshot>),
    /// One lane's post-iteration frontier population in a traversal (see
    /// [`LaneFrontier`](crate::exec::lanes::LaneFrontier); a single query
    /// is one lane): emitted per active lane per iteration by the
    /// traversal drivers, so per-query iteration counts are recoverable
    /// from the trace alone.
    Lane {
        /// Lane (query) index within the fused batch.
        lane: u32,
        /// Iteration index within the run (0-based, matching the
        /// surrounding [`TraceData::Iteration`] events).
        iteration: u64,
        /// The lane's frontier population after the iteration.
        frontier: u64,
    },
}

/// The payload of a [`TraceData::Iteration`] event: one iteration's
/// worth of counter-family *deltas*, as diffed by [`IterTracer`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IterationSnapshot {
    /// Iteration index within the run (0-based).
    pub index: u64,
    /// Active-frontier size after the iteration, for the traversal
    /// drivers that track one (`None` elsewhere).
    pub frontier: Option<u64>,
    /// Simulated time the iteration added to `Metrics::elapsed`.
    pub elapsed: Nanos,
    /// Per-phase simulated time deltas.
    pub time: TimeBreakdown,
    /// Event-count deltas (`rego_capacity_required` carries the
    /// running maximum, as in [`Metrics::merge`]).
    pub events: EventCounters,
    /// Disk-counter deltas.
    pub disk: DiskCounters,
    /// Interconnect-counter deltas.
    pub net: NetCounters,
    /// Planner-counter deltas (`time` is a host-clock delta and,
    /// through `PlanCounters`' `PartialEq`, excluded from equality).
    pub plan: PlanCounters,
}

/// Per-sink interior state behind the mutex.
#[derive(Debug, Default)]
struct SinkInner {
    events: Vec<TraceEvent>,
    jobs: Vec<String>,
}

/// A shared, thread-safe collector of [`TraceEvent`]s.
///
/// Engines and drivers emit through cloned [`TraceHandle`]s; one sink can
/// collect several jobs (each [`TraceSink::begin_job`] opens a new job
/// index, and every event is tagged with its job). Events are stored in
/// emission order; when jobs run concurrently (batch submission sharing a
/// sink) their events interleave in the vector but stay separable by job
/// tag — the exporters group by job.
#[derive(Debug, Default)]
pub struct TraceSink {
    inner: Mutex<SinkInner>,
}

/// Chrome-trace lane (`tid`) carrying a node's compute spans.
fn compute_lane(node: u32) -> u32 {
    3 * node
}

/// Chrome-trace lane (`tid`) carrying a node's disk windows.
fn disk_lane(node: u32) -> u32 {
    3 * node + 1
}

/// Chrome-trace lane (`tid`) carrying the cluster interconnect.
const NET_LANE: u32 = 1_000_000;

/// Opens the next event object of a Chrome `traceEvents` array.
fn next_event<'a>(out: &'a mut String, first: &mut bool) -> JsonObject<'a> {
    if !*first {
        out.push(',');
    }
    *first = false;
    JsonObject::open(out)
}

impl TraceSink {
    /// Creates an empty sink behind an [`Arc`], ready to hand to a
    /// session or to [`TraceHandle::new`].
    #[must_use]
    pub fn shared() -> Arc<TraceSink> {
        Arc::new(TraceSink::default())
    }

    /// Opens a new job and returns its index (events emitted through a
    /// handle for that index are grouped under `name` by the exporters).
    pub fn begin_job(&self, name: &str) -> u32 {
        let mut inner = self.inner.lock().expect("trace sink poisoned");
        inner.jobs.push(name.to_string());
        (inner.jobs.len() - 1) as u32
    }

    /// Appends one event.
    pub fn push(&self, event: TraceEvent) {
        self.inner
            .lock()
            .expect("trace sink poisoned")
            .events
            .push(event);
    }

    /// Snapshot of all events collected so far, in emission order.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner
            .lock()
            .expect("trace sink poisoned")
            .events
            .clone()
    }

    /// Names of the jobs opened so far, in [`TraceSink::begin_job`] order.
    #[must_use]
    pub fn job_names(&self) -> Vec<String> {
        self.inner.lock().expect("trace sink poisoned").jobs.clone()
    }

    /// Number of events collected so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace sink poisoned").events.len()
    }

    /// Whether no events have been collected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialises the sink as JSONL: one JSON object per line, job
    /// name records first, then every event in emission order.
    /// Host-measured fields are included (suffixed `host_`), so two runs'
    /// JSONL differs exactly where the determinism contract allows.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.lock().expect("trace sink poisoned");
        let mut out = String::new();
        for (index, name) in inner.jobs.iter().enumerate() {
            let mut obj = JsonObject::open(&mut out);
            obj.str("type", "job").raw("job", index).str("name", name);
            obj.close();
            out.push('\n');
        }
        for ev in &inner.events {
            write_jsonl_event(&mut out, ev);
            out.push('\n');
        }
        out
    }

    /// Serialises the sink in Chrome trace-event format on the
    /// **simulated** clock: one process per job, one compute and one disk
    /// lane per node plus an interconnect lane, `X` (complete) events
    /// with microsecond timestamps — a file Perfetto opens directly.
    ///
    /// Host-measured fields are omitted entirely, so the exported bytes
    /// are identical whenever the simulated event streams are (the
    /// acceptance bar `graphr-run --trace` is tested against).
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        let inner = self.inner.lock().expect("trace sink poisoned");
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        // Process metadata: one simulated process per job.
        for (index, name) in inner.jobs.iter().enumerate() {
            let mut e = next_event(&mut out, &mut first);
            e.str("ph", "M")
                .raw("pid", index)
                .str("name", "process_name");
            let mut args = JsonObject::open(e.key("args"));
            args.str("name", name);
            args.close();
            e.close();
        }
        // Thread metadata: name every lane that carries at least one span.
        let mut lanes: Vec<(u32, u32, String)> = Vec::new();
        for ev in &inner.events {
            let lane = match &ev.data {
                TraceData::Compute { .. } => {
                    Some((compute_lane(ev.node), format!("node {} compute", ev.node)))
                }
                TraceData::Disk(_) => Some((disk_lane(ev.node), format!("node {} disk", ev.node))),
                TraceData::Exchange { .. } => Some((NET_LANE, "interconnect".to_string())),
                _ => None,
            };
            if let Some((tid, name)) = lane {
                if !lanes.iter().any(|(job, t, _)| *job == ev.job && *t == tid) {
                    lanes.push((ev.job, tid, name));
                }
            }
        }
        lanes.sort_by_key(|&(job, tid, _)| (job, tid));
        for (job, tid, name) in &lanes {
            let mut e = next_event(&mut out, &mut first);
            e.str("ph", "M")
                .raw("pid", job)
                .raw("tid", tid)
                .str("name", "thread_name");
            let mut args = JsonObject::open(e.key("args"));
            args.str("name", name);
            args.close();
            e.close();
        }
        // Spans and counters on the simulated clock (ts/dur in µs).
        let us = |t: Nanos| t.as_nanos() / 1000.0;
        // One `X` (complete) span; the caller writes its `args`.
        let span = |e: &mut JsonObject, pid: u32, tid: u32, name: &str, cat: &str| {
            e.str("ph", "X")
                .raw("pid", pid)
                .raw("tid", tid)
                .str("name", name)
                .str("cat", cat);
        };
        // Cumulative simulated elapsed per job, for the frontier counter
        // track (iteration events carry deltas). Grown on demand: handles
        // built without `begin_job` default to job 0.
        let mut elapsed_by_job: Vec<f64> = vec![0.0; inner.jobs.len().max(1)];
        for ev in &inner.events {
            let pid = ev.job;
            match &ev.data {
                TraceData::Compute {
                    start,
                    end,
                    edges,
                    subgraphs,
                } => {
                    let mut e = next_event(&mut out, &mut first);
                    span(&mut e, pid, compute_lane(ev.node), "compute", "compute");
                    e.raw("ts", us(*start)).raw("dur", us(*end - *start));
                    let mut args = JsonObject::open(e.key("args"));
                    args.raw("edges", edges).raw("subgraphs", subgraphs);
                    args.close();
                    e.close();
                }
                TraceData::Disk(w) => {
                    // The window slice spans what the compute lane
                    // actually waited on (`demand == disk` when nothing
                    // was prefetched, so legacy traces are unchanged);
                    // speculative reads get their own slice back in the
                    // previous window's idle tail.
                    let mut e = next_event(&mut out, &mut first);
                    span(&mut e, pid, disk_lane(ev.node), "disk", "disk");
                    e.raw("ts", us(w.start)).raw("dur", us(w.demand));
                    let mut args = JsonObject::open(e.key("args"));
                    args.raw("bytes_loaded", w.bytes_loaded)
                        .raw("blocks_loaded", w.blocks_loaded)
                        .raw("blocks_seeked", w.blocks_seeked)
                        .raw("segments", w.segments);
                    args.close();
                    e.close();
                    if w.prefetch > Nanos::ZERO {
                        let mut e = next_event(&mut out, &mut first);
                        span(&mut e, pid, disk_lane(ev.node), "prefetch", "disk");
                        e.raw("ts", us(w.prefetch_start)).raw("dur", us(w.prefetch));
                        let mut args = JsonObject::open(e.key("args"));
                        args.raw("bytes_prefetched", w.bytes_prefetched)
                            .raw("prefetch_hits", w.prefetch_hits)
                            .raw("prefetch_wasted", w.prefetch_wasted);
                        args.close();
                        e.close();
                    }
                }
                TraceData::Exchange {
                    start,
                    duration,
                    bytes,
                } => {
                    let mut e = next_event(&mut out, &mut first);
                    span(&mut e, pid, NET_LANE, "exchange", "net");
                    e.raw("ts", us(*start)).raw("dur", us(*duration));
                    let mut args = JsonObject::open(e.key("args"));
                    args.raw("bytes", bytes);
                    args.close();
                    e.close();
                }
                TraceData::Iteration(snap) => {
                    if elapsed_by_job.len() <= pid as usize {
                        elapsed_by_job.resize(pid as usize + 1, 0.0);
                    }
                    let at = &mut elapsed_by_job[pid as usize];
                    *at += snap.elapsed.as_nanos();
                    if let Some(n) = snap.frontier {
                        let mut e = next_event(&mut out, &mut first);
                        e.str("ph", "C")
                            .raw("pid", pid)
                            .raw("tid", 0)
                            .str("name", "frontier")
                            .raw("ts", *at / 1000.0);
                        let mut args = JsonObject::open(e.key("args"));
                        args.raw("active", n);
                        args.close();
                        e.close();
                    }
                }
                // Plan events cost host time only, and lane events are
                // per-query annotations of the surrounding iteration;
                // neither has a simulated extent of its own, so the
                // simulated timeline omits them.
                TraceData::Plan { .. } | TraceData::Lane { .. } => {}
            }
        }
        out.push_str("]}");
        out
    }
}

/// A cloneable emitter bound to one (sink, job, node) triple. Engines
/// hold one (see `ScanEngine::set_trace`) and re-bind per node with
/// [`TraceHandle::for_node`]; `None` everywhere means tracing is off and
/// costs nothing.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    sink: Arc<TraceSink>,
    job: u32,
    node: u32,
}

impl TraceHandle {
    /// A handle emitting into `sink` as job 0, node 0 (for direct engine
    /// use; sessions use [`TraceHandle::for_job`] after
    /// [`TraceSink::begin_job`]).
    #[must_use]
    pub fn new(sink: Arc<TraceSink>) -> Self {
        TraceHandle {
            sink,
            job: 0,
            node: 0,
        }
    }

    /// A handle emitting into `sink` under an explicit job index.
    #[must_use]
    pub fn for_job(sink: Arc<TraceSink>, job: u32) -> Self {
        TraceHandle { sink, job, node: 0 }
    }

    /// This handle re-bound to a cluster node index.
    #[must_use]
    pub fn for_node(&self, node: u32) -> Self {
        TraceHandle {
            sink: Arc::clone(&self.sink),
            job: self.job,
            node,
        }
    }

    /// The node index this handle stamps on events.
    #[must_use]
    pub fn node(&self) -> u32 {
        self.node
    }

    /// The sink this handle emits into.
    #[must_use]
    pub fn sink(&self) -> &Arc<TraceSink> {
        &self.sink
    }

    /// Emits one event with no host-measured payload.
    pub fn emit(&self, data: TraceData) {
        self.emit_with_host(data, HostTimes::default());
    }

    /// Emits one event with host-measured fields attached.
    pub fn emit_with_host(&self, data: TraceData, host: HostTimes) {
        self.sink.push(TraceEvent {
            job: self.job,
            node: self.node,
            data,
            host,
        });
    }

    /// Emits a [`TraceData::Plan`] event from a before/after snapshot of
    /// an engine's [`PlanCounters`] around one `plan()` call. Emits
    /// nothing when the call planned nothing (the dense cached plan).
    pub fn record_plan(&self, before: &PlanCounters, after: &PlanCounters) {
        let rebuilds = after.full_rebuilds - before.full_rebuilds;
        let patches = after.delta_patches - before.delta_patches;
        if rebuilds + patches == 0 {
            return;
        }
        self.emit_with_host(
            TraceData::Plan {
                rebuild: rebuilds > 0,
                units_patched: after.units_patched - before.units_patched,
                units_reused: after.units_reused - before.units_reused,
            },
            HostTimes {
                plan: after.time - before.time,
            },
        );
    }

    /// Emits a [`TraceData::Compute`] span covering everything `metrics`
    /// accumulated since `mark`, then advances the mark. Emits nothing
    /// for an empty span.
    pub fn record_compute(&self, mark: &mut SpanMark, metrics: &Metrics) {
        let start = mark.elapsed;
        let end = metrics.elapsed;
        let edges = metrics.events.edges_loaded - mark.edges;
        let subgraphs = metrics.events.subgraphs_processed - mark.subgraphs;
        mark.elapsed = end;
        mark.edges = metrics.events.edges_loaded;
        mark.subgraphs = metrics.events.subgraphs_processed;
        if end > start || edges > 0 || subgraphs > 0 {
            self.emit(TraceData::Compute {
                start,
                end,
                edges,
                subgraphs,
            });
        }
    }

    /// Emits a [`TraceData::Disk`] event for a closed accountant window,
    /// skipping idle windows.
    pub fn record_disk(&self, window: &DiskWindow) {
        if !window.is_idle() {
            self.emit(TraceData::Disk(*window));
        }
    }

    /// Emits a [`TraceData::Exchange`] span.
    pub fn record_exchange(&self, start: Nanos, duration: Nanos, bytes: u64) {
        self.emit(TraceData::Exchange {
            start,
            duration,
            bytes,
        });
    }
}

/// An engine-held cursor into its own [`Metrics`]: where the last
/// emitted [`TraceData::Compute`] span ended. Re-anchored whenever a
/// trace is attached or the metrics are taken (and therefore zeroed).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanMark {
    /// `Metrics::elapsed` at the last span boundary.
    pub elapsed: Nanos,
    /// `EventCounters::edges_loaded` at the last span boundary.
    pub edges: u64,
    /// `EventCounters::subgraphs_processed` at the last span boundary.
    pub subgraphs: u64,
}

impl SpanMark {
    /// A mark anchored at `metrics`' current state (so the next span
    /// starts here).
    #[must_use]
    pub fn at(metrics: &Metrics) -> Self {
        SpanMark {
            elapsed: metrics.elapsed,
            edges: metrics.events.edges_loaded,
            subgraphs: metrics.events.subgraphs_processed,
        }
    }
}

/// Driver-side per-iteration snapshotter: diffs an engine's [`Metrics`]
/// across iteration boundaries and emits [`TraceData::Iteration`] deltas.
/// Costs nothing when the handle is `None`.
#[derive(Debug, Default)]
pub struct IterTracer {
    prev: Metrics,
    index: u64,
}

impl IterTracer {
    /// A tracer whose first delta is measured from zeroed metrics.
    #[must_use]
    pub fn new() -> Self {
        IterTracer::default()
    }

    /// Records one finished iteration: emits the delta between `metrics`
    /// and the previous snapshot, tagged with `frontier` (the active
    /// count after the iteration, where the driver tracks one).
    pub fn record(
        &mut self,
        trace: Option<&TraceHandle>,
        metrics: &Metrics,
        frontier: Option<u64>,
    ) {
        let Some(trace) = trace else { return };
        trace.emit(self.delta(metrics, frontier));
        self.index += 1;
        self.prev = metrics.clone();
    }

    /// Records whatever accumulated after the last iteration boundary
    /// (post-loop controller charges, trailing disk commits) as one final
    /// delta event. Emits nothing if nothing changed.
    pub fn finish(self, trace: Option<&TraceHandle>, metrics: &Metrics) {
        let Some(trace) = trace else { return };
        if *metrics == self.prev {
            return;
        }
        trace.emit(self.delta(metrics, None));
    }

    /// The delta event between `metrics` and the previous snapshot.
    fn delta(&self, metrics: &Metrics, frontier: Option<u64>) -> TraceData {
        TraceData::Iteration(Box::new(IterationSnapshot {
            index: self.index,
            frontier,
            elapsed: metrics.elapsed - self.prev.elapsed,
            time: metrics
                .time_breakdown
                .delta_since(&self.prev.time_breakdown),
            events: metrics.events.delta_since(&self.prev.events),
            disk: metrics.disk.delta_since(&self.prev.disk),
            net: metrics.net.delta_since(&self.prev.net),
            plan: metrics.plan.delta_since(&self.prev.plan),
        }))
    }
}

/// Writes one event as a single JSONL object (no trailing newline).
fn write_jsonl_event(out: &mut String, ev: &TraceEvent) {
    let mut obj = JsonObject::open(out);
    obj.raw("job", ev.job).raw("node", ev.node);
    match &ev.data {
        TraceData::Plan {
            rebuild,
            units_patched,
            units_reused,
        } => {
            obj.str("type", "plan")
                .raw("rebuild", rebuild)
                .raw("units_patched", units_patched)
                .raw("units_reused", units_reused)
                .raw("host_plan_ns", ev.host.plan.as_nanos());
        }
        TraceData::Compute {
            start,
            end,
            edges,
            subgraphs,
        } => {
            obj.str("type", "compute")
                .raw("start_ns", start.as_nanos())
                .raw("end_ns", end.as_nanos())
                .raw("edges", edges)
                .raw("subgraphs", subgraphs);
        }
        TraceData::Disk(w) => {
            obj.str("type", "disk")
                .raw("start_ns", w.start.as_nanos())
                .raw("compute_ns", w.compute.as_nanos())
                .raw("disk_ns", w.disk.as_nanos())
                .raw("demand_ns", w.demand.as_nanos())
                .raw("bytes_loaded", w.bytes_loaded)
                .raw("blocks_loaded", w.blocks_loaded)
                .raw("blocks_seeked", w.blocks_seeked)
                .raw("segments", w.segments)
                .raw("prefetch_ns", w.prefetch.as_nanos())
                .raw("prefetch_start_ns", w.prefetch_start.as_nanos())
                .raw("bytes_prefetched", w.bytes_prefetched)
                .raw("prefetch_hits", w.prefetch_hits)
                .raw("prefetch_wasted", w.prefetch_wasted);
        }
        TraceData::Exchange {
            start,
            duration,
            bytes,
        } => {
            obj.str("type", "exchange")
                .raw("start_ns", start.as_nanos())
                .raw("duration_ns", duration.as_nanos())
                .raw("bytes", bytes);
        }
        TraceData::Lane {
            lane,
            iteration,
            frontier,
        } => {
            obj.str("type", "lane")
                .raw("lane", lane)
                .raw("iteration", iteration)
                .raw("frontier", frontier);
        }
        TraceData::Iteration(snap) => {
            obj.str("type", "iteration").raw("index", snap.index);
            match snap.frontier {
                Some(n) => obj.raw("frontier", n),
                None => obj.raw("frontier", "null"),
            };
            obj.raw("elapsed_ns", snap.elapsed.as_nanos());
            write_counters(obj.key("time"), snap.time.fields());
            write_counters(obj.key("events"), snap.events.fields());
            write_counters(obj.key("disk"), snap.disk.fields());
            write_counters(obj.key("net"), snap.net.fields());
            write_counters(obj.key("plan"), snap.plan.fields());
        }
    }
    obj.close();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_ignores_host_times() {
        let sink = TraceSink::shared();
        let handle = TraceHandle::new(Arc::clone(&sink));
        handle.emit_with_host(
            TraceData::Plan {
                rebuild: true,
                units_patched: 0,
                units_reused: 0,
            },
            HostTimes {
                plan: Nanos::new(123.0),
            },
        );
        handle.emit(TraceData::Plan {
            rebuild: true,
            units_patched: 0,
            units_reused: 0,
        });
        let evs = sink.events();
        assert_eq!(evs[0], evs[1], "host plan time must not break equality");
    }

    #[test]
    fn record_plan_skips_unplanned_calls() {
        let sink = TraceSink::shared();
        let handle = TraceHandle::new(Arc::clone(&sink));
        let before = PlanCounters::default();
        handle.record_plan(&before, &before);
        assert!(sink.is_empty(), "a cached dense plan emits nothing");
        let after = PlanCounters {
            delta_patches: 1,
            units_patched: 2,
            units_reused: 7,
            time: Nanos::new(5.0),
            ..before
        };
        handle.record_plan(&before, &after);
        assert_eq!(sink.len(), 1);
        match &sink.events()[0].data {
            TraceData::Plan {
                rebuild,
                units_patched,
                units_reused,
            } => {
                assert!(!rebuild);
                assert_eq!(*units_patched, 2);
                assert_eq!(*units_reused, 7);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn iter_tracer_emits_deltas_and_final_tail() {
        let sink = TraceSink::shared();
        let handle = TraceHandle::new(Arc::clone(&sink));
        let mut tracer = IterTracer::new();
        let mut m = Metrics::new();
        m.elapsed = Nanos::new(10.0);
        m.events.edges_loaded = 4;
        tracer.record(Some(&handle), &m, Some(3));
        m.elapsed = Nanos::new(25.0);
        m.events.edges_loaded = 9;
        tracer.record(Some(&handle), &m, Some(1));
        // A trailing charge after the last end_iteration.
        m.elapsed = Nanos::new(26.0);
        tracer.finish(Some(&handle), &m);
        let evs = sink.events();
        assert_eq!(evs.len(), 3);
        match (&evs[0].data, &evs[1].data, &evs[2].data) {
            (TraceData::Iteration(s0), TraceData::Iteration(s1), TraceData::Iteration(s2)) => {
                assert_eq!((s0.index, s0.frontier), (0, Some(3)));
                assert_eq!(s0.elapsed.as_nanos(), 10.0);
                assert_eq!(s0.events.edges_loaded, 4);
                assert_eq!((s1.index, s1.frontier), (1, Some(1)));
                assert_eq!(s1.elapsed.as_nanos(), 15.0);
                assert_eq!(s1.events.edges_loaded, 5);
                assert_eq!((s2.index, s2.frontier), (2, None));
                assert_eq!(s2.elapsed.as_nanos(), 1.0);
            }
            other => panic!("unexpected events {other:?}"),
        }
    }

    #[test]
    fn iter_tracer_finish_is_silent_when_nothing_changed() {
        let sink = TraceSink::shared();
        let handle = TraceHandle::new(Arc::clone(&sink));
        let mut tracer = IterTracer::new();
        let m = Metrics::new();
        tracer.record(Some(&handle), &m, None);
        tracer.finish(Some(&handle), &m);
        assert_eq!(sink.len(), 1, "finish must not emit an empty tail");
    }

    #[test]
    fn jsonl_iteration_line_bytes_are_pinned() {
        let m = crate::metrics::distinct_fixture();
        let sink = TraceSink::shared();
        TraceHandle::new(Arc::clone(&sink)).emit(TraceData::Iteration(Box::new(
            IterationSnapshot {
                index: 60,
                frontier: Some(61),
                elapsed: m.elapsed,
                time: m.time_breakdown,
                events: m.events,
                disk: m.disk,
                net: m.net,
                plan: m.plan,
            },
        )));
        let expected = concat!(
            r#"{"job":0,"node":0,"type":"iteration","index":60,"frontier":61"#,
            r#","elapsed_ns":250,"time":{"program_ns":0.25,"compute_ns":0.5"#,
            r#","memory_ns":0.75,"apply_ns":1},"events":{"subgraphs_processed":14"#,
            r#","subgraphs_skipped_empty":15,"subgraphs_skipped_inactive":16"#,
            r#","subgraphs_pruned":17,"edges_pruned":18,"tiles_loaded":19"#,
            r#","edges_loaded":20,"mvm_scans":21,"rows_activated":22"#,
            r#","adc_conversions":23,"salu_ops":24,"register_reads":25"#,
            r#","register_writes":26,"bytes_streamed":27,"rego_capacity_required":28}"#,
            r#","disk":{"bytes_loaded":29,"blocks_loaded":30,"blocks_seeked":31"#,
            r#","io_segments":32,"time_ns":8.25,"demand_time_ns":8.5"#,
            r#","overlapped_ns":8.75,"bytes_prefetched":36,"prefetch_hits":37"#,
            r#","prefetch_wasted":38},"net":{"bytes_exchanged":39,"exchanges":40"#,
            r#","time_ns":10.25,"overlapped_ns":10.5,"energy_j":10.75}"#,
            r#","plan":{"full_rebuilds":44,"delta_patches":45,"units_reused":46"#,
            r#","units_patched":47,"mask_words":48,"summary_skips":49,"delta_words":50"#,
            r#","host_time_ns":12.75}}"#,
            "\n",
        );
        assert_eq!(sink.to_jsonl(), expected);
    }

    #[test]
    fn chrome_trace_bytes_are_pinned() {
        let sink = TraceSink::shared();
        let job = sink.begin_job("bfs on \"g\"");
        let handle = TraceHandle::for_job(Arc::clone(&sink), job);
        handle.emit(TraceData::Compute {
            start: Nanos::new(250.0),
            end: Nanos::new(1750.5),
            edges: 10,
            subgraphs: 2,
        });
        handle.for_node(1).record_disk(&DiskWindow {
            start: Nanos::new(100.0),
            compute: Nanos::new(1500.0),
            disk: Nanos::new(2000.0),
            demand: Nanos::new(1200.0),
            bytes_loaded: 64,
            blocks_loaded: 1,
            blocks_seeked: 3,
            segments: 2,
            prefetch: Nanos::new(800.0),
            prefetch_start: Nanos::new(40.0),
            bytes_prefetched: 32,
            prefetch_hits: 1,
            prefetch_wasted: 8,
        });
        handle.record_exchange(Nanos::new(2000.0), Nanos::new(500.0), 12);
        handle.emit(TraceData::Lane {
            lane: 0,
            iteration: 0,
            frontier: 4,
        });
        let mut tracer = IterTracer::new();
        let mut m = Metrics::new();
        m.elapsed = Nanos::new(1500.0);
        tracer.record(Some(&handle), &m, Some(5));
        m.elapsed = Nanos::new(2100.0);
        tracer.record(Some(&handle), &m, None);
        let other = TraceHandle::for_job(Arc::clone(&sink), sink.begin_job("wcc"));
        other.emit(TraceData::Compute {
            start: Nanos::ZERO,
            end: Nanos::new(3.0),
            edges: 1,
            subgraphs: 1,
        });
        // Recorded from the `format!`-based exporter this layout started
        // with: every event kind, a prefetch slice, and two jobs.
        let expected = concat!(
            r#"{"traceEvents":[{"ph":"M","pid":0,"name":"process_name""#,
            r#","args":{"name":"bfs on \"g\""}},{"ph":"M","pid":1"#,
            r#","name":"process_name","args":{"name":"wcc"}},{"ph":"M","pid":0"#,
            r#","tid":0,"name":"thread_name","args":{"name":"node 0 compute"}}"#,
            r#",{"ph":"M","pid":0,"tid":4,"name":"thread_name""#,
            r#","args":{"name":"node 1 disk"}},{"ph":"M","pid":0,"tid":1000000"#,
            r#","name":"thread_name","args":{"name":"interconnect"}},{"ph":"M""#,
            r#","pid":1,"tid":0,"name":"thread_name""#,
            r#","args":{"name":"node 0 compute"}},{"ph":"X","pid":0,"tid":0"#,
            r#","name":"compute","cat":"compute","ts":0.25,"dur":1.5005"#,
            r#","args":{"edges":10,"subgraphs":2}},{"ph":"X","pid":0,"tid":4"#,
            r#","name":"disk","cat":"disk","ts":0.1,"dur":1.2"#,
            r#","args":{"bytes_loaded":64,"blocks_loaded":1,"blocks_seeked":3"#,
            r#","segments":2}},{"ph":"X","pid":0,"tid":4,"name":"prefetch""#,
            r#","cat":"disk","ts":0.04,"dur":0.8,"args":{"bytes_prefetched":32"#,
            r#","prefetch_hits":1,"prefetch_wasted":8}},{"ph":"X","pid":0"#,
            r#","tid":1000000,"name":"exchange","cat":"net","ts":2,"dur":0.5"#,
            r#","args":{"bytes":12}},{"ph":"C","pid":0,"tid":0,"name":"frontier""#,
            r#","ts":1.5,"args":{"active":5}},{"ph":"X","pid":1,"tid":0"#,
            r#","name":"compute","cat":"compute","ts":0,"dur":0.003,"args":{"edges":1"#,
            r#","subgraphs":1}}]}"#
        );
        assert_eq!(sink.to_chrome_trace(), expected);
    }

    #[test]
    fn exporters_produce_wellformed_output() {
        let sink = TraceSink::shared();
        let job = sink.begin_job("pagerank on \"web\"\n");
        let handle = TraceHandle::for_job(Arc::clone(&sink), job);
        handle.emit(TraceData::Compute {
            start: Nanos::ZERO,
            end: Nanos::new(1500.0),
            edges: 10,
            subgraphs: 2,
        });
        handle.for_node(1).record_disk(&DiskWindow {
            start: Nanos::ZERO,
            compute: Nanos::new(1500.0),
            disk: Nanos::new(2000.0),
            bytes_loaded: 64,
            blocks_loaded: 1,
            blocks_seeked: 3,
            segments: 1,
            demand: Nanos::new(2000.0),
            ..DiskWindow::default()
        });
        handle.record_exchange(Nanos::new(2000.0), Nanos::new(500.0), 12);
        let mut tracer = IterTracer::new();
        let mut m = Metrics::new();
        m.elapsed = Nanos::new(1500.0);
        tracer.record(Some(&handle), &m, Some(5));

        let jsonl = sink.to_jsonl();
        assert_eq!(jsonl.lines().count(), 5, "1 job record + 4 events");
        assert!(jsonl.starts_with("{\"type\":\"job\",\"job\":0,"));
        assert!(jsonl.contains("\\\"web\\\"\\n"), "name must be escaped");
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "balanced braces in {line}"
            );
        }

        let chrome = sink.to_chrome_trace();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.ends_with("]}"));
        assert!(chrome.contains("\"process_name\""));
        assert!(chrome.contains("\"node 1 disk\""));
        assert!(chrome.contains("\"interconnect\""));
        assert!(chrome.contains("\"name\":\"frontier\""));
        // Simulated µs: the 1500 ns compute span is 1.5 µs long.
        assert!(chrome.contains("\"ts\":0,\"dur\":1.5"));
    }
}
