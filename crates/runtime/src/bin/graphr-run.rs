//! `graphr-run` — execute a job file against a GraphR runtime session and
//! print a metrics report.
//!
//! Usage: `graphr-run <JOBFILE> [--threads N] [--batch]
//! [--disk sata|nvme|sata-seg|nvme-seg|...-pipe|none]
//! [--prefetch on|off] [--nodes N|single]
//! [--owner rr|degree] [--trace PATH] [--report text|json]
//! [--stats PATH|-]`
//!
//! Job files are line-oriented; `#` starts a comment. Directives:
//!
//! ```text
//! dataset <name> rmat <vertices> <edges> <seed> [max_weight]
//! dataset <name> bipartite <users> <items> <ratings> <seed>
//! dataset <name> table3 <TAG> <scale>
//! threads <n>
//! batch on|off
//! disk sata|nvme|sata-seg|nvme-seg|sata-pipe|nvme-pipe|sata-seg-pipe|nvme-seg-pipe|none
//! prefetch on|off
//! nodes <n>|single
//! owner rr|degree
//! trace <path>|off
//! job <app> <dataset> [key=value ...]
//! ```
//!
//! A `table3` scale must lie in `(0, 1]`; anything else, NaN included, is
//! a line error. `threads` (or `--threads`) sets the scan worker count;
//! `threads 1` is the reference executor, and results are bit-identical
//! at any count.
//! Apps: `pagerank` (damping=, iterations=, tolerance=), `spmv`,
//! `bfs`/`sssp` (source= or sources=a,b,c — a comma list expands to one
//! query per source), `wcc`, `cf` (features=, epochs=). The `batch`
//! directive (or `--batch`) runs the file through the `graphr-serve`
//! scheduler instead of one submission per job: every query enters the
//! serve queue and a single drain coalesces compatible queued traversals
//! (same graph, app, options, and execution settings) into **fused
//! waves** — one frontier lane per query, one scan of each iteration's
//! union plan for all of them — printing which wave ran each query and
//! how many lanes it shared. Results are bit-identical to the unbatched
//! run; fused reports show the wave's machine totals plus the query's
//! own `query:` attribution line. The `disk`
//! directive (overridable with `--disk`) runs every job in the
//! out-of-core regime: scans price their disk loading plan-aware and the
//! reports gain a disk-vs-compute breakdown (the `-seg` variants charge
//! one request per sequential segment instead of one per on-disk block,
//! rewarding contiguity; a `-pipe` suffix — or `prefetch on` /
//! `--prefetch on`, composing with whichever model is in force — adds
//! the pipelined I/O lane that reads previously-planned segments ahead
//! during idle windows, surfacing `graphr_disk_prefetch_*` counters
//! under `--stats` and a `prefetch:` segment in the disk report row).
//! The `nodes` directive
//! (overridable with `--nodes`) runs every job on a simulated multi-node
//! cluster with PCIe-class links: plans are sharded by destination-strip
//! ownership — round-robin by default, degree-weighted under
//! `owner degree` / `--owner degree` (tightens the per-node bottleneck on
//! power-law graphs) — the plan-aware property exchange is charged per
//! iteration, and reports gain a network-vs-compute breakdown (`nodes 1`
//! = a one-node cluster, bit-identical to single-node execution;
//! `nodes single` — or `--nodes single` — opts back out of a cluster
//! entirely, like `--disk none` does for storage). Both
//! compose. The `trace` directive (overridable with `--trace`; `trace
//! off` opts back out) collects every run's telemetry into one sink and
//! writes it after the batch: a `.jsonl` path gets the JSONL event log,
//! anything else the Chrome trace-event timeline on the simulated clock
//! (a file Perfetto opens directly). `--report json` replaces the text
//! reports with one machine-readable JSON document on stdout. `--stats`
//! dumps the run's statistics registry — the serve layer's simulated
//! latency/wait/occupancy histograms and admission counters (batch mode)
//! plus the session cache counters — as the Prometheus text exposition
//! (`-` writes to stdout; a path ending in `.json` selects the JSON
//! form). In batch mode the `serve:` summary also reports
//! admitted/rejected queries and the simulated latency p50/p95/p99. An
//! example lives at `examples/demo.jobs`; the full format and every flag
//! are documented in `docs/running-jobs.md`, `docs/tracing.md`, and
//! `docs/observability.md`.

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;

use graphr_core::json::JsonObject;
use graphr_core::multinode::{MultiNodeConfig, OwnerPolicy};
use graphr_core::outofcore::DiskModel;
use graphr_core::sim::{CfOptions, PageRankOptions, SpmvOptions, TraversalOptions};
use graphr_core::stats::StatsRegistry;
use graphr_core::trace::TraceSink;
use graphr_core::GraphRConfig;
use graphr_graph::generators::bipartite::RatingMatrix;
use graphr_graph::generators::rmat::Rmat;
use graphr_graph::{DatasetSpec, GraphHandle};
use graphr_runtime::{Job, JobSpec, ServeConfig, Server, Session};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("graphr-run: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: graphr-run <JOBFILE> [--threads N] [--batch] \
                         [--disk sata|nvme|sata-seg|nvme-seg|...-pipe|none] \
                         [--prefetch on|off] [--nodes N] \
                         [--owner rr|degree] [--trace PATH] [--report text|json] \
                         [--stats PATH|-]";
    let mut path = None;
    let mut threads_override = None;
    let mut force_batch = false;
    let mut disk_override = None;
    let mut prefetch_override = None;
    let mut nodes_override = None;
    let mut owner_override = None;
    let mut trace_override = None;
    let mut report_json = false;
    let mut stats_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                threads_override = Some(v.parse::<usize>().map_err(|e| e.to_string())?);
            }
            "--batch" => force_batch = true,
            "--trace" => {
                let v = it.next().ok_or("--trace needs a path (or 'off')")?;
                trace_override = Some(parse_trace(v));
            }
            "--report" => {
                let v = it.next().ok_or("--report needs a value (text|json)")?;
                report_json = match v.as_str() {
                    "json" => true,
                    "text" => false,
                    other => return Err(format!("unknown report format '{other}' (text|json)")),
                };
            }
            "--stats" => {
                let v = it
                    .next()
                    .ok_or("--stats needs a path (or '-' for stdout)")?;
                stats_out = Some(v.clone());
            }
            "--disk" => {
                let v = it
                    .next()
                    .ok_or("--disk needs a value (sata|nvme|sata-seg|nvme-seg|...-pipe|none)")?;
                disk_override = Some(parse_disk(v)?);
            }
            "--prefetch" => {
                let v = it.next().ok_or("--prefetch needs a value (on|off)")?;
                prefetch_override = Some(parse_prefetch(v)?);
            }
            "--nodes" => {
                let v = it
                    .next()
                    .ok_or("--nodes needs a value (a count, or 'single')")?;
                nodes_override = Some(parse_nodes(v)?);
            }
            "--owner" => {
                let v = it.next().ok_or("--owner needs a value (rr|degree)")?;
                owner_override = Some(parse_owner(v)?);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other if path.is_none() => path = Some(other.to_owned()),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let path = path.ok_or(USAGE)?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let plan = parse_job_file(&text)?;

    let mut session = Session::new(GraphRConfig::default());
    let threads = threads_override.or(plan.threads);
    if let Some(t) = threads {
        session = session.with_threads(t);
    }
    let mut disk = disk_override.unwrap_or(plan.disk);
    // `--prefetch` / the `prefetch` directive compose with whichever
    // model is in force, mirroring the `-pipe` name suffix.
    if let (Some(model), Some(p)) = (&mut disk, prefetch_override.or(plan.prefetch)) {
        model.prefetch = p;
    }
    if let Some(model) = disk {
        session = session.with_disk(model);
    }
    let nodes = nodes_override.unwrap_or(plan.nodes);
    let owner = owner_override.unwrap_or(plan.owner);
    if let Some(n) = nodes {
        session = session.with_cluster(MultiNodeConfig::pcie_cluster(n).with_owner(owner));
    }
    let trace_path = trace_override.unwrap_or(plan.trace);
    let trace_sink = trace_path.as_ref().map(|_| TraceSink::shared());
    if let Some(sink) = &trace_sink {
        session = session.with_trace(std::sync::Arc::clone(sink));
    }

    let batch = force_batch || plan.batch;
    if !report_json {
        println!(
            "session: {} worker threads{}, {} storage, {}, {} datasets, {} jobs",
            session.threads(),
            if batch { " (serve batch)" } else { "" },
            match disk {
                None => "in-core".to_owned(),
                Some(d) => format!(
                    "out-of-core ({:.1} GB/s disk{})",
                    d.sequential_gbps,
                    if d.prefetch { ", pipelined" } else { "" }
                ),
            },
            match nodes {
                None => "single node".to_owned(),
                Some(n) => format!("{n}-node cluster ({} ownership)", owner.name()),
            },
            plan.datasets.len(),
            plan.jobs.len()
        );
    }
    let start = Instant::now();
    let mut failures = 0usize;
    let mut jobs_json: Vec<String> = Vec::new();
    let mut serve_stats = None;
    let mut serve_latency = None;
    let mut registry = StatsRegistry::new();
    // Run-level prefetch accounting for `--stats`: summed over job
    // reports (per fused wave in batch mode — every query in a wave
    // reports the wave's machine totals, so counting each report would
    // multiply them by the lane count).
    let mut prefetch_totals = (0u64, 0u64, 0u64);
    let mut tally_prefetch = |m: &graphr_core::metrics::Metrics| {
        prefetch_totals.0 += m.disk.bytes_prefetched;
        prefetch_totals.1 += m.disk.prefetch_hits;
        prefetch_totals.2 += m.disk.prefetch_wasted;
    };
    if batch {
        // Serve mode: every query enters the scheduler's queue, one drain
        // coalesces compatible traversals into fused waves. Results come
        // back in submission order either way.
        let mut server = Server::new(ServeConfig::default());
        for job in &plan.jobs {
            server.enqueue(job.clone()).map_err(|e| e.to_string())?;
        }
        let mut tallied_waves = std::collections::HashSet::new();
        for result in server.drain(&session) {
            let index = result.id as usize;
            let job = &plan.jobs[index];
            match &result.report {
                Ok(report) => {
                    if tallied_waves.insert(result.wave) {
                        tally_prefetch(report.output.metrics());
                    }
                    if report_json {
                        jobs_json.push(wave_entry_json(
                            result.wave,
                            result.lanes,
                            report.to_json(),
                        ));
                    } else {
                        println!(
                            "\n[{}] wave {} ({} lane{}) {report}",
                            index + 1,
                            result.wave,
                            result.lanes,
                            if result.lanes == 1 { "" } else { "s" }
                        );
                    }
                }
                Err(e) => {
                    failures += 1;
                    if report_json {
                        let error = failed_job_json(job, e);
                        jobs_json.push(wave_entry_json(result.wave, result.lanes, error));
                    } else {
                        println!(
                            "\n[{}] wave {} {} on {} FAILED: {e}",
                            index + 1,
                            result.wave,
                            job.spec.name(),
                            job.graph.id()
                        );
                    }
                }
            }
        }
        server.collect_stats(&mut registry);
        serve_stats = Some(server.stats());
        serve_latency = Some(server.latency().clone());
    } else {
        for (index, job) in plan.jobs.iter().enumerate() {
            match session.submit(job) {
                Ok(report) => {
                    tally_prefetch(report.output.metrics());
                    if report_json {
                        jobs_json.push(report.to_json());
                    } else {
                        println!("\n[{}] {report}", index + 1);
                    }
                }
                Err(e) => {
                    failures += 1;
                    if report_json {
                        jobs_json.push(failed_job_json(job, &e));
                    } else {
                        println!(
                            "\n[{}] {} on {} FAILED: {e}",
                            index + 1,
                            job.spec.name(),
                            job.graph.id()
                        );
                    }
                }
            }
        }
    }
    let elapsed = start.elapsed();
    // Write the collected telemetry even when jobs failed — a partial
    // trace is exactly what debugging a failure wants.
    if let (Some(path), Some(sink)) = (&trace_path, &trace_sink) {
        let data = if path.ends_with(".jsonl") {
            sink.to_jsonl()
        } else {
            sink.to_chrome_trace()
        };
        std::fs::write(path, data).map_err(|e| format!("{path}: {e}"))?;
        if !report_json {
            println!(
                "\ntrace: {} events from {} job(s) written to {path}",
                sink.len(),
                sink.job_names().len()
            );
        }
    }
    let stats = session.cache_stats();
    registry.counter(
        "graphr_cache_hits_total",
        "tiler cache hits across the run",
        stats.hits,
    );
    registry.counter(
        "graphr_cache_misses_total",
        "tiler cache misses across the run",
        stats.misses,
    );
    registry.gauge(
        "graphr_cache_entries",
        "preprocessed graphs resident in the tiler cache",
        stats.entries as i64,
    );
    if disk.is_some_and(|d| d.prefetch) {
        let (bytes, hits, wasted) = prefetch_totals;
        registry.counter(
            "graphr_disk_prefetch_bytes_total",
            "bytes the pipelined I/O lane read ahead across the run",
            bytes,
        );
        registry.counter(
            "graphr_disk_prefetch_hits_total",
            "prefetched runs later scans consumed",
            hits,
        );
        registry.counter(
            "graphr_disk_prefetch_wasted_bytes_total",
            "prefetched bytes discarded unread at window commits",
            wasted,
        );
    }
    registry.counter(
        "graphr_jobs_total",
        "jobs the job file submitted",
        plan.jobs.len() as u64,
    );
    registry.counter(
        "graphr_job_failures_total",
        "jobs that failed validation or execution",
        failures as u64,
    );
    if report_json {
        let mut out = String::new();
        let mut doc = JsonObject::open(&mut out);
        doc.raw("jobs", format!("[{}]", jobs_json.join(",")))
            .raw("failures", failures)
            .raw("host_wall_s", elapsed.as_secs_f64());
        let mut cache = JsonObject::open(doc.key("cache"));
        cache
            .raw("hits", stats.hits)
            .raw("misses", stats.misses)
            .raw("entries", stats.entries);
        cache.close();
        if let (Some(s), Some(l)) = (&serve_stats, &serve_latency) {
            let mut serve = JsonObject::open(doc.key("serve"));
            serve
                .raw("waves", s.waves)
                .raw("fused", s.fused)
                .raw("solo", s.solo)
                .raw("admitted", s.admitted)
                .raw("rejected", s.rejected);
            let mut latency = JsonObject::open(serve.key("latency_ns"));
            latency
                .raw("p50", l.latency.percentile(50))
                .raw("p95", l.latency.percentile(95))
                .raw("p99", l.latency.percentile(99))
                .raw("max", l.latency.max());
            latency.close();
            serve.close();
        }
        doc.close();
        println!("{out}");
    } else {
        if let (Some(s), Some(l)) = (&serve_stats, &serve_latency) {
            println!(
                "\nserve: {} fused wave(s); {} quer(ies) fused / {} solo; \
                 {} admitted / {} rejected; \
                 latency p50/p95/p99 = {}/{}/{} ns",
                s.waves,
                s.fused,
                s.solo,
                s.admitted,
                s.rejected,
                l.latency.percentile(50),
                l.latency.percentile(95),
                l.latency.percentile(99)
            );
        }
        println!(
            "\ntotal: {} jobs in {:.3} s; tiler cache {} hits / {} misses / {} entries",
            plan.jobs.len(),
            elapsed.as_secs_f64(),
            stats.hits,
            stats.misses,
            stats.entries
        );
    }
    if let Some(dest) = &stats_out {
        let rendered = if dest.ends_with(".json") {
            registry.to_json()
        } else {
            registry.render_prometheus()
        };
        if dest == "-" {
            print!("{rendered}");
        } else {
            std::fs::write(dest, &rendered).map_err(|e| format!("{dest}: {e}"))?;
            if !report_json {
                println!(
                    "\nstats: {} metric(s) written to {dest}",
                    registry.metrics().len()
                );
            }
        }
    }
    if failures > 0 {
        return Err(format!("{failures} job(s) failed"));
    }
    Ok(())
}

struct Plan {
    datasets: HashMap<String, GraphHandle>,
    jobs: Vec<Job>,
    threads: Option<usize>,
    batch: bool,
    disk: Option<DiskModel>,
    prefetch: Option<bool>,
    nodes: Option<usize>,
    owner: OwnerPolicy,
    trace: Option<String>,
}

/// Parses a trace destination as used by `--trace` and the `trace`
/// directive: a path (`.jsonl` selects the JSONL event log, anything
/// else the Chrome trace-event timeline), or `off`/`none` to disable
/// tracing (the opt-out mirror of `--disk none`).
fn parse_trace(value: &str) -> Option<String> {
    if value == "off" || value == "none" {
        None
    } else {
        Some(value.to_owned())
    }
}

/// Parses a node count as used by `--nodes` and the `nodes` directive: a
/// positive integer (`1` = a one-node cluster, bit-identical to
/// single-node execution), or `single`/`none` for plain single-node
/// execution without the cluster wrapper (the opt-out mirror of
/// `--disk none`).
fn parse_nodes(value: &str) -> Result<Option<usize>, String> {
    if value == "single" || value == "none" {
        return Ok(None);
    }
    let n: usize = value
        .parse()
        .map_err(|e| format!("bad node count '{value}' (expected a count, or 'single'): {e}"))?;
    if n == 0 {
        return Err("a cluster needs at least one node (or 'single' for no cluster)".into());
    }
    Ok(Some(n))
}

/// Parses a disk name as used by `--disk` and the `disk` directive:
/// `sata`/`nvme` select a model (append `-seg` for segment-granular
/// requests, `-pipe` for the pipelined prefetching I/O lane), `none`
/// the in-core regime.
fn parse_disk(name: &str) -> Result<Option<DiskModel>, String> {
    if name == "none" {
        return Ok(None);
    }
    DiskModel::by_name(name).map(Some).ok_or_else(|| {
        format!(
            "unknown disk model '{name}' (expected sata, nvme, sata-seg, nvme-seg, \
             one of those with a -pipe suffix, or none)"
        )
    })
}

/// Parses a prefetch toggle as used by `--prefetch` and the `prefetch`
/// directive (composes with whichever disk model is in force, mirroring
/// the `-pipe` model-name suffix).
fn parse_prefetch(value: &str) -> Result<bool, String> {
    match value {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(format!("unknown prefetch setting '{other}' (on|off)")),
    }
}

/// The `--report json` entry of a job that failed.
fn failed_job_json(job: &Job, error: &impl std::fmt::Display) -> String {
    let mut out = String::new();
    let mut obj = JsonObject::open(&mut out);
    obj.str("app", job.spec.name())
        .str("graph", &job.graph.id().to_string())
        .str("error", &error.to_string());
    obj.close();
    out
}

/// A batch-mode `--report json` entry: the query's wave, how many lanes
/// the wave fused, and the query's report (already JSON).
fn wave_entry_json(wave: u64, lanes: usize, report: String) -> String {
    let mut out = String::new();
    let mut obj = JsonObject::open(&mut out);
    obj.raw("wave", wave)
        .raw("lanes", lanes)
        .raw("report", report);
    obj.close();
    out
}

/// Parses a strip-ownership policy as used by `--owner` and the `owner`
/// directive.
fn parse_owner(name: &str) -> Result<OwnerPolicy, String> {
    OwnerPolicy::by_name(name)
        .ok_or_else(|| format!("unknown ownership policy '{name}' (expected rr or degree)"))
}

fn parse_job_file(text: &str) -> Result<Plan, String> {
    let mut plan = Plan {
        datasets: HashMap::new(),
        jobs: Vec::new(),
        threads: None,
        batch: false,
        disk: None,
        prefetch: None,
        nodes: None,
        owner: OwnerPolicy::default(),
        trace: None,
    };
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| format!("line {}: {message}", lineno + 1);
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields[0] {
            "dataset" => {
                let (name, handle) = parse_dataset(&fields).map_err(err)?;
                plan.datasets.insert(name, handle);
            }
            "threads" => {
                let v = fields
                    .get(1)
                    .ok_or_else(|| err("threads needs a value".into()))?;
                plan.threads = Some(v.parse().map_err(|e| err(format!("{e}")))?);
            }
            "batch" => match fields.get(1).copied() {
                Some("on") | None => plan.batch = true,
                Some("off") => plan.batch = false,
                other => return Err(err(format!("unknown batch setting {other:?} (on|off)"))),
            },
            "disk" => {
                let v = fields.get(1).ok_or_else(|| {
                    err("disk needs a value (sata|nvme|sata-seg|nvme-seg|...-pipe|none)".into())
                })?;
                plan.disk = parse_disk(v).map_err(err)?;
            }
            "prefetch" => {
                let v = fields
                    .get(1)
                    .ok_or_else(|| err("prefetch needs a value (on|off)".into()))?;
                plan.prefetch = Some(parse_prefetch(v).map_err(err)?);
            }
            "nodes" => {
                let v = fields
                    .get(1)
                    .ok_or_else(|| err("nodes needs a value (a count, or 'single')".into()))?;
                plan.nodes = parse_nodes(v).map_err(err)?;
            }
            "owner" => {
                let v = fields
                    .get(1)
                    .ok_or_else(|| err("owner needs a value (rr|degree)".into()))?;
                plan.owner = parse_owner(v).map_err(err)?;
            }
            "trace" => {
                let v = fields
                    .get(1)
                    .ok_or_else(|| err("trace needs a path (or 'off')".into()))?;
                plan.trace = parse_trace(v);
            }
            "job" => {
                let jobs = parse_job(&fields, &plan.datasets).map_err(err)?;
                plan.jobs.extend(jobs);
            }
            other => return Err(err(format!("unknown directive '{other}'"))),
        }
    }
    if plan.jobs.is_empty() {
        return Err("job file declares no jobs".into());
    }
    Ok(plan)
}

fn parse_dataset(fields: &[&str]) -> Result<(String, GraphHandle), String> {
    let name = fields.get(1).ok_or("dataset needs a name")?.to_string();
    let kind = fields.get(2).copied().ok_or("dataset needs a kind")?;
    fn parse<T: std::str::FromStr>(
        fields: &[&str],
        i: usize,
        name: &str,
        what: &str,
    ) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        fields
            .get(i)
            .ok_or(format!("dataset {name}: missing {what}"))?
            .parse::<T>()
            .map_err(|e| format!("dataset {name}: bad {what}: {e}"))
    }
    // Vertex ids are `u32`, so every count and the weight bound parse as
    // one: an out-of-range number is an error, never a silent wrap.
    let num = |i: usize, what: &str| parse::<u32>(fields, i, &name, what);
    let seed = |i: usize| parse::<u64>(fields, i, &name, "seed");
    let handle = match kind {
        "rmat" => {
            let (v, e, seed) = (num(3, "vertices")?, num(4, "edges")?, seed(5)?);
            let max_weight = if fields.len() > 6 {
                num(6, "max_weight")?
            } else {
                16
            };
            // Self-loops are off, so an edge needs two distinct vertices.
            if e > 0 && v < 2 {
                return Err(format!(
                    "dataset {name}: {e} edges need at least 2 vertices (self-loops are off)"
                ));
            }
            let graph = Rmat::new(v as usize, e as usize)
                .seed(seed)
                .max_weight(max_weight)
                .self_loops(false)
                .generate();
            GraphHandle::new(name.clone(), graph)
        }
        "bipartite" => {
            let (users, items) = (num(3, "users")?, num(4, "items")?);
            let (ratings, seed) = (num(5, "ratings")?, seed(6)?);
            if ratings > 0 && (users == 0 || items == 0) {
                return Err(format!(
                    "dataset {name}: {ratings} ratings need at least 1 user and 1 item"
                ));
            }
            let m = RatingMatrix::new(users as usize, items as usize, ratings as usize)
                .seed(seed)
                .generate();
            GraphHandle::bipartite(
                name.clone(),
                m.graph().clone(),
                users as usize,
                items as usize,
            )
        }
        "table3" => {
            let tag = fields.get(3).ok_or("table3 needs a tag")?;
            let scale = parse::<f64>(fields, 4, &name, "scale")?;
            // Written so that NaN fails it too.
            if !(scale > 0.0 && scale <= 1.0) {
                return Err(format!(
                    "dataset {name}: scale must be in (0, 1], got {scale}"
                ));
            }
            let spec = DatasetSpec::by_tag(tag).ok_or(format!("unknown Table 3 tag '{tag}'"))?;
            let graph = spec.generate(scale);
            match spec.scaled_bipartite(scale) {
                Some((users, items)) => GraphHandle::bipartite(name.clone(), graph, users, items),
                None => GraphHandle::new(name.clone(), graph),
            }
        }
        other => return Err(format!("unknown dataset kind '{other}'")),
    };
    Ok((name, handle))
}

/// Parses one `job` line into the queries it declares. Most lines are a
/// single job; `bfs`/`sssp` lines may say `sources=a,b,c` to expand into
/// one query per source (what the serve scheduler fuses in batch mode).
fn parse_job(fields: &[&str], datasets: &HashMap<String, GraphHandle>) -> Result<Vec<Job>, String> {
    let app = fields.get(1).copied().ok_or("job needs an app")?;
    let dataset = fields.get(2).copied().ok_or("job needs a dataset")?;
    let handle = datasets
        .get(dataset)
        .ok_or(format!("dataset '{dataset}' not declared"))?
        .clone();
    let mut opts: HashMap<&str, &str> = HashMap::new();
    for field in &fields[3..] {
        let (key, value) = field
            .split_once('=')
            .ok_or(format!("expected key=value, got '{field}'"))?;
        opts.insert(key, value);
    }
    let f64_opt = |key: &str, default: f64| -> Result<f64, String> {
        opts.get(key).map_or(Ok(default), |v| {
            v.parse().map_err(|e| format!("{key}: {e}"))
        })
    };
    let usize_opt = |key: &str, default: usize| -> Result<usize, String> {
        opts.get(key).map_or(Ok(default), |v| {
            v.parse().map_err(|e| format!("{key}: {e}"))
        })
    };
    let specs = match app {
        "pagerank" => {
            let defaults = PageRankOptions::default();
            vec![JobSpec::PageRank(PageRankOptions {
                damping: f64_opt("damping", defaults.damping)?,
                max_iterations: usize_opt("iterations", defaults.max_iterations)?,
                tolerance: f64_opt("tolerance", defaults.tolerance)?,
                ..defaults
            })]
        }
        "spmv" => vec![JobSpec::Spmv(SpmvOptions::default())],
        "bfs" | "sssp" => {
            let defaults = TraversalOptions::default();
            if opts.contains_key("source") && opts.contains_key("sources") {
                return Err("give either source= or sources=, not both".into());
            }
            let sources: Vec<u32> = match opts.get("sources") {
                Some(list) => list
                    .split(',')
                    .map(|v| v.parse().map_err(|e| format!("sources: '{v}': {e}")))
                    .collect::<Result<_, String>>()?,
                None => vec![opts.get("source").map_or(Ok(defaults.source), |v| {
                    v.parse().map_err(|e| format!("source: '{v}': {e}"))
                })?],
            };
            if sources.is_empty() {
                return Err("sources= names no source".into());
            }
            sources
                .into_iter()
                .map(|source| {
                    let traversal = TraversalOptions { source, ..defaults };
                    if app == "bfs" {
                        JobSpec::Bfs(traversal)
                    } else {
                        JobSpec::Sssp(traversal)
                    }
                })
                .collect()
        }
        "wcc" => vec![JobSpec::Wcc],
        "cf" => {
            let defaults = CfOptions::default();
            vec![JobSpec::Cf(CfOptions {
                features: usize_opt("features", defaults.features)?,
                epochs: usize_opt("epochs", defaults.epochs)?,
                learning_rate: f64_opt("learning_rate", defaults.learning_rate)?,
                ..defaults
            })]
        }
        other => return Err(format!("unknown app '{other}'")),
    };
    // A typo'd option must be an error, not a silent fall-back to the
    // default value.
    let allowed: &[&str] = match &specs[0] {
        JobSpec::PageRank(_) => &["damping", "iterations", "tolerance"],
        JobSpec::Spmv(_) | JobSpec::Wcc => &[],
        JobSpec::Bfs(_) | JobSpec::Sssp(_) => &["source", "sources"],
        JobSpec::Cf(_) => &["features", "epochs", "learning_rate"],
    };
    for key in opts.keys() {
        if !allowed.contains(key) {
            return Err(format!(
                "unknown option '{key}' for {app} (allowed: {})",
                if allowed.is_empty() {
                    "none".to_owned()
                } else {
                    allowed.join(", ")
                }
            ));
        }
    }
    Ok(specs
        .into_iter()
        .map(|spec| Job::new(handle.clone(), spec))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The error `parse_job_file` reports for `text`.
    fn parse_error(text: &str) -> String {
        match parse_job_file(text) {
            Ok(_) => panic!("accepted {text:?}"),
            Err(e) => e,
        }
    }

    #[test]
    fn rmat_edges_without_vertices_are_a_line_error() {
        let e = parse_error("dataset g rmat 0 10 1\njob bfs g\n");
        assert!(
            e.starts_with("line 1: ") && e.contains("at least 2 vertices"),
            "{e}"
        );
    }

    #[test]
    fn rmat_edges_on_one_vertex_are_a_line_error() {
        // With self-loops off the generator could never place an edge.
        let e = parse_error("dataset g rmat 1 5 1\njob bfs g\n");
        assert!(
            e.starts_with("line 1: ") && e.contains("at least 2 vertices"),
            "{e}"
        );
    }

    #[test]
    fn bipartite_ratings_without_users_are_a_line_error() {
        let e = parse_error("dataset g bipartite 0 5 10 1\njob cf g\n");
        assert!(
            e.starts_with("line 1: ") && e.contains("at least 1 user"),
            "{e}"
        );
    }

    #[test]
    fn source_beyond_u32_is_a_line_error_not_a_wrap() {
        let e = parse_error("dataset g rmat 64 256 1\njob bfs g source=4294967296\n");
        assert!(e.starts_with("line 2: source: "), "{e}");
        let e = parse_error("dataset g rmat 64 256 1\njob sssp g sources=1,4294967296\n");
        assert!(e.starts_with("line 2: sources: "), "{e}");
    }

    #[test]
    fn table3_scale_outside_unit_interval_is_a_line_error() {
        for scale in ["0", "-0.5", "nan", "5", "inf"] {
            let e = parse_error(&format!("dataset g table3 WV {scale}\njob bfs g\n"));
            assert!(
                e.starts_with("line 1: dataset g: scale must be in (0, 1]"),
                "{scale}: {e}"
            );
        }
        let e = parse_error("dataset g table3 WV\njob bfs g\n");
        assert!(e.starts_with("line 1: dataset g: missing scale"), "{e}");
    }

    #[test]
    fn in_range_lines_still_parse() {
        let plan = parse_job_file("dataset g rmat 2 1 1\njob bfs g source=1\n").expect("valid");
        assert_eq!(plan.jobs.len(), 1);
        assert!(matches!(plan.jobs[0].spec, JobSpec::Bfs(t) if t.source == 1));
    }
}
