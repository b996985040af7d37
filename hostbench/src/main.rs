//! Host-clock benchmark of the GraphR simulator.
//!
//! ```text
//! graphr-hostbench --workload <traverse_grid|pagerank_rmat|serve_mixed>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates every input from the seed, runs the workload's cold set-up
//! several times, then runs numbered rounds for the given seconds, checking
//! every output against gold references. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it runs half the time untraced,
//! replays the same rounds with every engine wrapped in a timing
//! decorator, checks that both passes produced identical simulated
//! digests, and reports per-layer self time. The last line of standard
//! output is one JSON object; the exit code is 1 if any output was wrong.

mod check;
mod pagerank;
mod profile;
mod serve;
mod traverse;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use check::{percentile, recorded_digest, Digest};
use profile::Layer;
use workload::{median, Facts, Round, Setup, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
    })
}

/// A metric as the result line prints it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    let value = if value.is_finite() { value } else { 0.0 };
    Metric { name, value, unit }
}

/// Runs untraced rounds until `seconds` have passed and the workload's
/// minimum round count is reached.
fn measure(w: &mut dyn Workload, seconds: f64) -> Vec<Round> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < w.min_rounds() || start.elapsed().as_secs_f64() < seconds {
        rounds.push(w.round(rounds.len(), false));
    }
    rounds
}

/// Runs every round twice, untraced then traced, until `seconds` have
/// passed: both passes see the same warm state, so their difference is
/// the tracing overhead. Returns both passes and the traced profile.
fn measure_traced(
    w: &mut dyn Workload,
    seconds: f64,
) -> (Vec<Round>, Vec<Round>, profile::Profile) {
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut p = profile::Profile::default();
    while untraced.len() < w.min_rounds() || start.elapsed().as_secs_f64() < seconds {
        untraced.push(w.round(untraced.len(), false));
        profile::take();
        traced.push(w.round(traced.len(), true));
        p.merge(&profile::take());
    }
    (untraced, traced, p)
}

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn end_to_end(setup: &Setup, rounds: &[Round]) -> Vec<Metric> {
    let walls_ms: Vec<f64> = rounds.iter().map(|r| r.wall.as_secs_f64() * 1e3).collect();
    let wall_s = walls_ms.iter().sum::<f64>() * 1e-3;
    let total = |per_round: fn(&Round) -> u64| rounds.iter().map(per_round).sum::<u64>() as f64;
    vec![
        metric("setup_s", median(&setup.total_s), "s"),
        metric(
            "sim_edges_per_s",
            total(|r| r.facts.edges) / wall_s,
            "edges/s",
        ),
        metric("queries_per_s", total(|r| r.queries) / wall_s, "1/s"),
        metric("round_p50_ms", percentile(&walls_ms, 50.0), "ms"),
        metric("round_p90_ms", percentile(&walls_ms, 90.0), "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

fn per_layer(
    setup: &Setup,
    untraced: &[Round],
    traced: &[Round],
    p: &profile::Profile,
) -> Vec<Metric> {
    let n = traced.len() as f64;
    let wall: f64 = traced.iter().map(|r| r.wall.as_secs_f64()).sum();
    let overhead: Vec<f64> = untraced
        .iter()
        .zip(traced)
        .map(|(u, t)| t.wall.as_secs_f64() / u.wall.as_secs_f64())
        .collect();
    let mut f = Facts::default();
    for r in traced {
        f += r.facts;
    }
    let c = p.counts;
    let s = |layer| p.self_s(layer) / n;
    let per = |x: u64| x as f64 / n;
    let runs = f.fused_waves + f.solo_runs;
    vec![
        metric("preprocess.tile_s", median(&setup.tile_s), "s"),
        metric("preprocess.skeleton_s", median(&setup.skeleton_s), "s"),
        metric("preprocess.index_s", median(&setup.index_s), "s"),
        metric("planner.s", s(Layer::Planner), "s"),
        metric("planner.calls", per(c.planner_calls), "count"),
        metric("planner.delta_patches", per(f.delta_patches), "count"),
        metric("planner.rebuilds", per(f.rebuilds), "count"),
        metric("planner.units_reused", per(f.units_reused), "count"),
        metric("planner.reported_s", per(f.plan_reported_ns) * 1e-9, "s"),
        metric("scan.s", s(Layer::Scan), "s"),
        metric("scan.calls", per(c.scan_calls), "count"),
        metric("scan.edges", per(c.scan_edges), "count"),
        metric(
            "scan.ns_per_edge",
            p.self_s(Layer::Scan) * 1e9 / c.scan_edges as f64,
            "ns",
        ),
        metric(
            "scan.subgraphs_pruned",
            per(c.scan_subgraphs_pruned),
            "count",
        ),
        metric("multinode.s", s(Layer::Multinode), "s"),
        metric("multinode.bytes_exchanged", per(f.bytes_exchanged), "bytes"),
        metric("outofcore.end_iteration_s", s(Layer::Outofcore), "s"),
        metric("outofcore.bytes_loaded", per(f.bytes_loaded), "bytes"),
        metric("outofcore.prefetch_hits", per(f.prefetch_hits), "count"),
        metric("outofcore.prefetch_wasted", per(f.prefetch_wasted), "bytes"),
        metric("sim.driver_s", s(Layer::Sim), "s"),
        metric("trace.export_s", s(Layer::Trace), "s"),
        metric("trace.bytes", per(f.trace_bytes), "bytes"),
        metric("session.s", s(Layer::Session), "s"),
        metric("session.cache_hits", per(f.cache_hits), "count"),
        metric("session.cache_misses", per(f.cache_misses), "count"),
        metric("serve.sched_s", s(Layer::Serve), "s"),
        metric("serve.fused_waves", per(f.fused_waves), "count"),
        metric("serve.solo_runs", per(f.solo_runs), "count"),
        metric("serve.lanes_mean", f.lanes as f64 / runs as f64, "lanes"),
        metric("serve.retried", per(f.retried), "count"),
        metric("stats.scrape_s", s(Layer::Stats), "s"),
        metric("unattributed_s", (wall - p.total_s()) / n, "s"),
        metric("round_wall_s", wall / n, "s"),
        metric("trace_overhead", median(&overhead), "ratio"),
    ]
}

/// The run digest: the first `min_rounds` round digests folded together.
fn run_digest(rounds: &[Round], min_rounds: usize) -> u64 {
    let mut d = Digest::default();
    for r in &rounds[..min_rounds] {
        d.bytes(&r.digest.to_le_bytes());
    }
    d.value()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("graphr-hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut w, setup): (Box<dyn Workload>, Setup) = match args.workload.as_str() {
        "traverse_grid" => {
            let (w, s) = traverse::TraverseGrid::setup(args.seed, 5);
            (Box::new(w), s)
        }
        "pagerank_rmat" => {
            let (w, s) = pagerank::PagerankRmat::setup(args.seed, 5);
            (Box::new(w), s)
        }
        "serve_mixed" => {
            let (w, s) = serve::ServeMixed::setup(args.seed, 15);
            (Box::new(w), s)
        }
        other => {
            eprintln!("graphr-hostbench: unknown workload '{other}'");
            return ExitCode::from(2);
        }
    };
    let min_rounds = w.min_rounds();

    let (rounds, metrics, passive) = if args.trace {
        let (untraced, traced, p) = measure_traced(w.as_mut(), args.seconds);
        let passive = untraced
            .iter()
            .zip(&traced)
            .all(|(a, b)| a.digest == b.digest);
        let metrics = per_layer(&setup, &untraced, &traced, &p);
        ([untraced, traced].concat(), metrics, passive)
    } else {
        let rounds = measure(w.as_mut(), args.seconds);
        let metrics = end_to_end(&setup, &rounds);
        (rounds, metrics, true)
    };

    let digest = run_digest(&rounds, min_rounds);
    let recorded = recorded_digest(&args.workload, args.seed);
    let attempted: u64 = rounds.iter().map(|r| r.queries).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let correct = failed == 0 && passive && recorded.is_none_or(|d| d == digest);

    println!(
        "workload {} seed {} rounds {} attempted {attempted} failed {failed}",
        args.workload,
        args.seed,
        rounds.len()
    );
    let samples: Vec<String> = setup.total_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("set-up runs (s): {}", samples.join(" "));
    let mut facts = Facts::default();
    for r in &rounds {
        facts += r.facts;
    }
    let [compute, disk, network] = facts.bounds;
    println!("runs by bound: compute {compute} disk {disk} network {network}");
    println!(
        "digest {digest:016x} recorded {} traced-equals-untraced {passive}",
        recorded.map_or("none".to_owned(), |d| format!("{d:016x}"))
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            println!("  {:<28} {:>16} {}", m.name, m.value, m.unit);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
