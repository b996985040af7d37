//! Criterion microbenchmarks of the CPU software substrate: dual-sliding-
//! windows streaming throughput and one full GraphR MAC scan, so the
//! simulator's own speed (not the modelled platforms') is tracked.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use graphr_core::exec::streaming::{EdgeValueFn, StreamingExecutor};
use graphr_core::{GraphRConfig, TiledGraph};
use graphr_graph::generators::rmat::Rmat;
use graphr_gridgraph::engine::{GridEngine, PageRankSettings};
use graphr_units::FixedSpec;

fn substrate_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate");
    let edges = 100_000usize;
    let graph = Rmat::new(edges / 8, edges).seed(2).generate();
    group.throughput(Throughput::Elements(edges as u64));

    group.bench_with_input(
        BenchmarkId::new("gridgraph_pagerank_iteration", edges),
        &graph,
        |b, graph| {
            let engine = GridEngine::new(graph, 4);
            let settings = PageRankSettings {
                max_iterations: 1,
                tolerance: 0.0,
                ..PageRankSettings::default()
            };
            b.iter(|| engine.pagerank(std::hint::black_box(&settings)));
        },
    );

    group.bench_with_input(
        BenchmarkId::new("graphr_mac_scan", edges),
        &graph,
        |b, graph| {
            let config = GraphRConfig::default();
            let tiled = TiledGraph::preprocess(graph, &config).unwrap();
            let spec = FixedSpec::new(16, 8).unwrap();
            let x = vec![1.0; graph.num_vertices()];
            b.iter(|| {
                let mut exec = StreamingExecutor::new(&tiled, &config, spec);
                exec.scan_mac(
                    &EdgeValueFn::new(&|w, _, _| f64::from(w)),
                    &[std::hint::black_box(&x)],
                )
            });
        },
    );
    group.finish();
}

criterion_group!(benches, substrate_benches);
criterion_main!(benches);
