//! Criterion microbenchmarks of the §3.4 preprocessing: global-order-ID
//! computation and full edge-list tiling (the once-per-graph software
//! step of Figure 9), from 10 K to 16 M edges. Prints time per call and
//! edges/s; the column from 1 M to 16 M edges shows whether tiling time
//! grows linearly. It asserts nothing about host time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use graphr_core::preprocess::TileOrder;
use graphr_core::{GraphRConfig, TiledGraph};
use graphr_graph::generators::rmat::Rmat;

fn preprocess_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("preprocess");
    let order = TileOrder::new(1 << 20, 8, 4096, 1 << 20).unwrap();
    group.bench_function("global_order_id", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7919) % (1 << 20);
            std::hint::black_box(order.global_id(i, (i * 31) % (1 << 20)))
        });
    });
    let config = GraphRConfig::default();
    // The last three points are hostbench's `pagerank_rmat` graph and
    // ones four and sixteen times larger, so the edges/s column shows
    // whether tiling scales linearly at benchmark size and beyond.
    for (vertices, edges) in [
        (1_250usize, 10_000usize),
        (12_500, 100_000),
        (65_536, 1_000_000),
        (262_144, 4_000_000),
        (1_048_576, 16_000_000),
    ] {
        let graph = Rmat::new(vertices, edges).seed(1).generate();
        group.throughput(Throughput::Elements(edges as u64));
        group.bench_with_input(BenchmarkId::new("tile_graph", edges), &graph, |b, graph| {
            b.iter(|| TiledGraph::preprocess(std::hint::black_box(graph), &config).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, preprocess_benches);
criterion_main!(benches);
