//! Criterion microbenchmarks of the §3.4 preprocessing: global-order-ID
//! computation and full edge-list tiling (the once-per-graph software
//! step of Figure 9), from 10 K to 16 M edges. Prints the mean and the
//! fastest time per call and edges/s; every point is timed at least five
//! times (the tilings from 1 M edges up call by call), and the fastest
//! column from 1 M to 16 M edges shows whether tiling time grows
//! linearly. It asserts nothing about host time. It also prints the
//! tiling's heap bytes per stored edge at each size, and asserts the 1 M
//! edge point holds at most 15: that is deterministic.

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
        let bytes = TiledGraph::preprocess(&graph, &config)
            .unwrap()
            .heap_bytes();
        let per_edge = bytes as f64 / edges as f64;
        println!("preprocess/tile_graph/{edges}: tiling holds {per_edge:.2} B per stored edge");
        if edges == 1_000_000 {
            assert!(
                per_edge <= 15.0,
                "{per_edge:.2} B per stored edge at 1 M edges"
            );
        }
        group.throughput(Throughput::Elements(edges as u64));
        group.bench_with_input(BenchmarkId::new("tile_graph", edges), &graph, |b, graph| {
            b.iter(|| TiledGraph::preprocess(std::hint::black_box(graph), &config).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, preprocess_benches);
criterion_main!(benches);
