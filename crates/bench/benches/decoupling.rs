//! Microbenchmark: graph decoupling engines (Algorithm 1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdr_core::matching::{fifo_matching, greedy_matching, hopcroft_karp};
use gdr_core::workspace::Workspace;
use gdr_frontend::config::FrontendConfig;
use gdr_frontend::decoupler::Decoupler;
use gdr_hetgraph::datasets::Dataset;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let het = Dataset::Dblp.build_scaled(42, 0.3);
    let g2 = het
        .all_semantic_graphs()
        .into_iter()
        .max_by_key(|g| g.edge_count())
        .unwrap();
    println!(
        "\ndecoupling target: {} ({} x {}, {} edges)",
        g2.name(),
        g2.src_count(),
        g2.dst_count(),
        g2.edge_count()
    );

    let mut group = c.benchmark_group("decoupling");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(5));
    group.bench_with_input(
        BenchmarkId::new("hopcroft_karp", g2.edge_count()),
        &g2,
        |b, g| b.iter(|| hopcroft_karp(g)),
    );
    group.bench_with_input(
        BenchmarkId::new("fifo_paper", g2.edge_count()),
        &g2,
        |b, g| b.iter(|| fifo_matching(g)),
    );
    group.bench_with_input(BenchmarkId::new("greedy", g2.edge_count()), &g2, |b, g| {
        b.iter(|| greedy_matching(g))
    });
    group.bench_with_input(
        BenchmarkId::new("decoupler_hw_model", g2.edge_count()),
        &g2,
        |b, g| {
            let d = Decoupler::new(FrontendConfig::default());
            let mut ws = Workspace::new();
            b.iter(|| d.decouple_with(&mut ws, g))
        },
    );
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
