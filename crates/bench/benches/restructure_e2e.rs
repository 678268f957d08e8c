//! End-to-end restructuring benchmark: software driver vs the hardware
//! frontend pipeline, across all three datasets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdr_core::restructure::Restructurer;
use gdr_frontend::config::FrontendConfig;
use gdr_frontend::session::Session;
use gdr_hetgraph::datasets::Dataset;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("restructure_e2e");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));
    for d in Dataset::ALL {
        let het = d.build_scaled(42, 0.25);
        let graphs = het.all_semantic_graphs();
        group.bench_with_input(BenchmarkId::new("software", d.name()), &graphs, |b, gs| {
            let r = Restructurer::new();
            b.iter(|| gs.iter().map(|g| r.restructure(g)).collect::<Vec<_>>())
        });
        group.bench_with_input(
            BenchmarkId::new("frontend_hw", d.name()),
            &graphs,
            |b, gs| {
                let s = Session::new(FrontendConfig::default(), gs);
                b.iter(|| s.process())
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
