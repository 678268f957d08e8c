//! Microbenchmark: graph recoupling (Algorithm 2) and subgraph generation.

use criterion::{criterion_group, criterion_main, Criterion};
use gdr_core::backbone::{Backbone, BackboneStrategy};
use gdr_core::matching::hopcroft_karp;
use gdr_core::recouple::RestructuredSubgraphs;
use gdr_core::workspace::Workspace;
use gdr_frontend::config::FrontendConfig;
use gdr_frontend::recoupler::Recoupler;
use gdr_hetgraph::datasets::Dataset;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let het = Dataset::Dblp.build_scaled(42, 0.3);
    let g2 = het
        .all_semantic_graphs()
        .into_iter()
        .max_by_key(|g| g.edge_count())
        .unwrap();
    let m = hopcroft_karp(&g2);

    let mut group = c.benchmark_group("recoupling");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(5));
    for strat in [
        BackboneStrategy::Paper,
        BackboneStrategy::KonigExact,
        BackboneStrategy::GreedyDegree,
    ] {
        group.bench_function(format!("backbone_{strat}"), |b| {
            b.iter(|| Backbone::select(&g2, &m, strat))
        });
    }
    let bb = Backbone::select(&g2, &m, BackboneStrategy::Paper);
    group.bench_function("generate_subgraphs", |b| {
        b.iter(|| RestructuredSubgraphs::generate(&g2, &bb))
    });
    group.bench_function("recoupler_hw_model", |b| {
        let r = Recoupler::new(FrontendConfig::default());
        let mut ws = Workspace::new();
        ws.matching = m.clone();
        b.iter(|| r.recouple_with(&mut ws, &g2))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
