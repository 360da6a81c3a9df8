//! Benchmark: the work behind one Fig.-6 data point and one full column.
//!
//! `fig6_point` is a single optimal-design search at a (load, downtime)
//! requirement; `fig6_frontier` is the full cost/downtime frontier at one
//! load (one column of the figure).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use aved::avail::DecompositionEngine;
use aved::scenario;
use aved::search::{search_tier, tier_pareto_frontier, EvalContext, SearchOptions};
use aved::units::Duration;

fn bench_fig6(c: &mut Criterion) {
    let infrastructure = scenario::infrastructure().unwrap();
    let service = scenario::ecommerce().unwrap();
    let catalog = scenario::catalog();
    let options = SearchOptions::default();

    let mut group = c.benchmark_group("fig6");
    group.sample_size(10);

    group.bench_function("point_load1000_budget100m", |b| {
        b.iter(|| {
            let engine = DecompositionEngine::default();
            let ctx = EvalContext::new(&infrastructure, &service, &catalog, &engine);
            let out = search_tier(
                &ctx,
                "application",
                black_box(1000.0),
                Duration::from_mins(100.0),
                &options,
            )
            .unwrap();
            black_box(out.best().map(|e| e.cost()));
        });
    });

    group.bench_function("frontier_load1000", |b| {
        b.iter(|| {
            let engine = DecompositionEngine::default();
            let ctx = EvalContext::new(&infrastructure, &service, &catalog, &engine);
            let frontier = tier_pareto_frontier(&ctx, "application", black_box(1000.0), &options)
                .unwrap()
                .0;
            black_box(frontier.len());
        });
    });

    group.finish();
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
