//! Benchmark: one Fig.-8 curve — the cost-of-availability sweep for a
//! single load (frontier construction + budget lookups across the full
//! downtime axis).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use aved::avail::DecompositionEngine;
use aved::scenario;
use aved::search::{tier_pareto_frontier, EvalContext, SearchOptions};
use aved_bench::geometric_grid;

fn bench_fig8(c: &mut Criterion) {
    let infrastructure = scenario::infrastructure().unwrap();
    let service = scenario::ecommerce().unwrap();
    let catalog = scenario::catalog();
    let options = SearchOptions::default();
    let budgets = geometric_grid(0.1, 1000.0, 25);

    let mut group = c.benchmark_group("fig8");
    group.sample_size(10);

    for load in [400.0, 1600.0] {
        group.bench_function(format!("curve_load{load}"), |b| {
            b.iter(|| {
                let engine = DecompositionEngine::default();
                let ctx = EvalContext::new(&infrastructure, &service, &catalog, &engine);
                let frontier = tier_pareto_frontier(&ctx, "application", black_box(load), &options)
                    .unwrap()
                    .0;
                let base = frontier[0].cost();
                let mut acc = 0.0;
                for &budget in &budgets {
                    if let Some(e) = frontier
                        .iter()
                        .find(|e| e.annual_downtime().minutes() <= budget)
                    {
                        acc += (e.cost() - base).dollars();
                    }
                }
                black_box(acc);
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
