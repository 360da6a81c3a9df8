//! Ablation: the §4.1 cost-first pruned search vs the exhaustive frontier
//! sweep. The pruned search visits a fraction of the candidates (the bench
//! prints the counters once) while the `pruned_search_matches_exhaustive_
//! optimum` test in `aved-search` proves the optima coincide.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use aved::avail::DecompositionEngine;
use aved::scenario;
use aved::search::{search_tier, tier_pareto_frontier, CachingEngine, EvalContext, SearchOptions};
use aved::units::Duration;

fn bench_pruning(c: &mut Criterion) {
    let infrastructure = scenario::infrastructure().unwrap();
    let service = scenario::ecommerce().unwrap();
    let catalog = scenario::catalog();
    let options = SearchOptions::default();
    let load = 1600.0;
    let budget = Duration::from_mins(100.0);

    // Print the work counters once.
    {
        let inner = DecompositionEngine::default();
        let engine = CachingEngine::new(&inner);
        let ctx = EvalContext::new(&infrastructure, &service, &catalog, &engine);
        let out = search_tier(&ctx, "application", load, budget, &options).unwrap();
        let stats = out.stats();
        println!(
            "pruned search: {} cost evals, {} quality evals, {} pruned by cost",
            stats.cost_evaluations, stats.quality_evaluations, stats.pruned_by_cost
        );
        let frontier = tier_pareto_frontier(&ctx, "application", load, &options)
            .unwrap()
            .0;
        println!("exhaustive frontier: {} Pareto steps", frontier.len());
    }

    let mut group = c.benchmark_group("pruning");
    group.sample_size(10);

    group.bench_function("pruned_search", |b| {
        b.iter(|| {
            let inner = DecompositionEngine::default();
            let engine = CachingEngine::new(&inner);
            let ctx = EvalContext::new(&infrastructure, &service, &catalog, &engine);
            let out = search_tier(&ctx, "application", black_box(load), budget, &options).unwrap();
            black_box(out.best().map(|e| e.cost()));
        });
    });

    group.bench_function("exhaustive_frontier", |b| {
        b.iter(|| {
            let inner = DecompositionEngine::default();
            let engine = CachingEngine::new(&inner);
            let ctx = EvalContext::new(&infrastructure, &service, &catalog, &engine);
            let frontier = tier_pareto_frontier(&ctx, "application", black_box(load), &options)
                .unwrap()
                .0;
            black_box(
                frontier
                    .iter()
                    .find(|e| e.annual_downtime() <= budget)
                    .map(|e| e.cost()),
            );
        });
    });

    group.finish();
}

criterion_group!(benches, bench_pruning);
criterion_main!(benches);
