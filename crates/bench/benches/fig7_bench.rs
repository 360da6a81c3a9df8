//! Benchmark: one Fig.-7 data point — the optimal scientific-application
//! design at one execution-time requirement, including the checkpoint
//! parameter sweep.
//!
//! Before timing, it runs the Fig. 7 job frontier twice and prints how
//! much reuse there is: the availability models the sweep evaluated for
//! its candidates (each distinct model once), the evaluation sessions'
//! class memo behind a bare `DecompositionEngine` (share of class
//! evaluations replayed), and the `CachingEngine` tier memo, which a
//! sweep leaves no repeated model to serve.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use aved::avail::DecompositionEngine;
use aved::model::ParamValue;
use aved::scenario;
use aved::search::{
    job_frontier, search_job_tier, CachingEngine, EvalContext, SearchHealth, SearchOptions,
};
use aved::units::Duration;
use aved::{Catalog, Infrastructure, Service};

fn bench_fig7(c: &mut Criterion) {
    let infrastructure = scenario::infrastructure().unwrap();
    let service = scenario::scientific().unwrap();
    let catalog = scenario::catalog();
    let options = SearchOptions {
        max_spares: 3,
        ..SearchOptions::default()
    }
    .with_pin("maintenanceA", "level", ParamValue::Level("bronze".into()))
    .with_pin("maintenanceB", "level", ParamValue::Level("bronze".into()));

    print_reuse_on_the_job_frontier(&infrastructure, &service, &catalog, &options);

    let mut group = c.benchmark_group("fig7");
    group.sample_size(10);

    for req_hours in [50.0, 200.0] {
        group.bench_function(format!("point_req{req_hours}h"), |b| {
            b.iter(|| {
                let inner = DecompositionEngine::default();
                let engine = CachingEngine::new(&inner);
                let ctx = EvalContext::new(&infrastructure, &service, &catalog, &engine);
                let out = search_job_tier(
                    &ctx,
                    "computation",
                    Duration::from_hours(black_box(req_hours)),
                    &options,
                )
                .unwrap();
                black_box(out.best().map(|e| e.cost()));
            });
        });
    }

    group.finish();
}

/// Resource totals of the job frontier: Fig. 7 spans 1 to 1000 nodes.
const FRONTIER_TOTALS: [u32; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000];

/// Prints the availability models evaluated on the job frontier and the
/// class memo's replay share through a bare decomposition engine, next to
/// the tier memo's hits on the same frontier.
fn print_reuse_on_the_job_frontier(
    infrastructure: &Infrastructure,
    service: &Service,
    catalog: &Catalog,
    options: &SearchOptions,
) {
    let frontier = |engine: &dyn aved::AvailabilityEngine| -> SearchHealth {
        let ctx = EvalContext::new(infrastructure, service, catalog, engine);
        job_frontier(&ctx, "computation", &FRONTIER_TOTALS, options)
            .unwrap()
            .1
    };
    let bare = DecompositionEngine::default();
    let health = frontier(&bare);
    let classes = health.session.solves + health.session.class_hits;
    let caching = CachingEngine::new(&bare);
    let cached = frontier(&caching);
    let tiers = caching.hits() + caching.misses();
    println!(
        "fig7 job frontier: models {} / {} candidates; class memo replays {:.4} \
         of {classes} class evaluations in {:.1} ms (bare DecompositionEngine); \
         CachingEngine hits {} of {tiers} tier evaluations in {:.1} ms",
        health.models_evaluated,
        health.candidates_scored,
        health.session.class_hits as f64 / classes as f64,
        health.wall_time.as_secs_f64() * 1e3,
        caching.hits(),
        cached.wall_time.as_secs_f64() * 1e3,
    );
}

criterion_group!(benches, bench_fig7);
criterion_main!(benches);
