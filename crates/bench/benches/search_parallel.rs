//! Benchmark: the Fig.-7 frontier sweep, serial vs parallel candidate
//! evaluation (`SearchOptions::with_jobs`).
//!
//! Besides the criterion timings, the bench records one set of
//! wall-clock measurements (median of a few runs per worker count) to
//! `BENCH_search.json` at the repository root so the perf trajectory is
//! tracked across commits. Speedups are relative to jobs=1 on the same
//! machine; `available_parallelism` is recorded alongside because a
//! worker count above the CPU count cannot help (on a single-CPU
//! container every configuration degenerates to ~1x).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration as StdDuration, Instant};

use aved::avail::DecompositionEngine;
use aved::model::ParamValue;
use aved::scenario;
use aved::search::{job_frontier, CachingEngine, EvalContext, SearchOptions};

const JOB_COUNTS: [usize; 4] = [1, 2, 4, 8];
const TOTALS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

fn options() -> SearchOptions {
    SearchOptions {
        max_extra_active: 2,
        max_spares: 2,
        ..SearchOptions::default()
    }
    .with_pin("maintenanceA", "level", ParamValue::Level("bronze".into()))
    .with_pin("maintenanceB", "level", ParamValue::Level("bronze".into()))
}

/// One full Fig.-7 sweep with a fresh model cache (so every run pays the
/// same evaluation work and the cache speedup is not measured instead).
fn run_sweep(jobs: usize) -> usize {
    let infrastructure = scenario::infrastructure().unwrap();
    let service = scenario::scientific().unwrap();
    let catalog = scenario::catalog();
    let inner = DecompositionEngine::default();
    let engine = CachingEngine::new(&inner);
    let ctx = EvalContext::new(&infrastructure, &service, &catalog, &engine);
    let frontier = job_frontier(&ctx, "computation", &TOTALS, &options().with_jobs(jobs))
        .unwrap()
        .0;
    frontier.len()
}

fn median_wall_time(jobs: usize, samples: usize) -> StdDuration {
    let mut times: Vec<StdDuration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            black_box(run_sweep(jobs));
            start.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

fn write_bench_json() {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let measured: Vec<(usize, StdDuration)> = JOB_COUNTS
        .iter()
        .map(|&jobs| (jobs, median_wall_time(jobs, 3)))
        .collect();
    let serial = measured[0].1.as_secs_f64();

    let mut rows = String::new();
    for (i, (jobs, time)) in measured.iter().enumerate() {
        let secs = time.as_secs_f64();
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{ \"jobs\": {jobs}, \"median_wall_ms\": {:.3}, \"speedup_vs_serial\": {:.3} }}",
            secs * 1e3,
            serial / secs
        ));
        println!(
            "search_parallel: jobs={jobs} median {:.1} ms ({:.2}x vs serial)",
            secs * 1e3,
            serial / secs
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"search_parallel\",\n  \"workload\": \"fig7 job_frontier sweep, totals {TOTALS:?}\",\n  \"available_parallelism\": {cpus},\n  \"samples_per_point\": 3,\n  \"runs\": [\n{rows}\n  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_search.json");
    std::fs::write(path, json).expect("write BENCH_search.json");
    println!("search_parallel: wrote {path} (available_parallelism={cpus})");
}

fn bench_search_parallel(c: &mut Criterion) {
    write_bench_json();

    let mut group = c.benchmark_group("search_parallel");
    group.sample_size(10);
    for jobs in JOB_COUNTS {
        group.bench_function(format!("fig7_sweep_jobs{jobs}"), |b| {
            b.iter(|| black_box(run_sweep(black_box(jobs))));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_search_parallel);
criterion_main!(benches);
