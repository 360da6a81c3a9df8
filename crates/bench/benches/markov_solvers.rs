//! Benchmark of the CTMC substrate itself: dense Gaussian elimination vs
//! uniformized power iteration on chains of growing size, plus the
//! birth–death closed form as the floor.
//!
//! The birth–death chains have no fill-in, so they understate elimination
//! cost. The `tier` cases solve the chains the exact CTMC engine actually
//! builds for paper-style four-class tiers (126 and 252 states), where
//! partial pivoting fills every pivot row, and replay one explore followed
//! by repatched solves through an evaluation session. A seven-class tier
//! (3960 states) replays the same session pattern past the dense cutover,
//! where every solve runs the iterative stages from a cold start.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use aved::avail::{
    export_sharpe_markov, AvailabilityEngine, CtmcEngine, EvalSession, FailureClass, TierModel,
};
use aved::markov::{
    birth_death, Ctmc, CtmcBuilder, DenseSolver, GaussSeidelSolver, PowerSolver, SteadyStateSolver,
};
use aved::units::Duration;

/// Dense solves per timed iteration of the tier cases (one solve of a
/// 126-state chain is well under a millisecond).
const TIER_SOLVES: usize = 20;
/// Repatched solves after the initial explore in the session case.
const REPATCHES: u32 = 100;
/// Repatched solves after the initial explore in the large-chain case.
const WIDE_REPATCHES: u32 = 10;

/// A machine-repairman chain with `n + 1` states.
fn repair_chain(n: usize) -> aved::markov::Ctmc {
    let lambda = 1e-3;
    let mu = 0.5;
    let mut b = CtmcBuilder::new(n + 1);
    for k in 0..n {
        b.rate(k, k + 1, (n - k) as f64 * lambda);
        b.rate(k + 1, k, (k + 1) as f64 * mu);
    }
    b.build().unwrap()
}

/// A paper-style tier: one hard machine failure (failover when there are
/// spares) and three restart-class soft failures. `mtbf_scale` varies the
/// rates without changing the chain's structure.
fn paper_tier(n: u32, m: u32, s: u32, mtbf_scale: f64) -> TierModel {
    let soft = |label: &str, mtbf_days: f64, restart_mins: f64| {
        FailureClass::new(
            label,
            Duration::from_days(mtbf_days * mtbf_scale).rate(),
            Duration::from_mins(restart_mins),
            Duration::from_mins(5.0),
            false,
        )
    };
    TierModel::new(n, m, s)
        .with_class(FailureClass::new(
            "machineA/hard",
            Duration::from_days(650.0 * mtbf_scale).rate(),
            Duration::from_hours(38.0),
            Duration::from_mins(5.0),
            s > 0,
        ))
        .with_class(soft("machineA/soft", 75.0, 4.2))
        .with_class(soft("linux/soft", 60.0, 3.1))
        .with_class(soft("webserver/soft", 60.0, 0.5))
}

/// A seven-class tier — four failover classes, three restart classes —
/// whose exact chain has 3960 states, past the 3000-state dense cutover.
/// `mtbf_scale` varies the rates without changing the chain's structure.
fn wide_tier(mtbf_scale: f64) -> TierModel {
    (0..7).fold(TierModel::new(6, 6, 1), |tier, i| {
        tier.with_class(FailureClass::new(
            format!("class{i}"),
            Duration::from_days(mtbf_scale * (60.0 + 90.0 * f64::from(i))).rate(),
            Duration::from_hours(0.1 + 6.0 * f64::from(i)),
            Duration::from_mins(5.0),
            i < 4,
        ))
    })
}

/// The exact engine's chain for `model`, read back from its SHARPE export
/// (the public view of the explored chain).
fn tier_chain(model: &TierModel) -> Ctmc {
    let text = export_sharpe_markov(&CtmcEngine::default(), model).unwrap();
    let state = |token: &str| token.trim_start_matches('S').parse::<usize>().unwrap();
    let mut edges = Vec::new();
    for line in text
        .lines()
        .skip_while(|l| !l.starts_with("markov"))
        .skip(1)
        .take_while(|l| *l != "reward")
    {
        let mut parts = line.split_whitespace();
        let (from, to, rate) = (parts.next(), parts.next(), parts.next());
        edges.push((
            state(from.unwrap()),
            state(to.unwrap()),
            rate.unwrap().parse::<f64>().unwrap(),
        ));
    }
    let n = edges.iter().map(|&(f, t, _)| f.max(t)).max().unwrap() + 1;
    let mut b = CtmcBuilder::new(n);
    for (from, to, rate) in edges {
        b.rate(from, to, rate);
    }
    b.build().unwrap()
}

fn bench_tier_chains(c: &mut Criterion) {
    let mut group = c.benchmark_group("markov_tier_chains");
    group.sample_size(10);

    for (n, m, s) in [(10, 6, 0), (6, 6, 1)] {
        let ctmc = tier_chain(&paper_tier(n, m, s, 1.0));
        let states = ctmc.n_states();
        group.bench_function(format!("dense_tier_n{states}_x{TIER_SOLVES}"), |b| {
            let solver = DenseSolver::new();
            b.iter(|| {
                for _ in 0..TIER_SOLVES {
                    black_box(solver.steady_state(black_box(&ctmc)).unwrap()[0]);
                }
            });
        });
    }

    // One explore, then rate-only neighbours: every later call repatches
    // the cached chain and solves it dense, as an exact-engine search does.
    let engine = CtmcEngine::default();
    let models: Vec<TierModel> = (0..=REPATCHES)
        .map(|i| paper_tier(6, 6, 1, 1.0 + f64::from(i) / 100.0))
        .collect();
    group.bench_function(
        format!("session_explore_then_{REPATCHES}_repatched_n252"),
        |b| {
            b.iter(|| {
                let mut session = EvalSession::new();
                for model in &models {
                    let (r, _) = engine.evaluate_with_session(model, &mut session).unwrap();
                    black_box(r.unavailability());
                }
                assert_eq!(session.stats().rebuilds_avoided, u64::from(REPATCHES));
            });
        },
    );

    // The same pattern on the large chain: one explore, then rate-only
    // neighbours solved by Gauss-Seidel from the uniform distribution.
    let wide: Vec<TierModel> = (0..=WIDE_REPATCHES)
        .map(|i| wide_tier(1.0 + f64::from(i) / 100.0))
        .collect();
    group.bench_function(
        format!("session_explore_then_{WIDE_REPATCHES}_repatched_n3960"),
        |b| {
            b.iter(|| {
                let mut session = EvalSession::new();
                for model in &wide {
                    let (r, _) = engine.evaluate_with_session(model, &mut session).unwrap();
                    black_box(r.unavailability());
                }
                assert_eq!(session.stats().rebuilds_avoided, u64::from(WIDE_REPATCHES));
            });
        },
    );

    group.finish();
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("markov_solvers");
    group.sample_size(10);

    for n in [16_usize, 64, 256] {
        let ctmc = repair_chain(n);
        group.bench_function(format!("dense_n{}", n + 1), |b| {
            let solver = DenseSolver::new();
            b.iter(|| black_box(solver.steady_state(black_box(&ctmc)).unwrap()[0]));
        });
        group.bench_function(format!("power_n{}", n + 1), |b| {
            let solver = PowerSolver::new(1e-12, 10_000_000);
            b.iter(|| black_box(solver.steady_state(black_box(&ctmc)).unwrap()[0]));
        });
        group.bench_function(format!("gauss_seidel_n{}", n + 1), |b| {
            let solver = GaussSeidelSolver::default();
            b.iter(|| black_box(solver.steady_state(black_box(&ctmc)).unwrap()[0]));
        });
        group.bench_function(format!("birth_death_n{}", n + 1), |b| {
            let lambda = 1e-3;
            let mu = 0.5;
            let births: Vec<f64> = (0..n).map(|k| (n - k) as f64 * lambda).collect();
            let deaths: Vec<f64> = (0..n).map(|k| (k + 1) as f64 * mu).collect();
            b.iter(|| black_box(birth_death::steady_state(&births, &deaths).unwrap()[0]));
        });
    }

    group.finish();
}

criterion_group!(benches, bench_solvers, bench_tier_chains);
criterion_main!(benches);
