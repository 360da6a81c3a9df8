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
//!
//! The `decomp_paper_tier_per_class` case measures the default engine's
//! unit of work: one per-class chain solve of a four-class paper tier
//! (n = 5, m = 4, s = 1), repatched in one reused session across a rate
//! sweep, as a design search runs it. Every model of the sweep differs
//! from the one before it in every class, so the session's class memo
//! replays nothing and every class is solved; the case asserts that. It
//! prints the time per class solve. The `decomp_paper_tier_contract_swap`
//! case sweeps models that differ only in the hard class's repair time,
//! as a §4.1 maintenance-level swap does: three of four classes replay
//! from the memo. It prints the time per tier evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

use aved::avail::{
    export_sharpe_markov, AvailabilityEngine, CtmcEngine, DecompositionEngine, EvalSession,
    FailureClass, TierModel,
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
/// Tier evaluations per timed iteration of the per-class case.
const PER_CLASS_SWEEP: u32 = 1000;
/// Timed sweeps behind the printed per-class time.
const PER_CLASS_ROUNDS: u32 = 20;

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
    paper_tier_repaired_in(n, m, s, mtbf_scale, Duration::from_hours(38.0))
}

/// [`paper_tier`] with the hard failure repaired in `hard_repair`.
fn paper_tier_repaired_in(
    n: u32,
    m: u32,
    s: u32,
    mtbf_scale: f64,
    hard_repair: Duration,
) -> TierModel {
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
            hard_repair,
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

fn bench_decomp_per_class(c: &mut Criterion) {
    let mut group = c.benchmark_group("markov_decomp");
    group.sample_size(10);

    let engine = DecompositionEngine::default();
    let models: Vec<TierModel> = (0..PER_CLASS_SWEEP)
        .map(|i| paper_tier(5, 4, 1, 1.0 + f64::from(i) / 1000.0))
        .collect();
    let class_solves = models.len() * models[0].classes().len();
    let mut session = EvalSession::new();
    let sweep = |session: &mut EvalSession, models: &[TierModel]| {
        for model in models {
            let (r, _) = engine.evaluate_with_session(model, session).unwrap();
            black_box(r.unavailability());
        }
    };
    // Warm-up: the session explores the per-class chain shapes once, so
    // every timed class solve is a repatch.
    sweep(&mut session, &models);
    group.bench_function(
        format!("decomp_paper_tier_per_class_x{class_solves}"),
        |b| b.iter(|| sweep(&mut session, &models)),
    );
    let best = best_sweep(|| sweep(&mut session, &models));
    assert_eq!(
        session.stats().class_hits,
        0,
        "the per-class case must time solves, not class-memo replays"
    );
    println!(
        "  decomp_paper_tier_per_class: {:.3} us per class solve (best of {PER_CLASS_ROUNDS} sweeps)",
        best * 1e6 / class_solves as f64
    );

    // The §4.1 contract swap: consecutive models differ only in the hard
    // class's repair time, so the memo replays the three soft classes.
    let swaps: Vec<TierModel> = (0..PER_CLASS_SWEEP)
        .map(|i| {
            let repair = Duration::from_hours(4.0 + f64::from(i) / 100.0);
            paper_tier_repaired_in(5, 4, 1, 1.0, repair)
        })
        .collect();
    let mut session = EvalSession::new();
    sweep(&mut session, &swaps);
    group.bench_function(
        format!("decomp_paper_tier_contract_swap_x{}", swaps.len()),
        |b| b.iter(|| sweep(&mut session, &swaps)),
    );
    let before = *session.stats();
    let best = best_sweep(|| sweep(&mut session, &swaps));
    let stats = session.stats();
    assert_eq!(
        stats.class_hits - before.class_hits,
        3 * u64::from(PER_CLASS_SWEEP * PER_CLASS_ROUNDS),
        "every soft class replays from the memo"
    );
    println!(
        "  decomp_paper_tier_contract_swap: {:.3} us per tier evaluation (best of {PER_CLASS_ROUNDS} sweeps)",
        best * 1e6 / swaps.len() as f64
    );
    group.finish();
}

/// The fastest of [`PER_CLASS_ROUNDS`] runs of `sweep`, in seconds: the
/// least disturbed by other load.
fn best_sweep(mut sweep: impl FnMut()) -> f64 {
    (0..PER_CLASS_ROUNDS)
        .map(|_| {
            let started = Instant::now();
            sweep();
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
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

criterion_group!(
    benches,
    bench_solvers,
    bench_tier_chains,
    bench_decomp_per_class
);
criterion_main!(benches);
