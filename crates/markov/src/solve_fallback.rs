//! Resilient steady-state solution: a fixed chain of solvers with a
//! post-hoc residual check.
//!
//! One non-converged Gauss–Seidel sweep used to abort an entire design
//! search. [`FallbackSolver`] instead treats solver failure as an expected
//! event and moves on to the next stage. Every produced solution —
//! whichever solver made it — must pass an independent acceptance test
//! (balance residual, finiteness, normalization), so a solver that
//! converged to the wrong answer is rejected, not silently propagated. The
//! policy has no settings: the constants below are the whole of it, and
//! [`SolveDiagnostics`] records every attempt so callers can report how
//! degraded an evaluation was.
//!
//! Every stage starts cold — elimination is direct, and the iterative
//! stages start from the uniform distribution — so a solve is a pure
//! function of the chain.

use crate::scratch::SolveScratch;
use crate::{
    Ctmc, DenseSolver, GaussSeidelSolver, MarkovError, PowerSolver, SolveBudget, SteadyStateSolver,
};
use std::time::{Duration, Instant};

/// Wall-clock allowance of one iterative attempt. It tightens the
/// attempt's copy of the caller's [`SolveBudget`] deadline; running out of
/// it moves on to the next stage, while running out of the caller's own
/// deadline ends the chain. Without it, power iteration's sweep cap would
/// be its only bound.
const ATTEMPT_ALLOWANCE: Duration = Duration::from_secs(30);

/// The acceptance gate: every returned solution balances to
/// `‖πQ‖∞ ≤ 1e-9`.
const RESIDUAL_TOLERANCE: f64 = 1e-9;

/// The Gauss–Seidel stage stops once its measured balance residual is
/// three decades below the acceptance gate (about `1e-12`): the gate
/// re-verifies every solution anyway, and the margin keeps the returned
/// vector accurate to roughly the gate itself even on weakly-ergodic
/// chains (entry error ~ residual x the chain's slowest-mode
/// amplification).
const GAUSS_SEIDEL_RESIDUAL_EXIT: f64 = RESIDUAL_TOLERANCE * 1e-3;

/// The largest chain solved dense first; larger chains start with the
/// iterative stages.
const DENSE_MAX_STATES: usize = 3000;

/// Past this many states the dense stage is skipped.
const DENSE_STATE_LIMIT: usize = 20_000;

/// Which concrete algorithm a fallback attempt used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Sparse Gauss–Seidel sweeps.
    GaussSeidel,
    /// Uniformized power iteration.
    Power,
    /// Dense Gaussian elimination.
    Dense,
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverKind::GaussSeidel => write!(f, "gauss-seidel"),
            SolverKind::Power => write!(f, "power"),
            SolverKind::Dense => write!(f, "dense"),
        }
    }
}

/// One attempted solve inside a fallback chain.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveAttempt {
    /// The solver that ran.
    pub solver: SolverKind,
    /// Why the attempt was rejected; `None` when it was accepted.
    pub error: Option<MarkovError>,
    /// The measured balance residual `‖πQ‖∞`, when a solution was produced
    /// (accepted or rejected by the residual check).
    pub residual: Option<f64>,
    /// Wall-clock time the attempt took.
    pub wall_time: Duration,
    /// Iterative sweeps the attempt used (`0` for the direct dense solve).
    pub iterations: usize,
}

impl SolveAttempt {
    /// Whether this attempt produced the accepted solution.
    #[must_use]
    pub fn accepted(&self) -> bool {
        self.error.is_none()
    }
}

/// The recorded trail of a fallback solve: every attempt, in order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SolveDiagnostics {
    /// Attempts in the order they ran; the last one is the accepted attempt
    /// when the solve succeeded.
    pub attempts: Vec<SolveAttempt>,
}

impl SolveDiagnostics {
    /// Number of fallbacks taken: attempts beyond the first.
    #[must_use]
    pub fn fallbacks_taken(&self) -> usize {
        self.attempts.len().saturating_sub(1)
    }

    /// The accepted attempt, if any: a solve stops at its first accepted
    /// attempt, so it is the last one.
    fn accepted(&self) -> Option<&SolveAttempt> {
        self.attempts.last().filter(|a| a.accepted())
    }

    /// The solver whose solution was accepted, if any.
    #[must_use]
    pub fn accepted_solver(&self) -> Option<SolverKind> {
        self.accepted().map(|a| a.solver)
    }

    /// The residual of the accepted solution, if any.
    #[must_use]
    pub fn accepted_residual(&self) -> Option<f64> {
        self.accepted().and_then(|a| a.residual)
    }

    /// Sweeps used by the accepted attempt, if any (`Some(0)` for dense).
    #[must_use]
    pub fn accepted_iterations(&self) -> Option<usize> {
        self.accepted().map(|a| a.iterations)
    }

    /// Total iterative sweeps across all attempts, accepted or not.
    #[must_use]
    pub fn total_iterations(&self) -> u64 {
        self.attempts.iter().map(|a| a.iterations as u64).sum()
    }
}

/// The steady-state solve policy: a fixed chain of solvers whose every
/// output must pass the residual gate.
///
/// Attempt order depends on chain size. Up to 3000 states the dense direct
/// solve runs first (it is exact and fastest there), falling back to
/// Gauss–Seidel then power iteration if elimination fails. Above that the
/// order is Gauss–Seidel → power iteration → dense, and past 20 000 states
/// the dense attempt is skipped entirely, where O(n³) elimination would
/// dwarf any iterative budget. Every accepted solution balances to
/// `‖πQ‖∞ ≤ 1e-9`; the Gauss–Seidel stage stops early once its own
/// residual is three decades under that gate.
///
/// # Examples
///
/// ```
/// use aved_markov::{CtmcBuilder, FallbackSolver, SolveBudget, SolveScratch};
///
/// let mut b = CtmcBuilder::new(2);
/// b.rate(0, 1, 1.0 / 1000.0).rate(1, 0, 1.0 / 10.0);
/// let ctmc = b.build()?;
/// let mut scratch = SolveScratch::new();
/// let (pi, diagnostics) =
///     FallbackSolver::default().solve(&ctmc, &mut scratch, &SolveBudget::unlimited());
/// let pi = pi?;
/// assert!((pi[1] - 10.0 / 1010.0).abs() < 1e-12);
/// assert!(diagnostics.accepted_residual().unwrap() <= 1e-9);
/// # Ok::<(), aved_markov::MarkovError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FallbackSolver {
    assume_irreducible: bool,
}

impl FallbackSolver {
    /// Declares the chain's structure already verified: every stage skips
    /// its strong-connectivity check (the Gauss–Seidel stage's up-front
    /// traversals and the dense stage's reachability check).
    ///
    /// Only sound when the identical transition structure previously
    /// produced an accepted solution — the evaluation sessions set this for
    /// rate-only in-place rebuilds of cached chains, where irreducibility
    /// (a purely structural property) cannot have changed. The acceptance
    /// gate still re-verifies every solution.
    #[must_use]
    pub fn with_irreducibility_assumed(mut self, assume: bool) -> FallbackSolver {
        self.assume_irreducible = assume;
        self
    }

    /// Computes the balance residual `‖πQ‖∞` of a candidate solution: for
    /// each state `j`, `|Σ_{i≠j} π_i q_ij − π_j · exit_rate(j)|` — the net
    /// probability flow that a true stationary distribution would make zero.
    #[must_use]
    pub fn residual_inf_norm(ctmc: &Ctmc, pi: &[f64]) -> f64 {
        residual_inf_norm_in(ctmc, pi, &mut Vec::new())
    }

    /// Runs the fallback chain under a cooperative [`SolveBudget`],
    /// returning the accepted solution (or the last attempt's error)
    /// together with the full attempt trail.
    ///
    /// `scratch` carries the iteration vectors, transposed adjacency and
    /// dense matrix across calls so repeated solves stop reallocating them;
    /// it never changes the result. The accepted `π` is lent out of
    /// `scratch` rather than copied, so once the scratch has grown to the
    /// chain's size a solve allocates only its attempt trail.
    ///
    /// The iterative stages poll the budget's deadline and cancellation
    /// token between sweeps, each under a fixed wall-clock allowance of its
    /// own, and the budget is re-checked before each attempt starts (so an
    /// already-exhausted budget never launches the non-preemptible dense
    /// solve). An attempt that outlives its allowance falls back to the
    /// next stage. The caller's deadline and cancellation abort the whole
    /// chain — falling back to another solver then would only burn more of
    /// the resource that just ran out.
    pub fn solve<'s>(
        &self,
        ctmc: &Ctmc,
        scratch: &'s mut SolveScratch,
        budget: &SolveBudget,
    ) -> (Result<&'s [f64], MarkovError>, SolveDiagnostics) {
        self.solve_within(
            ctmc,
            scratch,
            budget,
            attempt_order(ctmc.n_states()),
            ATTEMPT_ALLOWANCE,
            GaussSeidelSolver::default().with_residual_exit(GAUSS_SEIDEL_RESIDUAL_EXIT),
        )
    }

    /// [`Self::solve`] running the stages in `order`, with `allowance` as
    /// each iterative attempt's wall-clock allowance and `gauss_seidel` as
    /// the Gauss–Seidel stage.
    fn solve_within<'s>(
        &self,
        ctmc: &Ctmc,
        scratch: &'s mut SolveScratch,
        budget: &SolveBudget,
        order: &[SolverKind],
        allowance: Duration,
        gauss_seidel: GaussSeidelSolver,
    ) -> (Result<&'s [f64], MarkovError>, SolveDiagnostics) {
        let mut diagnostics = SolveDiagnostics::default();
        let governed = !budget.is_unlimited();
        let mut last_error = MarkovError::EmptyChain;
        for &kind in order {
            // Re-check before every attempt: the dense stage is
            // non-preemptible, so this gate is its only cancellation point.
            if governed {
                if let Err(e) = budget.checkpoint("solve", diagnostics.attempts.len() as u64) {
                    return (Err(e), diagnostics);
                }
            }
            let started = Instant::now();
            let raw = match kind {
                SolverKind::GaussSeidel => {
                    let mut solver = gauss_seidel;
                    if self.assume_irreducible {
                        solver = solver.assuming_irreducible();
                    }
                    solver.sweep_into(ctmc, scratch, &budget.with_deadline_by(started + allowance))
                }
                SolverKind::Power => PowerSolver::default().power_into(
                    ctmc,
                    scratch,
                    &budget.with_deadline_by(started + allowance),
                ),
                SolverKind::Dense => DenseSolver::new()
                    .solve_into(ctmc, scratch, self.assume_irreducible)
                    .map(|()| 0),
            };
            let (error, iterations, residual) = match raw {
                Ok(iterations) => match accept(ctmc, &scratch.pi, &mut scratch.net_flow) {
                    Ok(residual) => (None, iterations, Some(residual)),
                    Err(e) => {
                        let residual = match e {
                            MarkovError::ResidualTooLarge { residual, .. } => Some(residual),
                            _ => None,
                        };
                        (Some(e), iterations, residual)
                    }
                },
                Err(e) => {
                    // Failed iterative attempts still burned sweeps; the
                    // count rides in the error.
                    let iterations = match e {
                        MarkovError::NoConvergence { iterations, .. } => iterations,
                        MarkovError::BudgetExhausted {
                            phase: "gauss-seidel" | "power",
                            progress,
                            ..
                        } => usize::try_from(progress).unwrap_or(usize::MAX),
                        _ => 0,
                    };
                    (Some(e), iterations, None)
                }
            };
            diagnostics.attempts.push(SolveAttempt {
                solver: kind,
                error: error.clone(),
                residual,
                wall_time: started.elapsed(),
                iterations,
            });
            let Some(e) = error else {
                return (Ok(&scratch.pi), diagnostics);
            };
            // Structural failures apply to every solver: stop early rather
            // than re-diagnosing the same chain three times. Cancellation
            // and the caller's deadline likewise end the chain — the
            // resource is gone for every later stage too. An attempt that
            // only used up its own allowance leaves the next stage a fresh
            // one.
            let fatal = match e {
                MarkovError::Reducible { .. }
                | MarkovError::EmptyChain
                | MarkovError::Cancelled { .. } => true,
                MarkovError::BudgetExhausted { .. } => budget.deadline_exceeded(),
                _ => false,
            };
            last_error = e;
            if fatal {
                break;
            }
        }
        (Err(last_error), diagnostics)
    }
}

/// [`FallbackSolver::residual_inf_norm`] accumulating the inflows into a
/// caller-owned buffer.
fn residual_inf_norm_in(ctmc: &Ctmc, pi: &[f64], net_flow: &mut Vec<f64>) -> f64 {
    let n = ctmc.n_states();
    net_flow.clear();
    net_flow.resize(n, 0.0);
    for t in ctmc.transitions() {
        net_flow[t.to] += pi[t.from] * t.rate;
    }
    let mut worst = 0.0_f64;
    for j in 0..n {
        let r = (net_flow[j] - pi[j] * ctmc.exit_rate(j)).abs();
        worst = worst.max(r);
    }
    worst
}

/// The stages to try, in order, for a chain of `n_states`.
fn attempt_order(n_states: usize) -> &'static [SolverKind] {
    use SolverKind::{Dense, GaussSeidel, Power};
    if n_states <= DENSE_MAX_STATES {
        &[Dense, GaussSeidel, Power]
    } else if n_states <= DENSE_STATE_LIMIT {
        &[GaussSeidel, Power, Dense]
    } else {
        &[GaussSeidel, Power]
    }
}

/// Validates a produced solution: finite, non-negative (up to rounding),
/// normalized mass, and balance residual under [`RESIDUAL_TOLERANCE`].
/// Returns the measured residual on success. `net_flow` is a reusable
/// buffer.
fn accept(ctmc: &Ctmc, pi: &[f64], net_flow: &mut Vec<f64>) -> Result<f64, MarkovError> {
    if pi.iter().any(|p| !p.is_finite()) {
        return Err(MarkovError::NonFiniteSolution);
    }
    if pi.iter().any(|&p| p < -1e-9) || (pi.iter().sum::<f64>() - 1.0).abs() > 1e-6 {
        return Err(MarkovError::Singular);
    }
    let residual = residual_inf_norm_in(ctmc, pi, net_flow);
    if residual > RESIDUAL_TOLERANCE {
        return Err(MarkovError::ResidualTooLarge {
            residual,
            tolerance: RESIDUAL_TOLERANCE,
        });
    }
    Ok(residual)
}

impl SteadyStateSolver for FallbackSolver {
    fn steady_state(&self, ctmc: &Ctmc) -> Result<Vec<f64>, MarkovError> {
        self.solve(ctmc, &mut SolveScratch::new(), &SolveBudget::unlimited())
            .0
            .map(<[f64]>::to_vec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CtmcBuilder;
    use proptest::prelude::*;
    use SolverKind::{Dense, GaussSeidel, Power};

    fn ring_chain(n: usize, rates: &[f64]) -> Ctmc {
        let mut b = CtmcBuilder::new(n);
        for i in 0..n {
            b.rate(i, (i + 1) % n, rates[i]);
            b.rate((i + 1) % n, i, rates[n + i]);
        }
        b.build().unwrap()
    }

    /// A solve's outcome with `π` copied out of its scratch.
    type Owned = (Result<Vec<f64>, MarkovError>, SolveDiagnostics);

    fn owned((pi, diagnostics): (Result<&[f64], MarkovError>, SolveDiagnostics)) -> Owned {
        (pi.map(<[f64]>::to_vec), diagnostics)
    }

    /// One solve in a fresh scratch under an unlimited budget.
    fn solve(ctmc: &Ctmc) -> Owned {
        owned(FallbackSolver::default().solve(
            ctmc,
            &mut SolveScratch::new(),
            &SolveBudget::unlimited(),
        ))
    }

    /// The order a chain past the dense cutover runs, forced on a chain of
    /// any size.
    const ITERATIVE_FIRST: &[SolverKind] = &[GaussSeidel, Power, Dense];

    /// The policy's Gauss–Seidel stage.
    fn policy_gauss_seidel() -> GaussSeidelSolver {
        GaussSeidelSolver::default().with_residual_exit(GAUSS_SEIDEL_RESIDUAL_EXIT)
    }

    /// One solve through `order` under `budget`, in `scratch`.
    fn solve_in_order(
        ctmc: &Ctmc,
        scratch: &mut SolveScratch,
        budget: &SolveBudget,
        order: &[SolverKind],
        allowance: Duration,
    ) -> Owned {
        owned(FallbackSolver::default().solve_within(
            ctmc,
            scratch,
            budget,
            order,
            allowance,
            policy_gauss_seidel(),
        ))
    }

    /// An [`ITERATIVE_FIRST`] solve in a fresh scratch with the default
    /// allowance and `gauss_seidel` as the Gauss–Seidel stage.
    fn solve_with_gauss_seidel(
        ctmc: &Ctmc,
        budget: &SolveBudget,
        gauss_seidel: GaussSeidelSolver,
    ) -> Owned {
        owned(FallbackSolver::default().solve_within(
            ctmc,
            &mut SolveScratch::new(),
            budget,
            ITERATIVE_FIRST,
            ATTEMPT_ALLOWANCE,
            gauss_seidel,
        ))
    }

    /// [`solve_with_gauss_seidel`] with the policy's own stage.
    fn solve_iterative_first(ctmc: &Ctmc, budget: &SolveBudget) -> Owned {
        solve_with_gauss_seidel(ctmc, budget, policy_gauss_seidel())
    }

    /// A 2000-state ring with uneven rates: Gauss–Seidel needs far more
    /// sweeps to settle it than fit in a fraction of a second, so a run
    /// stopped by a deadline is always cut mid-iteration.
    fn slow_ring() -> Ctmc {
        let n = 2000;
        let rates: Vec<f64> = (0..2 * n)
            .map(|i| 1.0 + (i % 7) as f64 * 0.3 + (i % 5) as f64 * 0.2)
            .collect();
        ring_chain(n, &rates)
    }

    /// An iterative-first solve of [`slow_ring`] whose Gauss–Seidel stage
    /// has no residual exit and no usable sweep cap, cut by a caller
    /// deadline 200 ms out.
    fn cut_by_caller_deadline() -> Owned {
        let deadline =
            SolveBudget::unlimited().with_deadline(Instant::now() + Duration::from_millis(200));
        solve_with_gauss_seidel(
            &slow_ring(),
            &deadline,
            GaussSeidelSolver::new(1e-300, usize::MAX),
        )
    }

    fn kinds(diag: &SolveDiagnostics) -> Vec<SolverKind> {
        diag.attempts.iter().map(|a| a.solver).collect()
    }

    #[test]
    fn accepts_first_solver_on_easy_chain() {
        let ctmc = ring_chain(4, &[3.0, 1.5, 0.5, 2.0, 0.25, 1.0, 4.0, 0.75]);
        let (pi, diag) = solve(&ctmc);
        let pi = pi.unwrap();
        assert_eq!(diag.attempts.len(), 1);
        assert_eq!(diag.fallbacks_taken(), 0);
        assert_eq!(diag.accepted_solver(), Some(SolverKind::Dense));
        assert!(diag.accepted_residual().unwrap() <= 1e-9);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn attempt_order_switches_at_the_dense_cutover() {
        assert_eq!(attempt_order(1), [Dense, GaussSeidel, Power]);
        assert_eq!(attempt_order(3000), [Dense, GaussSeidel, Power]);
        assert_eq!(attempt_order(3001), [GaussSeidel, Power, Dense]);
        assert_eq!(attempt_order(20_000), [GaussSeidel, Power, Dense]);
        assert_eq!(attempt_order(20_001), [GaussSeidel, Power]);
    }

    #[test]
    fn large_chains_start_iterative() {
        // A 3001-state birth-death chain drifting toward its last state:
        // one state past the cutover, and settled by a few in-order
        // Gauss-Seidel sweeps.
        let n = DENSE_MAX_STATES + 1;
        let mut b = CtmcBuilder::new(n);
        for i in 0..n - 1 {
            b.rate(i, i + 1, 1.0).rate(i + 1, i, 0.01);
        }
        let (pi, diag) = solve(&b.build().unwrap());
        assert_eq!(kinds(&diag), [GaussSeidel], "{diag:?}");
        let last = pi.unwrap()[n - 1];
        assert!((last - 0.99).abs() < 1e-9, "geometric head {last}");
    }

    #[test]
    fn falls_back_when_first_stage_is_starved() {
        // A Gauss-Seidel stage with a 1-sweep cap cannot converge; the
        // chain must fall back and still produce a verified answer.
        let ctmc = ring_chain(
            6,
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 2.5, 1.25, 0.8, 0.6, 0.5, 0.4],
        );
        let (pi, diag) = solve_with_gauss_seidel(
            &ctmc,
            &SolveBudget::unlimited(),
            GaussSeidelSolver::new(1e-300, 1),
        );
        let pi = pi.unwrap();
        assert!(diag.fallbacks_taken() >= 1);
        assert!(matches!(
            diag.attempts[0].error,
            Some(MarkovError::NoConvergence { .. })
        ));
        assert!(diag.accepted_residual().unwrap() <= 1e-9);
        let dense = DenseSolver::new().steady_state(&ctmc).unwrap();
        for (d, p) in dense.iter().zip(pi.iter()) {
            assert!((d - p).abs() < 1e-9);
        }
    }

    #[test]
    fn exhausting_every_stage_reports_the_trail() {
        let ctmc = ring_chain(4, &[3.0, 1.5, 0.5, 2.0, 0.25, 1.0, 4.0, 0.75]);
        // Both iterative stages starved, no dense stage (as past 20 000
        // states).
        let (pi, diag) = solve_in_order(
            &ctmc,
            &mut SolveScratch::new(),
            &SolveBudget::unlimited(),
            attempt_order(DENSE_STATE_LIMIT + 1),
            Duration::ZERO,
        );
        assert!(pi.is_err());
        assert_eq!(kinds(&diag), [GaussSeidel, Power]);
        assert!(diag.attempts.iter().all(|a| !a.accepted()));
        assert!(diag.accepted_solver().is_none());
    }

    #[test]
    fn reducible_chains_fail_fast_without_retrying() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0);
        let ctmc = b.build_unchecked();
        let (pi, diag) = solve(&ctmc);
        assert!(matches!(pi, Err(MarkovError::Reducible { .. })));
        assert_eq!(diag.attempts.len(), 1, "structural errors are not retried");
    }

    #[test]
    fn residual_check_rejects_sloppy_solutions() {
        // A Gauss-Seidel stage so loose it stops on the uniform initial
        // guess must be caught by the residual acceptance test, then
        // rescued by the next stage.
        let ctmc = ring_chain(4, &[30.0, 0.15, 5.0, 0.02, 0.25, 10.0, 4.0, 0.75]);
        let (pi, diag) = solve_with_gauss_seidel(
            &ctmc,
            &SolveBudget::unlimited(),
            GaussSeidelSolver::new(1e300, 100_000),
        );
        assert!(pi.is_ok(), "{diag:?}");
        assert!(matches!(
            diag.attempts[0].error,
            Some(MarkovError::ResidualTooLarge { .. })
        ));
        assert!(diag.attempts[0].residual.unwrap() > 1e-9);
        assert!(diag.accepted_residual().unwrap() <= 1e-9);

        // The gate itself: the uniform guess is normalized and finite but
        // far from balanced; the exact answer passes.
        let mut net_flow = Vec::new();
        let sloppy = accept(&ctmc, &[0.25; 4], &mut net_flow);
        assert!(
            matches!(sloppy, Err(MarkovError::ResidualTooLarge { residual, .. }) if residual > 1e-9),
            "{sloppy:?}"
        );
        let exact = DenseSolver::new().steady_state(&ctmc).unwrap();
        assert!(accept(&ctmc, &exact, &mut net_flow).unwrap() <= 1e-9);
    }

    #[test]
    fn exhausted_budget_aborts_the_chain_without_fallbacks() {
        use crate::CancelToken;
        let ctmc = ring_chain(4, &[3.0, 1.5, 0.5, 2.0, 0.25, 1.0, 4.0, 0.75]);

        // A cancelled token trips the pre-attempt gate before any solver
        // runs — including the non-preemptible dense stage.
        let token = CancelToken::new();
        token.cancel();
        let cancelled = SolveBudget::unlimited().with_cancel(token);
        let (pi, diag) = solve_iterative_first(&ctmc, &cancelled);
        assert!(matches!(pi, Err(MarkovError::Cancelled { .. })));
        assert!(diag.attempts.is_empty(), "no attempt should have launched");

        // The caller's deadline cuts Gauss-Seidel mid-chain; the budget
        // error must NOT trigger a fallback to power iteration or dense
        // elimination.
        let (pi, diag) = cut_by_caller_deadline();
        assert!(matches!(pi, Err(MarkovError::BudgetExhausted { .. })));
        assert_eq!(diag.attempts.len(), 1, "budget errors are not retried");

        // A governed budget that never trips reproduces the plain path
        // bit-for-bit.
        let (plain, _) = solve_iterative_first(&ctmc, &SolveBudget::unlimited());
        let far =
            SolveBudget::unlimited().with_deadline(Instant::now() + Duration::from_secs(3600));
        let (governed, _) = solve_iterative_first(&ctmc, &far);
        let (plain, governed) = (plain.unwrap(), governed.unwrap());
        for (a, b) in plain.iter().zip(governed.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn deadline_cut_attempt_reports_its_sweeps() {
        let (_, diag) = cut_by_caller_deadline();
        let Some(MarkovError::BudgetExhausted { progress, .. }) = diag.attempts[0].error else {
            panic!("expected a budget cut, got {diag:?}");
        };
        assert!(progress > 0, "the attempt swept before the deadline");
        assert_eq!(diag.total_iterations(), progress);
    }

    #[test]
    fn exhausted_attempt_allowance_falls_through_to_the_next_stage() {
        let ctmc = ring_chain(4, &[3.0, 1.5, 0.5, 2.0, 0.25, 1.0, 4.0, 0.75]);
        let far =
            SolveBudget::unlimited().with_deadline(Instant::now() + Duration::from_secs(3600));
        for budget in [SolveBudget::unlimited(), far] {
            // A zero allowance cuts both iterative stages at their first
            // checkpoint; the dense stage, which has none, still answers.
            let (pi, diag) = solve_in_order(
                &ctmc,
                &mut SolveScratch::new(),
                &budget,
                ITERATIVE_FIRST,
                Duration::ZERO,
            );
            assert!(pi.is_ok(), "{diag:?}");
            assert_eq!(kinds(&diag), ITERATIVE_FIRST);
            for attempt in &diag.attempts[..2] {
                assert!(matches!(
                    attempt.error,
                    Some(MarkovError::BudgetExhausted { progress: 0, .. })
                ));
            }
            assert_eq!(diag.accepted_solver(), Some(SolverKind::Dense));
        }
    }

    #[test]
    fn residual_inf_norm_is_zero_for_exact_solutions() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0 / 1000.0).rate(1, 0, 1.0 / 10.0);
        let ctmc = b.build().unwrap();
        let exact = vec![1000.0 / 1010.0, 10.0 / 1010.0];
        assert!(FallbackSolver::residual_inf_norm(&ctmc, &exact) < 1e-18);
    }

    #[test]
    fn iterative_path_accepts_early_via_the_residual_exit() {
        // The policy's Gauss-Seidel stage stops once the balance residual
        // is three decades under the acceptance gate; a stage without the
        // exit grinds on to its per-sweep-delta tolerance.
        let mut b = CtmcBuilder::new(12);
        for i in 0..12_usize {
            b.rate(i, (i + 1) % 12, 0.2 + i as f64 / 2.0);
            b.rate((i + 1) % 12, i, 1.0 + i as f64 / 5.0);
        }
        let ctmc = b.build().unwrap();
        let (pi_fast, diag_fast) = solve_iterative_first(&ctmc, &SolveBudget::unlimited());
        let pi_fast = pi_fast.unwrap();
        let mut scratch = SolveScratch::new();
        let slow_sweeps = GaussSeidelSolver::default()
            .sweep_into(&ctmc, &mut scratch, &SolveBudget::unlimited())
            .unwrap();
        assert_eq!(diag_fast.accepted_solver(), Some(GaussSeidel));
        assert!(diag_fast.accepted_residual().unwrap() <= 1e-9);
        assert!(
            diag_fast.accepted_iterations().unwrap() < slow_sweeps,
            "residual exit saved no sweeps: {:?} vs {slow_sweeps}",
            diag_fast.accepted_iterations(),
        );
        for (f, s) in pi_fast.iter().zip(scratch.pi.iter()) {
            assert!((f - s).abs() < 1e-9, "early-exit drifted: {f} vs {s}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        // Satellite requirement: FallbackSolver agrees with DenseSolver on
        // random ergodic chains of up to 64 states (ring backbone keeps the
        // chain irreducible; extra chords vary the structure).
        #[test]
        fn agrees_with_dense_on_random_ergodic_chains(
            n in 2_usize..65,
            rates in proptest::collection::vec(0.05_f64..20.0, 2 * 64),
            chords in proptest::collection::vec((0_usize..64, 0_usize..64, 0.05_f64..20.0), 0..12),
        ) {
            let mut b = CtmcBuilder::new(n);
            for i in 0..n {
                b.rate(i, (i + 1) % n, rates[i]);
                b.rate((i + 1) % n, i, rates[64 + i]);
            }
            for (from, to, rate) in chords {
                let (from, to) = (from % n, to % n);
                if from != to {
                    b.rate(from, to, rate);
                }
            }
            let ctmc = b.build().unwrap();
            let dense = DenseSolver::new().steady_state(&ctmc).unwrap();
            // Exercise the iterative-first path regardless of size.
            let (pi, diag) = solve_iterative_first(&ctmc, &SolveBudget::unlimited());
            let pi = pi.unwrap();
            prop_assert!(diag.accepted_residual().unwrap() <= 1e-9);
            for (d, p) in dense.iter().zip(pi.iter()) {
                prop_assert!((d - p).abs() < 1e-8, "dense={} fallback={}", d, p);
            }
        }

        // A warm start — a scratch whose last solve was a different chain —
        // agrees with a cold start bit for bit on the iterative-first path:
        // the scratch carries capacity, never state.
        #[test]
        fn warm_start_agrees_with_cold_on_random_ergodic_chains(
            n in 2_usize..65,
            rates in proptest::collection::vec(0.05_f64..20.0, 2 * 64),
            chords in proptest::collection::vec((0_usize..64, 0_usize..64, 0.05_f64..20.0), 0..12),
            previous_n in 2_usize..65,
            scale in 0.5_f64..2.0,
        ) {
            let mut b = CtmcBuilder::new(n);
            for i in 0..n {
                b.rate(i, (i + 1) % n, rates[i]);
                b.rate((i + 1) % n, i, rates[64 + i]);
            }
            for (from, to, rate) in chords {
                let (from, to) = (from % n, to % n);
                if from != to {
                    b.rate(from, to, rate);
                }
            }
            let ctmc = b.build().unwrap();
            let previous_rates: Vec<f64> = rates.iter().rev().map(|r| r * scale).collect();
            let previous = ring_chain(previous_n, &previous_rates);
            let unlimited = SolveBudget::unlimited();
            let (cold, cold_diag) = solve_iterative_first(&ctmc, &unlimited);
            let cold = cold.unwrap();

            let mut scratch = SolveScratch::new();
            solve_in_order(&previous, &mut scratch, &unlimited, ITERATIVE_FIRST, ATTEMPT_ALLOWANCE)
                .0
                .unwrap();
            let (warm, warm_diag) =
                solve_in_order(&ctmc, &mut scratch, &unlimited, ITERATIVE_FIRST, ATTEMPT_ALLOWANCE);
            let warm = warm.unwrap();
            prop_assert_eq!(warm_diag.accepted_solver(), cold_diag.accepted_solver());
            prop_assert_eq!(warm_diag.total_iterations(), cold_diag.total_iterations());
            for (c, w) in cold.iter().zip(warm.iter()) {
                prop_assert_eq!(c.to_bits(), w.to_bits());
            }
        }
    }
}
