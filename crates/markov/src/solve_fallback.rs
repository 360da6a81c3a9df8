//! Resilient steady-state solution: a fallback chain of solvers with a
//! post-hoc residual check.
//!
//! One non-converged Gauss–Seidel sweep used to abort an entire design
//! search. [`FallbackSolver`] instead treats solver failure as an expected
//! event: it tries Gauss–Seidel first, falls back to uniformized power
//! iteration, then to dense direct elimination, giving each attempt its own
//! iteration and wall-clock budget. Every produced solution — whichever
//! solver made it — must pass an independent acceptance test before it is
//! returned: the balance residual `‖πQ‖∞` has to be below
//! [`FallbackSolver::residual_tolerance`], all probabilities finite and
//! non-negative, and the mass normalized. A solver that converged to the
//! wrong answer is therefore rejected, not silently propagated.
//!
//! The full attempt trail is recorded in [`SolveDiagnostics`] so callers
//! (the availability engines and, above them, the design search) can report
//! how degraded an evaluation was.

use crate::scratch::{sanitize_hint, SolveScratch};
use crate::{
    Ctmc, DenseSolver, GaussSeidelSolver, MarkovError, PowerSolver, SolveBudget, SteadyStateSolver,
};
use std::time::{Duration, Instant};

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
    /// Whether the attempt started from a warm hint rather than the uniform
    /// distribution (always `false` for the dense solve, which is direct).
    pub warm_started: bool,
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
    /// Whether a usable (correctly sized, finite, positive-mass) warm-start
    /// hint was supplied to this solve.
    pub warm_hint_used: bool,
}

impl SolveDiagnostics {
    /// Number of fallbacks taken: attempts beyond the first.
    #[must_use]
    pub fn fallbacks_taken(&self) -> usize {
        self.attempts.len().saturating_sub(1)
    }

    /// The solver whose solution was accepted, if any.
    #[must_use]
    pub fn accepted_solver(&self) -> Option<SolverKind> {
        self.attempts
            .iter()
            .find(|a| a.accepted())
            .map(|a| a.solver)
    }

    /// The residual of the accepted solution, if any.
    #[must_use]
    pub fn accepted_residual(&self) -> Option<f64> {
        self.attempts
            .iter()
            .find(|a| a.accepted())
            .and_then(|a| a.residual)
    }

    /// Sweeps used by the accepted attempt, if any (`Some(0)` for dense).
    #[must_use]
    pub fn accepted_iterations(&self) -> Option<usize> {
        self.attempts
            .iter()
            .find(|a| a.accepted())
            .map(|a| a.iterations)
    }

    /// Total iterative sweeps across all attempts, accepted or not.
    #[must_use]
    pub fn total_iterations(&self) -> u64 {
        self.attempts.iter().map(|a| a.iterations as u64).sum()
    }

    /// Whether the accepted solution actually consumed the warm hint (an
    /// iterative solver started from it). Dense acceptance leaves this
    /// `false` even when a hint was offered.
    #[must_use]
    pub fn warm_start_consumed(&self) -> bool {
        self.attempts
            .iter()
            .find(|a| a.accepted())
            .is_some_and(|a| a.warm_started)
    }

    /// Total wall-clock time across all attempts.
    #[must_use]
    pub fn total_wall_time(&self) -> Duration {
        self.attempts.iter().map(|a| a.wall_time).sum()
    }
}

/// A steady-state policy that chains solvers and verifies their output.
///
/// Attempt order depends on chain size: below
/// [`FallbackSolver::with_dense_preferred_below`] states the dense direct
/// solve runs first (it is exact and fastest there), falling back to
/// Gauss–Seidel then power iteration if elimination fails. At or above the
/// cutover the order is Gauss–Seidel → power iteration → dense (the dense
/// attempt is skipped entirely past
/// [`FallbackSolver::with_dense_state_limit`], where O(n³) elimination
/// would dwarf any iterative budget).
///
/// # Examples
///
/// ```
/// use aved_markov::{CtmcBuilder, FallbackSolver, SteadyStateSolver};
///
/// let mut b = CtmcBuilder::new(2);
/// b.rate(0, 1, 1.0 / 1000.0).rate(1, 0, 1.0 / 10.0);
/// let ctmc = b.build()?;
/// let (pi, diagnostics) = FallbackSolver::default().solve_with_diagnostics(&ctmc);
/// let pi = pi?;
/// assert!((pi[1] - 10.0 / 1010.0).abs() < 1e-12);
/// assert!(diagnostics.accepted_residual().unwrap() <= 1e-9);
/// # Ok::<(), aved_markov::MarkovError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FallbackSolver {
    gauss_seidel: GaussSeidelSolver,
    power: PowerSolver,
    residual_tolerance: f64,
    attempt_budget: Option<Duration>,
    dense_preferred_below: usize,
    dense_state_limit: usize,
    assume_irreducible: bool,
}

impl FallbackSolver {
    /// Creates a fallback policy with the given residual acceptance
    /// tolerance, validating it.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidSolverConfig`] if the tolerance is not
    /// a positive finite number.
    pub fn try_new(residual_tolerance: f64) -> Result<FallbackSolver, MarkovError> {
        if !(residual_tolerance > 0.0 && residual_tolerance.is_finite()) {
            return Err(MarkovError::InvalidSolverConfig {
                detail: format!(
                    "residual tolerance must be positive and finite, got {residual_tolerance}"
                ),
            });
        }
        Ok(FallbackSolver {
            // The Gauss–Seidel stage may stop once its measured balance
            // residual is three decades below the acceptance tolerance:
            // the acceptance gate re-verifies every solution anyway, and
            // the margin keeps the returned state vector accurate to
            // roughly the gate itself even on weakly-ergodic chains
            // (entry error ~ residual x the chain's slowest-mode
            // amplification).
            gauss_seidel: GaussSeidelSolver::default()
                .with_residual_exit(residual_tolerance * 1e-3),
            power: PowerSolver::default(),
            residual_tolerance,
            attempt_budget: Some(Duration::from_secs(30)),
            dense_preferred_below: 3000,
            dense_state_limit: 20_000,
            assume_irreducible: false,
        })
    }

    /// Creates a fallback policy with the given residual acceptance
    /// tolerance.
    ///
    /// # Panics
    ///
    /// Panics if the tolerance is not a positive finite number; use
    /// [`Self::try_new`] for user-supplied values.
    #[must_use]
    pub fn new(residual_tolerance: f64) -> FallbackSolver {
        FallbackSolver::try_new(residual_tolerance).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The residual acceptance tolerance.
    #[must_use]
    pub fn residual_tolerance(&self) -> f64 {
        self.residual_tolerance
    }

    /// Replaces the Gauss–Seidel stage (tolerance, sweep budget,
    /// relaxation).
    #[must_use]
    pub fn with_gauss_seidel(mut self, solver: GaussSeidelSolver) -> FallbackSolver {
        self.gauss_seidel = solver;
        self
    }

    /// Replaces the power-iteration stage.
    #[must_use]
    pub fn with_power(mut self, solver: PowerSolver) -> FallbackSolver {
        self.power = solver;
        self
    }

    /// Caps the wall-clock time of each *iterative* attempt (dense
    /// elimination is non-preemptible and bounded by the state limit
    /// instead). `None` removes the cap. Defaults to 30 s.
    #[must_use]
    pub fn with_attempt_budget(mut self, budget: Option<Duration>) -> FallbackSolver {
        self.attempt_budget = budget;
        self
    }

    /// Below this state count the dense direct solve runs first. Defaults
    /// to 3000, matching the availability engines' historical cutover.
    #[must_use]
    pub fn with_dense_preferred_below(mut self, n_states: usize) -> FallbackSolver {
        self.dense_preferred_below = n_states;
        self
    }

    /// Above this state count the dense attempt is skipped entirely.
    /// Defaults to 20 000.
    #[must_use]
    pub fn with_dense_state_limit(mut self, n_states: usize) -> FallbackSolver {
        self.dense_state_limit = n_states;
        self
    }

    /// Declares the chain's structure already verified: every stage skips
    /// its strong-connectivity check (the Gauss–Seidel stage's up-front
    /// traversals and the dense stage's reachability check).
    ///
    /// Only sound when the identical transition structure previously
    /// produced an accepted solution — the warm-start engines set this for
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

    /// Validates a produced solution: finite, non-negative (up to rounding),
    /// normalized mass, and balance residual under the tolerance. Returns
    /// the measured residual on success. `net_flow` is a reusable buffer.
    fn accept(&self, ctmc: &Ctmc, pi: &[f64], net_flow: &mut Vec<f64>) -> Result<f64, MarkovError> {
        if pi.iter().any(|p| !p.is_finite()) {
            return Err(MarkovError::NonFiniteSolution);
        }
        if pi.iter().any(|&p| p < -1e-9) || (pi.iter().sum::<f64>() - 1.0).abs() > 1e-6 {
            return Err(MarkovError::Singular);
        }
        let residual = residual_inf_norm_in(ctmc, pi, net_flow);
        if residual > self.residual_tolerance {
            return Err(MarkovError::ResidualTooLarge {
                residual,
                tolerance: self.residual_tolerance,
            });
        }
        Ok(residual)
    }

    fn attempt_order(&self, n_states: usize) -> impl Iterator<Item = SolverKind> {
        use SolverKind::{Dense, GaussSeidel, Power};
        let order = if n_states < self.dense_preferred_below {
            [Dense, GaussSeidel, Power]
        } else {
            [GaussSeidel, Power, Dense]
        };
        let skip_dense = n_states > self.dense_state_limit;
        order
            .into_iter()
            .filter(move |&kind| !(skip_dense && kind == Dense))
    }

    /// Runs the fallback chain, returning the accepted solution (or the
    /// last attempt's error) together with the full attempt trail.
    pub fn solve_with_diagnostics(
        &self,
        ctmc: &Ctmc,
    ) -> (Result<Vec<f64>, MarkovError>, SolveDiagnostics) {
        self.solve_warm(ctmc, None, &mut SolveScratch::new())
    }

    /// Runs the fallback chain with an optional warm-start hint and a
    /// reusable solve workspace.
    ///
    /// The hint seeds the *iterative* stages (Gauss–Seidel, power); the
    /// dense direct solve ignores it. Soundness does not depend on the
    /// hint: every produced solution still has to pass the same acceptance
    /// test (finite, non-negative, normalized, `‖πQ‖∞` under the residual
    /// tolerance), so a warm start can only change how fast an acceptable
    /// solution is found, never *whether* a solution is acceptable.
    ///
    /// Adversarial hints degrade to a cold start: a wrong-sized, non-finite
    /// or zero-mass hint is discarded (see `SolveDiagnostics::warm_hint_used`),
    /// and a non-normalized one is renormalized. `scratch` carries the
    /// iteration vectors, transposed adjacency, and dense matrix across
    /// calls so repeated solves stop reallocating them.
    pub fn solve_warm(
        &self,
        ctmc: &Ctmc,
        hint: Option<&[f64]>,
        scratch: &mut SolveScratch,
    ) -> (Result<Vec<f64>, MarkovError>, SolveDiagnostics) {
        self.solve_warm_budgeted(ctmc, hint, scratch, &SolveBudget::unlimited())
    }

    /// Runs the fallback chain under a cooperative [`SolveBudget`].
    ///
    /// Identical to [`Self::solve_warm`] except that every iterative stage
    /// polls the budget's deadline and cancellation token between sweeps,
    /// and the budget is re-checked before each attempt starts (so an
    /// already-exhausted budget never launches the non-preemptible dense
    /// solve). Budget exhaustion and cancellation abort the whole chain —
    /// falling back to another solver after the deadline would only burn
    /// more of the resource that just ran out.
    pub fn solve_warm_budgeted(
        &self,
        ctmc: &Ctmc,
        hint: Option<&[f64]>,
        scratch: &mut SolveScratch,
        budget: &SolveBudget,
    ) -> (Result<Vec<f64>, MarkovError>, SolveDiagnostics) {
        let warm = hint.and_then(|h| sanitize_hint(ctmc.n_states(), h));
        let mut diagnostics = SolveDiagnostics {
            warm_hint_used: warm.is_some(),
            ..SolveDiagnostics::default()
        };
        let governed = !budget.is_unlimited();
        let mut last_error = MarkovError::EmptyChain;
        for kind in self.attempt_order(ctmc.n_states()) {
            // Re-check before every attempt: the dense stage is
            // non-preemptible, so this gate is its only cancellation point.
            if governed {
                if let Err(e) = budget.checkpoint("solve", diagnostics.attempts.len() as u64) {
                    return (Err(e), diagnostics);
                }
            }
            let started = Instant::now();
            let warm_started = warm.is_some() && kind != SolverKind::Dense;
            let raw = match kind {
                SolverKind::GaussSeidel => {
                    let mut solver = self.gauss_seidel;
                    if let Some(allowance) = self.attempt_budget {
                        solver = solver.with_time_budget(allowance);
                    }
                    if self.assume_irreducible {
                        solver = solver.assuming_irreducible();
                    }
                    solver.sweep_into_budgeted(ctmc, warm.as_deref(), scratch, budget)
                }
                SolverKind::Power => {
                    let mut solver = self.power;
                    if let Some(allowance) = self.attempt_budget {
                        solver = solver.with_time_budget(allowance);
                    }
                    solver.power_into_budgeted(ctmc, warm.as_deref(), scratch, budget)
                }
                SolverKind::Dense => DenseSolver::new()
                    .solve_into(ctmc, scratch, self.assume_irreducible)
                    .map(|()| 0),
            };
            let (checked, residual) = match raw {
                Ok(iterations) => match self.accept(ctmc, &scratch.pi, &mut scratch.net_flow) {
                    Ok(residual) => (Ok(iterations), Some(residual)),
                    Err(e) => {
                        let residual = match e {
                            MarkovError::ResidualTooLarge { residual, .. } => Some(residual),
                            _ => None,
                        };
                        (Err((e, iterations)), residual)
                    }
                },
                Err(e) => {
                    // Failed iterative attempts still burned sweeps; the
                    // count rides in the error.
                    let iterations = match e {
                        MarkovError::NoConvergence { iterations, .. }
                        | MarkovError::TimedOut { iterations, .. } => iterations,
                        _ => 0,
                    };
                    (Err((e, iterations)), None)
                }
            };
            let wall_time = started.elapsed();
            match checked {
                Ok(iterations) => {
                    diagnostics.attempts.push(SolveAttempt {
                        solver: kind,
                        error: None,
                        residual,
                        wall_time,
                        iterations,
                        warm_started,
                    });
                    return (Ok(scratch.pi.clone()), diagnostics);
                }
                Err((e, iterations)) => {
                    // Structural failures apply to every solver: stop early
                    // rather than re-diagnosing the same chain three times.
                    // Budget exhaustion and cancellation likewise end the
                    // chain — the resource is gone for every later stage too.
                    let structural = matches!(
                        e,
                        MarkovError::Reducible { .. }
                            | MarkovError::EmptyChain
                            | MarkovError::BudgetExhausted { .. }
                            | MarkovError::Cancelled { .. }
                    );
                    diagnostics.attempts.push(SolveAttempt {
                        solver: kind,
                        error: Some(e.clone()),
                        residual,
                        wall_time,
                        iterations,
                        warm_started,
                    });
                    last_error = e;
                    if structural {
                        break;
                    }
                }
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

impl Default for FallbackSolver {
    /// Residual tolerance `1e-9`, default Gauss–Seidel and power stages,
    /// 30 s per iterative attempt, dense preferred below 3000 states.
    fn default() -> FallbackSolver {
        FallbackSolver::new(1e-9)
    }
}

impl SteadyStateSolver for FallbackSolver {
    fn steady_state(&self, ctmc: &Ctmc) -> Result<Vec<f64>, MarkovError> {
        self.solve_with_diagnostics(ctmc).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CtmcBuilder;
    use proptest::prelude::*;

    fn ring_chain(n: usize, rates: &[f64]) -> Ctmc {
        let mut b = CtmcBuilder::new(n);
        for i in 0..n {
            b.rate(i, (i + 1) % n, rates[i]);
            b.rate((i + 1) % n, i, rates[n + i]);
        }
        b.build().unwrap()
    }

    #[test]
    fn accepts_first_solver_on_easy_chain() {
        let ctmc = ring_chain(4, &[3.0, 1.5, 0.5, 2.0, 0.25, 1.0, 4.0, 0.75]);
        let (pi, diag) = FallbackSolver::default().solve_with_diagnostics(&ctmc);
        let pi = pi.unwrap();
        assert_eq!(diag.attempts.len(), 1);
        assert_eq!(diag.fallbacks_taken(), 0);
        assert_eq!(diag.accepted_solver(), Some(SolverKind::Dense));
        assert!(diag.accepted_residual().unwrap() <= 1e-9);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn large_chains_start_iterative() {
        let ctmc = ring_chain(4, &[3.0, 1.5, 0.5, 2.0, 0.25, 1.0, 4.0, 0.75]);
        let solver = FallbackSolver::default().with_dense_preferred_below(0);
        let (pi, diag) = solver.solve_with_diagnostics(&ctmc);
        assert!(pi.is_ok());
        assert_eq!(diag.accepted_solver(), Some(SolverKind::GaussSeidel));
    }

    #[test]
    fn falls_back_when_first_stage_is_starved() {
        // A Gauss-Seidel stage with a 1-sweep budget cannot converge; the
        // chain must fall back and still produce a verified answer.
        let ctmc = ring_chain(
            6,
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 2.5, 1.25, 0.8, 0.6, 0.5, 0.4],
        );
        let solver = FallbackSolver::default()
            .with_dense_preferred_below(0)
            .with_gauss_seidel(GaussSeidelSolver::new(1e-300, 1));
        let (pi, diag) = solver.solve_with_diagnostics(&ctmc);
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
        let solver = FallbackSolver::default()
            .with_dense_preferred_below(0)
            .with_dense_state_limit(0) // dense stage removed
            .with_gauss_seidel(GaussSeidelSolver::new(1e-300, 1))
            .with_power(PowerSolver::new(1e-300, 1));
        let (pi, diag) = solver.solve_with_diagnostics(&ctmc);
        assert!(pi.is_err());
        assert_eq!(diag.attempts.len(), 2);
        assert!(diag.attempts.iter().all(|a| !a.accepted()));
        assert!(diag.accepted_solver().is_none());
    }

    #[test]
    fn reducible_chains_fail_fast_without_retrying() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0);
        let ctmc = b.build_unchecked();
        let (pi, diag) = FallbackSolver::default().solve_with_diagnostics(&ctmc);
        assert!(matches!(pi, Err(MarkovError::Reducible { .. })));
        assert_eq!(diag.attempts.len(), 1, "structural errors are not retried");
    }

    #[test]
    fn residual_check_rejects_sloppy_solutions() {
        // A solver tolerance so loose it stops on the uniform initial guess
        // must be caught by the residual acceptance test, then rescued by
        // the next stage.
        let ctmc = ring_chain(4, &[30.0, 0.15, 5.0, 0.02, 0.25, 10.0, 4.0, 0.75]);
        let solver = FallbackSolver::default()
            .with_dense_preferred_below(0)
            .with_gauss_seidel(GaussSeidelSolver::new(1e300, 100_000));
        let (pi, diag) = solver.solve_with_diagnostics(&ctmc);
        assert!(pi.is_ok());
        assert!(matches!(
            diag.attempts[0].error,
            Some(MarkovError::ResidualTooLarge { .. })
        ));
        assert!(diag.attempts[0].residual.unwrap() > 1e-9);
        assert!(diag.accepted_residual().unwrap() <= 1e-9);
    }

    #[test]
    fn exhausted_budget_aborts_the_chain_without_fallbacks() {
        use crate::CancelToken;
        let ctmc = ring_chain(4, &[3.0, 1.5, 0.5, 2.0, 0.25, 1.0, 4.0, 0.75]);
        let solver = FallbackSolver::default().with_dense_preferred_below(0);

        // A cancelled token trips the pre-attempt gate before any solver
        // runs — including the non-preemptible dense stage.
        let token = CancelToken::new();
        token.cancel();
        let cancelled = SolveBudget::unlimited().with_cancel(token);
        let (pi, diag) =
            solver.solve_warm_budgeted(&ctmc, None, &mut SolveScratch::new(), &cancelled);
        assert!(matches!(pi, Err(MarkovError::Cancelled { .. })));
        assert!(diag.attempts.is_empty(), "no attempt should have launched");

        // A sweep cap starves Gauss-Seidel mid-chain; the budget error must
        // NOT trigger a fallback to power iteration or dense elimination.
        let capped = SolveBudget::unlimited().with_max_sweeps(2);
        let (pi, diag) = solver.solve_warm_budgeted(&ctmc, None, &mut SolveScratch::new(), &capped);
        assert!(matches!(pi, Err(MarkovError::BudgetExhausted { .. })));
        assert_eq!(diag.attempts.len(), 1, "budget errors are not retried");

        // The unlimited budget reproduces the plain path bit-for-bit.
        let (plain, _) = solver.solve_warm(&ctmc, None, &mut SolveScratch::new());
        let (governed, _) = solver.solve_warm_budgeted(
            &ctmc,
            None,
            &mut SolveScratch::new(),
            &SolveBudget::unlimited(),
        );
        let (plain, governed) = (plain.unwrap(), governed.unwrap());
        for (a, b) in plain.iter().zip(governed.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
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
    fn try_new_rejects_bad_tolerance() {
        for tol in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                FallbackSolver::try_new(tol),
                Err(MarkovError::InvalidSolverConfig { .. })
            ));
        }
    }

    #[test]
    fn iterative_path_accepts_early_via_the_residual_exit() {
        // The default policy's Gauss-Seidel stage stops once the balance
        // residual is three decades under the acceptance gate; a stage
        // without the exit grinds on to its per-sweep-delta tolerance.
        let mut b = CtmcBuilder::new(12);
        for i in 0..12_usize {
            b.rate(i, (i + 1) % 12, 0.2 + i as f64 / 2.0);
            b.rate((i + 1) % 12, i, 1.0 + i as f64 / 5.0);
        }
        let ctmc = b.build().unwrap();
        let fast = FallbackSolver::default().with_dense_preferred_below(0);
        let slow = fast.with_gauss_seidel(GaussSeidelSolver::default());
        let (pi_fast, diag_fast) = fast.solve_with_diagnostics(&ctmc);
        let (pi_slow, diag_slow) = slow.solve_with_diagnostics(&ctmc);
        let (pi_fast, pi_slow) = (pi_fast.unwrap(), pi_slow.unwrap());
        assert!(diag_fast.accepted_residual().unwrap() <= 1e-9);
        assert!(
            diag_fast.accepted_iterations().unwrap() < diag_slow.accepted_iterations().unwrap(),
            "residual exit saved no sweeps: {:?} vs {:?}",
            diag_fast.accepted_iterations(),
            diag_slow.accepted_iterations()
        );
        for (f, s) in pi_fast.iter().zip(pi_slow.iter()) {
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
            let solver = FallbackSolver::default().with_dense_preferred_below(0);
            let (pi, diag) = solver.solve_with_diagnostics(&ctmc);
            let pi = pi.unwrap();
            prop_assert!(diag.accepted_residual().unwrap() <= 1e-9);
            for (d, p) in dense.iter().zip(pi.iter()) {
                prop_assert!((d - p).abs() < 1e-8, "dense={} fallback={}", d, p);
            }
        }

        // Satellite requirement: a warm-started FallbackSolver agrees with
        // the cold solve to 1e-9 on random ergodic chains, including
        // adversarial warm starts (wrong-size hint rejected, non-normalized
        // hint renormalized, NaN hint ignored → cold path).
        #[test]
        fn warm_start_agrees_with_cold_on_random_ergodic_chains(
            n in 2_usize..65,
            rates in proptest::collection::vec(0.05_f64..20.0, 2 * 64),
            chords in proptest::collection::vec((0_usize..64, 0_usize..64, 0.05_f64..20.0), 0..12),
            perturb in 0.5_f64..2.0,
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
            // Iterative-first so the hint is actually consumed.
            let solver = FallbackSolver::default().with_dense_preferred_below(0);
            let (cold, _) = solver.solve_with_diagnostics(&ctmc);
            let cold = cold.unwrap();
            let mut scratch = SolveScratch::new();

            // A plausible neighbor hint: the cold solution perturbed and
            // deliberately left non-normalized (renormalizing is the
            // solver's job).
            let hint: Vec<f64> = cold
                .iter()
                .enumerate()
                .map(|(i, &p)| if i % 2 == 0 { p * perturb } else { p })
                .collect();
            let (warm, warm_diag) = solver.solve_warm(&ctmc, Some(&hint), &mut scratch);
            let warm = warm.unwrap();
            prop_assert!(warm_diag.warm_hint_used);
            prop_assert!(warm_diag.warm_start_consumed());
            prop_assert!(warm_diag.accepted_residual().unwrap() <= 1e-9);
            for (c, w) in cold.iter().zip(warm.iter()) {
                prop_assert!((c - w).abs() < 1e-9, "cold={} warm={}", c, w);
            }

            // Adversarial hints are discarded and the solve degrades to the
            // cold path — bit-identically, since a discarded hint leaves no
            // trace in the arithmetic.
            let wrong_size = vec![1.0; n + 1];
            let mut with_nan = cold.clone();
            with_nan[0] = f64::NAN;
            let no_mass = vec![0.0; n];
            for bad in [&wrong_size[..], &with_nan[..], &no_mass[..]] {
                let (pi, diag) = solver.solve_warm(&ctmc, Some(bad), &mut scratch);
                let pi = pi.unwrap();
                prop_assert!(!diag.warm_hint_used, "unusable hint must be discarded");
                for (c, p) in cold.iter().zip(pi.iter()) {
                    prop_assert_eq!(c.to_bits(), p.to_bits());
                }
            }
        }
    }
}
