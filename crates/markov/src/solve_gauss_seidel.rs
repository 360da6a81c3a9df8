//! Iterative steady-state solution by Gauss–Seidel sweeps.

use crate::scratch::SolveScratch;
use crate::{Ctmc, MarkovError, SolveBudget, SteadyStateSolver};

/// Gauss–Seidel steady-state solver.
///
/// Rearranges the balance equations `πQ = 0` into the fixed point
/// `π_j = (Σ_{i≠j} π_i q_ij) / |q_jj|` and sweeps states in order, using
/// freshly-updated values within a sweep. For the stiff chains produced by
/// availability models (rates spanning many orders of magnitude),
/// Gauss–Seidel typically converges in far fewer sweeps than power
/// iteration, whose step size is limited by the fastest transition.
///
/// The implementation stores the incoming-transition structure once
/// (transposed CSR), so each sweep is O(nnz).
///
/// # Examples
///
/// ```
/// use aved_markov::{CtmcBuilder, GaussSeidelSolver, SteadyStateSolver};
///
/// let mut b = CtmcBuilder::new(2);
/// b.rate(0, 1, 1e-6).rate(1, 0, 10.0); // very stiff
/// let pi = GaussSeidelSolver::default().steady_state(&b.build()?)?;
/// assert!((pi[1] - 1e-7 / (1.0 + 1e-7)).abs() < 1e-18);
/// # Ok::<(), aved_markov::MarkovError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussSeidelSolver {
    tolerance: f64,
    max_sweeps: usize,
    residual_exit: Option<f64>,
    assume_irreducible: bool,
}

/// The relaxation factor `ω` applied to each update
/// (`π_j ← (1−ω)·π_j + ω·v`).
///
/// Pure Gauss–Seidel (`ω = 1`) can enter period-2 limit cycles on some
/// chain structures (the update operator can carry an eigenvalue at −1);
/// any `ω < 1` maps that mode inside the unit circle. 0.9 damps
/// oscillations at a ~10 % cost in per-mode convergence rate.
const RELAXATION: f64 = 0.9;

impl GaussSeidelSolver {
    /// Creates a solver with the given relative per-sweep tolerance and
    /// sweep limit.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not positive and finite or `max_sweeps` is
    /// zero.
    #[must_use]
    pub fn new(tolerance: f64, max_sweeps: usize) -> GaussSeidelSolver {
        assert!(
            tolerance > 0.0 && tolerance.is_finite(),
            "tolerance must be positive and finite, got {tolerance}"
        );
        assert!(max_sweeps > 0, "max_sweeps must be positive");
        GaussSeidelSolver {
            tolerance,
            max_sweeps,
            residual_exit: None,
            assume_irreducible: false,
        }
    }

    /// Lets the sweep loop stop as soon as the measured balance residual
    /// `‖πQ‖∞` drops to `threshold`, before the per-sweep delta reaches
    /// the solver's own tolerance. The residual is checked every 4th sweep
    /// (it costs about as much as a sweep), so overshoot is bounded.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not a positive finite number.
    #[must_use]
    pub(crate) fn with_residual_exit(mut self, threshold: f64) -> GaussSeidelSolver {
        assert!(
            threshold > 0.0 && threshold.is_finite(),
            "residual-exit threshold must be positive and finite, got {threshold}"
        );
        self.residual_exit = Some(threshold);
        self
    }

    /// Skips the up-front strong-connectivity check; only sound for a
    /// structure that already produced an accepted solve (see
    /// [`FallbackSolver::with_irreducibility_assumed`]). The in-sweep guard
    /// against zero exit rates stays active.
    ///
    /// [`FallbackSolver::with_irreducibility_assumed`]: crate::FallbackSolver::with_irreducibility_assumed
    #[must_use]
    pub(crate) fn assuming_irreducible(mut self) -> GaussSeidelSolver {
        self.assume_irreducible = true;
        self
    }

    /// The sweep loop, starting from the uniform distribution, writing the
    /// solution into `scratch.pi` and reusing the scratch's
    /// transposed-adjacency buffers. Returns the number of sweeps used.
    ///
    /// The deadline and cancellation token of `budget` are polled every 64
    /// sweeps; an unlimited budget is never polled.
    pub(crate) fn sweep_into(
        &self,
        ctmc: &Ctmc,
        scratch: &mut SolveScratch,
        budget: &SolveBudget,
    ) -> Result<usize, MarkovError> {
        // The check leaves the in-edge transpose the sweeps read in the
        // scratch; an assumed-irreducible structure builds it alone.
        if self.assume_irreducible {
            scratch.transpose(ctmc);
        } else {
            ctmc.check_irreducible(scratch)
                .map_err(|state| MarkovError::Reducible { state })?;
        }
        let n = ctmc.n_states();
        if n == 1 {
            scratch.pi.clear();
            scratch.pi.push(1.0);
            return Ok(0);
        }

        // Incoming transitions per state: in_edges[in_starts[j]..in_starts[j+1]]
        // = [(i, q_ij)], in source-ascending order.
        let SolveScratch {
            pi,
            in_starts,
            in_edges,
            ..
        } = scratch;

        pi.clear();
        pi.resize(n, 1.0 / n as f64);
        let governed = !budget.is_unlimited();
        for sweep in 0..self.max_sweeps {
            // Check every 64 sweeps: cheap, bounded overshoot.
            if governed && sweep % 64 == 0 {
                budget.checkpoint("gauss-seidel", sweep as u64)?;
            }
            let mut delta = 0.0_f64;
            for j in 0..n {
                let exit = ctmc.exit_rate(j);
                if exit <= 0.0 {
                    // Irreducibility guarantees every state (in a >1-state
                    // chain) has an exit; defensive.
                    return Err(MarkovError::Reducible { state: j });
                }
                let inflow: f64 = in_edges[in_starts[j]..in_starts[j + 1]]
                    .iter()
                    .map(|&(i, q)| pi[i] * q)
                    .sum();
                let old = pi[j];
                let v = (1.0 - RELAXATION) * old + RELAXATION * (inflow / exit);
                pi[j] = v;
                // States with negligible stationary mass are exempt from
                // the relative criterion: a slowly decaying tiny state
                // would otherwise hold a constant relative delta for
                // millions of sweeps while every state that matters has
                // long converged.
                if v.abs().max(old.abs()) > 1e-250 {
                    let scale = v.abs().max(old.abs());
                    delta = delta.max((v - old).abs() / scale);
                }
            }
            // Normalize each sweep (the fixed point is scale-free).
            let sum: f64 = pi.iter().sum();
            if sum.is_nan() || sum <= 0.0 || !sum.is_finite() {
                return Err(MarkovError::Singular);
            }
            for p in pi.iter_mut() {
                *p /= sum;
            }
            if delta < self.tolerance {
                return Ok(sweep + 1);
            }
            // Residual early exit: every 4th sweep, measure the actual
            // balance residual and stop once it clears the caller's
            // threshold — the per-sweep delta criterion is only a proxy and
            // typically keeps sweeping long after the solution is already
            // acceptable. The check reuses the transposed adjacency, so it
            // costs about as much as one sweep.
            if let Some(gate) = self.residual_exit {
                if (sweep + 1) % 4 == 0 {
                    let mut worst = 0.0_f64;
                    for j in 0..n {
                        let inflow: f64 = in_edges[in_starts[j]..in_starts[j + 1]]
                            .iter()
                            .map(|&(i, q)| pi[i] * q)
                            .sum();
                        worst = worst.max((inflow - pi[j] * ctmc.exit_rate(j)).abs());
                    }
                    if worst <= gate {
                        return Ok(sweep + 1);
                    }
                }
            }
            if sweep == self.max_sweeps - 1 {
                return Err(MarkovError::NoConvergence {
                    iterations: self.max_sweeps,
                    residual: delta,
                });
            }
        }
        unreachable!("loop always returns")
    }
}

impl Default for GaussSeidelSolver {
    /// Relative tolerance `1e-13`, at most `100_000` sweeps.
    fn default() -> GaussSeidelSolver {
        GaussSeidelSolver::new(1e-13, 100_000)
    }
}

impl SteadyStateSolver for GaussSeidelSolver {
    fn steady_state(&self, ctmc: &Ctmc) -> Result<Vec<f64>, MarkovError> {
        let mut scratch = SolveScratch::new();
        self.sweep_into(ctmc, &mut scratch, &SolveBudget::unlimited())?;
        Ok(std::mem::take(&mut scratch.pi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CtmcBuilder, DenseSolver};
    use proptest::prelude::*;

    #[test]
    fn agrees_with_dense_on_small_chain() {
        let mut b = CtmcBuilder::new(4);
        b.rate(0, 1, 3.0)
            .rate(1, 2, 1.5)
            .rate(2, 3, 0.5)
            .rate(3, 0, 2.0)
            .rate(2, 0, 1.0)
            .rate(1, 0, 0.25);
        let ctmc = b.build().unwrap();
        let dense = DenseSolver::new().steady_state(&ctmc).unwrap();
        let gs = GaussSeidelSolver::default().steady_state(&ctmc).unwrap();
        for (d, g) in dense.iter().zip(gs.iter()) {
            assert!((d - g).abs() < 1e-10, "dense={d} gs={g}");
        }
    }

    #[test]
    fn handles_stiff_chains_quickly() {
        // Rates spanning 9 orders of magnitude; power iteration would need
        // ~1e9 sweeps, Gauss-Seidel a handful.
        let mut b = CtmcBuilder::new(3);
        b.rate(0, 1, 1e-6)
            .rate(1, 2, 1e-3)
            .rate(1, 0, 100.0)
            .rate(2, 0, 1e3);
        let ctmc = b.build().unwrap();
        let solver = GaussSeidelSolver::new(1e-14, 1000);
        let gs = solver.steady_state(&ctmc).unwrap();
        let dense = DenseSolver::new().steady_state(&ctmc).unwrap();
        for (d, g) in dense.iter().zip(gs.iter()) {
            let scale = d.abs().max(1e-300);
            assert!((d - g).abs() / scale < 1e-8, "dense={d} gs={g}");
        }
    }

    #[test]
    fn single_state_chain() {
        let ctmc = CtmcBuilder::new(1).build().unwrap();
        assert_eq!(
            GaussSeidelSolver::default().steady_state(&ctmc).unwrap(),
            vec![1.0]
        );
    }

    #[test]
    fn rejects_reducible() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0);
        assert!(matches!(
            GaussSeidelSolver::default().steady_state(&b.build_unchecked()),
            Err(MarkovError::Reducible { .. })
        ));
    }

    #[test]
    fn respects_sweep_limit() {
        // A 6-state asymmetric ring takes more than two sweeps to settle.
        let solver = GaussSeidelSolver::new(1e-300, 2);
        assert!(matches!(
            solver.steady_state(&slow_ring()),
            Err(MarkovError::NoConvergence { iterations: 2, .. })
        ));
    }

    #[test]
    fn damping_breaks_period_two_limit_cycles() {
        // Regression: this tandem-queue chain sends undamped Gauss-Seidel
        // into a period-2 oscillation (delta pinned at 1/17).
        let c = 3usize;
        let (arrive, s1, s2) = (0.5, 1.0, 0.9);
        let idx = |i: usize, j: usize| i * (c + 1) + j;
        let mut b = CtmcBuilder::new((c + 1) * (c + 1));
        for i in 0..=c {
            for j in 0..=c {
                if i < c {
                    b.rate(idx(i, j), idx(i + 1, j), arrive);
                }
                if i > 0 && j < c {
                    b.rate(idx(i, j), idx(i - 1, j + 1), s1);
                }
                if j > 0 {
                    b.rate(idx(i, j), idx(i, j - 1), s2);
                }
            }
        }
        let ctmc = b.build().unwrap();
        let gs = GaussSeidelSolver::default().steady_state(&ctmc).unwrap();
        let dense = DenseSolver::new().steady_state(&ctmc).unwrap();
        for (d, g) in dense.iter().zip(gs.iter()) {
            assert!((d - g).abs() < 1e-9, "dense={d} gs={g}");
        }
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn zero_tolerance_panics() {
        let _ = GaussSeidelSolver::new(0.0, 1);
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn nan_tolerance_panics() {
        let _ = GaussSeidelSolver::new(f64::NAN, 1);
    }

    #[test]
    #[should_panic(expected = "max_sweeps")]
    fn zero_sweep_cap_panics() {
        let _ = GaussSeidelSolver::new(1e-12, 0);
    }

    fn slow_ring() -> Ctmc {
        let mut b = CtmcBuilder::new(6);
        for i in 0..6 {
            b.rate(i, (i + 1) % 6, 1.0 + i as f64);
            b.rate((i + 1) % 6, i, 2.5 / (1.0 + i as f64));
        }
        b.build().unwrap()
    }

    #[test]
    fn zero_time_budget_times_out() {
        let budget = SolveBudget::unlimited().with_deadline(std::time::Instant::now());
        let solver = GaussSeidelSolver::new(1e-300, 100_000);
        assert!(matches!(
            solver.sweep_into(&slow_ring(), &mut SolveScratch::new(), &budget),
            Err(MarkovError::BudgetExhausted {
                phase: "gauss-seidel",
                resource: crate::BudgetResource::WallClock,
                progress: 0,
                ..
            })
        ));
    }

    #[test]
    fn budget_sweep_cap_and_cancellation_stop_the_sweeps() {
        let ctmc = slow_ring();
        let mut scratch = SolveScratch::new();
        // A governed run still stops at the solver's own sweep cap.
        let far = SolveBudget::unlimited()
            .with_deadline(std::time::Instant::now() + std::time::Duration::from_secs(3600));
        assert!(matches!(
            GaussSeidelSolver::new(1e-300, 3).sweep_into(&ctmc, &mut scratch, &far),
            Err(MarkovError::NoConvergence { iterations: 3, .. })
        ));
        let token = crate::CancelToken::new();
        token.cancel();
        let cancelled = SolveBudget::unlimited().with_cancel(token);
        assert!(matches!(
            GaussSeidelSolver::new(1e-300, 100_000).sweep_into(&ctmc, &mut scratch, &cancelled),
            Err(MarkovError::Cancelled {
                phase: "gauss-seidel"
            })
        ));
        // A governed budget that never trips is bit-identical to the plain
        // path.
        let plain = GaussSeidelSolver::default().steady_state(&ctmc).unwrap();
        GaussSeidelSolver::default()
            .sweep_into(&ctmc, &mut scratch, &far)
            .unwrap();
        assert_eq!(plain, scratch.pi);
    }

    #[test]
    fn residual_exit_stops_early_and_stays_under_its_gate() {
        let mut b = CtmcBuilder::new(8);
        for i in 0..8_usize {
            b.rate(i, (i + 1) % 8, 0.3 + i as f64);
            b.rate((i + 1) % 8, i, 2.0 + i as f64 / 3.0);
        }
        let ctmc = b.build().unwrap();
        let mut scratch = SolveScratch::new();
        let unlimited = SolveBudget::unlimited();
        let full = GaussSeidelSolver::default()
            .sweep_into(&ctmc, &mut scratch, &unlimited)
            .unwrap();
        let gated = GaussSeidelSolver::default().with_residual_exit(1e-6);
        let sweeps = gated.sweep_into(&ctmc, &mut scratch, &unlimited).unwrap();
        assert!(
            sweeps < full,
            "residual exit must beat the per-sweep-delta criterion ({sweeps} vs {full})"
        );
        let residual = crate::FallbackSolver::residual_inf_norm(&ctmc, &scratch.pi);
        assert!(residual <= 1e-6, "exit left residual {residual}");
    }

    #[test]
    fn assuming_irreducible_does_not_change_the_solution() {
        let mut b = CtmcBuilder::new(5);
        for i in 0..5_usize {
            b.rate(i, (i + 1) % 5, 1.0 + i as f64);
            b.rate((i + 1) % 5, i, 0.5);
        }
        let ctmc = b.build().unwrap();
        let plain = GaussSeidelSolver::default().steady_state(&ctmc).unwrap();
        let mut scratch = SolveScratch::new();
        GaussSeidelSolver::default()
            .assuming_irreducible()
            .sweep_into(&ctmc, &mut scratch, &SolveBudget::unlimited())
            .unwrap();
        assert_eq!(plain, scratch.pi, "the skip is a pure fast path");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn matches_dense_on_random_rings(
            n in 2_usize..10,
            rates in proptest::collection::vec(0.05_f64..20.0, 2 * 10),
        ) {
            let mut b = CtmcBuilder::new(n);
            for i in 0..n {
                b.rate(i, (i + 1) % n, rates[i]);
                b.rate((i + 1) % n, i, rates[n + i]);
            }
            let ctmc = b.build().unwrap();
            let dense = DenseSolver::new().steady_state(&ctmc).unwrap();
            let gs = GaussSeidelSolver::default().steady_state(&ctmc).unwrap();
            for (d, g) in dense.iter().zip(gs.iter()) {
                prop_assert!((d - g).abs() < 1e-9);
            }
        }
    }
}
