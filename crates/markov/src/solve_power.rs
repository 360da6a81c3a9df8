//! Iterative steady-state solution by uniformized power iteration.

use crate::scratch::SolveScratch;
use crate::{Ctmc, MarkovError, SolveBudget, SteadyStateSolver};

/// Iterative steady-state solver for large sparse chains.
///
/// Uniformizes the CTMC into a DTMC `P = I + Q/Λ` (with `Λ` slightly above
/// the maximum exit rate so every state keeps a self-loop, which removes
/// periodicity) and runs power iteration `π ← π·P` until the change between
/// sweeps drops below the tolerance.
///
/// Slower to converge for stiff chains than [`DenseSolver`](crate::DenseSolver)
/// is to factorize, but memory-light and O(nnz) per sweep, so it scales to
/// chains far beyond dense elimination. The availability engines use it when
/// the truncated state space grows past the dense cutover.
///
/// # Examples
///
/// ```
/// use aved_markov::{CtmcBuilder, PowerSolver, SteadyStateSolver};
///
/// let mut b = CtmcBuilder::new(2);
/// b.rate(0, 1, 0.01).rate(1, 0, 1.0);
/// let pi = PowerSolver::new(1e-12, 1_000_000).steady_state(&b.build()?)?;
/// assert!((pi[0] - 1.0 / 1.01).abs() < 1e-8);
/// # Ok::<(), aved_markov::MarkovError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSolver {
    tolerance: f64,
    max_sweeps: usize,
}

impl PowerSolver {
    /// Creates a solver with the given per-sweep convergence tolerance
    /// (max-norm of the change in `π`) and sweep limit.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not positive and finite or `max_sweeps` is
    /// zero.
    #[must_use]
    pub fn new(tolerance: f64, max_sweeps: usize) -> PowerSolver {
        assert!(
            tolerance > 0.0 && tolerance.is_finite(),
            "tolerance must be positive and finite, got {tolerance}"
        );
        assert!(max_sweeps > 0, "max_sweeps must be positive");
        PowerSolver {
            tolerance,
            max_sweeps,
        }
    }

    /// The iteration loop, starting from the uniform distribution, writing
    /// the solution into `scratch.pi` and reusing the scratch's iterate
    /// buffers. Returns the number of sweeps used.
    ///
    /// The deadline and cancellation token of `budget` are polled every 64
    /// sweeps; an unlimited budget is never polled.
    pub(crate) fn power_into(
        &self,
        ctmc: &Ctmc,
        scratch: &mut SolveScratch,
        budget: &SolveBudget,
    ) -> Result<usize, MarkovError> {
        ctmc.check_irreducible(scratch)
            .map_err(|state| MarkovError::Reducible { state })?;
        let n = ctmc.n_states();
        if n == 1 {
            scratch.pi.clear();
            scratch.pi.push(1.0);
            return Ok(0);
        }

        // Uniformization constant: 1.05 * max exit rate keeps self-loop
        // probability >= ~5% in the busiest state (aperiodicity + damping).
        let lambda = ctmc.max_exit_rate() * 1.05;
        if lambda <= 0.0 {
            // No transitions at all in a >1-state chain: reducible, but the
            // check above would have caught it. Defensive.
            return Err(MarkovError::Reducible { state: 0 });
        }

        let SolveScratch { pi, next, .. } = scratch;
        pi.clear();
        pi.resize(n, 1.0 / n as f64);
        next.clear();
        next.resize(n, 0.0);
        let mut last_delta = f64::INFINITY;
        let governed = !budget.is_unlimited();
        for sweep in 0..self.max_sweeps {
            if governed && sweep % 64 == 0 {
                budget.checkpoint("power", sweep as u64)?;
            }
            // next = pi * P = pi + (pi * Q) / lambda
            next.copy_from_slice(pi);
            for t in ctmc.transitions() {
                let flow = pi[t.from] * t.rate / lambda;
                next[t.from] -= flow;
                next[t.to] += flow;
            }
            // Renormalize to fight drift.
            let sum: f64 = next.iter().sum();
            let mut delta = 0.0_f64;
            for (p, q) in pi.iter_mut().zip(next.iter()) {
                let v = q / sum;
                delta = delta.max((v - *p).abs());
                *p = v;
            }
            last_delta = delta;
            if delta < self.tolerance {
                return Ok(sweep + 1);
            }
            // Convergence accelerates: check every sweep but bail early if
            // numerically stuck.
            if !delta.is_finite() {
                return Err(MarkovError::NoConvergence {
                    iterations: sweep + 1,
                    residual: delta,
                });
            }
        }
        Err(MarkovError::NoConvergence {
            iterations: self.max_sweeps,
            residual: last_delta,
        })
    }
}

impl Default for PowerSolver {
    /// Tolerance `1e-13`, at most `5_000_000` sweeps.
    fn default() -> PowerSolver {
        PowerSolver::new(1e-13, 5_000_000)
    }
}

impl SteadyStateSolver for PowerSolver {
    fn steady_state(&self, ctmc: &Ctmc) -> Result<Vec<f64>, MarkovError> {
        let mut scratch = SolveScratch::new();
        self.power_into(ctmc, &mut scratch, &SolveBudget::unlimited())?;
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
        let power = PowerSolver::default().steady_state(&ctmc).unwrap();
        for (d, p) in dense.iter().zip(power.iter()) {
            assert!((d - p).abs() < 1e-9, "dense={d} power={p}");
        }
    }

    #[test]
    fn respects_sweep_limit() {
        // Stiff chain + absurdly tight tolerance + tiny budget -> no
        // convergence.
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1e-9).rate(1, 0, 1e3);
        let solver = PowerSolver::new(1e-16, 3);
        assert!(matches!(
            solver.steady_state(&b.build().unwrap()),
            Err(MarkovError::NoConvergence { iterations: 3, .. })
        ));
    }

    #[test]
    fn rejects_reducible() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0);
        assert!(matches!(
            PowerSolver::default().steady_state(&b.build_unchecked()),
            Err(MarkovError::Reducible { .. })
        ));
    }

    #[test]
    fn single_state() {
        let ctmc = CtmcBuilder::new(1).build().unwrap();
        assert_eq!(
            PowerSolver::default().steady_state(&ctmc).unwrap(),
            vec![1.0]
        );
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn zero_tolerance_panics() {
        let _ = PowerSolver::new(0.0, 10);
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn nan_tolerance_panics() {
        let _ = PowerSolver::new(f64::NAN, 1);
    }

    #[test]
    #[should_panic(expected = "max_sweeps")]
    fn zero_sweep_cap_panics() {
        let _ = PowerSolver::new(1e-12, 0);
    }

    #[test]
    fn zero_time_budget_times_out() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1e-9).rate(1, 0, 1e3);
        let budget = SolveBudget::unlimited().with_deadline(std::time::Instant::now());
        let solver = PowerSolver::new(1e-16, 1_000_000);
        assert!(matches!(
            solver.power_into(&b.build().unwrap(), &mut SolveScratch::new(), &budget),
            Err(MarkovError::BudgetExhausted {
                phase: "power",
                progress: 0,
                ..
            })
        ));
    }

    #[test]
    fn budget_deadline_and_sweep_cap_stop_the_iteration() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1e-9).rate(1, 0, 1e3);
        let ctmc = b.build().unwrap();
        let mut scratch = SolveScratch::new();
        let expired = SolveBudget::unlimited()
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        assert!(matches!(
            PowerSolver::new(1e-16, 1_000_000).power_into(&ctmc, &mut scratch, &expired),
            Err(MarkovError::BudgetExhausted {
                phase: "power",
                resource: crate::BudgetResource::WallClock,
                ..
            })
        ));
        // A governed run still stops at the solver's own sweep cap.
        let far = SolveBudget::unlimited()
            .with_deadline(std::time::Instant::now() + std::time::Duration::from_secs(3600));
        assert!(matches!(
            PowerSolver::new(1e-16, 5).power_into(&ctmc, &mut scratch, &far),
            Err(MarkovError::NoConvergence { iterations: 5, .. })
        ));
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
            let power = PowerSolver::new(1e-14, 2_000_000).steady_state(&ctmc).unwrap();
            for (d, p) in dense.iter().zip(power.iter()) {
                prop_assert!((d - p).abs() < 1e-7);
            }
        }
    }
}
