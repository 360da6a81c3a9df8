//! A small, self-contained continuous-time Markov chain (CTMC) engine.
//!
//! The Aved paper evaluates candidate designs by generating an availability
//! model and feeding it to an external availability evaluation engine
//! (Avanto, Mobius, Sharpe) or to "our own simplified Markov Model". This
//! crate is that engine, built from scratch: it provides
//!
//! * [`Ctmc`] — a validated continuous-time Markov chain (states +
//!   transition rates), assembled via [`CtmcBuilder`];
//! * [`explore`] — breadth-first state-space exploration from an initial
//!   state and a successor function, for models whose state space is easier
//!   to describe procedurally than to enumerate by hand;
//! * steady-state solvers: [`SteadyStateSolver`] implementations using dense
//!   Gaussian elimination ([`DenseSolver`]), Gauss–Seidel sweeps
//!   ([`GaussSeidelSolver`]) and uniformized power iteration
//!   ([`PowerSolver`]);
//! * [`FallbackSolver`] — a resilient policy chaining the three solvers
//!   with per-attempt budgets and a `‖πQ‖∞` residual acceptance check,
//!   recording every attempt in a [`SolveDiagnostics`] trail. Its one entry
//!   point, [`FallbackSolver::solve`], takes a reusable [`SolveScratch`]
//!   workspace and a [`SolveBudget`] — the one budget type, bounding wall
//!   time, explored states and cancellation. Every stage starts cold, so
//!   an accepted answer is a pure function of the chain: neither the
//!   scratch nor earlier solves can move a bit of it;
//! * [`Explored::repatch`] rebuilds an explored chain's rates in place
//!   when only the rates (not the topology) changed, bit-identically to a
//!   fresh [`explore`];
//! * [`birth_death::steady_state`] — the closed-form product solution for
//!   birth–death chains, used to cross-check the general solvers;
//! * [`transient`] — uniformization-based transient analysis (probability
//!   distribution at time *t* and expected accumulated reward), an extension
//!   beyond the paper's steady-state-only evaluation.
//!
//! # Example: 2-state machine-repair model
//!
//! ```
//! use aved_markov::{CtmcBuilder, DenseSolver, SteadyStateSolver};
//!
//! // State 0 = up, state 1 = down. MTBF 1000 h, MTTR 10 h.
//! let mut b = CtmcBuilder::new(2);
//! b.rate(0, 1, 1.0 / 1000.0);
//! b.rate(1, 0, 1.0 / 10.0);
//! let ctmc = b.build()?;
//! let pi = DenseSolver::default().steady_state(&ctmc)?;
//! let unavailability = pi[1];
//! assert!((unavailability - 10.0 / 1010.0).abs() < 1e-12);
//! # Ok::<(), aved_markov::MarkovError>(())
//! ```

pub mod birth_death;
mod budget;
mod builder;
mod csr;
mod ctmc;
mod error;
mod explore;
mod scratch;
mod solve_dense;
mod solve_fallback;
mod solve_gauss_seidel;
mod solve_power;
pub mod transient;

pub use budget::{BudgetResource, CancelToken, SolveBudget};
pub use builder::CtmcBuilder;
pub use csr::CsrMatrix;
pub use ctmc::{Ctmc, Transition};
pub use error::MarkovError;
pub use explore::{explore, Explored};
pub use scratch::SolveScratch;
pub use solve_dense::DenseSolver;
pub use solve_fallback::{FallbackSolver, SolveAttempt, SolveDiagnostics, SolverKind};
pub use solve_gauss_seidel::GaussSeidelSolver;
pub use solve_power::PowerSolver;

/// A steady-state solver for continuous-time Markov chains.
///
/// Implementations compute the stationary distribution `π` satisfying
/// `πQ = 0`, `Σπ = 1` for an irreducible chain. Three implementations are
/// provided: [`DenseSolver`] (exact, O(n³), best below a few thousand
/// states), [`GaussSeidelSolver`] (sparse sweeps, fast on the stiff chains
/// availability models produce) and [`PowerSolver`] (uniformized power
/// iteration, the simplest and most robust baseline).
pub trait SteadyStateSolver {
    /// Computes the stationary distribution of `ctmc`.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError`] if the chain is reducible (no unique
    /// stationary distribution), if the linear system is singular beyond the
    /// irreducibility replacement row, or if iteration fails to converge.
    fn steady_state(&self, ctmc: &Ctmc) -> Result<Vec<f64>, MarkovError>;
}
