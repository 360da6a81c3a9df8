//! Error type shared by the CTMC builders and solvers.

use std::error::Error;
use std::fmt;

/// Error produced by CTMC construction or solution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MarkovError {
    /// A transition referenced a state index `>= n_states`.
    StateOutOfRange {
        /// The offending state index.
        state: usize,
        /// The number of states in the chain.
        n_states: usize,
    },
    /// A transition rate was negative, NaN or infinite.
    InvalidRate {
        /// Source state of the transition.
        from: usize,
        /// Destination state of the transition.
        to: usize,
        /// The offending rate value.
        rate: f64,
    },
    /// A self-loop transition was supplied (`from == to`); diagonal entries
    /// of the generator are derived, never specified.
    SelfLoop {
        /// The state with the self-loop.
        state: usize,
    },
    /// The chain was empty (zero states).
    EmptyChain,
    /// The chain is reducible: some state cannot reach, or be reached from,
    /// the rest, so no unique stationary distribution exists.
    Reducible {
        /// A representative unreachable/absorbing-component state.
        state: usize,
    },
    /// The linear system was numerically singular.
    Singular,
    /// An iterative solver failed to converge.
    NoConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
        /// Residual at the point of giving up.
        residual: f64,
    },
    /// A solver produced a solution whose balance residual `‖πQ‖∞`
    /// exceeded the acceptance tolerance — a silently-wrong answer that a
    /// per-sweep convergence criterion alone would have accepted.
    ResidualTooLarge {
        /// The measured residual `‖πQ‖∞`.
        residual: f64,
        /// The acceptance tolerance it had to meet.
        tolerance: f64,
    },
    /// A solution contained NaN or infinite probabilities.
    NonFiniteSolution,
    /// A solver was configured with an invalid parameter (non-positive
    /// tolerance, zero iteration budget, relaxation outside `(0, 1]`, ...).
    InvalidSolverConfig {
        /// Human-readable description of the rejected parameter.
        detail: String,
    },
    /// A cooperative resource budget was exhausted mid-computation: the
    /// [`SolveBudget`](crate::SolveBudget) limit that tripped, or the
    /// fallback solver's fixed per-attempt allowance.
    BudgetExhausted {
        /// The phase that hit the limit (`"explore"`, `"gauss-seidel"`,
        /// `"power"`, `"search"`, ...).
        phase: &'static str,
        /// Which resource ran out.
        resource: crate::BudgetResource,
        /// Progress made at the cutoff, in the phase's own unit (states
        /// explored, sweeps performed, attempts made).
        progress: u64,
        /// The configured limit, in the same unit (`0` when the limit is a
        /// point in time rather than a count).
        limit: u64,
    },
    /// The computation was cancelled via a
    /// [`CancelToken`](crate::CancelToken) before it finished.
    Cancelled {
        /// The phase that observed the cancellation.
        phase: &'static str,
    },
}

impl fmt::Display for MarkovError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarkovError::StateOutOfRange { state, n_states } => {
                write!(f, "state {state} out of range (chain has {n_states} states)")
            }
            MarkovError::InvalidRate { from, to, rate } => {
                write!(f, "invalid rate {rate} on transition {from} -> {to}")
            }
            MarkovError::SelfLoop { state } => {
                write!(f, "self-loop on state {state} (diagonal entries are derived)")
            }
            MarkovError::EmptyChain => write!(f, "chain has no states"),
            MarkovError::Reducible { state } => {
                write!(f, "chain is reducible (state {state} not strongly connected)")
            }
            MarkovError::Singular => write!(f, "generator matrix is numerically singular"),
            MarkovError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "iterative solver did not converge after {iterations} iterations (residual {residual:e})"
            ),
            MarkovError::ResidualTooLarge {
                residual,
                tolerance,
            } => write!(
                f,
                "solution rejected: balance residual {residual:e} exceeds tolerance {tolerance:e}"
            ),
            MarkovError::NonFiniteSolution => {
                write!(f, "solution contains NaN or infinite probabilities")
            }
            MarkovError::InvalidSolverConfig { detail } => {
                write!(f, "invalid solver configuration: {detail}")
            }
            MarkovError::BudgetExhausted {
                phase,
                resource,
                progress,
                limit,
            } => {
                write!(f, "{phase} exhausted its {resource} budget")?;
                if *limit > 0 {
                    write!(f, " ({progress} of {limit})")
                } else {
                    write!(f, " after {progress} unit(s) of progress")
                }
            }
            MarkovError::Cancelled { phase } => {
                write!(f, "{phase} cancelled before completion")
            }
        }
    }
}

impl Error for MarkovError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(MarkovError, &str)> = vec![
            (
                MarkovError::StateOutOfRange {
                    state: 5,
                    n_states: 3,
                },
                "state 5",
            ),
            (
                MarkovError::InvalidRate {
                    from: 0,
                    to: 1,
                    rate: -1.0,
                },
                "-1",
            ),
            (MarkovError::SelfLoop { state: 2 }, "self-loop"),
            (MarkovError::EmptyChain, "no states"),
            (MarkovError::Reducible { state: 7 }, "reducible"),
            (MarkovError::Singular, "singular"),
            (
                MarkovError::NoConvergence {
                    iterations: 10,
                    residual: 0.5,
                },
                "converge",
            ),
            (
                MarkovError::ResidualTooLarge {
                    residual: 1e-3,
                    tolerance: 1e-9,
                },
                "residual",
            ),
            (MarkovError::NonFiniteSolution, "NaN"),
            (
                MarkovError::InvalidSolverConfig {
                    detail: "tolerance must be positive".into(),
                },
                "configuration",
            ),
            (
                MarkovError::BudgetExhausted {
                    phase: "explore",
                    resource: crate::BudgetResource::States,
                    progress: 5000,
                    limit: 5000,
                },
                "explored-states budget",
            ),
            (MarkovError::Cancelled { phase: "power" }, "cancelled"),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} should mention {needle}"
            );
        }
    }
}
