//! The validated CTMC type.

use serde::{Deserialize, Serialize};

use crate::{CsrMatrix, SolveScratch};

/// A single off-diagonal transition of a CTMC.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// Source state index.
    pub from: usize,
    /// Destination state index.
    pub to: usize,
    /// Transition rate (events per unit time; this crate is agnostic to the
    /// time unit, but the Aved availability models use per-hour rates).
    pub rate: f64,
}

/// A validated continuous-time Markov chain.
///
/// Construct with [`CtmcBuilder`](crate::CtmcBuilder), which merges duplicate
/// transitions and validates rates. A `Ctmc` stores its off-diagonal
/// transitions in compressed sparse row form; the diagonal of the generator
/// matrix is derived (`q_ii = -Σ_{j≠i} q_ij`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ctmc {
    n_states: usize,
    rows: CsrMatrix,
    exit_rates: Vec<f64>,
}

impl Ctmc {
    pub(crate) fn from_parts(n_states: usize, rows: CsrMatrix) -> Ctmc {
        let exit_rates: Vec<f64> = (0..n_states)
            .map(|s| rows.row(s).iter().map(|&(_, r)| r).sum())
            .collect();
        Ctmc {
            n_states,
            rows,
            exit_rates,
        }
    }

    /// Flat entry position of the transition `from → to`, if present (see
    /// [`CsrMatrix::entry_index`]).
    pub(crate) fn entry_index(&self, from: usize, to: usize) -> Option<usize> {
        self.rows.entry_index(from, to)
    }

    /// Rate-only rebuild: replaces every transition rate in flat entry
    /// order, keeping the sparsity structure, and re-derives the exit rates
    /// exactly as [`Ctmc::from_parts`] does — so a patched chain is
    /// bit-identical to one built from scratch with the same merged rates.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != n_transitions()`.
    pub(crate) fn patch_rates(&mut self, values: &[f64]) {
        self.rows.overwrite_values(values);
        for s in 0..self.n_states {
            self.exit_rates[s] = self.rows.row(s).iter().map(|&(_, r)| r).sum();
        }
    }

    /// Number of states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Number of (merged) off-diagonal transitions.
    #[must_use]
    pub fn n_transitions(&self) -> usize {
        self.rows.nnz()
    }

    /// The outgoing transitions of `state` as `(destination, rate)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `state >= n_states`.
    #[must_use]
    pub fn outgoing(&self, state: usize) -> &[(usize, f64)] {
        self.rows.row(state)
    }

    /// Total exit rate of `state` (the negated diagonal generator entry).
    ///
    /// # Panics
    ///
    /// Panics if `state >= n_states`.
    #[must_use]
    pub fn exit_rate(&self, state: usize) -> f64 {
        self.exit_rates[state]
    }

    /// The largest exit rate over all states (the uniformization constant
    /// lower bound).
    #[must_use]
    pub fn max_exit_rate(&self) -> f64 {
        self.exit_rates.iter().fold(0.0_f64, |a, &b| a.max(b))
    }

    /// Iterates over all off-diagonal transitions.
    pub fn transitions(&self) -> impl Iterator<Item = Transition> + '_ {
        (0..self.n_states).flat_map(move |from| {
            self.rows
                .row(from)
                .iter()
                .map(move |&(to, rate)| Transition { from, to, rate })
        })
    }

    /// Checks strong connectivity (irreducibility) of the transition graph.
    ///
    /// Returns `Ok(())` when every state can reach every other state, or the
    /// index of a state outside the single strongly-connected component.
    /// The check runs in `scratch`'s buffers — visited flags, a stack, and
    /// the in-edge transpose it leaves behind — so a scratch grown to the
    /// chain's size checks it without allocating.
    ///
    /// # Errors
    ///
    /// Returns the representative offending state index.
    pub fn check_irreducible(&self, scratch: &mut SolveScratch) -> Result<(), usize> {
        // Forward reachability from state 0 over the rows and backward
        // reachability over the transpose; irreducible iff both cover all
        // states.
        scratch.transpose(self);
        let SolveScratch {
            in_starts,
            in_edges,
            seen,
            stack,
            ..
        } = scratch;
        for backward in [false, true] {
            seen.clear();
            seen.resize(self.n_states, false);
            stack.clear();
            stack.push(0);
            seen[0] = true;
            while let Some(s) = stack.pop() {
                let next = if backward {
                    &in_edges[in_starts[s]..in_starts[s + 1]]
                } else {
                    self.rows.row(s)
                };
                for &(t, rate) in next {
                    if rate > 0.0 && !seen[t] {
                        seen[t] = true;
                        stack.push(t);
                    }
                }
            }
            if let Some(s) = seen.iter().position(|&v| !v) {
                return Err(s);
            }
        }
        Ok(())
    }

    /// Computes the expected steady-state reward `Σ_s π_s · reward(s)`.
    ///
    /// This is the workhorse of availability evaluation: with reward 1 for
    /// "down" states and 0 for "up" states, the result is the steady-state
    /// unavailability.
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != n_states`.
    #[must_use]
    pub fn expected_reward<F: Fn(usize) -> f64>(&self, pi: &[f64], reward: F) -> f64 {
        assert_eq!(pi.len(), self.n_states, "distribution length mismatch");
        pi.iter().enumerate().map(|(s, &p)| p * reward(s)).sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::{CtmcBuilder, SolveScratch};

    #[test]
    fn exit_rates_sum_outgoing() {
        let mut b = CtmcBuilder::new(3);
        b.rate(0, 1, 2.0);
        b.rate(0, 2, 3.0);
        b.rate(1, 0, 1.0);
        b.rate(2, 0, 4.0);
        let c = b.build().unwrap();
        assert_eq!(c.exit_rate(0), 5.0);
        assert_eq!(c.exit_rate(1), 1.0);
        assert_eq!(c.exit_rate(2), 4.0);
        assert_eq!(c.max_exit_rate(), 5.0);
        assert_eq!(c.n_transitions(), 4);
    }

    #[test]
    fn transitions_iterator_yields_all() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0);
        b.rate(1, 0, 2.0);
        let c = b.build().unwrap();
        let ts: Vec<_> = c.transitions().collect();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].from, 0);
        assert_eq!(ts[0].to, 1);
        assert_eq!(ts[1].rate, 2.0);
    }

    #[test]
    fn irreducibility_detects_unreachable() {
        let mut b = CtmcBuilder::new(3);
        b.rate(0, 1, 1.0);
        b.rate(1, 0, 1.0);
        // state 2 is isolated
        b.rate(2, 0, 1.0); // can reach 0 but cannot be reached
        let c = b.build_unchecked();
        assert!(c.check_irreducible(&mut SolveScratch::new()).is_err());
    }

    #[test]
    fn irreducibility_detects_absorbing() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0); // 1 is absorbing
        let c = b.build_unchecked();
        assert_eq!(c.check_irreducible(&mut SolveScratch::new()), Err(1));
    }

    #[test]
    fn expected_reward_weights_distribution() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0);
        b.rate(1, 0, 1.0);
        let c = b.build().unwrap();
        let pi = [0.25, 0.75];
        let r = c.expected_reward(&pi, |s| if s == 1 { 1.0 } else { 0.0 });
        assert_eq!(r, 0.75);
    }
}
