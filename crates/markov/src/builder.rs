//! Incremental CTMC construction with validation.

use crate::{CsrMatrix, Ctmc, MarkovError, SolveScratch};

/// Builder for [`Ctmc`] values.
///
/// Collects off-diagonal transition rates; duplicate `(from, to)` pairs are
/// summed, matching the semantics of superposed Poisson processes (two
/// independent causes of the same state change add their rates).
///
/// # Examples
///
/// ```
/// use aved_markov::CtmcBuilder;
///
/// let mut b = CtmcBuilder::new(3);
/// b.rate(0, 1, 0.5).rate(1, 2, 0.25).rate(2, 0, 1.0);
/// // A second failure cause for the 0 -> 1 transition:
/// b.rate(0, 1, 0.1);
/// let ctmc = b.build()?;
/// assert_eq!(ctmc.outgoing(0), &[(1, 0.6)]);
/// # Ok::<(), aved_markov::MarkovError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct CtmcBuilder {
    n_states: usize,
    triplets: Vec<(usize, usize, f64)>,
    error: Option<MarkovError>,
}

impl CtmcBuilder {
    /// Creates a builder for a chain with `n_states` states.
    #[must_use]
    pub fn new(n_states: usize) -> CtmcBuilder {
        CtmcBuilder {
            n_states,
            triplets: Vec::new(),
            error: None,
        }
    }

    /// Adds a transition `from -> to` with the given rate.
    ///
    /// Zero rates are accepted and dropped (convenient when rates are
    /// computed from counts that may be zero). Invalid inputs (out-of-range
    /// states, negative/NaN/infinite rates, self-loops) are recorded and
    /// reported by [`build`](Self::build); this lets callers chain many
    /// `rate` calls without checking each one.
    pub fn rate(&mut self, from: usize, to: usize, rate: f64) -> &mut CtmcBuilder {
        if self.error.is_some() {
            return self;
        }
        if from >= self.n_states {
            self.error = Some(MarkovError::StateOutOfRange {
                state: from,
                n_states: self.n_states,
            });
            return self;
        }
        if to >= self.n_states {
            self.error = Some(MarkovError::StateOutOfRange {
                state: to,
                n_states: self.n_states,
            });
            return self;
        }
        if rate.is_nan() || rate < 0.0 || rate.is_infinite() {
            self.error = Some(MarkovError::InvalidRate { from, to, rate });
            return self;
        }
        if from == to {
            self.error = Some(MarkovError::SelfLoop { state: from });
            return self;
        }
        if rate > 0.0 {
            self.triplets.push((from, to, rate));
        }
        self
    }

    /// Number of transitions recorded so far (before duplicate merging).
    #[must_use]
    pub fn n_recorded(&self) -> usize {
        self.triplets.len()
    }

    /// Finalizes the chain, checking validity and irreducibility.
    ///
    /// # Errors
    ///
    /// Returns the first recorded construction error, [`MarkovError::EmptyChain`]
    /// for a zero-state chain, or [`MarkovError::Reducible`] when the
    /// transition graph is not strongly connected (steady-state analysis
    /// requires irreducibility).
    pub fn build(&self) -> Result<Ctmc, MarkovError> {
        let ctmc = self.build_lenient()?;
        ctmc.check_irreducible(&mut SolveScratch::new())
            .map_err(|state| MarkovError::Reducible { state })?;
        Ok(ctmc)
    }

    /// Finalizes the chain without the irreducibility check.
    ///
    /// Useful for transient analysis of absorbing chains (e.g. mean time to
    /// failure models), where reducibility is the point.
    ///
    /// # Errors
    ///
    /// Returns the first recorded construction error or
    /// [`MarkovError::EmptyChain`].
    pub fn build_lenient(&self) -> Result<Ctmc, MarkovError> {
        if let Some(err) = &self.error {
            return Err(err.clone());
        }
        if self.n_states == 0 {
            return Err(MarkovError::EmptyChain);
        }
        let rows = CsrMatrix::from_triplets(self.n_states, self.triplets.clone());
        Ok(Ctmc::from_parts(self.n_states, rows))
    }

    /// Finalizes the chain, panicking on construction errors and skipping
    /// the irreducibility check. Test helper.
    ///
    /// # Panics
    ///
    /// Panics if any recorded transition was invalid or the chain is empty.
    #[must_use]
    pub fn build_unchecked(&self) -> Ctmc {
        self.build_lenient().expect("invalid CTMC")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_parallel_transitions() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0).rate(0, 1, 2.0).rate(1, 0, 1.0);
        let c = b.build().unwrap();
        assert_eq!(c.outgoing(0), &[(1, 3.0)]);
    }

    #[test]
    fn drops_zero_rates() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 0.0).rate(0, 1, 1.0).rate(1, 0, 1.0);
        let c = b.build().unwrap();
        assert_eq!(c.n_transitions(), 2);
    }

    #[test]
    fn rejects_out_of_range_state() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 7, 1.0);
        assert!(matches!(
            b.build(),
            Err(MarkovError::StateOutOfRange { state: 7, .. })
        ));
    }

    #[test]
    fn rejects_negative_rate() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, -3.0);
        assert!(matches!(b.build(), Err(MarkovError::InvalidRate { .. })));
    }

    #[test]
    fn rejects_nan_and_infinite_rate() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, f64::NAN);
        assert!(matches!(b.build(), Err(MarkovError::InvalidRate { .. })));
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, f64::INFINITY);
        assert!(matches!(b.build(), Err(MarkovError::InvalidRate { .. })));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = CtmcBuilder::new(2);
        b.rate(1, 1, 1.0);
        assert!(matches!(b.build(), Err(MarkovError::SelfLoop { state: 1 })));
    }

    #[test]
    fn rejects_empty_chain() {
        let b = CtmcBuilder::new(0);
        assert!(matches!(b.build(), Err(MarkovError::EmptyChain)));
    }

    #[test]
    fn first_error_wins() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 9, 1.0).rate(1, 1, 1.0);
        assert!(matches!(
            b.build(),
            Err(MarkovError::StateOutOfRange { state: 9, .. })
        ));
    }

    #[test]
    fn reducible_chain_rejected_by_build() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0); // absorbing state 1
        assert!(matches!(b.build(), Err(MarkovError::Reducible { .. })));
        // ...but accepted by the lenient variant.
        assert!(b.build_lenient().is_ok());
    }

    #[test]
    fn single_state_chain_is_trivially_irreducible() {
        let b = CtmcBuilder::new(1);
        let c = b.build().unwrap();
        assert_eq!(c.n_states(), 1);
        assert_eq!(c.exit_rate(0), 0.0);
    }
}
