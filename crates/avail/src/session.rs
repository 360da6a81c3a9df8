//! Per-worker evaluation context that makes repeated solves cheap.
//!
//! The search layer evaluates thousands of neighboring candidate designs.
//! Neighbors differ in a handful of rates (a maintenance contract swap, a
//! restart-mechanism toggle) far more often than in chain topology.
//! [`EvalSession`] exploits that: it owns a reusable [`SolveScratch`]
//! arena, caches explored chains by structural shape for rate-only
//! in-place rebuilds ([`Explored::repatch`]), and remembers which shapes
//! already passed a solve so their irreducibility check is skipped. It
//! carries no solution from one solve to the next, so every result is
//! bit-identical to a one-shot evaluation.
//!
//! Engines stay `Send + Sync` because all mutable state lives here: each
//! search worker thread owns its own session and passes it down by
//! `&mut` through [`AvailabilityEngine::evaluate_with_session`].
//!
//! [`Explored::repatch`]: aved_markov::Explored::repatch
//! [`AvailabilityEngine::evaluate_with_session`]: crate::AvailabilityEngine::evaluate_with_session

use std::collections::HashMap;

use aved_markov::{Explored, SolveBudget, SolveScratch};

use crate::engine_ctmc::St;
use crate::TierModel;

/// Structural shape of a tier chain: every model attribute that determines
/// the explored state space and transition topology, but none of the rates.
///
/// Two models with equal keys explore bit-identical state orderings and
/// sparsity structures (rates are always positive, so no transition is ever
/// pruned by a rate value), which makes a cached chain safe to rebuild
/// in place via [`Explored::repatch`] — and `repatch` re-verifies the
/// structure exactly, so even a key collision degrades to a re-explore,
/// never to a wrong answer.
///
/// [`Explored::repatch`]: aved_markov::Explored::repatch
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ChainKey {
    n: u32,
    m: u32,
    s: u32,
    spares_exposed: bool,
    /// Effective truncation cap (`max_concurrent.min(n_total)`).
    cap: u32,
    n_classes: usize,
    /// Bit `i` set iff class `i` uses failover (the only per-class attribute
    /// that shapes the state space).
    failover_mask: u64,
}

impl ChainKey {
    /// The key for `model` under truncation `cap`, or `None` when the model
    /// has more classes than the mask can hold (such a model is evaluated
    /// without the chain cache).
    pub(crate) fn for_model(model: &TierModel, cap: u32) -> Option<ChainKey> {
        let classes = model.classes();
        if classes.len() > 64 {
            return None;
        }
        let mut failover_mask = 0_u64;
        for (i, class) in classes.iter().enumerate() {
            if class.uses_failover() {
                failover_mask |= 1 << i;
            }
        }
        Some(ChainKey {
            n: model.n(),
            m: model.m(),
            s: model.s(),
            spares_exposed: model.spares_exposed(),
            cap,
            n_classes: classes.len(),
            failover_mask,
        })
    }
}

/// A cached chain for one structural shape: the explored chain (rebuilt in
/// place when rates change), the down-state mask (purely structural, so it
/// never needs recomputing), and whether the shape has produced an
/// accepted solve yet.
#[derive(Debug, Clone)]
pub(crate) struct CachedChain {
    pub(crate) explored: Explored<St>,
    pub(crate) down: Vec<bool>,
    /// `true` once a solve of this shape was accepted; later solves skip
    /// the (purely structural) irreducibility check.
    pub(crate) solved: bool,
}

/// Counters describing how much work the session's reuse avoided over its
/// lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Steady-state solves run through this session.
    pub solves: u64,
    /// Solves of a chain shape this session had already solved — the
    /// locality hit rate of the candidate ordering.
    pub warm_hits: u64,
    /// Total iterative sweeps across all solves and attempts.
    pub iterations: u64,
    /// Chain constructions replaced by a rate-only in-place rebuild.
    pub rebuilds_avoided: u64,
}

impl SessionStats {
    /// Folds another session's counters into this one.
    pub fn absorb(&mut self, other: &SessionStats) {
        self.solves += other.solves;
        self.warm_hits += other.warm_hits;
        self.iterations += other.iterations;
        self.rebuilds_avoided += other.rebuilds_avoided;
    }
}

/// Reusable evaluation state threaded through
/// [`AvailabilityEngine::evaluate_with_session`] calls.
///
/// A session is cheap to create and grows to the working-set size of the
/// chains it has seen; each search worker thread keeps one for its whole
/// shard. Dropping the session drops all cached state. Results never
/// depend on it: on every solver path they are bit-identical with or
/// without a session (see `DESIGN.md`, "Evaluation sessions").
///
/// [`AvailabilityEngine::evaluate_with_session`]: crate::AvailabilityEngine::evaluate_with_session
#[derive(Debug, Default)]
pub struct EvalSession {
    pub(crate) scratch: SolveScratch,
    pub(crate) chains: HashMap<ChainKey, CachedChain>,
    pub(crate) stats: SessionStats,
    pub(crate) budget: SolveBudget,
}

impl EvalSession {
    /// Creates an empty session with an unlimited budget.
    #[must_use]
    pub fn new() -> EvalSession {
        EvalSession::default()
    }

    /// Sets the resource budget governing every evaluation run through this
    /// session (builder form). The default is unlimited.
    ///
    /// Engines derive a per-candidate budget from it at the start of each
    /// `evaluate_with_session` call (see [`SolveBudget::for_candidate`]), so
    /// a per-candidate timeout restarts for every evaluation while a global
    /// deadline or cancellation token keeps counting across them.
    #[must_use]
    pub fn with_budget(mut self, budget: SolveBudget) -> EvalSession {
        self.budget = budget;
        self
    }

    /// Replaces the session's resource budget in place.
    pub fn set_budget(&mut self, budget: SolveBudget) {
        self.budget = budget;
    }

    /// The resource budget governing evaluations in this session.
    #[must_use]
    pub fn budget(&self) -> &SolveBudget {
        &self.budget
    }

    /// The work-avoidance counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Number of distinct chain shapes currently cached.
    #[must_use]
    pub fn cached_chains(&self) -> usize {
        self.chains.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FailureClass;
    use aved_units::Duration;

    fn class(label: &str, uses_failover: bool) -> FailureClass {
        FailureClass::new(
            label,
            Duration::from_days(650.0).rate(),
            Duration::from_hours(38.0),
            Duration::from_mins(5.0),
            uses_failover,
        )
    }

    #[test]
    fn key_ignores_rates_but_sees_structure() {
        let a = TierModel::new(2, 2, 1).with_class(class("x", true));
        let b = TierModel::new(2, 2, 1).with_class(FailureClass::new(
            "y",
            Duration::from_days(10.0).rate(),
            Duration::from_hours(1.0),
            Duration::from_mins(1.0),
            true,
        ));
        // Same shape, different rates and labels: same key.
        assert_eq!(
            ChainKey::for_model(&a, 3),
            ChainKey::for_model(&b, 3),
            "rates and labels must not enter the key"
        );
        // Structural changes produce different keys.
        let variants = [
            TierModel::new(3, 2, 1).with_class(class("x", true)),
            TierModel::new(2, 1, 1).with_class(class("x", true)),
            TierModel::new(2, 2, 2).with_class(class("x", true)),
            TierModel::new(2, 2, 1)
                .with_class(class("x", true))
                .with_exposed_spares(true),
            TierModel::new(2, 2, 1)
                .with_class(class("x", true))
                .with_class(class("z", false)),
        ];
        for v in &variants {
            assert_ne!(
                ChainKey::for_model(&a, 3),
                ChainKey::for_model(v, 3),
                "{v:?}"
            );
        }
        // The failover flag and the cap are structural too.
        let c = TierModel::new(2, 2, 1).with_class(class("x", false));
        assert_ne!(ChainKey::for_model(&a, 3), ChainKey::for_model(&c, 3));
        assert_ne!(ChainKey::for_model(&a, 3), ChainKey::for_model(&a, 2));
    }

    #[test]
    fn stats_absorb_sums_all_counters() {
        let mut a = SessionStats {
            solves: 1,
            warm_hits: 2,
            iterations: 4,
            rebuilds_avoided: 6,
        };
        let b = SessionStats {
            solves: 10,
            warm_hits: 20,
            iterations: 40,
            rebuilds_avoided: 60,
        };
        a.absorb(&b);
        assert_eq!(
            a,
            SessionStats {
                solves: 11,
                warm_hits: 22,
                iterations: 44,
                rebuilds_avoided: 66,
            }
        );
    }
}
