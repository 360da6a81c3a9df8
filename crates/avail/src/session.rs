//! Per-search evaluation context that makes repeated solves cheap.
//!
//! The search layer evaluates thousands of neighboring candidate designs.
//! Neighbors differ in a handful of rates (a maintenance contract swap, a
//! restart-mechanism toggle) far more often than in chain topology.
//! [`EvalSession`] exploits that: it owns a reusable [`SolveScratch`]
//! arena, keeps the explored chains of recent structural shapes for
//! rate-only in-place rebuilds ([`Explored::repatch`]), and remembers
//! which of them already passed a solve so their irreducibility check is
//! skipped. It also owns the explore scratch (the successor buffer
//! explorations and repatches fill, and the repatch rate accumulator) and
//! the single-class model the decomposition engine rewrites for each
//! class, so once its buffers have grown a repatched evaluation allocates
//! only its solve's attempt trail. It carries no solution from one solve
//! to the next, so every result is bit-identical to a one-shot
//! evaluation.
//!
//! The session keeps two memos of one design, a [`SlotMemo`]: a fixed
//! array of slots searched by exact key equality and refilled least
//! recently used first, so a session holds bounded state however many
//! shapes a sweep visits.
//!
//! - The chain cache holds [`CHAIN_SLOTS`] explored chains, keyed by
//!   [`ChainKey`]. A shape that fell out of it is explored afresh, which
//!   costs time, never bits.
//! - The class memo holds the decomposition engine's recent per-class
//!   results (a §4.1 level swap changes only the hard-failure class, so
//!   the other classes of the next candidate replay the result of an
//!   identical class solved just before). A solve is a pure function of
//!   its model, so a replayed result is the result the solve would have
//!   produced.
//!
//! Engines stay `Send + Sync` because all mutable state lives here: each
//! search sweep owns its own session and passes it down by `&mut`
//! through [`AvailabilityEngine::evaluate_with_session`].
//!
//! [`Explored::repatch`]: aved_markov::Explored::repatch
//! [`AvailabilityEngine::evaluate_with_session`]: crate::AvailabilityEngine::evaluate_with_session

use aved_markov::{ExploreScratch, Explored, SolveBudget, SolveScratch};

use crate::engine_ctmc::{St, MAX_CLASSES};
use crate::{EvalHealth, FailureClass, TierAvailability, TierModel};

/// Structural shape of a tier chain: every model attribute that determines
/// the explored state space and transition topology, but none of the rates.
///
/// Two models with equal keys explore bit-identical state orderings and
/// sparsity structures (rates are always positive, so no transition is ever
/// pruned by a rate value), which makes a cached chain safe to rebuild
/// in place via [`Explored::repatch`] — and `repatch` re-verifies the
/// structure exactly, so a chain it cannot patch is re-explored, never
/// answered wrong.
///
/// [`Explored::repatch`]: aved_markov::Explored::repatch
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ChainKey {
    n: u32,
    m: u32,
    s: u32,
    spares_exposed: bool,
    /// Effective truncation cap (`max_concurrent.min(n_total)`).
    cap: u32,
    n_classes: usize,
    /// Bit `i` set iff class `i` uses failover (the only per-class attribute
    /// that shapes the state space); wide enough for every class index
    /// [`TierModel::check`] allows.
    failover_mask: [u64; MAX_CLASSES / 64],
}

impl ChainKey {
    /// The key for `model` under truncation `cap`. `model` must have passed
    /// [`TierModel::check`], which bounds its class count.
    pub(crate) fn for_model(model: &TierModel, cap: u32) -> ChainKey {
        let classes = model.classes();
        let mut failover_mask = [0_u64; MAX_CLASSES / 64];
        for (i, class) in classes.iter().enumerate() {
            if class.uses_failover() {
                failover_mask[i / 64] |= 1 << (i % 64);
            }
        }
        ChainKey {
            n: model.n(),
            m: model.m(),
            s: model.s(),
            spares_exposed: model.spares_exposed(),
            cap,
            n_classes: classes.len(),
            failover_mask,
        }
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

/// Every input of one per-class chain solve, compared bit for bit: the
/// tier's shape, the effective truncation cap and the class's rates and
/// failover flag. The label is not an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ClassKey {
    n: u32,
    m: u32,
    s: u32,
    spares_exposed: bool,
    /// Effective truncation cap (`max_concurrent.min(n_total)`).
    cap: u32,
    rate_bits: u64,
    mttr_bits: u64,
    failover_time_bits: u64,
    uses_failover: bool,
}

impl ClassKey {
    /// The key of `class` evaluated alone in `model`'s tier under
    /// truncation `cap`.
    pub(crate) fn new(model: &TierModel, class: &FailureClass, cap: u32) -> ClassKey {
        ClassKey {
            n: model.n(),
            m: model.m(),
            s: model.s(),
            spares_exposed: model.spares_exposed(),
            cap,
            rate_bits: class.rate().per_hour_value().to_bits(),
            mttr_bits: class.mttr().seconds().to_bits(),
            failover_time_bits: class.failover_time().seconds().to_bits(),
            uses_failover: class.uses_failover(),
        }
    }
}

/// Per-class results the decomposition engine keeps: enough to keep the
/// previous evaluation of any tier of up to 8 classes (see `DESIGN.md`,
/// "Evaluation sessions").
const CLASS_SLOTS: usize = 16;

/// Chain shapes a session keeps: the fewest that keep as many rebuilds
/// avoided as an unbounded cache, within 3% on every perfbench workload
/// (see `DESIGN.md`, "Evaluation sessions").
pub(crate) const CHAIN_SLOTS: usize = 16;

/// One memo slot: a value filed under its key, stamped with the last time
/// it was stored or found.
#[derive(Debug)]
struct Slot<K, V> {
    entry: Option<(K, V)>,
    used: u64,
}

/// A memo of the `N` most recently used values: a fixed array searched by
/// exact `==` on the key, refilled least recently used first. It never
/// hashes, and it holds at most `N` values whatever it is asked for.
#[derive(Debug)]
pub(crate) struct SlotMemo<K, V, const N: usize> {
    slots: [Slot<K, V>; N],
    clock: u64,
}

impl<K, V, const N: usize> Default for SlotMemo<K, V, N> {
    fn default() -> SlotMemo<K, V, N> {
        SlotMemo {
            slots: std::array::from_fn(|_| Slot {
                entry: None,
                used: 0,
            }),
            clock: 0,
        }
    }
}

impl<K: Clone + PartialEq, V, const N: usize> SlotMemo<K, V, N> {
    /// The value stored under `key`, if any, marked as just used.
    pub(crate) fn get(&mut self, key: &K) -> Option<&mut V> {
        self.clock += 1;
        let slot = self
            .slots
            .iter_mut()
            .find(|slot| matches!(&slot.entry, Some((k, _)) if k == key))?;
        slot.used = self.clock;
        slot.entry.as_mut().map(|(_, value)| value)
    }

    /// Stores `value` under `key` in place of the least recently used
    /// entry and returns it there.
    pub(crate) fn insert(&mut self, key: &K, value: V) -> &mut V {
        self.clock += 1;
        let oldest = self
            .slots
            .iter_mut()
            .min_by_key(|slot| slot.used)
            .expect("the memo has slots");
        oldest.used = self.clock;
        &mut oldest.entry.insert((key.clone(), value)).1
    }

    /// The number of slots holding a value.
    pub(crate) fn len(&self) -> usize {
        self.slots
            .iter()
            .filter(|slot| slot.entry.is_some())
            .count()
    }
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
    /// Per-class results the decomposition engine replayed from the
    /// session's class memo instead of solving; each one is a class
    /// evaluation that ran no solve.
    pub class_hits: u64,
}

impl SessionStats {
    /// Folds another session's counters into this one.
    pub fn absorb(&mut self, other: &SessionStats) {
        self.solves += other.solves;
        self.warm_hits += other.warm_hits;
        self.iterations += other.iterations;
        self.rebuilds_avoided += other.rebuilds_avoided;
        self.class_hits += other.class_hits;
    }
}

/// Reusable evaluation state threaded through
/// [`AvailabilityEngine::evaluate_with_session`] calls.
///
/// A session is cheap to create and grows to the working-set size of the
/// chains it has seen; each search sweep keeps one for all of its
/// batches. Dropping the session drops all cached state. Results never
/// depend on it: on every solver path they are bit-identical with or
/// without a session (see `DESIGN.md`, "Evaluation sessions").
///
/// [`AvailabilityEngine::evaluate_with_session`]: crate::AvailabilityEngine::evaluate_with_session
#[derive(Debug, Default)]
pub struct EvalSession {
    pub(crate) scratch: SolveScratch,
    /// Recently explored chains, by structural shape.
    pub(crate) chains: SlotMemo<ChainKey, CachedChain, CHAIN_SLOTS>,
    /// The successor buffer and rate accumulator every exploration and
    /// repatch uses, shared by all cached chains.
    pub(crate) chain_scratch: ExploreScratch<St>,
    /// The single-class model the decomposition engine rewrites in place
    /// for each class it evaluates; `None` until the first one.
    pub(crate) single_class: Option<TierModel>,
    /// Recent per-class results of the decomposition engine: the key
    /// holds every input of the class's solve. Only accepted results are
    /// stored, never errors.
    pub(crate) class_memo: SlotMemo<ClassKey, (TierAvailability, EvalHealth), CLASS_SLOTS>,
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

    /// The work-avoidance counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Number of chain shapes currently cached: at most a fixed number of
    /// slots, refilled least recently used first, however many shapes the
    /// session has seen.
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
    fn key_sees_failover_flags_past_the_first_word() {
        let wide = |last_fails_over: bool| {
            (0..64)
                .fold(TierModel::new(2, 2, 1), |t, i| {
                    t.with_class(class(&format!("c{i}"), false))
                })
                .with_class(class("c64", last_fails_over))
        };
        assert_ne!(
            ChainKey::for_model(&wide(false), 3),
            ChainKey::for_model(&wide(true), 3)
        );
    }

    #[test]
    fn stats_absorb_sums_all_counters() {
        let mut a = SessionStats {
            solves: 1,
            warm_hits: 2,
            iterations: 4,
            rebuilds_avoided: 6,
            class_hits: 8,
        };
        let b = SessionStats {
            solves: 10,
            warm_hits: 20,
            iterations: 40,
            rebuilds_avoided: 60,
            class_hits: 80,
        };
        a.absorb(&b);
        assert_eq!(
            a,
            SessionStats {
                solves: 11,
                warm_hits: 22,
                iterations: 44,
                rebuilds_avoided: 66,
                class_hits: 88,
            }
        );
    }
}
