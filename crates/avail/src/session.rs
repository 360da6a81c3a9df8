//! Per-search evaluation context that makes repeated solves cheap.
//!
//! The search layer evaluates thousands of neighboring candidate designs.
//! Neighbors differ in a handful of rates (a maintenance contract swap, a
//! restart-mechanism toggle) far more often than in chain topology.
//! [`EvalSession`] exploits that: it owns a reusable [`SolveScratch`]
//! arena, caches explored chains by structural shape for rate-only
//! in-place rebuilds ([`Explored::repatch`]), and remembers which shapes
//! already passed a solve so their irreducibility check is skipped. It
//! also owns the explore scratch (the successor buffer explorations and
//! repatches fill, and the repatch rate accumulator) and the single-class
//! model the decomposition engine rewrites for each class, so once its
//! buffers have grown a repatched evaluation allocates only its solve's
//! attempt trail. It carries no solution from one solve
//! to the next, so every result is bit-identical to a one-shot
//! evaluation.
//!
//! The session also keeps a small memo of recent results, a
//! [`SlotMemo`]: the decomposition engine's per-class results (a §4.1
//! level swap changes only the hard-failure class, so the other classes
//! of the next candidate replay the result of an identical class solved
//! just before). A solve is a pure function of its model, so a replayed
//! result is the result the solve would have produced.
//!
//! Engines stay `Send + Sync` because all mutable state lives here: each
//! search sweep owns its own session and passes it down by `&mut`
//! through [`AvailabilityEngine::evaluate_with_session`].
//!
//! [`Explored::repatch`]: aved_markov::Explored::repatch
//! [`AvailabilityEngine::evaluate_with_session`]: crate::AvailabilityEngine::evaluate_with_session

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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

/// The hasher of the chain cache: a word-at-a-time multiply–rotate mix
/// (the `FxHash` scheme). Keys are a handful of integers derived from the
/// caller's own models, so `std`'s flood-resistant `SipHash` buys nothing
/// here and costs more than the lookup it serves, which runs once per
/// engine call.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0_u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
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

/// One memo slot: a result filed under its key, stamped with the last
/// time it was stored or replayed.
#[derive(Debug)]
struct Slot<K> {
    entry: Option<(K, (TierAvailability, EvalHealth))>,
    used: u64,
}

/// A memo of the `N` most recently used results: a fixed array searched
/// by exact `==` on the key, refilled least recently used first. A refill
/// overwrites the slot's key through `clone_from`, so once every slot
/// holds a key as large as the ones it is refilled with, the memo neither
/// hashes nor allocates. Only accepted results are stored, never errors.
#[derive(Debug)]
pub(crate) struct SlotMemo<K, const N: usize> {
    slots: [Slot<K>; N],
    clock: u64,
}

impl<K, const N: usize> Default for SlotMemo<K, N> {
    fn default() -> SlotMemo<K, N> {
        SlotMemo {
            slots: std::array::from_fn(|_| Slot {
                entry: None,
                used: 0,
            }),
            clock: 0,
        }
    }
}

impl<K: Clone + PartialEq, const N: usize> SlotMemo<K, N> {
    /// The result stored under `key`, if any, marked as just used.
    pub(crate) fn get(&mut self, key: &K) -> Option<(TierAvailability, EvalHealth)> {
        self.clock += 1;
        let slot = self
            .slots
            .iter_mut()
            .find(|slot| matches!(&slot.entry, Some((k, _)) if k == key))?;
        slot.used = self.clock;
        slot.entry.as_ref().map(|(_, result)| *result)
    }

    /// Stores `result` under `key` in place of the least recently used
    /// entry.
    pub(crate) fn insert(&mut self, key: &K, result: (TierAvailability, EvalHealth)) {
        self.clock += 1;
        let oldest = self
            .slots
            .iter_mut()
            .min_by_key(|slot| slot.used)
            .expect("the memo has slots");
        oldest.used = self.clock;
        match &mut oldest.entry {
            Some((k, r)) => {
                k.clone_from(key);
                *r = result;
            }
            None => oldest.entry = Some((key.clone(), result)),
        }
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
    pub(crate) chains: HashMap<ChainKey, CachedChain, BuildHasherDefault<KeyHasher>>,
    /// The successor buffer and rate accumulator every exploration and
    /// repatch uses, shared by all cached chains.
    pub(crate) chain_scratch: ExploreScratch<St>,
    /// The single-class model the decomposition engine rewrites in place
    /// for each class it evaluates; `None` until the first one.
    pub(crate) single_class: Option<TierModel>,
    /// Recent per-class results of the decomposition engine: the key
    /// holds every input of the class's solve.
    pub(crate) class_memo: SlotMemo<ClassKey, CLASS_SLOTS>,
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
