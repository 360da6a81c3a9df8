//! Memoizing decorator around an availability engine.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{AvailError, AvailabilityEngine, EvalHealth, EvalSession, TierAvailability, TierModel};

/// The next [`CachingEngine`] id. Every cache draws its own, so caches over
/// different engines that evaluate through one session never serve each
/// other's results. `Relaxed` suffices: the id publishes no other data,
/// and `fetch_add` hands each value out once at any ordering.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// An [`AvailabilityEngine`] decorator that memoizes results by model in
/// the caller's [`EvalSession`].
///
/// Large parts of the design space share an availability model: checkpoint
/// parameters change the loss window and the performance overhead but not
/// the failure/repair dynamics, so the thousands of checkpoint-interval
/// candidates the Fig.-7 search enumerates map to a handful of distinct
/// tier models. The search sweeps group those candidates themselves and
/// evaluate each distinct model once, so inside a search this cache only
/// counts the evaluations and never hits; it serves callers that evaluate
/// one model repeatedly through one session, remembering the last few
/// models it evaluated.
///
/// The results live in the session, filed under this cache's id and the
/// model and compared by exact `==` (so `-0.0` and `0.0` are one model,
/// and two models one ULP apart are two). The session passed to
/// [`evaluate_with_session`](AvailabilityEngine::evaluate_with_session)
/// carries the memo, so [`evaluate`](AvailabilityEngine::evaluate) and
/// [`evaluate_with_health`](AvailabilityEngine::evaluate_with_health),
/// which run on a fresh session, never hit. The cache itself holds only
/// its atomic hit/miss counters, so one instance can be shared across
/// threads, each with its own session.
///
/// # Examples
///
/// ```
/// use aved_avail::{
///     AvailabilityEngine, CachingEngine, CtmcEngine, EvalSession, FailureClass, TierModel,
/// };
/// use aved_units::Duration;
///
/// let inner = CtmcEngine::default();
/// let engine = CachingEngine::new(&inner);
/// let model = TierModel::new(1, 1, 0).with_class(FailureClass::new(
///     "hw",
///     Duration::from_hours(1000.0).rate(),
///     Duration::from_hours(10.0),
///     Duration::ZERO,
///     false,
/// ));
/// let mut session = EvalSession::new();
/// let first = engine.evaluate_with_session(&model, &mut session)?;
/// let second = engine.evaluate_with_session(&model, &mut session)?; // from the memo
/// assert_eq!(first, second);
/// assert_eq!((engine.hits(), engine.misses()), (1, 1));
/// # Ok::<(), aved_avail::AvailError>(())
/// ```
pub struct CachingEngine<'a> {
    inner: &'a dyn AvailabilityEngine,
    id: u64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<'a> CachingEngine<'a> {
    /// Wraps an engine.
    #[must_use]
    pub fn new(inner: &'a dyn AvailabilityEngine) -> CachingEngine<'a> {
        CachingEngine {
            inner,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Number of cache hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cache misses (inner evaluations) so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl AvailabilityEngine for CachingEngine<'_> {
    fn evaluate_with_session(
        &self,
        model: &TierModel,
        session: &mut EvalSession,
    ) -> Result<(TierAvailability, EvalHealth), AvailError> {
        // Health is stored alongside the result so fallback accounting
        // reflects what the solve would have cost, hit or miss. A hit runs
        // no solve; a miss hands the session down so the solve reuses its
        // cached chains.
        if let Some(stored) = session.tier_memo.get(self.id, model) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(stored);
        }
        let result = self.inner.evaluate_with_session(model, session)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        session.tier_memo.insert(self.id, model, result);
        Ok(result)
    }
}

impl std::fmt::Debug for CachingEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachingEngine")
            .field("id", &self.id)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CtmcEngine, DecompositionEngine, FailureClass};
    use aved_units::Duration;

    fn model(n: u32) -> TierModel {
        TierModel::new(n, 1, 0).with_class(FailureClass::new(
            "hw",
            Duration::from_hours(100.0).rate(),
            Duration::from_hours(1.0),
            Duration::ZERO,
            false,
        ))
    }

    fn bits((r, health): (TierAvailability, EvalHealth)) -> (u64, u64, u32, Option<u64>) {
        (
            r.unavailability().to_bits(),
            r.down_event_rate().per_hour_value().to_bits(),
            health.fallbacks,
            health.worst_residual.map(f64::to_bits),
        )
    }

    #[test]
    fn caches_by_model_identity() {
        let inner = CtmcEngine::default();
        let engine = CachingEngine::new(&inner);
        let mut session = EvalSession::new();
        let mut eval = |m: &TierModel| engine.evaluate_with_session(m, &mut session).unwrap();
        let a = eval(&model(2));
        let b = eval(&model(2));
        let c = eval(&model(3));
        assert_eq!(a, b);
        assert_ne!(a.0.unavailability(), c.0.unavailability());
        assert_eq!((engine.hits(), engine.misses()), (1, 2));
    }

    #[test]
    fn float_keys_use_bit_patterns_not_formatting() {
        // Two MTTRs one ULP apart may render alike, yet they are different
        // models and must both miss.
        let inner = CtmcEngine::default();
        let engine = CachingEngine::new(&inner);
        let with_mttr = |hours: f64| {
            TierModel::new(1, 1, 0).with_class(FailureClass::new(
                "hw",
                Duration::from_hours(100.0).rate(),
                Duration::from_hours(hours),
                Duration::ZERO,
                false,
            ))
        };
        let a = with_mttr(1.0);
        let b = with_mttr(f64::from_bits(1.0_f64.to_bits() + 1));
        assert_ne!(a, b, "one ULP apart is a different model");
        let mut session = EvalSession::new();
        for m in [&a, &b, &a, &b] {
            engine.evaluate_with_session(m, &mut session).unwrap();
        }
        assert_eq!((engine.hits(), engine.misses()), (2, 2));
    }

    #[test]
    fn negative_zero_hits_the_positive_zero_entry() {
        let inner = CtmcEngine::default();
        let engine = CachingEngine::new(&inner);
        let with_failover = |secs: f64| {
            TierModel::new(2, 2, 1).with_class(FailureClass::new(
                "hw",
                Duration::from_hours(100.0).rate(),
                Duration::from_hours(1.0),
                Duration::from_secs(secs),
                false,
            ))
        };
        let pos = with_failover(0.0);
        let neg = with_failover(-0.0);
        assert_eq!(pos, neg, "numerically the same model");
        let mut session = EvalSession::new();
        let a = engine.evaluate_with_session(&pos, &mut session).unwrap();
        let b = engine.evaluate_with_session(&neg, &mut session).unwrap();
        assert_eq!(bits(a), bits(b));
        assert_eq!(
            (engine.hits(), engine.misses()),
            (1, 1),
            "-0.0 must reuse the 0.0 entry"
        );
    }

    #[test]
    fn errors_are_not_cached() {
        let inner = CtmcEngine::default();
        let engine = CachingEngine::new(&inner);
        let bad = TierModel::new(1, 1, 0); // no classes
        let mut session = EvalSession::new();
        for _ in 0..2 {
            assert!(engine.evaluate_with_session(&bad, &mut session).is_err());
        }
        assert_eq!((engine.hits(), engine.misses()), (0, 0));
    }

    #[test]
    fn a_hit_runs_no_solve() {
        let inner = CtmcEngine::default();
        let engine = CachingEngine::new(&inner);
        let mut session = EvalSession::new();
        let a = engine
            .evaluate_with_session(&model(2), &mut session)
            .unwrap();
        assert_eq!(session.stats().solves, 1, "a miss solves via the session");
        let b = engine
            .evaluate_with_session(&model(2), &mut session)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(session.stats().solves, 1, "a hit does not solve at all");
        assert_eq!((engine.hits(), engine.misses()), (1, 1));
    }

    #[test]
    fn the_three_entry_points_agree_bit_for_bit_on_misses_and_hits() {
        let inner = DecompositionEngine::default();
        let m = model(3);
        let reference = bits(inner.evaluate_with_health(&m).unwrap());
        // One cache per entry point. Only the session path keeps a memo
        // between calls: the other two run on a fresh session every time.
        let caches = [(); 3].map(|()| CachingEngine::new(&inner));
        let mut session = EvalSession::new();
        for _ in 0..2 {
            let with_session = caches[0].evaluate_with_session(&m, &mut session).unwrap();
            let with_health = caches[1].evaluate_with_health(&m).unwrap();
            let plain = caches[2].evaluate(&m).unwrap();
            assert_eq!(bits(with_session), reference);
            assert_eq!(bits(with_health), reference);
            assert_eq!(bits((plain, with_session.1)), reference);
        }
        let counters = caches.each_ref().map(|c| (c.hits(), c.misses()));
        assert_eq!(counters, [(1, 1), (0, 2), (0, 2)]);
    }

    #[test]
    fn caches_over_different_engines_sharing_a_session_keep_their_own_results() {
        // A redundant tier, where the decomposition underestimates the
        // exact chain: the two engines disagree on the same model.
        let m = TierModel::new(4, 2, 0)
            .with_class(FailureClass::new(
                "a",
                Duration::from_days(30.0).rate(),
                Duration::from_hours(10.0),
                Duration::ZERO,
                false,
            ))
            .with_class(FailureClass::new(
                "b",
                Duration::from_days(30.0).rate(),
                Duration::from_hours(10.0),
                Duration::ZERO,
                false,
            ));
        let (exact, decomp) = (CtmcEngine::default(), DecompositionEngine::default());
        let expected = [
            bits(exact.evaluate_with_health(&m).unwrap()),
            bits(decomp.evaluate_with_health(&m).unwrap()),
        ];
        assert_ne!(expected[0], expected[1]);
        let caches = [CachingEngine::new(&exact), CachingEngine::new(&decomp)];
        let mut session = EvalSession::new();
        for _ in 0..2 {
            for (cache, expected) in caches.iter().zip(expected) {
                let got = cache.evaluate_with_session(&m, &mut session).unwrap();
                assert_eq!(bits(got), expected, "{cache:?}");
            }
        }
        for cache in &caches {
            assert_eq!((cache.hits(), cache.misses()), (1, 1), "{cache:?}");
        }
    }

    #[test]
    fn concurrent_lookups_share_one_cache() {
        let inner = CtmcEngine::default();
        let engine = CachingEngine::new(&inner);
        let models: Vec<TierModel> = (1..=4).map(model).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut session = EvalSession::new();
                    for m in models.iter().chain(&models) {
                        engine.evaluate_with_session(m, &mut session).unwrap();
                    }
                });
            }
        });
        // Each thread misses every model once and hits it once: its
        // session remembers only its own evaluations.
        assert_eq!(engine.hits() + engine.misses(), 32);
        assert_eq!((engine.hits(), engine.misses()), (16, 16));
    }
}
