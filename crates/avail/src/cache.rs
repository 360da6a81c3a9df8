//! A call-counting pass-through around an availability engine.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{AvailError, AvailabilityEngine, EvalHealth, EvalSession, TierAvailability, TierModel};

/// An [`AvailabilityEngine`] decorator that forwards every call to the
/// engine it wraps and counts them.
///
/// Inert as a cache: it keeps no results, so [`hits`](Self::hits) always
/// reads 0 and [`misses`](Self::misses) counts the calls. A search sweep
/// evaluates each distinct tier model once, so no search ever replayed a
/// remembered tier result; the type, `new`, `hits` and `misses` stay
/// because the design-query benchmark's traced path wraps and reads them
/// by name. Evaluate through the engine itself instead.
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
/// let second = engine.evaluate_with_session(&model, &mut session)?; // solved again
/// assert_eq!(first, second);
/// assert_eq!((engine.hits(), engine.misses()), (0, 2));
/// # Ok::<(), aved_avail::AvailError>(())
/// ```
pub struct CachingEngine<'a> {
    inner: &'a dyn AvailabilityEngine,
    calls: AtomicU64,
}

impl<'a> CachingEngine<'a> {
    /// Wraps an engine.
    #[must_use]
    pub fn new(inner: &'a dyn AvailabilityEngine) -> CachingEngine<'a> {
        CachingEngine {
            inner,
            calls: AtomicU64::new(0),
        }
    }

    /// Always 0: nothing is remembered, so nothing is replayed.
    #[must_use]
    pub fn hits(&self) -> u64 {
        0
    }

    /// Calls forwarded to the wrapped engine so far, failed ones included.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl AvailabilityEngine for CachingEngine<'_> {
    fn evaluate_with_session(
        &self,
        model: &TierModel,
        session: &mut EvalSession,
    ) -> Result<(TierAvailability, EvalHealth), AvailError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.evaluate_with_session(model, session)
    }
}

impl std::fmt::Debug for CachingEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachingEngine")
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
    fn errors_are_not_cached() {
        let inner = CtmcEngine::default();
        let engine = CachingEngine::new(&inner);
        let bad = TierModel::new(1, 1, 0); // no classes
        let mut session = EvalSession::new();
        for _ in 0..2 {
            assert!(engine.evaluate_with_session(&bad, &mut session).is_err());
        }
        assert_eq!(
            (engine.hits(), engine.misses()),
            (0, 2),
            "each failed call reaches the engine and counts"
        );
    }

    #[test]
    fn the_three_entry_points_agree_bit_for_bit_on_misses_and_hits() {
        let inner = DecompositionEngine::default();
        let m = model(3);
        let reference = bits(inner.evaluate_with_health(&m).unwrap());
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
        assert_eq!(counters, [(0, 2); 3]);
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
            assert_eq!((cache.hits(), cache.misses()), (0, 2), "{cache:?}");
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
        // Every call of every thread reaches the engine and counts once.
        assert_eq!((engine.hits(), engine.misses()), (0, 32));
    }
}
