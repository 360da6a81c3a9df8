//! Memoizing wrapper around an availability engine.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use aved_avail::{
    AvailError, AvailabilityEngine, EvalHealth, EvalSession, TierAvailability, TierModel,
};

/// Number of independently-locked shards. Power of two so the shard index
/// is a mask of the key hash; 16 is plenty for the worker counts a search
/// realistically runs (contention is per-shard, and distinct models spread
/// uniformly under FNV).
const SHARDS: usize = 16;

/// An [`AvailabilityEngine`] decorator that memoizes results by model.
///
/// Large parts of the design space share an availability model: checkpoint
/// parameters change the loss window and the performance overhead but not
/// the failure/repair dynamics, so the thousands of checkpoint-interval
/// candidates the Fig.-7 search enumerates map to a handful of distinct
/// tier models. Wrapping the engine in a cache turns those re-evaluations
/// into hash lookups.
///
/// The cache is sharded and lock-based, so one instance can be shared by
/// every worker of a parallel search: keys are the structural
/// [`TierModel::structural_hash`] (canonical `f64` bit patterns — no
/// float-to-string formatting on the hot path, no collisions between
/// distinct values that render alike), each shard is an independent
/// `RwLock`, and the hit/miss counters are atomics. Two workers racing on
/// the same cold model may both evaluate it (the result is identical and
/// the insert idempotent); a miss is counted per inner evaluation so the
/// counters stay truthful about work done.
///
/// # Examples
///
/// ```
/// use aved_avail::{AvailabilityEngine, CtmcEngine, FailureClass, TierModel};
/// use aved_search::CachingEngine;
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
/// let first = engine.evaluate(&model)?;
/// let second = engine.evaluate(&model)?; // served from cache
/// assert_eq!(first, second);
/// assert_eq!(engine.hits(), 1);
/// # Ok::<(), aved_avail::AvailError>(())
/// ```
pub struct CachingEngine<'a> {
    inner: &'a dyn AvailabilityEngine,
    // Buckets hold (model, result) pairs: the structural hash picks the
    // bucket, full model equality guards against the (astronomically
    // unlikely, but silently-wrong-results-bad) 64-bit collision.
    #[allow(clippy::type_complexity)]
    shards: [RwLock<HashMap<u64, Vec<(TierModel, (TierAvailability, EvalHealth))>>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<'a> CachingEngine<'a> {
    /// Wraps an engine.
    #[must_use]
    pub fn new(inner: &'a dyn AvailabilityEngine) -> CachingEngine<'a> {
        CachingEngine {
            inner,
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
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
        // Health is cached alongside the result so fallback accounting
        // reflects what the solve would have cost, hit or miss. A miss
        // hands the caller's session down so the solve reuses its cached
        // chains; a hit bypasses the session entirely (no solve happens).
        let key = model.structural_hash();
        let shard = &self.shards[(key as usize) & (SHARDS - 1)];
        if let Some(bucket) = shard.read().expect("cache shard poisoned").get(&key) {
            if let Some((_, cached)) = bucket.iter().find(|(m, _)| m == model) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(*cached);
            }
        }
        let result = self.inner.evaluate_with_session(model, session)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut shard = shard.write().expect("cache shard poisoned");
        let bucket = shard.entry(key).or_default();
        if !bucket.iter().any(|(m, _)| m == model) {
            bucket.push((model.clone(), result));
        }
        Ok(result)
    }
}

impl std::fmt::Debug for CachingEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachingEngine")
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aved_avail::{CtmcEngine, DecompositionEngine, FailureClass};
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

    #[test]
    fn caches_by_model_identity() {
        let inner = CtmcEngine::default();
        let engine = CachingEngine::new(&inner);
        let a = engine.evaluate(&model(2)).unwrap();
        let b = engine.evaluate(&model(2)).unwrap();
        let c = engine.evaluate(&model(3)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a.unavailability(), c.unavailability());
        assert_eq!(engine.hits(), 1);
        assert_eq!(engine.misses(), 2);
    }

    #[test]
    fn errors_are_not_cached() {
        let inner = CtmcEngine::default();
        let engine = CachingEngine::new(&inner);
        let bad = TierModel::new(1, 1, 0); // no classes
        assert!(engine.evaluate(&bad).is_err());
        assert_eq!(engine.misses(), 0);
    }

    #[test]
    fn float_keys_use_bit_patterns_not_formatting() {
        // Regression for the formatted-string key: two MTTRs one ULP apart
        // can render identically ("trailing zeros" truncated) yet are
        // different models; conversely -0.0 and 0.0 render differently yet
        // are the same model. Structural keys get both right.
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
        let _ = engine.evaluate(&a).unwrap();
        let _ = engine.evaluate(&b).unwrap();
        assert_eq!(engine.misses(), 2, "distinct models must not collide");
        assert_eq!(engine.hits(), 0);
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
        let a = engine.evaluate(&pos).unwrap();
        let b = engine.evaluate(&neg).unwrap();
        assert_eq!(a, b);
        assert_eq!(engine.misses(), 1);
        assert_eq!(engine.hits(), 1, "-0.0 must reuse the 0.0 entry");
    }

    #[test]
    fn session_path_caches_and_bypasses_the_session_on_hits() {
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
        assert_eq!(engine.hits(), 1);
        assert_eq!(engine.misses(), 1);
    }

    #[test]
    fn the_three_entry_points_agree_bit_for_bit_on_misses_and_hits() {
        let inner = DecompositionEngine::default();
        let m = model(3);
        let bits = |r: TierAvailability| {
            (
                r.unavailability().to_bits(),
                r.down_event_rate().per_hour_value().to_bits(),
            )
        };
        let (reference, health) = inner.evaluate_with_health(&m).unwrap();
        // One cache per entry point: each first call misses, the second hits.
        let caches = [(); 3].map(|()| CachingEngine::new(&inner));
        let mut session = EvalSession::new();
        for _ in 0..2 {
            let with_session = caches[0].evaluate_with_session(&m, &mut session).unwrap();
            let with_health = caches[1].evaluate_with_health(&m).unwrap();
            let plain = caches[2].evaluate(&m).unwrap();
            for r in [with_session.0, with_health.0, plain] {
                assert_eq!(bits(r), bits(reference));
            }
            assert_eq!(with_session.1, health);
            assert_eq!(with_health.1, health);
        }
        for cache in &caches {
            assert_eq!((cache.hits(), cache.misses()), (1, 1));
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
                    for m in &models {
                        let _ = engine.evaluate(m).unwrap();
                    }
                });
            }
        });
        // 16 evaluations of 4 distinct models: at least one evaluation per
        // model is a miss; racing threads may double-compute a cold model,
        // but hits + misses always equals total calls.
        assert_eq!(engine.hits() + engine.misses(), 16);
        assert!(engine.misses() >= 4);
        assert!(engine.hits() >= 16 - 2 * 4, "most lookups should hit");
    }
}
