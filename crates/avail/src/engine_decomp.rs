//! The "simplified Markov model": per-failure-class decomposition.

use aved_units::Rate;

use crate::{
    AvailError, AvailabilityEngine, CtmcEngine, EvalHealth, EvalSession, TierAvailability,
    TierModel,
};

/// Fast approximate engine: evaluates each failure class in isolation
/// (the other classes assumed failure-free) and sums the per-class
/// downtimes.
///
/// This is the classic rare-event decomposition: when MTBF ≫ MTTR for all
/// classes, the probability of cross-class failure overlap is second-order
/// and the sum of single-class unavailabilities is accurate to within that
/// overlap term. It reproduces the behaviour of the paper's "own simplified
/// Markov Model" and is an order of magnitude faster than the joint chain
/// for models with many classes, at a small accuracy cost quantified by the
/// `ablation_engines` bench.
///
/// # Examples
///
/// ```
/// use aved_avail::{AvailabilityEngine, DecompositionEngine, CtmcEngine, FailureClass, TierModel};
/// use aved_units::Duration;
///
/// let model = TierModel::new(2, 2, 0)
///     .with_class(FailureClass::new(
///         "hw/hard",
///         Duration::from_days(650.0).rate(),
///         Duration::from_hours(38.0),
///         Duration::ZERO,
///         false,
///     ))
///     .with_class(FailureClass::new(
///         "os/soft",
///         Duration::from_days(60.0).rate(),
///         Duration::from_mins(4.0),
///         Duration::ZERO,
///         false,
///     ));
/// let fast = DecompositionEngine::default().evaluate(&model)?;
/// let exact = CtmcEngine::default().evaluate(&model)?;
/// let rel = (fast.unavailability() - exact.unavailability()).abs()
///     / exact.unavailability();
/// assert!(rel < 0.01);
/// # Ok::<(), aved_avail::AvailError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecompositionEngine {
    inner: CtmcEngine,
}

impl DecompositionEngine {
    /// Creates the engine with the default truncation depth.
    #[must_use]
    pub fn new() -> DecompositionEngine {
        DecompositionEngine {
            inner: CtmcEngine::new(),
        }
    }

    /// Sets the truncation depth of the per-class chains.
    ///
    /// # Panics
    ///
    /// Panics if `max_concurrent` is zero or above 255 (see
    /// [`CtmcEngine::with_max_concurrent`]).
    #[must_use]
    pub fn with_max_concurrent(mut self, max_concurrent: u32) -> DecompositionEngine {
        self.inner = self.inner.with_max_concurrent(max_concurrent);
        self
    }

    /// The per-failure-class downtime breakdown: each class evaluated in
    /// isolation, labeled, in the model's class order.
    ///
    /// This is the explainability view behind design reports: it shows
    /// *which* failure mode dominates a design's downtime (e.g. hardware
    /// repairs under a bronze contract) and therefore which knob the next
    /// frontier step will turn.
    ///
    /// # Errors
    ///
    /// Returns [`AvailError`] for inconsistent models.
    pub fn per_class(
        &self,
        model: &TierModel,
    ) -> Result<Vec<(String, TierAvailability)>, AvailError> {
        model.check()?;
        let mut out = Vec::with_capacity(model.classes().len());
        for class in model.classes() {
            let single = TierModel::new(model.n(), model.m(), model.s())
                .with_exposed_spares(model.spares_exposed())
                .with_class(class.clone());
            let r = self.inner.evaluate(&single)?;
            out.push((class.label().to_owned(), r));
        }
        Ok(out)
    }
}

impl Default for DecompositionEngine {
    fn default() -> DecompositionEngine {
        DecompositionEngine::new()
    }
}

impl AvailabilityEngine for DecompositionEngine {
    fn evaluate(&self, model: &TierModel) -> Result<TierAvailability, AvailError> {
        self.evaluate_with_health(model).map(|(r, _)| r)
    }

    fn evaluate_with_health(
        &self,
        model: &TierModel,
    ) -> Result<(TierAvailability, EvalHealth), AvailError> {
        let mut session = EvalSession::new();
        self.evaluate_with_session(model, &mut session)
    }

    fn evaluate_with_session(
        &self,
        model: &TierModel,
        session: &mut EvalSession,
    ) -> Result<(TierAvailability, EvalHealth), AvailError> {
        model.check()?;
        let mut unavailability = 0.0;
        let mut event_rate = Rate::ZERO;
        let mut health = EvalHealth::default();
        // The per-class chains share one structural shape whenever their
        // failover flags agree, so within a single evaluation the session
        // repatches one cached chain from class to class.
        for class in model.classes() {
            let single = TierModel::new(model.n(), model.m(), model.s())
                .with_exposed_spares(model.spares_exposed())
                .with_class(class.clone());
            let (r, class_health) = self.inner.evaluate_with_session(&single, session)?;
            health.absorb(class_health);
            unavailability += r.unavailability();
            event_rate += r.down_event_rate();
        }
        Ok((
            TierAvailability::new(unavailability.min(1.0), event_rate),
            health,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FailureClass;
    use aved_units::Duration;

    fn class(label: &str, mtbf_days: f64, mttr_mins: f64) -> FailureClass {
        FailureClass::new(
            label,
            Duration::from_days(mtbf_days).rate(),
            Duration::from_mins(mttr_mins),
            Duration::ZERO,
            false,
        )
    }

    #[test]
    fn single_class_matches_reference_exactly() {
        let model = TierModel::new(3, 2, 0).with_class(class("a", 100.0, 120.0));
        let fast = DecompositionEngine::default().evaluate(&model).unwrap();
        let exact = CtmcEngine::default().evaluate(&model).unwrap();
        assert!((fast.unavailability() - exact.unavailability()).abs() < 1e-15);
    }

    #[test]
    fn multi_class_close_to_reference() {
        // Paper-like magnitudes: MTBFs of weeks-months, repairs of minutes
        // to hours.
        let model = TierModel::new(5, 5, 0)
            .with_class(class("machineA/hard", 650.0, 38.0 * 60.0))
            .with_class(class("machineA/soft", 75.0, 4.5))
            .with_class(class("linux/soft", 60.0, 4.0))
            .with_class(class("app/soft", 60.0, 2.0));
        let fast = DecompositionEngine::default().evaluate(&model).unwrap();
        let exact = CtmcEngine::default().evaluate(&model).unwrap();
        let rel = (fast.unavailability() - exact.unavailability()).abs() / exact.unavailability();
        assert!(rel < 0.02, "relative gap {rel}");
    }

    #[test]
    fn decomposition_underestimates_with_redundancy() {
        // With m < n, downtime needs overlapping failures; decomposition
        // misses cross-class overlaps, so it can only underestimate.
        let model = TierModel::new(4, 2, 0)
            .with_class(class("a", 30.0, 600.0))
            .with_class(class("b", 30.0, 600.0));
        let fast = DecompositionEngine::default()
            .evaluate(&model)
            .unwrap()
            .unavailability();
        let exact = CtmcEngine::default()
            .evaluate(&model)
            .unwrap()
            .unavailability();
        assert!(fast <= exact * 1.0001, "fast {fast} exact {exact}");
    }

    #[test]
    fn unavailability_is_capped_at_one() {
        // Degenerate inputs where each class alone is down half the time.
        let model = TierModel::new(1, 1, 0)
            .with_class(class("a", 0.01, 14.4))
            .with_class(class("b", 0.01, 14.4))
            .with_class(class("c", 0.01, 14.4));
        let r = DecompositionEngine::default().evaluate(&model).unwrap();
        assert!(r.unavailability() <= 1.0);
    }

    #[test]
    fn rejects_invalid_model() {
        assert!(DecompositionEngine::default()
            .evaluate(&TierModel::new(2, 3, 0).with_class(class("a", 1.0, 1.0)))
            .is_err());
    }

    #[test]
    fn session_path_is_bit_identical_and_shares_chains_across_classes() {
        use crate::EvalSession;
        // Four same-shape classes: the session should explore once and
        // repatch for every subsequent class, across repeated evaluations.
        let model = TierModel::new(5, 5, 0)
            .with_class(class("machineA/hard", 650.0, 38.0 * 60.0))
            .with_class(class("machineA/soft", 75.0, 4.5))
            .with_class(class("linux/soft", 60.0, 4.0))
            .with_class(class("app/soft", 60.0, 2.0));
        let engine = DecompositionEngine::default();
        let mut session = EvalSession::new();
        let (one_shot, _) = engine.evaluate_with_health(&model).unwrap();
        for _ in 0..3 {
            let (warm, _) = engine.evaluate_with_session(&model, &mut session).unwrap();
            assert_eq!(
                warm.unavailability().to_bits(),
                one_shot.unavailability().to_bits()
            );
            assert_eq!(
                warm.down_event_rate().per_hour_value().to_bits(),
                one_shot.down_event_rate().per_hour_value().to_bits()
            );
        }
        assert_eq!(session.cached_chains(), 1, "all classes share one shape");
        assert_eq!(session.stats().solves, 12);
        assert_eq!(session.stats().rebuilds_avoided, 11);
    }

    #[test]
    fn per_class_breakdown_sums_to_the_total() {
        let model = TierModel::new(3, 3, 0)
            .with_class(class("hw/hard", 650.0, 38.0 * 60.0))
            .with_class(class("os/soft", 60.0, 4.0));
        let engine = DecompositionEngine::default();
        let total = engine.evaluate(&model).unwrap().unavailability();
        let parts = engine.per_class(&model).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].0, "hw/hard");
        assert_eq!(parts[1].0, "os/soft");
        let sum: f64 = parts.iter().map(|(_, r)| r.unavailability()).sum();
        assert!((sum - total).abs() < 1e-15);
        // Hardware repairs at 38 h dominate the soft restarts at 4 minutes.
        assert!(parts[0].1.unavailability() > parts[1].1.unavailability());
    }
}
