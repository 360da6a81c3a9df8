//! The "simplified Markov model": per-failure-class decomposition.

use aved_units::Rate;

use crate::session::ClassKey;
use crate::{
    AvailError, AvailabilityEngine, CtmcEngine, EvalHealth, EvalSession, FailureClass,
    TierAvailability, TierModel,
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

    /// The truncation depth of the per-class chains.
    #[must_use]
    pub fn max_concurrent(&self) -> u32 {
        self.inner.max_concurrent()
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
        let mut out = Vec::with_capacity(model.classes().len());
        self.for_each_class(model, &mut EvalSession::new(), |class, r, _| {
            out.push((class.label().to_owned(), r));
        })?;
        Ok(out)
    }

    /// Evaluates each failure class of `model` in isolation through
    /// `session`, handing `visit` every class with its result and health in
    /// the model's class order.
    ///
    /// A class whose exact inputs match one in the session's class memo
    /// replays that result and its health instead of solving; every solve
    /// is a pure function of its single-class model, so the replay is the
    /// solve's own answer. A replay still passes the budget check a solve
    /// makes on entry.
    fn for_each_class(
        &self,
        model: &TierModel,
        session: &mut EvalSession,
        mut visit: impl FnMut(&FailureClass, TierAvailability, EvalHealth),
    ) -> Result<(), AvailError> {
        model.check()?;
        let cap = self.max_concurrent().min(model.n_total());
        // Every class is evaluated through the session's one single-class
        // model, rewritten in place; it is lent out of the session for the
        // loop and handed back whatever the outcome. The per-class chains
        // share one structural shape whenever their failover flags agree,
        // so within a single evaluation the session repatches one cached
        // chain from class to class.
        let mut single = session
            .single_class
            .take()
            .unwrap_or_else(|| TierModel::new(0, 0, 0));
        let outcome = model.classes().iter().try_for_each(|class| {
            let key = ClassKey::new(model, class, cap);
            let (r, health) = match session.class_memo.get(&key).copied() {
                Some(found) => {
                    // The check a solve makes on entry: a spent budget
                    // fails a replay with the error the solve would return.
                    let budget = session.budget.for_candidate();
                    if !budget.is_unlimited() {
                        budget.checkpoint("solve", 0)?;
                    }
                    session.stats.class_hits += 1;
                    found
                }
                None => {
                    single.assign_single_class(model, class);
                    let solved = self.inner.evaluate_with_session(&single, session)?;
                    session.class_memo.insert(&key, solved);
                    solved
                }
            };
            visit(class, r, health);
            Ok(())
        });
        session.single_class = Some(single);
        outcome
    }
}

impl Default for DecompositionEngine {
    fn default() -> DecompositionEngine {
        DecompositionEngine::new()
    }
}

impl AvailabilityEngine for DecompositionEngine {
    fn evaluate_with_session(
        &self,
        model: &TierModel,
        session: &mut EvalSession,
    ) -> Result<(TierAvailability, EvalHealth), AvailError> {
        let mut unavailability = 0.0;
        let mut event_rate = Rate::ZERO;
        let mut health = EvalHealth::default();
        self.for_each_class(model, session, |_, r, class_health| {
            health.absorb(class_health);
            unavailability += r.unavailability();
            event_rate += r.down_event_rate();
        })?;
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
        // repatch for every subsequent class; repeated evaluations of the
        // same model replay every class from the class memo.
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
        assert_eq!(session.stats().solves, 4);
        assert_eq!(session.stats().rebuilds_avoided, 3);
        assert_eq!(session.stats().class_hits, 8);
    }

    /// A paper-style tier: a hard class repaired in `hard_repair_mins`
    /// (failing over when `fails_over`) and three restart-class soft
    /// failures.
    fn paper_tier(n: u32, s: u32, hard_repair_mins: f64, fails_over: bool) -> TierModel {
        let with = |label: &str, mtbf_days: f64, mttr_mins: f64, fo: bool| {
            FailureClass::new(
                label,
                Duration::from_days(mtbf_days).rate(),
                Duration::from_mins(mttr_mins),
                Duration::from_mins(5.0),
                fo,
            )
        };
        TierModel::new(n, 4, s)
            .with_class(with("machineA/hard", 650.0, hard_repair_mins, fails_over))
            .with_class(with("machineA/soft", 75.0, 4.2, fails_over && s > 1))
            .with_class(with("linux/soft", 60.0, 3.1, fails_over && s > 1))
            .with_class(with("webserver/soft", 60.0, 0.5, fails_over && s > 1))
    }

    fn result_bits(r: &TierAvailability, h: &EvalHealth) -> (u64, u64, u32, Option<u64>) {
        (
            r.unavailability().to_bits(),
            r.down_event_rate().per_hour_value().to_bits(),
            h.fallbacks,
            h.worst_residual.map(f64::to_bits),
        )
    }

    #[test]
    fn class_memo_replays_exactly_the_unchanged_classes() {
        let engine = DecompositionEngine::default();
        let base = paper_tier(5, 2, 38.0 * 60.0, true);
        // (variant, class results the memo must replay after `base`)
        let variants = [
            // The §4.1 contract swap: only the hard class changes.
            (paper_tier(5, 2, 8.0 * 60.0, true), 3),
            (base.clone(), 4),
            (paper_tier(6, 2, 38.0 * 60.0, true), 0),
            (paper_tier(5, 1, 38.0 * 60.0, true), 0),
            (base.clone().with_exposed_spares(true), 0),
            // Every class's failover flag flipped (soft classes fail over
            // only with two spares).
            (paper_tier(5, 2, 38.0 * 60.0, false), 0),
            (paper_tier(5, 1, 38.0 * 60.0, false), 0),
        ];
        for (variant, hits) in &variants {
            let mut session = EvalSession::new();
            engine.evaluate_with_session(&base, &mut session).unwrap();
            let before = *session.stats();
            let (r, h) = engine.evaluate_with_session(variant, &mut session).unwrap();
            let after = session.stats();
            assert_eq!(after.class_hits - before.class_hits, *hits, "{variant:?}");
            assert_eq!(
                after.solves - before.solves,
                4 - hits,
                "every other class solves: {variant:?}"
            );
            let (one_r, one_h) = engine.evaluate_with_health(variant).unwrap();
            assert_eq!(
                result_bits(&r, &h),
                result_bits(&one_r, &one_h),
                "{variant:?}"
            );
        }
    }

    #[test]
    fn class_memo_keys_on_the_effective_truncation_cap() {
        let model = paper_tier(5, 2, 38.0 * 60.0, true);
        let mut session = EvalSession::new();
        DecompositionEngine::default()
            .with_max_concurrent(3)
            .evaluate_with_session(&model, &mut session)
            .unwrap();
        // Depth 2 caps the chain lower: nothing may be replayed.
        let (r, h) = DecompositionEngine::default()
            .with_max_concurrent(2)
            .evaluate_with_session(&model, &mut session)
            .unwrap();
        assert_eq!(session.stats().class_hits, 0);
        let (one_r, one_h) = DecompositionEngine::default()
            .with_max_concurrent(2)
            .evaluate_with_health(&model)
            .unwrap();
        assert_eq!(result_bits(&r, &h), result_bits(&one_r, &one_h));
        // Depths 7 and 8 both cap this 7-resource tier at 7: same chains.
        let mut session = EvalSession::new();
        for depth in [7, 8] {
            DecompositionEngine::default()
                .with_max_concurrent(depth)
                .evaluate_with_session(&model, &mut session)
                .unwrap();
        }
        assert_eq!(session.stats().class_hits, 4);
    }

    #[test]
    fn a_memoised_class_fails_on_a_spent_budget_like_a_solve() {
        use aved_markov::{CancelToken, MarkovError, SolveBudget};
        let engine = DecompositionEngine::default();
        let tier = |scale: f64| {
            TierModel::new(5, 4, 1)
                .with_class(class("hw/hard", 650.0 * scale, 38.0 * 60.0))
                .with_class(class("os/soft", 60.0 * scale, 4.0))
        };
        let model = tier(1.0);
        // A rate variant: the session has its chain shape cached but none
        // of its classes, so each of them reaches a solve's entry check.
        let unsolved = tier(1.1);
        let token = CancelToken::new();
        let spent = [
            SolveBudget::unlimited().with_deadline(std::time::Instant::now()),
            SolveBudget::unlimited().with_cancel(token.clone()),
        ];
        token.cancel();
        for budget in spent {
            let mut session = EvalSession::new();
            engine.evaluate_with_session(&model, &mut session).unwrap();
            session.budget = budget;
            let solving = engine
                .evaluate_with_session(&unsolved, &mut session)
                .unwrap_err();
            let hits = session.stats().class_hits;
            let replaying = engine
                .evaluate_with_session(&model, &mut session)
                .unwrap_err();
            assert!(
                matches!(
                    replaying,
                    AvailError::Markov(
                        MarkovError::Cancelled { .. } | MarkovError::BudgetExhausted { .. }
                    )
                ),
                "{replaying:?}"
            );
            assert_eq!(replaying, solving, "a replay fails as a solve would");
            assert_eq!(
                session.stats().class_hits,
                hits,
                "a refused replay is no hit"
            );
        }
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
