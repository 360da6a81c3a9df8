//! Deterministic fault injection for resilience testing.
//!
//! [`FaultInjectingEngine`] wraps any [`AvailabilityEngine`] and injects
//! failures into chosen evaluations: solver non-convergence errors and NaN
//! availability results. Faults are selected **deterministically** — by
//! the 0-based index of the evaluation call (in a search, the order in
//! which it first evaluates each availability design) or by a structural
//! predicate on the model being evaluated — so a failing search
//! reproduces exactly.
//!
//! Call-index schedules depend on the order of evaluation: when a search
//! evaluates fewer or other models, the call at index `k` lands on another
//! candidate. Model-predicate faults
//! ([`FaultInjectingEngine::with_fault_when`]) follow the model, not the
//! schedule, so they hit the same candidates however the calls are
//! ordered.
//!
//! This is the harness that proves the evaluation path degrades gracefully:
//! the fallback chain, the per-candidate isolation in the search loop, and
//! the NaN guards in front of the Pareto frontier are all exercised through
//! it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use aved_markov::MarkovError;
use aved_units::Rate;

use crate::{AvailError, AvailabilityEngine, EvalHealth, EvalSession, TierAvailability, TierModel};

/// The failure a [`FaultInjectingEngine`] injects into an evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectedFault {
    /// The evaluation fails with a solver non-convergence error.
    NonConvergence,
    /// The evaluation "succeeds" but returns a NaN unavailability —
    /// modeling a silently-wrong engine that downstream guards must catch.
    NanResult,
}

/// A deterministic fault-injecting decorator around an availability engine.
///
/// # Examples
///
/// ```
/// use aved_avail::{
///     AvailabilityEngine, CtmcEngine, FailureClass, FaultInjectingEngine, InjectedFault,
///     TierModel,
/// };
/// use aved_units::Duration;
///
/// let model = TierModel::new(1, 1, 0).with_class(FailureClass::new(
///     "hw",
///     Duration::from_hours(1000.0).rate(),
///     Duration::from_hours(10.0),
///     Duration::ZERO,
///     false,
/// ));
/// let inner = CtmcEngine::default();
/// let engine = FaultInjectingEngine::new(&inner)
///     .with_fault_at(1, InjectedFault::NonConvergence);
/// assert!(engine.evaluate(&model).is_ok()); // call 0: forwarded
/// assert!(engine.evaluate(&model).is_err()); // call 1: injected
/// assert_eq!(engine.injected(), 1);
/// ```
pub struct FaultInjectingEngine<'a> {
    inner: &'a dyn AvailabilityEngine,
    faults_by_call: BTreeMap<u64, InjectedFault>,
    faults_by_model: Vec<(ModelPredicate, InjectedFault)>,
    // Atomics, not `Cell`s: the engine trait is `Send + Sync` so one
    // decorator can be shared across threads.
    calls: AtomicU64,
    injected: AtomicU64,
}

/// A model-keyed fault schedule: plain `fn` so the decorator stays
/// `Send + Sync` without bounds bookkeeping.
type ModelPredicate = fn(&TierModel) -> bool;

impl<'a> FaultInjectingEngine<'a> {
    /// Wraps `inner` with no faults scheduled; every call is forwarded.
    #[must_use]
    pub fn new(inner: &'a dyn AvailabilityEngine) -> FaultInjectingEngine<'a> {
        FaultInjectingEngine {
            inner,
            faults_by_call: BTreeMap::new(),
            faults_by_model: Vec::new(),
            calls: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Schedules `fault` for the evaluation with the given 0-based call
    /// index (later schedules for the same index replace earlier ones).
    #[must_use]
    pub fn with_fault_at(mut self, call: u64, fault: InjectedFault) -> FaultInjectingEngine<'a> {
        self.faults_by_call.insert(call, fault);
        self
    }

    /// Schedules `fault` for every evaluation whose model satisfies
    /// `predicate`. Unlike call-index schedules, model-keyed faults hit the
    /// same candidates no matter how a search orders the evaluations.
    /// Explicit [`Self::with_fault_at`] schedules take precedence on calls
    /// matching both.
    #[must_use]
    pub fn with_fault_when(
        mut self,
        predicate: ModelPredicate,
        fault: InjectedFault,
    ) -> FaultInjectingEngine<'a> {
        self.faults_by_model.push((predicate, fault));
        self
    }

    /// Number of evaluations seen so far.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Number of faults injected so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn fault_for(&self, call: u64, model: &TierModel) -> Option<InjectedFault> {
        if let Some(f) = self.faults_by_call.get(&call) {
            return Some(*f);
        }
        self.faults_by_model
            .iter()
            .find(|(predicate, _)| predicate(model))
            .map(|&(_, fault)| fault)
    }
}

impl AvailabilityEngine for FaultInjectingEngine<'_> {
    fn evaluate_with_session(
        &self,
        model: &TierModel,
        session: &mut EvalSession,
    ) -> Result<(TierAvailability, EvalHealth), AvailError> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let Some(fault) = self.fault_for(call, model) else {
            return self.inner.evaluate_with_session(model, session);
        };
        self.injected.fetch_add(1, Ordering::Relaxed);
        match fault {
            InjectedFault::NonConvergence => Err(AvailError::Markov(MarkovError::NoConvergence {
                iterations: 0,
                residual: f64::INFINITY,
            })),
            InjectedFault::NanResult => Ok((
                TierAvailability::new_unchecked(f64::NAN, Rate::ZERO),
                EvalHealth::default(),
            )),
        }
    }
}

impl std::fmt::Debug for FaultInjectingEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjectingEngine")
            .field("faults_by_call", &self.faults_by_call)
            .field("calls", &self.calls())
            .field("injected", &self.injected())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CtmcEngine, FailureClass};
    use aved_units::Duration;

    fn model() -> TierModel {
        TierModel::new(1, 1, 0).with_class(FailureClass::new(
            "hw",
            Duration::from_hours(1000.0).rate(),
            Duration::from_hours(10.0),
            Duration::ZERO,
            false,
        ))
    }

    #[test]
    fn forwards_when_no_fault_scheduled() {
        let inner = CtmcEngine::default();
        let engine = FaultInjectingEngine::new(&inner);
        let direct = inner.evaluate(&model()).unwrap();
        let via = engine.evaluate(&model()).unwrap();
        assert_eq!(direct, via);
        assert_eq!(engine.calls(), 1);
        assert_eq!(engine.injected(), 0);
    }

    #[test]
    fn injects_non_convergence_at_the_scheduled_call() {
        let inner = CtmcEngine::default();
        let engine =
            FaultInjectingEngine::new(&inner).with_fault_at(1, InjectedFault::NonConvergence);
        assert!(engine.evaluate(&model()).is_ok());
        let err = engine.evaluate(&model()).unwrap_err();
        assert!(matches!(
            err,
            AvailError::Markov(MarkovError::NoConvergence { .. })
        ));
        assert!(engine.evaluate(&model()).is_ok());
        assert_eq!(engine.injected(), 1);
    }

    #[test]
    fn injects_nan_results_without_panicking() {
        let inner = CtmcEngine::default();
        let engine = FaultInjectingEngine::new(&inner).with_fault_at(0, InjectedFault::NanResult);
        let r = engine.evaluate(&model()).unwrap();
        assert!(r.unavailability().is_nan());
    }

    #[test]
    fn model_predicate_faults_follow_the_model_not_the_call_order() {
        let inner = CtmcEngine::default();
        let engine = FaultInjectingEngine::new(&inner)
            .with_fault_when(|m| m.n() >= 2, InjectedFault::NonConvergence);
        let small = model();
        let big = TierModel::new(2, 2, 0).with_class(FailureClass::new(
            "hw",
            Duration::from_hours(1000.0).rate(),
            Duration::from_hours(10.0),
            Duration::ZERO,
            false,
        ));
        // Whatever order the calls come in, only the matching model fails.
        assert!(engine.evaluate(&big).is_err());
        assert!(engine.evaluate(&small).is_ok());
        assert!(engine.evaluate(&big).is_err());
        assert!(engine.evaluate(&small).is_ok());
        assert_eq!(engine.injected(), 2);
    }

    #[test]
    fn counters_are_shared_across_threads() {
        let inner = CtmcEngine::default();
        let engine = FaultInjectingEngine::new(&inner);
        let m = model();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..8 {
                        let _ = engine.evaluate(&m);
                    }
                });
            }
        });
        assert_eq!(engine.calls(), 32);
    }
}
