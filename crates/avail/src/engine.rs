//! The engine trait and the common result type.

use aved_units::{Duration, Rate, MINUTES_PER_YEAR};
use serde::{Deserialize, Serialize};

use crate::{AvailError, EvalSession, TierModel};

/// The result of evaluating one tier's availability.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierAvailability {
    unavailability: f64,
    down_event_rate: Rate,
}

impl TierAvailability {
    /// Creates a result from steady-state unavailability (fraction of time
    /// down, in `[0, 1]`) and the rate of up→down transitions.
    ///
    /// # Panics
    ///
    /// Panics if `unavailability` is outside `[0, 1]` or NaN.
    #[must_use]
    pub fn new(unavailability: f64, down_event_rate: Rate) -> TierAvailability {
        assert!(
            (0.0..=1.0).contains(&unavailability),
            "unavailability must be a probability, got {unavailability}"
        );
        TierAvailability {
            unavailability,
            down_event_rate,
        }
    }

    /// Creates a result **without validating** the unavailability.
    ///
    /// Exists for the fault-injection harness, which must be able to hand
    /// downstream code deliberately-broken values (NaN, ∞) to prove the
    /// search layer's guards reject them. Production engines must use
    /// [`TierAvailability::new`].
    #[must_use]
    pub fn new_unchecked(unavailability: f64, down_event_rate: Rate) -> TierAvailability {
        TierAvailability {
            unavailability,
            down_event_rate,
        }
    }

    /// Steady-state probability of being down.
    #[must_use]
    pub fn unavailability(&self) -> f64 {
        self.unavailability
    }

    /// Steady-state probability of being up.
    #[must_use]
    pub fn availability(&self) -> f64 {
        1.0 - self.unavailability
    }

    /// Expected downtime per year (the paper's headline metric).
    #[must_use]
    pub fn annual_downtime(&self) -> Duration {
        Duration::from_mins(self.unavailability * MINUTES_PER_YEAR)
    }

    /// Expected uptime per year (`T_up` in the paper's job analysis).
    #[must_use]
    pub fn annual_uptime(&self) -> Duration {
        Duration::from_mins((1.0 - self.unavailability) * MINUTES_PER_YEAR)
    }

    /// Rate of service-down events (up→down transitions) — the frequency
    /// of outages, as opposed to their total duration.
    #[must_use]
    pub fn down_event_rate(&self) -> Rate {
        self.down_event_rate
    }
}

/// How degraded one availability evaluation was: solver fallbacks taken and
/// the worst accepted balance residual, aggregated by the search layer into
/// its `SearchHealth` report.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EvalHealth {
    /// Solver fallbacks taken (attempts beyond the first, summed over every
    /// steady-state solve this evaluation ran).
    pub fallbacks: u32,
    /// Worst accepted balance residual `‖πQ‖∞` across those solves, when
    /// the engine measures one.
    pub worst_residual: Option<f64>,
}

impl EvalHealth {
    /// Folds another evaluation's health into this one.
    pub fn absorb(&mut self, other: EvalHealth) {
        self.fallbacks += other.fallbacks;
        self.worst_residual = match (self.worst_residual, other.worst_residual) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

/// An availability evaluation engine: maps a [`TierModel`] to a
/// [`TierAvailability`].
///
/// The paper treats the engine as pluggable (Avanto, Mobius, Sharpe, or its
/// own simplified Markov model); this trait is that plug point. All three
/// engines in this crate implement it, so the design-search code is
/// engine-agnostic.
///
/// Engines are required to be `Send + Sync`: the search layer fans
/// candidate evaluations out across scoped threads, all sharing one
/// `&dyn AvailabilityEngine`. Stateless engines satisfy this for free;
/// decorators with interior state (caches, call counters) must use atomics
/// or locks rather than `Cell`/`RefCell`.
pub trait AvailabilityEngine: Send + Sync {
    /// Evaluates the steady-state availability of a tier.
    ///
    /// # Errors
    ///
    /// Returns [`AvailError`] for inconsistent models or solver failures.
    fn evaluate(&self, model: &TierModel) -> Result<TierAvailability, AvailError>;

    /// Evaluates the tier and also reports how degraded the evaluation was
    /// (solver fallbacks, worst accepted residual).
    ///
    /// The default implementation reports a clean [`EvalHealth`]; engines
    /// with internal fallback machinery override it.
    ///
    /// # Errors
    ///
    /// Returns [`AvailError`] for inconsistent models or solver failures.
    fn evaluate_with_health(
        &self,
        model: &TierModel,
    ) -> Result<(TierAvailability, EvalHealth), AvailError> {
        self.evaluate(model).map(|r| (r, EvalHealth::default()))
    }

    /// Evaluates the tier using a caller-owned [`EvalSession`] that carries
    /// reusable solver scratch and cached chain structures between calls.
    /// The session only saves work: the result is bit-identical to a
    /// one-shot evaluation's.
    ///
    /// The default implementation ignores the session and delegates to
    /// [`evaluate_with_health`](Self::evaluate_with_health), so engines
    /// without per-call reusable state (the simulator, the fault injector)
    /// stay correct for free; engines with solver state override it. Each
    /// session must only be used from one thread at a time — the engine
    /// itself stays `Send + Sync` because all mutation lives in the
    /// session.
    ///
    /// # Errors
    ///
    /// Returns [`AvailError`] for inconsistent models or solver failures.
    fn evaluate_with_session(
        &self,
        model: &TierModel,
        _session: &mut EvalSession,
    ) -> Result<(TierAvailability, EvalHealth), AvailError> {
        self.evaluate_with_health(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let r = TierAvailability::new(0.001, Rate::per_hour(0.01));
        assert!((r.availability() - 0.999).abs() < 1e-15);
        // 0.1% of a year in minutes:
        assert!((r.annual_downtime().minutes() - 525.6).abs() < 1e-9);
        assert!((r.annual_uptime().minutes() - 0.999 * 525_600.0).abs() < 1e-6);
        assert_eq!(r.down_event_rate(), Rate::per_hour(0.01));
    }

    #[test]
    fn perfect_and_broken_extremes() {
        let perfect = TierAvailability::new(0.0, Rate::ZERO);
        assert_eq!(perfect.annual_downtime(), Duration::ZERO);
        let broken = TierAvailability::new(1.0, Rate::ZERO);
        assert!((broken.annual_downtime().minutes() - 525_600.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_unavailability_panics() {
        let _ = TierAvailability::new(1.5, Rate::ZERO);
    }
}
