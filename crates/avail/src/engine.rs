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
        self.worst_residual = worse_residual(self.worst_residual, other.worst_residual);
    }
}

/// The worse of two optional residuals: the larger when both are
/// measured, otherwise whichever is.
#[must_use]
pub fn worse_residual(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.max(b)),
        (a, b) => a.or(b),
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
/// An implementor writes one method,
/// [`evaluate_with_session`](Self::evaluate_with_session). The other two
/// are provided: they run it on a fresh [`EvalSession`] and drop what the
/// caller did not ask for.
///
/// Engines are required to be `Send + Sync`, so that callers may share
/// one `&dyn AvailabilityEngine` (and the `Aved` holding it) across
/// threads, though each search runs on its calling thread. Stateless
/// engines satisfy this for free; decorators with interior state (call
/// counters) must use atomics or locks rather than `Cell`/`RefCell`.
pub trait AvailabilityEngine: Send + Sync {
    /// Evaluates the steady-state availability of a tier.
    ///
    /// # Errors
    ///
    /// Returns [`AvailError`] for inconsistent models or solver failures.
    fn evaluate(&self, model: &TierModel) -> Result<TierAvailability, AvailError> {
        self.evaluate_with_health(model).map(|(r, _)| r)
    }

    /// Evaluates the tier and also reports how degraded the evaluation was
    /// (solver fallbacks, worst accepted residual).
    ///
    /// # Errors
    ///
    /// Returns [`AvailError`] for inconsistent models or solver failures.
    fn evaluate_with_health(
        &self,
        model: &TierModel,
    ) -> Result<(TierAvailability, EvalHealth), AvailError> {
        self.evaluate_with_session(model, &mut EvalSession::new())
    }

    /// Evaluates the tier using a caller-owned [`EvalSession`] that carries
    /// reusable solver scratch, cached chain structures and the resource
    /// budget between calls, and reports how degraded the evaluation was.
    /// The session only saves work: the result is bit-identical to a
    /// one-shot evaluation's.
    ///
    /// Engines without reusable solver state (the simulator) ignore the
    /// session; decorators pass it on to the engine they wrap. Each session
    /// must only be used from one thread at a time — the engine itself
    /// stays `Send + Sync` because all mutation lives in the session.
    ///
    /// # Errors
    ///
    /// Returns [`AvailError`] for inconsistent models or solver failures.
    fn evaluate_with_session(
        &self,
        model: &TierModel,
        session: &mut EvalSession,
    ) -> Result<(TierAvailability, EvalHealth), AvailError>;
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

    /// Bit patterns of one evaluation's result and health.
    fn bits((r, health): (TierAvailability, EvalHealth)) -> (u64, u64, u32, Option<u64>) {
        (
            r.unavailability().to_bits(),
            r.down_event_rate().per_hour_value().to_bits(),
            health.fallbacks,
            health.worst_residual.map(f64::to_bits),
        )
    }

    #[test]
    fn the_three_entry_points_agree_bit_for_bit() {
        use crate::{
            CtmcEngine, DecompositionEngine, FailureClass, FaultInjectingEngine, SimulationEngine,
        };
        use aved_units::Duration;
        let model = TierModel::new(3, 2, 1)
            .with_class(FailureClass::new(
                "hw/hard",
                Duration::from_days(650.0).rate(),
                Duration::from_hours(38.0),
                Duration::from_mins(5.0),
                true,
            ))
            .with_class(FailureClass::new(
                "os/soft",
                Duration::from_days(60.0).rate(),
                Duration::from_mins(4.0),
                Duration::from_mins(5.0),
                false,
            ));
        let ctmc = CtmcEngine::default();
        let engines: [(&str, &dyn AvailabilityEngine); 4] = [
            ("ctmc", &ctmc),
            ("decomposition", &DecompositionEngine::default()),
            ("simulation", &SimulationEngine::new(7).with_years(50.0)),
            ("fault injector", &FaultInjectingEngine::new(&ctmc)),
        ];
        for (name, engine) in engines {
            let with_session = engine
                .evaluate_with_session(&model, &mut EvalSession::new())
                .unwrap();
            let with_health = engine.evaluate_with_health(&model).unwrap();
            let plain = engine.evaluate(&model).unwrap();
            assert_eq!(bits(with_health), bits(with_session), "{name}");
            assert_eq!(bits((plain, with_session.1)), bits(with_session), "{name}");
        }
    }
}
