//! Transient (mission-time) availability measures.
//!
//! The paper evaluates steady-state annual downtime only; its future-work
//! section calls for managing a service "throughout its lifetime". These
//! measures cover the lifetime questions steady state cannot answer:
//!
//! * [`CtmcEngine::mean_time_to_first_outage`] — starting from all-up, how
//!   long until the tier first drops below `m` working resources (the
//!   MTTF of the tier as a system);
//! * [`CtmcEngine::mission_downtime`] — the expected downtime accumulated
//!   during a finite mission window starting from all-up, which is lower
//!   than the steady-state pro-rata during the early life of a deployment
//!   (the chain starts in its best state).

use aved_markov::{transient, CtmcBuilder, SolveBudget};
use aved_units::Duration;

use crate::{AvailError, CtmcEngine, TierModel};

impl CtmcEngine {
    /// The mean time from all-up until the tier's first outage.
    ///
    /// Computed by first-passage analysis on the tier chain with all down
    /// states made absorbing. For a 1-of-1 tier this is exactly the
    /// resource MTBF; redundancy multiplies it by orders of magnitude.
    ///
    /// # Errors
    ///
    /// Returns [`AvailError`] for invalid models or if the chain has no
    /// reachable down state within the truncation depth (infinite MTTF at
    /// this resolution).
    pub fn mean_time_to_first_outage(&self, model: &TierModel) -> Result<Duration, AvailError> {
        model.check()?;
        let explored = self.explore_chain(model, &SolveBudget::unlimited())?;
        let ctmc = explored.ctmc();
        let down = self.down_mask(model, &explored);
        if !down.iter().any(|&d| d) {
            return Err(AvailError::InvalidModel {
                detail: "no down state is reachable within the truncation depth".into(),
            });
        }
        // Rebuild with down states absorbing.
        let mut builder = CtmcBuilder::new(ctmc.n_states());
        for t in ctmc.transitions() {
            if !down[t.from] {
                builder.rate(t.from, t.to, t.rate);
            }
        }
        let absorbing_chain = builder.build_lenient()?;
        let hours = transient::mean_time_to_absorption(&absorbing_chain, 0, &down)?;
        Ok(Duration::from_hours(hours))
    }

    /// Expected downtime accumulated during the first `mission` of
    /// operation, starting from all resources up.
    ///
    /// Uses uniformization-based transient analysis; `steps` Simpson
    /// panels control the time-integration accuracy (a few dozen suffice
    /// for smooth availability trajectories).
    ///
    /// # Errors
    ///
    /// Returns [`AvailError`] for invalid models or transient-solver
    /// failures.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero or `mission` is zero.
    pub fn mission_downtime(
        &self,
        model: &TierModel,
        mission: Duration,
        steps: usize,
    ) -> Result<Duration, AvailError> {
        assert!(!mission.is_zero(), "mission must have positive length");
        model.check()?;
        let explored = self.explore_chain(model, &SolveBudget::unlimited())?;
        let ctmc = explored.ctmc();
        let down = self.down_mask(model, &explored);
        let reward: Vec<f64> = down.iter().map(|&d| if d { 1.0 } else { 0.0 }).collect();
        let mut initial = vec![0.0; ctmc.n_states()];
        initial[0] = 1.0; // exploration starts from the all-up state
        let hours =
            transient::accumulated_reward(ctmc, &initial, &reward, mission.hours(), steps, 1e-10)?;
        Ok(Duration::from_hours(hours.max(0.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AvailabilityEngine, FailureClass};
    use aved_units::Duration;

    fn single(mtbf_h: f64, mttr_h: f64) -> TierModel {
        TierModel::new(1, 1, 0).with_class(FailureClass::new(
            "hw",
            Duration::from_hours(mtbf_h).rate(),
            Duration::from_hours(mttr_h),
            Duration::ZERO,
            false,
        ))
    }

    #[test]
    fn mttf_of_single_machine_is_its_mtbf() {
        let model = single(1000.0, 10.0);
        let mttf = CtmcEngine::default()
            .mean_time_to_first_outage(&model)
            .unwrap();
        assert!((mttf.hours() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn redundancy_multiplies_mttf() {
        // 2-of-3: first outage needs two overlapping failures.
        let model = TierModel::new(3, 2, 0).with_class(FailureClass::new(
            "hw",
            Duration::from_hours(1000.0).rate(),
            Duration::from_hours(10.0),
            Duration::ZERO,
            false,
        ));
        let mttf = CtmcEngine::default()
            .mean_time_to_first_outage(&model)
            .unwrap();
        // Known result for 2-of-3 with repair: MTTF ~ mu/(6 lambda^2)
        // (leading order) = 1000^2/(10*6) ~ 16,667 h; allow the exact
        // chain's constant factors.
        assert!(
            mttf.hours() > 10_000.0,
            "redundant MTTF should be >> MTBF, got {}",
            mttf.hours()
        );
    }

    #[test]
    fn spares_extend_time_to_first_outage_of_m_of_n() {
        // m = n = 2 with a failover spare: the first outage is only
        // deferred by the transient being fast, but a *repair-in-place*
        // class at m < n benefits directly.
        let no_spare = TierModel::new(3, 2, 0).with_class(FailureClass::new(
            "hw",
            Duration::from_hours(500.0).rate(),
            Duration::from_hours(24.0),
            Duration::ZERO,
            false,
        ));
        let more_redundant = TierModel::new(4, 2, 0).with_class(FailureClass::new(
            "hw",
            Duration::from_hours(500.0).rate(),
            Duration::from_hours(24.0),
            Duration::ZERO,
            false,
        ));
        let e = CtmcEngine::default();
        let a = e.mean_time_to_first_outage(&no_spare).unwrap();
        let b = e.mean_time_to_first_outage(&more_redundant).unwrap();
        assert!(b > a * 2.0, "{} vs {}", a.hours(), b.hours());
    }

    #[test]
    fn long_mission_downtime_approaches_steady_state() {
        let model = single(100.0, 2.0);
        let engine = CtmcEngine::default();
        let steady = engine.evaluate(&model).unwrap().unavailability();
        let mission = Duration::from_hours(5000.0);
        let downtime = engine.mission_downtime(&model, mission, 64).unwrap();
        let expect = steady * mission.hours();
        assert!(
            (downtime.hours() - expect).abs() / expect < 0.05,
            "mission {} vs steady prorata {}",
            downtime.hours(),
            expect
        );
    }

    #[test]
    fn early_mission_downtime_is_below_steady_prorata() {
        // Starting all-up, the system spends its early life better than
        // steady state.
        let model = single(100.0, 10.0);
        let engine = CtmcEngine::default();
        let steady = engine.evaluate(&model).unwrap().unavailability();
        let mission = Duration::from_hours(20.0);
        let downtime = engine.mission_downtime(&model, mission, 64).unwrap();
        assert!(downtime.hours() < steady * mission.hours());
    }

    #[test]
    fn unreachable_outage_is_reported() {
        // m = 1 of n = 3 with truncation depth 1: down states (3 failed)
        // are outside the explored space.
        let model = TierModel::new(3, 1, 0).with_class(FailureClass::new(
            "hw",
            Duration::from_hours(1000.0).rate(),
            Duration::from_hours(1.0),
            Duration::ZERO,
            false,
        ));
        let engine = CtmcEngine::default().with_max_concurrent(1);
        assert!(engine.mean_time_to_first_outage(&model).is_err());
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn zero_mission_panics() {
        let _ = CtmcEngine::default().mission_downtime(&single(10.0, 1.0), Duration::ZERO, 8);
    }
}
