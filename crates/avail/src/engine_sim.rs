//! Discrete-event Monte Carlo availability simulator.
//!
//! A fully independent implementation of the tier failure/repair/failover
//! dynamics, used to cross-validate the analytic engines and to explore
//! assumptions they cannot express (deterministic repair and failover
//! times instead of exponential ones).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use aved_units::{Rate, HOURS_PER_YEAR};

use crate::{AvailError, AvailabilityEngine, EvalHealth, EvalSession, TierAvailability, TierModel};

/// The distribution family used for repair and failover completion times.
///
/// Failure inter-arrivals are always exponential (an MTBF is a rate);
/// repairs and failovers can be modeled as exponential (matching the Markov
/// engines' assumption) or deterministic (fixed duration equal to the
/// mean), which the paper's Markov tooling cannot express.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RepairDistribution {
    /// Exponentially distributed with the class mean (Markov assumption).
    #[default]
    Exponential,
    /// Always exactly the class mean.
    Deterministic,
}

/// A simulation result: the availability estimate plus statistical quality
/// measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationReport {
    availability: TierAvailability,
    relative_half_width: f64,
    simulated_years: f64,
    n_down_events: u64,
}

impl SimulationReport {
    /// The availability estimate.
    #[must_use]
    pub fn availability(&self) -> TierAvailability {
        self.availability
    }

    /// Approximate 95% relative half-width of the unavailability estimate,
    /// from batch means.
    #[must_use]
    pub fn relative_half_width(&self) -> f64 {
        self.relative_half_width
    }

    /// Total simulated time in years.
    #[must_use]
    pub fn simulated_years(&self) -> f64 {
        self.simulated_years
    }

    /// Number of observed service-down events.
    #[must_use]
    pub fn n_down_events(&self) -> u64 {
        self.n_down_events
    }
}

/// Monte Carlo availability engine.
///
/// Simulates the tier at per-event granularity: exponential failures over
/// the currently-exposed resources, per-resource repairs, spare startups on
/// failover-class failures. Service downtime accrues whenever fewer than
/// `m` resources are working. The estimate improves as `O(1/√years)`; the
/// default 4000 simulated years resolves annual downtimes down to a few
/// seconds.
///
/// # Examples
///
/// ```
/// use aved_avail::{AvailabilityEngine, SimulationEngine, FailureClass, TierModel};
/// use aved_units::Duration;
///
/// let model = TierModel::new(1, 1, 0).with_class(FailureClass::new(
///     "hw",
///     Duration::from_hours(1000.0).rate(),
///     Duration::from_hours(10.0),
///     Duration::ZERO,
///     false,
/// ));
/// let engine = SimulationEngine::new(42).with_years(500.0);
/// let result = engine.evaluate(&model)?;
/// let expect = 10.0 / 1010.0;
/// assert!((result.unavailability() - expect).abs() / expect < 0.2);
/// # Ok::<(), aved_avail::AvailError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationEngine {
    seed: u64,
    years: f64,
    distribution: RepairDistribution,
}

impl SimulationEngine {
    /// Creates a simulator with the given RNG seed, the default horizon
    /// (4000 simulated years) and exponential repairs.
    #[must_use]
    pub fn new(seed: u64) -> SimulationEngine {
        SimulationEngine {
            seed,
            years: 4000.0,
            distribution: RepairDistribution::Exponential,
        }
    }

    /// Sets the simulated horizon in years.
    ///
    /// # Panics
    ///
    /// Panics if `years` is not positive.
    #[must_use]
    pub fn with_years(mut self, years: f64) -> SimulationEngine {
        assert!(years > 0.0, "simulation horizon must be positive");
        self.years = years;
        self
    }

    /// Sets the repair/failover time distribution.
    #[must_use]
    pub fn with_distribution(mut self, d: RepairDistribution) -> SimulationEngine {
        self.distribution = d;
        self
    }

    /// Runs the simulation and returns the estimate with quality measures.
    ///
    /// # Errors
    ///
    /// Returns [`AvailError`] for inconsistent models.
    pub fn run(&self, model: &TierModel) -> Result<SimulationReport, AvailError> {
        model.check()?;
        let mut sim = Sim::new(model, self.seed, self.distribution);
        let horizon_h = self.years * HOURS_PER_YEAR;
        let n_batches = 10;
        let batch_h = horizon_h / n_batches as f64;
        let mut batch_unavail = Vec::with_capacity(n_batches);
        for b in 0..n_batches {
            let end = batch_h * (b + 1) as f64;
            let down_before = sim.down_time_h;
            sim.run_until(end);
            batch_unavail.push((sim.down_time_h - down_before) / batch_h);
        }
        let mean: f64 = batch_unavail.iter().sum::<f64>() / n_batches as f64;
        let var: f64 = batch_unavail
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f64>()
            / (n_batches - 1) as f64;
        let half_width = 1.96 * (var / n_batches as f64).sqrt();
        let relative_half_width = if mean > 0.0 { half_width / mean } else { 0.0 };
        let event_rate = sim.down_events as f64 / horizon_h;
        Ok(SimulationReport {
            availability: TierAvailability::new(mean.clamp(0.0, 1.0), Rate::per_hour(event_rate)),
            relative_half_width,
            simulated_years: self.years,
            n_down_events: sim.down_events,
        })
    }
}

impl AvailabilityEngine for SimulationEngine {
    fn evaluate_with_session(
        &self,
        model: &TierModel,
        _session: &mut EvalSession,
    ) -> Result<(TierAvailability, EvalHealth), AvailError> {
        Ok((self.run(model)?.availability(), EvalHealth::default()))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// A failure strikes (class chosen at firing time); version guards
    /// against stale exposure.
    Failure { version: u64 },
    /// A repair of one resource failed in `class` completes.
    RepairDone { class: usize },
    /// A spare being started for a `class` failover becomes active.
    StartupDone { class: usize },
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    time_h: f64,
    seq: u64,
    kind: EventKind,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Event) -> std::cmp::Ordering {
        self.time_h
            .total_cmp(&other.time_h)
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Event) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct Sim<'m> {
    model: &'m TierModel,
    rng: StdRng,
    distribution: RepairDistribution,
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
    now_h: f64,
    // Counts; invariant: working + starting + free + sum(failed) == n + s.
    working: u32,
    free_spares: u32,
    starting: Vec<u32>,
    failed: Vec<u32>,
    failure_version: u64,
    down_time_h: f64,
    down_events: u64,
    was_down: bool,
}

impl<'m> Sim<'m> {
    fn new(model: &'m TierModel, seed: u64, distribution: RepairDistribution) -> Sim<'m> {
        let n_classes = model.classes().len();
        let mut sim = Sim {
            model,
            rng: StdRng::seed_from_u64(seed),
            distribution,
            heap: BinaryHeap::new(),
            seq: 0,
            now_h: 0.0,
            working: model.n(),
            free_spares: model.s(),
            starting: vec![0; n_classes],
            failed: vec![0; n_classes],
            failure_version: 0,
            down_time_h: 0.0,
            down_events: 0,
            was_down: false,
        };
        sim.schedule_next_failure();
        sim
    }

    fn exposure(&self) -> f64 {
        let exposed = f64::from(self.working)
            + if self.model.spares_exposed() {
                f64::from(self.free_spares)
            } else {
                0.0
            };
        exposed * self.model.per_resource_failure_rate().per_hour_value()
    }

    fn push(&mut self, time_h: f64, kind: EventKind) {
        self.seq += 1;
        self.heap.push(Reverse(Event {
            time_h,
            seq: self.seq,
            kind,
        }));
    }

    fn exp(&mut self, mean_h: f64) -> f64 {
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        -mean_h * u.ln()
    }

    fn service_time(&mut self, mean_h: f64) -> f64 {
        match self.distribution {
            RepairDistribution::Exponential => self.exp(mean_h),
            RepairDistribution::Deterministic => mean_h,
        }
    }

    fn schedule_next_failure(&mut self) {
        self.failure_version += 1;
        let rate = self.exposure();
        if rate > 0.0 {
            let dt = self.exp(1.0 / rate);
            self.push(
                self.now_h + dt,
                EventKind::Failure {
                    version: self.failure_version,
                },
            );
        }
    }

    fn advance_to(&mut self, time_h: f64) {
        let down = self.working < self.model.m();
        if down {
            self.down_time_h += time_h - self.now_h;
        }
        self.now_h = time_h;
    }

    fn note_down_transition(&mut self) {
        let down = self.working < self.model.m();
        if down && !self.was_down {
            self.down_events += 1;
        }
        self.was_down = down;
    }

    fn run_until(&mut self, end_h: f64) {
        while let Some(&Reverse(ev)) = self.heap.peek() {
            if ev.time_h > end_h {
                break;
            }
            let ev = self.heap.pop().expect("peeked").0;
            self.advance_to(ev.time_h);
            match ev.kind {
                EventKind::Failure { version } => {
                    if version != self.failure_version {
                        continue; // stale exposure snapshot
                    }
                    self.handle_failure();
                    self.schedule_next_failure();
                }
                EventKind::RepairDone { class } => {
                    self.failed[class] -= 1;
                    if self.working < self.model.n() {
                        self.working += 1;
                    } else {
                        self.free_spares += 1;
                    }
                    self.schedule_next_failure();
                }
                EventKind::StartupDone { class } => {
                    self.starting[class] -= 1;
                    if self.working < self.model.n() {
                        self.working += 1;
                    } else {
                        self.free_spares += 1;
                    }
                    self.schedule_next_failure();
                }
            }
            self.note_down_transition();
        }
        self.advance_to(end_h);
    }

    fn handle_failure(&mut self) {
        // Choose the failure class proportionally to its rate.
        let total: f64 = self
            .model
            .classes()
            .iter()
            .map(|c| c.rate().per_hour_value())
            .sum();
        let mut pick: f64 = self.rng.gen_range(0.0..total);
        let mut class = self.model.classes().len() - 1;
        for (i, c) in self.model.classes().iter().enumerate() {
            pick -= c.rate().per_hour_value();
            if pick <= 0.0 {
                class = i;
                break;
            }
        }
        // Choose the victim: a working resource or an exposed idle spare.
        let exposed_spares = if self.model.spares_exposed() {
            self.free_spares
        } else {
            0
        };
        let victims = self.working + exposed_spares;
        if victims == 0 {
            return;
        }
        let hits_spare = exposed_spares > 0 && self.rng.gen_range(0..victims) >= self.working;
        if hits_spare {
            self.free_spares -= 1;
        } else {
            self.working -= 1;
            // Failover-class failures pull in a spare (when one is free).
            let c = &self.model.classes()[class];
            if c.uses_failover() && self.free_spares > 0 {
                self.free_spares -= 1;
                self.starting[class] += 1;
                let dt = self.service_time(c.failover_time().hours());
                self.push(self.now_h + dt, EventKind::StartupDone { class });
            }
        }
        self.failed[class] += 1;
        let mttr_h = self.model.classes()[class].mttr().hours();
        let dt = self.service_time(mttr_h);
        self.push(self.now_h + dt, EventKind::RepairDone { class });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CtmcEngine, FailureClass};
    use aved_units::Duration;

    fn class(mtbf_h: f64, mttr_h: f64) -> FailureClass {
        FailureClass::new(
            "c",
            Duration::from_hours(mtbf_h).rate(),
            Duration::from_hours(mttr_h),
            Duration::ZERO,
            false,
        )
    }

    #[test]
    fn matches_two_state_closed_form() {
        let model = TierModel::new(1, 1, 0).with_class(class(100.0, 2.0));
        let r = SimulationEngine::new(1)
            .with_years(300.0)
            .run(&model)
            .unwrap();
        let expect = 2.0 / 102.0;
        let got = r.availability().unavailability();
        assert!(
            (got - expect).abs() / expect < 0.1,
            "got {got}, expect {expect}"
        );
        assert!(r.n_down_events() > 100);
        assert!(r.simulated_years() == 300.0);
    }

    #[test]
    fn matches_ctmc_on_redundant_tier() {
        let model = TierModel::new(3, 2, 0).with_class(class(200.0, 8.0));
        let sim = SimulationEngine::new(7)
            .with_years(20_000.0)
            .run(&model)
            .unwrap();
        let exact = CtmcEngine::default().evaluate(&model).unwrap();
        let (a, b) = (sim.availability().unavailability(), exact.unavailability());
        assert!((a - b).abs() / b < 0.1, "sim {a} vs ctmc {b}");
    }

    #[test]
    fn matches_ctmc_with_failover_spares() {
        let model = TierModel::new(2, 2, 1).with_class(FailureClass::new(
            "hw/hard",
            Duration::from_hours(2000.0).rate(),
            Duration::from_hours(38.0),
            Duration::from_mins(5.0),
            true,
        ));
        let sim = SimulationEngine::new(11)
            .with_years(50_000.0)
            .run(&model)
            .unwrap();
        let exact = CtmcEngine::default().evaluate(&model).unwrap();
        let (a, b) = (sim.availability().unavailability(), exact.unavailability());
        assert!((a - b).abs() / b < 0.15, "sim {a} vs ctmc {b}");
    }

    #[test]
    fn deterministic_repairs_reduce_variance_of_downtime() {
        // With deterministic repairs the unavailability mean is unchanged
        // (PASTA-like insensitivity does not hold exactly here, but the
        // mean must be in the same ballpark).
        let model = TierModel::new(1, 1, 0).with_class(class(100.0, 2.0));
        let exp = SimulationEngine::new(3)
            .with_years(2000.0)
            .run(&model)
            .unwrap();
        let det = SimulationEngine::new(3)
            .with_years(2000.0)
            .with_distribution(RepairDistribution::Deterministic)
            .run(&model)
            .unwrap();
        let (a, b) = (
            exp.availability().unavailability(),
            det.availability().unavailability(),
        );
        assert!((a - b).abs() / a < 0.1, "exp {a} vs det {b}");
    }

    #[test]
    fn seeds_are_deterministic() {
        let model = TierModel::new(2, 1, 0).with_class(class(50.0, 1.0));
        let a = SimulationEngine::new(99)
            .with_years(100.0)
            .run(&model)
            .unwrap();
        let b = SimulationEngine::new(99)
            .with_years(100.0)
            .run(&model)
            .unwrap();
        assert_eq!(
            a.availability().unavailability(),
            b.availability().unavailability()
        );
        let c = SimulationEngine::new(100)
            .with_years(100.0)
            .run(&model)
            .unwrap();
        assert_ne!(
            a.availability().unavailability(),
            c.availability().unavailability()
        );
    }

    #[test]
    fn half_width_shrinks_with_horizon() {
        let model = TierModel::new(1, 1, 0).with_class(class(100.0, 2.0));
        let short = SimulationEngine::new(5)
            .with_years(50.0)
            .run(&model)
            .unwrap();
        let long = SimulationEngine::new(5)
            .with_years(5000.0)
            .run(&model)
            .unwrap();
        assert!(long.relative_half_width() < short.relative_half_width());
    }

    #[test]
    fn rejects_invalid_model() {
        let bad = TierModel::new(1, 2, 0).with_class(class(1.0, 1.0));
        assert!(SimulationEngine::new(0).run(&bad).is_err());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_horizon_panics() {
        let _ = SimulationEngine::new(0).with_years(0.0);
    }
}
