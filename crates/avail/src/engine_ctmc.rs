//! The reference engine: a truncated multi-class CTMC with failover
//! transients.

use aved_markov::{explore, Explored, FallbackSolver, SolveBudget, SolveScratch};
use aved_units::Rate;

use crate::session::{CachedChain, ChainKey};
use crate::{
    AvailError, AvailabilityEngine, EvalHealth, EvalSession, SessionStats, TierAvailability,
    TierModel,
};

/// State of the tier CTMC: failed-resource count per failure class, plus an
/// optional in-progress failover (the class that triggered it).
///
/// Both fit in a `u8`: counts never exceed the truncation depth, which
/// [`CtmcEngine::with_max_concurrent`] caps at [`MAX_DEPTH`], and class
/// indices stay below [`MAX_CLASSES`], which [`TierModel::check`] enforces.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct St {
    pub(crate) failed: Vec<u8>,
    pub(crate) failover: Option<u8>,
}

/// The deepest truncation a `u8` failed count can hold.
const MAX_DEPTH: u32 = u8::MAX as u32;

/// The most failure classes whose indices fit in a `u8`.
pub(crate) const MAX_CLASSES: usize = u8::MAX as usize + 1;

/// The largest chain solved dense first; larger chains start with the
/// iterative stages.
const DENSE_MAX_STATES: usize = 3000;

/// Derived per-state quantities shared by the transition rules and the
/// reward function.
#[derive(Debug, Clone, Copy)]
struct View {
    /// Resources currently delivering service.
    working: u32,
    /// Failure-exposed idle spares.
    free_spares: u32,
    /// Whether a failover-class failure would be backfilled by a spare.
    backfill_available: bool,
}

fn view(model: &TierModel, st: &St) -> View {
    let n_total = model.n_total();
    let mut failed_total: u32 = 0;
    let mut failed_failover: u32 = 0;
    for (i, &k) in st.failed.iter().enumerate() {
        failed_total += u32::from(k);
        if model.classes()[i].uses_failover() {
            failed_failover += u32::from(k);
        }
    }
    let failed_restart = failed_total - failed_failover;
    let available = n_total.saturating_sub(failed_total);
    // Spares backfill failover-class failures (restart-class failures are
    // repaired in place), so the number of filled active roles is bounded by
    // the resources not held by failover-class repairs.
    let remaining = n_total - failed_failover;
    let roles = model.n().min(remaining);
    let working = roles.saturating_sub(failed_restart);
    let free_spares = available.saturating_sub(working);
    // One more failover-class failure is backfilled iff the role count
    // survives it.
    let backfill_available = remaining > 0 && model.n().min(remaining - 1) == roles;
    View {
        working,
        free_spares,
        backfill_available,
    }
}

fn is_down(model: &TierModel, st: &St) -> bool {
    st.failover.is_some() || view(model, st).working < model.m()
}

/// Steady-state availability engine built on an exact (truncated) CTMC.
///
/// The chain's state is the vector of failed-resource counts per failure
/// class plus an optional failover-in-progress marker. Failures strike
/// working resources (and hot spares, when the model exposes them); repairs
/// proceed per failed resource; a failover transient is entered when a
/// failover-class failure would drop the active count below `m` and a
/// spare can restore it. The state space is truncated at
/// [`max_concurrent`](Self::with_max_concurrent) simultaneous failures
/// (default 5), which bounds the chain to a few hundred states regardless
/// of cluster size — the probability of deeper overlap is negligible when
/// MTBF ≫ MTTR, and the `ablation_truncation` bench quantifies this.
///
/// # Examples
///
/// ```
/// use aved_avail::{AvailabilityEngine, CtmcEngine, FailureClass, TierModel};
/// use aved_units::Duration;
///
/// // One machine, MTBF 1000 h, MTTR 10 h: unavailability 10/1010.
/// let model = TierModel::new(1, 1, 0).with_class(FailureClass::new(
///     "hw",
///     Duration::from_hours(1000.0).rate(),
///     Duration::from_hours(10.0),
///     Duration::ZERO,
///     false,
/// ));
/// let result = CtmcEngine::default().evaluate(&model)?;
/// assert!((result.unavailability() - 10.0 / 1010.0).abs() < 1e-12);
/// # Ok::<(), aved_avail::AvailError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtmcEngine {
    max_concurrent: u32,
}

impl CtmcEngine {
    /// Creates an engine with the default truncation depth (5 concurrent
    /// failures).
    #[must_use]
    pub fn new() -> CtmcEngine {
        CtmcEngine { max_concurrent: 5 }
    }

    /// Sets the maximum number of simultaneous failed resources modeled.
    ///
    /// # Panics
    ///
    /// Panics if `max_concurrent` is zero or above 255 (the chain stores
    /// per-class failed counts in a byte).
    #[must_use]
    pub fn with_max_concurrent(mut self, max_concurrent: u32) -> CtmcEngine {
        assert!(max_concurrent > 0, "truncation depth must be positive");
        assert!(
            max_concurrent <= MAX_DEPTH,
            "truncation depth must be at most {MAX_DEPTH}, got {max_concurrent}"
        );
        self.max_concurrent = max_concurrent;
        self
    }

    /// The truncation depth.
    #[must_use]
    pub fn max_concurrent(&self) -> u32 {
        self.max_concurrent
    }

    /// Which explored states count as service-down (exposed for the
    /// mission-time analyses).
    pub(crate) fn down_mask(&self, model: &TierModel, explored: &Explored<St>) -> Vec<bool> {
        explored
            .states()
            .iter()
            .map(|st| is_down(model, st))
            .collect()
    }

    /// The transition rules of the tier chain: successors of `st` with
    /// their rates, in a deterministic rule order. Shared between the
    /// initial exploration and the rate-only in-place rebuild
    /// ([`Explored::repatch`]) so both see the exact same rule sequence.
    ///
    /// Every emitted rate is positive (failure rates, MTTRs and failover
    /// times are validated positive, and the resource-count factors gate
    /// the rule), so the chain's sparsity structure is a function of the
    /// model's *shape* only — the invariant [`ChainKey`] relies on.
    fn successor_rates(&self, model: &TierModel, cap: u32, st: &St) -> Vec<(f64, St)> {
        let mut out: Vec<(f64, St)> = Vec::new();
        let v = view(model, st);
        let failed_total: u32 = st.failed.iter().map(|&k| u32::from(k)).sum();

        // Failures (only below the truncation cap).
        if failed_total < cap {
            for (i, class) in model.classes().iter().enumerate() {
                let lambda = class.rate().per_hour_value();
                // Active-resource failures.
                let active_rate = f64::from(v.working) * lambda;
                if active_rate > 0.0 {
                    let mut next = st.clone();
                    next.failed[i] += 1;
                    if st.failover.is_none()
                        && class.uses_failover()
                        && v.backfill_available
                        && v.working - 1 < model.m()
                    {
                        next.failover = Some(i as u8);
                    }
                    out.push((active_rate, next));
                }
                // Hot-spare failures (no transient: losing an idle spare
                // never interrupts service by itself).
                if model.spares_exposed() {
                    let spare_rate = f64::from(v.free_spares) * lambda;
                    if spare_rate > 0.0 {
                        let mut next = st.clone();
                        next.failed[i] += 1;
                        out.push((spare_rate, next));
                    }
                }
            }
        }

        // Repairs: each failed resource repairs independently.
        for (i, class) in model.classes().iter().enumerate() {
            if st.failed[i] > 0 {
                let mu = 1.0 / class.mttr().hours();
                let mut next = st.clone();
                next.failed[i] -= 1;
                out.push((f64::from(st.failed[i]) * mu, next));
            }
        }

        // Failover completion.
        if let Some(fo) = st.failover {
            let class = &model.classes()[fo as usize];
            let mut next = st.clone();
            next.failover = None;
            out.push((1.0 / class.failover_time().hours(), next));
        }
        out
    }

    /// Builds and explores the tier chain under a cooperative
    /// [`SolveBudget`]: the breadth-first frontier polls the budget's state
    /// cap, deadline and cancellation token while it grows. Exposed for
    /// the export and mission-time analyses and for tests.
    pub(crate) fn explore_chain(
        &self,
        model: &TierModel,
        budget: &SolveBudget,
    ) -> Result<Explored<St>, AvailError> {
        let cap = self.max_concurrent.min(model.n_total());
        let n_classes = model.classes().len();
        let initial = St {
            failed: vec![0; n_classes],
            failover: None,
        };
        let explored = explore(
            initial,
            2_000_000,
            |st: &St| self.successor_rates(model, cap, st),
            budget,
        )?;
        Ok(explored)
    }

    /// Solves a prepared chain (explored + down mask) and folds the solve
    /// into the result and the session counters. The single code path
    /// behind both one-shot and session evaluations.
    fn evaluate_chain(
        &self,
        cached: &mut CachedChain,
        session_scratch: &mut SolveScratch,
        stats: &mut SessionStats,
        budget: &SolveBudget,
    ) -> Result<(TierAvailability, EvalHealth), AvailError> {
        let ctmc = cached.explored.ctmc();
        // Resilient solve: dense first up to `DENSE_MAX_STATES` (exact and
        // fastest there), Gauss-Seidel -> power -> dense above it; every
        // accepted solution passes an independent `‖πQ‖∞ <= 1e-9` residual
        // check. A structure that already produced an accepted solve
        // (repatching only changes rates) skips re-verifying strong
        // connectivity.
        let solver = FallbackSolver::default()
            .with_dense_preferred_below(DENSE_MAX_STATES + 1)
            .with_irreducibility_assumed(cached.solved);
        let (pi, diagnostics) = solver.solve(ctmc, session_scratch, budget);
        let pi = pi?;

        stats.solves += 1;
        if cached.solved {
            stats.warm_hits += 1;
        }
        stats.iterations += diagnostics.total_iterations();

        let health = EvalHealth {
            fallbacks: u32::try_from(diagnostics.fallbacks_taken()).unwrap_or(u32::MAX),
            worst_residual: diagnostics.accepted_residual(),
        };

        let down = &cached.down;
        let unavailability: f64 = pi
            .iter()
            .zip(down.iter())
            .filter(|(_, &d)| d)
            .map(|(&p, _)| p)
            .sum();

        // Down-event rate: probability flow from up states into down states.
        let mut event_rate = 0.0;
        for t in ctmc.transitions() {
            if !down[t.from] && down[t.to] {
                event_rate += pi[t.from] * t.rate;
            }
        }
        if !unavailability.is_finite() || !event_rate.is_finite() {
            // The residual check upstream should make this unreachable;
            // surface an error rather than panicking in the constructor.
            return Err(AvailError::InvalidModel {
                detail: format!(
                    "solver produced non-finite results (unavailability {unavailability}, \
                     event rate {event_rate})"
                ),
            });
        }
        cached.solved = true;
        Ok((
            TierAvailability::new(unavailability.clamp(0.0, 1.0), Rate::per_hour(event_rate)),
            health,
        ))
    }
}

impl Default for CtmcEngine {
    fn default() -> CtmcEngine {
        CtmcEngine::new()
    }
}

impl AvailabilityEngine for CtmcEngine {
    fn evaluate(&self, model: &TierModel) -> Result<TierAvailability, AvailError> {
        self.evaluate_with_health(model).map(|(r, _)| r)
    }

    fn evaluate_with_health(
        &self,
        model: &TierModel,
    ) -> Result<(TierAvailability, EvalHealth), AvailError> {
        // One-shot evaluation is the session path with a throwaway session;
        // a session changes how fast an answer comes, never its bits.
        let mut session = EvalSession::new();
        self.evaluate_with_session(model, &mut session)
    }

    fn evaluate_with_session(
        &self,
        model: &TierModel,
        session: &mut EvalSession,
    ) -> Result<(TierAvailability, EvalHealth), AvailError> {
        model.check()?;
        let cap = self.max_concurrent.min(model.n_total());
        let EvalSession {
            scratch,
            chains,
            stats,
            budget,
        } = session;
        // Per-candidate view of the session budget: a candidate timeout
        // restarts its clock here, while the global deadline, caps and
        // cancellation token carry over unchanged.
        let budget = budget.for_candidate();

        let Some(key) = ChainKey::for_model(model, cap) else {
            // Shape too wide for a key (>64 classes): evaluate uncached but
            // still through the shared solve path and scratch arena.
            let explored = self.explore_chain(model, &budget)?;
            let down = self.down_mask(model, &explored);
            let mut local = CachedChain {
                explored,
                down,
                solved: false,
            };
            return self.evaluate_chain(&mut local, scratch, stats, &budget);
        };

        // Same shape seen before: patch the cached chain's rates in place
        // instead of re-exploring. `repatch` verifies the structure exactly
        // and leaves the chain untouched on any mismatch, so a (practically
        // impossible) key collision falls back to a full re-explore below.
        let repatched = match chains.get_mut(&key) {
            Some(cached) => cached
                .explored
                .repatch(|st| self.successor_rates(model, cap, st)),
            None => false,
        };
        if repatched {
            stats.rebuilds_avoided += 1;
        } else {
            let explored = self.explore_chain(model, &budget)?;
            let down = self.down_mask(model, &explored);
            chains.insert(
                key.clone(),
                CachedChain {
                    explored,
                    down,
                    solved: false,
                },
            );
        }
        let cached = chains.get_mut(&key).expect("entry inserted above");
        self.evaluate_chain(cached, scratch, stats, &budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FailureClass;
    use aved_markov::birth_death;
    use aved_units::Duration;

    fn simple_class(mtbf_h: f64, mttr_h: f64) -> FailureClass {
        FailureClass::new(
            "c",
            Duration::from_hours(mtbf_h).rate(),
            Duration::from_hours(mttr_h),
            Duration::ZERO,
            false,
        )
    }

    #[test]
    fn single_machine_matches_closed_form() {
        let model = TierModel::new(1, 1, 0).with_class(simple_class(1000.0, 10.0));
        let r = CtmcEngine::default().evaluate(&model).unwrap();
        assert!((r.unavailability() - 10.0 / 1010.0).abs() < 1e-12);
        // Down events happen at rate lambda * P(up).
        let expect_rate = (1.0 / 1000.0) * (1000.0 / 1010.0);
        assert!((r.down_event_rate().per_hour_value() - expect_rate).abs() < 1e-12);
    }

    #[test]
    fn k_of_n_matches_birth_death() {
        // 4 actives, 2 required, no spares, one class; cap high enough to be
        // exact (4 concurrent failures possible).
        let (mtbf, mttr) = (500.0, 5.0);
        let model = TierModel::new(4, 2, 0).with_class(simple_class(mtbf, mttr));
        let r = CtmcEngine::default()
            .with_max_concurrent(4)
            .evaluate(&model)
            .unwrap();

        // Reference: birth-death over failed count; only working resources
        // fail (working = 4 - k), per-resource repair.
        let lambda = 1.0 / mtbf;
        let mu = 1.0 / mttr;
        let births: Vec<f64> = (0..4).map(|k| f64::from(4 - k) * lambda).collect();
        let deaths: Vec<f64> = (0..4).map(|k| f64::from(k + 1) * mu).collect();
        let pi = birth_death::steady_state(&births, &deaths).unwrap();
        let expect: f64 = pi[3] + pi[4]; // down when fewer than 2 working
        assert!(
            (r.unavailability() - expect).abs() < 1e-12,
            "got {}, expect {expect}",
            r.unavailability()
        );
    }

    #[test]
    fn extra_active_reduces_downtime() {
        let base = TierModel::new(2, 2, 0).with_class(simple_class(1000.0, 10.0));
        let extra = TierModel::new(3, 2, 0).with_class(simple_class(1000.0, 10.0));
        let e = CtmcEngine::default();
        let d0 = e.evaluate(&base).unwrap().unavailability();
        let d1 = e.evaluate(&extra).unwrap().unavailability();
        assert!(
            d1 < d0 / 10.0,
            "redundancy should cut downtime sharply: {d0} vs {d1}"
        );
    }

    #[test]
    fn failover_transient_matches_hand_built_chain() {
        // n=1, m=1, s=1, one failover class. States (by construction):
        // (0, -), (1, FO), (1, -), (2, -) ... with cap 2.
        let (mtbf_h, mttr_h, fo_h) = (1000.0, 38.0, 0.1);
        let model = TierModel::new(1, 1, 1).with_class(FailureClass::new(
            "hw/hard",
            Duration::from_hours(mtbf_h).rate(),
            Duration::from_hours(mttr_h),
            Duration::from_hours(fo_h),
            true,
        ));
        let r = CtmcEngine::default().evaluate(&model).unwrap();

        // First-order accounting of the two downtime sources:
        // 1. every failure triggers a failover transient of mean `fo`
        //    (the single active dropping below m=1): rate lambda, so a
        //    time fraction of ~ lambda * fo;
        // 2. while one resource is in repair (time fraction ~ lambda*mttr),
        //    a second failure has no spare left and the service stays down
        //    until the *first* of the two independent repairs completes —
        //    mean mttr/2.
        let lambda = 1.0 / mtbf_h;
        let transient = lambda * fo_h;
        let double = (lambda * mttr_h) * (lambda * mttr_h / 2.0);
        let approx = transient + double;
        let rel = (r.unavailability() - approx).abs() / approx;
        assert!(
            rel < 0.05,
            "unavailability {} vs first-order estimate {approx} (rel {rel})",
            r.unavailability()
        );
    }

    #[test]
    fn spare_cuts_downtime_versus_no_spare() {
        let mk = |s: u32, uses_fo: bool| {
            TierModel::new(2, 2, s).with_class(FailureClass::new(
                "hw/hard",
                Duration::from_days(650.0).rate(),
                Duration::from_hours(38.0),
                Duration::from_mins(5.0),
                uses_fo,
            ))
        };
        let e = CtmcEngine::default();
        let without = e.evaluate(&mk(0, false)).unwrap().annual_downtime();
        let with = e.evaluate(&mk(1, true)).unwrap().annual_downtime();
        // Without a spare each failure costs ~38h; with one it costs ~5min.
        assert!(
            with.minutes() < without.minutes() / 50.0,
            "spare: {} vs none: {}",
            with.minutes(),
            without.minutes()
        );
    }

    #[test]
    fn truncation_converges() {
        // Paper-like tier (m = n, spares): downtime is dominated by
        // single-failure transients, so shallow truncation already captures
        // it and deepening the cap must not move the estimate.
        let model = TierModel::new(4, 4, 1)
            .with_class(FailureClass::new(
                "hw/hard",
                Duration::from_days(650.0).rate(),
                Duration::from_hours(38.0),
                Duration::from_mins(5.0),
                true,
            ))
            .with_class(simple_class(60.0 * 24.0, 0.07));
        let eval = |cap: u32| {
            CtmcEngine::default()
                .with_max_concurrent(cap)
                .evaluate(&model)
                .unwrap()
                .unavailability()
        };
        let shallow = eval(3);
        let deep = eval(5);
        let rel = (shallow - deep).abs() / deep;
        assert!(rel < 1e-3, "truncation error too large: {rel}");
    }

    #[test]
    fn truncation_plateau_once_down_states_are_covered() {
        // Redundant tier where downtime needs 4 concurrent failures: caps
        // below 4 see (almost) none of it, caps >= 4 agree with each other.
        let model = TierModel::new(6, 4, 1)
            .with_class(FailureClass::new(
                "hw/hard",
                Duration::from_days(650.0).rate(),
                Duration::from_hours(38.0),
                Duration::from_mins(5.0),
                true,
            ))
            .with_class(simple_class(60.0 * 24.0, 0.07));
        let eval = |cap: u32| {
            CtmcEngine::default()
                .with_max_concurrent(cap)
                .evaluate(&model)
                .unwrap()
                .unavailability()
        };
        let at4 = eval(4);
        let at7 = eval(7);
        assert!(
            eval(3) < at4 / 100.0,
            "cap 3 should miss the 4-failure states"
        );
        assert!((at4 - at7).abs() / at7 < 2e-3, "cap 4 vs 7: {at4} vs {at7}");
    }

    #[test]
    fn hot_spares_increase_failure_exposure_but_keep_service_up() {
        let cold = TierModel::new(2, 2, 1).with_class(FailureClass::new(
            "hw",
            Duration::from_days(100.0).rate(),
            Duration::from_hours(10.0),
            Duration::from_mins(5.0),
            true,
        ));
        let hot = cold.clone().with_exposed_spares(true);
        let e = CtmcEngine::default();
        let d_cold = e.evaluate(&cold).unwrap().unavailability();
        let d_hot = e.evaluate(&hot).unwrap().unavailability();
        // A hot spare can be dead exactly when needed, so exposure raises
        // unavailability somewhat; but it must stay the same order.
        assert!(d_hot >= d_cold);
        assert!(d_hot < d_cold * 3.0, "hot {d_hot} vs cold {d_cold}");
    }

    #[test]
    fn rejects_invalid_model() {
        let bad = TierModel::new(1, 1, 0); // no classes
        assert!(CtmcEngine::default().evaluate(&bad).is_err());
    }

    #[test]
    fn state_space_is_independent_of_cluster_size() {
        let mk = |n: u32| {
            TierModel::new(n, n, 2).with_class(FailureClass::new(
                "hw",
                Duration::from_days(650.0).rate(),
                Duration::from_hours(38.0),
                Duration::from_mins(5.0),
                true,
            ))
        };
        let e = CtmcEngine::default();
        let small = e
            .explore_chain(&mk(4), &SolveBudget::unlimited())
            .unwrap()
            .n_states();
        let large = e
            .explore_chain(&mk(400), &SolveBudget::unlimited())
            .unwrap()
            .n_states();
        assert_eq!(small, large);
        assert!(large < 50, "truncated chain should stay tiny, got {large}");
    }

    /// A Fig.-7-style rate sweep: same structure, different MTBF/MTTR per
    /// step, which is exactly the neighborhood the session's repatch
    /// machinery targets.
    fn rate_sweep(step: u32) -> TierModel {
        let mtbf_days = 400.0 + 50.0 * f64::from(step);
        let mttr_hours = 48.0 - 4.0 * f64::from(step);
        TierModel::new(3, 3, 1)
            .with_class(FailureClass::new(
                "hw/hard",
                Duration::from_days(mtbf_days).rate(),
                Duration::from_hours(mttr_hours),
                Duration::from_mins(5.0),
                true,
            ))
            .with_class(simple_class(60.0 * 24.0, 0.07 + 0.01 * f64::from(step)))
    }

    #[test]
    fn session_evaluation_is_bit_identical_to_one_shot() {
        // Session state must not perturb anything: the session path has to
        // reproduce the one-shot result bit for bit at every step of the
        // sweep, regardless of what the session accumulated from earlier
        // (different-rate) models.
        let engine = CtmcEngine::default();
        let mut session = EvalSession::new();
        for step in 0..6 {
            let model = rate_sweep(step);
            let (one_shot, health_cold) = engine.evaluate_with_health(&model).unwrap();
            let (warm, health_warm) = engine.evaluate_with_session(&model, &mut session).unwrap();
            assert_eq!(
                warm.unavailability().to_bits(),
                one_shot.unavailability().to_bits(),
                "step {step}"
            );
            assert_eq!(
                warm.down_event_rate().per_hour_value().to_bits(),
                one_shot.down_event_rate().per_hour_value().to_bits(),
                "step {step}"
            );
            assert_eq!(health_warm.fallbacks, health_cold.fallbacks);
        }
        // All six models share one structural shape: one exploration, five
        // in-place rebuilds, every later solve a warm hit.
        assert_eq!(session.cached_chains(), 1);
        assert_eq!(session.stats().solves, 6);
        assert_eq!(session.stats().rebuilds_avoided, 5);
        assert_eq!(session.stats().warm_hits, 5);
    }

    #[test]
    fn session_agrees_with_one_shot_on_the_iterative_path() {
        // A seven-class chain is past the dense cutover, so every solve runs
        // the iterative stages; a session still reproduces the one-shot
        // result bit for bit at every step of a rate sweep.
        let engine = CtmcEngine::default();
        let mut session = EvalSession::new();
        for step in 0..3 {
            let model = wide_tier(1.0 + 0.1 * f64::from(step));
            let one_shot = engine.evaluate_with_health(&model).unwrap().0;
            let reused = engine
                .evaluate_with_session(&model, &mut session)
                .unwrap()
                .0;
            assert_eq!(
                reused.unavailability().to_bits(),
                one_shot.unavailability().to_bits(),
                "step {step}"
            );
        }
        let stats = session.stats();
        assert_eq!((stats.warm_hits, stats.rebuilds_avoided), (2, 2));
        assert!(
            stats.iterations > 0,
            "the iterative path must run: {stats:?}"
        );
    }

    #[test]
    fn iterative_result_does_not_depend_on_the_previous_model() {
        // The same large chain, solved in a session right after a different
        // model of its shape, keeps the one-shot result's bits.
        let engine = CtmcEngine::default();
        let model = wide_tier(1.0);
        let one_shot = engine.evaluate(&model).unwrap();
        let mut session = EvalSession::new();
        engine
            .evaluate_with_session(&wide_tier(0.5), &mut session)
            .unwrap();
        let after = engine
            .evaluate_with_session(&model, &mut session)
            .unwrap()
            .0;
        assert_eq!(session.stats().rebuilds_avoided, 1);
        assert_eq!(
            after.unavailability().to_bits(),
            one_shot.unavailability().to_bits()
        );
        assert_eq!(
            after.down_event_rate().per_hour_value().to_bits(),
            one_shot.down_event_rate().per_hour_value().to_bits()
        );
    }

    #[test]
    fn session_survives_structural_changes() {
        // Interleave two different shapes: each keeps its own cached chain
        // and solved flag, and results still match the one-shot path.
        let engine = CtmcEngine::default();
        let mut session = EvalSession::new();
        for step in 0..4 {
            let narrow = rate_sweep(step);
            let wide =
                TierModel::new(4, 2, 0).with_class(simple_class(500.0 + f64::from(step), 5.0));
            for model in [&narrow, &wide] {
                let one_shot = engine.evaluate_with_health(model).unwrap().0;
                let warm = engine.evaluate_with_session(model, &mut session).unwrap().0;
                assert_eq!(
                    warm.unavailability().to_bits(),
                    one_shot.unavailability().to_bits()
                );
            }
        }
        assert_eq!(session.cached_chains(), 2);
        assert_eq!(session.stats().rebuilds_avoided, 6);
    }

    #[test]
    fn session_budget_governs_exploration_and_solving() {
        use aved_markov::{CancelToken, MarkovError};
        let model = rate_sweep(0);
        let engine = CtmcEngine::default();

        // A tiny state cap trips during exploration, surfaced as a
        // budget-exhaustion error (not the legacy truncation error).
        let mut starved = EvalSession::new()
            .with_budget(aved_markov::SolveBudget::unlimited().with_max_states(3));
        let err = engine
            .evaluate_with_session(&model, &mut starved)
            .unwrap_err();
        assert!(
            matches!(
                err,
                crate::AvailError::Markov(MarkovError::BudgetExhausted { .. })
            ),
            "{err:?}"
        );

        // A cancelled token aborts before any work happens.
        let token = CancelToken::new();
        token.cancel();
        let mut cancelled = EvalSession::new()
            .with_budget(aved_markov::SolveBudget::unlimited().with_cancel(token));
        let err = engine
            .evaluate_with_session(&model, &mut cancelled)
            .unwrap_err();
        assert!(
            matches!(
                err,
                crate::AvailError::Markov(MarkovError::Cancelled { .. })
            ),
            "{err:?}"
        );

        // The default (unlimited) session budget reproduces the one-shot
        // result bit for bit.
        let mut unlimited = EvalSession::new();
        let governed = engine
            .evaluate_with_session(&model, &mut unlimited)
            .unwrap()
            .0;
        let one_shot = engine.evaluate_with_health(&model).unwrap().0;
        assert_eq!(
            governed.unavailability().to_bits(),
            one_shot.unavailability().to_bits()
        );
    }

    /// A seven-class tier whose exact chain (3960 states) is past the dense
    /// cutover. `mtbf_scale` varies the rates, not the structure.
    fn wide_tier(mtbf_scale: f64) -> TierModel {
        (0..7).fold(TierModel::new(6, 6, 1), |tier, i| {
            tier.with_class(FailureClass::new(
                format!("class{i}"),
                Duration::from_days(mtbf_scale * (60.0 + 90.0 * f64::from(i))).rate(),
                Duration::from_hours(0.1 + 6.0 * f64::from(i)),
                Duration::from_mins(5.0),
                i < 4,
            ))
        })
    }

    /// Paper-style four-class tier models whose exact chains have the two
    /// sizes that dominate exact-engine design queries.
    fn paper_tier(n: u32, m: u32, s: u32) -> TierModel {
        let soft = |label: &str, mtbf_days: f64, restart_mins: f64| {
            FailureClass::new(
                label,
                Duration::from_days(mtbf_days).rate(),
                Duration::from_mins(restart_mins),
                Duration::from_mins(5.0),
                false,
            )
        };
        TierModel::new(n, m, s)
            .with_class(FailureClass::new(
                "machineA/hard",
                Duration::from_days(650.0).rate(),
                Duration::from_hours(38.0),
                Duration::from_mins(5.0),
                s > 0,
            ))
            .with_class(soft("machineA/soft", 75.0, 4.2))
            .with_class(soft("linux/soft", 60.0, 3.1))
            .with_class(soft("webserver/soft", 60.0, 0.5))
    }

    #[test]
    fn tier_chain_solutions_keep_their_recorded_bits() {
        // Recorded from the scalar elimination kernel the dense stage used
        // before it was vectorised; a kernel change that moves any bit of π
        // on these real tier chains fails here.
        let cases = [
            (
                paper_tier(10, 6, 0),
                126,
                0xa3cc_4837_02de_3f69_u64,
                0x3dbb_4439_5217_0771_u64,
                0x3ddb_3438_94a2_895b_u64,
            ),
            (
                paper_tier(6, 6, 1),
                252,
                0x726d_5e54_6052_a1d4,
                0x3f44_5422_26da_4f0a,
                0x3f88_aa6c_3b94_bbe7,
            ),
        ];
        let engine = CtmcEngine::default();
        for (model, n_states, pi_print, unavail_bits, rate_bits) in cases {
            let explored = engine
                .explore_chain(&model, &SolveBudget::unlimited())
                .unwrap();
            assert_eq!(explored.n_states(), n_states);
            let (pi, _) = FallbackSolver::default().solve(
                explored.ctmc(),
                &mut SolveScratch::new(),
                &SolveBudget::unlimited(),
            );
            let print = pi
                .unwrap()
                .iter()
                .fold(0_u64, |h, p| h.rotate_left(7) ^ p.to_bits());
            let r = engine.evaluate(&model).unwrap();
            assert_eq!(print, pi_print, "{n_states}-state chain: π fingerprint");
            assert_eq!(r.unavailability().to_bits(), unavail_bits);
            assert_eq!(r.down_event_rate().per_hour_value().to_bits(), rate_bits);
        }
    }

    #[test]
    fn first_solve_of_a_structure_checks_irreducibility() {
        use aved_markov::MarkovError;
        // An absorbing chain, 0 -> 1 with no way back. Elimination alone
        // would accept it (all mass in state 1 balances), so only the
        // connectivity check can reject it.
        let st = |k: u8| St {
            failed: vec![k],
            failover: None,
        };
        let rule = |s: &St| {
            if s.failed[0] == 0 {
                vec![(1.0, st(1))]
            } else {
                vec![]
            }
        };
        let explored = explore(st(0), 10, rule, &SolveBudget::unlimited()).unwrap();
        let mut chain = CachedChain {
            explored,
            down: vec![false, true],
            solved: false,
        };
        let engine = CtmcEngine::default();
        let mut scratch = SolveScratch::new();
        let mut stats = SessionStats::default();
        let budget = SolveBudget::unlimited();
        let first = engine.evaluate_chain(&mut chain, &mut scratch, &mut stats, &budget);
        assert!(
            matches!(
                first,
                Err(AvailError::Markov(MarkovError::Reducible { .. }))
            ),
            "{first:?}"
        );
        // A chain marked solved is a structure that already passed a
        // solve, so the check is skipped and elimination runs.
        chain.solved = true;
        let again = engine.evaluate_chain(&mut chain, &mut scratch, &mut stats, &budget);
        assert!(again.is_ok(), "{again:?}");
    }

    #[test]
    #[should_panic(expected = "truncation depth must be at most 255")]
    fn truncation_depth_must_fit_a_byte() {
        // 255 is the deepest count a `u8` holds; 256 would wrap.
        assert_eq!(
            CtmcEngine::default()
                .with_max_concurrent(255)
                .max_concurrent(),
            255
        );
        let _ = CtmcEngine::default().with_max_concurrent(256);
    }
}
