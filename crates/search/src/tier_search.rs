//! The per-tier search algorithm of paper §4.1: one [`Sweep`] batch per
//! resource-count level, skipping candidates that already cost strictly
//! more than a known-feasible design (dominance pruning: such a candidate
//! can never win a minimum-cost search).

use std::ops::Range;
use std::time::Instant;

use aved_units::Duration;

use crate::sweep::{Batch, Objective, Sweep};
use crate::{EvalContext, EvaluatedDesign, SearchError, SearchHealth, SearchOptions};

/// Counters describing how much work a search did — the basis of the
/// pruning-effectiveness ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Candidates whose cost was computed.
    pub cost_evaluations: usize,
    /// Candidates whose availability (or completion time) was evaluated.
    pub quality_evaluations: usize,
    /// Candidates rejected on cost alone after a feasible design was known
    /// ("subsequent designs are evaluated for cost first ... and higher
    /// cost designs are rejected without evaluating their availability").
    pub pruned_by_cost: usize,
    /// Resource-count levels explored across all options.
    pub totals_explored: usize,
}

/// The outcome of a tier search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    best: Option<EvaluatedDesign>,
    stats: SearchStats,
    health: SearchHealth,
}

impl SearchOutcome {
    /// The minimum-cost feasible design, or `None` when no design in the
    /// (bounded) space satisfies the requirement.
    #[must_use]
    pub fn best(&self) -> Option<&EvaluatedDesign> {
        self.best.as_ref()
    }

    /// The work counters.
    #[must_use]
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// The degraded-mode report: candidates skipped after evaluation
    /// failures, solver fallbacks taken, worst accepted residual, wall
    /// time. A trustworthy result has [`SearchHealth::is_degraded`] false.
    #[must_use]
    pub fn health(&self) -> &SearchHealth {
        &self.health
    }
}

/// How many consecutive resource-count levels may fail to improve quality
/// before an unsatisfied search concludes infeasibility.
const DEGRADE_PATIENCE: usize = 2;

/// Searches one enterprise-service tier for the minimum-cost design meeting
/// a throughput (`load`) and annual-downtime requirement, per §4.1:
///
/// 1. every resource option of the tier is searched;
/// 2. for an option, the resource count starts at the minimum meeting the
///    load with no failures and grows;
/// 3. at each count, all active/spare splits, spare modes and mechanism
///    settings are candidates;
/// 4. once any feasible design is known, candidates are screened by cost
///    first and discarded without availability evaluation if they cannot
///    win;
/// 5. an option's count stops growing when even the cheapest candidate at
///    the current count costs more than the best design found, or when
///    downtime keeps degrading with added resources while nothing is
///    feasible.
///
/// Evaluation failures are isolated to the failing candidate: the
/// candidate is skipped, the skip is recorded in the outcome's
/// [`SearchHealth`], and the search continues — unless
/// [`SearchOptions::strict`] is set, in which case the first failure
/// aborts the search.
///
/// The search runs on the calling thread; candidates are evaluated in
/// enumeration order.
///
/// # Errors
///
/// Returns [`SearchError`] for unknown tiers, or for evaluation failures
/// in strict mode.
pub fn search_tier(
    ctx: &EvalContext<'_>,
    tier_name: &str,
    load: f64,
    max_downtime: Duration,
    options: &SearchOptions,
) -> Result<SearchOutcome, SearchError> {
    search(
        ctx,
        tier_name,
        &Objective::Enterprise { load, max_downtime },
        options,
    )
}

/// Searches a finite-job tier for the minimum-cost design whose expected
/// completion time meets `max_execution_time`. Same structure as
/// [`search_tier`] with completion time as the quality metric; the count
/// starts at the smallest node count whose failure-free time meets the
/// requirement (no point below it) and grows from there.
///
/// # Errors
///
/// Returns [`SearchError`] for unknown tiers, services without a job size,
/// or evaluation failures.
pub fn search_job_tier(
    ctx: &EvalContext<'_>,
    tier_name: &str,
    max_execution_time: Duration,
    options: &SearchOptions,
) -> Result<SearchOutcome, SearchError> {
    let objective = Objective::Job {
        max_time: max_execution_time,
    };
    search(ctx, tier_name, &objective, options)
}

/// The §4.1 loop for either objective.
fn search(
    ctx: &EvalContext<'_>,
    tier_name: &str,
    objective: &Objective,
    options: &SearchOptions,
) -> Result<SearchOutcome, SearchError> {
    let started = Instant::now();
    let mut sweep = Sweep::new(ctx, tier_name, objective, options, started)?;
    // Each level is enumerated when the loop reaches it, into one batch.
    let mut batch = Batch::default();
    let (best, mut stats) =
        cost_first(&mut sweep, objective, &mut batch, |sweep, batch, level| {
            batch.clear();
            let (option, n_total, min_active) = level;
            sweep.level(batch, option, n_total, min_active)
        })?;
    stats.pruned_by_cost = usize::try_from(sweep.health.candidates_pruned).unwrap_or(usize::MAX);
    Ok(SearchOutcome {
        best,
        stats,
        health: sweep.finish(started),
    })
}

/// The cost-first loop of §4.1 over `sweep`'s tier: the minimum-cost
/// design meeting `objective`, and the work counters (all but
/// `pruned_by_cost`). `level` gives the range of `batch` holding the
/// candidates of one (option index, resource total, minimum active count)
/// level, costed: enumerated on demand by a tier search, or looked up in a
/// batch a service query enumerated up front. The loop owns the search's
/// cost bound: it hands each run the incumbent's cost, and a run lowers it
/// only when the win rule takes a new incumbent.
pub(crate) fn cost_first<'c>(
    sweep: &mut Sweep<'_, 'c>,
    objective: &Objective,
    batch: &mut Batch,
    mut level: impl FnMut(
        &mut Sweep<'_, 'c>,
        &mut Batch,
        (usize, u32, u32),
    ) -> Result<Range<usize>, SearchError>,
) -> Result<(Option<EvaluatedDesign>, SearchStats), SearchError> {
    let (ctx, options) = (sweep.ctx(), sweep.options());
    let mut stats = SearchStats::default();
    let mut best: Option<EvaluatedDesign> = None;

    'options: for (index, option) in sweep.tier.options().iter().enumerate() {
        let Some((min_active, totals)) = objective.levels(ctx, option, options)? else {
            continue; // this option can never meet the requirement
        };
        let mut best_quality_prev: Option<Duration> = None;
        let mut degrading = 0_usize;
        for n_total in totals {
            // The batch stays in enumeration (parameter-locality) order —
            // the win rule compares cost explicitly, so a cost sort would
            // only destroy the locality the evaluation sessions feed on.
            let range = level(sweep, batch, (index, n_total, min_active))?;
            if range.is_empty() {
                continue;
            }
            stats.cost_evaluations += sweep.points(batch, range.clone());
            stats.totals_explored += 1;

            // Termination: every candidate at this count (and, since cost
            // grows with the count, at later counts) costs more than the
            // incumbent.
            if let Some(b) = &best {
                if batch.cheapest(range.clone()).is_some_and(|c| c > b.cost()) {
                    break;
                }
            }

            // Cheaper wins; equal cost competes on quality — checkpoint
            // settings are free, and Fig. 7 reports the quality-optimal
            // interval within the winning configuration. The incumbent's
            // cost is the run's bound: no dearer candidate can win.
            let mut best_quality_here: Option<Duration> = None;
            let bound = best.as_ref().map(EvaluatedDesign::cost);
            stats.quality_evaluations +=
                sweep.run(objective, batch, range, bound, |evaluated| {
                    let q = objective.quality(&evaluated).ok_or_else(|| {
                        SearchError::RequirementMismatch {
                            detail: "job evaluation yielded no completion time".into(),
                        }
                    })?;
                    if best_quality_here.is_none_or(|h| q < h) {
                        best_quality_here = Some(q);
                    }
                    let wins = objective.meets(q)
                        && best.as_ref().is_none_or(|b| {
                            evaluated.cost() < b.cost()
                                || (evaluated.cost() == b.cost()
                                    && objective.quality(b).is_none_or(|bq| q < bq))
                        });
                    let cost = evaluated.cost();
                    if wins {
                        best = Some(evaluated);
                    }
                    Ok(wins.then_some(cost))
                })?;

            // Interruption stops the whole search at this batch boundary
            // with its best-so-far result; partial batch data must not feed
            // the degradation heuristic below.
            if sweep.health.interrupted {
                break 'options;
            }
            // Infeasibility detection: adding resources no longer improves
            // the best achievable quality. (Pruning cannot distort this:
            // while `best` is none nothing feasible has been offered, so
            // nothing has been pruned and the quality fold is exhaustive.)
            if best.is_none() {
                match (best_quality_prev, best_quality_here) {
                    (Some(prev), Some(here)) if objective.stalled(prev, here) => degrading += 1,
                    (_, Some(_)) => degrading = 0,
                    _ => {}
                }
                if degrading >= DEGRADE_PATIENCE {
                    break;
                }
            }
            best_quality_prev = best_quality_here.or(best_quality_prev);
        }
    }
    Ok((best, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{
        app_tier_fixture, job_fixture, mpi_first_job_fixture, storage_priced_job_fixture,
        tied_job_fixture, RecordingEngine,
    };
    use crate::{
        enumerate_tier_candidates, evaluate_enterprise_design, evaluate_job_design,
        evaluate_job_design_in,
    };
    use aved_avail::DecompositionEngine;
    use aved_model::ParamValue;
    use aved_units::Duration;
    use aved_units::Money;

    fn opts() -> SearchOptions {
        SearchOptions {
            max_extra_active: 3,
            max_spares: 2,
            ..SearchOptions::default()
        }
    }

    #[test]
    fn loose_requirement_picks_cheapest_family() {
        // Huge downtime budget: the minimum design (bronze, no redundancy,
        // machineA-based) must win — the paper's family 1.
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let out = search_tier(
            &ctx,
            "application",
            400.0,
            Duration::from_mins(10_000.0),
            &opts(),
        )
        .unwrap();
        let best = out.best().expect("feasible");
        assert_eq!(best.design().resource().as_str(), "rC");
        assert_eq!(best.design().n_active(), 2);
        assert_eq!(best.design().n_spare(), 0);
        assert_eq!(
            best.design().setting("maintenanceA", "level"),
            Some(&ParamValue::Level("bronze".into()))
        );
    }

    #[test]
    fn tight_requirement_buys_redundancy_or_contract() {
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let loose = search_tier(
            &ctx,
            "application",
            400.0,
            Duration::from_mins(10_000.0),
            &opts(),
        )
        .unwrap();
        let tight = search_tier(
            &ctx,
            "application",
            400.0,
            Duration::from_mins(50.0),
            &opts(),
        )
        .unwrap();
        let (loose, tight) = (loose.best().unwrap(), tight.best().unwrap());
        assert!(tight.cost() > loose.cost());
        assert!(tight.annual_downtime() <= Duration::from_mins(50.0));
        // It buys either an upgraded contract, extra actives or a spare.
        let upgraded = tight.design().setting("maintenanceA", "level")
            != Some(&ParamValue::Level("bronze".into()));
        let redundant = tight.design().n_total() > loose.design().n_total();
        assert!(upgraded || redundant);
    }

    #[test]
    fn impossible_requirement_is_infeasible() {
        // With redundancy forbidden, every design keeps thousands of
        // minutes of annual downtime; a 0.001-minute budget is unreachable.
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let no_redundancy = SearchOptions {
            max_extra_active: 0,
            max_spares: 0,
            ..SearchOptions::default()
        };
        let out = search_tier(
            &ctx,
            "application",
            400.0,
            Duration::from_mins(0.001),
            &no_redundancy,
        )
        .unwrap();
        assert!(out.best().is_none());
        assert!(out.stats().quality_evaluations > 0);
    }

    #[test]
    fn infeasible_load_is_detected() {
        // The database tier's constant performance function caps at 10000.
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let out = search_tier(
            &ctx,
            "database",
            20_000.0,
            Duration::from_mins(10_000.0),
            &opts(),
        )
        .unwrap();
        assert!(out.best().is_none());
        assert_eq!(out.stats().quality_evaluations, 0);
    }

    #[test]
    fn pruning_kicks_in_after_first_feasible() {
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let out = search_tier(
            &ctx,
            "application",
            800.0,
            Duration::from_mins(500.0),
            &opts(),
        )
        .unwrap();
        assert!(out.best().is_some());
        assert!(out.stats().pruned_by_cost > 0, "stats: {:?}", out.stats());
        // The exact work of the serial search, not just its winner: a
        // search that costs, evaluates or prunes differently shows here.
        assert_eq!(
            *out.stats(),
            SearchStats {
                cost_evaluations: 44,
                quality_evaluations: 9,
                pruned_by_cost: 7,
                totals_explored: 7,
            }
        );
        assert_eq!(
            out.health().candidates_pruned,
            u64::try_from(out.stats().pruned_by_cost).unwrap(),
            "health mirrors the stats counter"
        );
    }

    #[test]
    fn pruned_search_matches_exhaustive_optimum() {
        // Validation of the cost-first pruning: evaluate everything the
        // search space contains and compare optima.
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let o = opts();
        let load = 1000.0;
        let budget = Duration::from_mins(100.0);
        let fast = search_tier(&ctx, "application", load, budget, &o).unwrap();

        let tier = ctx.tier("application").unwrap();
        let mut exhaustive_best: Option<crate::EvaluatedDesign> = None;
        for option in tier.options() {
            let perf = ctx.catalog().resolve_perf(option.performance()).unwrap();
            let Some(min_perf) = perf.min_active_for(load) else {
                continue;
            };
            for n_total in min_perf..=min_perf + o.max_extra_active + o.max_spares {
                for td in enumerate_tier_candidates(
                    ctx.infrastructure(),
                    tier.name(),
                    option,
                    n_total,
                    min_perf,
                    &o,
                ) {
                    if let Some(e) = evaluate_enterprise_design(&ctx, option, &td, load).unwrap() {
                        if e.annual_downtime() <= budget
                            && exhaustive_best.as_ref().is_none_or(|b| e.cost() < b.cost())
                        {
                            exhaustive_best = Some(e);
                        }
                    }
                }
            }
        }
        let fast_best = fast.best().unwrap();
        let exhaustive_best = exhaustive_best.unwrap();
        assert_eq!(fast_best.cost(), exhaustive_best.cost());
        assert_eq!(fast_best.design(), exhaustive_best.design());
        assert_eq!(
            fast_best.annual_downtime().minutes().to_bits(),
            exhaustive_best.annual_downtime().minutes().to_bits()
        );
        assert!(fast.stats().pruned_by_cost > 0, "stats: {:?}", fast.stats());
    }

    #[test]
    fn job_search_finds_feasible_design() {
        let fx = job_fixture();
        let engine = RecordingEngine::default();
        let ctx = fx.context(&engine);
        let o = SearchOptions {
            max_extra_active: 2,
            max_spares: 1,
            ..SearchOptions::default()
        }
        .with_pin("maintenanceA", "level", ParamValue::Level("bronze".into()))
        .with_pin("maintenanceB", "level", ParamValue::Level("bronze".into()));
        let out = search_job_tier(&ctx, "computation", Duration::from_hours(200.0), &o).unwrap();
        let best = out.best().expect("feasible");
        let t = best.expected_job_time().unwrap();
        assert!(t <= Duration::from_hours(200.0));
        // Loose requirement: the cheap machineA-based resource wins.
        assert_eq!(best.design().resource().as_str(), "rH");
        // The 300 candidates scored are the first level's: one split whose
        // checkpoint settings all share one tier model, evaluated once.
        assert_eq!(out.health().models_evaluated, 1);
        assert_eq!(out.health().candidates_scored, 300);
        assert_eq!(engine.calls(), 1, "one evaluation per distinct model");
        assert_eq!(
            *out.stats(),
            SearchStats {
                cost_evaluations: 1200,
                quality_evaluations: 300,
                pruned_by_cost: 0,
                totals_explored: 3,
            }
        );
    }

    #[test]
    fn job_search_evaluates_each_distinct_model_once_and_matches_exhaustive_evaluation() {
        // This fixture declares the checkpoint settings before the
        // model-read maintenance level; the grid still varies fastest.
        let fx = mpi_first_job_fixture();
        let plain = DecompositionEngine::default();
        let ctx = fx.context(&plain);
        let o = SearchOptions {
            max_extra_active: 2,
            max_spares: 1,
            ..SearchOptions::default()
        }
        .with_pin(
            "checkpoint",
            "checkpoint_interval",
            ParamValue::Duration(Duration::from_hours(1.0)),
        );
        let tier = ctx.tier("computation").unwrap();
        let first = enumerate_tier_candidates(
            ctx.infrastructure(),
            tier.name(),
            tier.option_for("rH").unwrap(),
            1,
            1,
            &o,
        );
        let setting = |i: usize, mechanism, param| first[i].setting(mechanism, param);
        assert_ne!(
            setting(0, "checkpoint", "storage_location"),
            setting(1, "checkpoint", "storage_location"),
            "the checkpoint setting, declared first, must vary fastest"
        );
        assert_eq!(
            setting(0, "maintenanceA", "level"),
            setting(1, "maintenanceA", "level")
        );
        let deadline = Duration::from_hours(50.0);

        let mut reference: Option<EvaluatedDesign> = None;
        let quality = |e: &EvaluatedDesign| e.expected_job_time().unwrap();
        for option in tier.options() {
            for n_total in 1..=64 {
                for td in enumerate_tier_candidates(
                    ctx.infrastructure(),
                    tier.name(),
                    option,
                    n_total,
                    1,
                    &o,
                ) {
                    let Some(e) = evaluate_job_design(&ctx, option, &td).unwrap() else {
                        continue;
                    };
                    let wins = quality(&e) <= deadline
                        && reference.as_ref().is_none_or(|b| {
                            e.cost() < b.cost()
                                || (e.cost() == b.cost() && quality(&e) < quality(b))
                        });
                    if wins {
                        reference = Some(e);
                    }
                }
            }
        }
        let reference = reference.expect("feasible");
        assert!(
            2 * reference.design().n_total() <= 64,
            "the scan reaches twice the winner's size"
        );

        let engine = RecordingEngine::default();
        let ctx = fx.context(&engine);
        let out = search_job_tier(&ctx, "computation", deadline, &o).unwrap();
        let best = out.best().expect("feasible");
        assert_eq!(best, &reference);
        assert_eq!(
            best.expected_job_time().map(|t| t.seconds().to_bits()),
            reference.expected_job_time().map(|t| t.seconds().to_bits()),
        );
        let h = out.health();
        assert!(h.models_evaluated > 4, "{h}");
        assert_eq!(engine.calls(), engine.distinct(), "a model evaluated twice");
        assert_eq!(h.models_evaluated, engine.calls() as u64);
        assert!(h.candidates_scored > h.models_evaluated, "{h}");
        assert!(h.candidates_pruned > 0, "{h}");
    }

    /// The cost-first loop of §4.1 candidate by candidate: every candidate
    /// the search would enumerate, each scored alone through
    /// [`evaluate_job_design_in`], under the same win rule, cost bound and
    /// stall rule as [`cost_first`]. The reference for the grid scorer.
    /// Each (option, resource total) level is evaluated once, for every
    /// deadline, in one session.
    struct PerCandidateJobSearch<'a> {
        ctx: EvalContext<'a>,
        options: SearchOptions,
        session: aved_avail::EvalSession,
        levels: std::collections::HashMap<(usize, u32), Vec<EvaluatedDesign>>,
    }

    impl PerCandidateJobSearch<'_> {
        fn best(&mut self, deadline: Duration) -> Option<EvaluatedDesign> {
            let objective = Objective::Job { max_time: deadline };
            let (ctx, options) = (&self.ctx, &self.options);
            let tier = ctx.tier("computation").unwrap();
            let mut best: Option<EvaluatedDesign> = None;
            let time = |e: &EvaluatedDesign| e.expected_job_time().unwrap();
            for (index, option) in tier.options().iter().enumerate() {
                let Some((min_active, totals)) = objective.levels(ctx, option, options).unwrap()
                else {
                    continue;
                };
                let (mut prev, mut degrading) = (None, 0);
                for n_total in totals {
                    let level = self.levels.entry((index, n_total)).or_insert_with(|| {
                        let all = enumerate_tier_candidates(
                            ctx.infrastructure(),
                            tier.name(),
                            option,
                            n_total,
                            1,
                            options,
                        );
                        let session = &mut self.session;
                        let mut evaluate = |td| evaluate_job_design_in(ctx, option, td, session);
                        all.iter()
                            .map(|td| evaluate(td).unwrap().unwrap())
                            .collect()
                    });
                    let candidates: Vec<&EvaluatedDesign> = level
                        .iter()
                        .filter(|e| e.design().n_active() >= min_active)
                        .collect();
                    let Some(cheapest) =
                        candidates.iter().map(|e| e.cost()).min_by(Money::total_cmp)
                    else {
                        continue;
                    };
                    if best.as_ref().is_some_and(|b| cheapest > b.cost()) {
                        break;
                    }
                    let mut here: Option<Duration> = None;
                    for e in candidates {
                        if best.as_ref().is_some_and(|b| e.cost() > b.cost()) {
                            continue; // pruned
                        }
                        let q = time(e);
                        here = Some(here.map_or(q, |h| h.min(q)));
                        let wins = q <= deadline
                            && best.as_ref().is_none_or(|b| {
                                e.cost() < b.cost() || (e.cost() == b.cost() && q < time(b))
                            });
                        if wins {
                            best = Some(e.clone());
                        }
                    }
                    if best.is_none() {
                        match (prev, here) {
                            (Some(p), Some(h)) if objective.stalled(p, h) => degrading += 1,
                            (_, Some(_)) => degrading = 0,
                            _ => {}
                        }
                        if degrading >= DEGRADE_PATIENCE {
                            break;
                        }
                    }
                    prev = here.or(prev);
                }
            }
            best
        }
    }

    #[test]
    fn job_search_is_bit_identical_to_the_per_candidate_loop() {
        // The scientific-job benchmark's options: the 13.9-14.2 h deadlines
        // are those where the stall rule decides the answer, the 40
        // log-spaced ones span 1-1000 h. The tied fixture's audit levels
        // score alike, so a grid scorer keeping the last tie fails it; the
        // mpi-first fixture declares the grid before the model settings;
        // the storage-priced one has two groups, one per location, share
        // each tier model. Each scored group evaluates its model once.
        let bronze = || {
            SearchOptions {
                max_spares: 3,
                ..SearchOptions::default()
            }
            .with_pin("maintenanceA", "level", ParamValue::Level("bronze".into()))
            .with_pin("maintenanceB", "level", ParamValue::Level("bronze".into()))
        };
        let log_spaced = (0..40).map(|k| 10_f64.powf(3.0 * f64::from(k) / 39.0));
        let mut deadlines: Vec<f64> = vec![13.9, 14.0, 14.1, 14.2];
        deadlines.extend(log_spaced);
        let small = SearchOptions {
            max_extra_active: 2,
            max_spares: 1,
            ..SearchOptions::default()
        };
        let cases = [
            (job_fixture(), bronze(), deadlines, 300),
            (
                mpi_first_job_fixture(),
                small.clone(),
                vec![20.0, 50.0, 200.0],
                300,
            ),
            (tied_job_fixture(), bronze(), vec![14.0, 50.0, 200.0], 600),
            (
                storage_priced_job_fixture(),
                bronze(),
                vec![14.0, 50.0, 200.0],
                150,
            ),
        ];
        for (fx, options, deadlines, points) in cases {
            let engine = DecompositionEngine::default();
            let ctx = fx.context(&engine);
            let mut reference = PerCandidateJobSearch {
                ctx: fx.context(&engine),
                options: options.clone(),
                session: aved_avail::EvalSession::new(),
                levels: std::collections::HashMap::new(),
            };
            for hours in deadlines {
                let deadline = Duration::from_hours(hours);
                let expected = reference.best(deadline);
                let out = search_job_tier(&ctx, "computation", deadline, &options).unwrap();
                let got = out.best();
                assert_eq!(
                    got.map(|e| e.design()),
                    expected.as_ref().map(|e| e.design())
                );
                let bits = |e: &EvaluatedDesign| {
                    let time = e.expected_job_time().unwrap().seconds();
                    (e.cost().dollars().to_bits(), time.to_bits())
                };
                assert_eq!(got.map(bits), expected.as_ref().map(bits), "{hours} h");
                let h = out.health();
                assert_eq!(h.candidates_scored, points * h.models_evaluated, "{h}");
            }
        }
    }

    #[test]
    fn job_search_gives_up_when_nodes_stop_paying_off() {
        // No design finishes the job in 0.8 h: the completion time of rI
        // designs levels off near 1.03 h, and once two added nodes in a row
        // each shorten it by less than 0.1% the search gives up.
        let fx = job_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let o = SearchOptions {
            max_extra_active: 2,
            max_spares: 1,
            ..SearchOptions::default()
        }
        .with_pin("maintenanceA", "level", ParamValue::Level("bronze".into()))
        .with_pin("maintenanceB", "level", ParamValue::Level("bronze".into()));
        let out = search_job_tier(&ctx, "computation", Duration::from_hours(0.8), &o).unwrap();
        assert!(out.best().is_none());
        assert!(!out.health().is_degraded(), "{}", out.health());
        assert_eq!(
            *out.stats(),
            SearchStats {
                cost_evaluations: 8100,
                quality_evaluations: 8100,
                pruned_by_cost: 0,
                totals_explored: 14,
            }
        );
    }

    #[test]
    fn job_search_tightening_requirement_raises_cost() {
        let fx = job_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let o = SearchOptions {
            max_extra_active: 2,
            max_spares: 1,
            ..SearchOptions::default()
        }
        .with_pin("maintenanceA", "level", ParamValue::Level("bronze".into()))
        .with_pin("maintenanceB", "level", ParamValue::Level("bronze".into()));
        let loose = search_job_tier(&ctx, "computation", Duration::from_hours(500.0), &o).unwrap();
        let tight = search_job_tier(&ctx, "computation", Duration::from_hours(50.0), &o).unwrap();
        let (loose, tight) = (loose.best().unwrap(), tight.best().unwrap());
        assert!(tight.cost() > loose.cost());
        assert!(tight.design().n_active() > loose.design().n_active());
    }

    #[test]
    fn injected_engine_failure_is_isolated_to_one_candidate() {
        // Call 0 evaluates the cheapest candidate at the minimum count,
        // which cannot meet a 50-minute budget — so killing it must not
        // change the winner, only show up in the health report.
        let fx = app_tier_fixture();
        let inner = DecompositionEngine::default();
        let clean_ctx = fx.context(&inner);
        let baseline = search_tier(
            &clean_ctx,
            "application",
            400.0,
            Duration::from_mins(50.0),
            &opts(),
        )
        .unwrap();

        let faulty = aved_avail::FaultInjectingEngine::new(&inner)
            .with_fault_at(0, aved_avail::InjectedFault::NonConvergence);
        let ctx = fx.context(&faulty);
        let out = search_tier(
            &ctx,
            "application",
            400.0,
            Duration::from_mins(50.0),
            &opts(),
        )
        .unwrap();

        let (baseline, best) = (baseline.best().unwrap(), out.best().expect("still found"));
        assert_eq!(best.cost(), baseline.cost());
        assert_eq!(best.design(), baseline.design());
        assert_eq!(out.health().candidates_skipped(), 1);
        assert!(out.health().is_degraded());
        let skip = &out.health().skipped[0];
        assert_eq!(skip.tier, "application");
        assert!(skip.error.contains("availability error"), "{}", skip.error);
        assert_eq!(faulty.injected(), 1);
    }

    #[test]
    fn injected_nan_result_is_skipped_not_compared() {
        let fx = app_tier_fixture();
        let inner = DecompositionEngine::default();
        let faulty = aved_avail::FaultInjectingEngine::new(&inner)
            .with_fault_at(0, aved_avail::InjectedFault::NanResult);
        let ctx = fx.context(&faulty);
        let out = search_tier(
            &ctx,
            "application",
            400.0,
            Duration::from_mins(50.0),
            &opts(),
        )
        .unwrap();
        assert!(out.best().is_some());
        assert_eq!(out.health().candidates_skipped(), 1);
        assert!(
            out.health().skipped[0].error.contains("non-finite"),
            "{}",
            out.health().skipped[0].error
        );
    }

    #[test]
    fn strict_mode_fails_fast_on_injected_failure() {
        let fx = app_tier_fixture();
        let inner = DecompositionEngine::default();
        let faulty = aved_avail::FaultInjectingEngine::new(&inner)
            .with_fault_at(0, aved_avail::InjectedFault::NonConvergence);
        let ctx = fx.context(&faulty);
        let strict = opts().with_strict();
        let err = search_tier(
            &ctx,
            "application",
            400.0,
            Duration::from_mins(50.0),
            &strict,
        )
        .unwrap_err();
        assert!(matches!(err, SearchError::Avail(_)), "{err}");
        assert_eq!(faulty.calls(), 1, "no candidate after the failing one");
    }

    #[test]
    fn reported_winner_matches_a_fresh_session_evaluation() {
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let load = 800.0;
        let budget = Duration::from_mins(500.0);
        let out = search_tier(&ctx, "application", load, budget, &opts()).unwrap();
        let best = out.best().unwrap();
        let option = ctx
            .tier("application")
            .unwrap()
            .option_for(best.design().resource().as_str())
            .unwrap();
        let fresh = evaluate_enterprise_design(&ctx, option, best.design(), load)
            .unwrap()
            .unwrap();
        assert_eq!(best.cost(), fresh.cost());
        assert_eq!(best.design(), fresh.design());
        assert_eq!(
            best.annual_downtime().minutes().to_bits(),
            fresh.annual_downtime().minutes().to_bits(),
            "reused sessions must be bit-identical, not just close"
        );
        assert!(out.health().session.solves > 0, "{}", out.health());
        assert!(
            out.health().session.rebuilds_avoided > 0,
            "locality order must make chains recur: {}",
            out.health()
        );
    }

    #[test]
    fn search_reports_phase_times_and_jobs() {
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let out = search_tier(
            &ctx,
            "application",
            400.0,
            Duration::from_mins(10_000.0),
            &opts(),
        )
        .unwrap();
        let h = out.health();
        assert_eq!(h.jobs, 1, "a search runs on the calling thread");
        assert!(h.solve_time > std::time::Duration::ZERO);
        assert!(h.solve_time <= h.wall_time);
        assert!(h.enumeration_time + h.solve_time + h.merge_time <= h.wall_time);
    }

    #[test]
    fn clean_search_reports_clean_health() {
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let out = search_tier(
            &ctx,
            "application",
            400.0,
            Duration::from_mins(10_000.0),
            &opts(),
        )
        .unwrap();
        assert!(!out.health().is_degraded());
        assert_eq!(out.health().fallbacks_taken, 0);
        assert!(out.health().wall_time > std::time::Duration::ZERO);
    }

    #[test]
    fn unknown_tier_is_an_error() {
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        assert!(matches!(
            search_tier(&ctx, "ghost", 1.0, Duration::from_mins(1.0), &opts()),
            Err(SearchError::UnknownTier { .. })
        ));
    }

    #[test]
    fn state_cap_exhausts_every_candidate_but_terminates_cleanly() {
        // A 1-state cap makes every chain exploration blow its budget: the
        // sweep must terminate with every candidate skipped and the
        // diagnostics naming the exhausted resource — never hang or panic.
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let o = opts().with_max_states(1);
        let out = search_tier(
            &ctx,
            "application",
            400.0,
            Duration::from_mins(10_000.0),
            &o,
        )
        .unwrap();
        assert!(out.best().is_none(), "nothing can evaluate under 1 state");
        let h = out.health();
        assert!(h.budget_exhausted > 0, "{h}");
        assert_eq!(
            h.budget_exhausted,
            u64::try_from(h.candidates_skipped()).unwrap(),
            "every skip here is a budget exhaustion"
        );
        assert!(
            h.skipped[0].error.contains("explored-states"),
            "diagnostic must name the resource: {}",
            h.skipped[0].error
        );
        assert!(!h.interrupted, "exhaustion is per-candidate, not a stop");
    }

    #[test]
    fn state_cap_escalates_under_strict() {
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let o = opts().with_max_states(1).with_strict();
        let err = search_tier(
            &ctx,
            "application",
            400.0,
            Duration::from_mins(10_000.0),
            &o,
        )
        .unwrap_err();
        assert!(err.is_budget_exhaustion(), "{err}");
        assert!(err.to_string().contains("explored-states"), "{err}");
    }

    #[test]
    fn expired_deadline_stops_with_best_so_far() {
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let o = opts().with_search_deadline(std::time::Duration::ZERO);
        let out = search_tier(
            &ctx,
            "application",
            400.0,
            Duration::from_mins(10_000.0),
            &o,
        )
        .unwrap();
        assert!(out.best().is_none(), "no candidate ran before the deadline");
        assert_eq!(out.stats().quality_evaluations, 0);
        assert!(out.health().interrupted);
        assert!(out.health().is_degraded());
    }

    #[test]
    fn cancelled_token_stops_both_search_kinds_cleanly() {
        let token = aved_avail::CancelToken::new();
        token.cancel();

        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let o = opts().with_cancel(token.clone());
        let out = search_tier(
            &ctx,
            "application",
            400.0,
            Duration::from_mins(10_000.0),
            &o,
        )
        .unwrap();
        assert!(out.best().is_none());
        assert!(out.health().interrupted);
        assert!(
            out.health().skipped.is_empty(),
            "cancellation is not a candidate failure"
        );

        // Strict mode must also stop cleanly, not error out.
        let strict = o.clone().with_strict();
        let out = search_tier(
            &ctx,
            "application",
            400.0,
            Duration::from_mins(10_000.0),
            &strict,
        )
        .unwrap();
        assert!(out.health().interrupted);

        let jfx = job_fixture();
        let jctx = jfx.context(&engine);
        let jo = SearchOptions::default().with_cancel(token);
        let out = search_job_tier(&jctx, "computation", Duration::from_hours(200.0), &jo).unwrap();
        assert!(out.best().is_none());
        assert!(out.health().interrupted);
    }

    #[test]
    fn journaled_search_resumes_to_the_same_winner() {
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let load = 800.0;
        let budget = Duration::from_mins(500.0);

        let baseline = search_tier(&ctx, "application", load, budget, &opts()).unwrap();

        let mut path = std::env::temp_dir();
        path.push(format!(
            "aved-tier-search-resume-{}.jsonl",
            std::process::id()
        ));
        let identity = crate::JournalEngine::new("decomp", 5);
        let journal = std::sync::Arc::new(crate::SweepJournal::create(&path, &identity).unwrap());
        let journaled = search_tier(
            &ctx,
            "application",
            load,
            budget,
            &opts().with_journal(journal.clone()),
        )
        .unwrap();
        journal.flush().unwrap();
        drop(journal);

        let replay = std::sync::Arc::new(crate::JournalReplay::load(&path, &identity).unwrap());
        assert!(!replay.is_empty());
        let resumed = search_tier(
            &ctx,
            "application",
            load,
            budget,
            &opts().with_resume(replay),
        )
        .unwrap();
        std::fs::remove_file(&path).ok();

        let (b, j, r) = (
            baseline.best().unwrap(),
            journaled.best().unwrap(),
            resumed.best().unwrap(),
        );
        assert_eq!(
            b.design(),
            j.design(),
            "journaling must not change the winner"
        );
        assert_eq!(b.design(), r.design(), "resume must reproduce the winner");
        assert_eq!(b.cost().dollars().to_bits(), r.cost().dollars().to_bits());
        assert_eq!(
            b.annual_downtime().minutes().to_bits(),
            r.annual_downtime().minutes().to_bits(),
            "replayed metrics must be bit-identical, not just close"
        );
        assert!(
            resumed.health().journal_replayed > 0,
            "{}",
            resumed.health()
        );
    }
}
