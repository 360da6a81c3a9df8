//! Cost/quality Pareto frontiers — the data behind the paper's Figs. 6–8.
//!
//! A frontier must evaluate *every* candidate (each one might be a frontier
//! point), so its sweep runs without a cost bound and prunes nothing: all
//! options and levels go into one [`Sweep`] batch. A service query's
//! capped frontiers ([`crate::search_service_with_health`]) run the same
//! batch under a cost cap that no result lowers.

use std::ops::Range;
use std::time::Instant;

use aved_units::{Duration, Money};

use crate::sweep::{Batch, Objective, Sweep};
use crate::{EvalContext, EvaluatedDesign, SearchError, SearchHealth, SearchOptions};

/// Computes the cost/downtime Pareto frontier of one enterprise tier at a
/// fixed load: every design that is the cheapest way to reach its downtime
/// level, sorted by increasing cost (and hence decreasing downtime), with
/// the sweep's [`SearchHealth`] (candidates skipped after evaluation
/// failures, solver fallbacks, worst accepted residual, wall time).
///
/// Fig. 6 of the paper is exactly this frontier swept over loads: for a
/// requirement point `(load, downtime)` the optimal design family is the
/// first frontier entry whose downtime is below the requirement. Fig. 8's
/// cost-of-availability curves read off the same frontier.
///
/// # Errors
///
/// Returns [`SearchError`] for unknown tiers, or for evaluation failures
/// in strict mode.
pub fn tier_pareto_frontier(
    ctx: &EvalContext<'_>,
    tier_name: &str,
    load: f64,
    options: &SearchOptions,
) -> Result<(Vec<EvaluatedDesign>, SearchHealth), SearchError> {
    let objective = Objective::downtime_at(load);
    frontier(ctx, tier_name, &objective, None, options, Instant::now())
}

/// Computes the cost/completion-time Pareto frontier of a finite-job tier
/// over an explicit grid of node counts (Fig. 7): every design that is the
/// cheapest way to reach its expected execution time, with the sweep's
/// [`SearchHealth`].
///
/// The caller supplies the totals grid so sweeps can trade resolution for
/// time; the paper's Fig. 7 spans 1–1000 resources.
///
/// # Errors
///
/// Returns [`SearchError`] for unknown tiers, missing job size, or
/// evaluation failures in strict mode.
pub fn job_frontier(
    ctx: &EvalContext<'_>,
    tier_name: &str,
    totals: &[u32],
    options: &SearchOptions,
) -> Result<(Vec<EvaluatedDesign>, SearchHealth), SearchError> {
    let max_time = Duration::from_secs(f64::INFINITY);
    let grid = Some(totals);
    frontier(
        ctx,
        tier_name,
        &Objective::Job { max_time },
        grid,
        options,
        Instant::now(),
    )
}

/// Sweeps every candidate of `tier_name` in one batch and keeps the
/// Pareto-optimal ones; the deadline counts from `search_start`. The
/// resource totals are the objective's levels, or `grid` (any active count
/// allowed) when one is given.
fn frontier(
    ctx: &EvalContext<'_>,
    tier_name: &str,
    objective: &Objective,
    grid: Option<&[u32]>,
    options: &SearchOptions,
    search_start: Instant,
) -> Result<(Vec<EvaluatedDesign>, SearchHealth), SearchError> {
    let started = Instant::now();
    let mut sweep = Sweep::new(ctx, tier_name, objective, options, search_start)?;
    let mut tier = enumerate(&mut sweep, objective, grid)?;
    let frontier = pareto_frontier(&mut sweep, objective, &mut tier.batch, None)?;
    Ok((frontier, sweep.finish(started)))
}

/// Every candidate of one tier, enumerated up front.
pub(crate) struct Enumerated {
    pub(crate) batch: Batch,
    /// Each level's option index, resource total and range of `batch`, in
    /// enumeration order.
    pub(crate) levels: Vec<(usize, u32, Range<usize>)>,
}

/// Enumerates and costs every candidate of `sweep`'s tier into one
/// batch. The resource totals are `objective`'s levels, or `grid` (any
/// active count allowed) when one is given.
pub(crate) fn enumerate<'c>(
    sweep: &mut Sweep<'_, 'c>,
    objective: &Objective,
    grid: Option<&[u32]>,
) -> Result<Enumerated, SearchError> {
    let (ctx, options) = (sweep.ctx(), sweep.options());
    let mut batch = Batch::default();
    let mut levels = Vec::new();
    for (index, option) in sweep.tier.options().iter().enumerate() {
        let (min_active, totals): (u32, Vec<u32>) = match grid {
            Some(grid) => (1, grid.to_vec()),
            None => match objective.levels(ctx, option, options)? {
                Some((min_active, totals)) => (min_active, totals.collect()),
                None => continue,
            },
        };
        for n_total in totals.into_iter().filter(|&n| n > 0) {
            let range = sweep.level(&mut batch, index, n_total, min_active)?;
            levels.push((index, n_total, range));
        }
    }
    Ok(Enumerated { batch, levels })
}

/// Runs every candidate of `batch` that costs at most `cap` (all of them
/// without one) and keeps the Pareto-optimal ones under `objective`'s
/// quality. The cap never moves: any candidate under it may be a point.
pub(crate) fn pareto_frontier(
    sweep: &mut Sweep<'_, '_>,
    objective: &Objective,
    batch: &mut Batch,
    cap: Option<Money>,
) -> Result<Vec<EvaluatedDesign>, SearchError> {
    let mut all: Vec<EvaluatedDesign> = Vec::new();
    let candidates = 0..batch.len();
    sweep.run(objective, batch, candidates, cap, |e| {
        all.push(e);
        Ok(None)
    })?;
    let ranking = Instant::now();
    let unranked = Duration::from_secs(f64::INFINITY);
    let frontier = pareto_by(all, |e| objective.quality(e).unwrap_or(unranked));
    sweep.health.merge_time += ranking.elapsed();
    Ok(frontier)
}

/// Keeps the Pareto-optimal designs under (cost, quality) where smaller is
/// better for both, sorted by increasing cost. Ties in quality keep the
/// cheaper design; ties in cost keep the better quality.
fn pareto_by<F>(mut all: Vec<EvaluatedDesign>, quality: F) -> Vec<EvaluatedDesign>
where
    F: Fn(&EvaluatedDesign) -> Duration,
{
    // The evaluation layer guarantees finite metrics (NaN/∞ results become
    // errors and the candidate is skipped); this is the last line of
    // defense in front of the ordering.
    debug_assert!(
        all.iter()
            .all(|e| e.cost().dollars().is_finite() && !quality(e).seconds().is_nan()),
        "non-finite metric reached the frontier comparison"
    );
    all.sort_by(|a, b| {
        a.cost()
            .total_cmp(&b.cost())
            .then_with(|| quality(a).seconds().total_cmp(&quality(b).seconds()))
    });
    let mut frontier: Vec<EvaluatedDesign> = Vec::new();
    let mut best_quality: Option<Duration> = None;
    for e in all {
        let q = quality(&e);
        if best_quality.is_none_or(|b| q < b) {
            best_quality = Some(q);
            frontier.push(e);
        }
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{
        app_tier_fixture, distinct_job_models, job_fixture, maintenance_innermost_job_fixture,
        tied_job_fixture, RecordingEngine,
    };
    use crate::{enumerate_tier_candidates, evaluate_enterprise_design, evaluate_job_design};
    use aved_avail::DecompositionEngine;
    use aved_model::ParamValue;

    fn small_opts() -> SearchOptions {
        SearchOptions {
            max_extra_active: 2,
            max_spares: 1,
            ..SearchOptions::default()
        }
    }

    #[test]
    fn frontier_is_monotone() {
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let frontier = tier_pareto_frontier(&ctx, "application", 800.0, &small_opts())
            .unwrap()
            .0;
        assert!(frontier.len() >= 3, "frontier should have several steps");
        for pair in frontier.windows(2) {
            assert!(pair[0].cost() < pair[1].cost());
            assert!(pair[0].annual_downtime() > pair[1].annual_downtime());
        }
    }

    #[test]
    fn frontier_first_entry_is_min_cost_design() {
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let frontier = tier_pareto_frontier(&ctx, "application", 400.0, &small_opts())
            .unwrap()
            .0;
        let first = &frontier[0];
        // Minimum cost: 2 rC machines, bronze, nothing else.
        assert_eq!(first.design().resource().as_str(), "rC");
        assert_eq!(first.design().n_active(), 2);
        assert_eq!(first.design().n_spare(), 0);
        assert_eq!(
            first.design().setting("maintenanceA", "level"),
            Some(&ParamValue::Level("bronze".into()))
        );
    }

    /// One frontier-vs-search disagreement: which downtime budget, and what
    /// each method produced. Collected across every probed budget so a
    /// failure reports the full disagreement pattern, not just the first
    /// divergence.
    #[derive(Debug)]
    #[allow(dead_code)] // fields exist for the Debug output in the assert
    struct FrontierMismatch {
        budget_mins: f64,
        kind: &'static str,
        frontier: Option<String>,
        search: Option<String>,
    }

    #[test]
    fn frontier_lookup_matches_search() {
        // The min-cost design for a downtime requirement is the first
        // frontier entry meeting it.
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let o = small_opts();
        let load = 1000.0;
        let frontier = tier_pareto_frontier(&ctx, "application", load, &o)
            .unwrap()
            .0;
        let mut mismatches: Vec<FrontierMismatch> = Vec::new();
        for budget_mins in [20.0, 100.0, 1000.0] {
            let budget = aved_units::Duration::from_mins(budget_mins);
            let via_frontier = frontier.iter().find(|e| e.annual_downtime() <= budget);
            let via_search = crate::search_tier(&ctx, "application", load, budget, &o).unwrap();
            let describe =
                |e: &crate::EvaluatedDesign| format!("{:?} at ${}", e.design(), e.cost().dollars());
            match (via_frontier, via_search.best()) {
                (Some(a), Some(b)) if a.cost() == b.cost() => {}
                (None, None) => {}
                (a, b) => mismatches.push(FrontierMismatch {
                    budget_mins,
                    kind: match (&a, &b) {
                        (Some(_), Some(_)) => "different cost",
                        (Some(_), None) => "search missed a feasible design",
                        (None, Some(_)) => "frontier missed a feasible design",
                        (None, None) => unreachable!(),
                    },
                    frontier: a.map(&describe),
                    search: b.map(describe),
                }),
            }
        }
        assert!(
            mismatches.is_empty(),
            "frontier and search disagree at {} of 3 budgets:\n{mismatches:#?}",
            mismatches.len()
        );
    }

    #[test]
    fn machineb_is_dominated_in_application_tier() {
        // The paper: "the more powerful machineB is never selected" for the
        // linearly-scaling application tier.
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        // Fig. 6 plots downtimes from 0.1 to 10,000 minutes; within that
        // practical range machineA designs dominate. (Below 0.1 min/yr the
        // model's lack of common-mode failures lets exotic machineB designs
        // appear at the frontier's extreme tail — outside the paper's
        // plotted range.)
        for load in [400.0, 1600.0, 3200.0] {
            let frontier = tier_pareto_frontier(&ctx, "application", load, &small_opts())
                .unwrap()
                .0;
            for e in frontier
                .iter()
                .filter(|e| e.annual_downtime().minutes() >= 0.1)
            {
                let r = e.design().resource().as_str();
                assert!(
                    r == "rC" || r == "rD",
                    "machineB-based {r} appeared on the frontier at load {load} with downtime {} min",
                    e.annual_downtime().minutes()
                );
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-finite metric")]
    fn infinite_cost_trips_the_frontier_guard() {
        use aved_avail::TierAvailability;
        let e = EvaluatedDesign::for_tests(
            aved_model::TierDesign::new("t", "r", 1, 0),
            aved_units::Money::from_dollars(f64::INFINITY),
            TierAvailability::new(0.5, aved_units::Rate::ZERO),
            None,
        );
        let _ = pareto_by(vec![e], |e| e.annual_downtime());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_downtime_cannot_even_be_constructed() {
        // NaN quality can never reach pareto_by: the unit types reject NaN
        // at construction, one layer below the frontier's own debug guard.
        use aved_avail::TierAvailability;
        let e = EvaluatedDesign::for_tests(
            aved_model::TierDesign::new("t", "r", 1, 0),
            aved_units::Money::from_dollars(1.0),
            TierAvailability::new_unchecked(f64::NAN, aved_units::Rate::ZERO),
            None,
        );
        let _ = e.annual_downtime();
    }

    #[test]
    fn frontier_with_health_reports_a_clean_sweep() {
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let (frontier, health) =
            tier_pareto_frontier(&ctx, "application", 800.0, &small_opts()).unwrap();
        assert!(!frontier.is_empty());
        assert!(!health.is_degraded());
        assert_eq!(health.candidates_skipped(), 0);
        assert!(health.wall_time > std::time::Duration::ZERO);
    }

    #[test]
    fn reported_frontier_matches_fresh_session_evaluations() {
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let load = 800.0;
        let (frontier, health) =
            tier_pareto_frontier(&ctx, "application", load, &small_opts()).unwrap();
        let tier = ctx.tier("application").unwrap();
        for e in &frontier {
            let option = tier.option_for(e.design().resource().as_str()).unwrap();
            let fresh = crate::evaluate_enterprise_design(&ctx, option, e.design(), load)
                .unwrap()
                .unwrap();
            assert_eq!(e.design(), fresh.design());
            assert_eq!(e.cost(), fresh.cost());
            assert_eq!(
                e.annual_downtime().minutes().to_bits(),
                fresh.annual_downtime().minutes().to_bits()
            );
        }
        assert!(
            health.session.solves > 0 && health.session.rebuilds_avoided > 0,
            "{health}"
        );
    }

    #[test]
    fn job_frontier_is_monotone_and_spans_resources() {
        let fx = job_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let o = SearchOptions {
            max_extra_active: 0,
            max_spares: 1,
            ..SearchOptions::default()
        }
        .with_pin("maintenanceA", "level", ParamValue::Level("bronze".into()))
        .with_pin("maintenanceB", "level", ParamValue::Level("bronze".into()));
        let totals = [1, 2, 4, 8, 16, 32, 64];
        let frontier = job_frontier(&ctx, "computation", &totals, &o).unwrap().0;
        assert!(frontier.len() >= 3);
        for pair in frontier.windows(2) {
            assert!(pair[0].cost() < pair[1].cost());
            assert!(pair[0].expected_job_time() > pair[1].expected_job_time());
        }
        // Cheap end uses few machineA nodes; expensive end more/faster ones.
        assert!(frontier[0].cost() < frontier.last().unwrap().cost());
    }

    #[test]
    fn enterprise_frontiers_match_per_candidate_evaluation() {
        // A frontier runs without a cost bound, so it prunes nothing and
        // equals the frontier of every candidate evaluated alone, every
        // metric bit for bit.
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let options = SearchOptions::default();
        for load in [400.0, 1000.0] {
            let objective = Objective::downtime_at(load);
            let expected = per_candidate_frontier(&ctx, "application", &objective, None, &options);
            let (frontier, health) =
                tier_pareto_frontier(&ctx, "application", load, &options).unwrap();
            assert_eq!(health.candidates_pruned, 0, "load {load}: {health}");
            assert_eq!(frontier.len(), expected.len(), "load {load}");
            for (got, want) in frontier.iter().zip(&expected) {
                assert_bit_identical(got, want, &format!("load {load}"));
            }
        }
    }

    /// The Pareto frontier of every candidate of `tier` under `objective`,
    /// each evaluated alone: the candidates `frontier` enumerates, at
    /// `objective`'s levels or over the totals `grid`.
    fn per_candidate_frontier(
        ctx: &EvalContext<'_>,
        tier: &str,
        objective: &Objective,
        grid: Option<&[u32]>,
        options: &SearchOptions,
    ) -> Vec<EvaluatedDesign> {
        let tier = ctx.tier(tier).unwrap();
        let mut every = Vec::new();
        for option in tier.options() {
            let (min_active, totals): (u32, Vec<u32>) = match grid {
                Some(grid) => (1, grid.to_vec()),
                None => match objective.levels(ctx, option, options).unwrap() {
                    Some((min_active, totals)) => (min_active, totals.collect()),
                    None => continue,
                },
            };
            for n_total in totals {
                for td in enumerate_tier_candidates(
                    ctx.infrastructure(),
                    tier.name(),
                    option,
                    n_total,
                    min_active,
                    options,
                ) {
                    let evaluated = match *objective {
                        Objective::Enterprise { load, .. } => {
                            evaluate_enterprise_design(ctx, option, &td, load)
                        }
                        Objective::Job { .. } => evaluate_job_design(ctx, option, &td),
                    };
                    every.extend(evaluated.unwrap());
                }
            }
        }
        pareto_by(every, |e| objective.quality(e).unwrap())
    }

    /// Bit-level equality of every metric two evaluations carry.
    fn assert_bit_identical(a: &EvaluatedDesign, b: &EvaluatedDesign, label: &str) {
        assert_eq!(a.design(), b.design(), "{label}");
        assert_eq!(a.cost().dollars().to_bits(), b.cost().dollars().to_bits());
        assert_eq!(a.availability(), b.availability(), "{label}");
        assert_eq!(a.min_for_perf(), b.min_for_perf(), "{label}");
        let bits = |e: &EvaluatedDesign| e.expected_job_time().map(|t| t.seconds().to_bits());
        assert_eq!(bits(a), bits(b), "{label}");
        assert_eq!(a.eval_health(), b.eval_health(), "{label}");
    }

    #[test]
    fn job_frontier_over_the_whole_grid_matches_per_candidate_evaluation() {
        // Every checkpoint setting is a point of the grid here, and the
        // tied fixture's audit levels score alike: each group's point on
        // the frontier must be the one a stable sort of every candidate
        // keeps, the first of its ties.
        let grid = [1, 8, 64];
        let options = small_opts()
            .with_pin("maintenanceA", "level", ParamValue::Level("bronze".into()))
            .with_pin("maintenanceB", "level", ParamValue::Level("bronze".into()));
        let objective = Objective::Job {
            max_time: Duration::from_secs(f64::INFINITY),
        };
        // 2 storage locations x 150 intervals, times 2 audit levels.
        for (fx, points) in [(job_fixture(), 300), (tied_job_fixture(), 600)] {
            let engine = DecompositionEngine::default();
            let ctx = fx.context(&engine);
            let expected =
                per_candidate_frontier(&ctx, "computation", &objective, Some(&grid), &options);
            let (frontier, health) = job_frontier(&ctx, "computation", &grid, &options).unwrap();
            assert_eq!(frontier.len(), expected.len());
            for (got, want) in frontier.iter().zip(&expected) {
                assert_bit_identical(got, want, "whole-grid job frontier");
            }
            assert_eq!(
                health.candidates_scored,
                points * health.models_evaluated,
                "every candidate of each group counts: {health}"
            );
        }
    }

    #[test]
    fn job_frontier_evaluates_each_distinct_model_once_and_matches_per_candidate_evaluation() {
        // The second fixture enumerates the model-read maintenance level
        // fastest, so the candidates sharing a model are scattered through
        // enumeration order; the grouping must not care.
        let grid = [1, 2, 4, 8, 16, 32];
        let options = small_opts().with_pin(
            "checkpoint",
            "checkpoint_interval",
            ParamValue::Duration(Duration::from_hours(1.0)),
        );
        let objective = Objective::Job {
            max_time: Duration::from_secs(f64::INFINITY),
        };
        for fx in [job_fixture(), maintenance_innermost_job_fixture()] {
            let plain = DecompositionEngine::default();
            let ctx = fx.context(&plain);
            let expected =
                per_candidate_frontier(&ctx, "computation", &objective, Some(&grid), &options);
            let distinct = distinct_job_models(&ctx, "computation", &grid, &options);
            let engine = RecordingEngine::default();
            let ctx = fx.context(&engine);
            let (frontier, health) = job_frontier(&ctx, "computation", &grid, &options).unwrap();
            assert_eq!(engine.calls(), distinct);
            assert_eq!(engine.distinct(), distinct);
            assert_eq!(health.models_evaluated, distinct as u64);
            assert_eq!(health.candidates_pruned, 0, "{health}");
            assert_eq!(
                health.candidates_scored,
                2 * health.models_evaluated,
                "each model serves both storage locations"
            );
            assert_eq!(frontier.len(), expected.len());
            for (got, want) in frontier.iter().zip(&expected) {
                assert_bit_identical(got, want, "job frontier");
            }
        }
    }
}
