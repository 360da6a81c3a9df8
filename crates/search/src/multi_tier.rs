//! Multi-tier composition and refinement (paper §4.1, first paragraph).

use std::time::Instant;

use aved_avail::combine_series;
use aved_model::Design;
use aved_units::{Duration, Money};

use crate::frontier::frontier;
use crate::parallel::{parallel_map_with, BestCost};
use crate::sweep::Objective;
use crate::{EvalContext, EvaluatedDesign, SearchError, SearchHealth, SearchOptions};

/// A complete multi-tier design with its evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceDesign {
    tiers: Vec<EvaluatedDesign>,
    cost: Money,
    annual_downtime: Duration,
}

impl ServiceDesign {
    /// The per-tier evaluated designs.
    #[must_use]
    pub fn tiers(&self) -> &[EvaluatedDesign] {
        &self.tiers
    }

    /// Total annual cost.
    #[must_use]
    pub fn cost(&self) -> Money {
        self.cost
    }

    /// Expected service-level annual downtime (tiers in series).
    #[must_use]
    pub fn annual_downtime(&self) -> Duration {
        self.annual_downtime
    }

    /// Converts to a plain [`Design`].
    #[must_use]
    pub fn to_design(&self) -> Design {
        Design::new(self.tiers.iter().map(|t| t.design().clone()).collect())
    }
}

fn compose(tiers: &[EvaluatedDesign]) -> (Money, Duration) {
    let cost = tiers.iter().map(EvaluatedDesign::cost).sum();
    let availabilities: Vec<_> = tiers.iter().map(|t| *t.availability()).collect();
    let service = combine_series(&availabilities);
    (cost, service.annual_downtime())
}

/// Largest frontier cross product we enumerate exactly before switching to
/// the greedy refinement.
const EXACT_COMPOSITION_LIMIT: usize = 250_000;

/// Exhaustive minimum-cost composition over the frontier cross product.
///
/// The flat index range is split into one contiguous chunk per worker;
/// each chunk scans ascending with a local best and a shared [`BestCost`]
/// cell pruning strictly-more-expensive compositions, and the chunk optima
/// merge by `(cost, flat index)` — the same "cheapest, earliest" winner the
/// serial ascending scan selects, at any worker count.
fn compose_exact(
    frontiers: &[Vec<EvaluatedDesign>],
    max_downtime: Duration,
    jobs: usize,
) -> Option<ServiceDesign> {
    let sizes: Vec<usize> = frontiers.iter().map(Vec::len).collect();
    let total: usize = sizes.iter().product();
    let best_cost = BestCost::new();
    let chunk = total.div_ceil(jobs.max(1)).max(1);
    let ranges: Vec<std::ops::Range<usize>> = (0..total)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(total))
        .collect();
    let per_chunk = parallel_map_with(jobs, &mut vec![(); jobs.max(1)], &ranges, |(), _, range| {
        let mut local: Option<(Money, usize)> = None;
        for flat in range.clone() {
            let mut rem = flat;
            let mut cost = Money::ZERO;
            let mut availability = 1.0;
            for (f, &size) in frontiers.iter().zip(&sizes) {
                let i = rem % size;
                rem /= size;
                cost += f[i].cost();
                availability *= f[i].availability().availability();
            }
            // Only strictly cheaper compositions displace a known feasible
            // one; equal-cost ones stay recorded locally so the merge can
            // fall back to the smallest flat index, exactly like the
            // serial ascending scan.
            if local.is_some_and(|(c, _)| cost >= c) || best_cost.beats(cost) {
                continue;
            }
            let downtime = Duration::from_mins((1.0 - availability) * aved_units::MINUTES_PER_YEAR);
            if downtime <= max_downtime {
                best_cost.offer(cost);
                local = Some((cost, flat));
            }
        }
        local
    });
    let best = per_chunk
        .into_iter()
        .flatten()
        .min_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    best.map(|(_, flat)| {
        let mut rem = flat;
        let tiers: Vec<EvaluatedDesign> = frontiers
            .iter()
            .zip(&sizes)
            .map(|(f, &size)| {
                let i = rem % size;
                rem /= size;
                f[i].clone()
            })
            .collect();
        let (cost, annual_downtime) = compose(&tiers);
        ServiceDesign {
            tiers,
            cost,
            annual_downtime,
        }
    })
}

/// Finds the minimum-cost multi-tier design meeting a service-level
/// throughput and downtime requirement, and reports the aggregated
/// [`SearchHealth`] of every per-tier frontier sweep: candidates skipped
/// after evaluation failures, solver fallbacks taken, the worst accepted
/// residual, and the total wall time.
///
/// Following §4.1: each tier is first optimized in isolation (its own
/// cost/downtime frontier, computed as if the other tiers never fail). If
/// the combination of the individually-cheapest designs already meets the
/// service downtime requirement, it is optimal. Otherwise the design is
/// refined by repeatedly upgrading, among all tiers, the one whose next
/// frontier step buys downtime at the lowest marginal cost — "making the
/// requirements for that tier incrementally more aggressive" — until the
/// service requirement holds or every frontier is exhausted.
///
/// Candidate evaluation failures are isolated to the failing candidate
/// (unless [`SearchOptions::strict`]). [`SearchOptions::search_deadline`]
/// bounds the whole search, every tier's sweep included.
///
/// # Errors
///
/// Returns [`SearchError`] for evaluation failures; an unsatisfiable
/// requirement yields `Ok((None, health))`.
pub fn search_service_with_health(
    ctx: &EvalContext<'_>,
    load: f64,
    max_downtime: Duration,
    options: &SearchOptions,
) -> Result<(Option<ServiceDesign>, SearchHealth), SearchError> {
    let started = Instant::now();
    let objective = Objective::downtime_at(load);
    // Per-tier frontiers, cheapest first; their health (worker count
    // included) accumulates into the service search's.
    let mut health = SearchHealth::default();
    let mut frontiers: Vec<Vec<EvaluatedDesign>> = Vec::new();
    for tier in ctx.service().tiers() {
        let name = tier.name().as_str();
        let (f, tier_health) = frontier(ctx, name, &objective, None, options, started)?;
        health.merge(tier_health);
        if f.is_empty() {
            health.wall_time = started.elapsed();
            return Ok((None, health)); // a tier cannot support the load at all
        }
        frontiers.push(f);
    }

    // Exact composition when the cross product is small (the common case:
    // frontiers have tens of steps); greedy marginal-cost refinement as
    // the scalable fallback.
    let composing = Instant::now();
    let product: usize = frontiers.iter().map(Vec::len).product();
    let found = if product <= EXACT_COMPOSITION_LIMIT {
        compose_exact(&frontiers, max_downtime, health.jobs)
    } else {
        refine(&frontiers, max_downtime)
    };
    health.merge_time += composing.elapsed();
    health.wall_time = started.elapsed();
    Ok((found, health))
}

/// Greedy refinement from the individually-cheapest choices: repeatedly
/// upgrade the tier whose next frontier step buys downtime at the lowest
/// marginal cost, until the requirement holds or the frontiers run out.
fn refine(frontiers: &[Vec<EvaluatedDesign>], max_downtime: Duration) -> Option<ServiceDesign> {
    let mut index: Vec<usize> = vec![0; frontiers.len()];
    loop {
        let current: Vec<EvaluatedDesign> = index
            .iter()
            .zip(frontiers.iter())
            .map(|(&i, f)| f[i].clone())
            .collect();
        let (cost, downtime) = compose(&current);
        if downtime <= max_downtime {
            return Some(ServiceDesign {
                tiers: current,
                cost,
                annual_downtime: downtime,
            });
        }
        let mut best_step: Option<(usize, f64)> = None;
        for (t, f) in frontiers.iter().enumerate() {
            let i = index[t];
            if i + 1 >= f.len() {
                continue;
            }
            let delta_cost = (f[i + 1].cost() - f[i].cost()).dollars();
            let delta_downtime =
                f[i].annual_downtime().minutes() - f[i + 1].annual_downtime().minutes();
            if delta_downtime <= 0.0 {
                continue;
            }
            let ratio = delta_cost / delta_downtime;
            if best_step.is_none_or(|(_, r)| ratio < r) {
                best_step = Some((t, ratio));
            }
        }
        index[best_step?.0] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::app_tier_fixture;
    use crate::CachingEngine;
    use aved_avail::DecompositionEngine;

    fn small_opts() -> SearchOptions {
        SearchOptions {
            max_extra_active: 2,
            max_spares: 1,
            ..SearchOptions::default()
        }
    }

    #[test]
    fn three_tier_service_meets_requirement() {
        let fx = app_tier_fixture();
        let inner = DecompositionEngine::default();
        let engine = CachingEngine::new(&inner);
        let ctx = fx.context(&engine);
        let design =
            search_service_with_health(&ctx, 400.0, Duration::from_mins(5000.0), &small_opts())
                .unwrap()
                .0
                .expect("feasible");
        assert_eq!(design.tiers().len(), 3);
        assert!(design.annual_downtime() <= Duration::from_mins(5000.0));
        let d = design.to_design();
        assert!(d.tier("web").is_some());
        assert!(d.tier("application").is_some());
        assert!(d.tier("database").is_some());
    }

    #[test]
    fn tighter_service_budget_costs_more() {
        let fx = app_tier_fixture();
        let inner = DecompositionEngine::default();
        let engine = CachingEngine::new(&inner);
        let ctx = fx.context(&engine);
        let loose =
            search_service_with_health(&ctx, 400.0, Duration::from_mins(8000.0), &small_opts())
                .unwrap()
                .0
                .unwrap();
        let tight =
            search_service_with_health(&ctx, 400.0, Duration::from_mins(800.0), &small_opts())
                .unwrap()
                .0
                .unwrap();
        assert!(tight.cost() >= loose.cost());
        assert!(tight.annual_downtime() <= Duration::from_mins(800.0));
    }

    #[test]
    fn impossible_budget_returns_none() {
        let fx = app_tier_fixture();
        let inner = DecompositionEngine::default();
        let engine = CachingEngine::new(&inner);
        let ctx = fx.context(&engine);
        let out =
            search_service_with_health(&ctx, 400.0, Duration::from_secs(0.0001), &small_opts())
                .unwrap()
                .0;
        assert!(out.is_none());
    }

    #[test]
    fn injected_failure_does_not_change_the_service_winner() {
        // Baseline run, instrumented only to count engine calls.
        let fx = app_tier_fixture();
        let inner = DecompositionEngine::default();
        let counting = aved_avail::FaultInjectingEngine::new(&inner);
        let ctx = fx.context(&counting);
        let budget = Duration::from_mins(5000.0);
        let (baseline, base_health) =
            search_service_with_health(&ctx, 400.0, budget, &small_opts()).unwrap();
        let baseline = baseline.expect("feasible");
        assert!(!base_health.is_degraded());
        let n_calls = counting.calls();
        assert!(n_calls > 1);

        // Kill the last evaluated candidate: under a loose budget the
        // winner is a cheap composition, never the maximal-redundancy tail
        // candidate evaluated last.
        let faulty = aved_avail::FaultInjectingEngine::new(&inner)
            .with_fault_at(n_calls - 1, aved_avail::InjectedFault::NonConvergence);
        let ctx = fx.context(&faulty);
        let (found, health) =
            search_service_with_health(&ctx, 400.0, budget, &small_opts()).unwrap();
        let found = found.expect("search completes despite the failure");
        assert_eq!(found.cost(), baseline.cost());
        assert_eq!(found.to_design(), baseline.to_design());
        assert_eq!(health.candidates_skipped(), 1);
        assert_eq!(faulty.injected(), 1);
    }

    #[test]
    fn parallel_service_search_matches_serial() {
        let fx = app_tier_fixture();
        let inner = DecompositionEngine::default();
        let engine = CachingEngine::new(&inner);
        let ctx = fx.context(&engine);
        let budget = Duration::from_mins(800.0);
        let serial = search_service_with_health(&ctx, 400.0, budget, &small_opts())
            .unwrap()
            .0
            .unwrap();
        for jobs in [2, 8] {
            let parallel =
                search_service_with_health(&ctx, 400.0, budget, &small_opts().with_jobs(jobs))
                    .unwrap()
                    .0
                    .unwrap();
            assert_eq!(parallel.cost(), serial.cost(), "jobs={jobs}");
            assert_eq!(parallel.to_design(), serial.to_design(), "jobs={jobs}");
            assert_eq!(parallel.annual_downtime(), serial.annual_downtime());
        }
    }

    #[test]
    fn strict_service_search_fails_fast() {
        let fx = app_tier_fixture();
        let inner = DecompositionEngine::default();
        let faulty = aved_avail::FaultInjectingEngine::new(&inner)
            .with_fault_at(0, aved_avail::InjectedFault::NonConvergence);
        let ctx = fx.context(&faulty);
        let strict = small_opts().with_strict();
        let err = search_service_with_health(&ctx, 400.0, Duration::from_mins(5000.0), &strict)
            .unwrap_err();
        assert!(matches!(err, crate::SearchError::Avail(_)), "{err}");
    }

    #[test]
    fn service_downtime_dominates_each_tier() {
        // Service downtime (series) is at least every single tier's.
        let fx = app_tier_fixture();
        let inner = DecompositionEngine::default();
        let engine = CachingEngine::new(&inner);
        let ctx = fx.context(&engine);
        let design =
            search_service_with_health(&ctx, 800.0, Duration::from_mins(6000.0), &small_opts())
                .unwrap()
                .0
                .unwrap();
        for tier in design.tiers() {
            assert!(design.annual_downtime() >= tier.annual_downtime() * 0.999);
        }
    }

    /// Sleeps about 2 ms per evaluation and records when each call starts.
    struct SlowEngine {
        inner: DecompositionEngine,
        starts: std::sync::Mutex<Vec<Instant>>,
    }

    impl aved_avail::AvailabilityEngine for SlowEngine {
        fn evaluate_with_session(
            &self,
            model: &aved_avail::TierModel,
            session: &mut aved_avail::EvalSession,
        ) -> Result<(aved_avail::TierAvailability, aved_avail::EvalHealth), aved_avail::AvailError>
        {
            self.starts.lock().unwrap().push(Instant::now());
            std::thread::sleep(std::time::Duration::from_millis(2));
            self.inner.evaluate_with_session(model, session)
        }
    }

    #[test]
    fn search_deadline_bounds_the_whole_service_search() {
        // Every tier's frontier alone outlasts the deadline, so a deadline
        // measured per tier would let the later tiers start evaluating
        // long after the whole search should have stopped.
        let fx = app_tier_fixture();
        let engine = SlowEngine {
            inner: DecompositionEngine::default(),
            starts: std::sync::Mutex::new(Vec::new()),
        };
        let ctx = fx.context(&engine);
        let deadline = std::time::Duration::from_millis(20);
        let o = small_opts().with_jobs(1).with_search_deadline(deadline);
        let started = Instant::now();
        let (_, health) =
            search_service_with_health(&ctx, 400.0, Duration::from_mins(5000.0), &o).unwrap();
        assert!(health.interrupted, "{health}");
        let starts = engine.starts.into_inner().unwrap();
        let last = starts.iter().max().expect("some candidate ran");
        let late = last.saturating_duration_since(started);
        assert!(
            late <= deadline + std::time::Duration::from_millis(1),
            "an evaluation started {late:?} into a search bounded to {deadline:?}"
        );
    }
}
