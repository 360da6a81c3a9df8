//! Multi-tier service search (paper §4.1, first paragraph): one
//! cost/downtime frontier per tier, then the exact cheapest composition of
//! one point per frontier that meets the service downtime requirement.
//! The frontiers are budget-directed: a query evaluates only the
//! candidates that can appear in its answer (see
//! [`search_service_with_health`]).

use std::time::Instant;

use aved_avail::combine_series;
use aved_model::Design;
use aved_units::{Duration, Money};

use crate::frontier::{enumerate, pareto_frontier, Enumerated};
use crate::sweep::{Objective, Sweep};
use crate::tier_search::cost_first;
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

/// `true` when a service of availability `availability` misses
/// `max_downtime`. Monotone: a lower availability never meets a budget a
/// higher one misses.
fn misses(availability: f64, max_downtime: Duration) -> bool {
    Duration::from_mins((1.0 - availability) * aved_units::MINUTES_PER_YEAR) > max_downtime
}

/// The cheapest composition of one point per frontier whose service
/// downtime meets `max_downtime`, or `None` when no composition does (or
/// there are no frontiers).
///
/// Every frontier is non-empty and sorted by strictly increasing cost and
/// strictly decreasing downtime, so for one choice of all tiers but the
/// last, the last-tier points meeting the requirement form a suffix of its
/// frontier and the first of them is the cheapest: a binary search finds
/// it. The other tiers' choices are visited in increasing flat index
/// (first tier fastest), and an equal-cost composition replaces the kept
/// one only when its last-tier index is smaller. The winner is therefore
/// the (cost, flat index) minimum over the whole cross product, with the
/// last tier's index most significant. Costs and availabilities are
/// combined in tier order, so every comparison rounds as [`compose`] does.
fn cheapest_composition<F: AsRef<[EvaluatedDesign]>>(
    frontiers: &[F],
    max_downtime: Duration,
) -> Option<ServiceDesign> {
    let (last, rest) = frontiers.split_last()?;
    let last = last.as_ref();
    let mut index = vec![0; rest.len()];
    let mut best: Option<(Money, Vec<usize>, usize)> = None;
    loop {
        let mut cost = Money::ZERO;
        let mut availability = 1.0;
        for (f, &i) in rest.iter().zip(&index) {
            cost += f.as_ref()[i].cost();
            availability *= f.as_ref()[i].availability().availability();
        }
        let j = last.partition_point(|e| {
            misses(availability * e.availability().availability(), max_downtime)
        });
        if let Some(e) = last.get(j) {
            let cost = cost + e.cost();
            if best
                .as_ref()
                .is_none_or(|(c, _, k)| cost < *c || (cost == *c && j < *k))
            {
                best = Some((cost, index.clone(), j));
            }
        }
        // Advance like an odometer, the first tier's index fastest.
        let Some(t) = (0..rest.len()).find(|&t| index[t] + 1 < rest[t].as_ref().len()) else {
            break;
        };
        index[t] += 1;
        index[..t].fill(0);
    }
    let (_, index, j) = best?;
    let tiers: Vec<EvaluatedDesign> = rest
        .iter()
        .zip(&index)
        .map(|(f, &i)| f.as_ref()[i].clone())
        .chain(std::iter::once(last[j].clone()))
        .collect();
    let (cost, annual_downtime) = compose(&tiers);
    Some(ServiceDesign {
        tiers,
        cost,
        annual_downtime,
    })
}

/// Finds the minimum-cost multi-tier design meeting a service-level
/// throughput and downtime requirement, and reports the aggregated
/// [`SearchHealth`] of every per-tier sweep: candidates skipped after
/// evaluation failures, solver fallbacks taken, the worst accepted
/// residual, and the total wall time.
///
/// Following §4.1, the answer is composed from per-tier cost/downtime
/// frontiers, each computed as if the other tiers never fail. The paper
/// then refines the combination by making one tier's requirement
/// "incrementally more aggressive" until the service requirement holds;
/// here the composition step instead returns the optimum that refinement
/// approximates — the cheapest choice of one frontier point per tier whose
/// series downtime meets `max_downtime`, ties going to the smallest
/// cross-product index (last tier most significant). It runs serially on
/// the calling thread; its work is the product of all frontier sizes but
/// the last, times the log of the last. A service with no tiers has no
/// design.
///
/// The frontiers are budget-directed, as §4.1's search is cost-first:
///
/// 1. every tier's candidates are enumerated and costed before any is
///    evaluated;
/// 2. the tier with the fewest candidates runs its full frontier. A
///    composition is never more available than that tier's best point, so
///    when that point misses `max_downtime` the query is infeasible and
///    stops there;
/// 3. a few cheap feasible compositions bound the answer's cost: a point
///    of that tier, and each other tier's cheapest design within an even
///    share of what the point leaves of the budget, found by a cost-first
///    search ([`search_tier`](crate::search_tier)'s loop) on the tier's
///    own sweep;
/// 4. every other tier then evaluates only its candidates that can fit
///    under that bound beside the other tiers' cheapest possible points.
///    Their frontiers are prefixes of the full ones, so the answer is the
///    one the full frontiers give, bit for bit.
///
/// When step 3 finds no bound, the other tiers run full frontiers, and the
/// proof of step 2 is re-checked after each. Candidates no run reaches
/// count as pruned. `DESIGN.md`, "Budget-directed evaluation", gives the
/// arguments.
///
/// Candidate evaluation failures are isolated to the failing candidate
/// (unless [`SearchOptions::strict`]). [`SearchOptions::search_deadline`]
/// bounds the whole search, every tier's sweep included; only an
/// uninterrupted sweep proves a query infeasible.
///
/// # Errors
///
/// Returns [`SearchError`] for unresolvable references in any tier and
/// for evaluation failures; an unsatisfiable requirement yields
/// `Ok((None, health))`.
pub fn search_service_with_health(
    ctx: &EvalContext<'_>,
    load: f64,
    max_downtime: Duration,
    options: &SearchOptions,
) -> Result<(Option<ServiceDesign>, SearchHealth), SearchError> {
    let started = Instant::now();
    let query = Query {
        frontier: Objective::downtime_at(load),
        load,
        max_downtime,
    };
    let mut tiers = Vec::new();
    for tier in ctx.service().tiers() {
        let mut sweep = Sweep::new(ctx, tier.name().as_str(), options, started)?;
        let tier = enumerate(&mut sweep, &query.frontier, None)?;
        tiers.push(TierQuery {
            sweep,
            tier,
            frontier: Vec::new(),
            complete: false,
        });
    }

    let found = query.answer(&mut tiers)?;
    let mut health = SearchHealth::default();
    let mut pending = 0;
    for t in tiers {
        pending += t.tier.batch.pending();
        health.merge(t.sweep.finish(started));
    }
    // Candidates no run reached count as pruned: never evaluated after the
    // answer was proved, unless the deadline or a cancellation cut the
    // query short.
    if !health.interrupted {
        health.candidates_pruned += pending;
    }
    health.wall_time = started.elapsed();
    Ok((found, health))
}

/// One tier of a service query: its sweep, every candidate, and its
/// frontier as last run.
struct TierQuery<'s, 'c> {
    sweep: Sweep<'s, 'c>,
    tier: Enumerated<'c>,
    frontier: Vec<EvaluatedDesign>,
    /// `true` once `frontier` is the full frontier of an uninterrupted
    /// sweep.
    complete: bool,
}

/// A service query's requirement.
struct Query {
    /// The frontiers' objective: downtime at the load, no requirement.
    frontier: Objective,
    load: f64,
    max_downtime: Duration,
}

impl Query {
    /// The query's answer over enumerated `tiers`, running as few
    /// candidates as prove it (steps 2–4 of
    /// [`search_service_with_health`]).
    fn answer(
        &self,
        tiers: &mut [TierQuery<'_, '_>],
    ) -> Result<Option<ServiceDesign>, SearchError> {
        if tiers.iter().any(|t| t.tier.batch.is_empty()) {
            return Ok(None); // a tier cannot support the load at all
        }
        // Fewest candidates first (stable: ties keep tier order).
        let mut order: Vec<usize> = (0..tiers.len()).collect();
        order.sort_by_key(|&i| tiers[i].tier.batch.len());
        let Some((&first, rest)) = order.split_first() else {
            return Ok(None);
        };
        if self.settled_infeasible(tiers, first)? {
            return Ok(None);
        }

        let bound = if rest.is_empty() {
            None
        } else {
            self.upper_bound(tiers, first, rest)?
        };
        if let Some(ub) = bound {
            let mins: Vec<Money> = tiers.iter().map(|t| self.least_cost(t)).collect();
            for &i in rest {
                self.run(&mut tiers[i], Some(cap(&mins, i, ub)))?;
            }
            // The capped frontiers are prefixes of the full ones that hold
            // every point of a composition costing at most `ub`, with the
            // same indices. The full frontiers' (cost, flat index) winner
            // costs at most the capped winner, so when that costs at most
            // `ub` the two winners are one composition.
            let found = compose_frontiers(tiers, self.max_downtime);
            if found.as_ref().is_some_and(|sd| sd.cost() <= ub) {
                return Ok(found);
            }
        }

        for &i in rest {
            if self.settled_infeasible(tiers, i)? {
                return Ok(None);
            }
        }
        let found = compose_frontiers(tiers, self.max_downtime);
        // The capped frontiers above miss the answer only when it costs
        // more than the bound, which takes two designs of one tier with
        // equal downtime and different availability bits, right at the
        // budget.
        debug_assert!(
            bound.is_none()
                || tiers.iter().any(|t| !t.complete)
                || found
                    .as_ref()
                    .is_none_or(|sd| bound.is_some_and(|ub| ub < sd.cost())),
            "the capped frontiers missed an answer within the bound"
        );
        Ok(found)
    }

    /// A lower bound on `tier`'s cost in any composition that meets the
    /// budget. A complete tier's points that miss the budget on their own
    /// cannot be part of one, since a composition is never more available
    /// than its points, so its cheapest point that meets the budget is the
    /// bound; any other tier's is its cheapest candidate.
    fn least_cost(&self, tier: &TierQuery<'_, '_>) -> Money {
        let meets =
            |e: &&EvaluatedDesign| !misses(e.availability().availability(), self.max_downtime);
        match tier.frontier.iter().find(meets) {
            Some(e) if tier.complete => e.cost(),
            _ => tier
                .tier
                .batch
                .cheapest(0..tier.tier.batch.len())
                .expect("the tier has candidates"),
        }
    }

    /// Runs `tier`'s frontier over the candidates costing at most `cap`,
    /// or over all of them. Candidates an earlier run folded are not
    /// evaluated again.
    fn run(&self, tier: &mut TierQuery<'_, '_>, cap: Option<Money>) -> Result<(), SearchError> {
        tier.frontier =
            pareto_frontier(&mut tier.sweep, &self.frontier, &mut tier.tier.batch, cap)?;
        tier.complete = cap.is_none() && !tier.sweep.health.interrupted;
        Ok(())
    }

    /// Runs tier `i`'s full frontier; `true` when that proves the query
    /// infeasible: the frontier is empty, or the tiers run in full so far
    /// cannot meet the budget whatever the others choose.
    fn settled_infeasible(
        &self,
        tiers: &mut [TierQuery<'_, '_>],
        i: usize,
    ) -> Result<bool, SearchError> {
        self.run(&mut tiers[i], None)?;
        Ok(tiers[i].frontier.is_empty() || misses(best_availability(tiers), self.max_downtime))
    }

    /// An upper bound on the answer's cost: the cheapest of a few feasible
    /// compositions, each checked through [`cheapest_composition`]. Each
    /// takes one point of the complete tier `first` whose downtime leaves
    /// some of the budget, and for each tier of `rest` its cheapest design
    /// within an even share of what that point leaves, found by a
    /// cost-first search on the tier's own sweep (the searches stop at the
    /// first tier without one). The points are tried cheapest first, until
    /// one costs too much, beside the other tiers' cheapest candidates, to
    /// beat the bound so far. `None` when no composition is found.
    fn upper_bound(
        &self,
        tiers: &mut [TierQuery<'_, '_>],
        first: usize,
        rest: &[usize],
    ) -> Result<Option<Money>, SearchError> {
        let shares = (tiers.len() - 1) as f64;
        let least_rest: Money = rest.iter().map(|&i| self.least_cost(&tiers[i])).sum();
        let mut bound: Option<Money> = None;
        for p in 0..tiers[first].frontier.len() {
            let point = &tiers[first].frontier[p];
            if bound.is_some_and(|b| b <= point.cost() + least_rest) {
                break;
            }
            if point.annual_downtime() >= self.max_downtime {
                continue;
            }
            let share = Objective::Enterprise {
                load: self.load,
                max_downtime: (self.max_downtime - point.annual_downtime()) / shares,
            };
            let mut picks = vec![None; tiers.len()];
            picks[first] = Some(vec![point.clone()]);
            for &i in rest {
                let TierQuery { sweep, tier, .. } = &mut tiers[i];
                let level = |_: &mut Sweep<'_, '_>, _: &mut _, (option, n_total, _)| {
                    let level = tier.levels.iter().find(|l| (l.0, l.1) == (option, n_total));
                    Ok(level.map_or(0..0, |l| l.2.clone()))
                };
                let Some(pick) = cost_first(sweep, &share, &mut tier.batch, level)?.0 else {
                    break;
                };
                picks[i] = Some(vec![pick]);
            }
            let singletons: Option<Vec<Vec<EvaluatedDesign>>> = picks.into_iter().collect();
            let found = singletons.and_then(|s| cheapest_composition(&s, self.max_downtime));
            if let Some(sd) = found {
                bound = Some(bound.map_or(sd.cost(), |b| b.min(sd.cost())));
            }
        }
        Ok(bound)
    }
}

/// The highest service availability any composition can reach, as far as
/// the complete frontiers tell: their best availabilities multiplied in
/// tier order. Every availability is at most 1, so each product
/// [`cheapest_composition`] forms, over every tier in tier order, is at
/// most this one: multiplying by a factor ≤ 1 never raises a value, and
/// rounding is monotone.
fn best_availability(tiers: &[TierQuery<'_, '_>]) -> f64 {
    tiers
        .iter()
        .filter(|t| t.complete)
        .map(|t| {
            let availabilities = t.frontier.iter().map(|e| e.availability().availability());
            availabilities.fold(0.0, f64::max)
        })
        .fold(1.0, |product, best| product * best)
}

/// The cap of tier `i` under bound `ub`: the largest cost the tier's point
/// can have in a composition costing at most `ub`, found with every other
/// tier at its cheapest candidate (`mins`) and the costs summed in tier
/// order as [`cheapest_composition`] sums them. That is `ub − Σ_{j≠i}
/// mins[j]` rounded up to the last `f64` that still fits. Floating-point
/// addition is monotone in each operand, so a point of any composition
/// costing at most `ub` costs at most the cap.
fn cap(mins: &[Money], i: usize, ub: Money) -> Money {
    let total = |x: f64| {
        let cost = |(j, &m): (usize, &Money)| if j == i { Money::from_dollars(x) } else { m };
        mins.iter()
            .enumerate()
            .map(cost)
            .fold(Money::ZERO, |sum, c| sum + c)
    };
    // Binary search over the f64s in order, through keys that order as
    // the values do.
    let key = |x: f64| {
        let bits = x.to_bits();
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        }
    };
    let value = |k: u64| f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k });
    let (mut fits, mut over) = (key(f64::NEG_INFINITY), key(f64::INFINITY));
    while over - fits > 1 {
        let mid = fits + (over - fits) / 2;
        if total(value(mid)) <= ub {
            fits = mid;
        } else {
            over = mid;
        }
    }
    Money::from_dollars(value(fits))
}

/// The cheapest composition of the tiers' frontiers as last run, or
/// `None` when one is empty. Its time counts as the first tier's merge
/// time, which the query's health sums.
fn compose_frontiers(
    tiers: &mut [TierQuery<'_, '_>],
    max_downtime: Duration,
) -> Option<ServiceDesign> {
    let composing = Instant::now();
    let frontiers: Vec<&[EvaluatedDesign]> = tiers.iter().map(|t| &t.frontier[..]).collect();
    let found = if frontiers.iter().any(|f| f.is_empty()) {
        None
    } else {
        cheapest_composition(&frontiers, max_downtime)
    };
    tiers[0].sweep.health.merge_time += composing.elapsed();
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::app_tier_fixture;
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
        let engine = DecompositionEngine::default();
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
        let engine = DecompositionEngine::default();
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
        let engine = DecompositionEngine::default();
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

        // Kill the last evaluated candidate. The query evaluates it in a
        // capped frontier (the application tier's rD x2 at gold, a point
        // of that frontier), but the winning composition does not use it:
        // its failure drops it from the frontier and the same winner
        // stands.
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
        let killed = &health.skipped[0];
        assert_eq!(
            (&killed.tier[..], &killed.resource[..], killed.n_active),
            ("application", "rD", 2)
        );
        assert!(
            !baseline.tiers().iter().any(|e| {
                let d = e.design();
                (
                    d.tier().as_str(),
                    d.resource().as_str(),
                    d.n_active(),
                    d.n_spare(),
                ) == (
                    &killed.tier[..],
                    &killed.resource[..],
                    killed.n_active,
                    killed.n_spare,
                )
            }),
            "the killed candidate is outside the winning composition: {killed:?}"
        );
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
        let engine = DecompositionEngine::default();
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

    /// A splitmix64 stream: seeded, dependency-free test randomness.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1_u64 << 53) as f64
        }
    }

    /// A synthetic frontier of `len` points: costs rise in coarse $10
    /// steps, so sums across tiers tie often, and unavailability falls by
    /// a factor of 0.2–0.9 per point, far enough down that some points
    /// round to availability 1.
    fn synthetic_frontier(rng: &mut Rng, tier: usize, len: usize) -> Vec<EvaluatedDesign> {
        let mut cost = 10.0 * rng.below(5) as f64;
        let mut unavailability = 10_f64.powf(-1.0 - 2.0 * rng.unit());
        (0..len)
            .map(|k| {
                if k > 0 {
                    cost += 10.0 * (1 + rng.below(3)) as f64;
                    unavailability *= 0.2 + 0.7 * rng.unit();
                }
                EvaluatedDesign::for_tests(
                    aved_model::TierDesign::new(format!("t{tier}"), "r", k as u32 + 1, 0),
                    Money::from_dollars(cost),
                    aved_avail::TierAvailability::new(unavailability, aved_units::Rate::ZERO),
                    None,
                )
            })
            .collect()
    }

    /// Each tier's index for a flat cross-product index, first tier fastest.
    fn unflatten(frontiers: &[Vec<EvaluatedDesign>], mut flat: usize) -> Vec<usize> {
        frontiers
            .iter()
            .map(|f| {
                let i = flat % f.len();
                flat /= f.len();
                i
            })
            .collect()
    }

    /// The (cost, service downtime) of every composition, in flat order.
    fn every_composition(frontiers: &[Vec<EvaluatedDesign>]) -> Vec<(Money, Duration)> {
        let total: usize = frontiers.iter().map(Vec::len).product();
        (0..total)
            .map(|mut flat| {
                let mut cost = Money::ZERO;
                let mut availability = 1.0;
                for f in frontiers {
                    let p = &f[flat % f.len()];
                    flat /= f.len();
                    cost += p.cost();
                    availability *= p.availability().availability();
                }
                let downtime =
                    Duration::from_mins((1.0 - availability) * aved_units::MINUTES_PER_YEAR);
                (cost, downtime)
            })
            .collect()
    }

    /// The reference rule: the feasible composition with the smallest
    /// (cost, flat index) over the whole cross product.
    fn reference(all: &[(Money, Duration)], max_downtime: Duration) -> Option<usize> {
        let mut best: Option<(Money, usize)> = None;
        for (flat, &(cost, downtime)) in all.iter().enumerate() {
            if downtime <= max_downtime && best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, flat));
            }
        }
        best.map(|(_, flat)| flat)
    }

    fn assert_matches_reference(frontiers: &[Vec<EvaluatedDesign>], rng: &mut Rng) {
        let all = every_composition(frontiers);
        for budget in budgets(rng, &all) {
            let found = cheapest_composition(frontiers, budget);
            let Some(flat) = reference(&all, budget) else {
                assert!(found.is_none(), "budget {budget}: {found:?}");
                continue;
            };
            let found = found.unwrap_or_else(|| panic!("budget {budget}: no design"));
            let chosen: Vec<usize> = frontiers
                .iter()
                .zip(found.tiers())
                .map(|(f, e)| f.iter().position(|p| p == e).expect("a frontier point"))
                .collect();
            assert_eq!(chosen, unflatten(frontiers, flat), "budget {budget}");
            let (cost, downtime) = all[flat];
            assert_eq!(found.cost().dollars().to_bits(), cost.dollars().to_bits());
            assert_eq!(
                found.annual_downtime().minutes().to_bits(),
                downtime.minutes().to_bits()
            );
        }
    }

    /// Budgets from infeasible to all-feasible: zero, log-spaced between
    /// the best and worst service downtime, a few compositions' exact
    /// downtimes, and twice the worst.
    fn budgets(rng: &mut Rng, all: &[(Money, Duration)]) -> Vec<Duration> {
        let best = all
            .iter()
            .map(|c| c.1.minutes())
            .fold(f64::INFINITY, f64::min);
        let worst = all.iter().map(|c| c.1.minutes()).fold(0.0, f64::max);
        let low = best.max(1e-12);
        let mut out = vec![Duration::ZERO, Duration::from_mins(2.0 * worst)];
        out.extend(
            (0..=6).map(|k| {
                Duration::from_mins(low * (worst / low).max(1.0).powf(f64::from(k) / 6.0))
            }),
        );
        for _ in 0..4 {
            out.push(all[rng.below(all.len() as u64) as usize].1);
        }
        out
    }

    #[test]
    fn composition_matches_the_cross_product_reference() {
        let mut rng = Rng(0x5EED);
        for _ in 0..120 {
            let tiers = 1 + rng.below(4) as usize;
            let frontiers: Vec<Vec<EvaluatedDesign>> = (0..tiers)
                .map(|t| {
                    let len = 1 + rng.below(30) as usize;
                    synthetic_frontier(&mut rng, t, len)
                })
                .collect();
            assert_matches_reference(&frontiers, &mut rng);
        }
    }

    #[test]
    fn composition_is_exact_above_a_quarter_million_combinations() {
        let mut rng = Rng(70);
        let frontiers: Vec<Vec<EvaluatedDesign>> = (0..3)
            .map(|t| synthetic_frontier(&mut rng, t, 70))
            .collect();
        assert!(frontiers.iter().map(Vec::len).product::<usize>() > 250_000);
        assert_matches_reference(&frontiers, &mut rng);
    }

    #[test]
    fn no_frontiers_compose_to_none() {
        assert!(
            cheapest_composition::<Vec<EvaluatedDesign>>(&[], Duration::from_mins(f64::MAX))
                .is_none()
        );
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
        let o = small_opts().with_search_deadline(deadline);
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
