//! Multi-tier service search (paper §4.1, first paragraph): one
//! cost/downtime frontier per tier, then the exact cheapest composition of
//! one point per frontier that meets the service downtime requirement.

use std::time::Instant;

use aved_avail::combine_series;
use aved_model::Design;
use aved_units::{Duration, Money};

use crate::frontier::frontier;
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
fn cheapest_composition(
    frontiers: &[Vec<EvaluatedDesign>],
    max_downtime: Duration,
) -> Option<ServiceDesign> {
    let (last, rest) = frontiers.split_last()?;
    let mut index = vec![0; rest.len()];
    let mut best: Option<(Money, Vec<usize>, usize)> = None;
    loop {
        let mut cost = Money::ZERO;
        let mut availability = 1.0;
        for (f, &i) in rest.iter().zip(&index) {
            cost += f[i].cost();
            availability *= f[i].availability().availability();
        }
        let j = last.partition_point(|e| {
            let a = availability * e.availability().availability();
            Duration::from_mins((1.0 - a) * aved_units::MINUTES_PER_YEAR) > max_downtime
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
        let Some(t) = (0..rest.len()).find(|&t| index[t] + 1 < rest[t].len()) else {
            break;
        };
        index[t] += 1;
        index[..t].fill(0);
    }
    let (_, index, j) = best?;
    let tiers: Vec<EvaluatedDesign> = rest
        .iter()
        .zip(&index)
        .map(|(f, &i)| f[i].clone())
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
/// [`SearchHealth`] of every per-tier frontier sweep: candidates skipped
/// after evaluation failures, solver fallbacks taken, the worst accepted
/// residual, and the total wall time.
///
/// Following §4.1, each tier is first optimized in isolation: its own
/// cost/downtime frontier, computed as if the other tiers never fail. The
/// paper then refines the combination by making one tier's requirement
/// "incrementally more aggressive" until the service requirement holds;
/// here the composition step instead returns the optimum that refinement
/// approximates — the cheapest choice of one frontier point per tier whose
/// series downtime meets `max_downtime`, ties going to the smallest
/// cross-product index (last tier most significant). It runs serially on
/// the calling thread; its work is the product of all frontier sizes but
/// the last, times the log of the last. A service with no tiers has no
/// design.
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

    let composing = Instant::now();
    let found = cheapest_composition(&frontiers, max_downtime);
    health.merge_time += composing.elapsed();
    health.wall_time = started.elapsed();
    Ok((found, health))
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
        assert!(cheapest_composition(&[], Duration::from_mins(f64::MAX)).is_none());
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
