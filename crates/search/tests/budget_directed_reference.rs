//! Budget-directed service queries against a full-frontier reference.
//!
//! `search_service_with_health` evaluates only the candidates that can
//! appear in its answer: one tier's full frontier, a few cost-first
//! searches and capped frontiers for the rest. The reference here takes no
//! shortcut: every tier's full frontier from `tier_pareto_frontier`, then
//! the (cost, flat index) minimum over the whole cross product, the first
//! tier's index varying fastest. The two must agree on the designs and on
//! the bits of the cost and the downtime, over random loads and budgets,
//! under both engines. One fixture has the
//! paper's whole-dollar costs; the other adds cents, so that sums of costs
//! round and a cap computed without rounding up would cut off answers.

use aved_avail::{combine_series, AvailabilityEngine, CtmcEngine, DecompositionEngine};
use aved_model::{Infrastructure, Service, TierDesign};
use aved_search::{
    search_service_with_health, tier_pareto_frontier, EvalContext, EvaluatedDesign, SearchOptions,
};
use aved_units::{Duration, Money};

const INFRASTRUCTURE: &str = include_str!("../../../data/infrastructure.aved");

fn service() -> Service {
    aved_spec::parse_service(include_str!("../../../data/ecommerce.aved")).unwrap()
}

/// The paper's infrastructure.
fn paper() -> Infrastructure {
    aved_spec::parse_infrastructure(INFRASTRUCTURE).unwrap()
}

/// The paper's infrastructure with cents added to every nonzero cost.
fn with_cents() -> Infrastructure {
    let text = [
        ("[2400 2640]", "[2400.1 2640.3]"),
        ("[85000 93500]", "[85000.7 93500.3]"),
        ("[0 200]", "[0 200.1]"),
        ("[0 1700]", "[0 1700.3]"),
        ("[0 2000]", "[0 2000.7]"),
        ("[0 20000]", "[0 20000.1]"),
        ("[380 580 760 1500]", "[380.3 580.1 760.7 1500.3]"),
        (
            "[10100 12600 15800 25300]",
            "[10100.1 12600.3 15800.7 25300.9]",
        ),
    ]
    .iter()
    .fold(INFRASTRUCTURE.to_owned(), |text, (from, to)| {
        assert!(text.contains(from), "{from}");
        text.replace(from, to)
    });
    aved_spec::parse_infrastructure(&text).unwrap()
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

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1_u64 << 53) as f64
    }
}

/// A budget every design meets.
fn whole_year() -> Duration {
    Duration::from_mins(aved_units::MINUTES_PER_YEAR)
}

/// An answer as the comparison sees it: the tier designs and the bits of
/// the cost and the downtime.
type Answer = (Vec<TierDesign>, u64, u64);

/// Every tier's full frontier at one load, and every composition's cost
/// and service downtime in flat order (first tier fastest), computed as
/// the composition step computes them.
struct Reference {
    frontiers: Vec<Vec<EvaluatedDesign>>,
    compositions: Vec<(Money, Duration)>,
}

impl Reference {
    /// `None` when some tier has an empty frontier: no design at all.
    fn new(ctx: &EvalContext<'_>, load: f64, options: &SearchOptions) -> Option<Reference> {
        let frontiers: Vec<Vec<EvaluatedDesign>> = ctx
            .service()
            .tiers()
            .iter()
            .map(|tier| {
                let (f, health) =
                    tier_pareto_frontier(ctx, tier.name().as_str(), load, options).unwrap();
                assert!(!health.is_degraded(), "{health}");
                f
            })
            .collect();
        if frontiers.iter().any(Vec::is_empty) {
            return None;
        }
        let total: usize = frontiers.iter().map(Vec::len).product();
        let compositions = (0..total)
            .map(|flat| {
                let mut cost = Money::ZERO;
                let mut availability = 1.0;
                for p in Self::points(&frontiers, flat) {
                    cost += p.cost();
                    availability *= p.availability().availability();
                }
                let downtime =
                    Duration::from_mins((1.0 - availability) * aved_units::MINUTES_PER_YEAR);
                (cost, downtime)
            })
            .collect();
        Some(Reference {
            frontiers,
            compositions,
        })
    }

    /// The points of composition `flat`, in tier order.
    fn points(frontiers: &[Vec<EvaluatedDesign>], mut flat: usize) -> Vec<&EvaluatedDesign> {
        frontiers
            .iter()
            .map(|f| {
                let p = &f[flat % f.len()];
                flat /= f.len();
                p
            })
            .collect()
    }

    /// The feasible composition with the smallest (cost, flat index).
    fn answer(&self, budget: Duration) -> Option<Answer> {
        let mut best: Option<(Money, usize)> = None;
        for (flat, &(cost, downtime)) in self.compositions.iter().enumerate() {
            if downtime <= budget && best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, flat));
            }
        }
        let points = Self::points(&self.frontiers, best?.1);
        let cost: Money = points.iter().map(|p| p.cost()).sum();
        let availabilities: Vec<_> = points.iter().map(|p| *p.availability()).collect();
        let downtime = combine_series(&availabilities).annual_downtime();
        let designs = points.iter().map(|p| p.design().clone()).collect();
        Some((
            designs,
            cost.dollars().to_bits(),
            downtime.minutes().to_bits(),
        ))
    }

    /// Budgets from infeasible to all-feasible: `draws` log-uniform over
    /// 0.1–10⁴ min/yr, as many compositions' exact downtimes, each tier's
    /// floor (its most available point alone) and one ulp either side of
    /// it, the cheapest composition's downtime, and a whole year. Under the
    /// last, the answer is every tier's cheapest point, and the query's cost
    /// bound is exactly its cost, so each tier's cap falls exactly on a
    /// candidate's cost.
    fn budgets(&self, rng: &mut Rng, draws: usize) -> Vec<Duration> {
        let mut budgets: Vec<Duration> = (0..draws)
            .map(|_| Duration::from_mins(0.1 * 1e5_f64.powf(rng.unit())))
            .collect();
        budgets.push(self.compositions[0].1);
        budgets.push(whole_year());
        for _ in 0..draws {
            budgets.push(self.compositions[rng.below(self.compositions.len())].1);
        }
        for f in &self.frontiers {
            let best = f
                .iter()
                .map(|e| e.availability().availability())
                .fold(0.0, f64::max);
            let floor = Duration::from_mins((1.0 - best) * aved_units::MINUTES_PER_YEAR);
            let bits = floor.seconds().to_bits();
            budgets
                .extend([bits - 1, bits, bits + 1].map(|b| Duration::from_secs(f64::from_bits(b))));
        }
        budgets
    }
}

/// Compares the search with the reference at each of `loads`, over
/// `draws` random and `draws` exact budgets plus the tier floors.
fn check(
    infra: &Infrastructure,
    engine: &dyn AvailabilityEngine,
    options: &SearchOptions,
    loads: &[f64],
    draws: usize,
    seed: u64,
) {
    let svc = service();
    let catalog = aved_perf::paper::catalog();
    let ctx = EvalContext::new(infra, &svc, &catalog, engine);
    let mut rng = Rng(seed);
    let mut answered = [0_usize; 2];
    let whole_year = whole_year();
    for &load in loads {
        let reference = Reference::new(&ctx, load, options);
        let budgets = match &reference {
            Some(r) => r.budgets(&mut rng, draws),
            None => vec![Duration::from_mins(1e4)],
        };
        for budget in budgets {
            let expected = reference.as_ref().and_then(|r| r.answer(budget));
            answered[usize::from(expected.is_some())] += 1;
            let (found, health) = search_service_with_health(&ctx, load, budget, options).unwrap();
            assert!(!health.is_degraded(), "{health}");
            let found: Option<Answer> = found.map(|sd| {
                (
                    sd.tiers().iter().map(|e| e.design().clone()).collect(),
                    sd.cost().dollars().to_bits(),
                    sd.annual_downtime().minutes().to_bits(),
                )
            });
            assert_eq!(found, expected, "load {load}, budget {budget:?}");
            // Under a whole year the cost bound is exact, and each cap
            // leaves out every candidate dearer than the tier's cheapest:
            // caps that missed the answer would fall back to the full
            // frontiers and prune nothing.
            if budget == whole_year && reference.is_some() {
                assert!(health.candidates_pruned > 0, "load {load}: {health}");
            }
        }
    }
    assert!(
        answered.iter().all(|&n| n > 0),
        "feasible and infeasible budgets both tested: {answered:?}"
    );
}

fn decomp_options() -> SearchOptions {
    SearchOptions {
        max_extra_active: 2,
        max_spares: 1,
        ..SearchOptions::default()
    }
}

fn ctmc_options() -> SearchOptions {
    SearchOptions {
        max_extra_active: 1,
        max_spares: 1,
        ..SearchOptions::default()
    }
}

/// `n` loads drawn from the Fig. 6 grid, 200–3000 in steps of 200.
fn loads(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = Rng(seed);
    (0..n).map(|_| 200.0 * (1 + rng.below(15)) as f64).collect()
}

#[test]
fn decomposition_queries_match_the_reference() {
    let engine = DecompositionEngine::default();
    check(&paper(), &engine, &decomp_options(), &loads(1, 6), 8, 11);
}

#[test]
fn decomposition_queries_match_the_reference_when_costs_round() {
    let engine = DecompositionEngine::default();
    check(
        &with_cents(),
        &engine,
        &decomp_options(),
        &loads(2, 6),
        8,
        12,
    );
}

#[test]
fn exact_queries_match_the_reference() {
    let engine = CtmcEngine::default();
    check(&paper(), &engine, &ctmc_options(), &loads(3, 1), 2, 13);
    check(&with_cents(), &engine, &ctmc_options(), &loads(4, 1), 2, 14);
}
