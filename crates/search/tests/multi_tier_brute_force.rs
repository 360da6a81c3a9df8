//! Validation of the multi-tier composition against brute force: on
//! truncated per-tier frontiers, the composed service design must cost
//! exactly the exhaustive optimum over all frontier combinations, bit for
//! bit, and meet the downtime budget.

use aved_avail::DecompositionEngine;
use aved_search::{
    search_service_with_health, tier_pareto_frontier, CachingEngine, EvalContext, EvaluatedDesign,
    SearchOptions,
};
use aved_units::{Duration, Money};

fn fixture() -> (
    aved_model::Infrastructure,
    aved_model::Service,
    aved_perf::Catalog,
) {
    let infra =
        aved_spec::parse_infrastructure(include_str!("../../../data/infrastructure.aved")).unwrap();
    let svc = aved_spec::parse_service(include_str!("../../../data/ecommerce.aved")).unwrap();
    (infra, svc, aved_perf::paper::catalog())
}

/// Small frontier bounds keep the cross product tractable.
fn options() -> SearchOptions {
    SearchOptions {
        max_extra_active: 1,
        max_spares: 1,
        ..SearchOptions::default()
    }
}

/// Every tier's Pareto frontier at `load`, or `None` if a tier has none.
fn frontiers(ctx: &EvalContext<'_>, load: f64) -> Option<Vec<Vec<EvaluatedDesign>>> {
    ctx.service()
        .tiers()
        .iter()
        .map(|tier| {
            let f = tier_pareto_frontier(ctx, tier.name().as_str(), load, &options())
                .unwrap()
                .0;
            (!f.is_empty()).then_some(f)
        })
        .collect()
}

/// Exhaustively composes one design per tier from the frontiers and finds
/// the cheapest combination meeting the budget (series composition).
fn brute_force_cost(frontiers: &[Vec<EvaluatedDesign>], budget: Duration) -> Option<Money> {
    let mut best: Option<Money> = None;
    let sizes: Vec<usize> = frontiers.iter().map(Vec::len).collect();
    let total: usize = sizes.iter().product();
    for mut idx in 0..total {
        let mut cost = Money::ZERO;
        let mut availability = 1.0;
        for (f, &size) in frontiers.iter().zip(&sizes) {
            let choice = &f[idx % size];
            idx /= size;
            cost += choice.cost();
            availability *= choice.availability().availability();
        }
        let downtime = Duration::from_mins((1.0 - availability) * aved_units::MINUTES_PER_YEAR);
        if downtime <= budget && best.is_none_or(|b| cost < b) {
            best = Some(cost);
        }
    }
    best
}

/// Checks the composed design against brute force at `budget`; returns
/// whether the budget was feasible.
fn check_budget(ctx: &EvalContext<'_>, load: f64, budget: Duration) -> bool {
    let composed = search_service_with_health(ctx, load, budget, &options())
        .unwrap()
        .0;
    let brute = frontiers(ctx, load).and_then(|f| brute_force_cost(&f, budget));
    match (composed, brute) {
        (Some(c), Some(b)) => {
            assert_eq!(
                c.cost().dollars().to_bits(),
                b.dollars().to_bits(),
                "load {load}, budget {budget}: composed {} vs brute {b}",
                c.cost()
            );
            assert!(
                c.annual_downtime() <= budget,
                "load {load}, budget {budget}"
            );
            true
        }
        (None, None) => false,
        (c, b) => panic!("load {load}, budget {budget}: composed {c:?} vs brute {b:?}"),
    }
}

#[test]
fn composition_matches_brute_force_across_budgets_and_loads() {
    let (infra, svc, catalog) = fixture();
    let inner = DecompositionEngine::default();
    let engine = CachingEngine::new(&inner);
    let ctx = EvalContext::new(&infra, &svc, &catalog, &engine);
    for load in [100.0, 400.0] {
        // 12 log-spaced budgets from 100 to 10^4 minutes a year.
        let feasible = (0..12)
            .map(|k| Duration::from_mins(100.0 * 100_f64.powf(f64::from(k) / 11.0)))
            .filter(|&budget| check_budget(&ctx, load, budget))
            .count();
        assert!(feasible > 0, "load {load}: no budget was feasible");
    }
}

#[test]
fn composition_is_exact_when_one_tier_dominates() {
    // The database tier is fixed (single option, nActive=[1]), so under a
    // tight budget the choice is between web and application upgrades.
    let (infra, svc, catalog) = fixture();
    let inner = DecompositionEngine::default();
    let engine = CachingEngine::new(&inner);
    let ctx = EvalContext::new(&infra, &svc, &catalog, &engine);
    assert!(
        check_budget(&ctx, 400.0, Duration::from_mins(300.0)),
        "feasible"
    );
}
