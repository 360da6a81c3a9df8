//! Integration tests: qualitative shape assertions for the paper's
//! evaluation figures (§5). We do not chase absolute numbers — the paper's
//! software failure rates were the authors' estimates — but every
//! comparative claim the paper makes about Figs. 6, 7 and 8 is asserted
//! here against our engines.

use aved::avail::{derive_tier_model, DecompositionEngine, FaultInjectingEngine};
use aved::model::ParamValue;
use aved::scenario;
use aved::search::{
    enumerate_tier_candidates, job_frontier, search_job_tier, tier_pareto_frontier, EvalContext,
    EvaluatedDesign, SearchOptions,
};
use aved::units::Duration;

struct Fx {
    infrastructure: aved::Infrastructure,
    service: aved::Service,
    catalog: aved::Catalog,
}

fn ecommerce_fx() -> Fx {
    Fx {
        infrastructure: scenario::infrastructure().unwrap(),
        service: scenario::ecommerce().unwrap(),
        catalog: scenario::catalog(),
    }
}

fn scientific_fx() -> Fx {
    Fx {
        infrastructure: scenario::infrastructure().unwrap(),
        service: scenario::scientific().unwrap(),
        catalog: scenario::catalog(),
    }
}

fn frontier_at(fx: &Fx, load: f64) -> Vec<EvaluatedDesign> {
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
    tier_pareto_frontier(&ctx, "application", load, &SearchOptions::default())
        .unwrap()
        .0
}

fn family(e: &EvaluatedDesign) -> (String, String, u32, u32) {
    let td = e.design();
    let level = td
        .setting("maintenanceA", "level")
        .or_else(|| td.setting("maintenanceB", "level"))
        .map_or_else(|| "-".to_owned(), ToString::to_string);
    (
        td.resource().as_str().to_owned(),
        level,
        e.n_extra(),
        td.n_spare(),
    )
}

// ---------------------------------------------------------------------
// Fig. 6: optimal design families over (load, downtime).
// ---------------------------------------------------------------------

#[test]
fn fig6_machinea_dominates_within_plotted_range() {
    // "the more powerful machineB is never selected" (within the plotted
    // 0.1..10000 min/yr range).
    for load in [400.0, 1400.0, 3000.0, 5000.0] {
        for e in frontier_at(&ecommerce_fx(), load)
            .iter()
            .filter(|e| e.annual_downtime().minutes() >= 0.1)
        {
            let (resource, ..) = family(e);
            assert!(
                resource == "rC" || resource == "rD",
                "load {load}: {resource} selected at {} min/yr",
                e.annual_downtime().minutes()
            );
        }
    }
}

#[test]
fn fig6_cheapest_family_is_bronze_without_redundancy() {
    // The bottom of the requirement space is family 1:
    // (machineA/linux/appserverA, bronze, 0, 0).
    let frontier = frontier_at(&ecommerce_fx(), 400.0);
    let (resource, level, n_extra, n_spare) = family(&frontier[0]);
    assert_eq!(resource, "rC");
    assert_eq!(level, "bronze");
    assert_eq!(n_extra, 0);
    assert_eq!(n_spare, 0);
}

#[test]
fn fig6_contract_upgrades_precede_redundancy() {
    // Moving up the frontier from family 1, the next steps upgrade the
    // maintenance contract (families 2, 3, 5) before paying for whole
    // extra machines (families 6+) — at low load, where a contract costs
    // less than a machine.
    let frontier = frontier_at(&ecommerce_fx(), 400.0);
    let families: Vec<_> = frontier.iter().map(family).collect();
    let first_upgrade = families
        .iter()
        .position(|(_, level, ..)| level != "bronze")
        .expect("contract upgrades appear on the frontier");
    let first_redundancy = families
        .iter()
        .position(|(_, _, n_extra, n_spare)| *n_extra > 0 || *n_spare > 0)
        .expect("redundancy appears on the frontier");
    assert!(first_upgrade < first_redundancy, "families: {families:?}");
}

#[test]
fn fig6_downtime_of_a_family_increases_with_load() {
    // "the downtime estimated for a particular design family increases
    // with load": more machines to meet the load -> higher failure rate.
    let fx = ecommerce_fx();
    let downtime_of_family1 = |load: f64| -> f64 {
        frontier_at(&fx, load)
            .iter()
            .find(|e| {
                let (r, level, x, s) = family(e);
                r == "rC" && level == "bronze" && x == 0 && s == 0
            })
            .map(|e| e.annual_downtime().minutes())
            .expect("family 1 exists at every load")
    };
    let d400 = downtime_of_family1(400.0);
    let d1600 = downtime_of_family1(1600.0);
    let d4000 = downtime_of_family1(4000.0);
    assert!(d400 < d1600 && d1600 < d4000, "{d400} {d1600} {d4000}");
}

#[test]
fn fig6_gold_contract_loses_to_extra_resource_at_high_load() {
    // The family-3-vs-6 crossover: at low loads a gold contract is cheaper
    // than an extra resource + bronze; as load grows, the contract's
    // per-machine cost overtakes the one-off extra machine.
    let costs = |load: f64| -> (f64, f64) {
        let m = (load / 200.0).ceil();
        // Family 3: m machines, gold contract on each.
        let family3 = m * (2640.0 + 1700.0) + m * 760.0;
        // Family 6-like: m machines + 1 inactive spare, bronze on all.
        let family6 = m * (2640.0 + 1700.0) + 2400.0 + (m + 1.0) * 380.0;
        (family3, family6)
    };
    let (f3_low, f6_low) = costs(400.0);
    assert!(
        f3_low < f6_low,
        "at low load gold is cheaper: {f3_low} vs {f6_low}"
    );
    let (f3_high, f6_high) = costs(4000.0);
    assert!(
        f3_high > f6_high,
        "at high load the extra resource is cheaper: {f3_high} vs {f6_high}"
    );
}

#[test]
fn fig6_frontier_downtime_spans_the_plotted_decades() {
    // The paper's y axis runs from fractions of a minute to ~10^4 minutes;
    // the frontier must span that dynamic range.
    let frontier = frontier_at(&ecommerce_fx(), 1000.0);
    let max = frontier
        .iter()
        .map(|e| e.annual_downtime().minutes())
        .fold(f64::NEG_INFINITY, f64::max);
    let min = frontier
        .iter()
        .map(|e| e.annual_downtime().minutes())
        .fold(f64::INFINITY, f64::min);
    assert!(max > 1000.0, "worst family ~{max} min/yr");
    assert!(min < 1.0, "best family ~{min} min/yr");
}

// ---------------------------------------------------------------------
// Fig. 7: scientific application.
// ---------------------------------------------------------------------

fn fig7_best(req_hours: f64) -> EvaluatedDesign {
    let fx = scientific_fx();
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
    let options = SearchOptions {
        max_spares: 3,
        ..SearchOptions::default()
    }
    .with_pin("maintenanceA", "level", ParamValue::Level("bronze".into()))
    .with_pin("maintenanceB", "level", ParamValue::Level("bronze".into()));
    search_job_tier(
        &ctx,
        "computation",
        Duration::from_hours(req_hours),
        &options,
    )
    .unwrap()
    .best()
    .cloned()
    .unwrap_or_else(|| panic!("requirement {req_hours} h should be feasible"))
}

#[test]
fn fig7_job_frontier_evaluates_each_distinct_model_once() {
    // Checkpoint settings leave the tier model alone, so the sweep derives
    // and evaluates each distinct model once and scores every checkpoint
    // candidate from it: the engine sees exactly the distinct models,
    // each once.
    let fx = scientific_fx();
    let inner = DecompositionEngine::default();
    let engine = FaultInjectingEngine::new(&inner);
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
    let options = SearchOptions {
        max_spares: 3,
        ..SearchOptions::default()
    }
    .with_pin("maintenanceA", "level", ParamValue::Level("bronze".into()))
    .with_pin("maintenanceB", "level", ParamValue::Level("bronze".into()));
    let totals = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000];
    let (_, health) = job_frontier(&ctx, "computation", &totals, &options).unwrap();

    let tier = ctx.tier("computation").unwrap();
    let mut distinct: Vec<String> = Vec::new();
    let mut candidates = 0;
    for option in tier.options() {
        for &n_total in &totals {
            for td in enumerate_tier_candidates(
                &fx.infrastructure,
                tier.name(),
                option,
                n_total,
                1,
                &options,
            ) {
                let model = derive_tier_model(
                    &fx.infrastructure,
                    &td,
                    option.sizing(),
                    option.failure_scope(),
                    td.n_active(),
                )
                .unwrap();
                let key = format!("{model:?}");
                if !distinct.contains(&key) {
                    distinct.push(key);
                }
                candidates += 1;
            }
        }
    }
    assert_eq!(
        engine.calls(),
        distinct.len() as u64,
        "every model is evaluated, none twice"
    );
    assert_eq!(health.models_evaluated, distinct.len() as u64);
    assert_eq!(health.candidates_scored, candidates);
    assert!(
        100 * distinct.len() < candidates as usize,
        "{} models for {candidates} candidates",
        distinct.len()
    );
}

#[test]
fn fig7_resource_type_switches_with_requirement() {
    // Loose deadline -> cheap machineA nodes (rH); tight deadline -> the
    // 16-way machineB (rI).
    let loose = fig7_best(500.0);
    assert_eq!(loose.design().resource().as_str(), "rH");
    let tight = fig7_best(3.0);
    assert_eq!(tight.design().resource().as_str(), "rI");
}

#[test]
fn fig7_node_count_decreases_as_requirement_relaxes() {
    let tight = fig7_best(30.0);
    let loose = fig7_best(300.0);
    assert_eq!(tight.design().resource().as_str(), "rH");
    assert_eq!(loose.design().resource().as_str(), "rH");
    assert!(
        tight.design().n_active() > loose.design().n_active(),
        "{} vs {}",
        tight.design().n_active(),
        loose.design().n_active()
    );
}

#[test]
fn fig7_checkpoint_interval_grows_as_requirement_relaxes() {
    let interval =
        |e: &EvaluatedDesign| match e.design().setting("checkpoint", "checkpoint_interval") {
            Some(ParamValue::Duration(d)) => d.minutes(),
            other => panic!("missing checkpoint interval: {other:?}"),
        };
    let tight = fig7_best(20.0);
    let loose = fig7_best(500.0);
    assert!(
        interval(&tight) < interval(&loose),
        "{} vs {} minutes",
        interval(&tight),
        interval(&loose)
    );
}

#[test]
fn fig7_storage_location_switches_to_peer_at_scale() {
    // Small clusters checkpoint to central storage; large clusters hit the
    // central bottleneck and switch to peer storage.
    let storage = |e: &EvaluatedDesign| match e.design().setting("checkpoint", "storage_location") {
        Some(ParamValue::Level(l)) => l.to_string(),
        other => panic!("missing storage location: {other:?}"),
    };
    let small = fig7_best(500.0); // few nodes
    assert!(small.design().n_active() < 30);
    assert_eq!(storage(&small), "central");
    // A 20-hour deadline forces a large machineA cluster (the per-node
    // central-storage checkpoint cost grows as n/3 past 30 nodes and
    // overtakes peer storage's flat cost at n = 60).
    let large = fig7_best(20.0);
    assert_eq!(large.design().resource().as_str(), "rH");
    assert!(
        large.design().n_active() > 60,
        "n = {}",
        large.design().n_active()
    );
    assert_eq!(storage(&large), "peer");
}

#[test]
fn fig7_cost_is_monotone_in_the_requirement() {
    let mut last_cost = f64::INFINITY;
    for req in [5.0, 20.0, 100.0, 500.0] {
        let best = fig7_best(req);
        let cost = best.cost().dollars();
        assert!(
            cost <= last_cost * 1.0001,
            "tighter requirement {req} should cost at least as much: {cost} vs {last_cost}"
        );
        last_cost = cost;
    }
}

#[test]
fn fig7_spares_appear_on_large_clusters() {
    // "the number of spare resources increases as the number of total
    // resources increases": at scale, hard-failure repairs (38 h) are so
    // frequent that spares pay for themselves.
    let large = fig7_best(20.0);
    assert!(
        large.design().n_spare() >= 1,
        "large cluster should carry spares: {:?}",
        large.design()
    );
}

// ---------------------------------------------------------------------
// Fig. 8: cost of availability.
// ---------------------------------------------------------------------

#[test]
fn fig8_extra_cost_curves_are_non_increasing_in_downtime() {
    let fx = ecommerce_fx();
    for load in [400.0, 1600.0] {
        let frontier = frontier_at(&fx, load);
        let base = frontier[0].cost();
        let mut last_extra = f64::INFINITY;
        for budget in [1.0, 10.0, 100.0, 1000.0] {
            let extra = frontier
                .iter()
                .find(|e| e.annual_downtime().minutes() <= budget)
                .map(|e| (e.cost() - base).dollars());
            if let Some(extra) = extra {
                assert!(
                    extra <= last_extra,
                    "load {load}: relaxing to {budget} min should not cost more"
                );
                last_extra = extra;
            }
        }
    }
}

#[test]
fn fig8_availability_costs_more_at_higher_load() {
    // Each curve in Fig. 8 sits higher for higher loads: covering more
    // machines with contracts/redundancy costs more.
    let fx = ecommerce_fx();
    let extra_cost = |load: f64, budget_mins: f64| -> f64 {
        let frontier = frontier_at(&fx, load);
        let base = frontier[0].cost();
        frontier
            .iter()
            .find(|e| e.annual_downtime().minutes() <= budget_mins)
            .map(|e| (e.cost() - base).dollars())
            .expect("budget reachable")
    };
    assert!(extra_cost(3200.0, 10.0) > extra_cost(400.0, 10.0));
    assert!(extra_cost(1600.0, 100.0) > extra_cost(400.0, 100.0));
}

#[test]
fn fig8_small_relaxation_can_save_big() {
    // "slightly relaxing the downtime requirement can significantly reduce
    // the cost overhead": the frontier has large cost steps.
    let frontier = frontier_at(&ecommerce_fx(), 1600.0);
    let mut largest_step = 0.0_f64;
    for pair in frontier.windows(2) {
        let step = (pair[1].cost() - pair[0].cost()).dollars();
        largest_step = largest_step.max(step);
    }
    assert!(
        largest_step > 1000.0,
        "largest frontier cost step: {largest_step}"
    );
}
