//! Searches in reused evaluation sessions must be bit-identical to
//! evaluations in fresh ones.
//!
//! Each search sweep reuses one evaluation session across all of its
//! batches (locality order, scratch reuse, in-place chain rebuilds): a
//! reused session has already evaluated other candidates, a fresh one has
//! not. Reuse is a pure performance optimization: on the paper's Fig. 6
//! (e-commerce application tier) and Fig. 7 (scientific job tier)
//! fixtures, every reported metric must equal — to the bit, not to a
//! tolerance — a fresh-session evaluation of the same design, with the
//! exact [`CtmcEngine`] as well as the fast decomposition engine.

use aved_avail::{CtmcEngine, DecompositionEngine};
use aved_model::{Infrastructure, ParamValue, Service};
use aved_perf::Catalog;
use aved_search::{
    evaluate_enterprise_design, evaluate_job_design, job_frontier, search_job_tier, search_tier,
    tier_pareto_frontier, EvalContext, EvaluatedDesign, SearchOptions,
};
use aved_units::Duration;

struct Fixture {
    infrastructure: Infrastructure,
    service: Service,
    catalog: Catalog,
}

fn fig6_fixture() -> Fixture {
    Fixture {
        infrastructure: aved_spec::parse_infrastructure(include_str!(
            "../../../data/infrastructure.aved"
        ))
        .unwrap(),
        service: aved_spec::parse_service(include_str!("../../../data/ecommerce.aved")).unwrap(),
        catalog: aved_perf::paper::catalog(),
    }
}

fn fig7_fixture() -> Fixture {
    Fixture {
        infrastructure: aved_spec::parse_infrastructure(include_str!(
            "../../../data/infrastructure.aved"
        ))
        .unwrap(),
        service: aved_spec::parse_service(include_str!("../../../data/scientific.aved")).unwrap(),
        catalog: aved_perf::paper::catalog(),
    }
}

fn enterprise_opts() -> SearchOptions {
    SearchOptions {
        max_extra_active: 3,
        max_spares: 2,
        ..SearchOptions::default()
    }
}

fn job_opts() -> SearchOptions {
    SearchOptions {
        max_extra_active: 2,
        max_spares: 1,
        ..SearchOptions::default()
    }
    .with_pin("maintenanceA", "level", ParamValue::Level("bronze".into()))
    .with_pin("maintenanceB", "level", ParamValue::Level("bronze".into()))
}

/// Bit-level equality of every metric a design carries.
fn assert_bit_identical(a: &EvaluatedDesign, b: &EvaluatedDesign, label: &str) {
    assert_eq!(a.design(), b.design(), "{label}: design");
    assert_eq!(
        a.cost().dollars().to_bits(),
        b.cost().dollars().to_bits(),
        "{label}: cost"
    );
    assert_eq!(
        a.availability().unavailability().to_bits(),
        b.availability().unavailability().to_bits(),
        "{label}: unavailability"
    );
    assert_eq!(
        a.availability()
            .down_event_rate()
            .per_hour_value()
            .to_bits(),
        b.availability()
            .down_event_rate()
            .per_hour_value()
            .to_bits(),
        "{label}: down-event rate"
    );
    match (a.expected_job_time(), b.expected_job_time()) {
        (Some(x), Some(y)) => assert_eq!(
            x.seconds().to_bits(),
            y.seconds().to_bits(),
            "{label}: job time"
        ),
        (x, y) => assert_eq!(x, y, "{label}: job time presence"),
    }
}

/// Re-evaluates `e`'s design in a fresh session — as an enterprise tier
/// at `load` or, without one, as a job tier — and checks that every
/// metric matches the reported one bit for bit.
fn assert_matches_fresh(
    ctx: &EvalContext<'_>,
    e: &EvaluatedDesign,
    load: Option<f64>,
    label: &str,
) {
    let td = e.design();
    let option = ctx
        .tier(td.tier().as_str())
        .unwrap()
        .option_for(td.resource().as_str())
        .unwrap();
    let fresh = match load {
        Some(load) => evaluate_enterprise_design(ctx, option, td, load),
        None => evaluate_job_design(ctx, option, td),
    }
    .unwrap()
    .expect("a reported design carries its load");
    assert_bit_identical(&fresh, e, label);
}

#[test]
fn fig6_search_in_reused_sessions_matches_fresh_sessions() {
    let fx = fig6_fixture();
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
    let budget = Duration::from_mins(100.0);
    let reused = search_tier(&ctx, "application", 1000.0, budget, &enterprise_opts()).unwrap();
    let best = reused.best().expect("feasible");
    assert_matches_fresh(&ctx, best, Some(1000.0), "fig6");
    assert!(
        reused.health().session.solves > 0,
        "sessions must be reused"
    );
}

#[test]
fn fig6_search_is_identical_under_the_exact_ctmc_engine() {
    // The exact joint-chain engine takes the deepest session path
    // (repatched multi-class chains, cached down-state masks); the answer
    // must still not move by a bit.
    let fx = fig6_fixture();
    let engine = CtmcEngine::default();
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
    let budget = Duration::from_mins(100.0);
    let opts = SearchOptions {
        max_extra_active: 2,
        max_spares: 1,
        ..SearchOptions::default()
    };
    let reused = search_tier(&ctx, "application", 1000.0, budget, &opts).unwrap();
    assert!(
        reused.health().session.rebuilds_avoided > 0,
        "{}",
        reused.health()
    );
    assert_matches_fresh(
        &ctx,
        reused.best().expect("feasible"),
        Some(1000.0),
        "fig6 exact engine",
    );
}

#[test]
fn fig6_frontier_in_reused_sessions_matches_fresh_sessions() {
    let fx = fig6_fixture();
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
    let reused = tier_pareto_frontier(&ctx, "application", 800.0, &enterprise_opts())
        .unwrap()
        .0;
    assert!(reused.len() >= 3);
    for (i, e) in reused.iter().enumerate() {
        assert_matches_fresh(&ctx, e, Some(800.0), &format!("fig6 frontier point {i}"));
    }
}

#[test]
fn fig7_search_in_reused_sessions_matches_fresh_sessions() {
    let fx = fig7_fixture();
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
    let deadline = Duration::from_hours(200.0);
    let reused = search_job_tier(&ctx, "computation", deadline, &job_opts()).unwrap();
    assert_matches_fresh(&ctx, reused.best().expect("feasible"), None, "fig7");
}

#[test]
fn fig7_frontier_in_reused_sessions_matches_fresh_sessions() {
    let fx = fig7_fixture();
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
    let totals = [1, 2, 4, 8, 16, 32, 64];
    let reused = job_frontier(&ctx, "computation", &totals, &job_opts())
        .unwrap()
        .0;
    assert!(reused.len() >= 3);
    for (i, e) in reused.iter().enumerate() {
        assert_matches_fresh(&ctx, e, None, &format!("fig7 frontier point {i}"));
    }
}
