//! Searches in warm evaluation sessions must be bit-identical to cold ones.
//!
//! Each search worker reuses one evaluation session across its whole shard
//! (locality-ordered shards, scratch reuse, in-place chain rebuilds): a
//! *warm* session has already evaluated other candidates, a *cold* one is
//! fresh. Reuse is a pure performance optimization: on the paper's Fig. 6
//! (e-commerce application tier) and Fig. 7 (scientific job tier)
//! fixtures, every reported metric must equal — to the bit, not to a
//! tolerance — a cold, fresh-session evaluation of the same design, at one
//! worker and at many, and with the exact [`CtmcEngine`] as well as the
//! fast decomposition engine.

use aved_avail::{CtmcEngine, DecompositionEngine};
use aved_model::{Infrastructure, ParamValue, Service};
use aved_perf::Catalog;
use aved_search::{
    evaluate_enterprise_design, evaluate_job_design, job_frontier, search_job_tier, search_tier,
    tier_pareto_frontier, EvalContext, EvaluatedDesign, SearchOptions,
};
use aved_units::Duration;

const JOB_COUNTS: [usize; 2] = [1, 8];

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

/// Re-evaluates `e`'s design cold — in a fresh session, as an enterprise
/// tier at `load` or, without one, as a job tier — and checks that every
/// metric matches the reported one bit for bit.
fn assert_matches_cold(ctx: &EvalContext<'_>, e: &EvaluatedDesign, load: Option<f64>, label: &str) {
    let td = e.design();
    let option = ctx
        .tier(td.tier().as_str())
        .unwrap()
        .option_for(td.resource().as_str())
        .unwrap();
    let cold = match load {
        Some(load) => evaluate_enterprise_design(ctx, option, td, load),
        None => evaluate_job_design(ctx, option, td),
    }
    .unwrap()
    .expect("a reported design carries its load");
    assert_bit_identical(&cold, e, label);
}

#[test]
fn fig6_search_is_identical_warm_or_cold_at_any_worker_count() {
    let fx = fig6_fixture();
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
    let budget = Duration::from_mins(100.0);
    let serial = search_tier(&ctx, "application", 1000.0, budget, &enterprise_opts()).unwrap();
    let s = serial.best().expect("feasible");
    assert_matches_cold(&ctx, s, Some(1000.0), "fig6 jobs=1");
    for jobs in JOB_COUNTS {
        let warm = search_tier(
            &ctx,
            "application",
            1000.0,
            budget,
            &enterprise_opts().with_jobs(jobs),
        )
        .unwrap();
        let w = warm.best().expect("feasible");
        assert_bit_identical(s, w, &format!("fig6 warm jobs={jobs}"));
        assert!(warm.health().warm_solves > 0, "warm path must be exercised");
    }
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
    let warm = search_tier(&ctx, "application", 1000.0, budget, &opts).unwrap();
    assert!(
        warm.health().chain_rebuilds_avoided > 0,
        "{}",
        warm.health()
    );
    assert_matches_cold(
        &ctx,
        warm.best().expect("feasible"),
        Some(1000.0),
        "fig6 exact engine",
    );
}

#[test]
fn fig6_frontier_is_identical_warm_or_cold() {
    let fx = fig6_fixture();
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
    let serial = tier_pareto_frontier(&ctx, "application", 800.0, &enterprise_opts())
        .unwrap()
        .0;
    assert!(serial.len() >= 3);
    for (i, e) in serial.iter().enumerate() {
        assert_matches_cold(&ctx, e, Some(800.0), &format!("fig6 frontier point {i}"));
    }
    for jobs in JOB_COUNTS {
        let warm = tier_pareto_frontier(
            &ctx,
            "application",
            800.0,
            &enterprise_opts().with_jobs(jobs),
        )
        .unwrap()
        .0;
        assert_eq!(serial.len(), warm.len(), "jobs={jobs}: frontier size");
        for (i, (s, w)) in serial.iter().zip(&warm).enumerate() {
            assert_bit_identical(s, w, &format!("fig6 frontier point {i} jobs={jobs}"));
        }
    }
}

#[test]
fn fig7_search_is_identical_warm_or_cold_at_any_worker_count() {
    let fx = fig7_fixture();
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
    let deadline = Duration::from_hours(200.0);
    let serial = search_job_tier(&ctx, "computation", deadline, &job_opts()).unwrap();
    let s = serial.best().expect("feasible");
    assert_matches_cold(&ctx, s, None, "fig7 jobs=1");
    for jobs in JOB_COUNTS {
        let warm =
            search_job_tier(&ctx, "computation", deadline, &job_opts().with_jobs(jobs)).unwrap();
        let w = warm.best().expect("feasible");
        assert_bit_identical(s, w, &format!("fig7 warm jobs={jobs}"));
    }
}

#[test]
fn fig7_frontier_is_identical_warm_or_cold() {
    let fx = fig7_fixture();
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
    let totals = [1, 2, 4, 8, 16, 32, 64];
    let serial = job_frontier(&ctx, "computation", &totals, &job_opts())
        .unwrap()
        .0;
    assert!(serial.len() >= 3);
    for (i, e) in serial.iter().enumerate() {
        assert_matches_cold(&ctx, e, None, &format!("fig7 frontier point {i}"));
    }
    for jobs in JOB_COUNTS {
        let warm = job_frontier(&ctx, "computation", &totals, &job_opts().with_jobs(jobs))
            .unwrap()
            .0;
        assert_eq!(serial.len(), warm.len(), "jobs={jobs}: frontier size");
        for (i, (s, w)) in serial.iter().zip(&warm).enumerate() {
            assert_bit_identical(s, w, &format!("fig7 frontier point {i} jobs={jobs}"));
        }
    }
}
