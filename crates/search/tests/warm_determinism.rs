//! Warm-started searches must be bit-identical to cold ones.
//!
//! The warm-start pipeline (locality-ordered shards, steady-state reuse,
//! in-place chain rebuilds) is a pure performance optimization: on the
//! paper's Fig. 6 (e-commerce application tier) and Fig. 7 (scientific
//! job tier) fixtures, the selected minimum-cost design and every reported
//! metric must be identical — to the bit, not to a tolerance — with warm
//! starts on or off, at one worker and at many, and with the exact
//! [`CtmcEngine`] as well as the fast decomposition engine.

use aved_avail::{CtmcEngine, DecompositionEngine};
use aved_model::{Infrastructure, ParamValue, Service};
use aved_perf::Catalog;
use aved_search::{
    job_frontier, search_job_tier, search_tier, tier_pareto_frontier, EvalContext, EvaluatedDesign,
    SearchOptions,
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

#[test]
fn fig6_search_is_identical_warm_or_cold_at_any_worker_count() {
    let fx = fig6_fixture();
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
    let budget = Duration::from_mins(100.0);
    let cold = search_tier(
        &ctx,
        "application",
        1000.0,
        budget,
        &enterprise_opts().without_warm_start(),
    )
    .unwrap();
    let c = cold.best().expect("feasible");
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
        assert_bit_identical(c, w, &format!("fig6 warm jobs={jobs}"));
        assert!(warm.health().warm_solves > 0, "warm path must be exercised");
    }
}

#[test]
fn fig6_search_is_identical_under_the_exact_ctmc_engine() {
    // The exact joint-chain engine takes the deepest warm-start path
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
    let cold = search_tier(
        &ctx,
        "application",
        1000.0,
        budget,
        &opts.clone().without_warm_start(),
    )
    .unwrap();
    let warm = search_tier(&ctx, "application", 1000.0, budget, &opts).unwrap();
    assert_bit_identical(
        cold.best().expect("feasible"),
        warm.best().expect("feasible"),
        "fig6 exact engine",
    );
}

#[test]
fn fig6_frontier_is_identical_warm_or_cold() {
    let fx = fig6_fixture();
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
    let cold = tier_pareto_frontier(
        &ctx,
        "application",
        800.0,
        &enterprise_opts().without_warm_start(),
    )
    .unwrap()
    .0;
    assert!(cold.len() >= 3);
    for jobs in JOB_COUNTS {
        let warm = tier_pareto_frontier(
            &ctx,
            "application",
            800.0,
            &enterprise_opts().with_jobs(jobs),
        )
        .unwrap()
        .0;
        assert_eq!(cold.len(), warm.len(), "jobs={jobs}: frontier size");
        for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
            assert_bit_identical(c, w, &format!("fig6 frontier point {i} jobs={jobs}"));
        }
    }
}

#[test]
fn fig7_search_is_identical_warm_or_cold_at_any_worker_count() {
    let fx = fig7_fixture();
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
    let deadline = Duration::from_hours(200.0);
    let cold = search_job_tier(
        &ctx,
        "computation",
        deadline,
        &job_opts().without_warm_start(),
    )
    .unwrap();
    let c = cold.best().expect("feasible");
    for jobs in JOB_COUNTS {
        let warm =
            search_job_tier(&ctx, "computation", deadline, &job_opts().with_jobs(jobs)).unwrap();
        let w = warm.best().expect("feasible");
        assert_bit_identical(c, w, &format!("fig7 warm jobs={jobs}"));
    }
}

#[test]
fn fig7_frontier_is_identical_warm_or_cold() {
    let fx = fig7_fixture();
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
    let totals = [1, 2, 4, 8, 16, 32, 64];
    let cold = job_frontier(
        &ctx,
        "computation",
        &totals,
        &job_opts().without_warm_start(),
    )
    .unwrap()
    .0;
    assert!(cold.len() >= 3);
    for jobs in JOB_COUNTS {
        let warm = job_frontier(&ctx, "computation", &totals, &job_opts().with_jobs(jobs))
            .unwrap()
            .0;
        assert_eq!(cold.len(), warm.len(), "jobs={jobs}: frontier size");
        for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
            assert_bit_identical(c, w, &format!("fig7 frontier point {i} jobs={jobs}"));
        }
    }
}
