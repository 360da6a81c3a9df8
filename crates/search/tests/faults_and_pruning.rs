//! Injected engine faults on the paper's fixtures.
//!
//! On the Fig. 6 (e-commerce application tier) and Fig. 7 (scientific job
//! tier) fixtures: model-keyed faults must skip exactly the candidates
//! whose models they target, leaving the answer the unfaulted candidates
//! give, in a pruned search and in a frontier alike.

use aved_avail::{DecompositionEngine, FaultInjectingEngine, InjectedFault};
use aved_model::{Infrastructure, ParamValue, Service};
use aved_perf::Catalog;
use aved_search::{job_frontier, search_tier, EvalContext, EvaluatedDesign, SearchOptions};
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

/// Frontier equality must be point-for-point: same designs, same costs,
/// same quality, same order.
fn assert_same_frontier(want: &[EvaluatedDesign], got: &[EvaluatedDesign], label: &str) {
    assert_eq!(want.len(), got.len(), "{label}: frontier size");
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        assert_eq!(w.design(), g.design(), "{label}: frontier point {i}");
        assert_eq!(w.cost(), g.cost(), "{label}: frontier point {i} cost");
        assert_eq!(
            w.annual_downtime(),
            g.annual_downtime(),
            "{label}: frontier point {i} downtime"
        );
        assert_eq!(
            w.expected_job_time(),
            g.expected_job_time(),
            "{label}: frontier point {i} job time"
        );
    }
}

#[test]
fn faulty_engine_skips_exactly_the_faulted_candidates() {
    // Model-keyed fault injection (the fault follows the model, not the
    // call schedule) kills every spare-carrying evaluation, so the winner
    // is the one a search without spares finds. A skipped candidate never
    // becomes the incumbent, so it never lowers the cost bound either.
    let fx = fig6_fixture();
    let inner = DecompositionEngine::default();
    let faulty = FaultInjectingEngine::new(&inner)
        .with_fault_when(|m| m.s() >= 1, InjectedFault::NonConvergence);
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &faulty);
    let budget = Duration::from_mins(100.0);
    let opts = enterprise_opts();
    let out = search_tier(&ctx, "application", 1000.0, budget, &opts).unwrap();
    let best = out.best().expect("feasible despite skips");
    let skipped = &out.health().skipped;
    assert!(!skipped.is_empty(), "the fault must actually bite");
    assert!(
        skipped.iter().all(|s| s.n_spare >= 1),
        "only faulted candidates are skipped: {skipped:?}"
    );

    let clean_ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &inner);
    let no_spares = SearchOptions {
        max_spares: 0,
        ..opts
    };
    let clean = search_tier(&clean_ctx, "application", 1000.0, budget, &no_spares).unwrap();
    let want = clean.best().expect("feasible without spares");
    assert_eq!(best.design(), want.design());
    assert_eq!(best.cost(), want.cost());
    assert_eq!(best.annual_downtime(), want.annual_downtime());
}

#[test]
fn faulty_engine_frontier_is_the_frontier_of_the_unfaulted_candidates() {
    let fx = fig7_fixture();
    let inner = DecompositionEngine::default();
    let faulty =
        FaultInjectingEngine::new(&inner).with_fault_when(|m| m.s() == 1, InjectedFault::NanResult);
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &faulty);
    let totals = [1, 2, 4, 8, 16];
    let (frontier, health) = job_frontier(&ctx, "computation", &totals, &job_opts()).unwrap();
    assert!(!frontier.is_empty());
    assert!(!health.skipped.is_empty(), "the fault must actually bite");
    assert!(
        health.skipped.iter().all(|s| s.n_spare == 1),
        "only faulted candidates are skipped"
    );

    let clean_ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &inner);
    let no_spares = SearchOptions {
        max_spares: 0,
        ..job_opts()
    };
    let clean = job_frontier(&clean_ctx, "computation", &totals, &no_spares)
        .unwrap()
        .0;
    assert_same_frontier(&clean, &frontier, "faulty fig7");
}
