//! Parallel searches must be bit-identical to serial ones.
//!
//! Every entry point is exercised on the paper's Fig. 6 (e-commerce
//! application tier) and Fig. 7 (scientific job tier) fixtures at worker
//! counts 1, 2 and 8 and compared against the serial (default) run:
//! same winner, same cost, same frontier, point for point — including
//! under injected engine faults that force candidates to be skipped, and
//! with dominance pruning toggled off.

use aved_avail::{DecompositionEngine, FaultInjectingEngine, InjectedFault};
use aved_model::{Infrastructure, ParamValue, Service};
use aved_perf::Catalog;
use aved_search::{
    job_frontier, search_job_tier, search_tier, tier_pareto_frontier, CachingEngine, EvalContext,
    EvaluatedDesign, SearchOptions,
};
use aved_units::Duration;

const JOB_COUNTS: [usize; 3] = [1, 2, 8];

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
fn assert_same_frontier(serial: &[EvaluatedDesign], parallel: &[EvaluatedDesign], label: &str) {
    assert_eq!(serial.len(), parallel.len(), "{label}: frontier size");
    for (i, (s, p)) in serial.iter().zip(parallel).enumerate() {
        assert_eq!(s.design(), p.design(), "{label}: frontier point {i}");
        assert_eq!(s.cost(), p.cost(), "{label}: frontier point {i} cost");
        assert_eq!(
            s.annual_downtime(),
            p.annual_downtime(),
            "{label}: frontier point {i} downtime"
        );
        assert_eq!(
            s.expected_job_time(),
            p.expected_job_time(),
            "{label}: frontier point {i} job time"
        );
    }
}

#[test]
fn fig6_search_is_identical_at_any_worker_count() {
    let fx = fig6_fixture();
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
    let budget = Duration::from_mins(100.0);
    let serial = search_tier(&ctx, "application", 1000.0, budget, &enterprise_opts()).unwrap();
    let s = serial.best().expect("feasible");
    for jobs in JOB_COUNTS {
        let out = search_tier(
            &ctx,
            "application",
            1000.0,
            budget,
            &enterprise_opts().with_jobs(jobs),
        )
        .unwrap();
        let p = out.best().expect("feasible at jobs={jobs}");
        assert_eq!(s.design(), p.design(), "jobs={jobs}");
        assert_eq!(s.cost(), p.cost(), "jobs={jobs}");
        assert_eq!(s.annual_downtime(), p.annual_downtime(), "jobs={jobs}");
    }
}

#[test]
fn fig6_frontier_is_identical_at_any_worker_count() {
    let fx = fig6_fixture();
    let inner = DecompositionEngine::default();
    let engine = CachingEngine::new(&inner);
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
    let serial = tier_pareto_frontier(&ctx, "application", 800.0, &enterprise_opts())
        .unwrap()
        .0;
    assert!(serial.len() >= 3);
    for jobs in JOB_COUNTS {
        let parallel = tier_pareto_frontier(
            &ctx,
            "application",
            800.0,
            &enterprise_opts().with_jobs(jobs),
        )
        .unwrap()
        .0;
        assert_same_frontier(&serial, &parallel, &format!("fig6 jobs={jobs}"));
    }
}

#[test]
fn fig7_search_is_identical_at_any_worker_count() {
    let fx = fig7_fixture();
    let inner = DecompositionEngine::default();
    let engine = CachingEngine::new(&inner);
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
    let deadline = Duration::from_hours(200.0);
    let serial = search_job_tier(&ctx, "computation", deadline, &job_opts()).unwrap();
    let s = serial.best().expect("feasible");
    for jobs in JOB_COUNTS {
        let out =
            search_job_tier(&ctx, "computation", deadline, &job_opts().with_jobs(jobs)).unwrap();
        let p = out.best().expect("feasible at jobs={jobs}");
        assert_eq!(s.design(), p.design(), "jobs={jobs}");
        assert_eq!(s.cost(), p.cost(), "jobs={jobs}");
        assert_eq!(s.expected_job_time(), p.expected_job_time(), "jobs={jobs}");
    }
}

#[test]
fn fig7_frontier_is_identical_at_any_worker_count() {
    let fx = fig7_fixture();
    let inner = DecompositionEngine::default();
    let engine = CachingEngine::new(&inner);
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
    let totals = [1, 2, 4, 8, 16, 32, 64];
    let serial = job_frontier(&ctx, "computation", &totals, &job_opts())
        .unwrap()
        .0;
    assert!(serial.len() >= 3);
    for jobs in JOB_COUNTS {
        let parallel = job_frontier(&ctx, "computation", &totals, &job_opts().with_jobs(jobs))
            .unwrap()
            .0;
        assert_same_frontier(&serial, &parallel, &format!("fig7 jobs={jobs}"));
    }
}

#[test]
fn faulty_engine_skips_the_same_candidates_at_any_worker_count() {
    // Model-keyed fault injection (the fault follows the model, not the
    // call schedule) kills every spare-carrying evaluation; the skips and
    // the winner must be identical no matter how evaluations interleave.
    //
    // Pruning is off, so every candidate is evaluated and can fail and be
    // skipped. Winner equality holds with pruning on too — see the
    // pruning-toggle test.
    let fx = fig6_fixture();
    let inner = DecompositionEngine::default();
    let faulty = FaultInjectingEngine::new(&inner)
        .with_fault_when(|m| m.s() >= 1, InjectedFault::NonConvergence);
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &faulty);
    let budget = Duration::from_mins(100.0);
    let opts = enterprise_opts().without_pruning();
    let serial = search_tier(&ctx, "application", 1000.0, budget, &opts).unwrap();
    let s = serial.best().expect("feasible despite skips");
    assert!(
        serial.health().candidates_skipped() > 0,
        "the fault must actually bite"
    );
    for jobs in JOB_COUNTS {
        let out = search_tier(
            &ctx,
            "application",
            1000.0,
            budget,
            &opts.clone().with_jobs(jobs),
        )
        .unwrap();
        let p = out.best().expect("feasible at jobs={jobs}");
        assert_eq!(s.design(), p.design(), "jobs={jobs}");
        assert_eq!(s.cost(), p.cost(), "jobs={jobs}");
        assert_eq!(
            serial.health().candidates_skipped(),
            out.health().candidates_skipped(),
            "jobs={jobs}: model-keyed faults hit the same candidates"
        );
    }
}

#[test]
fn faulty_engine_frontier_is_identical_at_any_worker_count() {
    let fx = fig7_fixture();
    let inner = DecompositionEngine::default();
    let faulty =
        FaultInjectingEngine::new(&inner).with_fault_when(|m| m.s() == 1, InjectedFault::NanResult);
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &faulty);
    let totals = [1, 2, 4, 8, 16];
    let serial = job_frontier(&ctx, "computation", &totals, &job_opts())
        .unwrap()
        .0;
    assert!(!serial.is_empty());
    for jobs in JOB_COUNTS {
        let parallel = job_frontier(&ctx, "computation", &totals, &job_opts().with_jobs(jobs))
            .unwrap()
            .0;
        assert_same_frontier(&serial, &parallel, &format!("faulty fig7 jobs={jobs}"));
    }
}

#[test]
fn pruning_toggle_is_invisible_in_the_result_at_any_worker_count() {
    let fx = fig7_fixture();
    let inner = DecompositionEngine::default();
    let engine = CachingEngine::new(&inner);
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
    let deadline = Duration::from_hours(100.0);
    let exhaustive =
        search_job_tier(&ctx, "computation", deadline, &job_opts().without_pruning()).unwrap();
    let e = exhaustive.best().expect("feasible");
    assert_eq!(exhaustive.health().candidates_pruned, 0);
    for jobs in JOB_COUNTS {
        let pruned =
            search_job_tier(&ctx, "computation", deadline, &job_opts().with_jobs(jobs)).unwrap();
        let p = pruned.best().expect("feasible at jobs={jobs}");
        assert_eq!(e.design(), p.design(), "jobs={jobs}");
        assert_eq!(e.cost(), p.cost(), "jobs={jobs}");
        assert_eq!(e.expected_job_time(), p.expected_job_time(), "jobs={jobs}");
    }
}
