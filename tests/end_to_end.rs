//! Integration tests: the full Aved facade on the paper's scenario and a
//! programmatically built one.

use aved::model::{
    ComponentType, FailureMode, FailureScope, Infrastructure, NActiveSpec, ParamValue, PerfRef,
    ResourceComponent, ResourceOption, ResourceType, Service, Sizing, Tier,
};
use aved::perf::{Catalog, PerfFunction};
use aved::scenario;
use aved::units::{Duration, Money};
use aved::{Aved, SearchOptions, ServiceRequirement};

fn small_options() -> SearchOptions {
    SearchOptions {
        max_extra_active: 2,
        max_spares: 1,
        ..SearchOptions::default()
    }
}

#[test]
fn paper_ecommerce_design_is_reproducible_and_valid() {
    let aved = Aved::new(scenario::infrastructure().unwrap())
        .with_catalog(scenario::catalog())
        .with_search_options(small_options());
    let service = scenario::ecommerce().unwrap();
    let req = ServiceRequirement::enterprise(800.0, Duration::from_mins(3000.0));
    let a = aved.design(&service, &req).unwrap().expect("feasible");
    let b = aved.design(&service, &req).unwrap().expect("feasible");
    assert_eq!(a, b, "design runs are deterministic");
    // The produced design validates against the models.
    a.design()
        .validate(aved.infrastructure(), &service)
        .unwrap();
    // And its cost re-computes to the same figure.
    let recomputed = aved::model::design_cost(aved.infrastructure(), a.design())
        .unwrap()
        .total();
    assert_eq!(recomputed, a.cost());
}

#[test]
fn tightening_the_budget_never_gets_cheaper() {
    let aved = Aved::new(scenario::infrastructure().unwrap())
        .with_catalog(scenario::catalog())
        .with_search_options(small_options());
    let service = scenario::ecommerce().unwrap();
    let mut last = Money::ZERO;
    for budget in [8000.0, 2000.0, 500.0] {
        let req = ServiceRequirement::enterprise(400.0, Duration::from_mins(budget));
        let report = aved.design(&service, &req).unwrap().expect("feasible");
        assert!(
            report.cost() >= last,
            "budget {budget}: {} < {last}",
            report.cost()
        );
        assert!(report.annual_downtime().unwrap() <= Duration::from_mins(budget));
        last = report.cost();
    }
}

#[test]
fn scientific_design_meets_deadline_and_validates() {
    let options = SearchOptions {
        max_extra_active: 1,
        max_spares: 1,
        ..SearchOptions::default()
    }
    .with_pin("maintenanceA", "level", ParamValue::Level("bronze".into()))
    .with_pin("maintenanceB", "level", ParamValue::Level("bronze".into()));
    let aved = Aved::new(scenario::infrastructure().unwrap())
        .with_catalog(scenario::catalog())
        .with_search_options(options);
    let service = scenario::scientific().unwrap();
    let req = ServiceRequirement::job(Duration::from_hours(100.0));
    let report = aved.design(&service, &req).unwrap().expect("feasible");
    assert!(report.expected_job_time().unwrap() <= Duration::from_hours(100.0));
    report
        .design()
        .validate(aved.infrastructure(), &service)
        .unwrap();
    let td = &report.design().tiers()[0];
    assert!(td.setting("checkpoint", "checkpoint_interval").is_some());
    assert!(td.setting("checkpoint", "storage_location").is_some());
}

#[test]
fn exact_engine_and_fast_engine_agree_on_the_chosen_design() {
    // Same search once with the decomposition engine and once with the
    // exact CTMC: the selected design families must agree for paper-scale
    // requirements (their downtime estimates differ by far less than the
    // gaps between families).
    let service = scenario::ecommerce().unwrap();
    let req = ServiceRequirement::enterprise(400.0, Duration::from_mins(1000.0));
    let fast = Aved::new(scenario::infrastructure().unwrap())
        .with_catalog(scenario::catalog())
        .with_search_options(small_options())
        .design(&service, &req)
        .unwrap()
        .expect("feasible");
    let exact = Aved::new(scenario::infrastructure().unwrap())
        .with_catalog(scenario::catalog())
        .with_engine(aved::CtmcEngine::default())
        .with_search_options(small_options())
        .design(&service, &req)
        .unwrap()
        .expect("feasible");
    assert_eq!(fast.design(), exact.design());
}

#[test]
fn max_instances_constrains_the_search() {
    // A bounded component supply must keep designs within the bound.
    let infrastructure = Infrastructure::new()
        .with_component(
            ComponentType::new("box")
                .with_cost(Money::from_dollars(100.0))
                .with_max_instances(3)
                .with_failure_mode(FailureMode::new(
                    "soft",
                    Duration::from_days(10.0),
                    Duration::ZERO,
                    Duration::ZERO,
                )),
        )
        .with_resource(ResourceType::new("node", Duration::ZERO).with_component(
            ResourceComponent::new("box", None, Duration::from_mins(1.0)),
        ));
    let service = Service::new("svc").with_tier(Tier::new("t").with_option(ResourceOption::new(
        "node",
        Sizing::Dynamic,
        FailureScope::Resource,
        NActiveSpec::Arithmetic {
            min: 1,
            max: 100,
            step: 1,
        },
        PerfRef::Named("p".into()),
    )));
    let mut catalog = Catalog::new();
    catalog.insert_perf("p", PerfFunction::linear(10.0));
    let aved = Aved::new(infrastructure).with_catalog(catalog);
    let report = aved
        .design(
            &service,
            &ServiceRequirement::enterprise(20.0, Duration::from_mins(50_000.0)),
        )
        .unwrap()
        .expect("feasible");
    // The search found a design; validating it against max_instances works
    // because it needs only 2-3 boxes.
    report
        .design()
        .validate(aved.infrastructure(), &service)
        .unwrap();
    assert!(report.design().tiers()[0].n_total() <= 3);
}

#[test]
fn bounded_mpi_supply_bounds_the_job_design() {
    // The bundled infrastructure with `max_instances=40` on mpi. Unbounded,
    // the cheapest design finishing the job in 20 h uses 103 rH resources,
    // one mpi each.
    let bounded = scenario::INFRASTRUCTURE_SPEC.replace(
        "component=mpi cost=0",
        "component=mpi max_instances=40 cost=0",
    );
    assert_ne!(bounded, scenario::INFRASTRUCTURE_SPEC, "the mpi line moved");
    let infrastructure = aved::spec::parse_infrastructure(&bounded).unwrap();
    let options = SearchOptions::default()
        .with_pin("maintenanceA", "level", ParamValue::Level("bronze".into()))
        .with_pin("maintenanceB", "level", ParamValue::Level("bronze".into()));
    let service = scenario::scientific().unwrap();
    let req = ServiceRequirement::job(Duration::from_hours(20.0));
    let design = |infrastructure: Infrastructure| {
        let report = Aved::new(infrastructure)
            .with_catalog(scenario::catalog())
            .with_search_options(options.clone())
            .design(&service, &req)
            .unwrap()
            .expect("feasible");
        report.design().clone()
    };
    let unbounded = design(scenario::infrastructure().unwrap());
    assert!(matches!(
        unbounded.validate(&infrastructure, &service),
        Err(aved::model::ModelError::TooManyInstances { allowed: 40, .. })
    ));
    // `validate` counts every component's instances across the design.
    design(infrastructure.clone())
        .validate(&infrastructure, &service)
        .unwrap();
}

#[test]
fn infeasible_load_yields_none() {
    // The database tier saturates at 10000 units.
    let aved = Aved::new(scenario::infrastructure().unwrap())
        .with_catalog(scenario::catalog())
        .with_search_options(small_options());
    let req = ServiceRequirement::enterprise(20_000.0, Duration::from_mins(10_000.0));
    assert!(aved
        .design(&scenario::ecommerce().unwrap(), &req)
        .unwrap()
        .is_none());
}
