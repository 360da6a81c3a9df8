//! End-to-end test of MTBF-modifying mechanisms: software rejuvenation.
//!
//! The paper's introduction lists "the use of software rejuvenation
//! techniques" among the design dimensions, and §3.1.2 names MTBF among
//! the attributes mechanisms may modify. This test builds a service whose
//! application software ages (poor MTBF without rejuvenation) and checks
//! that the design engine buys rejuvenation exactly when the downtime
//! budget makes it worthwhile.

use aved::model::{
    ComponentType, DurationSpec, EffectKind, EffectValue, FailureMode, FailureScope,
    Infrastructure, Mechanism, NActiveSpec, ParamRange, ParamValue, Parameter, PerfRef,
    ResourceComponent, ResourceOption, ResourceType, Service, Sizing, Tier,
};
use aved::perf::{Catalog, PerfFunction};
use aved::units::{Duration, Money};
use aved::{Aved, SearchOptions, ServiceRequirement};

/// An aging app server: without rejuvenation it wedges every 10 days;
/// nightly rejuvenation stretches that to 90 days, weekly to 40, at a
/// per-instance operational cost.
fn infrastructure() -> Infrastructure {
    Infrastructure::new()
        .with_component(
            ComponentType::new("box")
                .with_costs(Money::from_dollars(900.0), Money::from_dollars(1000.0))
                .with_failure_mode(FailureMode::new(
                    "hard",
                    Duration::from_days(800.0),
                    Duration::from_hours(2.0),
                    Duration::from_mins(2.0),
                )),
        )
        .with_component(
            ComponentType::new("agingapp").with_failure_mode(FailureMode::new(
                "wedge",
                DurationSpec::FromMechanism("rejuvenation".into()),
                Duration::ZERO,
                Duration::from_secs(30.0),
            )),
        )
        .with_mechanism(
            Mechanism::new("rejuvenation")
                .with_param(Parameter::new(
                    "schedule",
                    ParamRange::Levels(vec!["none".into(), "weekly".into(), "nightly".into()]),
                ))
                .with_cost_table(
                    "schedule",
                    vec![
                        Money::ZERO,
                        Money::from_dollars(120.0),
                        Money::from_dollars(400.0),
                    ],
                )
                .with_effect(
                    EffectKind::Mtbf,
                    EffectValue::Table {
                        param: "schedule".into(),
                        values: vec![
                            Duration::from_days(10.0),
                            Duration::from_days(40.0),
                            Duration::from_days(90.0),
                        ],
                    },
                ),
        )
        .with_resource(
            ResourceType::new("node", Duration::ZERO)
                .with_component(ResourceComponent::new(
                    "box",
                    None,
                    Duration::from_mins(1.0),
                ))
                .with_component(ResourceComponent::new(
                    "agingapp",
                    Some("box".into()),
                    Duration::from_mins(5.0),
                )),
        )
}

fn service() -> Service {
    Service::new("aging").with_tier(Tier::new("app").with_option(ResourceOption::new(
        "node",
        Sizing::Dynamic,
        FailureScope::Resource,
        NActiveSpec::Arithmetic {
            min: 1,
            max: 50,
            step: 1,
        },
        PerfRef::Named("node_perf".into()),
    )))
}

fn engine() -> Aved {
    let mut catalog = Catalog::new();
    catalog.insert_perf("node_perf", PerfFunction::linear(100.0));
    Aved::new(infrastructure())
        .with_catalog(catalog)
        .with_search_options(SearchOptions {
            max_extra_active: 2,
            max_spares: 1,
            ..SearchOptions::default()
        })
}

fn schedule_of(report: &aved::DesignReport) -> String {
    report.design().tiers()[0]
        .setting("rejuvenation", "schedule")
        .map(ToString::to_string)
        .expect("schedule is always set")
}

#[test]
fn infrastructure_with_mtbf_mechanism_validates() {
    infrastructure().validate().unwrap();
}

#[test]
fn loose_budget_skips_rejuvenation() {
    // Wedges cost ~5.5 min each, every 10 days per node: ~400 min/yr for
    // two nodes. A 5000-minute budget doesn't justify paying for it.
    let report = engine()
        .design(
            &service(),
            &ServiceRequirement::enterprise(200.0, Duration::from_mins(5000.0)),
        )
        .unwrap()
        .expect("feasible");
    assert_eq!(schedule_of(&report), "none");
}

#[test]
fn tight_budget_buys_rejuvenation() {
    // At a 60-minute budget with m = n = 2, app wedges alone exceed the
    // budget without rejuvenation; the $400 nightly schedule is far cheaper
    // than extra machines.
    let report = engine()
        .design(
            &service(),
            &ServiceRequirement::enterprise(200.0, Duration::from_mins(220.0)),
        )
        .unwrap()
        .expect("feasible");
    assert_ne!(schedule_of(&report), "none");
    assert!(report.annual_downtime().unwrap() <= Duration::from_mins(220.0));
}

#[test]
fn rejuvenation_levels_trade_cost_for_downtime() {
    // Evaluate the same design at each schedule directly.
    use aved::avail::{derive_tier_model, AvailabilityEngine, CtmcEngine};
    use aved::model::TierDesign;
    let infra = infrastructure();
    let eval = |schedule: &str| {
        let td = TierDesign::new("app", "node", 2, 0).with_setting(
            "rejuvenation",
            "schedule",
            ParamValue::Level(schedule.into()),
        );
        let model =
            derive_tier_model(&infra, &td, Sizing::Dynamic, FailureScope::Resource, 2).unwrap();
        CtmcEngine::default()
            .evaluate(&model)
            .unwrap()
            .annual_downtime()
    };
    let none = eval("none");
    let weekly = eval("weekly");
    let nightly = eval("nightly");
    assert!(
        none > weekly && weekly > nightly,
        "{none} {weekly} {nightly}"
    );
}

#[test]
fn spec_round_trips_mtbf_delegation() {
    let infra = infrastructure();
    let text = aved::spec::write_infrastructure(&infra);
    assert!(text.contains("mtbf=<rejuvenation>"), "text:\n{text}");
    assert!(
        text.contains("mtbf(schedule)=[10d 40d 90d]"),
        "text:\n{text}"
    );
    let reparsed = aved::spec::parse_infrastructure(&text).unwrap();
    assert_eq!(infra, reparsed);
}
