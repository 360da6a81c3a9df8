//! Quickstart: design a small two-machine service from scratch.
//!
//! Builds a minimal infrastructure model programmatically (one machine
//! type, one maintenance contract, one resource type), a one-tier service,
//! and asks Aved for the minimum-cost design at several availability
//! requirements.
//!
//! Run with: `cargo run --release -p aved --example quickstart`

use aved::model::{
    ComponentType, DurationSpec, EffectKind, EffectValue, FailureMode, FailureScope,
    Infrastructure, Mechanism, NActiveSpec, ParamRange, Parameter, PerfRef, ResourceComponent,
    ResourceOption, ResourceType, Service, Sizing, Tier,
};
use aved::perf::{Catalog, PerfFunction};
use aved::units::{Duration, Money};
use aved::{Aved, ServiceRequirement};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Infrastructure: one server type with two failure modes. ---------
    let infrastructure = Infrastructure::new()
        .with_component(
            ComponentType::new("server")
                .with_costs(Money::from_dollars(1800.0), Money::from_dollars(2000.0))
                .with_failure_mode(FailureMode::new(
                    "hard",
                    Duration::from_days(500.0),
                    DurationSpec::FromMechanism("support".into()),
                    Duration::from_mins(1.0),
                ))
                .with_failure_mode(FailureMode::new(
                    "crash",
                    Duration::from_days(45.0),
                    Duration::ZERO, // fixed by restart; startup time applies
                    Duration::ZERO,
                )),
        )
        .with_component(
            ComponentType::new("app").with_failure_mode(FailureMode::new(
                "soft",
                Duration::from_days(30.0),
                Duration::ZERO,
                Duration::ZERO,
            )),
        )
        .with_mechanism(
            Mechanism::new("support")
                .with_param(Parameter::new(
                    "level",
                    ParamRange::Levels(vec!["basic".into(), "premium".into()]),
                ))
                .with_cost_table(
                    "level",
                    vec![Money::from_dollars(250.0), Money::from_dollars(900.0)],
                )
                .with_effect(
                    EffectKind::Mttr,
                    EffectValue::Table {
                        param: "level".into(),
                        values: vec![Duration::from_hours(24.0), Duration::from_hours(4.0)],
                    },
                ),
        )
        .with_resource(
            ResourceType::new("node", Duration::from_secs(20.0))
                .with_component(ResourceComponent::new(
                    "server",
                    None,
                    Duration::from_mins(1.0),
                ))
                .with_component(ResourceComponent::new(
                    "app",
                    Some("server".into()),
                    Duration::from_secs(40.0),
                )),
        );
    infrastructure.validate()?;

    // --- Service: one web-style tier, 150 requests/s per node. -----------
    let service =
        Service::new("demo").with_tier(Tier::new("frontend").with_option(ResourceOption::new(
            "node",
            Sizing::Dynamic,
            FailureScope::Resource,
            NActiveSpec::Arithmetic {
                min: 1,
                max: 100,
                step: 1,
            },
            PerfRef::Named("node_perf".into()),
        )));
    let mut catalog = Catalog::new();
    catalog.insert_perf("node_perf", PerfFunction::linear(150.0));

    // --- Design at a range of downtime budgets. ---------------------------
    let aved = Aved::new(infrastructure).with_catalog(catalog);
    println!("load = 400 req/s; sweeping the annual downtime budget\n");
    println!(
        "{:>14} | {:>8} | {:>7} | {:>7} | {:>8} | {:>12}",
        "budget (min/y)", "actives", "spares", "level", "cost ($)", "downtime (m)"
    );
    for budget_mins in [5000.0, 500.0, 50.0, 5.0] {
        let requirement = ServiceRequirement::enterprise(400.0, Duration::from_mins(budget_mins));
        match aved.design(&service, &requirement)? {
            Some(report) => {
                let tier = &report.design().tiers()[0];
                let level = tier
                    .setting("support", "level")
                    .map_or_else(|| "-".to_owned(), ToString::to_string);
                println!(
                    "{:>14} | {:>8} | {:>7} | {:>7} | {:>8.0} | {:>12.2}",
                    budget_mins,
                    tier.n_active(),
                    tier.n_spare(),
                    level,
                    report.cost().dollars(),
                    report.annual_downtime().unwrap().minutes(),
                );
            }
            None => println!("{budget_mins:>14} | no feasible design in the search bounds"),
        }
    }
    Ok(())
}
