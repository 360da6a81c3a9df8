//! Integration tests: the specification language round-trips the bundled
//! paper models and randomly-generated models.

use aved::model::{
    ComponentType, DurationSpec, EffectKind, EffectValue, FailureMode, Infrastructure, Mechanism,
    ParamRange, Parameter, ResourceComponent, ResourceType,
};
use aved::scenario;
use aved::spec::{parse_infrastructure, parse_services, write_infrastructure, write_service};
use aved::units::{Duration, Money};
use proptest::prelude::*;

#[test]
fn bundled_infrastructure_round_trips() {
    let infra = scenario::infrastructure().unwrap();
    let text = write_infrastructure(&infra);
    let reparsed = parse_infrastructure(&text).unwrap();
    assert_eq!(infra, reparsed);
}

#[test]
fn bundled_services_round_trip() {
    for svc in [
        scenario::ecommerce().unwrap(),
        scenario::scientific().unwrap(),
    ] {
        let text = write_service(&svc);
        let reparsed = aved::spec::parse_service(&text).unwrap();
        assert_eq!(svc, reparsed, "service {}", svc.name());
    }
}

#[test]
fn combined_service_document_parses() {
    let both = format!(
        "{}\n{}",
        scenario::ECOMMERCE_SPEC,
        scenario::SCIENTIFIC_SPEC
    );
    let services = parse_services(&both).unwrap();
    assert_eq!(services.len(), 2);
}

#[test]
fn paper_figure3_values_survive_the_round_trip() {
    let infra = scenario::infrastructure().unwrap();
    let reparsed = parse_infrastructure(&write_infrastructure(&infra)).unwrap();
    let machine_b = reparsed.component("machineB").unwrap();
    assert_eq!(machine_b.cost_active(), Money::from_dollars(93_500.0));
    assert_eq!(
        machine_b.failure_modes()[0].mtbf(),
        Some(Duration::from_days(1300.0))
    );
    let maint_b = reparsed.mechanism("maintenanceB").unwrap();
    let settings: std::collections::BTreeMap<_, _> = [(
        (
            aved::model::MechanismName::new("maintenanceB"),
            aved::model::ParamName::new("level"),
        ),
        aved::model::ParamValue::Level("platinum".into()),
    )]
    .into_iter()
    .collect();
    assert_eq!(
        maint_b.resolve_cost(&settings).unwrap(),
        Money::from_dollars(25_300.0)
    );
    assert_eq!(
        maint_b.resolve(EffectKind::Mttr, &settings).unwrap(),
        Some(Duration::from_hours(6.0))
    );
}

/// A one-component infrastructure whose component `c` delegates its `kind`
/// attribute to mechanism `m`, which declares a `kind` effect when
/// `declared` is set.
fn delegating(kind: EffectKind, declared: bool) -> Infrastructure {
    let to_m = || DurationSpec::FromMechanism("m".into());
    let mode = match kind {
        EffectKind::Mtbf => {
            FailureMode::new("soft", to_m(), Duration::from_mins(5.0), Duration::ZERO)
        }
        EffectKind::Mttr => {
            FailureMode::new("soft", Duration::from_days(60.0), to_m(), Duration::ZERO)
        }
        EffectKind::LossWindow => FailureMode::new(
            "soft",
            Duration::from_days(60.0),
            Duration::from_mins(5.0),
            Duration::ZERO,
        ),
    };
    let mut component = ComponentType::new("c").with_failure_mode(mode);
    if kind == EffectKind::LossWindow {
        component = component.with_loss_window(to_m());
    }
    let mut mechanism = Mechanism::new("m").with_param(Parameter::new(
        "level",
        ParamRange::Levels(vec!["a".into(), "b".into()]),
    ));
    if declared {
        mechanism = mechanism.with_effect(
            kind,
            EffectValue::Table {
                param: "level".into(),
                values: vec![Duration::from_hours(1.0), Duration::from_hours(2.0)],
            },
        );
    }
    Infrastructure::new()
        .with_component(component)
        .with_mechanism(mechanism)
        .with_resource(
            ResourceType::new("r", Duration::ZERO).with_component(ResourceComponent::new(
                "c",
                None,
                Duration::from_secs(30.0),
            )),
        )
}

#[test]
fn every_effect_kind_round_trips_validates_and_resolves() {
    use aved::avail::{derive_tier_model, loss_window, AvailError};
    use aved::model::{FailureScope, ParamValue, Sizing, TierDesign};

    let td =
        TierDesign::new("t", "r", 2, 0).with_setting("m", "level", ParamValue::Level("b".into()));
    let derive = |infra: &Infrastructure| {
        derive_tier_model(infra, &td, Sizing::Static, FailureScope::Resource, 2)
    };
    for (kind, name) in EffectKind::ALL
        .into_iter()
        .zip(["mtbf", "mttr", "loss_window"])
    {
        // A declared effect survives parse -> write -> parse.
        let infra = delegating(kind, true);
        let text = write_infrastructure(&infra);
        assert!(
            text.contains(&format!("  {name}(level)=[1h 2h]\n")),
            "{kind}:\n{text}"
        );
        let parsed = parse_infrastructure(&text).unwrap();
        assert_eq!(parsed, infra, "{kind}");
        assert_eq!(
            parse_infrastructure(&write_infrastructure(&parsed)).unwrap(),
            infra
        );
        assert!(derive(&infra).is_ok(), "{kind}");
        let lw = loss_window(&infra, &td).unwrap();
        assert_eq!(lw.is_some(), !kind.enters_tier_model(), "{kind}");

        // A delegation to a mechanism without the effect fails validation
        // with the same message as ever...
        let broken = delegating(kind, false);
        let error = broken.validate().unwrap_err();
        assert_eq!(
            error.to_string(),
            format!(
                "invalid model: component c delegates {name} to mechanism m \
                 which declares no {name} effect"
            ),
        );
        // ...and the derivation that reads the attribute fails on it the
        // same way when the infrastructure was never validated.
        let failed = if kind.enters_tier_model() {
            derive(&broken).map(|_| ())
        } else {
            loss_window(&broken, &td).map(|_| ())
        };
        assert_eq!(failed, Err(AvailError::Model(error)), "{kind}");
    }
}

// ---------------------------------------------------------------------
// Property tests: random infrastructures round-trip through the writer
// and parser.
// ---------------------------------------------------------------------

fn arb_duration() -> impl Strategy<Value = Duration> {
    // Whole seconds/minutes/hours/days so the Display form is exact.
    prop_oneof![
        (1_u32..600).prop_map(|s| Duration::from_secs(f64::from(s))),
        (1_u32..600).prop_map(|m| Duration::from_mins(f64::from(m))),
        (1_u32..100).prop_map(|h| Duration::from_hours(f64::from(h))),
        (1_u32..2000).prop_map(|d| Duration::from_days(f64::from(d))),
    ]
}

fn arb_name(prefix: &'static str) -> impl Strategy<Value = String> {
    (0_u32..1000).prop_map(move |i| format!("{prefix}{i}"))
}

fn arb_component() -> impl Strategy<Value = ComponentType> {
    (
        arb_name("comp"),
        0_u32..100_000,
        0_u32..100_000,
        proptest::collection::vec((arb_name("mode"), arb_duration(), arb_duration()), 1..4),
    )
        .prop_map(|(name, ci, ca, modes)| {
            let mut c = ComponentType::new(name).with_costs(
                Money::from_dollars(f64::from(ci)),
                Money::from_dollars(f64::from(ca)),
            );
            for (i, (mode_name, mtbf, detect)) in modes.into_iter().enumerate() {
                c = c.with_failure_mode(FailureMode::new(
                    format!("{mode_name}_{i}"),
                    mtbf,
                    Duration::ZERO,
                    detect,
                ));
            }
            c
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_components_round_trip(components in proptest::collection::vec(arb_component(), 1..6)) {
        let mut infra = Infrastructure::new();
        for c in components {
            infra = infra.with_component(c);
        }
        let text = write_infrastructure(&infra);
        let reparsed = parse_infrastructure(&text).unwrap();
        prop_assert_eq!(infra, reparsed);
    }

    #[test]
    fn random_mechanisms_round_trip(
        levels in proptest::collection::vec(arb_name("lvl"), 1..5),
        costs_seed in 0_u32..10_000,
        mttrs in proptest::collection::vec(arb_duration(), 1..5),
    ) {
        let n = levels.len().min(mttrs.len());
        let levels: Vec<std::sync::Arc<str>> = levels.into_iter().take(n)
            .enumerate().map(|(i, l)| format!("{l}_{i}").into()).collect();
        let mttrs: Vec<Duration> = mttrs.into_iter().take(n).collect();
        let costs: Vec<Money> = (0..n)
            .map(|i| Money::from_dollars(f64::from(costs_seed + i as u32)))
            .collect();
        let mech = Mechanism::new("m")
            .with_param(Parameter::new("level", ParamRange::Levels(levels)))
            .with_cost_table("level", costs)
            .with_effect(EffectKind::Mttr, EffectValue::Table { param: "level".into(), values: mttrs });
        let infra = Infrastructure::new().with_mechanism(mech);
        let text = write_infrastructure(&infra);
        let reparsed = parse_infrastructure(&text).unwrap();
        prop_assert_eq!(infra, reparsed);
    }

    #[test]
    fn random_resources_round_trip(
        startups in proptest::collection::vec(arb_duration(), 1..5),
        reconfig in arb_duration(),
    ) {
        let mut infra = Infrastructure::new();
        let mut resource = ResourceType::new("r0", reconfig);
        for (i, s) in startups.iter().enumerate() {
            let name = format!("c{i}");
            infra = infra.with_component(
                ComponentType::new(name.as_str()).with_failure_mode(FailureMode::new(
                    "soft",
                    Duration::from_days(30.0),
                    Duration::ZERO,
                    Duration::ZERO,
                )),
            );
            let depend = if i == 0 { None } else { Some(format!("c{}", i - 1).into()) };
            resource = resource.with_component(ResourceComponent::new(name, depend, *s));
        }
        let infra = infra.with_resource(resource);
        let text = write_infrastructure(&infra);
        let reparsed = parse_infrastructure(&text).unwrap();
        prop_assert_eq!(infra, reparsed);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_text(text in "\\PC{0,200}") {
        let _ = parse_infrastructure(&text);
        let _ = parse_services(&text);
    }

    #[test]
    fn duration_spec_forms_round_trip(d in arb_duration(), use_mech in prop::bool::ANY) {
        let repair: DurationSpec = if use_mech {
            DurationSpec::FromMechanism("fix".into())
        } else {
            DurationSpec::Fixed(d)
        };
        let mut infra = Infrastructure::new().with_component(
            ComponentType::new("x").with_failure_mode(FailureMode::new(
                "hard",
                Duration::from_days(100.0),
                repair,
                Duration::ZERO,
            )),
        );
        if use_mech {
            infra = infra.with_mechanism(
                Mechanism::new("fix")
                    .with_param(Parameter::new("level", ParamRange::Levels(vec!["a".into()])))
                    .with_effect(EffectKind::Mttr, EffectValue::Table {
                        param: "level".into(),
                        values: vec![Duration::from_hours(1.0)],
                    }),
            );
        }
        let text = write_infrastructure(&infra);
        let reparsed = parse_infrastructure(&text).unwrap();
        prop_assert_eq!(infra, reparsed);
    }
}
