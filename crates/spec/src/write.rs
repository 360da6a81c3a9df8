//! Writers: render models back into the specification syntax.
//!
//! Useful for dumping programmatically-constructed models, for golden-file
//! tests and for the `spec_dump` tool. `parse(write(x)) == x` round-trip
//! holds for every model expressible in the syntax (tested here and by
//! property tests in the integration suite).

use std::fmt::Write as _;

use aved_model::{
    DurationSpec, EffectKind, EffectValue, FailureScope, Infrastructure, MechanismCost,
    NActiveSpec, PerfRef, Service, Sizing,
};

/// Renders an infrastructure model in the Fig.-3 syntax.
#[must_use]
pub fn write_infrastructure(infra: &Infrastructure) -> String {
    let mut out = String::new();
    out.push_str("\\\\ Units - s:seconds, m:minutes, h:hours, d:days\n");
    out.push_str("\\\\ COMPONENTS DESCRIPTION\n");
    for c in infra.components() {
        if c.cost_inactive() == c.cost_active() {
            let _ = write!(
                out,
                "component={} cost={}",
                c.name(),
                c.cost_active().dollars()
            );
        } else {
            let _ = write!(
                out,
                "component={} cost([inactive,active])=[{} {}]",
                c.name(),
                c.cost_inactive().dollars(),
                c.cost_active().dollars()
            );
        }
        if let Some(max) = c.max_instances() {
            let _ = write!(out, " max_instances={max}");
        }
        if let Some(lw) = c.loss_window() {
            match lw {
                DurationSpec::Fixed(d) => {
                    let _ = write!(out, " loss_window={d}");
                }
                DurationSpec::FromMechanism(m) => {
                    let _ = write!(out, " loss_window=<{m}>");
                }
            }
        }
        out.push('\n');
        for fm in c.failure_modes() {
            let spec = |d: &DurationSpec| match d {
                DurationSpec::Fixed(d) => d.to_string(),
                DurationSpec::FromMechanism(m) => format!("<{m}>"),
            };
            let _ = writeln!(
                out,
                "  failure={} mtbf={} mttr={} detect_time={}",
                fm.name(),
                spec(fm.mtbf_spec()),
                spec(fm.repair()),
                fm.detect_time()
            );
        }
    }
    out.push_str("\\\\ AVAILABILITY MECHANISMS\n");
    for m in infra.mechanisms() {
        let _ = writeln!(out, "mechanism={}", m.name());
        for p in m.params() {
            match p.range() {
                aved_model::ParamRange::Levels(levels) => {
                    let _ = writeln!(out, "  param={} range=[{}]", p.name(), levels.join(","));
                }
                aved_model::ParamRange::GeometricDuration { min, max, factor } => {
                    let _ = writeln!(out, "  param={} range=[{min}-{max};*{factor}]", p.name());
                }
            }
        }
        match m.cost_spec() {
            MechanismCost::Fixed(money) => {
                let _ = writeln!(out, "  cost={}", money.dollars());
            }
            MechanismCost::Table { param, values } => {
                let vals: Vec<String> = values.iter().map(|v| v.dollars().to_string()).collect();
                let _ = writeln!(out, "  cost({param})=[{}]", vals.join(" "));
            }
        }
        for kind in EffectKind::ALL {
            match m.effect(kind) {
                Some(EffectValue::Table { param, values }) => {
                    let vals: Vec<String> = values.iter().map(ToString::to_string).collect();
                    let _ = writeln!(out, "  {kind}({param})=[{}]", vals.join(" "));
                }
                Some(EffectValue::Param(param)) => {
                    let _ = writeln!(out, "  {kind}={param}");
                }
                None => {}
            }
        }
    }
    out.push_str("\\\\ RESOURCES DESCRIPTION\n");
    for r in infra.resources() {
        let _ = writeln!(
            out,
            "resource={} reconfig_time={}",
            r.name(),
            r.reconfig_time()
        );
        for slot in r.components() {
            let depend = slot
                .depends_on()
                .map_or_else(|| "null".to_owned(), ToString::to_string);
            let _ = writeln!(
                out,
                "  component={} depend={} startup={}",
                slot.component(),
                depend,
                slot.startup()
            );
        }
    }
    out
}

/// Renders a service model in the Fig.-4/5 syntax.
#[must_use]
pub fn write_service(service: &Service) -> String {
    let mut out = String::new();
    let _ = write!(out, "application={}", service.name());
    if let Some(js) = service.job_size() {
        let _ = write!(out, " jobsize={js}");
    }
    out.push('\n');
    for tier in service.tiers() {
        let _ = writeln!(out, "  tier={}", tier.name());
        for opt in tier.options() {
            let sizing = match opt.sizing() {
                Sizing::Static => "static",
                Sizing::Dynamic => "dynamic",
            };
            let scope = match opt.failure_scope() {
                FailureScope::Resource => "resource",
                FailureScope::Tier => "tier",
            };
            let _ = writeln!(
                out,
                "    resource={} sizing={sizing} failurescope={scope}",
                opt.resource()
            );
            let n_active = match opt.n_active() {
                NActiveSpec::Arithmetic { min, max, step } => format!("{min}-{max},+{step}"),
                NActiveSpec::Geometric { min, max, factor } => format!("{min}-{max},*{factor}"),
                NActiveSpec::List(v) => v
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
            };
            let perf = match opt.performance() {
                PerfRef::Const(v) => format!("performance={v}"),
                PerfRef::Named(n) => format!("performance(nActive)={n}"),
            };
            let _ = writeln!(out, "      nActive=[{n_active}] {perf}");
            for m in opt.mechanisms() {
                match m.mperformance() {
                    Some(mp) => {
                        let _ = writeln!(
                            out,
                            "      mechanism={} mperformance(storage_location,checkpoint_interval,nActive)={mp}",
                            m.mechanism()
                        );
                    }
                    None => {
                        let _ = writeln!(out, "      mechanism={}", m.mechanism());
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aved_model::{
        ComponentType, FailureMode, Mechanism, ParamRange, Parameter, ResourceComponent,
        ResourceOption, ResourceType, Tier,
    };
    use aved_units::{Duration, Money};

    fn sample_infra() -> Infrastructure {
        Infrastructure::new()
            .with_component(
                ComponentType::new("machineA")
                    .with_costs(Money::from_dollars(2400.0), Money::from_dollars(2640.0))
                    .with_failure_mode(FailureMode::new(
                        "hard",
                        Duration::from_days(650.0),
                        DurationSpec::FromMechanism("maintenanceA".into()),
                        Duration::from_mins(2.0),
                    ))
                    .with_failure_mode(FailureMode::new(
                        "soft",
                        Duration::from_days(75.0),
                        Duration::ZERO,
                        Duration::ZERO,
                    )),
            )
            .with_component(
                ComponentType::new("linux")
                    .with_cost(Money::ZERO)
                    .with_failure_mode(FailureMode::new(
                        "soft",
                        Duration::from_days(60.0),
                        Duration::ZERO,
                        Duration::ZERO,
                    )),
            )
            .with_mechanism(
                Mechanism::new("maintenanceA")
                    .with_param(Parameter::new(
                        "level",
                        ParamRange::Levels(vec!["bronze".into(), "gold".into()]),
                    ))
                    .with_cost_table(
                        "level",
                        vec![Money::from_dollars(380.0), Money::from_dollars(760.0)],
                    )
                    .with_effect(
                        EffectKind::Mttr,
                        EffectValue::Table {
                            param: "level".into(),
                            values: vec![Duration::from_hours(38.0), Duration::from_hours(8.0)],
                        },
                    ),
            )
            .with_resource(
                ResourceType::new("rA", Duration::ZERO)
                    .with_component(ResourceComponent::new(
                        "machineA",
                        None,
                        Duration::from_secs(30.0),
                    ))
                    .with_component(ResourceComponent::new(
                        "linux",
                        Some("machineA".into()),
                        Duration::from_mins(2.0),
                    )),
            )
    }

    #[test]
    fn infrastructure_round_trip() {
        let infra = sample_infra();
        let text = write_infrastructure(&infra);
        let reparsed = crate::parse_infrastructure(&text).unwrap();
        assert_eq!(infra, reparsed, "text was:\n{text}");
    }

    #[test]
    fn service_round_trip() {
        let svc = Service::new("scientific")
            .with_job_size(10_000.0)
            .with_tier(
                Tier::new("computation")
                    .with_option(
                        ResourceOption::new(
                            "rH",
                            aved_model::Sizing::Static,
                            FailureScope::Tier,
                            NActiveSpec::Arithmetic {
                                min: 1,
                                max: 1000,
                                step: 1,
                            },
                            PerfRef::Named("perfH.dat".into()),
                        )
                        .with_mechanism(aved_model::MechanismUse::new(
                            "checkpoint",
                            Some("mperfH.dat".into()),
                        )),
                    )
                    .with_option(ResourceOption::new(
                        "rG",
                        aved_model::Sizing::Dynamic,
                        FailureScope::Resource,
                        NActiveSpec::List(vec![1, 2, 4]),
                        PerfRef::Const(10_000.0),
                    )),
            );
        let text = write_service(&svc);
        let reparsed = crate::parse_service(&text).unwrap();
        assert_eq!(svc, reparsed, "text was:\n{text}");
    }

    #[test]
    fn geometric_param_round_trip() {
        let infra = Infrastructure::new().with_mechanism(
            Mechanism::new("checkpoint")
                .with_param(Parameter::new(
                    "storage_location",
                    ParamRange::Levels(vec!["central".into(), "peer".into()]),
                ))
                .with_param(Parameter::new(
                    "checkpoint_interval",
                    ParamRange::GeometricDuration {
                        min: Duration::from_mins(1.0),
                        max: Duration::from_hours(24.0),
                        factor: 1.05,
                    },
                ))
                .with_effect(
                    EffectKind::LossWindow,
                    EffectValue::Param("checkpoint_interval".into()),
                ),
        );
        let text = write_infrastructure(&infra);
        let reparsed = crate::parse_infrastructure(&text).unwrap();
        assert_eq!(infra, reparsed, "text was:\n{text}");
    }
}
