//! Deriving a [`TierModel`] from design-space model types (paper §4.2).

use aved_model::{
    EffectKind, FailureScope, Infrastructure, ModelError, OperationalMode, Sizing, TierDesign,
};
use aved_units::Duration;

use crate::{AvailError, FailureClass, TierModel};

/// The minimum number of active resources for the tier to be up.
///
/// Per the paper: `m = n` when sizing is `static` or the failure scope is
/// `tier`; otherwise `m` comes from the performance requirement (the
/// minimum resource count that still meets the load, `min_for_perf`).
#[must_use]
pub fn required_active(
    sizing: Sizing,
    failure_scope: FailureScope,
    n: u32,
    min_for_perf: u32,
) -> u32 {
    match (sizing, failure_scope) {
        (Sizing::Static, _) | (_, FailureScope::Tier) => n,
        (Sizing::Dynamic, FailureScope::Resource) => min_for_perf.min(n).max(1),
    }
}

/// Builds the availability model for one tier design.
///
/// For every failure mode of every component of the selected resource type,
/// this computes the derived attributes of §4.2:
///
/// * the mode's MTBF, fixed or resolved through the mechanism it delegates
///   to ([`Infrastructure::resolve_duration`]);
/// * `MTTR_i` = detection time + component repair time (resolved through
///   the maintenance mechanism when delegated) + the sequential restart of
///   the failed component and its dependents;
/// * `FailoverTime_i` = detection time + resource reconfiguration time +
///   startup of the components that are inactive in the spare;
/// * failover is used only when `MTTR_i > FailoverTime_i` and the design
///   has spares.
///
/// Spares are failure-exposed iff any of their components is configured
/// active (a fully powered-off spare cannot fail).
///
/// The model reads exactly the attributes whose [`EffectKind`] enters the
/// tier model ([`EffectKind::enters_tier_model`]): the loss window does
/// not, so no checkpoint setting changes the model.
///
/// # Errors
///
/// Returns [`AvailError`] when the design references unknown entities, a
/// mechanism setting is missing/out of range, or the derived model is
/// inconsistent.
pub fn derive_tier_model(
    infrastructure: &Infrastructure,
    td: &TierDesign,
    sizing: Sizing,
    failure_scope: FailureScope,
    min_for_perf: u32,
) -> Result<TierModel, AvailError> {
    let resource = infrastructure
        .resource(td.resource().as_str())
        .ok_or_else(|| ModelError::UnknownResource {
            tier: td.tier().to_string(),
            resource: td.resource().to_string(),
        })?;
    resource.validate()?;

    let spare_modes = td.spare_mode().modes(resource.components().len());
    let inactive_startup = resource.inactive_startup_time(&spare_modes);
    let spares_exposed = td.n_spare() > 0 && spare_modes.contains(&OperationalMode::Active);

    let m = required_active(sizing, failure_scope, td.n_active(), min_for_perf);
    let mut model =
        TierModel::new(td.n_active(), m, td.n_spare()).with_exposed_spares(spares_exposed);

    for (slot_idx, slot) in resource.components().iter().enumerate() {
        let component = infrastructure
            .component(slot.component().as_str())
            .ok_or_else(|| ModelError::UnknownComponent {
                resource: resource.name().to_string(),
                component: slot.component().to_string(),
            })?;
        let restart = resource.restart_time_after(slot_idx);
        for mode in component.failure_modes() {
            let resolve =
                |kind, spec| infrastructure.resolve_duration(component, Some(mode), kind, spec, td);
            let repair = resolve(EffectKind::Mttr, mode.repair())?;
            // MTBF: fixed, or produced by a mechanism (e.g. rejuvenation
            // intervals changing the effective soft-failure MTBF).
            let mtbf = resolve(EffectKind::Mtbf, mode.mtbf_spec())?;
            if mtbf.is_zero() {
                return Err(AvailError::InvalidModel {
                    detail: format!(
                        "resolved MTBF of {}/{} is zero",
                        component.name(),
                        mode.name()
                    ),
                });
            }
            let mttr = mode.detect_time() + repair + restart;
            if mttr.is_zero() {
                // A failure with no detection, repair or restart latency
                // causes no downtime; drop it rather than feeding a
                // zero-MTTR class to the solvers.
                continue;
            }
            let failover_time = mode.detect_time() + resource.reconfig_time() + inactive_startup;
            // Failover applies when a spare exists and repair is slower than
            // failover (paper rule). A zero failover time (hot spare, no
            // detection latency) would mean instant failover; we model that
            // conservatively as repair-in-place, keeping the Markov chains
            // free of infinite rates.
            let uses_failover =
                td.n_spare() > 0 && mttr > failover_time && !failover_time.is_zero();
            model = model.with_class(FailureClass::new(
                format!("{}/{}", component.name(), mode.name()),
                mtbf.rate(),
                mttr,
                failover_time,
                uses_failover,
            ));
        }
    }
    model.check()?;
    Ok(model)
}

/// The loss window of a tier design, if its resource's application software
/// declares one (paper §3.1.1): a fixed duration, or the value produced by
/// the referenced mechanism (e.g. the selected checkpoint interval).
///
/// Returns `Ok(None)` when no component of the resource declares a loss
/// window.
///
/// # Errors
///
/// Returns [`AvailError`] for dangling references or missing mechanism
/// settings.
pub fn loss_window(
    infrastructure: &Infrastructure,
    td: &TierDesign,
) -> Result<Option<Duration>, AvailError> {
    let resource = infrastructure
        .resource(td.resource().as_str())
        .ok_or_else(|| ModelError::UnknownResource {
            tier: td.tier().to_string(),
            resource: td.resource().to_string(),
        })?;
    for slot in resource.components() {
        let component = infrastructure
            .component(slot.component().as_str())
            .ok_or_else(|| ModelError::UnknownComponent {
                resource: resource.name().to_string(),
                component: slot.component().to_string(),
            })?;
        if let Some(spec) = component.loss_window() {
            let lw = infrastructure.resolve_duration(
                component,
                None,
                EffectKind::LossWindow,
                spec,
                td,
            )?;
            return Ok(Some(lw));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aved_model::{
        ComponentType, DurationSpec, EffectValue, FailureMode, Mechanism, ParamRange, ParamValue,
        Parameter, ResourceComponent, ResourceType, SpareMode,
    };
    use aved_units::Money;

    /// machineA + linux + appserverA as rC, with maintenanceA, per Fig. 3.
    fn infra() -> Infrastructure {
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
                ComponentType::new("linux").with_failure_mode(FailureMode::new(
                    "soft",
                    Duration::from_days(60.0),
                    Duration::ZERO,
                    Duration::ZERO,
                )),
            )
            .with_component(
                ComponentType::new("appserverA")
                    .with_costs(Money::ZERO, Money::from_dollars(1700.0))
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
                        ParamRange::Levels(vec![
                            "bronze".into(),
                            "silver".into(),
                            "gold".into(),
                            "platinum".into(),
                        ]),
                    ))
                    .with_cost_table(
                        "level",
                        vec![
                            Money::from_dollars(380.0),
                            Money::from_dollars(580.0),
                            Money::from_dollars(760.0),
                            Money::from_dollars(1500.0),
                        ],
                    )
                    .with_effect(
                        EffectKind::Mttr,
                        EffectValue::Table {
                            param: "level".into(),
                            values: vec![
                                Duration::from_hours(38.0),
                                Duration::from_hours(15.0),
                                Duration::from_hours(8.0),
                                Duration::from_hours(6.0),
                            ],
                        },
                    ),
            )
            .with_resource(
                ResourceType::new("rC", Duration::ZERO)
                    .with_component(ResourceComponent::new(
                        "machineA",
                        None,
                        Duration::from_secs(30.0),
                    ))
                    .with_component(ResourceComponent::new(
                        "linux",
                        Some("machineA".into()),
                        Duration::from_mins(2.0),
                    ))
                    .with_component(ResourceComponent::new(
                        "appserverA",
                        Some("linux".into()),
                        Duration::from_mins(2.0),
                    )),
            )
    }

    fn design(level: &str, n: u32, s: u32) -> TierDesign {
        TierDesign::new("application", "rC", n, s).with_setting(
            "maintenanceA",
            "level",
            ParamValue::Level(level.into()),
        )
    }

    #[test]
    fn derives_paper_class_attributes() {
        let model = derive_tier_model(
            &infra(),
            &design("bronze", 3, 0),
            Sizing::Dynamic,
            FailureScope::Resource,
            2,
        )
        .unwrap();
        assert_eq!(model.n(), 3);
        assert_eq!(model.m(), 2);
        assert_eq!(model.s(), 0);
        assert_eq!(model.classes().len(), 4);

        let by_label = |l: &str| {
            model
                .classes()
                .iter()
                .find(|c| c.label() == l)
                .unwrap_or_else(|| panic!("missing class {l}"))
        };
        // machineA/hard: detect 2m + repair 38h (bronze) + restart of
        // machineA+linux+appserverA (30s + 2m + 2m).
        let hard = by_label("machineA/hard");
        assert_eq!(
            hard.mttr(),
            Duration::from_mins(2.0) + Duration::from_hours(38.0) + Duration::from_secs(270.0)
        );
        assert!(!hard.uses_failover(), "no spares in this design");
        // machineA/soft: restart of the whole stack only.
        let soft = by_label("machineA/soft");
        assert_eq!(soft.mttr(), Duration::from_secs(270.0));
        // linux/soft restarts linux + appserver.
        assert_eq!(by_label("linux/soft").mttr(), Duration::from_mins(4.0));
        // appserverA/soft restarts only itself.
        assert_eq!(by_label("appserverA/soft").mttr(), Duration::from_mins(2.0));
    }

    #[test]
    fn maintenance_level_changes_hard_mttr() {
        let bronze = derive_tier_model(
            &infra(),
            &design("bronze", 2, 0),
            Sizing::Dynamic,
            FailureScope::Resource,
            2,
        )
        .unwrap();
        let platinum = derive_tier_model(
            &infra(),
            &design("platinum", 2, 0),
            Sizing::Dynamic,
            FailureScope::Resource,
            2,
        )
        .unwrap();
        let hard = |m: &TierModel| {
            m.classes()
                .iter()
                .find(|c| c.label() == "machineA/hard")
                .unwrap()
                .mttr()
        };
        assert!(hard(&platinum) < hard(&bronze));
        assert_eq!(
            hard(&platinum),
            Duration::from_mins(2.0) + Duration::from_hours(6.0) + Duration::from_secs(270.0)
        );
    }

    #[test]
    fn failover_applies_only_to_slow_repairs() {
        let model = derive_tier_model(
            &infra(),
            &design("bronze", 2, 1),
            Sizing::Dynamic,
            FailureScope::Resource,
            2,
        )
        .unwrap();
        // Failover time for an all-inactive spare: detect + reconfig(0) +
        // full startup (4.5 m). Hard repair (38h) > failover -> failover;
        // soft repairs (minutes) < failover -> repair in place.
        let hard = model
            .classes()
            .iter()
            .find(|c| c.label() == "machineA/hard")
            .unwrap();
        assert!(hard.uses_failover());
        assert_eq!(
            hard.failover_time(),
            Duration::from_mins(2.0) + Duration::from_secs(270.0)
        );
        for label in ["machineA/soft", "linux/soft", "appserverA/soft"] {
            let c = model.classes().iter().find(|c| c.label() == label).unwrap();
            assert!(!c.uses_failover(), "{label} should repair in place");
        }
    }

    #[test]
    fn hot_spare_reduces_failover_time_and_exposes_spares() {
        let td = design("bronze", 2, 1).with_spare_mode(SpareMode::AllActive);
        let model =
            derive_tier_model(&infra(), &td, Sizing::Dynamic, FailureScope::Resource, 2).unwrap();
        assert!(model.spares_exposed());
        let hard = model
            .classes()
            .iter()
            .find(|c| c.label() == "machineA/hard")
            .unwrap();
        // All components already running: failover = detect only.
        assert_eq!(hard.failover_time(), Duration::from_mins(2.0));
    }

    #[test]
    fn required_active_rules() {
        use FailureScope::{Resource, Tier};
        use Sizing::{Dynamic, Static};
        assert_eq!(required_active(Dynamic, Resource, 10, 6), 6);
        assert_eq!(required_active(Dynamic, Resource, 10, 15), 10);
        assert_eq!(required_active(Static, Resource, 10, 6), 10);
        assert_eq!(required_active(Dynamic, Tier, 10, 6), 10);
        assert_eq!(required_active(Dynamic, Resource, 10, 0), 1);
    }

    #[test]
    fn loss_window_resolves_through_checkpoint() {
        let infra = Infrastructure::new()
            .with_component(
                ComponentType::new("mpi")
                    .with_loss_window(DurationSpec::FromMechanism("checkpoint".into()))
                    .with_failure_mode(FailureMode::new(
                        "soft",
                        Duration::from_days(60.0),
                        Duration::ZERO,
                        Duration::ZERO,
                    )),
            )
            .with_mechanism(
                Mechanism::new("checkpoint")
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
            )
            .with_resource(ResourceType::new("rH", Duration::ZERO).with_component(
                ResourceComponent::new("mpi", None, Duration::from_secs(2.0)),
            ));
        let td = TierDesign::new("computation", "rH", 4, 0).with_setting(
            "checkpoint",
            "checkpoint_interval",
            ParamValue::Duration(Duration::from_mins(30.0)),
        );
        assert_eq!(
            loss_window(&infra, &td).unwrap(),
            Some(Duration::from_mins(30.0))
        );
        // Missing setting is an error, not None.
        let bare = TierDesign::new("computation", "rH", 4, 0);
        assert!(loss_window(&infra, &bare).is_err());
    }

    #[test]
    fn no_loss_window_is_none() {
        assert_eq!(
            loss_window(&infra(), &design("bronze", 1, 0)).unwrap(),
            None
        );
    }

    #[test]
    fn missing_mechanism_setting_is_error() {
        let td = TierDesign::new("application", "rC", 2, 0); // no level set
        assert!(
            derive_tier_model(&infra(), &td, Sizing::Dynamic, FailureScope::Resource, 2).is_err()
        );
    }
}
