//! The infrastructure model: the repository of building blocks (paper §3.1).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use aved_units::Duration;

use crate::{
    ComponentName, ComponentType, DurationSpec, EffectKind, EffectValue, FailureMode, Mechanism,
    MechanismCost, MechanismName, ModelError, ResourceType, ResourceTypeName, Settings,
};

/// The full infrastructure model: component types, availability mechanisms
/// and resource types.
///
/// The paper envisions the infrastructure model "maintained in a repository
/// and used for all services and applications"; this type is that
/// repository. Entries are keyed by name; [`validate`](Self::validate)
/// checks all cross-references.
///
/// # Examples
///
/// ```
/// use aved_model::{Infrastructure, ComponentType, ResourceType, ResourceComponent, FailureMode};
/// use aved_units::{Duration, Money};
///
/// let infra = Infrastructure::new()
///     .with_component(
///         ComponentType::new("machineA")
///             .with_costs(Money::from_dollars(2400.0), Money::from_dollars(2640.0))
///             .with_failure_mode(FailureMode::new(
///                 "soft",
///                 Duration::from_days(75.0),
///                 Duration::ZERO,
///                 Duration::ZERO,
///             )),
///     )
///     .with_resource(
///         ResourceType::new("rA", Duration::ZERO)
///             .with_component(ResourceComponent::new("machineA", None, Duration::from_secs(30.0))),
///     );
/// infra.validate()?;
/// # Ok::<(), aved_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Infrastructure {
    components: BTreeMap<ComponentName, ComponentType>,
    mechanisms: BTreeMap<MechanismName, Mechanism>,
    resources: BTreeMap<ResourceTypeName, ResourceType>,
}

impl Infrastructure {
    /// Creates an empty infrastructure model.
    #[must_use]
    pub fn new() -> Infrastructure {
        Infrastructure::default()
    }

    /// Adds (or replaces) a component type.
    #[must_use]
    pub fn with_component(mut self, c: ComponentType) -> Infrastructure {
        self.components.insert(c.name().clone(), c);
        self
    }

    /// Adds (or replaces) a mechanism.
    #[must_use]
    pub fn with_mechanism(mut self, m: Mechanism) -> Infrastructure {
        self.mechanisms.insert(m.name().clone(), m);
        self
    }

    /// Adds (or replaces) a resource type.
    #[must_use]
    pub fn with_resource(mut self, r: ResourceType) -> Infrastructure {
        self.resources.insert(r.name().clone(), r);
        self
    }

    /// Looks up a component type by name.
    #[must_use]
    pub fn component(&self, name: &str) -> Option<&ComponentType> {
        self.components.get(name)
    }

    /// Looks up a mechanism by name.
    #[must_use]
    pub fn mechanism(&self, name: &str) -> Option<&Mechanism> {
        self.mechanisms.get(name)
    }

    /// Looks up a resource type by name.
    #[must_use]
    pub fn resource(&self, name: &str) -> Option<&ResourceType> {
        self.resources.get(name)
    }

    /// All component types, ordered by name.
    pub fn components(&self) -> impl Iterator<Item = &ComponentType> {
        self.components.values()
    }

    /// All mechanisms, ordered by name.
    pub fn mechanisms(&self) -> impl Iterator<Item = &Mechanism> {
        self.mechanisms.values()
    }

    /// All resource types, ordered by name.
    pub fn resources(&self) -> impl Iterator<Item = &ResourceType> {
        self.resources.values()
    }

    /// The mechanisms a component delegates attributes to, deduplicated,
    /// in the order of [`ComponentType::delegations`].
    #[must_use]
    pub fn mechanisms_of_component<'c>(
        &self,
        component: &'c ComponentType,
    ) -> Vec<&'c MechanismName> {
        let mut acc: Vec<&MechanismName> = Vec::new();
        for (_, m, _) in component.delegations() {
            if !acc.contains(&m) {
                acc.push(m);
            }
        }
        acc
    }

    /// Resolves one duration attribute of `component` under a design's
    /// `settings`: a fixed `spec` is its own value; a delegated one is the
    /// value of the named mechanism's `kind` effect. `mode` is the failure
    /// mode an MTBF or MTTR belongs to, `None` for the loss window.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when the mechanism is unknown or declares no
    /// `kind` effect (the same errors [`validate`](Self::validate)
    /// reports), or its settings are missing or out of range.
    pub fn resolve_duration(
        &self,
        component: &ComponentType,
        mode: Option<&FailureMode>,
        kind: EffectKind,
        spec: &DurationSpec,
        settings: &impl Settings,
    ) -> Result<Duration, ModelError> {
        match spec {
            DurationSpec::Fixed(d) => Ok(*d),
            DurationSpec::FromMechanism(name) => {
                let (mechanism, effect) = self.delegate(component, mode, kind, name)?;
                mechanism.resolve_effect(effect, settings)
            }
        }
    }

    /// The mechanism `component` delegates its `kind` attribute to, and
    /// that mechanism's `kind` effect.
    fn delegate(
        &self,
        component: &ComponentType,
        mode: Option<&FailureMode>,
        kind: EffectKind,
        name: &MechanismName,
    ) -> Result<(&Mechanism, &EffectValue), ModelError> {
        let c = component.name();
        let mechanism =
            self.mechanism(name.as_str())
                .ok_or_else(|| ModelError::UnknownMechanism {
                    context: match mode {
                        Some(mode) => format!("component {c} failure mode {}", mode.name()),
                        None => format!("component {c} loss window"),
                    },
                    mechanism: name.to_string(),
                })?;
        let effect = mechanism.effect(kind).ok_or_else(|| ModelError::Invalid {
            detail: format!(
                "component {c} delegates {kind} to mechanism {name} \
                 which declares no {kind} effect"
            ),
        })?;
        Ok((mechanism, effect))
    }

    /// Validates all cross-references:
    ///
    /// * each resource's components exist and its dependency graph is a
    ///   well-ordered forest;
    /// * every delegation ([`ComponentType::delegations`]) names a
    ///   mechanism that declares an effect of the delegated kind;
    /// * every mechanism's cost table and effect tables are driven by a
    ///   declared parameter and match its range length.
    ///
    /// # Errors
    ///
    /// Returns the first violation found as a [`ModelError`].
    pub fn validate(&self) -> Result<(), ModelError> {
        for resource in self.resources.values() {
            resource.validate()?;
            for slot in resource.components() {
                if self.component(slot.component().as_str()).is_none() {
                    return Err(ModelError::UnknownComponent {
                        resource: resource.name().to_string(),
                        component: slot.component().to_string(),
                    });
                }
            }
        }
        for component in self.components.values() {
            for (kind, name, mode) in component.delegations() {
                self.delegate(component, mode, kind, name)?;
            }
        }
        for mech in self.mechanisms.values() {
            if let MechanismCost::Table { param, values } = mech.cost_spec() {
                Self::check_table(mech, param.as_str(), values.len())?;
            }
            for effect in EffectKind::ALL
                .into_iter()
                .filter_map(|kind| mech.effect(kind))
            {
                match effect {
                    EffectValue::Table { param, values } => {
                        Self::check_table(mech, param.as_str(), values.len())?;
                    }
                    EffectValue::Param(param) => {
                        if mech.param(param.as_str()).is_none() {
                            return Err(ModelError::UnknownParameter {
                                mechanism: mech.name().to_string(),
                                param: param.to_string(),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn check_table(mech: &Mechanism, param: &str, table_len: usize) -> Result<(), ModelError> {
        let p = mech
            .param(param)
            .ok_or_else(|| ModelError::UnknownParameter {
                mechanism: mech.name().to_string(),
                param: param.to_owned(),
            })?;
        let range_len = p.range().len();
        if range_len != table_len {
            return Err(ModelError::EffectTableMismatch {
                mechanism: mech.name().to_string(),
                param: param.to_owned(),
                range_len,
                table_len,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParamRange, Parameter, ResourceComponent};
    use aved_units::Money;

    fn base() -> Infrastructure {
        Infrastructure::new()
            .with_component(
                ComponentType::new("machineA")
                    .with_costs(Money::from_dollars(2400.0), Money::from_dollars(2640.0))
                    .with_failure_mode(FailureMode::new(
                        "hard",
                        Duration::from_days(650.0),
                        DurationSpec::FromMechanism("maintenanceA".into()),
                        Duration::from_mins(2.0),
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
            .with_resource(ResourceType::new("rA", Duration::ZERO).with_component(
                ResourceComponent::new("machineA", None, Duration::from_secs(30.0)),
            ))
    }

    #[test]
    fn valid_model_passes() {
        base().validate().unwrap();
    }

    #[test]
    fn lookup_by_name() {
        let i = base();
        assert!(i.component("machineA").is_some());
        assert!(i.component("machineZ").is_none());
        assert!(i.mechanism("maintenanceA").is_some());
        assert!(i.resource("rA").is_some());
        assert_eq!(i.components().count(), 1);
        assert_eq!(i.mechanisms().count(), 1);
        assert_eq!(i.resources().count(), 1);
    }

    #[test]
    fn detects_unknown_component_in_resource() {
        let i = base().with_resource(
            ResourceType::new("rBad", Duration::ZERO).with_component(ResourceComponent::new(
                "ghost",
                None,
                Duration::ZERO,
            )),
        );
        assert!(matches!(
            i.validate(),
            Err(ModelError::UnknownComponent { .. })
        ));
    }

    #[test]
    fn detects_unknown_mechanism_in_mttr() {
        let i = base().with_component(ComponentType::new("machineB").with_failure_mode(
            FailureMode::new(
                "hard",
                Duration::from_days(1300.0),
                DurationSpec::FromMechanism("maintenanceZ".into()),
                Duration::from_mins(2.0),
            ),
        ));
        assert!(matches!(
            i.validate(),
            Err(ModelError::UnknownMechanism { .. })
        ));
    }

    #[test]
    fn detects_mechanism_without_required_effect() {
        // maintenance mechanism with no mttr effect referenced from mttr=<>.
        let i = Infrastructure::new()
            .with_component(ComponentType::new("hw").with_failure_mode(FailureMode::new(
                "hard",
                Duration::from_days(1.0),
                DurationSpec::FromMechanism("m".into()),
                Duration::ZERO,
            )))
            .with_mechanism(Mechanism::new("m"));
        assert!(matches!(i.validate(), Err(ModelError::Invalid { .. })));
    }

    #[test]
    fn detects_table_length_mismatch() {
        let i = Infrastructure::new().with_mechanism(
            Mechanism::new("m")
                .with_param(Parameter::new(
                    "level",
                    ParamRange::Levels(vec!["a".into(), "b".into(), "c".into()]),
                ))
                .with_cost_table("level", vec![Money::ZERO]),
        );
        assert!(matches!(
            i.validate(),
            Err(ModelError::EffectTableMismatch {
                range_len: 3,
                table_len: 1,
                ..
            })
        ));
    }

    #[test]
    fn detects_effect_over_unknown_param() {
        let i = Infrastructure::new().with_mechanism(Mechanism::new("m").with_effect(
            EffectKind::Mttr,
            EffectValue::Table {
                param: "ghost".into(),
                values: vec![],
            },
        ));
        assert!(matches!(
            i.validate(),
            Err(ModelError::UnknownParameter { .. })
        ));
    }

    #[test]
    fn mechanisms_of_component_deduplicates() {
        let c = ComponentType::new("x")
            .with_failure_mode(FailureMode::new(
                "hard",
                Duration::from_days(1.0),
                DurationSpec::FromMechanism("m".into()),
                Duration::ZERO,
            ))
            .with_failure_mode(FailureMode::new(
                "glitch",
                Duration::from_days(2.0),
                DurationSpec::FromMechanism("m".into()),
                Duration::ZERO,
            ))
            .with_loss_window(DurationSpec::FromMechanism("checkpoint".into()));
        let i = Infrastructure::new();
        let mechs = i.mechanisms_of_component(&c);
        let names: Vec<&str> = mechs.iter().map(|m| m.as_str()).collect();
        assert_eq!(names, vec!["m", "checkpoint"]);
    }
}
