//! The design cost model (paper §3.1.1 and §4.2).
//!
//! "The cost of a design is simply calculated as the sum of the cost of all
//! components at their selected operational mode (active or inactive) and
//! the cost of the availability mechanisms for the selected values of their
//! parameters."
//!
//! Mechanism costs whose specification is a per-level table (maintenance
//! contracts) are charged **per covered component instance** — the paper
//! explains family crossovers in Fig. 6 by "the cost of a maintenance
//! contract is proportional to the number of machines it covers". Flat
//! mechanism costs are charged once per tier.

use aved_units::Money;
use serde::{Deserialize, Serialize};

use crate::{Design, Infrastructure, MechanismCost, ModelError, OperationalMode, TierDesign};

/// An itemized design cost.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Annual cost of active-resource components.
    pub active_components: Money,
    /// Annual cost of spare-resource components (at their configured
    /// operational modes).
    pub spare_components: Money,
    /// Annual cost of availability mechanisms.
    pub mechanisms: Money,
}

impl CostBreakdown {
    /// The total annual cost.
    #[must_use]
    pub fn total(&self) -> Money {
        self.active_components + self.spare_components + self.mechanisms
    }

    /// Sums two breakdowns (e.g. across tiers).
    #[must_use]
    pub fn combine(&self, other: &CostBreakdown) -> CostBreakdown {
        CostBreakdown {
            active_components: self.active_components + other.active_components,
            spare_components: self.spare_components + other.spare_components,
            mechanisms: self.mechanisms + other.mechanisms,
        }
    }
}

/// Computes the itemized annual cost of one tier design.
///
/// # Errors
///
/// Returns [`ModelError`] if the design references unknown resource types,
/// components or mechanisms, or if mechanism settings are missing or out of
/// range.
pub fn tier_design_cost(
    infrastructure: &Infrastructure,
    td: &TierDesign,
) -> Result<CostBreakdown, ModelError> {
    let resource = infrastructure
        .resource(td.resource().as_str())
        .ok_or_else(|| ModelError::UnknownResource {
            tier: td.tier().to_string(),
            resource: td.resource().to_string(),
        })?;
    let spare_modes = td.spare_mode().modes(resource.components().len());

    let mut breakdown = CostBreakdown::default();
    for (slot_idx, slot) in resource.components().iter().enumerate() {
        let component = infrastructure
            .component(slot.component().as_str())
            .ok_or_else(|| ModelError::UnknownComponent {
                resource: resource.name().to_string(),
                component: slot.component().to_string(),
            })?;
        breakdown.active_components +=
            component.cost(OperationalMode::Active) * f64::from(td.n_active());
        breakdown.spare_components +=
            component.cost(spare_modes[slot_idx]) * f64::from(td.n_spare());

        // Mechanisms applied to this component (maintenance contracts,
        // checkpointing): per-level tables are per covered instance.
        for mech_name in infrastructure.mechanisms_of_component(component) {
            let mech = infrastructure
                .mechanism(mech_name.as_str())
                .ok_or_else(|| ModelError::UnknownMechanism {
                    context: format!("component {}", component.name()),
                    mechanism: mech_name.to_string(),
                })?;
            let per_use = mech.resolve_cost(td)?;
            let multiplier = match mech.cost_spec() {
                MechanismCost::Table { .. } => f64::from(td.n_total()),
                MechanismCost::Fixed(_) => 1.0,
            };
            breakdown.mechanisms += per_use * multiplier;
        }
    }
    Ok(breakdown)
}

/// Computes the itemized annual cost of a complete design (sum over tiers).
///
/// # Errors
///
/// See [`tier_design_cost`].
pub fn design_cost(
    infrastructure: &Infrastructure,
    design: &Design,
) -> Result<CostBreakdown, ModelError> {
    let mut total = CostBreakdown::default();
    for td in design.tiers() {
        total = total.combine(&tier_design_cost(infrastructure, td)?);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ComponentType, DurationSpec, EffectKind, EffectValue, FailureMode, Mechanism, ParamRange,
        ParamValue, Parameter, ResourceComponent, ResourceType, SpareMode,
    };
    use aved_units::Duration;

    /// Paper-flavoured fixture: machineA + linux + appserverA as resource
    /// rC, maintenanceA contract.
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
                    )),
            )
            .with_component(ComponentType::new("linux").with_cost(Money::ZERO))
            .with_component(
                ComponentType::new("appserverA")
                    .with_costs(Money::ZERO, Money::from_dollars(1700.0)),
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

    #[test]
    fn active_only_design_cost() {
        let td = TierDesign::new("application", "rC", 3, 0).with_setting(
            "maintenanceA",
            "level",
            ParamValue::Level("bronze".into()),
        );
        let b = tier_design_cost(&infra(), &td).unwrap();
        // 3 * (2640 machineA + 0 linux + 1700 appserver) = 13020
        assert_eq!(b.active_components, Money::from_dollars(3.0 * 4340.0));
        assert_eq!(b.spare_components, Money::ZERO);
        // bronze contract per machine, 3 machines
        assert_eq!(b.mechanisms, Money::from_dollars(3.0 * 380.0));
        assert_eq!(b.total(), Money::from_dollars(13_020.0 + 1140.0));
    }

    #[test]
    fn inactive_spare_is_cheaper_than_active() {
        let inactive = TierDesign::new("application", "rC", 2, 1)
            .with_spare_mode(SpareMode::AllInactive)
            .with_setting("maintenanceA", "level", ParamValue::Level("bronze".into()));
        let active = TierDesign::new("application", "rC", 2, 1)
            .with_spare_mode(SpareMode::AllActive)
            .with_setting("maintenanceA", "level", ParamValue::Level("bronze".into()));
        let ci = tier_design_cost(&infra(), &inactive).unwrap();
        let ca = tier_design_cost(&infra(), &active).unwrap();
        // Inactive spare: 2400 machineA + 0 + 0 = 2400
        assert_eq!(ci.spare_components, Money::from_dollars(2400.0));
        // Active spare: 2640 + 0 + 1700 = 4340
        assert_eq!(ca.spare_components, Money::from_dollars(4340.0));
        assert!(ci.total() < ca.total());
    }

    #[test]
    fn contract_cost_scales_with_covered_machines() {
        let mk = |n_active: u32, n_spare: u32, level: &str| {
            TierDesign::new("application", "rC", n_active, n_spare).with_setting(
                "maintenanceA",
                "level",
                ParamValue::Level(level.into()),
            )
        };
        let small = tier_design_cost(&infra(), &mk(2, 0, "gold")).unwrap();
        let big = tier_design_cost(&infra(), &mk(10, 2, "gold")).unwrap();
        assert_eq!(small.mechanisms, Money::from_dollars(2.0 * 760.0));
        assert_eq!(big.mechanisms, Money::from_dollars(12.0 * 760.0));
    }

    #[test]
    fn per_component_spare_modes_price_mixed() {
        use crate::OperationalMode::{Active, Inactive};
        let td = TierDesign::new("application", "rC", 1, 1)
            .with_spare_mode(SpareMode::PerComponent(vec![Active, Active, Inactive]))
            .with_setting("maintenanceA", "level", ParamValue::Level("bronze".into()));
        let b = tier_design_cost(&infra(), &td).unwrap();
        // Spare: machineA active 2640 + linux 0 + appserver inactive 0.
        assert_eq!(b.spare_components, Money::from_dollars(2640.0));
    }

    #[test]
    fn missing_setting_is_error() {
        let td = TierDesign::new("application", "rC", 1, 0);
        assert!(matches!(
            tier_design_cost(&infra(), &td),
            Err(ModelError::MissingSetting { .. })
        ));
    }

    #[test]
    fn unknown_resource_is_error() {
        let td = TierDesign::new("application", "rZ", 1, 0);
        assert!(matches!(
            tier_design_cost(&infra(), &td),
            Err(ModelError::UnknownResource { .. })
        ));
    }

    #[test]
    fn design_cost_sums_tiers() {
        let d = Design::new(vec![
            TierDesign::new("application", "rC", 1, 0).with_setting(
                "maintenanceA",
                "level",
                ParamValue::Level("bronze".into()),
            ),
            TierDesign::new("application2", "rC", 2, 0).with_setting(
                "maintenanceA",
                "level",
                ParamValue::Level("bronze".into()),
            ),
        ]);
        let total = design_cost(&infra(), &d).unwrap();
        assert_eq!(
            total.total(),
            Money::from_dollars(3.0 * 4340.0 + 3.0 * 380.0)
        );
    }

    #[test]
    fn breakdown_combine_adds_fields() {
        let a = CostBreakdown {
            active_components: Money::from_dollars(1.0),
            spare_components: Money::from_dollars(2.0),
            mechanisms: Money::from_dollars(3.0),
        };
        let b = a.combine(&a);
        assert_eq!(b.total(), Money::from_dollars(12.0));
    }
}
