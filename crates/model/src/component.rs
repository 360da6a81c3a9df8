//! Component types and failure modes (paper §3.1.1).

use aved_units::{Duration, Money};
use serde::{Deserialize, Serialize};

use crate::{ComponentName, EffectKind, MechanismName};

/// A duration-valued attribute that is either a literal value or resolved
/// at design time by an availability mechanism.
///
/// The paper's infrastructure specification writes
/// `mttr=<maintenanceA>` to delegate a component's repair time to the
/// selected maintenance-contract level, and `loss_window=<checkpoint>` to
/// delegate an application's loss window to the checkpoint mechanism's
/// interval parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DurationSpec {
    /// A literal duration, fixed in the infrastructure model.
    Fixed(Duration),
    /// Resolved by the named mechanism's matching effect, given the
    /// mechanism parameter settings chosen in a design.
    FromMechanism(MechanismName),
}

impl DurationSpec {
    /// The fixed value, if this spec is a literal.
    #[must_use]
    pub fn as_fixed(&self) -> Option<Duration> {
        match self {
            DurationSpec::Fixed(d) => Some(*d),
            DurationSpec::FromMechanism(_) => None,
        }
    }

    /// The referenced mechanism, if any.
    #[must_use]
    pub fn mechanism(&self) -> Option<&MechanismName> {
        match self {
            DurationSpec::Fixed(_) => None,
            DurationSpec::FromMechanism(m) => Some(m),
        }
    }
}

impl From<Duration> for DurationSpec {
    fn from(d: Duration) -> DurationSpec {
        DurationSpec::Fixed(d)
    }
}

/// One way a component can fail (paper: "each component can have multiple
/// failure modes").
///
/// A failure mode is described by its MTBF, the time to *detect* a failure
/// of this mode, and the MTTR for the component itself once detected
/// (excluding restarts of dependent components, which are derived from the
/// resource's dependency graph).
///
/// Both the MTBF and the repair time can be delegated to an availability
/// mechanism: `mttr=<maintenanceA>` resolves repair time through the
/// selected contract level (paper Fig. 3), and `mtbf=<rejuvenation>`
/// models mechanisms that modify failure rates — the paper's §3.1.2 names
/// MTBF among the attributes mechanisms may set, and its introduction
/// lists software rejuvenation as a design dimension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureMode {
    name: String,
    mtbf: DurationSpec,
    repair: DurationSpec,
    detect_time: Duration,
}

impl FailureMode {
    /// Creates a failure mode.
    ///
    /// # Panics
    ///
    /// Panics if a literal `mtbf` is zero (a component that fails
    /// continuously is not a meaningful model) or `name` is empty.
    pub fn new<S, M, R>(name: S, mtbf: M, repair: R, detect_time: Duration) -> FailureMode
    where
        S: Into<String>,
        M: Into<DurationSpec>,
        R: Into<DurationSpec>,
    {
        let name = name.into();
        let mtbf = mtbf.into();
        assert!(!name.is_empty(), "failure mode name must not be empty");
        if let DurationSpec::Fixed(d) = &mtbf {
            assert!(!d.is_zero(), "failure mode MTBF must be positive");
        }
        FailureMode {
            name,
            mtbf,
            repair: repair.into(),
            detect_time,
        }
    }

    /// The mode's name (`hard`, `soft`, ...).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Mean time between failures of this mode, when fixed in the
    /// infrastructure model; `None` when delegated to a mechanism (resolve
    /// through [`mtbf_spec`](Self::mtbf_spec) and the design's settings).
    #[must_use]
    pub fn mtbf(&self) -> Option<Duration> {
        self.mtbf.as_fixed()
    }

    /// The MTBF specification (literal or mechanism-resolved).
    #[must_use]
    pub fn mtbf_spec(&self) -> &DurationSpec {
        &self.mtbf
    }

    /// The component repair time specification (literal or
    /// mechanism-resolved).
    #[must_use]
    pub fn repair(&self) -> &DurationSpec {
        &self.repair
    }

    /// Time to detect a failure of this mode.
    #[must_use]
    pub fn detect_time(&self) -> Duration {
        self.detect_time
    }
}

/// A component type: the basic unit of fault management (paper §3.1.1).
///
/// Components correspond to hardware elements (a compute node) or software
/// elements (an OS, an application server). A component carries annualized
/// costs for each operational mode — *inactive* (powered off / unlicensed)
/// and *active* — its failure modes, optionally a bound on how many
/// instances a design may use, and, for application software of finite
/// jobs, a loss window.
///
/// # Examples
///
/// ```
/// use aved_model::{ComponentType, FailureMode, DurationSpec};
/// use aved_units::{Duration, Money};
///
/// let machine = ComponentType::new("machineA")
///     .with_costs(Money::from_dollars(2400.0), Money::from_dollars(2640.0))
///     .with_failure_mode(FailureMode::new(
///         "hard",
///         Duration::from_days(650.0),
///         DurationSpec::FromMechanism("maintenanceA".into()),
///         Duration::from_mins(2.0),
///     ))
///     .with_failure_mode(FailureMode::new(
///         "soft",
///         Duration::from_days(75.0),
///         Duration::ZERO,
///         Duration::ZERO,
///     ));
/// assert_eq!(machine.failure_modes().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentType {
    name: ComponentName,
    cost_inactive: Money,
    cost_active: Money,
    max_instances: Option<usize>,
    failure_modes: Vec<FailureMode>,
    loss_window: Option<DurationSpec>,
}

impl ComponentType {
    /// Creates a component type with zero cost and no failure modes;
    /// configure with the `with_*` methods.
    pub fn new<N: Into<ComponentName>>(name: N) -> ComponentType {
        ComponentType {
            name: name.into(),
            cost_inactive: Money::ZERO,
            cost_active: Money::ZERO,
            max_instances: None,
            failure_modes: Vec::new(),
            loss_window: None,
        }
    }

    /// Sets the same annual cost for both operational modes
    /// (the spec's `cost=X` shorthand).
    #[must_use]
    pub fn with_cost(mut self, cost: Money) -> ComponentType {
        self.cost_inactive = cost;
        self.cost_active = cost;
        self
    }

    /// Sets per-mode annual costs (the spec's
    /// `cost([inactive,active])=[a b]` form).
    #[must_use]
    pub fn with_costs(mut self, inactive: Money, active: Money) -> ComponentType {
        self.cost_inactive = inactive;
        self.cost_active = active;
        self
    }

    /// Bounds the number of instances of this component a design may use.
    #[must_use]
    pub fn with_max_instances(mut self, max: usize) -> ComponentType {
        self.max_instances = Some(max);
        self
    }

    /// Adds a failure mode.
    #[must_use]
    pub fn with_failure_mode(mut self, mode: FailureMode) -> ComponentType {
        self.failure_modes.push(mode);
        self
    }

    /// Declares the loss window of this (application software) component.
    #[must_use]
    pub fn with_loss_window<S: Into<DurationSpec>>(mut self, spec: S) -> ComponentType {
        self.loss_window = Some(spec.into());
        self
    }

    /// The component's name.
    #[must_use]
    pub fn name(&self) -> &ComponentName {
        &self.name
    }

    /// Annual cost in the given operational mode.
    #[must_use]
    pub fn cost(&self, mode: crate::OperationalMode) -> Money {
        match mode {
            crate::OperationalMode::Inactive => self.cost_inactive,
            crate::OperationalMode::Active => self.cost_active,
        }
    }

    /// Annual cost when inactive (powered off / unlicensed).
    #[must_use]
    pub fn cost_inactive(&self) -> Money {
        self.cost_inactive
    }

    /// Annual cost when active.
    #[must_use]
    pub fn cost_active(&self) -> Money {
        self.cost_active
    }

    /// The allowed maximum instance count, if bounded.
    #[must_use]
    pub fn max_instances(&self) -> Option<usize> {
        self.max_instances
    }

    /// The component's failure modes.
    #[must_use]
    pub fn failure_modes(&self) -> &[FailureMode] {
        &self.failure_modes
    }

    /// The loss window specification, for application software components.
    #[must_use]
    pub fn loss_window(&self) -> Option<&DurationSpec> {
        self.loss_window.as_ref()
    }

    /// The component's delegations: every attribute it leaves to a
    /// mechanism, as the attribute's [`EffectKind`], the mechanism's name
    /// and, for MTBF and MTTR, the failure mode the attribute belongs to.
    ///
    /// The walk visits each failure mode's MTBF, then its MTTR, in mode
    /// order, and the loss window last. That order is the order in which a
    /// design's mechanisms are enumerated, so it fixes the search's
    /// enumeration order and tie-breaking.
    ///
    /// # Examples
    ///
    /// ```
    /// use aved_model::{ComponentType, DurationSpec, EffectKind, FailureMode};
    /// use aved_units::Duration;
    ///
    /// let mpi = ComponentType::new("mpi")
    ///     .with_loss_window(DurationSpec::FromMechanism("checkpoint".into()))
    ///     .with_failure_mode(FailureMode::new(
    ///         "hard",
    ///         Duration::from_days(650.0),
    ///         DurationSpec::FromMechanism("maintenanceA".into()),
    ///         Duration::from_mins(2.0),
    ///     ));
    /// let walk: Vec<(EffectKind, &str)> = mpi
    ///     .delegations()
    ///     .map(|(kind, mechanism, _)| (kind, mechanism.as_str()))
    ///     .collect();
    /// assert_eq!(
    ///     walk,
    ///     [(EffectKind::Mttr, "maintenanceA"), (EffectKind::LossWindow, "checkpoint")]
    /// );
    /// ```
    pub fn delegations(
        &self,
    ) -> impl Iterator<Item = (EffectKind, &MechanismName, Option<&FailureMode>)> {
        let modes = self.failure_modes.iter().flat_map(|mode| {
            [
                (EffectKind::Mtbf, &mode.mtbf),
                (EffectKind::Mttr, &mode.repair),
            ]
            .into_iter()
            .filter_map(move |(kind, spec)| Some((kind, spec.mechanism()?, Some(mode))))
        });
        let loss_window = self
            .loss_window
            .as_ref()
            .and_then(DurationSpec::mechanism)
            .map(|m| (EffectKind::LossWindow, m, None));
        modes.chain(loss_window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OperationalMode;

    #[test]
    fn builder_sets_fields() {
        let c = ComponentType::new("database")
            .with_costs(Money::ZERO, Money::from_dollars(20_000.0))
            .with_max_instances(4)
            .with_failure_mode(FailureMode::new(
                "soft",
                Duration::from_days(60.0),
                Duration::ZERO,
                Duration::ZERO,
            ));
        assert_eq!(c.name().as_str(), "database");
        assert_eq!(c.cost(OperationalMode::Inactive), Money::ZERO);
        assert_eq!(
            c.cost(OperationalMode::Active),
            Money::from_dollars(20_000.0)
        );
        assert_eq!(c.max_instances(), Some(4));
        assert_eq!(c.failure_modes().len(), 1);
        assert_eq!(c.failure_modes()[0].name(), "soft");
        assert!(c.loss_window().is_none());
    }

    #[test]
    fn shorthand_cost_applies_to_both_modes() {
        let c = ComponentType::new("webserver").with_cost(Money::from_dollars(5.0));
        assert_eq!(c.cost_inactive(), Money::from_dollars(5.0));
        assert_eq!(c.cost_active(), Money::from_dollars(5.0));
    }

    #[test]
    fn loss_window_reference() {
        let c = ComponentType::new("mpi")
            .with_loss_window(DurationSpec::FromMechanism("checkpoint".into()));
        assert_eq!(
            c.loss_window()
                .and_then(DurationSpec::mechanism)
                .map(AsRef::as_ref),
            Some("checkpoint")
        );
    }

    #[test]
    fn duration_spec_accessors() {
        let fixed = DurationSpec::Fixed(Duration::from_hours(1.0));
        assert_eq!(fixed.as_fixed(), Some(Duration::from_hours(1.0)));
        assert!(fixed.mechanism().is_none());
        let from = DurationSpec::FromMechanism("maintenanceA".into());
        assert!(from.as_fixed().is_none());
        assert_eq!(from.mechanism().map(AsRef::as_ref), Some("maintenanceA"));
    }

    #[test]
    #[should_panic(expected = "MTBF")]
    fn zero_mtbf_panics() {
        let _ = FailureMode::new("bad", Duration::ZERO, Duration::ZERO, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "name")]
    fn empty_mode_name_panics() {
        let _ = FailureMode::new("", Duration::from_days(1.0), Duration::ZERO, Duration::ZERO);
    }
}
