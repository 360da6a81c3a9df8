//! Availability mechanisms (paper §3.1.2).
//!
//! Mechanisms are "configurable operators that specify or modify the values
//! of other attributes of the design". A maintenance contract turns its
//! `level` parameter into component repair times; a checkpoint mechanism
//! turns its `checkpoint_interval` parameter into the application's loss
//! window. Mechanisms are specified independently of components and applied
//! per component at design time. The attributes a mechanism can set are the
//! [`EffectKind`]s.

use std::sync::Arc;

use aved_units::{Duration, Money};
use serde::{Deserialize, Serialize};

use crate::{MechanismName, ModelError, ParamName, SettingKey};

/// The domain of one mechanism configuration parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamRange {
    /// A finite list of named levels (`[bronze,silver,gold,platinum]`,
    /// `[central,peer]`), shared with every [`ParamValue::Level`] the
    /// range enumerates.
    Levels(Vec<Arc<str>>),
    /// A geometric progression of durations (`[1m-24h;*1.05]`): `min`,
    /// `min·factor`, `min·factor²`, … up to and including the last value
    /// `<= max` (and `max` itself if the progression overshoots it by less
    /// than one step).
    GeometricDuration {
        /// Smallest value.
        min: Duration,
        /// Largest value.
        max: Duration,
        /// Multiplicative step, `> 1`.
        factor: f64,
    },
}

impl ParamRange {
    /// Enumerates the values in this range, for design-space search.
    #[must_use]
    pub fn values(&self) -> Vec<ParamValue> {
        match self {
            ParamRange::Levels(levels) => levels
                .iter()
                .map(|l| ParamValue::Level(l.clone()))
                .collect(),
            ParamRange::GeometricDuration { min, max, factor } => {
                let mut out = Vec::new();
                let mut v = min.seconds();
                let maxs = max.seconds();
                // Guard against degenerate ranges producing an infinite
                // loop: factor <= 1 never advances, and a zero min stays
                // zero under multiplication. The parser rejects both, but
                // ranges can also be built or deserialized directly.
                let factor = factor.max(1.0 + 1e-9);
                while v <= maxs * (1.0 + 1e-12) {
                    out.push(ParamValue::Duration(Duration::from_secs(v.min(maxs))));
                    if v <= 0.0 {
                        break;
                    }
                    v *= factor;
                }
                out
            }
        }
    }

    /// Number of values in this range.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            ParamRange::Levels(l) => l.len(),
            ParamRange::GeometricDuration { .. } => self.values().len(),
        }
    }

    /// Whether the range is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `value` lies in this range.
    ///
    /// For geometric ranges, any duration within `[min, max]` is accepted
    /// (the progression defines search granularity, not legality).
    #[must_use]
    pub fn contains(&self, value: &ParamValue) -> bool {
        match (self, value) {
            (ParamRange::Levels(levels), ParamValue::Level(l)) => levels.contains(l),
            (ParamRange::GeometricDuration { min, max, .. }, ParamValue::Duration(d)) => {
                *d >= *min && *d <= *max
            }
            _ => false,
        }
    }

    /// The index of a level value within a `Levels` range (used to index
    /// effect tables).
    #[must_use]
    pub fn level_index(&self, value: &ParamValue) -> Option<usize> {
        match (self, value) {
            (ParamRange::Levels(levels), ParamValue::Level(l)) => {
                levels.iter().position(|x| x == l)
            }
            _ => None,
        }
    }
}

/// A concrete setting for a mechanism parameter.
#[derive(Debug, Clone, PartialEq, PartialOrd, Serialize, Deserialize)]
pub enum ParamValue {
    /// A named level (`gold`, `peer`, ...), shared so that cloning a
    /// setting into every candidate design copies a pointer.
    Level(Arc<str>),
    /// A duration (checkpoint interval).
    Duration(Duration),
}

impl std::fmt::Display for ParamValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamValue::Level(l) => f.write_str(l),
            ParamValue::Duration(d) => write!(f, "{d}"),
        }
    }
}

/// A named, ranged mechanism configuration parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Parameter {
    name: ParamName,
    range: ParamRange,
}

impl Parameter {
    /// Creates a parameter.
    pub fn new<N: Into<ParamName>>(name: N, range: ParamRange) -> Parameter {
        Parameter {
            name: name.into(),
            range,
        }
    }

    /// The parameter's name.
    #[must_use]
    pub fn name(&self) -> &ParamName {
        &self.name
    }

    /// The parameter's range.
    #[must_use]
    pub fn range(&self) -> &ParamRange {
        &self.range
    }
}

/// A duration attribute of a component that a mechanism can set: the three
/// *effects* a mechanism may declare and a component may delegate.
///
/// This enum is the one list of mechanism-driven attributes. Everything
/// that treats them per attribute — declaring and resolving effects,
/// checking delegations, parsing and writing specifications, and deciding
/// which settings a tier's availability model reads — goes through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EffectKind {
    /// A failure mode's mean time between failures (`mtbf=<rejuvenation>`).
    Mtbf,
    /// A failure mode's repair time (`mttr=<maintenanceA>`).
    Mttr,
    /// A component's loss window (`loss_window=<checkpoint>`).
    LossWindow,
}

impl EffectKind {
    /// Every kind, in specification order: the order in which a mechanism's
    /// effects are written and a component's delegations are walked.
    pub const ALL: [EffectKind; 3] = [EffectKind::Mtbf, EffectKind::Mttr, EffectKind::LossWindow];

    /// Whether the attribute enters a tier's availability model. MTBF and
    /// MTTR set a failure class's rates; the loss window only feeds a job's
    /// completion time. Settings of mechanisms reached by no kind that
    /// enters the tier model leave that model unchanged.
    #[must_use]
    pub fn enters_tier_model(self) -> bool {
        self != EffectKind::LossWindow
    }
}

impl std::fmt::Display for EffectKind {
    /// The attribute's name in the specification syntax.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EffectKind::Mtbf => "mtbf",
            EffectKind::Mttr => "mttr",
            EffectKind::LossWindow => "loss_window",
        })
    }
}

/// How a mechanism produces a duration-valued attribute (MTBF, MTTR, loss
/// window) from its parameter settings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EffectValue {
    /// A table indexed by a `Levels` parameter:
    /// `mttr(level)=[38h 15h 8h 6h]`.
    Table {
        /// The level parameter selecting the table entry.
        param: ParamName,
        /// One duration per level in the parameter's range.
        values: Vec<Duration>,
    },
    /// The value of a duration parameter itself:
    /// `loss_window=checkpoint_interval`.
    Param(ParamName),
}

/// The annual cost of using a mechanism.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MechanismCost {
    /// A flat annual cost, independent of parameters.
    Fixed(Money),
    /// A per-level cost table: `cost(level)=[380 580 760 1500]`.
    ///
    /// Maintenance-contract costs are *per covered machine*: the design cost
    /// model multiplies the entry by the number of component instances the
    /// mechanism is applied to (the paper: "the cost of a maintenance
    /// contract is proportional to the number of machines it covers").
    Table {
        /// The level parameter selecting the table entry.
        param: ParamName,
        /// One annual cost per level in the parameter's range.
        values: Vec<Money>,
    },
}

/// A configurable availability mechanism.
///
/// A mechanism has configuration parameters, an annual cost and up to one
/// effect of each [`EffectKind`]: the duration it gives the attribute of
/// every component that delegates that attribute to it, under a design's
/// parameter settings.
///
/// # Examples
///
/// ```
/// use aved_model::{EffectKind, Mechanism, Parameter, ParamRange, EffectValue};
/// use aved_units::{Duration, Money};
///
/// let maintenance = Mechanism::new("maintenanceA")
///     .with_param(Parameter::new(
///         "level",
///         ParamRange::Levels(vec!["bronze".into(), "silver".into(), "gold".into(), "platinum".into()]),
///     ))
///     .with_cost_table("level", vec![
///         Money::from_dollars(380.0),
///         Money::from_dollars(580.0),
///         Money::from_dollars(760.0),
///         Money::from_dollars(1500.0),
///     ])
///     .with_effect(EffectKind::Mttr, EffectValue::Table {
///         param: "level".into(),
///         values: vec![
///             Duration::from_hours(38.0),
///             Duration::from_hours(15.0),
///             Duration::from_hours(8.0),
///             Duration::from_hours(6.0),
///         ],
///     });
/// assert_eq!(maintenance.params().len(), 1);
/// assert!(maintenance.effect(EffectKind::Mttr).is_some());
/// assert!(maintenance.effect(EffectKind::LossWindow).is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mechanism {
    name: MechanismName,
    params: Vec<Parameter>,
    cost: MechanismCost,
    /// The declared effects, indexed by [`EffectKind`].
    effects: [Option<EffectValue>; 3],
    #[serde(skip)]
    keys: SettingKeys,
}

/// The setting key of each of a mechanism's parameters, built on first use
/// and shared by every design that sets the parameter, so that designs
/// kept by the thousand do not each hold their own. They follow from the
/// mechanism's name and parameters, which equality compares.
#[derive(Debug, Clone, Default)]
struct SettingKeys(std::sync::OnceLock<Vec<SettingKey>>);

impl PartialEq for SettingKeys {
    fn eq(&self, _: &SettingKeys) -> bool {
        true
    }
}

impl Mechanism {
    /// Creates a mechanism with no parameters and zero cost.
    pub fn new<N: Into<MechanismName>>(name: N) -> Mechanism {
        Mechanism {
            name: name.into(),
            params: Vec::new(),
            cost: MechanismCost::Fixed(Money::ZERO),
            effects: [None, None, None],
            keys: SettingKeys::default(),
        }
    }

    /// Adds a configuration parameter.
    #[must_use]
    pub fn with_param(mut self, p: Parameter) -> Mechanism {
        self.params.push(p);
        self.keys = SettingKeys::default();
        self
    }

    /// The key of each parameter's settings, in [`params`](Self::params)
    /// order: pass it to [`TierDesign::with_keyed_setting`](crate::TierDesign::with_keyed_setting)
    /// to share it.
    pub fn setting_keys(&self) -> &[SettingKey] {
        self.keys.0.get_or_init(|| {
            let key = |p: &Parameter| SettingKey::new((self.name.clone(), p.name().clone()));
            self.params.iter().map(key).collect()
        })
    }

    /// Sets a flat annual cost.
    #[must_use]
    pub fn with_fixed_cost(mut self, cost: Money) -> Mechanism {
        self.cost = MechanismCost::Fixed(cost);
        self
    }

    /// Sets a per-level annual cost table.
    #[must_use]
    pub fn with_cost_table<N: Into<ParamName>>(
        mut self,
        param: N,
        values: Vec<Money>,
    ) -> Mechanism {
        self.cost = MechanismCost::Table {
            param: param.into(),
            values,
        };
        self
    }

    /// Declares the mechanism's `kind` effect (e.g. a maintenance contract's
    /// MTTR table, or software rejuvenation setting the effective MTBF),
    /// replacing any earlier one.
    #[must_use]
    pub fn with_effect(mut self, kind: EffectKind, effect: EffectValue) -> Mechanism {
        self.effects[kind as usize] = Some(effect);
        self
    }

    /// The mechanism's name.
    #[must_use]
    pub fn name(&self) -> &MechanismName {
        &self.name
    }

    /// The configuration parameters.
    #[must_use]
    pub fn params(&self) -> &[Parameter] {
        &self.params
    }

    /// Looks up a parameter by name.
    #[must_use]
    pub fn param(&self, name: &str) -> Option<&Parameter> {
        self.params.iter().find(|p| p.name().as_str() == name)
    }

    /// The cost specification.
    #[must_use]
    pub fn cost_spec(&self) -> &MechanismCost {
        &self.cost
    }

    /// The `kind` effect, if declared.
    #[must_use]
    pub fn effect(&self, kind: EffectKind) -> Option<&EffectValue> {
        self.effects[kind as usize].as_ref()
    }

    /// Resolves the mechanism's annual cost (per covered instance for
    /// per-level tables) under the given parameter settings.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::MissingSetting`] if a required parameter is
    /// unset, or [`ModelError::ValueOutOfRange`] for a setting outside its
    /// range.
    pub fn resolve_cost(&self, settings: &impl Settings) -> Result<Money, ModelError> {
        match &self.cost {
            MechanismCost::Fixed(m) => Ok(*m),
            MechanismCost::Table { param, values } => {
                let idx = self.level_index(param, settings)?;
                Ok(values[idx])
            }
        }
    }

    /// Resolves the `kind` effect under the given settings; `Ok(None)` when
    /// the mechanism declares no such effect. An effect reads only this
    /// mechanism's own parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] for missing or out-of-range settings, or a
    /// type mismatch (a duration effect driven by a level parameter).
    pub fn resolve(
        &self,
        kind: EffectKind,
        settings: &impl Settings,
    ) -> Result<Option<Duration>, ModelError> {
        self.effect(kind)
            .map(|e| self.resolve_effect(e, settings))
            .transpose()
    }

    /// Resolves one of this mechanism's effects under the given settings.
    pub(crate) fn resolve_effect(
        &self,
        effect: &EffectValue,
        settings: &impl Settings,
    ) -> Result<Duration, ModelError> {
        match effect {
            EffectValue::Table { param, values } => {
                let idx = self.level_index(param, settings)?;
                Ok(values[idx])
            }
            EffectValue::Param(param) => {
                let value =
                    settings
                        .get(self.name(), param)
                        .ok_or_else(|| ModelError::MissingSetting {
                            mechanism: self.name.to_string(),
                            param: param.to_string(),
                        })?;
                match value {
                    ParamValue::Duration(d) => Ok(d),
                    ParamValue::Level(l) => Err(ModelError::ValueOutOfRange {
                        mechanism: self.name.to_string(),
                        param: param.to_string(),
                        value: l.to_string(),
                    }),
                }
            }
        }
    }

    fn level_index(
        &self,
        param: &ParamName,
        settings: &impl Settings,
    ) -> Result<usize, ModelError> {
        let p = self
            .param(param.as_str())
            .ok_or_else(|| ModelError::UnknownParameter {
                mechanism: self.name.to_string(),
                param: param.to_string(),
            })?;
        let value = settings
            .get(self.name(), param)
            .ok_or_else(|| ModelError::MissingSetting {
                mechanism: self.name.to_string(),
                param: param.to_string(),
            })?;
        p.range()
            .level_index(&value)
            .ok_or_else(|| ModelError::ValueOutOfRange {
                mechanism: self.name.to_string(),
                param: param.to_string(),
                value: value.to_string(),
            })
    }
}

/// A source of mechanism parameter settings (implemented by design types).
pub trait Settings {
    /// The value assigned to `param` of `mechanism`, if any.
    fn get(&self, mechanism: &MechanismName, param: &ParamName) -> Option<ParamValue>;
}

impl Settings for std::collections::BTreeMap<(MechanismName, ParamName), ParamValue> {
    fn get(&self, mechanism: &MechanismName, param: &ParamName) -> Option<ParamValue> {
        self.get(&(mechanism.clone(), param.clone())).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn maintenance() -> Mechanism {
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
            )
    }

    fn settings_with(level: &str) -> BTreeMap<(MechanismName, ParamName), ParamValue> {
        let mut s = BTreeMap::new();
        s.insert(
            (MechanismName::new("maintenanceA"), ParamName::new("level")),
            ParamValue::Level(level.into()),
        );
        s
    }

    #[test]
    fn resolves_cost_and_mttr_by_level() {
        let m = maintenance();
        let s = settings_with("gold");
        assert_eq!(m.resolve_cost(&s).unwrap(), Money::from_dollars(760.0));
        assert_eq!(
            m.resolve(EffectKind::Mttr, &s).unwrap(),
            Some(Duration::from_hours(8.0))
        );
    }

    #[test]
    fn missing_setting_is_reported() {
        let m = maintenance();
        let s: BTreeMap<(MechanismName, ParamName), ParamValue> = BTreeMap::new();
        assert!(matches!(
            m.resolve_cost(&s),
            Err(ModelError::MissingSetting { .. })
        ));
    }

    #[test]
    fn out_of_range_level_is_reported() {
        let m = maintenance();
        let s = settings_with("diamond");
        assert!(matches!(
            m.resolve_cost(&s),
            Err(ModelError::ValueOutOfRange { .. })
        ));
    }

    #[test]
    fn checkpoint_loss_window_follows_interval_param() {
        let m = Mechanism::new("checkpoint")
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
            );
        let mut s = BTreeMap::new();
        s.insert(
            (
                MechanismName::new("checkpoint"),
                ParamName::new("checkpoint_interval"),
            ),
            ParamValue::Duration(Duration::from_mins(30.0)),
        );
        assert_eq!(
            m.resolve(EffectKind::LossWindow, &s).unwrap(),
            Some(Duration::from_mins(30.0))
        );
        assert_eq!(m.resolve(EffectKind::Mttr, &s).unwrap(), None);
    }

    #[test]
    fn geometric_range_enumerates_progression() {
        let r = ParamRange::GeometricDuration {
            min: Duration::from_mins(1.0),
            max: Duration::from_mins(2.0),
            factor: 1.5,
        };
        let vals = r.values();
        // 1m, 1.5m (2.25m exceeds max)
        assert_eq!(vals.len(), 2);
        assert_eq!(vals[0], ParamValue::Duration(Duration::from_mins(1.0)));
        assert_eq!(vals[1], ParamValue::Duration(Duration::from_secs(90.0)));
    }

    #[test]
    fn zero_min_geometric_range_terminates() {
        // 0 * factor = 0: without the guard this loops forever.
        let r = ParamRange::GeometricDuration {
            min: Duration::ZERO,
            max: Duration::from_hours(24.0),
            factor: 1.05,
        };
        assert_eq!(r.values(), vec![ParamValue::Duration(Duration::ZERO)]);
    }

    #[test]
    fn paper_checkpoint_range_size() {
        // [1m-24h;*1.05]: 1440x span, log(1440)/log(1.05) ~ 149 steps.
        let r = ParamRange::GeometricDuration {
            min: Duration::from_mins(1.0),
            max: Duration::from_hours(24.0),
            factor: 1.05,
        };
        let n = r.len();
        assert!((140..160).contains(&n), "got {n}");
    }

    #[test]
    fn range_contains() {
        let levels = ParamRange::Levels(vec!["a".into(), "b".into()]);
        assert!(levels.contains(&ParamValue::Level("a".into())));
        assert!(!levels.contains(&ParamValue::Level("c".into())));
        assert!(!levels.contains(&ParamValue::Duration(Duration::ZERO)));

        let geo = ParamRange::GeometricDuration {
            min: Duration::from_mins(1.0),
            max: Duration::from_hours(1.0),
            factor: 2.0,
        };
        assert!(geo.contains(&ParamValue::Duration(Duration::from_mins(7.0))));
        assert!(!geo.contains(&ParamValue::Duration(Duration::from_secs(10.0))));
        assert!(!geo.contains(&ParamValue::Level("a".into())));
    }

    #[test]
    fn effect_param_type_mismatch_is_error() {
        let m = Mechanism::new("x")
            .with_param(Parameter::new("p", ParamRange::Levels(vec!["l1".into()])))
            .with_effect(EffectKind::LossWindow, EffectValue::Param("p".into()));
        let mut s = BTreeMap::new();
        s.insert(
            (MechanismName::new("x"), ParamName::new("p")),
            ParamValue::Level("l1".into()),
        );
        assert!(matches!(
            m.resolve(EffectKind::LossWindow, &s),
            Err(ModelError::ValueOutOfRange { .. })
        ));
    }
}
