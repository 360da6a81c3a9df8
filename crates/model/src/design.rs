//! Resolved designs (paper §4: the output of the design-space search).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::{
    Infrastructure, MechanismName, ModelError, OperationalMode, ParamName, ParamValue,
    ResourceTypeName, Service, Settings, TierName,
};

/// The operational modes of the components of spare resources.
///
/// The paper treats "the operational mode of each component in the spare
/// resources" as a design dimension; its application-tier example restricts
/// spares to be fully inactive. The common whole-resource cases get direct
/// variants; arbitrary per-component assignments remain expressible.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpareMode {
    /// Every component of every spare is powered off / unlicensed.
    AllInactive,
    /// Every component of every spare is running (hot standby).
    AllActive,
    /// An explicit mode per component slot of the resource type.
    PerComponent(Vec<OperationalMode>),
}

impl SpareMode {
    /// Expands to one mode per component slot.
    ///
    /// # Panics
    ///
    /// Panics if a `PerComponent` assignment has the wrong length.
    #[must_use]
    pub fn modes(&self, n_slots: usize) -> Vec<OperationalMode> {
        match self {
            SpareMode::AllInactive => vec![OperationalMode::Inactive; n_slots],
            SpareMode::AllActive => vec![OperationalMode::Active; n_slots],
            SpareMode::PerComponent(modes) => {
                assert_eq!(
                    modes.len(),
                    n_slots,
                    "per-component spare modes must cover every slot"
                );
                modes.clone()
            }
        }
    }
}

/// The resolved design of one tier.
///
/// Fixes every choice the search makes for a tier: the resource type, the
/// number of active resources, the number of spares, the spare components'
/// operational modes, and a value for every availability-mechanism
/// parameter in play.
///
/// # Examples
///
/// ```
/// use aved_model::{TierDesign, SpareMode, ParamValue};
///
/// let td = TierDesign::new("application", "rC", 6, 1)
///     .with_spare_mode(SpareMode::AllInactive)
///     .with_setting("maintenanceA", "level", ParamValue::Level("gold".into()));
/// assert_eq!(td.n_active(), 6);
/// assert_eq!(td.n_total(), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierDesign {
    tier: TierName,
    resource: ResourceTypeName,
    n_active: u32,
    n_spare: u32,
    spare_mode: SpareMode,
    // Serialized as a list of (mechanism, param, value) triples: tuple map
    // keys have no JSON representation.
    #[serde(with = "settings_serde")]
    settings: SettingList,
}

/// One mechanism setting: the mechanism's parameter and its value.
type Setting = ((MechanismName, ParamName), ParamValue);

/// A tier design's mechanism settings, sorted by (mechanism, parameter),
/// each key once: a map kept as a short sorted list, since a design has a
/// few settings and a search builds and clones designs by the thousand. A
/// single setting, the common case, is held inline, so such a design
/// allocates nothing for it. It prints as a map does.
#[derive(Clone)]
enum SettingList {
    One(Setting),
    /// None, or two or more.
    Many(Vec<Setting>),
}

impl Default for SettingList {
    fn default() -> SettingList {
        SettingList::Many(Vec::new())
    }
}

impl PartialEq for SettingList {
    fn eq(&self, other: &SettingList) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for SettingList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.as_slice().iter().map(|(key, value)| (key, value)))
            .finish()
    }
}

impl SettingList {
    fn as_slice(&self) -> &[Setting] {
        match self {
            SettingList::One(setting) => std::slice::from_ref(setting),
            SettingList::Many(settings) => settings,
        }
    }

    /// The position of the setting of `mechanism`'s `param`: `Ok` when
    /// present, `Err` with its insertion point otherwise.
    fn find(&self, mechanism: &str, param: &str) -> Result<usize, usize> {
        self.as_slice()
            .binary_search_by(|((m, p), _)| (m.as_str(), p.as_str()).cmp(&(mechanism, param)))
    }

    /// Sets `mechanism`'s `param` to `value`, replacing any earlier value.
    fn set(&mut self, mechanism: MechanismName, param: ParamName, value: ParamValue) {
        match (self.find(mechanism.as_str(), param.as_str()), &mut *self) {
            (Ok(_), SettingList::One(setting)) => setting.1 = value,
            (Ok(at), SettingList::Many(settings)) => settings[at].1 = value,
            (Err(at), _) => {
                let setting = ((mechanism, param), value);
                *self = match std::mem::take(self) {
                    SettingList::Many(settings) if settings.is_empty() => SettingList::One(setting),
                    list => {
                        let mut settings = match list {
                            SettingList::One(only) => vec![only],
                            SettingList::Many(settings) => settings,
                        };
                        settings.insert(at, setting);
                        SettingList::Many(settings)
                    }
                };
            }
        }
    }
}

// Referenced via `#[serde(with = ...)]`, which the offline serde stub's
// derive ignores — hence the allow; remove it with the registry serde.
#[allow(dead_code)]
mod settings_serde {
    use super::{MechanismName, ParamName, ParamValue, SettingList};
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub fn serialize<S: Serializer>(
        settings: &SettingList,
        serializer: S,
    ) -> Result<S::Ok, S::Error> {
        let entries: Vec<(&MechanismName, &ParamName, &ParamValue)> = settings
            .as_slice()
            .iter()
            .map(|((m, p), v)| (m, p, v))
            .collect();
        entries.serialize(serializer)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        deserializer: D,
    ) -> Result<SettingList, D::Error> {
        let entries: Vec<(MechanismName, ParamName, ParamValue)> = Vec::deserialize(deserializer)?;
        let mut settings = SettingList::default();
        for (m, p, v) in entries {
            settings.set(m, p, v);
        }
        Ok(settings)
    }
}

impl TierDesign {
    /// Creates a tier design with fully-inactive spares and no mechanism
    /// settings.
    ///
    /// # Panics
    ///
    /// Panics if `n_active` is zero.
    pub fn new<T, R>(tier: T, resource: R, n_active: u32, n_spare: u32) -> TierDesign
    where
        T: Into<TierName>,
        R: Into<ResourceTypeName>,
    {
        assert!(n_active > 0, "a tier needs at least one active resource");
        TierDesign {
            tier: tier.into(),
            resource: resource.into(),
            n_active,
            n_spare,
            spare_mode: SpareMode::AllInactive,
            settings: SettingList::default(),
        }
    }

    /// Sets the spare-component operational modes.
    #[must_use]
    pub fn with_spare_mode(mut self, mode: SpareMode) -> TierDesign {
        self.spare_mode = mode;
        self
    }

    /// Sets one mechanism parameter.
    #[must_use]
    pub fn with_setting<M, P>(mut self, mechanism: M, param: P, value: ParamValue) -> TierDesign
    where
        M: Into<MechanismName>,
        P: Into<ParamName>,
    {
        self.settings.set(mechanism.into(), param.into(), value);
        self
    }

    /// The tier this design is for.
    #[must_use]
    pub fn tier(&self) -> &TierName {
        &self.tier
    }

    /// The selected resource type.
    #[must_use]
    pub fn resource(&self) -> &ResourceTypeName {
        &self.resource
    }

    /// Number of active resources.
    #[must_use]
    pub fn n_active(&self) -> u32 {
        self.n_active
    }

    /// Number of spare resources.
    #[must_use]
    pub fn n_spare(&self) -> u32 {
        self.n_spare
    }

    /// Total resources (active + spare).
    #[must_use]
    pub fn n_total(&self) -> u32 {
        self.n_active + self.n_spare
    }

    /// Spare component modes.
    #[must_use]
    pub fn spare_mode(&self) -> &SpareMode {
        &self.spare_mode
    }

    /// All mechanism settings, sorted by (mechanism, parameter), each
    /// once.
    #[must_use]
    pub fn settings(&self) -> &[((MechanismName, ParamName), ParamValue)] {
        self.settings.as_slice()
    }

    /// Reads one setting.
    #[must_use]
    pub fn setting(&self, mechanism: &str, param: &str) -> Option<&ParamValue> {
        let at = self.settings.find(mechanism, param).ok()?;
        Some(&self.settings()[at].1)
    }
}

impl Settings for TierDesign {
    fn get(&self, mechanism: &MechanismName, param: &ParamName) -> Option<ParamValue> {
        self.setting(mechanism.as_str(), param.as_str()).cloned()
    }
}

impl std::fmt::Display for TierDesign {
    /// A one-line human-readable summary:
    /// `application: rC x5 (+1 inactive spare) [maintenanceA.level=gold]`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {} x{}", self.tier, self.resource, self.n_active)?;
        if self.n_spare > 0 {
            let mode = match &self.spare_mode {
                SpareMode::AllInactive => "inactive",
                SpareMode::AllActive => "hot",
                SpareMode::PerComponent(_) => "mixed-mode",
            };
            write!(
                f,
                " (+{} {} spare{})",
                self.n_spare,
                mode,
                if self.n_spare == 1 { "" } else { "s" }
            )?;
        }
        if !self.settings().is_empty() {
            let settings: Vec<String> = self
                .settings()
                .iter()
                .map(|((m, p), v)| format!("{m}.{p}={v}"))
                .collect();
            write!(f, " [{}]", settings.join(", "))?;
        }
        Ok(())
    }
}

/// A complete design: one [`TierDesign`] per service tier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Design {
    tiers: Vec<TierDesign>,
}

impl Design {
    /// Creates a design from per-tier designs.
    #[must_use]
    pub fn new(tiers: Vec<TierDesign>) -> Design {
        Design { tiers }
    }

    /// The per-tier designs.
    #[must_use]
    pub fn tiers(&self) -> &[TierDesign] {
        &self.tiers
    }

    /// Looks up the design of a named tier.
    #[must_use]
    pub fn tier(&self, name: &str) -> Option<&TierDesign> {
        self.tiers.iter().find(|t| t.tier().as_str() == name)
    }

    /// Validates the design against an infrastructure and service model:
    ///
    /// * every tier of the service has exactly one design and vice versa;
    /// * each selected resource type exists and is an option of its tier;
    /// * `n_active` is allowed by the option's `nActive` specification;
    /// * mechanism settings lie within declared parameter ranges;
    /// * component `max_instances` bounds hold across the whole design.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`ModelError`].
    pub fn validate(
        &self,
        infrastructure: &Infrastructure,
        service: &Service,
    ) -> Result<(), ModelError> {
        if self.tiers.len() != service.tiers().len() {
            return Err(ModelError::TierMismatch {
                detail: format!(
                    "design has {} tiers, service has {}",
                    self.tiers.len(),
                    service.tiers().len()
                ),
            });
        }
        let mut instance_counts: BTreeMap<&str, usize> = BTreeMap::new();
        for td in &self.tiers {
            let tier =
                service
                    .tier(td.tier().as_str())
                    .ok_or_else(|| ModelError::TierMismatch {
                        detail: format!("service has no tier named {}", td.tier()),
                    })?;
            let option = tier.option_for(td.resource().as_str()).ok_or_else(|| {
                ModelError::UnknownResource {
                    tier: td.tier().to_string(),
                    resource: td.resource().to_string(),
                }
            })?;
            if !option.n_active().contains(td.n_active()) {
                return Err(ModelError::Invalid {
                    detail: format!(
                        "tier {}: nActive={} is not allowed by the resource option",
                        td.tier(),
                        td.n_active()
                    ),
                });
            }
            let resource = infrastructure
                .resource(td.resource().as_str())
                .ok_or_else(|| ModelError::UnknownResource {
                    tier: td.tier().to_string(),
                    resource: td.resource().to_string(),
                })?;
            if let SpareMode::PerComponent(modes) = td.spare_mode() {
                if modes.len() != resource.components().len() {
                    return Err(ModelError::Invalid {
                        detail: format!(
                            "tier {}: spare mode lists {} components, resource {} has {}",
                            td.tier(),
                            modes.len(),
                            td.resource(),
                            resource.components().len()
                        ),
                    });
                }
            }
            // Mechanism settings within range.
            for ((mech, param), value) in td.settings() {
                let mechanism = infrastructure.mechanism(mech.as_str()).ok_or_else(|| {
                    ModelError::UnknownMechanism {
                        context: format!("design for tier {}", td.tier()),
                        mechanism: mech.to_string(),
                    }
                })?;
                let p = mechanism.param(param.as_str()).ok_or_else(|| {
                    ModelError::UnknownParameter {
                        mechanism: mech.to_string(),
                        param: param.to_string(),
                    }
                })?;
                if !p.range().contains(value) {
                    return Err(ModelError::ValueOutOfRange {
                        mechanism: mech.to_string(),
                        param: param.to_string(),
                        value: value.to_string(),
                    });
                }
            }
            // Count component instances across the design.
            for slot in resource.components() {
                *instance_counts
                    .entry(slot.component().as_str())
                    .or_insert(0) += td.n_total() as usize;
            }
        }
        for (component, count) in instance_counts {
            if let Some(ct) = infrastructure.component(component) {
                if let Some(max) = ct.max_instances() {
                    if count > max {
                        return Err(ModelError::TooManyInstances {
                            component: component.to_owned(),
                            requested: count,
                            allowed: max,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for Design {
    /// One [`TierDesign`] line per tier.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, tier) in self.tiers.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{tier}")?;
        }
        Ok(())
    }
}

/// One difference between two designs, as reported by [`Design::diff`].
///
/// In a utility-computing deployment (paper §1), each change is a
/// reconfiguration action the utility controller must execute when moving
/// from the current design to the re-designed one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DesignChange {
    /// A tier present only in the new design.
    TierAdded {
        /// The added tier.
        tier: TierName,
    },
    /// A tier present only in the old design.
    TierRemoved {
        /// The removed tier.
        tier: TierName,
    },
    /// The tier switched resource types (redeploy everything).
    ResourceChanged {
        /// The affected tier.
        tier: TierName,
        /// Resource type in the old design.
        from: ResourceTypeName,
        /// Resource type in the new design.
        to: ResourceTypeName,
    },
    /// The number of active resources changed (scale out/in).
    ActiveCountChanged {
        /// The affected tier.
        tier: TierName,
        /// Active count in the old design.
        from: u32,
        /// Active count in the new design.
        to: u32,
    },
    /// The number of spares changed.
    SpareCountChanged {
        /// The affected tier.
        tier: TierName,
        /// Spare count in the old design.
        from: u32,
        /// Spare count in the new design.
        to: u32,
    },
    /// A mechanism parameter setting changed (or appeared/disappeared).
    SettingChanged {
        /// The affected tier.
        tier: TierName,
        /// The mechanism whose parameter changed.
        mechanism: MechanismName,
        /// The parameter.
        param: ParamName,
        /// The old value, if any.
        from: Option<ParamValue>,
        /// The new value, if any.
        to: Option<ParamValue>,
    },
}

impl std::fmt::Display for DesignChange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DesignChange::TierAdded { tier } => write!(f, "{tier}: tier added"),
            DesignChange::TierRemoved { tier } => write!(f, "{tier}: tier removed"),
            DesignChange::ResourceChanged { tier, from, to } => {
                write!(f, "{tier}: resource {from} -> {to}")
            }
            DesignChange::ActiveCountChanged { tier, from, to } => {
                write!(f, "{tier}: actives {from} -> {to}")
            }
            DesignChange::SpareCountChanged { tier, from, to } => {
                write!(f, "{tier}: spares {from} -> {to}")
            }
            DesignChange::SettingChanged {
                tier,
                mechanism,
                param,
                from,
                to,
            } => {
                let show = |v: &Option<ParamValue>| {
                    v.as_ref()
                        .map_or_else(|| "-".to_owned(), ToString::to_string)
                };
                write!(
                    f,
                    "{tier}: {mechanism}.{param} {} -> {}",
                    show(from),
                    show(to)
                )
            }
        }
    }
}

impl Design {
    /// The reconfiguration actions separating `self` from `other` (changes
    /// are phrased as going *from `self` to `other`*), in tier order.
    ///
    /// An empty result means the designs are operationally identical.
    /// Spare-mode changes are reported as a setting-level change only when
    /// both designs keep spares; a resource or count change subsumes them.
    #[must_use]
    pub fn diff(&self, other: &Design) -> Vec<DesignChange> {
        let mut out = Vec::new();
        for old in &self.tiers {
            let Some(new) = other.tier(old.tier().as_str()) else {
                out.push(DesignChange::TierRemoved {
                    tier: old.tier().clone(),
                });
                continue;
            };
            if old.resource() != new.resource() {
                out.push(DesignChange::ResourceChanged {
                    tier: old.tier().clone(),
                    from: old.resource().clone(),
                    to: new.resource().clone(),
                });
            }
            if old.n_active() != new.n_active() {
                out.push(DesignChange::ActiveCountChanged {
                    tier: old.tier().clone(),
                    from: old.n_active(),
                    to: new.n_active(),
                });
            }
            if old.n_spare() != new.n_spare() {
                out.push(DesignChange::SpareCountChanged {
                    tier: old.tier().clone(),
                    from: old.n_spare(),
                    to: new.n_spare(),
                });
            }
            let keys: std::collections::BTreeSet<_> = old
                .settings()
                .iter()
                .chain(new.settings())
                .map(|(key, _)| key.clone())
                .collect();
            for (mech, param) in keys {
                let from = old.setting(mech.as_str(), param.as_str()).cloned();
                let to = new.setting(mech.as_str(), param.as_str()).cloned();
                if from != to {
                    out.push(DesignChange::SettingChanged {
                        tier: old.tier().clone(),
                        mechanism: mech,
                        param,
                        from,
                        to,
                    });
                }
            }
        }
        for new in other.tiers() {
            if self.tier(new.tier().as_str()).is_none() {
                out.push(DesignChange::TierAdded {
                    tier: new.tier().clone(),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_summarizes_designs() {
        let td = TierDesign::new("application", "rC", 5, 1).with_setting(
            "maintenanceA",
            "level",
            ParamValue::Level("gold".into()),
        );
        let shown = td.to_string();
        assert!(shown.contains("application: rC x5"));
        assert!(shown.contains("+1 inactive spare"));
        assert!(shown.contains("maintenanceA.level=gold"));

        let bare = TierDesign::new("web", "rA", 2, 0);
        assert_eq!(bare.to_string(), "web: rA x2");

        let hot = TierDesign::new("web", "rA", 2, 2).with_spare_mode(SpareMode::AllActive);
        assert!(hot.to_string().contains("+2 hot spares"));

        let design = Design::new(vec![bare.clone(), hot]);
        let text = design.to_string();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("web: rA x2"));
    }

    #[test]
    fn settings_stay_sorted_with_one_entry_per_key_at_any_count() {
        let level = |l: &str| ParamValue::Level(l.into());
        let keys = |td: &TierDesign| -> Vec<String> {
            td.settings()
                .iter()
                .map(|((m, p), v)| format!("{m}.{p}={v}"))
                .collect()
        };
        let one = TierDesign::new("web", "rA", 1, 0).with_setting("m", "b", level("x"));
        assert_eq!(keys(&one), ["m.b=x"]);
        let one = one.with_setting("m", "b", level("y"));
        assert_eq!(keys(&one), ["m.b=y"], "a set key is replaced");
        let three = one
            .clone()
            .with_setting("m", "c", level("z"))
            .with_setting("m", "a", level("w"))
            .with_setting("m", "c", level("v"));
        assert_eq!(keys(&three), ["m.a=w", "m.b=y", "m.c=v"]);
        assert_eq!(three.setting("m", "b"), Some(&level("y")));
        assert_eq!(three.setting("m", "d"), None);
        let same = TierDesign::new("web", "rA", 1, 0)
            .with_setting("m", "c", level("v"))
            .with_setting("m", "b", level("y"))
            .with_setting("m", "a", level("w"));
        assert_eq!(three, same, "equality ignores insertion order");
        assert_ne!(three, one);
    }

    #[test]
    fn diff_reports_every_change_kind() {
        let old = Design::new(vec![
            TierDesign::new("web", "rA", 5, 0).with_setting(
                "maintenanceA",
                "level",
                ParamValue::Level("bronze".into()),
            ),
            TierDesign::new("db", "rG", 1, 1),
        ]);
        let new = Design::new(vec![
            TierDesign::new("web", "rB", 2, 1).with_setting(
                "maintenanceA",
                "level",
                ParamValue::Level("gold".into()),
            ),
            TierDesign::new("cache", "rA", 2, 0),
        ]);
        let changes = old.diff(&new);
        let rendered: Vec<String> = changes.iter().map(ToString::to_string).collect();
        assert!(
            rendered.contains(&"web: resource rA -> rB".to_owned()),
            "{rendered:?}"
        );
        assert!(rendered.contains(&"web: actives 5 -> 2".to_owned()));
        assert!(rendered.contains(&"web: spares 0 -> 1".to_owned()));
        assert!(rendered.contains(&"web: maintenanceA.level bronze -> gold".to_owned()));
        assert!(rendered.contains(&"db: tier removed".to_owned()));
        assert!(rendered.contains(&"cache: tier added".to_owned()));
        assert_eq!(changes.len(), 6);
    }

    #[test]
    fn diff_of_identical_designs_is_empty() {
        let d = Design::new(vec![TierDesign::new("web", "rA", 3, 1).with_setting(
            "m",
            "p",
            ParamValue::Level("x".into()),
        )]);
        assert!(d.diff(&d.clone()).is_empty());
    }

    #[test]
    fn diff_reports_new_and_dropped_settings() {
        let old = Design::new(vec![TierDesign::new("t", "r", 1, 0).with_setting(
            "m",
            "a",
            ParamValue::Level("x".into()),
        )]);
        let new = Design::new(vec![TierDesign::new("t", "r", 1, 0).with_setting(
            "m",
            "b",
            ParamValue::Level("y".into()),
        )]);
        let changes = old.diff(&new);
        assert_eq!(changes.len(), 2);
        let rendered: Vec<String> = changes.iter().map(ToString::to_string).collect();
        assert!(
            rendered.contains(&"t: m.a x -> -".to_owned()),
            "{rendered:?}"
        );
        assert!(rendered.contains(&"t: m.b - -> y".to_owned()));
    }

    #[test]
    fn spare_mode_expansion() {
        assert_eq!(
            SpareMode::AllInactive.modes(2),
            vec![OperationalMode::Inactive; 2]
        );
        assert_eq!(
            SpareMode::AllActive.modes(3),
            vec![OperationalMode::Active; 3]
        );
        let custom =
            SpareMode::PerComponent(vec![OperationalMode::Active, OperationalMode::Inactive]);
        assert_eq!(
            custom.modes(2),
            vec![OperationalMode::Active, OperationalMode::Inactive]
        );
    }

    #[test]
    #[should_panic(expected = "cover every slot")]
    fn wrong_length_per_component_panics() {
        let _ = SpareMode::PerComponent(vec![OperationalMode::Active]).modes(2);
    }

    #[test]
    fn tier_design_accessors() {
        let td = TierDesign::new("web", "rA", 5, 2).with_setting(
            "maintenanceA",
            "level",
            ParamValue::Level("silver".into()),
        );
        assert_eq!(td.tier().as_str(), "web");
        assert_eq!(td.resource().as_str(), "rA");
        assert_eq!(td.n_total(), 7);
        assert_eq!(
            td.setting("maintenanceA", "level"),
            Some(&ParamValue::Level("silver".into()))
        );
        assert_eq!(td.setting("maintenanceA", "other"), None);
        // Settings trait
        let got = Settings::get(
            &td,
            &MechanismName::new("maintenanceA"),
            &ParamName::new("level"),
        );
        assert_eq!(got, Some(ParamValue::Level("silver".into())));
    }

    #[test]
    #[should_panic(expected = "at least one active")]
    fn zero_active_panics() {
        let _ = TierDesign::new("web", "rA", 0, 1);
    }

    #[test]
    fn design_tier_lookup() {
        let d = Design::new(vec![
            TierDesign::new("web", "rA", 2, 0),
            TierDesign::new("application", "rC", 3, 1),
        ]);
        assert_eq!(d.tiers().len(), 2);
        assert_eq!(d.tier("application").unwrap().n_active(), 3);
        assert!(d.tier("database").is_none());
    }
}
