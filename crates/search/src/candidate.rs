//! Enumeration of resolved tier-design candidates.

use std::sync::Arc;
use std::time::Instant;

use aved_avail::{CancelToken, SolveBudget};
use aved_model::{
    EffectKind, Infrastructure, MechanismName, MechanismUse, ParamName, ParamValue, ResourceOption,
    ResourceType, SpareMode, TierDesign, TierName,
};

use crate::journal::{JournalReplay, SweepJournal};

/// Knobs bounding the enumerated design space.
///
/// The paper's search dimensions are unbounded in principle (any number of
/// extra actives or spares); in practice redundancy beyond a handful of
/// resources only raises cost, and the termination rules of §4.1 stop the
/// search long before these bounds. They exist so exhaustive sweeps
/// (Pareto frontiers) terminate too.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Largest number of active resources beyond the performance minimum.
    pub max_extra_active: u32,
    /// Largest number of spare resources.
    pub max_spares: u32,
    /// Spare operational-mode alternatives to consider.
    pub spare_modes: Vec<SpareMode>,
    /// Mechanism parameters pinned to a single value instead of enumerated
    /// (the paper's Fig. 7 fixes the maintenance contract to bronze "to
    /// avoid overloading the graphs").
    pub pins: Vec<(MechanismName, String, ParamValue)>,
    /// Fail-fast mode: when `true`, the first evaluation failure aborts the
    /// search instead of skipping the candidate and recording the skip in
    /// the search's `SearchHealth` report.
    pub strict: bool,
    /// Inert: a search runs on the calling thread whatever this says. Kept
    /// so that callers which set it, and the `--jobs` flag, still compile
    /// and parse; see [`effective_jobs`].
    pub jobs: usize,
    /// Per-candidate wall-clock allowance: each candidate's availability
    /// evaluation (exploration + every solver attempt) must finish within
    /// this much time or it is abandoned with a budget-exhaustion
    /// diagnostic. The clock restarts for every candidate. `None` (the
    /// default) means no per-candidate limit.
    pub candidate_timeout: Option<std::time::Duration>,
    /// Largest Markov state space any single candidate may explore before
    /// its evaluation is abandoned as budget-exhausted. Guards against
    /// state-space explosion from adversarial or mis-specified models.
    /// `None` (the default) applies only the engine's built-in truncation
    /// bound.
    pub max_states: Option<usize>,
    /// Whole-search wall-clock deadline, measured from the moment the
    /// search starts. When it passes, the search stops at the next
    /// candidate boundary and returns its best-so-far result with
    /// `SearchHealth::interrupted` set. `None` (the default) means the
    /// search runs to completion.
    pub search_deadline: Option<std::time::Duration>,
    /// Cooperative cancellation token, checked at candidate boundaries and
    /// inside long solver loops. Firing it (e.g. from a signal handler)
    /// stops the search cleanly with its best-so-far result.
    pub cancel: Option<CancelToken>,
    /// Evaluation journal: every candidate outcome is appended as it
    /// merges, so a killed or cancelled sweep can be resumed with
    /// [`SearchOptions::resume`].
    pub journal: Option<Arc<SweepJournal>>,
    /// Replay source: candidates whose keys appear in this loaded journal
    /// skip evaluation and reuse the recorded result bit-for-bit.
    pub resume: Option<Arc<JournalReplay>>,
}

impl Default for SearchOptions {
    /// Up to 8 extra actives, up to 3 spares, fully-inactive spares (the
    /// restriction the paper's application-tier example makes), nothing
    /// pinned, no budgets, no journal.
    fn default() -> SearchOptions {
        SearchOptions {
            max_extra_active: 8,
            max_spares: 3,
            spare_modes: vec![SpareMode::AllInactive],
            pins: Vec::new(),
            strict: false,
            jobs: 1,
            candidate_timeout: None,
            max_states: None,
            search_deadline: None,
            cancel: None,
            journal: None,
            resume: None,
        }
    }
}

impl SearchOptions {
    /// Also consider hot (all-active) spares.
    #[must_use]
    pub fn with_hot_spares(mut self) -> SearchOptions {
        if !self.spare_modes.contains(&SpareMode::AllActive) {
            self.spare_modes.push(SpareMode::AllActive);
        }
        self
    }

    /// Aborts on the first evaluation failure instead of isolating it to
    /// the failing candidate.
    #[must_use]
    pub fn with_strict(mut self) -> SearchOptions {
        self.strict = true;
        self
    }

    /// Pins one mechanism parameter to a fixed value.
    #[must_use]
    pub fn with_pin<M, P>(mut self, mechanism: M, param: P, value: ParamValue) -> SearchOptions
    where
        M: Into<MechanismName>,
        P: Into<String>,
    {
        self.pins.push((mechanism.into(), param.into(), value));
        self
    }

    /// Bounds each candidate's evaluation to `timeout` of wall-clock time.
    #[must_use]
    pub fn with_candidate_timeout(mut self, timeout: std::time::Duration) -> SearchOptions {
        self.candidate_timeout = Some(timeout);
        self
    }

    /// Bounds each candidate's Markov exploration to `max_states` states.
    #[must_use]
    pub fn with_max_states(mut self, max_states: usize) -> SearchOptions {
        self.max_states = Some(max_states);
        self
    }

    /// Bounds the whole search to `deadline` of wall-clock time, after
    /// which it returns its best-so-far result as interrupted.
    #[must_use]
    pub fn with_search_deadline(mut self, deadline: std::time::Duration) -> SearchOptions {
        self.search_deadline = Some(deadline);
        self
    }

    /// Attaches a cooperative cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> SearchOptions {
        self.cancel = Some(cancel);
        self
    }

    /// Journals every candidate outcome to `journal` as the search runs.
    #[must_use]
    pub fn with_journal(mut self, journal: Arc<SweepJournal>) -> SearchOptions {
        self.journal = Some(journal);
        self
    }

    /// Replays recorded outcomes from `replay` instead of re-evaluating.
    #[must_use]
    pub fn with_resume(mut self, replay: Arc<JournalReplay>) -> SearchOptions {
        self.resume = Some(replay);
        self
    }

    /// The solve budget every evaluation session of a search that started
    /// at `start` runs under: the absolute search deadline, the
    /// per-candidate timeout and state cap, and the cancellation token,
    /// all folded into one [`SolveBudget`]. A search deadline past the last
    /// representable instant sets no deadline.
    pub(crate) fn eval_budget(&self, start: Instant) -> SolveBudget {
        let mut budget = SolveBudget::unlimited();
        if let Some(deadline) = self.search_deadline.and_then(|d| start.checked_add(d)) {
            budget = budget.with_deadline(deadline);
        }
        if let Some(t) = self.candidate_timeout {
            budget = budget.with_candidate_timeout(t);
        }
        if let Some(s) = self.max_states {
            budget = budget.with_max_states(s);
        }
        if let Some(c) = &self.cancel {
            budget = budget.with_cancel(c.clone());
        }
        budget
    }
}

/// The number of worker threads a search runs on for a requested
/// [`SearchOptions::jobs`]: always one, since every search runs on the
/// calling thread.
#[must_use]
pub fn effective_jobs(_requested: usize) -> usize {
    1
}

/// The delegations of the components of `option`'s resource, in walk
/// order ([`ComponentType::delegations`](aved_model::ComponentType::delegations)).
fn delegations<'i>(
    infrastructure: &'i Infrastructure,
    option: &ResourceOption,
) -> impl Iterator<Item = (EffectKind, &'i MechanismName)> {
    infrastructure
        .resource(option.resource().as_str())
        .into_iter()
        .flat_map(|resource| resource.components())
        .filter_map(|slot| infrastructure.component(slot.component().as_str()))
        .flat_map(|component| component.delegations().map(|(kind, m, _)| (kind, m)))
}

/// `names` without repeats, in order of first appearance.
fn distinct<'m>(names: impl Iterator<Item = &'m MechanismName>) -> Vec<&'m MechanismName> {
    let mut out = Vec::new();
    for m in names {
        if !out.contains(&m) {
            out.push(m);
        }
    }
    out
}

/// The availability mechanisms relevant to a tier option: those referenced
/// by the resource's components (maintenance contracts, checkpoint loss
/// windows) plus those the service model attaches to the option.
#[must_use]
pub fn relevant_mechanisms(
    infrastructure: &Infrastructure,
    option: &ResourceOption,
) -> Vec<MechanismName> {
    let delegated = delegations(infrastructure, option).map(|(_, m)| m);
    let attached = option.mechanisms().iter().map(MechanismUse::mechanism);
    distinct(delegated.chain(attached))
        .into_iter()
        .cloned()
        .collect()
}

/// Enumerates every combination of parameter settings across the given
/// mechanisms (Cartesian product of all parameter ranges).
///
/// Each returned setting assignment is a list of
/// `(mechanism, parameter, value)` triples ready to apply to a
/// [`TierDesign`].
#[must_use]
pub fn enumerate_settings(
    infrastructure: &Infrastructure,
    mechanisms: &[MechanismName],
    pins: &[(MechanismName, String, ParamValue)],
) -> Vec<Vec<(MechanismName, ParamName, ParamValue)>> {
    let mut combos: Vec<Vec<(MechanismName, ParamName, ParamValue)>> = vec![Vec::new()];
    for mech_name in mechanisms {
        let Some(mech) = infrastructure.mechanism(mech_name.as_str()) else {
            continue;
        };
        for param in mech.params() {
            let pinned = pins
                .iter()
                .find(|(m, p, _)| m == mech_name && p == param.name().as_str())
                .map(|(_, _, v)| v.clone());
            let values = match pinned {
                Some(v) => vec![v],
                None => param.range().values(),
            };
            let mut next = Vec::with_capacity(combos.len() * values.len());
            for combo in &combos {
                for value in &values {
                    let mut extended = combo.clone();
                    extended.push((mech_name.clone(), param.name().clone(), value.clone()));
                    next.push(extended);
                }
            }
            combos = next;
        }
    }
    combos
}

/// The mechanisms whose settings enter an option's tier model: those its
/// resource's components delegate an attribute to whose kind
/// [enters the tier model](EffectKind::enters_tier_model). An effect reads
/// only its own mechanism's parameters
/// ([`Mechanism::resolve`](aved_model::Mechanism::resolve)), so the settings
/// of every other relevant mechanism — a checkpoint's interval and storage
/// location — leave the tier model alone.
fn model_mechanisms<'i>(
    infrastructure: &'i Infrastructure,
    option: &ResourceOption,
) -> Vec<&'i MechanismName> {
    let read = delegations(infrastructure, option).filter(|(kind, _)| kind.enters_tier_model());
    distinct(read.map(|(_, m)| m))
}

/// The most resources a tier design of `option` may hold: the tightest
/// `max_instances` bound of its resource's components, divided by the
/// number of the resource's slots that component fills. `u32::MAX` when no
/// component is bounded.
fn max_total(infrastructure: &Infrastructure, option: &ResourceOption) -> u32 {
    let slots = infrastructure
        .resource(option.resource().as_str())
        .map_or(&[][..], ResourceType::components);
    slots
        .iter()
        .filter_map(|slot| {
            let component = infrastructure.component(slot.component().as_str())?;
            let per_resource = slots.iter().filter(|s| s.component() == slot.component());
            u32::try_from(component.max_instances()? / per_resource.count()).ok()
        })
        .min()
        .unwrap_or(u32::MAX)
}

/// One option's mechanism-setting combinations, enumerated once per sweep.
///
/// Each combination is tagged with its projection onto the settings the
/// tier model reads (see `model_mechanisms`), numbered in order of first
/// appearance. Two candidates with the same active/spare split and spare
/// mode therefore share an *availability design* — one tier model —
/// exactly when their combinations share a projection, wherever they sit
/// in enumeration order.
pub(crate) struct SettingsPlan {
    combos: Vec<Vec<(MechanismName, ParamName, ParamValue)>>,
    /// The projection of each combination.
    projection: Vec<usize>,
    /// The number of distinct projections.
    projections: usize,
    /// The most resources a design may hold under the components'
    /// `max_instances` bounds.
    max_total: u32,
}

impl SettingsPlan {
    /// Enumerates `option`'s settings combinations under `pins` and
    /// projects each onto the settings its tier model reads.
    pub(crate) fn new(
        infrastructure: &Infrastructure,
        option: &ResourceOption,
        pins: &[(MechanismName, String, ParamValue)],
    ) -> SettingsPlan {
        let mechanisms = relevant_mechanisms(infrastructure, option);
        let combos = enumerate_settings(infrastructure, &mechanisms, pins);
        let read = model_mechanisms(infrastructure, option);
        let mut seen: Vec<Vec<&ParamValue>> = Vec::new();
        let projection = combos
            .iter()
            .map(|combo| {
                let key: Vec<&ParamValue> = combo
                    .iter()
                    .filter(|(m, _, _)| read.contains(&m))
                    .map(|(_, _, v)| v)
                    .collect();
                seen.iter().position(|k| *k == key).unwrap_or_else(|| {
                    seen.push(key);
                    seen.len() - 1
                })
            })
            .collect();
        let projections = seen.len();
        SettingsPlan {
            combos,
            projection,
            projections,
            max_total: max_total(infrastructure, option),
        }
    }

    /// Calls `emit` with each of `option`'s resolved tier designs with
    /// exactly `n_total` resources, in enumeration order: every
    /// active/spare split (respecting the option's `nActive` constraint and
    /// the minimum `min_active`), every spare mode, every settings
    /// combination. There are none when `n_total` resources would need
    /// more instances of a component than its `max_instances`. Next to each design comes the number of its
    /// availability design within these `n_total` resources — its split,
    /// spare mode and projection — numbered in order of first appearance.
    pub(crate) fn for_each_candidate(
        &self,
        tier: &TierName,
        option: &ResourceOption,
        n_total: u32,
        min_active: u32,
        options: &SearchOptions,
        mut emit: impl FnMut(TierDesign, usize),
    ) {
        if n_total > self.max_total {
            return;
        }
        let max_spares = options.max_spares.min(n_total.saturating_sub(1));
        let mut block = 0;
        for n_spare in 0..=max_spares {
            let n_active = n_total - n_spare;
            if n_active < min_active.max(1) || !option.n_active().contains(n_active) {
                continue;
            }
            let spare_modes: &[SpareMode] = if n_spare == 0 {
                // Spare mode is irrelevant without spares; emit one variant.
                &options.spare_modes[..1.min(options.spare_modes.len())]
            } else {
                &options.spare_modes
            };
            for spare_mode in spare_modes {
                for (combo, projection) in self.combos.iter().zip(&self.projection) {
                    let mut td =
                        TierDesign::new(tier.clone(), option.resource().clone(), n_active, n_spare)
                            .with_spare_mode(spare_mode.clone());
                    for (mech, param, value) in combo {
                        td = td.with_setting(mech.clone(), param.clone(), value.clone());
                    }
                    emit(td, block * self.projections + projection);
                }
                block += 1;
            }
        }
    }
}

/// Enumerates all resolved tier designs with exactly `n_total` resources
/// for one resource option: every active/spare split (respecting the
/// option's `nActive` constraint and the minimum `min_active`), every spare
/// mode, every mechanism-setting combination. None when `n_total` exceeds
/// a component's `max_instances` bound.
#[must_use]
pub fn enumerate_tier_candidates(
    infrastructure: &Infrastructure,
    tier: &TierName,
    option: &ResourceOption,
    n_total: u32,
    min_active: u32,
    options: &SearchOptions,
) -> Vec<TierDesign> {
    let mut out = Vec::new();
    SettingsPlan::new(infrastructure, option, &options.pins).for_each_candidate(
        tier,
        option,
        n_total,
        min_active,
        options,
        |td, _| out.push(td),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aved_model::{
        ComponentType, DurationSpec, EffectValue, FailureMode, FailureScope, Mechanism,
        NActiveSpec, ParamRange, Parameter, PerfRef, ResourceComponent, Sizing,
    };
    use aved_units::{Duration, Money};

    fn infra() -> Infrastructure {
        Infrastructure::new()
            .with_component(
                ComponentType::new("machineA").with_failure_mode(FailureMode::new(
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
            .with_resource(ResourceType::new("rX", Duration::ZERO).with_component(
                ResourceComponent::new("machineA", None, Duration::from_secs(30.0)),
            ))
    }

    fn option() -> ResourceOption {
        ResourceOption::new(
            "rX",
            Sizing::Dynamic,
            FailureScope::Resource,
            NActiveSpec::Arithmetic {
                min: 1,
                max: 1000,
                step: 1,
            },
            PerfRef::Const(100.0),
        )
    }

    #[test]
    fn relevant_mechanisms_come_from_components_and_option() {
        let infra = infra().with_mechanism(Mechanism::new("checkpoint"));
        let opt = option().with_mechanism(MechanismUse::new("checkpoint", None));
        let mechs = relevant_mechanisms(&infra, &opt);
        let names: Vec<&str> = mechs.iter().map(MechanismName::as_str).collect();
        assert_eq!(names, vec!["maintenanceA", "checkpoint"]);
    }

    #[test]
    fn settings_cartesian_product() {
        let infra = infra().with_mechanism(Mechanism::new("other").with_param(Parameter::new(
            "mode",
            ParamRange::Levels(vec!["x".into(), "y".into(), "z".into()]),
        )));
        let combos = enumerate_settings(&infra, &["maintenanceA".into(), "other".into()], &[]);
        // 2 levels x 3 modes.
        assert_eq!(combos.len(), 6);
        for combo in &combos {
            assert_eq!(combo.len(), 2);
        }
    }

    #[test]
    fn unknown_mechanisms_are_skipped() {
        let combos = enumerate_settings(&infra(), &["ghost".into()], &[]);
        assert_eq!(combos, vec![Vec::new()]);
    }

    #[test]
    fn candidates_cover_splits_and_settings() {
        let opts = SearchOptions::default();
        // n_total = 4, min_active = 2: splits (4a+0s), (3a+1s), (2a+2s);
        // 2 maintenance levels each.
        let cands = enumerate_tier_candidates(&infra(), &"t".into(), &option(), 4, 2, &opts);
        assert_eq!(cands.len(), 3 * 2);
        assert!(cands.iter().all(|c| c.n_total() == 4));
        assert!(cands.iter().all(|c| c.n_active() >= 2));
        // Every candidate carries a maintenance level.
        assert!(cands
            .iter()
            .all(|c| c.setting("maintenanceA", "level").is_some()));
    }

    #[test]
    fn n_active_constraint_filters_splits() {
        let restricted = ResourceOption::new(
            "rX",
            Sizing::Static,
            FailureScope::Resource,
            NActiveSpec::List(vec![1]),
            PerfRef::Const(100.0),
        );
        let cands = enumerate_tier_candidates(
            &infra(),
            &"t".into(),
            &restricted,
            3,
            1,
            &SearchOptions::default(),
        );
        // Only n_active = 1, n_spare = 2 qualifies.
        assert_eq!(cands.len(), 2); // two maintenance levels
        assert!(cands.iter().all(|c| c.n_active() == 1 && c.n_spare() == 2));
    }

    #[test]
    fn hot_spares_double_spare_variants() {
        let base = SearchOptions::default();
        let hot = SearchOptions::default().with_hot_spares();
        let with_base = enumerate_tier_candidates(&infra(), &"t".into(), &option(), 3, 1, &base);
        let with_hot = enumerate_tier_candidates(&infra(), &"t".into(), &option(), 3, 1, &hot);
        // Splits with spares gain a second spare-mode variant.
        assert!(with_hot.len() > with_base.len());
    }

    #[test]
    fn zero_spare_candidates_do_not_multiply_spare_modes() {
        let opts = SearchOptions::default().with_hot_spares();
        let cands = enumerate_tier_candidates(&infra(), &"t".into(), &option(), 2, 2, &opts);
        // Only the (2 active, 0 spare) split exists; spare mode collapses.
        assert_eq!(cands.len(), 2); // two maintenance levels
    }

    /// `infra()` with rX also running an aging application whose MTBF
    /// software rejuvenation sets (the mechanism of the rejuvenation
    /// integration test) and whose loss window a checkpoint sets.
    fn rejuvenation_and_checkpoint_infra() -> Infrastructure {
        infra()
            .with_component(
                ComponentType::new("agingapp")
                    .with_failure_mode(FailureMode::new(
                        "wedge",
                        DurationSpec::FromMechanism("rejuvenation".into()),
                        Duration::ZERO,
                        Duration::from_secs(30.0),
                    ))
                    .with_loss_window(DurationSpec::FromMechanism("checkpoint".into())),
            )
            .with_mechanism(
                Mechanism::new("rejuvenation")
                    .with_param(Parameter::new(
                        "schedule",
                        ParamRange::Levels(vec!["none".into(), "weekly".into(), "nightly".into()]),
                    ))
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
            .with_mechanism(
                Mechanism::new("checkpoint")
                    .with_param(Parameter::new(
                        "checkpoint_interval",
                        ParamRange::GeometricDuration {
                            min: Duration::from_hours(1.0),
                            max: Duration::from_hours(2.0),
                            factor: 2.0,
                        },
                    ))
                    .with_effect(
                        EffectKind::LossWindow,
                        EffectValue::Param("checkpoint_interval".into()),
                    ),
            )
            .with_resource(
                ResourceType::new("rX", Duration::ZERO)
                    .with_component(ResourceComponent::new(
                        "machineA",
                        None,
                        Duration::from_secs(30.0),
                    ))
                    .with_component(ResourceComponent::new(
                        "agingapp",
                        Some("machineA".into()),
                        Duration::from_mins(5.0),
                    )),
            )
    }

    #[test]
    fn projection_reads_mtbf_and_mttr_mechanisms_only() {
        let infra = rejuvenation_and_checkpoint_infra();
        let names = |mechs: Vec<&MechanismName>| -> Vec<String> {
            mechs.iter().map(ToString::to_string).collect()
        };
        let relevant = relevant_mechanisms(&infra, &option());
        assert_eq!(
            names(relevant.iter().collect()),
            ["maintenanceA", "rejuvenation", "checkpoint"]
        );
        assert_eq!(
            names(model_mechanisms(&infra, &option())),
            ["maintenanceA", "rejuvenation"]
        );
        // 2 maintenance levels x 3 schedules x 2 checkpoint intervals, of
        // which the tier model tells apart only the first two factors.
        let plan = SettingsPlan::new(&infra, &option(), &[]);
        assert_eq!(plan.combos.len(), 12);
        assert_eq!(plan.projections, 6);
    }

    #[test]
    fn max_instances_bounds_the_enumerated_totals() {
        // Two slots of a machine bounded to 7 instances: at most 3 resources.
        let infra = infra()
            .with_component(
                ComponentType::new("machineA")
                    .with_max_instances(7)
                    .with_failure_mode(FailureMode::new(
                        "soft",
                        Duration::from_days(75.0),
                        Duration::ZERO,
                        Duration::ZERO,
                    )),
            )
            .with_resource(
                ResourceType::new("rX", Duration::ZERO)
                    .with_component(ResourceComponent::new("machineA", None, Duration::ZERO))
                    .with_component(ResourceComponent::new("machineA", None, Duration::ZERO)),
            );
        let count = |n_total| {
            let opts = SearchOptions::default();
            enumerate_tier_candidates(&infra, &"t".into(), &option(), n_total, 1, &opts).len()
        };
        assert!(count(3) > 0);
        assert_eq!(count(4), 0);
    }

    #[test]
    fn unrepresentable_search_deadline_sets_no_deadline() {
        let start = Instant::now();
        let endless = SearchOptions::default().with_search_deadline(std::time::Duration::MAX);
        assert_eq!(endless.eval_budget(start).deadline(), None);
        let hour = std::time::Duration::from_secs(3600);
        let bounded = SearchOptions::default().with_search_deadline(hour);
        assert_eq!(bounded.eval_budget(start).deadline(), Some(start + hour));
    }

    #[test]
    fn effective_jobs_is_one_at_any_request() {
        for requested in [0, 1, 2, 8, usize::MAX] {
            assert_eq!(effective_jobs(requested), 1, "{requested}");
        }
    }
}
