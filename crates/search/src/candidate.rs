//! Enumeration of resolved tier-design candidates, in the order every
//! sweep walks them: group by group, each group's grid of quality-only
//! settings innermost (see [`SettingsPlan`]).

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use aved_avail::{CancelToken, SolveBudget};
use aved_model::{
    EffectKind, Infrastructure, Mechanism, MechanismCost, MechanismName, MechanismUse, ParamName,
    ParamValue, ResourceOption, ResourceType, SettingKey, SpareMode, TierDesign, TierName,
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

/// The mechanisms whose settings a finite job's completion time reads
/// beyond its tier model: those the option declares a checkpoint overhead
/// (mperformance) function for, and those its components delegate their
/// loss window to.
fn job_mechanisms<'a>(
    infrastructure: &'a Infrastructure,
    option: &'a ResourceOption,
) -> Vec<&'a MechanismName> {
    let loss = delegations(infrastructure, option).filter(|d| d.0 == EffectKind::LossWindow);
    let overheads = option
        .mechanisms()
        .iter()
        .filter(|mu| mu.mperformance().is_some());
    distinct(
        loss.map(|d| d.1)
            .chain(overheads.map(MechanismUse::mechanism)),
    )
}

/// Numbers `groups` by the values their settings give the mechanisms
/// `read`, in order of first appearance: each group's number, and the
/// first group of each number.
fn number_by(groups: &[Vec<Setting>], read: &[&MechanismName]) -> (Vec<usize>, Vec<usize>) {
    let (mut numbers, mut seen) = (Vec::new(), Vec::<(Vec<&ParamValue>, usize)>::new());
    for (at, group) in groups.iter().enumerate() {
        let values = group.iter().filter(|(key, _)| read.contains(&&key.0));
        let values: Vec<&ParamValue> = values.map(|(_, v)| v).collect();
        let number = seen.iter().position(|(v, _)| *v == values);
        numbers.push(number.unwrap_or(seen.len()));
        if number.is_none() {
            seen.push((values, at));
        }
    }
    (numbers, seen.into_iter().map(|(_, at)| at).collect())
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

/// One setting: its mechanism and parameter, and its value.
type Setting = (SettingKey, ParamValue);

/// `true` when only a candidate's quality reads `mechanism`'s parameter
/// `param`, for a tier option whose model reads the mechanisms `model`:
/// its mechanism sets no attribute of the tier model
/// (`model_mechanisms`), and it selects no [`MechanismCost::Table`]
/// entry. A finite job's completion time reads a checkpoint's interval
/// and storage location.
fn quality_only(model: &[&MechanismName], mechanism: &Mechanism, param: &ParamName) -> bool {
    let priced =
        matches!(mechanism.cost_spec(), MechanismCost::Table { param: p, .. } if p == param);
    !priced && !model.contains(&mechanism.name())
}

/// Every combination of `params`' values, the last parameter varying
/// fastest.
fn product(params: &[(SettingKey, Vec<ParamValue>)]) -> Vec<Vec<Setting>> {
    let mut combos = vec![Vec::new()];
    for (key, values) in params {
        let extend = |combo: &Vec<Setting>, value: &ParamValue| {
            let mut combo = combo.clone();
            combo.push((key.clone(), value.clone()));
            combo
        };
        let next = combos
            .iter()
            .flat_map(|c| values.iter().map(|v| extend(c, v)));
        combos = next.collect();
    }
    combos
}

/// `td` with `settings` applied.
fn with_settings(mut td: TierDesign, settings: &[Setting]) -> TierDesign {
    for (key, value) in settings {
        td = td.with_keyed_setting(key.clone(), value.clone());
    }
    td
}

/// One option's mechanism settings, enumerated once per sweep: each
/// parameter of the option's relevant mechanisms takes each value of its
/// range, or its pinned value.
///
/// The *grid* is the quality-only (`quality_only`) parameters with more
/// than one value. The candidates of one (split, spare mode) *block* that
/// agree on every other setting form a *group*: they share a tier model
/// and a cost, so a sweep evaluates the group's model once and keeps only
/// its best. A block enumerates group by group, and a group point by
/// point of the grid: the group settings and the grid settings each in
/// declared order, the last varying fastest, the grid innermost. The
/// groups are numbered by the values their settings give the mechanisms
/// a job's completion time reads beyond the tier model, in order of first
/// appearance: groups with one number share their candidates' job
/// points.
pub(crate) struct SettingsPlan {
    /// Each group's shared settings, in enumeration order.
    groups: Vec<Vec<Setting>>,
    /// Each group's number by its job points' settings, and the first
    /// group of each number.
    job: Vec<usize>,
    job_groups: Vec<usize>,
    /// Each grid point's settings, in enumeration order.
    points: Vec<Vec<Setting>>,
    /// The most resources a design may hold under the components'
    /// `max_instances` bounds.
    max_total: u32,
}

impl SettingsPlan {
    /// Enumerates `option`'s settings under `pins` into groups and grid.
    pub(crate) fn new(
        infrastructure: &Infrastructure,
        option: &ResourceOption,
        pins: &[(MechanismName, String, ParamValue)],
    ) -> SettingsPlan {
        let model = model_mechanisms(infrastructure, option);
        // Each parameter with its values, in declared order, on the group
        // side or in the grid.
        let (mut group, mut grid) = (Vec::new(), Vec::new());
        for name in relevant_mechanisms(infrastructure, option) {
            let Some(mech) = infrastructure.mechanism(name.as_str()) else {
                continue;
            };
            for (param, key) in mech.params().iter().zip(mech.setting_keys()) {
                let pin = pins
                    .iter()
                    .find(|(m, p, _)| *m == name && p == param.name().as_str());
                let values = pin.map_or_else(|| param.range().values(), |p| vec![p.2.clone()]);
                let side = if values.len() > 1 && quality_only(&model, mech, param.name()) {
                    &mut grid
                } else {
                    &mut group
                };
                side.push((key.clone(), values));
            }
        }
        let groups = product(&group);
        let (job, job_groups) = number_by(&groups, &job_mechanisms(infrastructure, option));
        SettingsPlan {
            job,
            job_groups,
            points: product(&grid),
            groups,
            max_total: max_total(infrastructure, option),
        }
    }

    /// The number of points in each group's grid.
    pub(crate) fn points(&self) -> usize {
        self.points.len()
    }

    /// The candidate at `point` of the group `representative` holds the
    /// shared settings of; `None` when the grid has no such point.
    pub(crate) fn design(&self, representative: &TierDesign, point: usize) -> Option<TierDesign> {
        let settings = self.points.get(point)?;
        Some(with_settings(representative.clone(), settings))
    }

    /// One candidate of `tier` on `option` per grid point of the first
    /// group of each job number, in that order: the candidates whose job
    /// points every group's candidates share. Those of `group` are at
    /// [`job_points`](Self::job_points)`(group)`.
    pub(crate) fn job_designs<'a>(
        &'a self,
        tier: &TierName,
        option: &ResourceOption,
    ) -> impl Iterator<Item = TierDesign> + 'a {
        let base = TierDesign::new(tier.clone(), option.resource().clone(), 1, 0);
        self.job_groups.iter().flat_map(move |&group| {
            let representative = with_settings(base.clone(), &self.groups[group]);
            let points = self.points.iter();
            points.map(move |point| with_settings(representative.clone(), point))
        })
    }

    /// Where the candidates of `group` sit among the
    /// [`job_designs`](Self::job_designs).
    pub(crate) fn job_points(&self, group: usize) -> Range<usize> {
        let first = self.job[group] * self.points();
        first..first + self.points()
    }

    /// Calls `emit` with one representative of each group of `option`'s
    /// designs with exactly `n_total` resources, and the group's index in
    /// the plan, in enumeration order: every active/spare split
    /// (respecting the option's `nActive` constraint and the minimum
    /// `min_active`), every spare mode, every group. There are none when
    /// `n_total` resources would need more instances of a component than
    /// its `max_instances`.
    pub(crate) fn for_each_group(
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
                let td =
                    TierDesign::new(tier.clone(), option.resource().clone(), n_active, n_spare)
                        .with_spare_mode(spare_mode.clone());
                for (group, settings) in self.groups.iter().enumerate() {
                    emit(with_settings(td.clone(), settings), group);
                }
            }
        }
    }
}

/// Enumerates all resolved tier designs with exactly `n_total` resources
/// for one resource option: every active/spare split (respecting the
/// option's `nActive` constraint and the minimum `min_active`), every spare
/// mode, every mechanism-setting combination, in the order a sweep walks
/// them ([`SettingsPlan`]): each group's candidates together, the
/// quality-only settings that vary innermost. None when `n_total` exceeds
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
    let plan = SettingsPlan::new(infrastructure, option, &options.pins);
    let mut out = Vec::new();
    plan.for_each_group(tier, option, n_total, min_active, options, |td, _| {
        out.extend(
            plan.points
                .iter()
                .map(|point| with_settings(td.clone(), point)),
        );
    });
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

    use crate::test_fixtures::{
        app_tier_fixture, job_fixture, mpi_first_job_fixture, storage_priced_job_fixture,
        tied_job_fixture, Fixture,
    };

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
        let opt = option().with_mechanism(MechanismUse::new("other", None));
        let opts = SearchOptions::default();
        let cands = enumerate_tier_candidates(&infra, &"t".into(), &opt, 1, 1, &opts);
        // 2 levels x 3 modes, the mode (last) varying fastest.
        let combos: Vec<String> = cands
            .iter()
            .map(|td| {
                let value = |m, p| td.setting(m, p).unwrap().to_string();
                format!(
                    "{}/{}",
                    value("maintenanceA", "level"),
                    value("other", "mode")
                )
            })
            .collect();
        let expected = [
            "bronze/x", "bronze/y", "bronze/z", "gold/x", "gold/y", "gold/z",
        ];
        assert_eq!(combos, expected);
    }

    #[test]
    fn unknown_mechanisms_are_skipped() {
        let opt = option().with_mechanism(MechanismUse::new("ghost", None));
        let opts = SearchOptions::default();
        let cands = enumerate_tier_candidates(&infra(), &"t".into(), &opt, 1, 1, &opts);
        assert_eq!(cands.len(), 2, "the two maintenance levels alone");
        assert!(cands.iter().all(|td| td.settings().len() == 1));
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
        assert_eq!((plan.groups.len(), plan.points()), (6, 2));
    }

    #[test]
    fn settings_are_classified_as_model_cost_or_quality_only() {
        // The paper's scientific option: the maintenance level sets the
        // tier model, the checkpoint's settings only the completion time.
        let rh = || {
            let fx = job_fixture();
            let tier = fx.service.tier("computation").unwrap();
            (tier.option_for("rH").unwrap().clone(), fx.infrastructure)
        };
        let (rh, infra) = rh();
        let quality_only = |infra: &Infrastructure, mech: &str, param: &str| {
            let model = model_mechanisms(infra, &rh);
            super::quality_only(&model, infra.mechanism(mech).unwrap(), &param.into())
        };
        assert!(!quality_only(&infra, "maintenanceA", "level"));
        for param in ["checkpoint_interval", "storage_location"] {
            assert!(quality_only(&infra, "checkpoint", param), "{param}");
        }
        let plan = SettingsPlan::new(&infra, &rh, &[]);
        assert_eq!((plan.groups.len(), plan.points()), (4, 300));
        assert_eq!(plan.job_groups, [0], "every group shares its job points");

        // A storage-keyed cost table makes the location a cost setting:
        // it moves from the grid into the groups.
        let infra = storage_priced_job_fixture().infrastructure;
        assert!(!quality_only(&infra, "checkpoint", "storage_location"));
        assert!(quality_only(&infra, "checkpoint", "checkpoint_interval"));
        let plan = SettingsPlan::new(&infra, &rh, &[]);
        assert_eq!((plan.groups.len(), plan.points()), (8, 150));
        assert_eq!(
            plan.job_groups,
            [0, 1],
            "the locations do not share job points"
        );
    }

    /// Every design of `option` with `n_total` resources, by a plain
    /// odometer: the splits, the spare modes, then each relevant
    /// parameter's values in declared order, the last varying fastest —
    /// but with `grid_last`, the quality-only parameters with more than one
    /// value behind all others.
    fn odometer(
        infra: &Infrastructure,
        option: &ResourceOption,
        n_total: u32,
        options: &SearchOptions,
        grid_last: bool,
    ) -> Vec<TierDesign> {
        let model = model_mechanisms(infra, option);
        let mut params = Vec::new();
        for name in relevant_mechanisms(infra, option) {
            let Some(mech) = infra.mechanism(name.as_str()) else {
                continue;
            };
            for param in mech.params() {
                let pin = (options.pins.iter())
                    .find(|(m, p, _)| *m == name && p == param.name().as_str());
                let values = pin.map_or_else(|| param.range().values(), |p| vec![p.2.clone()]);
                let grid = values.len() > 1 && quality_only(&model, mech, param.name());
                params.push((
                    grid_last && grid,
                    name.clone(),
                    param.name().clone(),
                    values,
                ));
            }
        }
        params.sort_by_key(|p| p.0);
        let mut out = Vec::new();
        for n_spare in 0..=options.max_spares.min(n_total - 1) {
            let n_active = n_total - n_spare;
            if !option.n_active().contains(n_active) {
                continue;
            }
            let modes = match n_spare {
                0 => &options.spare_modes[..1],
                _ => &options.spare_modes[..],
            };
            for mode in modes {
                let td = TierDesign::new("t", option.resource().clone(), n_active, n_spare);
                let mut designs = vec![td.with_spare_mode(mode.clone())];
                for (_, mech, param, values) in &params {
                    let set = |td: &TierDesign, v: &ParamValue| {
                        td.clone()
                            .with_setting(mech.clone(), param.clone(), v.clone())
                    };
                    designs = (designs.iter())
                        .flat_map(|td| values.iter().map(|v| set(td, v)))
                        .collect();
                }
                out.extend(designs);
            }
        }
        out
    }

    #[test]
    fn enumeration_is_the_odometer_with_the_grid_innermost() {
        let pinned = SearchOptions::default()
            .with_pin("maintenanceA", "level", ParamValue::Level("gold".into()))
            .with_pin("maintenanceB", "level", ParamValue::Level("gold".into()));
        let hot = SearchOptions {
            max_spares: 2,
            ..SearchOptions::default()
        }
        .with_hot_spares();
        let option_sets = [SearchOptions::default(), pinned, hot];
        let options_of = |fx: Fixture| {
            let tiers = fx.service.tiers().iter();
            let options: Vec<ResourceOption> = tiers.flat_map(|t| t.options().to_vec()).collect();
            (fx.infrastructure, options)
        };
        // (infrastructure, options, whether the options are the paper's)
        let cases = [
            (options_of(job_fixture()), true),
            (options_of(app_tier_fixture()), true),
            ((rejuvenation_and_checkpoint_infra(), vec![option()]), false),
            (options_of(tied_job_fixture()), false),
            (options_of(mpi_first_job_fixture()), false),
        ];
        let mut reordered = 0;
        for ((infra, tier_options), paper) in cases {
            for option in &tier_options {
                for options in &option_sets {
                    for n_total in 1..=3 {
                        let got = enumerate_tier_candidates(
                            &infra,
                            &"t".into(),
                            option,
                            n_total,
                            1,
                            options,
                        );
                        let label = format!("{} at {n_total}", option.resource());
                        assert!(!got.is_empty(), "{label}");
                        assert_eq!(
                            got,
                            odometer(&infra, option, n_total, options, true),
                            "{label}"
                        );
                        // On the paper's options the declared order has the
                        // grid innermost already.
                        let plain = odometer(&infra, option, n_total, options, false);
                        if paper {
                            assert_eq!(got, plain, "{label}");
                        }
                        reordered += usize::from(got != plain);
                    }
                }
            }
        }
        assert!(reordered > 0, "the mpi-first rH declares its grid first");
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
