//! Enumeration of resolved tier-design candidates.

use std::sync::Arc;
use std::time::Instant;

use aved_avail::{CancelToken, SolveBudget};
use aved_model::{
    Infrastructure, MechanismName, ParamValue, ResourceOption, SpareMode, TierDesign, TierName,
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
    /// Worker threads for candidate evaluation. `0` means auto-detect from
    /// the machine's available parallelism; the library default is `1`
    /// (serial) so results and engine call orders stay deterministic unless
    /// the caller opts in. The selected design is identical at any value.
    pub jobs: usize,
    /// Cost-dominance pruning: skip evaluating candidates that already cost
    /// strictly more than a known-feasible design. On by default; pruning
    /// never changes the selected design, only the work done (see
    /// `SearchStats::pruned_by_cost`). Disable to force exhaustive
    /// evaluation, e.g. when auditing the pruning itself.
    pub prune: bool,
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

impl PartialEq for SearchOptions {
    /// Structural equality on the enumeration/evaluation knobs; the
    /// journal and replay handles compare by identity (two options are
    /// interchangeable only when they write to and replay from the same
    /// journal objects).
    fn eq(&self, other: &SearchOptions) -> bool {
        fn same_arc<T>(a: &Option<Arc<T>>, b: &Option<Arc<T>>) -> bool {
            match (a, b) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
        }
        self.max_extra_active == other.max_extra_active
            && self.max_spares == other.max_spares
            && self.spare_modes == other.spare_modes
            && self.pins == other.pins
            && self.strict == other.strict
            && self.jobs == other.jobs
            && self.prune == other.prune
            && self.candidate_timeout == other.candidate_timeout
            && self.max_states == other.max_states
            && self.search_deadline == other.search_deadline
            && self.cancel == other.cancel
            && same_arc(&self.journal, &other.journal)
            && same_arc(&self.resume, &other.resume)
    }
}

impl Default for SearchOptions {
    /// Up to 8 extra actives, up to 3 spares, fully-inactive spares (the
    /// restriction the paper's application-tier example makes), nothing
    /// pinned, serial evaluation, pruning on.
    fn default() -> SearchOptions {
        SearchOptions {
            max_extra_active: 8,
            max_spares: 3,
            spare_modes: vec![SpareMode::AllInactive],
            pins: Vec::new(),
            strict: false,
            jobs: 1,
            prune: true,
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

    /// Evaluates candidates on `jobs` worker threads (`0` = auto-detect).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> SearchOptions {
        self.jobs = jobs;
        self
    }

    /// Disables cost-dominance pruning, forcing every candidate to be
    /// evaluated.
    #[must_use]
    pub fn without_pruning(mut self) -> SearchOptions {
        self.prune = false;
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
    /// all folded into one [`SolveBudget`].
    pub(crate) fn eval_budget(&self, start: Instant) -> SolveBudget {
        let mut budget = SolveBudget::unlimited();
        if let Some(d) = self.search_deadline {
            budget = budget.with_deadline(start + d);
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

/// The availability mechanisms relevant to a tier option: those referenced
/// by the resource's components (maintenance contracts, checkpoint loss
/// windows) plus those the service model attaches to the option.
#[must_use]
pub fn relevant_mechanisms(
    infrastructure: &Infrastructure,
    option: &ResourceOption,
) -> Vec<MechanismName> {
    let mut out: Vec<MechanismName> = Vec::new();
    if let Some(resource) = infrastructure.resource(option.resource().as_str()) {
        for slot in resource.components() {
            if let Some(component) = infrastructure.component(slot.component().as_str()) {
                for m in infrastructure.mechanisms_of_component(component) {
                    if !out.contains(m) {
                        out.push(m.clone());
                    }
                }
            }
        }
    }
    for mu in option.mechanisms() {
        if !out.contains(mu.mechanism()) {
            out.push(mu.mechanism().clone());
        }
    }
    out
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
) -> Vec<Vec<(MechanismName, String, ParamValue)>> {
    let mut combos: Vec<Vec<(MechanismName, String, ParamValue)>> = vec![Vec::new()];
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
                    extended.push((
                        mech_name.clone(),
                        param.name().as_str().to_owned(),
                        value.clone(),
                    ));
                    next.push(extended);
                }
            }
            combos = next;
        }
    }
    combos
}

/// Enumerates all resolved tier designs with exactly `n_total` resources
/// for one resource option: every active/spare split (respecting the
/// option's `nActive` constraint and the minimum `min_active`), every spare
/// mode, every mechanism-setting combination.
#[must_use]
pub fn enumerate_tier_candidates(
    infrastructure: &Infrastructure,
    tier: &TierName,
    option: &ResourceOption,
    n_total: u32,
    min_active: u32,
    options: &SearchOptions,
) -> Vec<TierDesign> {
    let mechanisms = relevant_mechanisms(infrastructure, option);
    let settings = enumerate_settings(infrastructure, &mechanisms, &options.pins);
    let mut out = Vec::new();
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
            for combo in &settings {
                let mut td =
                    TierDesign::new(tier.clone(), option.resource().clone(), n_active, n_spare)
                        .with_spare_mode(spare_mode.clone());
                for (mech, param, value) in combo {
                    td = td.with_setting(mech.clone(), param.as_str(), value.clone());
                }
                out.push(td);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aved_model::{
        ComponentType, DurationSpec, EffectValue, FailureMode, FailureScope, Mechanism,
        MechanismUse, NActiveSpec, ParamRange, Parameter, PerfRef, ResourceComponent, ResourceType,
        Sizing,
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
                    .with_mttr_effect(EffectValue::Table {
                        param: "level".into(),
                        values: vec![Duration::from_hours(38.0), Duration::from_hours(8.0)],
                    }),
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
}
