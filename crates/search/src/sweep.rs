//! The one candidate sweep behind every search and frontier (paper §4.1).
//!
//! A [`Sweep`] evaluates batches of one tier's candidates. Candidates that
//! differ only in settings the tier model does not read — a checkpoint's
//! interval and storage location (§4.2) — share one *availability design*:
//! the active/spare split, the spare mode and the settings of the
//! mechanisms the model reads, and so one tier model. [`Sweep::run`]
//! derives and evaluates each design's model once and scores every
//! candidate from that one result. With more than one worker
//! ([`SearchOptions::jobs`]) the designs are evaluated first, on scoped
//! threads in contiguous shards of enumeration order — parameter-locality
//! order, where neighbors differ in one knob — so each worker's
//! [`EvalSession`] reuses chain structure from one model to the next. The
//! fold then walks the candidates **in enumeration order**, where every
//! decision is made, so results are identical at any worker count (see
//! [`crate::parallel`](crate::parallel_map_with) for the argument). The
//! searches run one batch per resource-count level; the frontiers run one
//! batch over every option and level. [`Objective`] supplies everything
//! that differs between enterprise and finite-job sweeps.

use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use aved_avail::{EvalSession, SolveBudget};
use aved_model::{tier_design_cost, ResourceOption, Tier, TierDesign};
use aved_units::{Duration, Money};

use crate::candidate::SettingsPlan;
use crate::evaluate::{
    assess_enterprise_design, assess_job_design, score_enterprise_design, score_job_design,
    Assessment,
};
use crate::journal::{enterprise_key, job_key};
use crate::parallel::{effective_jobs, parallel_map_with};
use crate::{EvalContext, EvaluatedDesign, ReplayEntry, SearchError, SearchHealth, SearchOptions};

/// What a sweep optimizes.
pub(crate) enum Objective {
    /// Annual downtime at a fixed throughput requirement (Figs. 6 and 8).
    Enterprise { load: f64, max_downtime: Duration },
    /// Expected completion time of the service's job (Fig. 7).
    Job { max_time: Duration },
}

impl Objective {
    /// The objective of an enterprise frontier, which ranks every candidate
    /// and so has no downtime requirement.
    pub(crate) fn downtime_at(load: f64) -> Objective {
        Objective::Enterprise {
            load,
            max_downtime: Duration::from_secs(f64::INFINITY),
        }
    }

    /// The smallest active count of `option` that meets the requirement
    /// without failures, and the resource totals a search grows through
    /// from there; `None` when the option can never meet it.
    pub(crate) fn levels(
        &self,
        ctx: &EvalContext<'_>,
        option: &ResourceOption,
        options: &SearchOptions,
    ) -> Result<Option<(u32, RangeInclusive<u32>)>, SearchError> {
        let perf = ctx.catalog().resolve_perf(option.performance())?;
        let demand = match *self {
            Objective::Enterprise { load, .. } => load,
            // Finishing a job of size S within T needs throughput >= S / T.
            Objective::Job { max_time } => {
                let size =
                    ctx.service()
                        .job_size()
                        .ok_or_else(|| SearchError::RequirementMismatch {
                            detail: "service declares no jobsize".into(),
                        })?;
                size / max_time.hours()
            }
        };
        let Some(start) = perf
            .min_active_for(demand)
            .and_then(|min| option.n_active().next_at_or_above(min.max(1)))
        else {
            return Ok(None);
        };
        let last = match self {
            Objective::Enterprise { .. } => start + options.max_extra_active + options.max_spares,
            // Checkpoint overhead and re-execution inflate a job's time, and
            // only more (or faster) nodes claw it back, so growth is bounded
            // only by the option's nActive ceiling plus spares; the cost and
            // degradation rules end the scan long before that in practice.
            Objective::Job { .. } => option
                .n_active()
                .max_value()
                .unwrap_or(start)
                .saturating_add(options.max_spares),
        };
        Ok(Some((start, start..=last)))
    }

    /// The model half of a candidate's evaluation, shared by every
    /// candidate of its availability design; `td` is any one of them.
    fn assess(
        &self,
        ctx: &EvalContext<'_>,
        option: &ResourceOption,
        td: &TierDesign,
        session: &mut EvalSession,
    ) -> Result<Option<Assessment>, SearchError> {
        match *self {
            Objective::Enterprise { load, .. } => {
                assess_enterprise_design(ctx, option, td, load, session)
            }
            Objective::Job { .. } => assess_job_design(ctx, option, td, session),
        }
    }

    /// The scoring half: candidate `td` of an availability design, scored
    /// from that design's `assessment`.
    fn score(
        &self,
        ctx: &EvalContext<'_>,
        option: &ResourceOption,
        td: &TierDesign,
        cost: Option<Money>,
        assessment: &Assessment,
    ) -> Result<Option<EvaluatedDesign>, SearchError> {
        match self {
            Objective::Enterprise { .. } => score_enterprise_design(ctx, td, cost, assessment),
            Objective::Job { .. } => score_job_design(ctx, option, td, cost, assessment),
        }
    }

    /// The quality metric, smaller is better. Job evaluations always carry
    /// a completion time; should one ever not, the search rejects it and
    /// the frontier ranks it last.
    pub(crate) fn quality(&self, e: &EvaluatedDesign) -> Option<Duration> {
        match self {
            Objective::Enterprise { .. } => Some(e.annual_downtime()),
            Objective::Job { .. } => e.expected_job_time(),
        }
    }

    /// `true` when quality `q` meets the requirement.
    pub(crate) fn meets(&self, q: Duration) -> bool {
        match *self {
            Objective::Enterprise { max_downtime, .. } => q <= max_downtime,
            Objective::Job { max_time, .. } => q <= max_time,
        }
    }

    /// `true` when a level's best quality `here` is no progress over the
    /// previous level's `prev`. Near a performance asymptote a job's time
    /// improves by vanishing amounts per added node while cost keeps
    /// climbing, so steps under 0.1% count as no progress too.
    pub(crate) fn stalled(&self, prev: Duration, here: Duration) -> bool {
        match self {
            Objective::Enterprise { .. } => here >= prev,
            Objective::Job { .. } => here >= prev * 0.999,
        }
    }

    fn journal_key(&self, tier: &str, td: &TierDesign) -> String {
        match *self {
            Objective::Enterprise { load, .. } => enterprise_key(tier, load, td),
            Objective::Job { .. } => job_key(tier, td),
        }
    }
}

/// One candidate of a batch. Searches cost their candidates when they
/// enumerate them, because they terminate and prune on cost; frontiers
/// never prune, so theirs are costed only when scored.
struct Candidate {
    design: TierDesign,
    /// The batch index of the candidate's availability design.
    availability: usize,
    cost: Option<Money>,
}

/// Candidates of one or more levels and the availability designs they
/// share, each design listed once, in order of first appearance.
#[derive(Default)]
pub(crate) struct Batch<'t> {
    /// Each availability design's option and the index of its first
    /// candidate, whose design stands in for all of them in the tier model.
    designs: Vec<(&'t ResourceOption, usize)>,
    candidates: Vec<Candidate>,
}

impl Batch<'_> {
    /// The number of candidates.
    pub(crate) fn len(&self) -> usize {
        self.candidates.len()
    }

    /// `true` when the batch holds no candidate.
    pub(crate) fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The cost of the cheapest costed candidate.
    pub(crate) fn cheapest(&self) -> Option<Money> {
        self.candidates
            .iter()
            .filter_map(|c| c.cost)
            .min_by(Money::total_cmp)
    }
}

/// `true` when a known-feasible design of cost `bound` prunes a candidate
/// of cost `cost`: only a strictly cheaper one does, since an equal-cost
/// candidate still competes on quality. Uncosted candidates are never
/// pruned.
fn beaten(bound: Option<Money>, cost: Option<Money>) -> bool {
    bound.zip(cost).is_some_and(|(bound, cost)| bound < cost)
}

/// `true` when `e` must end the sweep: a structural error (unknown tier,
/// unresolvable reference, inconsistent model) would fail every
/// candidate, so skipping it is just slower failure; strict mode ends the
/// sweep on any failure. Candidate-scoped failures (engine errors,
/// non-finite metrics) are otherwise skipped and recorded. A cancellation
/// is never fatal: it resolves into a clean best-so-far stop.
fn fatal(e: &SearchError, strict: bool) -> bool {
    !e.is_cancellation() && (strict || !e.is_candidate_scoped())
}

/// `true` when an availability design's evaluation derived its tier model
/// and ran the engine, or failed trying; `false` when the design cannot
/// serve the requirement at all.
fn evaluated(assessment: &Result<Option<Assessment>, SearchError>) -> bool {
    !matches!(assessment, Ok(None))
}

/// `true` once the sweep must stop at the next availability-design
/// boundary: the cancellation token fired or the deadline passed.
/// Monotone, so one post-batch check turns worker-observed stops into a
/// clean best-so-far result.
fn stopping(budget: &SolveBudget) -> bool {
    budget.is_cancelled() || budget.deadline_exceeded()
}

/// The state of one search or frontier sweep.
pub(crate) struct Sweep<'s, 'c> {
    ctx: &'s EvalContext<'c>,
    pub(crate) tier: &'c Tier,
    objective: &'s Objective,
    options: &'s SearchOptions,
    /// The settings combinations of each of the tier's options, enumerated
    /// once for the whole sweep.
    plans: Vec<SettingsPlan>,
    /// The whole sweep's budget: the absolute deadline, the per-candidate
    /// limits and the cancellation token.
    budget: SolveBudget,
    /// One evaluation session per worker, reused across every batch: chain
    /// shapes recur between levels (same n/m/s splits with different
    /// rates), so the sessions keep paying off sweep-wide.
    sessions: Vec<EvalSession>,
    /// The cheapest feasible cost the sweep has folded, across batches:
    /// no costed candidate dearer than it can win a minimum-cost search.
    cheapest_feasible: Option<Money>,
    pub(crate) health: SearchHealth,
}

impl<'s, 'c> Sweep<'s, 'c> {
    /// Starts a sweep of the tier named `tier_name`. Its deadline counts
    /// from `search_start`, the start of the outermost search, so a
    /// multi-tier search shares one deadline across its tiers.
    pub(crate) fn new(
        ctx: &'s EvalContext<'c>,
        tier_name: &str,
        objective: &'s Objective,
        options: &'s SearchOptions,
        search_start: Instant,
    ) -> Result<Self, SearchError> {
        let enumerating = Instant::now();
        let jobs = effective_jobs(options.jobs);
        let budget = options.eval_budget(search_start);
        let tier = ctx.tier(tier_name)?;
        let plans = tier
            .options()
            .iter()
            .map(|option| SettingsPlan::new(ctx.infrastructure(), option, &options.pins))
            .collect();
        Ok(Sweep {
            ctx,
            tier,
            objective,
            options,
            plans,
            sessions: (0..jobs.max(1))
                .map(|_| EvalSession::new().with_budget(budget.clone()))
                .collect(),
            budget,
            cheapest_feasible: None,
            health: SearchHealth {
                jobs,
                enumeration_time: enumerating.elapsed(),
                ..SearchHealth::default()
            },
        })
    }

    /// Appends to `batch` the candidates of the tier's `option`-th option
    /// with `n_total` resources, at least `min_active` of them active, in
    /// enumeration order, and their availability designs; costed when
    /// `costed` is set.
    pub(crate) fn level(
        &mut self,
        batch: &mut Batch<'c>,
        option: usize,
        n_total: u32,
        min_active: u32,
        costed: bool,
    ) -> Result<(), SearchError> {
        let enumerating = Instant::now();
        let resource_option = &self.tier.options()[option];
        let (first_design, first_candidate) = (batch.designs.len(), batch.candidates.len());
        let Batch {
            designs,
            candidates,
        } = batch;
        self.plans[option].for_each_candidate(
            self.tier.name(),
            resource_option,
            n_total,
            min_active,
            self.options,
            |design, availability| {
                let availability = first_design + availability;
                if availability == designs.len() {
                    designs.push((resource_option, candidates.len()));
                }
                candidates.push(Candidate {
                    design,
                    availability,
                    cost: None,
                });
            },
        );
        if costed {
            for c in &mut batch.candidates[first_candidate..] {
                c.cost = Some(tier_design_cost(self.ctx.infrastructure(), &c.design)?.total());
            }
        }
        self.health.enumeration_time += enumerating.elapsed();
        Ok(())
    }

    /// Runs one batch and hands every surviving evaluation, in candidate
    /// order, to `accept`. A sweep that is stopping — the cancellation
    /// token fired or the deadline passed — is marked interrupted at the
    /// end of the batch; the caller then returns its best-so-far result.
    ///
    /// Each availability design is derived and evaluated once, however
    /// many candidates share it, and the fold scores every candidate from
    /// that one result. The fold walks the candidates in enumeration order
    /// and makes every decision there — prune, replay or score, journal,
    /// accept — so results are identical at any worker count. A candidate
    /// is scored when it is neither pruned nor replayed from the resume
    /// journal; a design whose evaluation failed gives that error to each
    /// of its candidates.
    ///
    /// With more than one worker, the workers first evaluate, in parallel,
    /// every design that has a candidate to score as of the batch's start;
    /// a fatal failure stops them. The fold evaluates any design still
    /// missing when it reaches the design's first candidate to score — on
    /// one worker, every design — so a design whose candidates the fold
    /// prunes before it gets there is never evaluated.
    ///
    /// Costed candidates — a search's — are pruned by cost dominance when
    /// [`SearchOptions::prune`] is set: a candidate that costs strictly
    /// more than a feasible design the sweep has folded, in this batch or
    /// an earlier one, cannot win and is skipped.
    pub(crate) fn run(
        &mut self,
        batch: Batch<'_>,
        mut accept: impl FnMut(EvaluatedDesign) -> Result<(), SearchError>,
    ) -> Result<(), SearchError> {
        let solving = Instant::now();
        let (ctx, objective, options, budget) =
            (self.ctx, self.objective, self.options, &self.budget);
        let tier = self.tier.name().as_str();
        let mut cheapest_feasible = self.cheapest_feasible;
        let pruned = |bound, c: &Candidate| options.prune && beaten(bound, c.cost);
        let keys: Vec<String> = if options.journal.is_some() || options.resume.is_some() {
            let key = |c: &Candidate| objective.journal_key(tier, &c.design);
            batch.candidates.iter().map(key).collect()
        } else {
            Vec::new()
        };
        let replays: Vec<Option<&ReplayEntry>> = match &options.resume {
            Some(replay) => keys.iter().map(|key| replay.lookup(key)).collect(),
            None => Vec::new(),
        };

        // Each design's evaluation, once made: `Ok(None)` when the design
        // cannot serve the requirement at all.
        let mut assessments: Vec<Option<Result<Option<Assessment>, SearchError>>> =
            std::iter::repeat_with(|| None)
                .take(batch.designs.len())
                .collect();
        if self.health.jobs > 1 {
            let mut needed = vec![false; batch.designs.len()];
            for (i, c) in batch.candidates.iter().enumerate() {
                let replayed = replays.get(i).is_some_and(Option::is_some);
                needed[c.availability] |= !replayed && !pruned(cheapest_feasible, c);
            }
            let work: Vec<usize> = (0..needed.len()).filter(|&d| needed[d]).collect();
            let abort = AtomicBool::new(false);
            let assessed = parallel_map_with(
                self.health.jobs,
                &mut self.sessions,
                &work,
                |session, _, &d| {
                    if abort.load(Ordering::Relaxed) || stopping(budget) {
                        return None;
                    }
                    let (option, first) = batch.designs[d];
                    let td = &batch.candidates[first].design;
                    let result = objective.assess(ctx, option, td, session);
                    if matches!(&result, Err(e) if fatal(e, options.strict)) {
                        abort.store(true, Ordering::Relaxed);
                    }
                    Some(result)
                },
            );
            for (d, result) in work.into_iter().zip(assessed) {
                self.health.models_evaluated += u64::from(result.as_ref().is_some_and(evaluated));
                assessments[d] = result;
            }
        }
        self.health.solve_time += solving.elapsed();

        let merging = Instant::now();
        let mut evaluating = std::time::Duration::ZERO;
        for (i, c) in batch.candidates.iter().enumerate() {
            if pruned(cheapest_feasible, c) {
                self.health.candidates_pruned += 1;
                continue;
            }
            let replay = replays.get(i).copied().flatten();
            let result = if let Some(entry) = replay {
                entry.clone().into_result(&c.design)
            } else {
                let assessment = &mut assessments[c.availability];
                if assessment.is_none() {
                    // Not evaluated by the workers: evaluate it here, unless
                    // the sweep is stopping (the post-batch check records
                    // the interruption).
                    if stopping(budget) {
                        continue;
                    }
                    let started = Instant::now();
                    let option = batch.designs[c.availability].0;
                    let result = objective.assess(ctx, option, &c.design, &mut self.sessions[0]);
                    self.health.models_evaluated += u64::from(evaluated(&result));
                    *assessment = Some(result);
                    evaluating += started.elapsed();
                }
                self.health.candidates_scored += 1;
                match assessment.as_ref().expect("evaluated above") {
                    Ok(Some(a)) => {
                        let option = batch.designs[c.availability].0;
                        objective.score(ctx, option, &c.design, c.cost, a)
                    }
                    Ok(None) => Ok(None),
                    Err(e) => Err(e.clone()),
                }
            };
            // A cancellation is not a candidate outcome: the caller's
            // post-batch check turns it into a clean interruption, and it
            // is never journaled (re-evaluate it on resume).
            if matches!(&result, Err(e) if e.is_cancellation()) {
                continue;
            }
            if let Ok(Some(e)) = &result {
                let feasible = objective.quality(e).is_some_and(|q| objective.meets(q));
                if feasible && cheapest_feasible.is_none_or(|b| e.cost() < b) {
                    cheapest_feasible = Some(e.cost());
                }
            }
            self.health.journal_replayed += u64::from(replay.is_some());
            if matches!(&result, Err(e) if e.is_budget_exhaustion()) {
                self.health.budget_exhausted += 1;
            }
            if let Some(journal) = &options.journal {
                journal.record(&keys[i], &result);
            }
            match result {
                Ok(Some(e)) => {
                    self.health.absorb_eval(e.eval_health());
                    accept(e)?;
                }
                Ok(None) => {}
                Err(e) if fatal(&e, options.strict) => return Err(e),
                Err(e) => self.health.record_skip(&c.design, &e),
            }
        }
        self.health.solve_time += evaluating;
        self.health.merge_time += merging.elapsed().saturating_sub(evaluating);
        self.cheapest_feasible = cheapest_feasible;
        self.health.interrupted |= stopping(&self.budget);
        Ok(())
    }

    /// Ends the sweep, folding in the worker sessions' statistics.
    pub(crate) fn finish(mut self, started: Instant) -> SearchHealth {
        for session in &self.sessions {
            self.health.absorb_session(session.stats());
        }
        self.health.wall_time = started.elapsed();
        self.health
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_strictly_cheaper_feasible_cost_prunes() {
        let m = |dollars| Some(Money::from_dollars(dollars));
        assert!(
            !beaten(None, m(1e12)),
            "nothing feasible known prunes nothing"
        );
        assert!(beaten(m(100.0), m(100.01)));
        assert!(!beaten(m(100.0), m(100.0)), "equal cost still competes");
        assert!(!beaten(m(100.0), m(99.9)));
        assert!(
            !beaten(m(100.0), None),
            "uncosted candidates are never pruned"
        );
    }
}
