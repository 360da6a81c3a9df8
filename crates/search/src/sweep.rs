//! The one candidate sweep behind every search and frontier (paper §4.1).
//!
//! A [`Sweep`] evaluates batches of one tier's candidates. Candidates that
//! differ only in settings the tier model does not read — a checkpoint's
//! interval and storage location (§4.2) — share one *availability design*:
//! the active/spare split, the spare mode and the settings of the
//! mechanisms the model reads, and so one tier model. [`Sweep::run`]
//! derives and evaluates each design's model once and scores every
//! candidate from that one result. It walks the candidates **in
//! enumeration order** — parameter-locality order, where neighbors differ
//! in one knob — on the calling thread, so the sweep's one
//! [`EvalSession`] reuses chain structure from one model to the next, and
//! evaluates a design only when it reaches the design's first candidate
//! that is neither pruned nor replayed. The searches run one batch per
//! resource-count level; the frontiers run one batch over every option
//! and level. A service query enumerates each tier's batch once and runs
//! it several times — level ranges for a search, then the whole batch
//! under a cost cap — and the batch keeps what each run evaluated, so no
//! candidate is evaluated twice.
//! [`Objective`] supplies everything that differs between enterprise and
//! finite-job sweeps.

use std::ops::{Range, RangeInclusive};
use std::time::Instant;

use aved_avail::{EvalSession, SolveBudget};
use aved_model::{ResourceOption, Tier, TierDesign};
use aved_units::{Duration, Money};

use crate::candidate::SettingsPlan;
use crate::evaluate::{
    assess_enterprise_design, assess_job_design, design_cost, score_enterprise_design,
    score_job_design, Assessment,
};
use crate::journal::{enterprise_key, job_key};
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
        cost: Money,
        assessment: &Assessment,
    ) -> Result<Option<EvaluatedDesign>, SearchError> {
        match self {
            Objective::Enterprise { .. } => score_enterprise_design(td, cost, assessment),
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

/// One candidate of a batch, costed when enumerated: searches terminate
/// and every run prunes on cost.
struct Candidate {
    design: TierDesign,
    /// The batch index of the candidate's availability design.
    availability: usize,
    cost: Money,
    state: Fold,
}

/// Where a candidate stands in its batch's runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fold {
    /// Not yet run, or run while the sweep was stopping.
    Pending,
    /// Pruned by cost, and never folded since.
    Pruned,
    /// Folded: scored, replayed or failed, and journaled if journaling.
    Folded,
}

/// Candidates of one or more levels and the availability designs they
/// share, each design listed once, in order of first appearance. A batch
/// keeps each design's evaluation and each candidate's [`Fold`] across
/// [`Sweep::run`]s, so running a candidate again re-delivers its result
/// without evaluating, journaling or counting it again.
#[derive(Default)]
pub(crate) struct Batch<'t> {
    /// Each availability design's option. The first of the design's
    /// candidates to be scored stands in for all of them in the tier model.
    designs: Vec<&'t ResourceOption>,
    /// Each design's evaluation, once made: `Ok(None)` when the design
    /// cannot serve the requirement at all.
    assessments: Vec<Option<Result<Option<Assessment>, SearchError>>>,
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

    /// Empties the batch, keeping its allocations.
    pub(crate) fn clear(&mut self) {
        self.designs.clear();
        self.assessments.clear();
        self.candidates.clear();
    }

    /// The cost of the cheapest candidate in `range`, if any.
    pub(crate) fn cheapest(&self, range: Range<usize>) -> Option<Money> {
        self.candidates[range]
            .iter()
            .map(|c| c.cost)
            .min_by(Money::total_cmp)
    }

    /// The number of candidates no run has folded or pruned yet.
    pub(crate) fn pending(&self) -> u64 {
        let pending = self.candidates.iter().filter(|c| c.state == Fold::Pending);
        pending.count() as u64
    }
}

/// `true` when cost bound `bound` prunes a candidate of cost `cost`: only
/// a strictly dearer candidate is pruned, since an equal-cost one still
/// competes on quality. No bound prunes nothing.
fn beaten(bound: Option<Money>, cost: Money) -> bool {
    bound.is_some_and(|bound| bound < cost)
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
/// Monotone, so one post-run check turns a stop the fold observed into a
/// clean best-so-far result.
fn stopping(budget: &SolveBudget) -> bool {
    budget.is_cancelled() || budget.deadline_exceeded()
}

/// The state of one search or frontier sweep.
pub(crate) struct Sweep<'s, 'c> {
    ctx: &'s EvalContext<'c>,
    pub(crate) tier: &'c Tier,
    options: &'s SearchOptions,
    /// The settings combinations of each of the tier's options, enumerated
    /// once for the whole sweep.
    plans: Vec<SettingsPlan>,
    /// The whole sweep's budget: the absolute deadline, the per-candidate
    /// limits and the cancellation token.
    budget: SolveBudget,
    /// The evaluation session, reused across every batch: chain shapes
    /// recur between levels (same n/m/s splits with different rates), so
    /// the session keeps paying off sweep-wide.
    session: EvalSession,
    pub(crate) health: SearchHealth,
}

impl<'s, 'c> Sweep<'s, 'c> {
    /// Starts a sweep of the tier named `tier_name`. Its deadline counts
    /// from `search_start`, the start of the outermost search, so a
    /// multi-tier search shares one deadline across its tiers.
    pub(crate) fn new(
        ctx: &'s EvalContext<'c>,
        tier_name: &str,
        options: &'s SearchOptions,
        search_start: Instant,
    ) -> Result<Self, SearchError> {
        let enumerating = Instant::now();
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
            options,
            plans,
            session: EvalSession::new().with_budget(budget.clone()),
            budget,
            health: SearchHealth {
                jobs: 1,
                enumeration_time: enumerating.elapsed(),
                ..SearchHealth::default()
            },
        })
    }

    /// The sweep's evaluation context.
    pub(crate) fn ctx(&self) -> &'s EvalContext<'c> {
        self.ctx
    }

    /// The sweep's options.
    pub(crate) fn options(&self) -> &'s SearchOptions {
        self.options
    }

    /// Appends to `batch` the candidates of the tier's `option`-th option
    /// with `n_total` resources, at least `min_active` of them active, in
    /// enumeration order, costed, and their availability designs. Returns
    /// the range of the appended candidates.
    pub(crate) fn level(
        &mut self,
        batch: &mut Batch<'c>,
        option: usize,
        n_total: u32,
        min_active: u32,
    ) -> Result<Range<usize>, SearchError> {
        let enumerating = Instant::now();
        let resource_option = &self.tier.options()[option];
        let (first_design, first_candidate) = (batch.designs.len(), batch.candidates.len());
        let Batch {
            designs,
            candidates,
            ..
        } = batch;
        let ctx = self.ctx;
        let mut failed = None;
        self.plans[option].for_each_candidate(
            self.tier.name(),
            resource_option,
            n_total,
            min_active,
            self.options,
            |design, availability| {
                let cost = match design_cost(ctx, &design) {
                    Ok(cost) => cost,
                    Err(e) => {
                        failed.get_or_insert(e);
                        return;
                    }
                };
                let availability = first_design + availability;
                if availability == designs.len() {
                    designs.push(resource_option);
                }
                candidates.push(Candidate {
                    design,
                    availability,
                    cost,
                    state: Fold::Pending,
                });
            },
        );
        if let Some(e) = failed {
            return Err(e);
        }
        batch.assessments.resize_with(batch.designs.len(), || None);
        self.health.enumeration_time += enumerating.elapsed();
        Ok(first_candidate..batch.candidates.len())
    }

    /// Runs the candidates of `batch` in `range` under `objective` and cost
    /// bound `bound`, and hands every surviving evaluation, in candidate
    /// order, to `accept`. Every run of one batch uses objectives of one
    /// kind and load, which evaluate a design alike, since the batch keeps
    /// each design's evaluation for the next run. A sweep that is stopping
    /// — the cancellation token fired or the deadline passed — is marked
    /// interrupted at the end of the run; the caller then returns its
    /// best-so-far result.
    ///
    /// The fold walks the candidates in enumeration order and makes every
    /// decision there — prune, replay or score, journal, accept. A
    /// candidate is scored when it is neither pruned nor replayed from the
    /// resume journal. Each availability design is derived and evaluated
    /// once, when the fold reaches its first candidate to score, and every
    /// candidate of the design is scored from that one result, so a design
    /// whose candidates are all pruned is never evaluated. A design whose
    /// evaluation failed gives that error to each of its candidates. A
    /// candidate an earlier run of the batch folded is handed to `accept`
    /// again, unless pruned, but not evaluated, journaled or counted again.
    ///
    /// Every candidate that costs strictly more than the bound is pruned:
    /// skipped, and counted as pruned until a later run folds it. No bound
    /// prunes nothing. `accept` returns the new bound when it takes a
    /// design that no dearer candidate can beat, and the bound drops to it
    /// for the rest of the run; the caller owns the bound between runs.
    pub(crate) fn run(
        &mut self,
        objective: &Objective,
        batch: &mut Batch<'_>,
        range: Range<usize>,
        mut bound: Option<Money>,
        mut accept: impl FnMut(EvaluatedDesign) -> Result<Option<Money>, SearchError>,
    ) -> Result<(), SearchError> {
        let merging = Instant::now();
        let (ctx, options, budget) = (self.ctx, self.options, &self.budget);
        let tier = self.tier.name().as_str();
        let first = range.start;
        let keys: Vec<String> = if options.journal.is_some() || options.resume.is_some() {
            let key = |c: &Candidate| objective.journal_key(tier, &c.design);
            batch.candidates[range.clone()].iter().map(key).collect()
        } else {
            Vec::new()
        };
        let replays: Vec<Option<&ReplayEntry>> = match &options.resume {
            Some(replay) => keys.iter().map(|key| replay.lookup(key)).collect(),
            None => Vec::new(),
        };
        let Batch {
            designs,
            assessments,
            candidates,
        } = batch;

        let mut evaluating = std::time::Duration::ZERO;
        for i in range {
            let c = &mut candidates[i];
            if beaten(bound, c.cost) {
                if c.state == Fold::Pending {
                    c.state = Fold::Pruned;
                    self.health.candidates_pruned += 1;
                }
                continue;
            }
            let fresh = c.state != Fold::Folded;
            let replay = replays.get(i - first).copied().flatten();
            let result = if let Some(entry) = replay {
                entry.clone().into_result(&c.design)
            } else {
                let assessment = &mut assessments[c.availability];
                if assessment.is_none() {
                    // First candidate of its design to score: evaluate the
                    // design, unless the sweep is stopping (the post-run
                    // check records the interruption).
                    if stopping(budget) {
                        continue;
                    }
                    let started = Instant::now();
                    let option = designs[c.availability];
                    let result = objective.assess(ctx, option, &c.design, &mut self.session);
                    self.health.models_evaluated += u64::from(evaluated(&result));
                    *assessment = Some(result);
                    evaluating += started.elapsed();
                }
                self.health.candidates_scored += u64::from(fresh);
                match assessment.as_ref().expect("evaluated above") {
                    Ok(Some(a)) => {
                        let option = designs[c.availability];
                        objective.score(ctx, option, &c.design, c.cost, a)
                    }
                    Ok(None) => Ok(None),
                    Err(e) => Err(e.clone()),
                }
            };
            // A cancellation is not a candidate outcome: the caller's
            // post-run check turns it into a clean interruption, and it is
            // never journaled (re-evaluate it on resume).
            if matches!(&result, Err(e) if e.is_cancellation()) {
                continue;
            }
            if fresh {
                if c.state == Fold::Pruned {
                    self.health.candidates_pruned -= 1;
                }
                c.state = Fold::Folded;
                self.health.journal_replayed += u64::from(replay.is_some());
                if matches!(&result, Err(e) if e.is_budget_exhaustion()) {
                    self.health.budget_exhausted += 1;
                }
                if let Some(journal) = &options.journal {
                    journal.record(&keys[i - first], &result);
                }
            }
            match result {
                Ok(Some(e)) => {
                    if fresh {
                        self.health.absorb_eval(e.eval_health());
                    }
                    if let Some(lowered) = accept(e)? {
                        bound = Some(lowered);
                    }
                }
                Ok(None) => {}
                Err(e) if fatal(&e, options.strict) => return Err(e),
                Err(e) if fresh => self.health.record_skip(&c.design, &e),
                Err(_) => {}
            }
        }
        self.health.solve_time += evaluating;
        self.health.merge_time += merging.elapsed().saturating_sub(evaluating);
        self.health.interrupted |= stopping(&self.budget);
        Ok(())
    }

    /// Ends the sweep, folding in its session's statistics.
    pub(crate) fn finish(mut self, started: Instant) -> SearchHealth {
        self.health.absorb_session(self.session.stats());
        self.health.wall_time = started.elapsed();
        self.health
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_strictly_cheaper_feasible_cost_prunes() {
        let m = Money::from_dollars;
        assert!(
            !beaten(None, m(1e12)),
            "nothing feasible known prunes nothing"
        );
        assert!(beaten(Some(m(100.0)), m(100.01)));
        assert!(
            !beaten(Some(m(100.0)), m(100.0)),
            "equal cost still competes"
        );
        assert!(!beaten(Some(m(100.0)), m(99.9)));
    }
}
