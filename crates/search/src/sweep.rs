//! The one candidate sweep behind every search and frontier (paper §4.1).
//!
//! A [`Sweep`] runs batches of one tier's candidates, enumerated as
//! groups (see [`SettingsPlan`]): the candidates of a group differ only in
//! quality-only settings — a checkpoint's interval and storage location
//! (§4.2) — and share a tier model and a cost; groups that differ only in
//! cost settings still share their *availability design* and so their
//! tier model. [`Sweep::run`] derives and evaluates each design's model
//! once, scores each group's candidates from it in one loop, and keeps the
//! group's best. It walks the groups **in enumeration order** —
//! parameter-locality order, where neighbors differ in one knob — on the
//! calling thread, so the sweep's one [`EvalSession`] reuses chain
//! structure from one model to the next. The searches run one batch per
//! resource-count level; the frontiers run one batch over every option
//! and level. A service query enumerates each tier's batch once and runs
//! it several times, and the batch keeps what each run evaluated, so no
//! candidate is evaluated twice. [`Objective`] supplies everything that
//! differs between enterprise and finite-job sweeps.

use std::ops::{Range, RangeInclusive};
use std::time::Instant;

use aved_avail::{EvalSession, SolveBudget};
use aved_model::{ResourceOption, Tier, TierDesign};
use aved_units::{Duration, Money};

use crate::candidate::SettingsPlan;
use crate::evaluate::{
    assess_enterprise_design, assess_job_design, checkpoint_overheads, design_cost, job_point,
    score_enterprise_design, Assessment, JobPoint, JobPrelude,
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

    /// The scoring half: every candidate of group `c`, scored from its
    /// design's `assessment`; `Err` when the group fails as a whole. A job
    /// scores `grid`, the job points of the group's candidates, in one
    /// loop; the candidates of an enterprise group share one downtime, so
    /// its first is its best.
    fn score(
        &self,
        ctx: &EvalContext<'_>,
        plan: &SettingsPlan,
        grid: &[Result<JobPoint, SearchError>],
        c: &Candidate,
        assessment: &Assessment,
    ) -> Result<Scores, SearchError> {
        let materialise = |point| plan.design(&c.design, point).expect("a point of the grid");
        match self {
            Objective::Enterprise { .. } => {
                let e = score_enterprise_design(materialise(0), c.cost, assessment)?;
                Ok(Scores {
                    best: Some((0, e)),
                    failed: Vec::new(),
                })
            }
            Objective::Job { .. } => {
                let prelude = JobPrelude::new(ctx, c.cost, assessment, c.design.n_active())?;
                // The grid scorer: one kernel call per point, and the first
                // point of least completion time kept.
                let (mut best, mut failed) = (None::<(usize, Duration)>, Vec::new());
                for (point, job) in grid.iter().enumerate() {
                    let time = job.as_ref().map_err(Clone::clone);
                    match time.and_then(|job| prelude.job_time(job)) {
                        Ok(t) if best.is_none_or(|(_, b)| t < b) => best = Some((point, t)),
                        Ok(_) => {}
                        Err(e) => failed.push((point, e)),
                    }
                }
                let best = best.map(|(point, t)| {
                    let e = assessment.evaluated(materialise(point), c.cost, Some(t));
                    (point, e)
                });
                Ok(Scores { best, failed })
            }
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

/// One group of a batch — the candidates of one block that share every
/// setting but their varying quality-only ones, and so a tier model and a
/// cost — costed when enumerated: searches terminate and every run prunes
/// on cost. A group is pruned, evaluated, journaled and handed on whole,
/// but counts as its candidates.
struct Candidate {
    /// The group's representative: the settings its candidates share.
    design: TierDesign,
    /// The batch index of the group's availability design.
    availability: usize,
    /// The tier option's index, and the group's index in its plan; the
    /// group has a candidate per point of the plan's grid.
    option: usize,
    group: usize,
    /// The enumeration position of the group's first candidate among all
    /// the batch's candidates.
    position: usize,
    cost: Money,
    state: Fold,
}

/// A group's scores: its first candidate of best quality, by grid point,
/// and each point whose score failed.
#[derive(Default)]
struct Scores {
    best: Option<(usize, EvaluatedDesign)>,
    failed: Vec<(usize, SearchError)>,
}

/// Where a group stands in its batch's runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fold {
    /// Not yet run, or run while the sweep was stopping.
    Pending,
    /// Pruned by cost, and never folded since.
    Pruned,
    /// Folded: scored, replayed or failed, and journaled if journaling.
    Folded,
}

/// Groups of one or more levels and the availability designs they share,
/// each design listed once, in order of first appearance. A batch keeps
/// each design's evaluation and each group's [`Fold`] across
/// [`Sweep::run`]s, so running a group again re-delivers its result
/// without evaluating, journaling or counting it again.
#[derive(Default)]
pub(crate) struct Batch {
    /// Each availability design's evaluation, once made by the first of
    /// its groups to score: `Ok(None)` when the design cannot serve the
    /// requirement at all.
    assessments: Vec<Option<Result<Option<Assessment>, SearchError>>>,
    candidates: Vec<Candidate>,
    /// The number of candidates the groups hold.
    positions: usize,
}

impl Batch {
    /// The number of groups.
    pub(crate) fn len(&self) -> usize {
        self.candidates.len()
    }

    /// `true` when the batch holds no group.
    pub(crate) fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Empties the batch, keeping its allocations.
    pub(crate) fn clear(&mut self) {
        self.assessments.clear();
        self.candidates.clear();
        self.positions = 0;
    }

    /// The cost of the cheapest group in `range`, if any.
    pub(crate) fn cheapest(&self, range: Range<usize>) -> Option<Money> {
        self.candidates[range]
            .iter()
            .map(|c| c.cost)
            .min_by(Money::total_cmp)
    }
}

/// Hands `accept` every best candidate in `waiting` that enumerates before
/// `position`, in enumeration order, and lowers `bound` as it returns.
fn release(
    waiting: &mut Vec<(usize, EvaluatedDesign)>,
    position: usize,
    bound: &mut Option<Money>,
    accept: &mut impl FnMut(EvaluatedDesign) -> Result<Option<Money>, SearchError>,
) -> Result<(), SearchError> {
    if waiting.len() > 1 {
        waiting.sort_by_key(|w| std::cmp::Reverse(w.0));
    }
    while waiting.last().is_some_and(|w| w.0 < position) {
        let (_, e) = waiting.pop().expect("checked above");
        if let Some(lowered) = accept(e)? {
            *bound = Some(lowered);
        }
    }
    Ok(())
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
    /// The settings of each of the tier's options, enumerated once for the
    /// whole sweep.
    plans: Vec<SettingsPlan>,
    /// The job points of each option's
    /// [`job_designs`](SettingsPlan::job_designs), in a job sweep.
    grids: Vec<Vec<Result<JobPoint, SearchError>>>,
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
    /// Starts a sweep of the tier named `tier_name` under objectives of
    /// `objective`'s kind. Its deadline counts from `search_start`, the
    /// start of the outermost search, so a multi-tier search shares one
    /// deadline across its tiers.
    pub(crate) fn new(
        ctx: &'s EvalContext<'c>,
        tier_name: &str,
        objective: &Objective,
        options: &'s SearchOptions,
        search_start: Instant,
    ) -> Result<Self, SearchError> {
        let enumerating = Instant::now();
        let budget = options.eval_budget(search_start);
        let tier = ctx.tier(tier_name)?;
        let plans: Vec<SettingsPlan> = tier
            .options()
            .iter()
            .map(|option| SettingsPlan::new(ctx.infrastructure(), option, &options.pins))
            .collect();
        let grids = match objective {
            Objective::Enterprise { .. } => Vec::new(),
            Objective::Job { .. } => (tier.options().iter().zip(&plans))
                .map(|(option, plan)| {
                    let overheads = checkpoint_overheads(ctx, option);
                    let point = |td| job_point(ctx, overheads.as_ref().map_err(Clone::clone)?, &td);
                    plan.job_designs(tier.name(), option).map(point).collect()
                })
                .collect(),
        };
        Ok(Sweep {
            ctx,
            tier,
            options,
            grids,
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

    /// The number of candidates the groups of `batch` in `range` hold.
    pub(crate) fn points(&self, batch: &Batch, range: Range<usize>) -> usize {
        let groups = batch.candidates[range].iter();
        groups.map(|c| self.plans[c.option].points()).sum()
    }

    /// The number of candidates of `batch` no run has folded or pruned
    /// yet.
    pub(crate) fn pending(&self, batch: &Batch) -> u64 {
        let pending = batch.candidates.iter().filter(|c| c.state == Fold::Pending);
        pending.map(|c| self.plans[c.option].points() as u64).sum()
    }

    /// Appends to `batch` the groups of the tier's `option`-th option with
    /// `n_total` resources, at least `min_active` of them active, in
    /// enumeration order, costed, and their availability designs. Returns
    /// the range of the appended groups.
    pub(crate) fn level(
        &mut self,
        batch: &mut Batch,
        option: usize,
        n_total: u32,
        min_active: u32,
    ) -> Result<Range<usize>, SearchError> {
        let enumerating = Instant::now();
        let resource_option = &self.tier.options()[option];
        let plan = &self.plans[option];
        let (first_design, first_candidate) = (batch.assessments.len(), batch.candidates.len());
        let Batch {
            assessments,
            candidates,
            positions,
        } = batch;
        let ctx = self.ctx;
        let mut failed = None;
        plan.for_each_group(
            self.tier.name(),
            resource_option,
            n_total,
            min_active,
            self.options,
            |design, availability, group, offset| {
                let cost = match design_cost(ctx, &design) {
                    Ok(cost) => cost,
                    Err(e) => {
                        failed.get_or_insert(e);
                        return;
                    }
                };
                let availability = first_design + availability;
                if availability == assessments.len() {
                    assessments.push(None);
                }
                candidates.push(Candidate {
                    design,
                    availability,
                    option,
                    group,
                    position: *positions + offset,
                    cost,
                    state: Fold::Pending,
                });
            },
        );
        if let Some(e) = failed {
            return Err(e);
        }
        *positions += (candidates.len() - first_candidate) * plan.points();
        self.health.enumeration_time += enumerating.elapsed();
        Ok(first_candidate..batch.candidates.len())
    }

    /// Runs the groups of `batch` in `range` under `objective` and cost
    /// bound `bound`, and hands the best candidate of each surviving group
    /// to `accept`. Returns the number of candidates whose scores the run
    /// delivered. Every run of one batch uses objectives of one kind and
    /// load, which evaluate a design alike, since the batch keeps each
    /// design's evaluation for the next run. A sweep that is stopping —
    /// the cancellation token fired or the deadline passed — is marked
    /// interrupted at the end of the run; the caller then returns its
    /// best-so-far result.
    ///
    /// The fold walks the groups in enumeration order and makes every
    /// decision there — prune, replay or score, journal. A group is scored
    /// when it is neither pruned nor replayed from the resume journal.
    /// Each availability design is derived and evaluated once, when the
    /// fold reaches its first group to score, so a design whose groups are
    /// all pruned is never evaluated. One loop scores a group's grid from
    /// that evaluation and materialises only its first candidate of best
    /// quality: the one that either consumer — the cost-first win rule,
    /// which takes a strictly better quality, and the stable Pareto sort —
    /// keeps of the group. It reaches `accept` at its own enumeration
    /// position, after the best candidates of other groups that enumerate
    /// before it, so ties between groups resolve as they would candidate by
    /// candidate. A failed evaluation fails each candidate of its groups. A
    /// group an earlier run folded is handed on again, unless pruned, but
    /// not evaluated, journaled or counted again.
    ///
    /// Every group that costs strictly more than the bound is pruned, and
    /// its candidates counted as pruned until a later run folds it. No
    /// bound prunes nothing. `accept` returns the new bound when it takes a
    /// design that no dearer candidate can beat, and the bound drops to it
    /// for the rest of the run; the caller owns the bound between runs.
    pub(crate) fn run(
        &mut self,
        objective: &Objective,
        batch: &mut Batch,
        range: Range<usize>,
        mut bound: Option<Money>,
        mut accept: impl FnMut(EvaluatedDesign) -> Result<Option<Money>, SearchError>,
    ) -> Result<usize, SearchError> {
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
            assessments,
            candidates,
            ..
        } = batch;

        let mut delivered = 0;
        // Best candidates of groups whose positions the fold has not
        // passed yet.
        let mut waiting = Vec::new();
        let mut evaluating = std::time::Duration::ZERO;
        for i in range {
            let c = &mut candidates[i];
            release(&mut waiting, c.position, &mut bound, &mut accept)?;
            let plan = &self.plans[c.option];
            let points = plan.points();
            if beaten(bound, c.cost) {
                if c.state == Fold::Pending {
                    c.state = Fold::Pruned;
                    self.health.candidates_pruned += points as u64;
                }
                continue;
            }
            let fresh = c.state != Fold::Folded;
            let replay = replays.get(i - first).copied().flatten();
            let scores = if let Some(entry) = replay {
                let point = entry.point();
                let best = entry.clone().into_result(plan.design(&c.design, point));
                best.map(|best| Scores {
                    best: best.map(|e| (point, e)),
                    failed: Vec::new(),
                })
            } else {
                let assessment = &mut assessments[c.availability];
                if assessment.is_none() {
                    // First group of its design to score: evaluate the
                    // design, unless the sweep is stopping (the post-run
                    // check records the interruption).
                    if stopping(budget) {
                        continue;
                    }
                    let started = Instant::now();
                    let option = &self.tier.options()[c.option];
                    let result = objective.assess(ctx, option, &c.design, &mut self.session);
                    self.health.models_evaluated += u64::from(evaluated(&result));
                    *assessment = Some(result);
                    evaluating += started.elapsed();
                }
                if fresh {
                    self.health.candidates_scored += points as u64;
                }
                let grid = self.grids.get(c.option);
                let grid = grid.map_or(&[][..], |g| &g[plan.job_points(c.group)]);
                match assessment.as_ref().expect("evaluated above") {
                    Ok(Some(a)) => objective.score(ctx, plan, grid, c, a),
                    Ok(None) => Ok(Scores::default()),
                    Err(e) => Err(e.clone()),
                }
            };
            // A cancellation is not a candidate outcome: the caller's
            // post-run check turns it into a clean interruption, and it is
            // never journaled (re-evaluate it on resume).
            if scores.as_ref().is_err_and(SearchError::is_cancellation) {
                continue;
            }
            // Each failed candidate's point and error; a group that failed
            // as a whole failed at every point.
            let failed: Vec<(usize, &SearchError)> = match &scores {
                Ok(scores) => scores.failed.iter().map(|(point, e)| (*point, e)).collect(),
                Err(e) => (0..points).map(|point| (point, e)).collect(),
            };
            // A fatal failure ends the sweep before the group is journaled,
            // so a resumed sweep scores the group again and fails alike.
            if let Some(&(_, e)) = failed.iter().find(|(_, e)| fatal(e, options.strict)) {
                return Err(e.clone());
            }
            if fresh {
                if c.state == Fold::Pruned {
                    self.health.candidates_pruned -= points as u64;
                }
                c.state = Fold::Folded;
                if replay.is_some() {
                    self.health.journal_replayed += points as u64;
                }
                let exhausted = failed.iter().filter(|(_, e)| e.is_budget_exhaustion());
                self.health.budget_exhausted += exhausted.count() as u64;
                // A group only some of whose candidates failed is not
                // journaled: a resumed sweep scores it again, skips and all.
                let outcome = match &scores {
                    Ok(s) if s.failed.is_empty() => Some(Ok(s.best.as_ref().map(|(p, e)| (*p, e)))),
                    Ok(_) => None,
                    Err(e) => Some(Err(e)),
                };
                if let (Some(journal), Some(outcome)) = (&options.journal, outcome) {
                    journal.record(&keys[i - first], outcome);
                }
                for &(point, e) in &failed {
                    let td = plan.design(&c.design, point).expect("a point of the grid");
                    self.health.record_skip(&td, e);
                }
            }
            if let Ok(Scores {
                best: Some((point, e)),
                failed,
            }) = scores
            {
                let scored = points - failed.len();
                if fresh {
                    self.health.absorb_eval(e.eval_health(), scored as u64);
                }
                delivered += scored;
                waiting.push((c.position + plan.point_offset(point), e));
            }
        }
        release(&mut waiting, usize::MAX, &mut bound, &mut accept)?;
        self.health.solve_time += evaluating;
        self.health.merge_time += merging.elapsed().saturating_sub(evaluating);
        self.health.interrupted |= stopping(&self.budget);
        Ok(delivered)
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

    #[test]
    fn waiting_bests_reach_accept_in_enumeration_order() {
        // Interleaved groups: the first group's best enumerates at 9, the
        // second's at 4. Each is handed on only once the fold passes its
        // position, the earlier first, so a tie between them resolves as
        // it would candidate by candidate.
        let best = |n_active| {
            EvaluatedDesign::from_parts(
                TierDesign::new("t", "r", n_active, 0),
                Money::from_dollars(10.0),
                aved_avail::TierAvailability::new(0.0, aved_units::Rate::ZERO),
                1,
                None,
                aved_avail::EvalHealth::default(),
            )
        };
        let mut waiting = vec![(9, best(9)), (4, best(4))];
        let seen = std::cell::RefCell::new(Vec::new());
        let mut accept = |e: EvaluatedDesign| {
            seen.borrow_mut().push(e.design().n_active());
            Ok((e.design().n_active() == 4).then(|| e.cost()))
        };
        let mut bound = None;
        release(&mut waiting, 4, &mut bound, &mut accept).unwrap();
        assert!(seen.borrow().is_empty(), "nothing enumerates before 4");
        release(&mut waiting, 7, &mut bound, &mut accept).unwrap();
        assert_eq!(
            (seen.borrow().as_slice(), bound),
            (&[4][..], Some(Money::from_dollars(10.0)))
        );
        release(&mut waiting, usize::MAX, &mut bound, &mut accept).unwrap();
        assert_eq!(*seen.borrow(), [4, 9]);
        assert!(waiting.is_empty());
    }
}
