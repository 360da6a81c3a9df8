//! The one candidate sweep behind every search and frontier (paper §4.1).
//!
//! A [`Sweep`] evaluates batches of one tier's candidates. [`Sweep::run`]
//! fans a batch out across [`SearchOptions::jobs`] scoped threads in
//! contiguous shards of enumeration order — parameter-locality order, where
//! neighbors differ in one knob — so each worker's [`EvalSession`] reuses
//! chain structure from one candidate to the next. It then folds the
//! outcomes back **in candidate order**, where every decision is made, so
//! results are identical at any worker count (see
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

use crate::evaluate::{evaluate_enterprise_design_in, evaluate_job_design_in};
use crate::journal::{enterprise_key, job_key};
use crate::parallel::{effective_jobs, parallel_map_with, BestCost};
use crate::{
    enumerate_tier_candidates, EvalContext, EvaluatedDesign, SearchError, SearchHealth,
    SearchOptions,
};

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

    fn evaluate(
        &self,
        ctx: &EvalContext<'_>,
        option: &ResourceOption,
        td: &TierDesign,
        session: &mut EvalSession,
    ) -> Result<Option<EvaluatedDesign>, SearchError> {
        match *self {
            Objective::Enterprise { load, .. } => {
                evaluate_enterprise_design_in(ctx, option, td, load, session)
            }
            Objective::Job { .. } => evaluate_job_design_in(ctx, option, td, session),
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

/// One candidate of a batch. Searches cost their candidates before the
/// fan-out, because they terminate and prune on cost; frontiers never
/// prune, so theirs are costed only when evaluated.
pub(crate) struct Candidate<'t> {
    option: &'t ResourceOption,
    design: TierDesign,
    pub(crate) cost: Option<Money>,
}

/// What happened to one candidate, in the worker.
enum Outcome {
    /// Not evaluated: a worker hit a fatal error (the fold surfaces it) or
    /// the sweep is stopping (the caller's post-batch check records it).
    Skipped,
    /// Not evaluated: a known-feasible design is strictly cheaper.
    Pruned,
    /// Evaluated live, or restored bit-for-bit from the resume journal.
    Done {
        result: Result<Option<EvaluatedDesign>, SearchError>,
        replayed: bool,
    },
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

/// `true` once the sweep must stop at the next candidate boundary: the
/// cancellation token fired or the deadline passed. Monotone, so one
/// post-batch check turns worker-observed stops into a clean best-so-far
/// result.
fn stopping(budget: &SolveBudget) -> bool {
    budget.is_cancelled() || budget.deadline_exceeded()
}

/// The state of one search or frontier sweep.
pub(crate) struct Sweep<'s, 'c> {
    ctx: &'s EvalContext<'c>,
    pub(crate) tier: &'c Tier,
    objective: &'s Objective,
    options: &'s SearchOptions,
    /// The whole sweep's budget: the absolute deadline, the per-candidate
    /// limits and the cancellation token.
    budget: SolveBudget,
    /// One evaluation session per worker, reused across every batch: chain
    /// shapes recur between levels (same n/m/s splits with different
    /// rates), so the sessions keep paying off sweep-wide.
    sessions: Vec<EvalSession>,
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
        let jobs = effective_jobs(options.jobs);
        let budget = options.eval_budget(search_start);
        Ok(Sweep {
            ctx,
            tier: ctx.tier(tier_name)?,
            objective,
            options,
            sessions: (0..jobs.max(1))
                .map(|_| EvalSession::new().with_budget(budget.clone()))
                .collect(),
            budget,
            health: SearchHealth {
                jobs,
                ..SearchHealth::default()
            },
        })
    }

    /// `option`'s candidates with `n_total` resources, at least
    /// `min_active` of them active, in enumeration order; costed when
    /// `costed` is set.
    pub(crate) fn level<'t>(
        &mut self,
        option: &'t ResourceOption,
        n_total: u32,
        min_active: u32,
        costed: bool,
    ) -> Result<Vec<Candidate<'t>>, SearchError> {
        let enumerating = Instant::now();
        let infrastructure = self.ctx.infrastructure();
        let name = self.tier.name();
        let batch = enumerate_tier_candidates(
            infrastructure,
            name,
            option,
            n_total,
            min_active,
            self.options,
        )
        .into_iter()
        .map(|design| {
            let cost = if costed {
                Some(tier_design_cost(infrastructure, &design)?.total())
            } else {
                None
            };
            Ok(Candidate {
                option,
                design,
                cost,
            })
        })
        .collect();
        self.health.enumeration_time += enumerating.elapsed();
        batch
    }

    /// Runs one batch and hands every surviving evaluation, in candidate
    /// order, to `accept`. A sweep that is stopping — the cancellation
    /// token fired or the deadline passed — is marked interrupted at the
    /// end of the batch; the caller then returns its best-so-far result.
    ///
    /// A search passes its pruning cell in `best_cost`: workers skip
    /// candidates that cost strictly more than a design it holds (equal
    /// cost still competes on quality) and publish feasible costs to it,
    /// replayed ones included, so that other workers prune harder. A fatal
    /// failure skips the rest of the batch and is returned by the fold.
    pub(crate) fn run(
        &mut self,
        batch: &[Candidate<'_>],
        best_cost: Option<&BestCost>,
        mut accept: impl FnMut(EvaluatedDesign) -> Result<(), SearchError>,
    ) -> Result<(), SearchError> {
        let solving = Instant::now();
        let abort = AtomicBool::new(false);
        let (ctx, objective, options, budget) =
            (self.ctx, self.objective, self.options, &self.budget);
        let tier = self.tier.name().as_str();
        let outcomes = parallel_map_with(
            self.health.jobs,
            &mut self.sessions,
            batch,
            |session, _, c| {
                if abort.load(Ordering::Relaxed) || stopping(budget) {
                    return Outcome::Skipped;
                }
                if options.prune && best_cost.zip(c.cost).is_some_and(|(b, cost)| b.beats(cost)) {
                    return Outcome::Pruned;
                }
                let replay = options
                    .resume
                    .as_ref()
                    .and_then(|replay| replay.lookup(&objective.journal_key(tier, &c.design)));
                let result = match replay {
                    Some(entry) => entry.clone().into_result(&c.design),
                    None => objective.evaluate(ctx, c.option, &c.design, session),
                };
                match (&result, best_cost) {
                    (Ok(Some(e)), Some(b))
                        if objective.quality(e).is_some_and(|q| objective.meets(q)) =>
                    {
                        b.offer(e.cost());
                    }
                    (Err(e), _) if fatal(e, options.strict) => abort.store(true, Ordering::Relaxed),
                    _ => {}
                }
                Outcome::Done {
                    result,
                    replayed: replay.is_some(),
                }
            },
        );
        self.health.solve_time += solving.elapsed();

        let merging = Instant::now();
        for (c, outcome) in batch.iter().zip(outcomes) {
            let (result, replayed) = match outcome {
                Outcome::Skipped => continue,
                Outcome::Pruned => {
                    self.health.candidates_pruned += 1;
                    continue;
                }
                Outcome::Done { result, replayed } => (result, replayed),
            };
            // A cancellation is not a candidate outcome: the caller's
            // post-batch check turns it into a clean interruption, and it
            // is never journaled (re-evaluate it on resume).
            if matches!(&result, Err(e) if e.is_cancellation()) {
                continue;
            }
            self.health.journal_replayed += u64::from(replayed);
            if matches!(&result, Err(e) if e.is_budget_exhaustion()) {
                self.health.budget_exhausted += 1;
            }
            if let Some(journal) = &options.journal {
                journal.record(&objective.journal_key(tier, &c.design), &result);
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
        self.health.merge_time += merging.elapsed();
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
