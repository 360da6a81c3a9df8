//! Design-space search (paper §4).
//!
//! Given an infrastructure model, a service model, a performance catalog
//! and an availability engine, this crate enumerates and evaluates designs
//! to find the minimum-cost design meeting the service requirements:
//!
//! * [`EvalContext`] bundles the models and the pluggable engine;
//! * [`enumerate_tier_candidates`] produces every resolved tier design for
//!   a given resource count, covering active/spare splits, spare
//!   operational modes and all availability-mechanism parameter settings;
//! * [`evaluate_enterprise_design`] / [`evaluate_job_design`] attach cost,
//!   availability and (for finite jobs) expected completion time;
//! * [`search_tier`] implements the paper's §4.1 algorithm for one tier —
//!   grow the resource count from the performance minimum, try all
//!   combinations at each size, prune by cost once a feasible design is
//!   known, stop when every remaining design necessarily costs more;
//! * [`search_job_tier`] is the finite-job analogue driven by expected
//!   execution time;
//! * [`tier_pareto_frontier`] and [`job_frontier`] compute the full
//!   cost/quality tradeoff curves behind the paper's Figs. 6–8;
//! * [`search_service_with_health`] composes per-tier frontiers into the
//!   exact minimum-cost multi-tier design meeting a service downtime
//!   requirement, evaluating only the candidates its budget leaves in
//!   play.
//!
//! Searches are resilient by default: an engine failure or non-finite
//! metric on one candidate skips that candidate rather than aborting the
//! run ([`SearchOptions::strict`] restores fail-fast), and every entry
//! point reports a [`SearchHealth`] saying how degraded the run was —
//! candidates skipped, solver fallbacks taken, worst accepted residual.
//!
//! Searches run on the calling thread and evaluate through the context's
//! engine directly; a sweep evaluates each distinct tier model once.
//!
//! Searches are governed: a [`SolveBudget`](aved_avail::SolveBudget)
//! derived from [`SearchOptions`] bounds each candidate's evaluation
//! (wall-clock timeout, explored-state cap), a whole-search deadline or a
//! [`CancelToken`](aved_avail::CancelToken) stops the sweep cleanly at the
//! next candidate boundary with its best-so-far result, and a
//! [`SweepJournal`] checkpoints every candidate outcome so an interrupted
//! sweep resumes ([`SearchOptions::with_resume`]) and provably selects the
//! same winner, bit-for-bit.
//!
//! Candidate batches stay in enumeration order — parameter-locality order,
//! where neighbors differ in one knob — and each sweep carries one
//! [`aved_avail::EvalSession`] that reuses solver scratch and chain
//! structure (rate-only in-place rebuilds) between neighboring solves. A
//! session only saves work: every reported metric is bit-identical to a
//! fresh-session evaluation of the same design.
//! [`SearchHealth`] reports the hit rates and rebuilds avoided.

mod candidate;
mod context;
mod error;
mod evaluate;
mod frontier;
mod health;
mod journal;
mod multi_tier;
mod sensitivity;
mod sweep;
#[cfg(test)]
mod test_fixtures;
mod tier_search;

/// Inert call-counting pass-through, kept for callers that name it.
pub use aved_avail::CachingEngine;
pub use candidate::{effective_jobs, enumerate_tier_candidates, SearchOptions};
pub use context::EvalContext;
pub use error::SearchError;
pub use evaluate::{
    evaluate_enterprise_design, evaluate_enterprise_design_in, evaluate_job_design,
    evaluate_job_design_in, EvaluatedDesign,
};
pub use frontier::{job_frontier, tier_pareto_frontier};
pub use health::{SearchHealth, SkippedCandidate};
pub use journal::{
    enterprise_key, job_key, JournalEngine, JournalReplay, ReplayEntry, SweepJournal,
};
pub use multi_tier::{search_service_with_health, ServiceDesign};
pub use sensitivity::{mtbf_sensitivity, scale_mtbfs, SensitivityRow};
pub use tier_search::{search_job_tier, search_tier, SearchOutcome, SearchStats};
