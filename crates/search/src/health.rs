//! Degraded-mode accounting for searches.
//!
//! A search that survives engine failures is only trustworthy if it says
//! *how much* it survived: which candidates were dropped, how often the
//! steady-state solver had to fall back, and how sloppy the worst accepted
//! solution was. [`SearchHealth`] is that report. Every search entry point
//! produces one; a clean run has zero skips, zero fallbacks and no
//! residual worth mentioning.

use aved_avail::EvalHealth;
use aved_model::TierDesign;

use crate::SearchError;

/// One candidate design dropped from a search because its evaluation
/// failed (and the search was not in strict mode).
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedCandidate {
    /// Tier the candidate belonged to.
    pub tier: String,
    /// Resource type of the candidate.
    pub resource: String,
    /// Active resources in the candidate.
    pub n_active: u32,
    /// Spare resources in the candidate.
    pub n_spare: u32,
    /// The rendered evaluation error.
    pub error: String,
}

impl SkippedCandidate {
    fn from_failure(td: &TierDesign, error: &SearchError) -> SkippedCandidate {
        SkippedCandidate {
            tier: td.tier().as_str().to_owned(),
            resource: td.resource().as_str().to_owned(),
            n_active: td.n_active(),
            n_spare: td.n_spare(),
            error: error.to_string(),
        }
    }
}

/// How degraded a search run was: candidates skipped after evaluation
/// failures, solver fallbacks taken, the worst accepted balance residual,
/// and how the work got done — worker count, cache traffic, candidates
/// pruned by cost dominance, and per-phase wall-clock time.
///
/// Equality ignores the timing and workload fields (`wall_time`, the phase
/// times, `jobs`, cache and pruning counters): two runs that made the same
/// decisions are equal even though timing — and, under parallel pruning,
/// the exact amount of work avoided — is never reproducible.
#[derive(Debug, Clone, Default)]
pub struct SearchHealth {
    /// Candidates dropped because their evaluation failed.
    pub skipped: Vec<SkippedCandidate>,
    /// Solver fallbacks taken across all successful evaluations.
    pub fallbacks_taken: u64,
    /// Worst accepted balance residual `‖πQ‖∞` across all successful
    /// evaluations, when the engine measures one.
    pub worst_residual: Option<f64>,
    /// Wall-clock time the search took.
    pub wall_time: std::time::Duration,
    /// Candidates skipped without evaluation because they already cost more
    /// than a known-feasible design. Varies with scheduling under parallel
    /// runs; the selected design does not.
    pub candidates_pruned: u64,
    /// Model-cache hits during the search, when the caller wired a
    /// `CachingEngine` in and reported its counters.
    pub cache_hits: u64,
    /// Model-cache misses (inner engine evaluations), when reported.
    pub cache_misses: u64,
    /// Worker threads the search actually used (after resolving `jobs = 0`
    /// to the machine's parallelism). Zero when the entry point predates
    /// the parallel executor.
    pub jobs: usize,
    /// Wall-clock time spent enumerating candidates.
    pub enumeration_time: std::time::Duration,
    /// Wall-clock time spent evaluating candidates (the parallel phase).
    pub solve_time: std::time::Duration,
    /// Wall-clock time spent merging results and selecting designs.
    pub merge_time: std::time::Duration,
    /// Steady-state solves run through the workers' evaluation sessions.
    pub warm_solves: u64,
    /// Solves of a chain shape the session had already solved — the
    /// locality hit rate of the candidate ordering.
    pub warm_hits: u64,
    /// Chain rebuilds avoided by patching rates into a structurally
    /// identical cached chain instead of re-exploring the state space.
    pub chain_rebuilds_avoided: u64,
    /// Total solver iterations across session solves.
    pub solver_iterations: u64,
    /// Candidates abandoned because a per-candidate resource budget ran
    /// out (deadline, sweep cap, state cap). Each is also recorded in
    /// `skipped` with a diagnostic naming the exhausted resource.
    pub budget_exhausted: u64,
    /// Candidates whose results were replayed bit-for-bit from a resume
    /// journal instead of being re-evaluated.
    pub journal_replayed: u64,
    /// `true` when the search stopped early — the whole-search deadline
    /// passed or a cancellation token fired — and the results are
    /// best-so-far rather than exhaustive.
    pub interrupted: bool,
}

impl PartialEq for SearchHealth {
    fn eq(&self, other: &SearchHealth) -> bool {
        self.skipped == other.skipped
            && self.fallbacks_taken == other.fallbacks_taken
            && self.worst_residual == other.worst_residual
    }
}

impl SearchHealth {
    /// Number of candidates dropped after evaluation failures.
    #[must_use]
    pub fn candidates_skipped(&self) -> usize {
        self.skipped.len()
    }

    /// `true` when the search took any degraded path: a candidate was
    /// skipped, a solver fallback was needed, or the run was interrupted
    /// before covering the full design space.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !self.skipped.is_empty() || self.fallbacks_taken > 0 || self.interrupted
    }

    /// Folds one successful evaluation's health into this report.
    pub fn absorb_eval(&mut self, eval: EvalHealth) {
        self.fallbacks_taken += u64::from(eval.fallbacks);
        self.worst_residual = match (self.worst_residual, eval.worst_residual) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Folds another search's health into this one (used when a service
    /// search aggregates its per-tier frontier sweeps). Wall and phase
    /// times add, counters add, the worker count keeps the maximum.
    pub fn merge(&mut self, other: SearchHealth) {
        self.skipped.extend(other.skipped);
        self.fallbacks_taken += other.fallbacks_taken;
        self.worst_residual = match (self.worst_residual, other.worst_residual) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.wall_time += other.wall_time;
        self.candidates_pruned += other.candidates_pruned;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.jobs = self.jobs.max(other.jobs);
        self.enumeration_time += other.enumeration_time;
        self.solve_time += other.solve_time;
        self.merge_time += other.merge_time;
        self.warm_solves += other.warm_solves;
        self.warm_hits += other.warm_hits;
        self.chain_rebuilds_avoided += other.chain_rebuilds_avoided;
        self.solver_iterations += other.solver_iterations;
        self.budget_exhausted += other.budget_exhausted;
        self.journal_replayed += other.journal_replayed;
        self.interrupted |= other.interrupted;
    }

    /// Folds one evaluation session's accumulated statistics into this
    /// report (called once per worker session when a search finishes).
    pub fn absorb_session(&mut self, stats: &aved_avail::SessionStats) {
        self.warm_solves += stats.solves;
        self.warm_hits += stats.warm_hits;
        self.chain_rebuilds_avoided += stats.rebuilds_avoided;
        self.solver_iterations += stats.iterations;
    }

    /// Records a candidate skipped because `error` occurred.
    pub(crate) fn record_skip(&mut self, td: &TierDesign, error: &SearchError) {
        self.skipped.push(SkippedCandidate::from_failure(td, error));
    }
}

impl std::fmt::Display for SearchHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} candidate(s) skipped, {} solver fallback(s)",
            self.skipped.len(),
            self.fallbacks_taken
        )?;
        if let Some(r) = self.worst_residual {
            write!(f, ", worst residual {r:.2e}")?;
        }
        if self.candidates_pruned > 0 {
            write!(f, ", {} pruned by cost", self.candidates_pruned)?;
        }
        if self.cache_hits + self.cache_misses > 0 {
            write!(
                f,
                ", cache {}/{} hit",
                self.cache_hits,
                self.cache_hits + self.cache_misses
            )?;
        }
        if self.jobs > 0 {
            write!(f, ", {} job(s)", self.jobs)?;
        }
        if self.warm_solves > 0 {
            write!(
                f,
                ", warm {}/{} hit, {} rebuild(s) avoided",
                self.warm_hits, self.warm_solves, self.chain_rebuilds_avoided
            )?;
        }
        if self.budget_exhausted > 0 {
            write!(f, ", {} budget-exhausted", self.budget_exhausted)?;
        }
        if self.journal_replayed > 0 {
            write!(f, ", {} replayed from journal", self.journal_replayed)?;
        }
        if self.interrupted {
            write!(f, ", interrupted (best-so-far)")?;
        }
        write!(f, ", {:.1} ms", self.wall_time.as_secs_f64() * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skip(n: usize) -> Vec<SkippedCandidate> {
        (0..n)
            .map(|i| SkippedCandidate {
                tier: "t".into(),
                resource: "r".into(),
                n_active: 1,
                n_spare: 0,
                error: format!("e{i}"),
            })
            .collect()
    }

    #[test]
    fn clean_health_is_not_degraded() {
        let h = SearchHealth::default();
        assert!(!h.is_degraded());
        assert_eq!(h.candidates_skipped(), 0);
    }

    #[test]
    fn absorbing_eval_health_accumulates_fallbacks_and_residual() {
        let mut h = SearchHealth::default();
        h.absorb_eval(EvalHealth {
            fallbacks: 2,
            worst_residual: Some(1e-12),
        });
        h.absorb_eval(EvalHealth {
            fallbacks: 0,
            worst_residual: Some(3e-11),
        });
        assert_eq!(h.fallbacks_taken, 2);
        assert_eq!(h.worst_residual, Some(3e-11));
        assert!(h.is_degraded());
    }

    #[test]
    fn merge_combines_every_field() {
        let ms = std::time::Duration::from_millis;
        let mut a = SearchHealth {
            skipped: skip(1),
            fallbacks_taken: 1,
            worst_residual: Some(1e-12),
            wall_time: ms(5),
            candidates_pruned: 10,
            cache_hits: 100,
            cache_misses: 4,
            jobs: 4,
            enumeration_time: ms(1),
            solve_time: ms(3),
            merge_time: ms(1),
            warm_solves: 20,
            warm_hits: 15,
            chain_rebuilds_avoided: 12,
            solver_iterations: 900,
            budget_exhausted: 2,
            journal_replayed: 9,
            interrupted: false,
        };
        let b = SearchHealth {
            skipped: skip(2),
            fallbacks_taken: 3,
            worst_residual: Some(1e-10),
            wall_time: ms(7),
            candidates_pruned: 5,
            cache_hits: 50,
            cache_misses: 6,
            jobs: 2,
            enumeration_time: ms(2),
            solve_time: ms(4),
            merge_time: ms(1),
            warm_solves: 10,
            warm_hits: 5,
            chain_rebuilds_avoided: 3,
            solver_iterations: 100,
            budget_exhausted: 1,
            journal_replayed: 4,
            interrupted: true,
        };
        a.merge(b);
        assert_eq!(a.candidates_skipped(), 3);
        assert_eq!(a.fallbacks_taken, 4);
        assert_eq!(a.worst_residual, Some(1e-10));
        assert_eq!(a.wall_time, ms(12));
        assert_eq!(a.candidates_pruned, 15);
        assert_eq!(a.cache_hits, 150);
        assert_eq!(a.cache_misses, 10);
        assert_eq!(a.jobs, 4, "worker count keeps the maximum");
        assert_eq!(a.enumeration_time, ms(3));
        assert_eq!(a.solve_time, ms(7));
        assert_eq!(a.merge_time, ms(2));
        assert_eq!(a.warm_solves, 30);
        assert_eq!(a.warm_hits, 20);
        assert_eq!(a.chain_rebuilds_avoided, 15);
        assert_eq!(a.solver_iterations, 1000);
        assert_eq!(a.budget_exhausted, 3);
        assert_eq!(a.journal_replayed, 13);
        assert!(a.interrupted, "interruption is sticky across merges");
    }

    #[test]
    fn absorbing_session_stats_accumulates_warm_counters() {
        let mut h = SearchHealth::default();
        h.absorb_session(&aved_avail::SessionStats {
            solves: 8,
            warm_hits: 6,
            iterations: 400,
            rebuilds_avoided: 7,
        });
        h.absorb_session(&aved_avail::SessionStats {
            solves: 2,
            warm_hits: 1,
            iterations: 100,
            rebuilds_avoided: 1,
        });
        assert_eq!(h.warm_solves, 10);
        assert_eq!(h.warm_hits, 7);
        assert_eq!(h.chain_rebuilds_avoided, 8);
        assert_eq!(h.solver_iterations, 500);
        assert!(!h.is_degraded(), "warm stats are not degradation");
    }

    #[test]
    fn display_summarizes_the_run() {
        let h = SearchHealth {
            skipped: skip(1),
            fallbacks_taken: 2,
            worst_residual: Some(1.5e-11),
            wall_time: std::time::Duration::from_millis(3),
            candidates_pruned: 7,
            cache_hits: 9,
            cache_misses: 3,
            jobs: 4,
            warm_solves: 12,
            warm_hits: 10,
            chain_rebuilds_avoided: 8,
            budget_exhausted: 3,
            journal_replayed: 6,
            interrupted: true,
            ..SearchHealth::default()
        };
        let s = h.to_string();
        assert!(s.contains("1 candidate(s) skipped"), "{s}");
        assert!(s.contains("2 solver fallback(s)"), "{s}");
        assert!(s.contains("1.50e-11"), "{s}");
        assert!(s.contains("7 pruned by cost"), "{s}");
        assert!(s.contains("cache 9/12 hit"), "{s}");
        assert!(s.contains("4 job(s)"), "{s}");
        assert!(s.contains("warm 10/12 hit"), "{s}");
        assert!(s.contains("8 rebuild(s) avoided"), "{s}");
        assert!(s.contains("3 budget-exhausted"), "{s}");
        assert!(s.contains("6 replayed from journal"), "{s}");
        assert!(s.contains("interrupted (best-so-far)"), "{s}");
    }

    #[test]
    fn interruption_alone_degrades_the_run() {
        let h = SearchHealth {
            interrupted: true,
            ..SearchHealth::default()
        };
        assert!(h.is_degraded());
        assert!(!SearchHealth::default().is_degraded());
    }

    #[test]
    fn equality_ignores_timing_and_workload_fields() {
        let a = SearchHealth {
            skipped: skip(1),
            fallbacks_taken: 2,
            worst_residual: Some(1e-12),
            ..SearchHealth::default()
        };
        let b = SearchHealth {
            wall_time: std::time::Duration::from_millis(99),
            candidates_pruned: 42,
            cache_hits: 7,
            cache_misses: 9,
            jobs: 8,
            solve_time: std::time::Duration::from_millis(50),
            warm_solves: 11,
            warm_hits: 6,
            ..a.clone()
        };
        assert_eq!(a, b, "same decisions, different workload: still equal");
    }
}
