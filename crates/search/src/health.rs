//! Degraded-mode accounting for searches.
//!
//! A search that survives engine failures is only trustworthy if it says
//! *how much* it survived: which candidates were dropped, how often the
//! steady-state solver had to fall back, and how sloppy the worst accepted
//! solution was. [`SearchHealth`] is that report. Every search entry point
//! produces one; a clean run has zero skips, zero fallbacks and no
//! residual worth mentioning.

use aved_avail::{worse_residual, EvalHealth, SessionStats};
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
/// and how the work got done — availability models evaluated, candidates
/// pruned by cost dominance, and per-phase wall-clock time.
///
/// Equality ignores the timing and workload fields (`wall_time`, the phase
/// times, `jobs`, model and pruning counters): two runs that made the same
/// decisions are equal even though their timing is never reproducible.
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
    /// Candidates never evaluated because they cannot be in the answer: in
    /// a search, those costing more than a known-feasible design; in a
    /// service query
    /// ([`search_service_with_health`](crate::search_service_with_health)),
    /// those above their tier's cost cap and those left once the query was
    /// proved infeasible. A candidate skipped this way and evaluated later
    /// in the same query is not counted.
    pub candidates_pruned: u64,
    /// Availability designs whose tier model was derived and evaluated:
    /// one per distinct model the sweep needed, however many candidates
    /// share it.
    pub models_evaluated: u64,
    /// Candidates scored from an evaluated availability design (neither
    /// pruned, replayed from a journal, nor skipped).
    pub candidates_scored: u64,
    /// Inert: one for every search, which runs on the calling thread, and
    /// zero in a report no search produced. Kept for callers that read it.
    pub jobs: usize,
    /// Wall-clock time spent enumerating candidates.
    pub enumeration_time: std::time::Duration,
    /// Wall-clock time spent evaluating availability models.
    pub solve_time: std::time::Duration,
    /// Wall-clock time spent scoring candidates from their models,
    /// merging results and selecting designs.
    pub merge_time: std::time::Duration,
    /// The sweeps' evaluation-session counters, summed: solves, warm
    /// hits, iterations, rebuilds avoided and class results replayed.
    pub session: SessionStats,
    /// Candidates abandoned because a per-candidate resource budget ran
    /// out (wall-clock deadline or explored-state cap). Each is also
    /// recorded in `skipped` with a diagnostic naming the exhausted
    /// resource.
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

    /// Folds the health of one successful evaluation that `candidates`
    /// candidates share into this report: each counts its fallbacks.
    pub fn absorb_eval(&mut self, eval: EvalHealth, candidates: u64) {
        self.fallbacks_taken += u64::from(eval.fallbacks) * candidates;
        self.worst_residual = worse_residual(self.worst_residual, eval.worst_residual);
    }

    /// Folds another search's health into this one (used when a service
    /// search aggregates its per-tier frontier sweeps). Wall and phase
    /// times add, counters add, `jobs` keeps the maximum.
    pub fn merge(&mut self, other: SearchHealth) {
        self.skipped.extend(other.skipped);
        self.fallbacks_taken += other.fallbacks_taken;
        self.worst_residual = worse_residual(self.worst_residual, other.worst_residual);
        self.wall_time += other.wall_time;
        self.candidates_pruned += other.candidates_pruned;
        self.models_evaluated += other.models_evaluated;
        self.candidates_scored += other.candidates_scored;
        self.jobs = self.jobs.max(other.jobs);
        self.enumeration_time += other.enumeration_time;
        self.solve_time += other.solve_time;
        self.merge_time += other.merge_time;
        self.session.absorb(&other.session);
        self.budget_exhausted += other.budget_exhausted;
        self.journal_replayed += other.journal_replayed;
        self.interrupted |= other.interrupted;
    }

    /// Folds one evaluation session's accumulated statistics into this
    /// report (called once per sweep when a search finishes).
    pub fn absorb_session(&mut self, stats: &SessionStats) {
        self.session.absorb(stats);
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
        if self.candidates_scored > 0 {
            write!(
                f,
                ", models {} / {}",
                self.models_evaluated, self.candidates_scored
            )?;
        }
        let session = &self.session;
        if session.solves > 0 {
            write!(
                f,
                ", warm {}/{} hit, {} rebuild(s) avoided",
                session.warm_hits, session.solves, session.rebuilds_avoided
            )?;
        }
        if session.class_hits > 0 {
            write!(f, ", {} class result(s) reused", session.class_hits)?;
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
        let shared = EvalHealth {
            fallbacks: 2,
            worst_residual: Some(1e-12),
        };
        h.absorb_eval(shared, 3);
        h.absorb_eval(
            EvalHealth {
                fallbacks: 0,
                worst_residual: Some(3e-11),
            },
            1,
        );
        assert_eq!(h.fallbacks_taken, 6, "each candidate counts the fallbacks");
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
            models_evaluated: 12,
            candidates_scored: 400,
            jobs: 0,
            enumeration_time: ms(1),
            solve_time: ms(3),
            merge_time: ms(1),
            session: SessionStats {
                solves: 20,
                warm_hits: 15,
                iterations: 900,
                rebuilds_avoided: 12,
                class_hits: 30,
            },
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
            models_evaluated: 6,
            candidates_scored: 200,
            jobs: 1,
            enumeration_time: ms(2),
            solve_time: ms(4),
            merge_time: ms(1),
            session: SessionStats {
                solves: 10,
                warm_hits: 5,
                iterations: 100,
                rebuilds_avoided: 3,
                class_hits: 8,
            },
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
        assert_eq!(a.models_evaluated, 18);
        assert_eq!(a.candidates_scored, 600);
        assert_eq!(a.jobs, 1, "a merge of searches reads one job");
        assert_eq!(a.enumeration_time, ms(3));
        assert_eq!(a.solve_time, ms(7));
        assert_eq!(a.merge_time, ms(2));
        assert_eq!(
            a.session,
            SessionStats {
                solves: 30,
                warm_hits: 20,
                iterations: 1000,
                rebuilds_avoided: 15,
                class_hits: 38,
            }
        );
        assert_eq!(a.budget_exhausted, 3);
        assert_eq!(a.journal_replayed, 13);
        assert!(a.interrupted, "interruption is sticky across merges");
    }

    #[test]
    fn absorbing_session_stats_accumulates_warm_counters() {
        let mut h = SearchHealth::default();
        h.absorb_session(&SessionStats {
            solves: 8,
            warm_hits: 6,
            iterations: 400,
            rebuilds_avoided: 7,
            class_hits: 24,
        });
        h.absorb_session(&SessionStats {
            solves: 2,
            warm_hits: 1,
            iterations: 100,
            rebuilds_avoided: 1,
            class_hits: 3,
        });
        assert_eq!(
            h.session,
            SessionStats {
                solves: 10,
                warm_hits: 7,
                iterations: 500,
                rebuilds_avoided: 8,
                class_hits: 27,
            }
        );
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
            models_evaluated: 4,
            candidates_scored: 40,
            jobs: 1,
            session: SessionStats {
                solves: 12,
                warm_hits: 10,
                rebuilds_avoided: 8,
                class_hits: 5,
                ..SessionStats::default()
            },
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
        assert!(s.contains("models 4 / 40"), "{s}");
        assert!(!s.contains("cache"), "{s}");
        assert!(!s.contains("job(s)"), "{s}");
        assert!(s.contains("warm 10/12 hit"), "{s}");
        assert!(s.contains("8 rebuild(s) avoided"), "{s}");
        assert!(s.contains("5 class result(s) reused"), "{s}");
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
            models_evaluated: 3,
            candidates_scored: 30,
            jobs: 8,
            solve_time: std::time::Duration::from_millis(50),
            session: SessionStats {
                solves: 11,
                warm_hits: 6,
                class_hits: 4,
                ..SessionStats::default()
            },
            ..a.clone()
        };
        assert_eq!(a, b, "same decisions, different workload: still equal");
    }
}
