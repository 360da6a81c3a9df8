//! Cooperative resource budgets and cancellation for solvers and
//! state-space exploration.
//!
//! A [`SolveBudget`] bounds how much wall-clock time and how many explored
//! states a computation may consume; a [`CancelToken`] lets an external
//! party (a signal handler, another thread) request that the computation
//! stop at its next checkpoint. Both are checked *cooperatively*: the hot
//! loops in the Gauss–Seidel and power solvers and the breadth-first
//! exploration frontier poll them at cheap intervals (every 64 sweeps,
//! every 256 dequeued states) so governance costs nothing measurable when
//! unlimited. This is the one budget type: the solvers' sweep caps are
//! their own configuration, and the fallback solver's per-attempt
//! wall-clock allowance is applied as a tighter deadline on a copy of the
//! caller's budget.
//!
//! Exhaustion is a first-class outcome, not a panic: the loop returns
//! [`MarkovError::BudgetExhausted`] naming the phase, the exhausted
//! resource and the progress made, or [`MarkovError::Cancelled`] when the
//! token fired. Callers route these through the same candidate-isolation
//! path as any other solve failure.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::MarkovError;

/// Which bounded resource a computation ran out of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BudgetResource {
    /// The wall-clock deadline passed.
    WallClock,
    /// The explored-state cap was reached.
    States,
}

impl std::fmt::Display for BudgetResource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetResource::WallClock => write!(f, "wall-clock"),
            BudgetResource::States => write!(f, "explored-states"),
        }
    }
}

/// A shared, thread-safe cancellation flag.
///
/// Cloning shares the flag: every clone observes a `cancel` from any
/// other. The token is async-signal-safe to set (a single atomic store),
/// so a SIGINT handler can fire it directly.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Every computation holding a clone of this
    /// token stops at its next cooperative checkpoint.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// `true` once [`cancel`](CancelToken::cancel) has been called.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// The raw flag, for wiring into contexts that can only store an
    /// `Arc<AtomicBool>` (e.g. a signal handler's static slot).
    #[must_use]
    pub fn flag(&self) -> &Arc<AtomicBool> {
        &self.flag
    }
}

impl PartialEq for CancelToken {
    /// Tokens are equal when they share the same underlying flag.
    fn eq(&self, other: &CancelToken) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag)
    }
}

/// A cooperative resource budget for one solve or exploration.
///
/// All limits are optional; the default budget is unlimited and costs
/// nothing. Budgets are cheap to clone (the only shared part is the
/// cancellation flag) and are threaded *by parameter*, not stored in the
/// `Copy` solver configs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveBudget {
    deadline: Option<Instant>,
    candidate_timeout: Option<Duration>,
    max_states: Option<usize>,
    cancel: Option<CancelToken>,
}

impl SolveBudget {
    /// An unlimited budget: no deadline, no caps, no cancellation.
    #[must_use]
    pub fn unlimited() -> SolveBudget {
        SolveBudget::default()
    }

    /// `true` when no limit and no cancellation token is set.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.candidate_timeout.is_none()
            && self.max_states.is_none()
            && self.cancel.is_none()
    }

    /// Sets an absolute wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> SolveBudget {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a per-candidate wall-clock allowance;
    /// [`for_candidate`](SolveBudget::for_candidate) converts it to a
    /// deadline when the candidate's evaluation starts.
    #[must_use]
    pub fn with_candidate_timeout(mut self, timeout: Duration) -> SolveBudget {
        self.candidate_timeout = Some(timeout);
        self
    }

    /// Caps the number of states a chain exploration may enumerate.
    #[must_use]
    pub fn with_max_states(mut self, max_states: usize) -> SolveBudget {
        self.max_states = Some(max_states);
        self
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> SolveBudget {
        self.cancel = Some(cancel);
        self
    }

    /// The absolute deadline, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The per-candidate wall-clock allowance, if any.
    #[must_use]
    pub fn candidate_timeout(&self) -> Option<Duration> {
        self.candidate_timeout
    }

    /// The explored-state cap, if any.
    #[must_use]
    pub fn max_states(&self) -> Option<usize> {
        self.max_states
    }

    /// The cancellation token, if any.
    #[must_use]
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Derives the budget governing one candidate's evaluation, converting
    /// the per-candidate timeout into an absolute deadline starting *now*
    /// and keeping whichever deadline (global or per-candidate) is sooner.
    /// A timeout reaching past the last representable instant sets no
    /// deadline.
    ///
    /// Without a per-candidate deadline this is `self`, borrowed: cloning
    /// it would bump its cancellation token's reference count on every
    /// evaluation.
    #[must_use]
    pub fn for_candidate(&self) -> Cow<'_, SolveBudget> {
        match self
            .candidate_timeout
            .and_then(|t| Instant::now().checked_add(t))
        {
            Some(deadline) => Cow::Owned(self.with_deadline_by(deadline)),
            None => Cow::Borrowed(self),
        }
    }

    /// This budget with its deadline moved up to `deadline` when that is
    /// sooner; every other limit is unchanged.
    pub(crate) fn with_deadline_by(&self, deadline: Instant) -> SolveBudget {
        let mut b = self.clone();
        b.deadline = Some(self.deadline.map_or(deadline, |d| d.min(deadline)));
        b
    }

    /// `true` once the cancellation token (if any) has fired.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// `true` once the deadline (if any) has passed.
    #[must_use]
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// One cooperative checkpoint: fails with [`MarkovError::Cancelled`]
    /// if the token fired, or [`MarkovError::BudgetExhausted`] if the
    /// deadline passed. `progress` is whatever unit the phase counts
    /// (sweeps, states) and lands in the diagnostic.
    ///
    /// # Errors
    ///
    /// Returns the corresponding [`MarkovError`] when a limit tripped.
    pub fn checkpoint(&self, phase: &'static str, progress: u64) -> Result<(), MarkovError> {
        if self.is_cancelled() {
            return Err(MarkovError::Cancelled { phase });
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(MarkovError::BudgetExhausted {
                    phase,
                    resource: BudgetResource::WallClock,
                    progress,
                    limit: 0,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited_and_always_passes() {
        let b = SolveBudget::unlimited();
        assert!(b.is_unlimited());
        assert!(!b.is_cancelled());
        assert!(!b.deadline_exceeded());
        b.checkpoint("solve", 42).unwrap();
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        assert_eq!(token, clone);
        assert_ne!(token, CancelToken::new());
    }

    #[test]
    fn cancelled_budget_fails_its_checkpoint() {
        let token = CancelToken::new();
        let b = SolveBudget::unlimited().with_cancel(token.clone());
        b.checkpoint("explore", 0).unwrap();
        token.cancel();
        assert!(matches!(
            b.checkpoint("explore", 7),
            Err(MarkovError::Cancelled { phase: "explore" })
        ));
    }

    #[test]
    fn past_deadline_fails_with_wall_clock_exhaustion() {
        let b = SolveBudget::unlimited().with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(b.deadline_exceeded());
        match b.checkpoint("gauss-seidel", 128) {
            Err(MarkovError::BudgetExhausted {
                phase,
                resource,
                progress,
                ..
            }) => {
                assert_eq!(phase, "gauss-seidel");
                assert_eq!(resource, BudgetResource::WallClock);
                assert_eq!(progress, 128);
            }
            other => panic!("expected wall-clock exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn for_candidate_takes_the_sooner_deadline() {
        let far = Instant::now() + Duration::from_secs(3600);
        let b = SolveBudget::unlimited()
            .with_deadline(far)
            .with_candidate_timeout(Duration::from_millis(1));
        let per = b.for_candidate();
        assert!(per.deadline().unwrap() < far);
        // Without a timeout the deadline is untouched, and the budget is
        // lent, not copied.
        let plain = SolveBudget::unlimited().with_deadline(far);
        assert!(matches!(plain.for_candidate(), Cow::Borrowed(b) if b.deadline() == Some(far)));
    }

    #[test]
    fn unrepresentable_candidate_timeout_sets_no_deadline() {
        let b = SolveBudget::unlimited().with_candidate_timeout(Duration::MAX);
        assert_eq!(b.for_candidate().deadline(), None);
        let far = Instant::now() + Duration::from_secs(3600);
        let global = b.with_deadline(far);
        assert_eq!(global.for_candidate().deadline(), Some(far));
    }

    #[test]
    fn budgets_compare_by_limits_and_shared_token() {
        let token = CancelToken::new();
        let a = SolveBudget::unlimited()
            .with_max_states(10)
            .with_cancel(token.clone());
        let b = SolveBudget::unlimited()
            .with_max_states(10)
            .with_cancel(token);
        assert_eq!(a, b);
        let c = SolveBudget::unlimited()
            .with_max_states(10)
            .with_cancel(CancelToken::new());
        assert_ne!(a, c);
    }

    #[test]
    fn resources_render_distinct_names() {
        let names: Vec<String> = [BudgetResource::WallClock, BudgetResource::States]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(names, ["wall-clock", "explored-states"]);
    }
}
