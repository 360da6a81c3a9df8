//! Search-level errors.

use std::error::Error;
use std::fmt;

/// Error produced during design-space search.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SearchError {
    /// The service model has no tier with the requested name.
    UnknownTier {
        /// The missing tier name.
        tier: String,
    },
    /// The requirement kind does not match the service kind (e.g. a job
    /// requirement for an enterprise service).
    RequirementMismatch {
        /// Explanation.
        detail: String,
    },
    /// A symbolic performance reference could not be resolved.
    Catalog(aved_perf::CatalogError),
    /// Availability evaluation failed.
    Avail(aved_avail::AvailError),
    /// The design-space model is inconsistent.
    Model(aved_model::ModelError),
    /// An evaluation produced a NaN or infinite metric — a silently-wrong
    /// engine result that must never reach a frontier comparison.
    NonFiniteEvaluation {
        /// Which metric was non-finite, and its value.
        detail: String,
    },
}

impl SearchError {
    /// `true` when the error condemns only the candidate being evaluated
    /// (an engine failure or a non-finite result) rather than the whole
    /// search (an unknown tier, an unresolvable reference, an inconsistent
    /// model — which would fail every candidate identically).
    ///
    /// Non-strict searches skip candidates with candidate-scoped errors
    /// and record them in their `SearchHealth` report.
    #[must_use]
    pub fn is_candidate_scoped(&self) -> bool {
        matches!(
            self,
            SearchError::Avail(_) | SearchError::NonFiniteEvaluation { .. }
        )
    }

    /// `true` when the error reports a cooperative cancellation (a
    /// [`CancelToken`](aved_avail::CancelToken) fired mid-evaluation).
    /// Cancellation condemns nothing: the search stops cleanly with its
    /// best-so-far result instead of recording a skipped candidate.
    #[must_use]
    pub fn is_cancellation(&self) -> bool {
        matches!(
            self,
            SearchError::Avail(aved_avail::AvailError::Markov(
                aved_markov::MarkovError::Cancelled { .. }
            ))
        )
    }

    /// `true` when the error reports a per-candidate resource budget
    /// running out (wall-clock deadline or explored-state cap — see
    /// [`SolveBudget`](aved_avail::SolveBudget)). Candidate-scoped: the
    /// candidate is skipped and counted, the sweep continues.
    #[must_use]
    pub fn is_budget_exhaustion(&self) -> bool {
        matches!(
            self,
            SearchError::Avail(aved_avail::AvailError::Markov(
                aved_markov::MarkovError::BudgetExhausted { .. }
            ))
        )
    }
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::UnknownTier { tier } => write!(f, "service has no tier named {tier}"),
            SearchError::RequirementMismatch { detail } => {
                write!(f, "requirement mismatch: {detail}")
            }
            SearchError::Catalog(e) => write!(f, "catalog error: {e}"),
            SearchError::Avail(e) => write!(f, "availability error: {e}"),
            SearchError::Model(e) => write!(f, "model error: {e}"),
            SearchError::NonFiniteEvaluation { detail } => {
                write!(f, "evaluation produced a non-finite metric: {detail}")
            }
        }
    }
}

impl Error for SearchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SearchError::Catalog(e) => Some(e),
            SearchError::Avail(e) => Some(e),
            SearchError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<aved_perf::CatalogError> for SearchError {
    fn from(e: aved_perf::CatalogError) -> SearchError {
        SearchError::Catalog(e)
    }
}

impl From<aved_avail::AvailError> for SearchError {
    fn from(e: aved_avail::AvailError) -> SearchError {
        SearchError::Avail(e)
    }
}

impl From<aved_model::ModelError> for SearchError {
    fn from(e: aved_model::ModelError) -> SearchError {
        SearchError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        assert!(SearchError::UnknownTier { tier: "db".into() }
            .to_string()
            .contains("db"));
        let e: SearchError = aved_avail::AvailError::InvalidModel { detail: "x".into() }.into();
        assert!(Error::source(&e).is_some());
        let e: SearchError = aved_model::ModelError::Invalid { detail: "y".into() }.into();
        assert!(Error::source(&e).is_some());
        let e = SearchError::NonFiniteEvaluation {
            detail: "cost = NaN".into(),
        };
        assert!(e.to_string().contains("non-finite"));
        assert!(Error::source(&e).is_none());
    }

    #[test]
    fn candidate_scoped_errors_are_engine_and_nonfinite_failures() {
        let engine: SearchError =
            aved_avail::AvailError::InvalidModel { detail: "x".into() }.into();
        assert!(engine.is_candidate_scoped());
        assert!(SearchError::NonFiniteEvaluation { detail: "x".into() }.is_candidate_scoped());
        assert!(!SearchError::UnknownTier { tier: "db".into() }.is_candidate_scoped());
        let model: SearchError = aved_model::ModelError::Invalid { detail: "y".into() }.into();
        assert!(!model.is_candidate_scoped());
    }
}
