//! Exporting availability models for external evaluation engines.
//!
//! The paper's Aved "generates representations of this availability model
//! that can be used with Avanto and our own simplified Markov Model (this
//! can be easily translated to work with other engines)". This module
//! provides that interoperability surface:
//!
//! * [`export_parameters`] — the §4.2 parameter list (n, m, s, and per
//!   failure mode the MTBF, MTTR and failover time) as a human-readable
//!   document, the lingua franca any availability tool can consume;
//! * [`export_sharpe_markov`] — the fully-expanded tier CTMC in the style
//!   of SHARPE's `markov` input format (state list, transition rates, and
//!   the down-state reward), ready to feed a classical evaluator.

use std::fmt::Write as _;

use aved_markov::{ExploreScratch, SolveBudget};

use crate::{AvailError, CtmcEngine, TierModel};

/// Renders the §4.2 availability-model parameter list.
///
/// # Examples
///
/// ```
/// use aved_avail::{export_parameters, FailureClass, TierModel};
/// use aved_units::Duration;
///
/// let model = TierModel::new(2, 2, 1).with_class(FailureClass::new(
///     "machineA/hard",
///     Duration::from_days(650.0).rate(),
///     Duration::from_hours(38.0),
///     Duration::from_mins(5.0),
///     true,
/// ));
/// let doc = export_parameters(&model);
/// assert!(doc.contains("n = 2"));
/// assert!(doc.contains("machineA/hard"));
/// ```
#[must_use]
pub fn export_parameters(model: &TierModel) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\\\\ Aved tier availability model (paper section 4.2)");
    let _ = writeln!(out, "n = {}  \\\\ active resources", model.n());
    let _ = writeln!(
        out,
        "m = {}  \\\\ minimum active for the tier to be up",
        model.m()
    );
    let _ = writeln!(out, "s = {}  \\\\ spare resources", model.s());
    let _ = writeln!(
        out,
        "spares_exposed = {}",
        if model.spares_exposed() { "yes" } else { "no" }
    );
    let _ = writeln!(out, "failure_modes = {}", model.classes().len());
    for class in model.classes() {
        let _ = writeln!(out, "failure_mode={}", class.label());
        let _ = writeln!(out, "  mtbf={}", class.rate().mean_time());
        let _ = writeln!(out, "  mttr={}", class.mttr());
        let _ = writeln!(out, "  failover_time={}", class.failover_time());
        let _ = writeln!(
            out,
            "  failover={}",
            if class.uses_failover() { "yes" } else { "no" }
        );
    }
    out
}

/// Renders the expanded tier chain in the style of SHARPE's `markov`
/// format: one `S<i> S<j> <rate>` line per transition (rates per hour),
/// and a trailing reward block assigning 1 to down states — so computing
/// the expected steady-state reward in the external tool yields the
/// unavailability directly.
///
/// The chain is expanded by the given engine (its truncation depth
/// applies). State `S0` is the all-up state.
///
/// # Errors
///
/// Returns [`AvailError`] for inconsistent models.
pub fn export_sharpe_markov(engine: &CtmcEngine, model: &TierModel) -> Result<String, AvailError> {
    model.check()?;
    let explored =
        engine.explore_chain(model, &mut ExploreScratch::new(), &SolveBudget::unlimited())?;
    let ctmc = explored.ctmc();
    let down = engine.down_mask(model, &explored);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "* Aved tier model: n={} m={} s={}",
        model.n(),
        model.m(),
        model.s()
    );
    let _ = writeln!(
        out,
        "* {} states, {} transitions; rates per hour",
        ctmc.n_states(),
        ctmc.n_transitions()
    );
    let _ = writeln!(out, "markov tier");
    for t in ctmc.transitions() {
        let _ = writeln!(out, "S{} S{} {:.12e}", t.from, t.to, t.rate);
    }
    let _ = writeln!(out, "reward");
    for (i, &d) in down.iter().enumerate() {
        if d {
            let _ = writeln!(out, "S{i} 1.0");
        }
    }
    let _ = writeln!(out, "end");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FailureClass;
    use aved_units::Duration;

    fn model() -> TierModel {
        TierModel::new(2, 2, 1)
            .with_class(FailureClass::new(
                "hw/hard",
                Duration::from_days(650.0).rate(),
                Duration::from_hours(38.0),
                Duration::from_mins(5.0),
                true,
            ))
            .with_class(FailureClass::new(
                "os/soft",
                Duration::from_days(60.0).rate(),
                Duration::from_mins(4.0),
                Duration::from_mins(5.0),
                false,
            ))
    }

    #[test]
    fn parameters_document_lists_everything() {
        let doc = export_parameters(&model());
        for needle in [
            "n = 2",
            "m = 2",
            "s = 1",
            "failure_modes = 2",
            "failure_mode=hw/hard",
            "mtbf=650d",
            "mttr=38",
            "failover=yes",
            "failure_mode=os/soft",
            "failover=no",
        ] {
            assert!(doc.contains(needle), "missing {needle:?} in:\n{doc}");
        }
    }

    #[test]
    fn sharpe_export_has_consistent_structure() {
        let engine = CtmcEngine::default();
        let text = export_sharpe_markov(&engine, &model()).unwrap();
        assert!(text.contains("markov tier"));
        assert!(text.contains("reward"));
        assert!(text.trim_end().ends_with("end"));
        // Transition count in the header matches the body.
        let n_transitions = text
            .lines()
            .filter(|l| l.starts_with('S') && l.split_whitespace().count() == 3)
            .filter(|l| l.split_whitespace().nth(2).unwrap().contains('e'))
            .count();
        let explored = engine
            .explore_chain(
                &model(),
                &mut ExploreScratch::new(),
                &SolveBudget::unlimited(),
            )
            .unwrap();
        assert_eq!(n_transitions, explored.ctmc().n_transitions());
        // At least one down state is rewarded (the failover transient).
        let reward_lines = text
            .lines()
            .skip_while(|l| *l != "reward")
            .skip(1)
            .take_while(|l| *l != "end")
            .count();
        assert!(reward_lines > 0);
    }

    #[test]
    fn export_rejects_invalid_models() {
        let engine = CtmcEngine::default();
        let bad = TierModel::new(1, 1, 0); // no classes
        assert!(export_sharpe_markov(&engine, &bad).is_err());
    }
}
