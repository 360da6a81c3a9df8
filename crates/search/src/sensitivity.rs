//! Sensitivity analysis: how robust is the selected design to errors in
//! the failure-rate inputs?
//!
//! The paper concedes that its software failure rates "were estimated
//! based on the authors' intuition, since this data was not readily
//! available", and its future work proposes refining models from online
//! monitoring. This module quantifies the exposure: it re-runs the design
//! search under scaled MTBFs and reports whether — and how — the optimal
//! design changes.

use aved_model::{ComponentType, FailureMode, Infrastructure};
use aved_units::{Duration, Money};

use crate::{search_tier, EvalContext, SearchError, SearchOptions};

/// The outcome of one perturbed design run.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityRow {
    /// The factor every MTBF was multiplied by (0.5 = twice the failures).
    pub mtbf_scale: f64,
    /// The optimal design's cost under the perturbation (`None` when the
    /// requirement became infeasible).
    pub cost: Option<Money>,
    /// The optimal design's expected downtime under the perturbation.
    pub annual_downtime: Option<Duration>,
    /// Whether the selected design (resource, counts, settings) is
    /// identical to the baseline's.
    pub same_design_as_baseline: bool,
}

/// Returns a copy of the infrastructure with every failure mode's MTBF
/// multiplied by `factor` (components' other attributes, mechanisms and
/// resources are unchanged).
///
/// # Panics
///
/// Panics if `factor` is not positive.
#[must_use]
pub fn scale_mtbfs(infrastructure: &Infrastructure, factor: f64) -> Infrastructure {
    assert!(factor > 0.0, "MTBF scale factor must be positive");
    let mut out = Infrastructure::new();
    for mech in infrastructure.mechanisms() {
        out = out.with_mechanism(mech.clone());
    }
    for resource in infrastructure.resources() {
        out = out.with_resource(resource.clone());
    }
    for component in infrastructure.components() {
        let mut rebuilt = ComponentType::new(component.name().clone())
            .with_costs(component.cost_inactive(), component.cost_active());
        if let Some(max) = component.max_instances() {
            rebuilt = rebuilt.with_max_instances(max);
        }
        if let Some(lw) = component.loss_window() {
            rebuilt = rebuilt.with_loss_window(lw.clone());
        }
        for mode in component.failure_modes() {
            // Literal MTBFs scale; mechanism-delegated ones are left to the
            // mechanism's own tables.
            let mtbf = match mode.mtbf_spec() {
                aved_model::DurationSpec::Fixed(d) => aved_model::DurationSpec::Fixed(*d * factor),
                delegated @ aved_model::DurationSpec::FromMechanism(_) => delegated.clone(),
            };
            rebuilt = rebuilt.with_failure_mode(FailureMode::new(
                mode.name(),
                mtbf,
                mode.repair().clone(),
                mode.detect_time(),
            ));
        }
        out = out.with_component(rebuilt);
    }
    out
}

/// Runs the tier search at each MTBF scale and compares against the
/// unscaled baseline.
///
/// The rows come back in the order of `scales`; a scale of exactly `1.0`
/// reproduces the baseline. The context's engine and catalog are reused;
/// only the infrastructure is perturbed.
///
/// # Errors
///
/// Returns [`SearchError`] for model or evaluation failures (infeasibility
/// under a perturbation is reported in the row, not as an error).
pub fn mtbf_sensitivity(
    ctx: &EvalContext<'_>,
    tier_name: &str,
    load: f64,
    max_downtime: Duration,
    options: &SearchOptions,
    scales: &[f64],
) -> Result<Vec<SensitivityRow>, SearchError> {
    let baseline = search_tier(ctx, tier_name, load, max_downtime, options)?;
    let baseline_design = baseline.best().map(|e| e.design().clone());

    let mut rows = Vec::with_capacity(scales.len());
    for &scale in scales {
        let perturbed = scale_mtbfs(ctx.infrastructure(), scale);
        let pctx = EvalContext::new(&perturbed, ctx.service(), ctx.catalog(), ctx.engine());
        let outcome = search_tier(&pctx, tier_name, load, max_downtime, options)?;
        let same = match (&baseline_design, outcome.best()) {
            (Some(b), Some(e)) => e.design() == b,
            (None, None) => true,
            _ => false,
        };
        rows.push(SensitivityRow {
            mtbf_scale: scale,
            cost: outcome.best().map(crate::EvaluatedDesign::cost),
            annual_downtime: outcome.best().map(crate::EvaluatedDesign::annual_downtime),
            same_design_as_baseline: same,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::app_tier_fixture;
    use crate::CachingEngine;
    use aved_avail::DecompositionEngine;

    fn opts() -> SearchOptions {
        SearchOptions {
            max_extra_active: 2,
            max_spares: 1,
            ..SearchOptions::default()
        }
    }

    #[test]
    fn scaling_mtbfs_rescales_failure_modes_only() {
        let fx = app_tier_fixture();
        let scaled = scale_mtbfs(&fx.infrastructure, 2.0);
        let orig = fx.infrastructure.component("machineA").unwrap();
        let new = scaled.component("machineA").unwrap();
        for (o, n) in orig.failure_modes().iter().zip(new.failure_modes()) {
            assert_eq!(n.mtbf().unwrap(), o.mtbf().unwrap() * 2.0);
            assert_eq!(n.detect_time(), o.detect_time());
            assert_eq!(n.repair(), o.repair());
        }
        assert_eq!(new.cost_active(), orig.cost_active());
        assert_eq!(
            scaled.mechanisms().count(),
            fx.infrastructure.mechanisms().count()
        );
        assert_eq!(
            scaled.resources().count(),
            fx.infrastructure.resources().count()
        );
        scaled.validate().unwrap();
    }

    #[test]
    fn unit_scale_reproduces_baseline() {
        let fx = app_tier_fixture();
        let inner = DecompositionEngine::default();
        let engine = CachingEngine::new(&inner);
        let ctx = fx.context(&engine);
        let rows = mtbf_sensitivity(
            &ctx,
            "application",
            800.0,
            Duration::from_mins(500.0),
            &opts(),
            &[1.0],
        )
        .unwrap();
        assert!(rows[0].same_design_as_baseline);
    }

    #[test]
    fn worse_mtbfs_never_reduce_cost() {
        let fx = app_tier_fixture();
        let inner = DecompositionEngine::default();
        let engine = CachingEngine::new(&inner);
        let ctx = fx.context(&engine);
        let rows = mtbf_sensitivity(
            &ctx,
            "application",
            800.0,
            Duration::from_mins(200.0),
            &opts(),
            &[0.25, 1.0, 4.0],
        )
        .unwrap();
        let cost = |i: usize| rows[i].cost.expect("feasible").dollars();
        assert!(cost(0) >= cost(1), "more failures should not be cheaper");
        assert!(cost(2) <= cost(1), "fewer failures should not be dearer");
        // And the perturbed optima still meet the requirement.
        for row in &rows {
            assert!(row.annual_downtime.unwrap() <= Duration::from_mins(200.0));
        }
    }

    #[test]
    fn large_perturbations_change_the_design() {
        // Quadrupled failure rates under a tight budget force a different
        // (more redundant or better-maintained) design family.
        let fx = app_tier_fixture();
        let inner = DecompositionEngine::default();
        let engine = CachingEngine::new(&inner);
        let ctx = fx.context(&engine);
        let rows = mtbf_sensitivity(
            &ctx,
            "application",
            800.0,
            Duration::from_mins(100.0),
            &opts(),
            &[0.25],
        )
        .unwrap();
        assert!(!rows[0].same_design_as_baseline);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_panics() {
        let fx = app_tier_fixture();
        let _ = scale_mtbfs(&fx.infrastructure, 0.0);
    }
}
