//! Human-readable design reports: what was selected, what it costs, and
//! which failure modes drive the remaining downtime.

use std::fmt::Write as _;

use aved_avail::{derive_tier_model, DecompositionEngine, TierAvailability};
use aved_model::{tier_design_cost, Infrastructure, Service, TierDesign};
use aved_search::SearchError;
use aved_units::MINUTES_PER_YEAR;

use crate::DesignReport;

/// Renders a multi-section text report for a completed design: per tier,
/// the configuration, the itemized cost, and the per-failure-class
/// downtime contributions (largest first) that explain where the residual
/// downtime comes from. Each tier's model is derived with the performance
/// minimum the search used ([`DesignReport::min_for_perf`]), and its
/// classes are evaluated by the default decomposition engine, so under
/// that engine a tier's contributions sum to the tier's downtime.
///
/// # Errors
///
/// Returns [`SearchError`] if the design references entities missing from
/// the models (it should not, for reports produced by
/// [`Aved::design`](crate::Aved::design) with the same inputs).
///
/// # Examples
///
/// ```
/// use aved::{Aved, ServiceRequirement, scenario};
/// use aved::units::Duration;
///
/// let infrastructure = scenario::infrastructure()?;
/// let service = scenario::ecommerce()?;
/// let aved = Aved::new(infrastructure.clone()).with_catalog(scenario::catalog());
/// let req = ServiceRequirement::enterprise(400.0, Duration::from_mins(500.0));
/// let report = aved.design(&service, &req)?.expect("satisfiable");
/// let text = aved::explain_design(&infrastructure, &service, &report)?;
/// assert!(text.contains("downtime contributions"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn explain_design(
    infrastructure: &Infrastructure,
    service: &Service,
    report: &DesignReport,
) -> Result<String, SearchError> {
    let mut out = String::new();
    let _ = writeln!(out, "== Aved design report ==");
    let _ = writeln!(out, "total annual cost: {}", report.cost());
    if let Some(dt) = report.annual_downtime() {
        let _ = writeln!(out, "expected annual downtime: {:.2} min", dt.minutes());
    }
    if let Some(t) = report.expected_job_time() {
        let _ = writeln!(out, "expected job completion: {:.2} h", t.hours());
    }
    for (td, &min_for_perf) in report.design().tiers().iter().zip(report.min_for_perf()) {
        explain_tier(&mut out, infrastructure, service, td, min_for_perf)?;
    }
    Ok(out)
}

fn explain_tier(
    out: &mut String,
    infrastructure: &Infrastructure,
    service: &Service,
    td: &TierDesign,
    min_for_perf: u32,
) -> Result<(), SearchError> {
    let _ = writeln!(out, "\n-- {td}");
    let cost = tier_design_cost(infrastructure, td)?;
    let _ = writeln!(
        out,
        "   cost: active {} + spares {} + mechanisms {} = {}",
        cost.active_components,
        cost.spare_components,
        cost.mechanisms,
        cost.total()
    );

    // The availability model needs the tier's option for sizing/scope; if
    // the tier is absent from the service (hand-built design), skip the
    // availability section rather than fail.
    let Some(parts) = tier_contributions(infrastructure, service, td, min_for_perf)? else {
        return Ok(());
    };
    let total: f64 = parts.iter().map(|(_, r)| r.unavailability()).sum();
    let _ = writeln!(out, "   downtime contributions (m = {min_for_perf}):");
    for (label, r) in &parts {
        let minutes = r.unavailability() * MINUTES_PER_YEAR;
        let share = if total > 0.0 {
            100.0 * r.unavailability() / total
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "     {label:<24} {minutes:>10.2} min/yr  ({share:>5.1}%)"
        );
    }
    Ok(())
}

/// Each failure class's availability in `td`'s tier model derived with
/// `min_for_perf`, evaluated alone by the decomposition engine, largest
/// unavailability first; `None` when the service has no such tier or
/// option.
fn tier_contributions(
    infrastructure: &Infrastructure,
    service: &Service,
    td: &TierDesign,
    min_for_perf: u32,
) -> Result<Option<Vec<(String, TierAvailability)>>, SearchError> {
    let Some(option) = service
        .tier(td.tier().as_str())
        .and_then(|tier| tier.option_for(td.resource().as_str()))
    else {
        return Ok(None);
    };
    let model = derive_tier_model(
        infrastructure,
        td,
        option.sizing(),
        option.failure_scope(),
        min_for_perf,
    )?;
    let mut parts = DecompositionEngine::default().per_class(&model)?;
    parts.sort_by(|a, b| b.1.unavailability().total_cmp(&a.1.unavailability()));
    Ok(Some(parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;
    use crate::{Aved, SearchOptions, ServiceRequirement};
    use aved_units::Duration;

    #[test]
    fn report_names_dominant_failure_mode() {
        let infrastructure = scenario::infrastructure().unwrap();
        let service = scenario::ecommerce().unwrap();
        let aved = Aved::new(infrastructure.clone())
            .with_catalog(scenario::catalog())
            .with_search_options(SearchOptions {
                max_extra_active: 1,
                max_spares: 1,
                ..SearchOptions::default()
            });
        let req = ServiceRequirement::enterprise(400.0, Duration::from_mins(3000.0));
        let report = aved.design(&service, &req).unwrap().unwrap();
        let text = explain_design(&infrastructure, &service, &report).unwrap();
        // Every tier appears with a cost line and a contributions table.
        for tier in ["web", "application", "database"] {
            assert!(text.contains(tier), "missing {tier} in:\n{text}");
        }
        assert!(text.contains("downtime contributions"));
        // The bronze-contract hardware repair dominates somewhere.
        assert!(text.contains("/hard"));
        assert!(text.contains('%'));
    }

    #[test]
    fn each_tiers_contributions_sum_to_its_downtime() {
        // At load 1000 the application tier runs more servers than the
        // load needs, so a model derived with m = n would overstate its
        // downtime many times over.
        let infrastructure = scenario::infrastructure().unwrap();
        let service = scenario::ecommerce().unwrap();
        let catalog = scenario::catalog();
        let (load, budget) = (1000.0, Duration::from_mins(100.0));
        let aved = Aved::new(infrastructure.clone()).with_catalog(catalog.clone());
        let req = ServiceRequirement::enterprise(load, budget);
        let report = aved.design(&service, &req).unwrap().expect("feasible");
        let engine = DecompositionEngine::default();
        let ctx = aved_search::EvalContext::new(&infrastructure, &service, &catalog, &engine);
        let options = SearchOptions::default();
        let found = aved_search::search_service_with_health(&ctx, load, budget, &options)
            .unwrap()
            .0
            .expect("feasible");
        assert_eq!(report.design(), &found.to_design());
        let mut redundant = 0;
        for (tier, &m) in found.tiers().iter().zip(report.min_for_perf()) {
            assert_eq!(m, tier.min_for_perf(), "{}", tier.design());
            redundant += usize::from(m < tier.design().n_active());
            let parts = tier_contributions(&infrastructure, &service, tier.design(), m)
                .unwrap()
                .expect("the tier is in the service");
            let sum: f64 = parts.iter().map(|(_, r)| r.unavailability()).sum();
            let downtime = tier.availability().unavailability();
            assert!(
                (sum - downtime).abs() <= 1e-12 * downtime,
                "{}: contributions sum to {sum}, tier downtime {downtime}",
                tier.design()
            );
        }
        assert!(redundant > 0, "no tier runs above its performance minimum");
        let text = explain_design(&infrastructure, &service, &report).unwrap();
        assert!(!text.contains("worst case"), "{text}");
    }

    #[test]
    fn report_survives_designs_for_unknown_tiers() {
        let infrastructure = scenario::infrastructure().unwrap();
        let service = scenario::ecommerce().unwrap();
        let report = DesignReport::for_tests(
            aved_model::Design::new(vec![aved_model::TierDesign::new("ghost", "rC", 1, 0)
                .with_setting(
                    "maintenanceA",
                    "level",
                    aved_model::ParamValue::Level("bronze".into()),
                )]),
            aved_units::Money::from_dollars(1.0),
        );
        let text = explain_design(&infrastructure, &service, &report).unwrap();
        assert!(text.contains("ghost"));
        assert!(!text.contains("downtime contributions"));
    }
}
