//! The paper's application-tier example (§5.1): optimal design families
//! across load and availability requirements, and the cost of availability.
//!
//! Prints a compact version of the data behind the paper's Fig. 6 (which
//! design family is optimal where) and Fig. 8 (the extra annual cost of
//! availability as the downtime requirement tightens).
//!
//! Run with: `cargo run --release -p aved --example ecommerce_tradeoff`

use aved::avail::DecompositionEngine;
use aved::scenario;
use aved::search::{tier_pareto_frontier, CachingEngine, EvalContext, SearchOptions};
use aved::units::Money;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let infrastructure = scenario::infrastructure()?;
    let service = scenario::ecommerce()?;
    let catalog = scenario::catalog();
    let inner = DecompositionEngine::default();
    let engine = CachingEngine::new(&inner);
    let ctx = EvalContext::new(&infrastructure, &service, &catalog, &engine);
    let options = SearchOptions::default();

    println!("== Cost/downtime frontier of the application tier (Fig. 6 data) ==\n");
    for load in [400.0, 1000.0, 1600.0, 3200.0] {
        println!("load = {load} units:");
        println!(
            "  {:<10} {:>9} {:>8} {:>8} {:>10} {:>14}",
            "resource", "contract", "n_extra", "n_spare", "cost ($/y)", "downtime (m/y)"
        );
        let frontier = tier_pareto_frontier(&ctx, "application", load, &options)?.0;
        for e in frontier
            .iter()
            .filter(|e| e.annual_downtime().minutes() >= 0.1)
        {
            let td = e.design();
            let level = td
                .setting("maintenanceA", "level")
                .or_else(|| td.setting("maintenanceB", "level"))
                .map_or_else(|| "-".to_owned(), ToString::to_string);
            println!(
                "  {:<10} {:>9} {:>8} {:>8} {:>10.0} {:>14.2}",
                td.resource().as_str(),
                level,
                e.n_extra(),
                td.n_spare(),
                e.cost().dollars(),
                e.annual_downtime().minutes(),
            );
        }
        println!();
    }

    println!("== Extra annual cost of availability (Fig. 8 data) ==\n");
    println!(
        "{:>6} | {:>12} | {:>12} | {:>12} | {:>12}",
        "load", "10000 m/y", "100 m/y", "10 m/y", "1 m/y"
    );
    for load in [400.0, 800.0, 1600.0, 3200.0] {
        let frontier = tier_pareto_frontier(&ctx, "application", load, &options)?.0;
        let baseline: Money = frontier
            .first()
            .map(aved::search::EvaluatedDesign::cost)
            .unwrap_or(Money::ZERO);
        let cost_at = |budget_mins: f64| -> String {
            frontier
                .iter()
                .find(|e| e.annual_downtime().minutes() <= budget_mins)
                .map_or_else(
                    || "infeasible".to_owned(),
                    |e| format!("{:.0}", (e.cost() - baseline).dollars()),
                )
        };
        println!(
            "{:>6} | {:>12} | {:>12} | {:>12} | {:>12}",
            load,
            cost_at(10_000.0),
            cost_at(100.0),
            cost_at(10.0),
            cost_at(1.0),
        );
    }
    println!("\n(entries are the additional $/year over the minimum-cost design for the load)");
    Ok(())
}
