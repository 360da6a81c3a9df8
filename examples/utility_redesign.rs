//! The paper's utility-computing vision (§1, §5.1 closing remark): "in a
//! utility computing environment, where the infrastructure can be easily
//! reconfigured, an automated design engine such as Aved could dynamically
//! re-evaluate and change designs as conditions change."
//!
//! This example simulates a day of fluctuating load on the application
//! tier and re-runs the design engine at each step, showing when the
//! optimal design family changes — resources scale with load, and the
//! availability family itself shifts at the crossovers Fig. 6 predicts.
//! It also demonstrates the sensitivity analysis: what happens to the
//! chosen design if the real failure rates are 4x worse than modeled.
//!
//! Run with: `cargo run --release -p aved --example utility_redesign`

use aved::avail::DecompositionEngine;
use aved::scenario;
use aved::search::{mtbf_sensitivity, search_tier, EvalContext, SearchOptions};
use aved::units::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let infrastructure = scenario::infrastructure()?;
    let service = scenario::ecommerce()?;
    let catalog = scenario::catalog();
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&infrastructure, &service, &catalog, &engine);
    let options = SearchOptions::default();
    let budget = Duration::from_mins(100.0);

    // A daily load profile: overnight trough, morning ramp, midday peak.
    let profile: [(u32, f64); 8] = [
        (0, 400.0),
        (3, 300.0),
        (6, 700.0),
        (9, 1800.0),
        (12, 3200.0),
        (15, 2600.0),
        (18, 1500.0),
        (21, 700.0),
    ];

    println!(
        "application tier, downtime budget {} min/yr\n",
        budget.minutes()
    );
    println!(
        "{:>5} {:>7} | {:>9} {:>8} {:>8} {:>8} | {:>10} {:>12}",
        "hour", "load", "resource", "contract", "actives", "spares", "cost ($/y)", "downtime (m)"
    );
    let mut previous: Option<aved::model::Design> = None;
    for (hour, load) in profile {
        let out = search_tier(&ctx, "application", load, budget, &options)?;
        let best = out
            .best()
            .ok_or("requirement should be satisfiable at all profile points")?;
        let td = best.design();
        let contract = td
            .setting("maintenanceA", "level")
            .map_or_else(|| "-".to_owned(), ToString::to_string);
        println!(
            "{hour:>5} {load:>7} | {:>9} {:>8} {:>8} {:>8} | {:>10.0} {:>12.2}",
            td.resource().as_str(),
            contract,
            td.n_active(),
            td.n_spare(),
            best.cost().dollars(),
            best.annual_downtime().minutes(),
        );
        // Reconfiguration actions relative to the previous hour's design —
        // what the utility controller would actually execute.
        let current = aved::model::Design::new(vec![td.clone()]);
        if let Some(prev) = &previous {
            for change in prev.diff(&current) {
                println!("{:>13} reconfigure: {change}", "");
            }
        }
        previous = Some(current);
    }

    // Sensitivity: would the midday design survive 4x-worse failure rates?
    println!("\nsensitivity of the midday (load 3200) design to MTBF estimation error:");
    let rows = mtbf_sensitivity(
        &ctx,
        "application",
        3200.0,
        budget,
        &options,
        &[0.25, 0.5, 1.0, 2.0, 4.0],
    )?;
    println!(
        "{:>11} | {:>10} | {:>13} | same design?",
        "MTBF scale", "cost ($/y)", "downtime (m)"
    );
    for row in rows {
        match (row.cost, row.annual_downtime) {
            (Some(cost), Some(dt)) => println!(
                "{:>11} | {:>10.0} | {:>13.2} | {}",
                row.mtbf_scale,
                cost.dollars(),
                dt.minutes(),
                if row.same_design_as_baseline {
                    "yes"
                } else {
                    "no"
                },
            ),
            _ => println!("{:>11} | infeasible", row.mtbf_scale),
        }
    }
    Ok(())
}
