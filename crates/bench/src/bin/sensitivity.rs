//! Robustness companion to Figs. 6–8: how the optimal application-tier
//! design reacts to errors in the failure-rate inputs (which the paper
//! admits were partly "estimated based on the authors' intuition").
//!
//! For each load and MTBF scale, the design search is re-run on the
//! perturbed infrastructure and compared against the unscaled baseline.
//!
//! Usage: `cargo run --release -p aved-bench --bin sensitivity [-- --csv results]`

use aved::avail::DecompositionEngine;
use aved::scenario;
use aved::search::{mtbf_sensitivity, EvalContext, SearchOptions};
use aved::units::Duration;
use aved_bench::{csv_dir_from_args, Csv};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let csv_dir = csv_dir_from_args();
    let infrastructure = scenario::infrastructure()?;
    let service = scenario::ecommerce()?;
    let catalog = scenario::catalog();
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&infrastructure, &service, &catalog, &engine);
    let options = SearchOptions::default();
    let scales = [0.25, 0.5, 1.0, 2.0, 4.0];
    let budget = Duration::from_mins(100.0);

    println!("== Sensitivity of the optimal application-tier design to MTBF errors ==");
    println!("(downtime budget {} min/yr)\n", budget.minutes());
    let mut csv = Csv::with_header(&[
        "load",
        "mtbf_scale",
        "cost_dollars",
        "downtime_minutes",
        "same_design_as_baseline",
    ]);
    for load in [400.0, 1600.0, 3200.0] {
        println!("load = {load}:");
        println!(
            "  {:>10} | {:>10} | {:>13} | same design?",
            "MTBF scale", "cost ($/y)", "downtime (m/y)"
        );
        let rows = mtbf_sensitivity(&ctx, "application", load, budget, &options, &scales)?;
        for row in rows {
            match (row.cost, row.annual_downtime) {
                (Some(cost), Some(dt)) => {
                    println!(
                        "  {:>10} | {:>10.0} | {:>13.2} | {}",
                        row.mtbf_scale,
                        cost.dollars(),
                        dt.minutes(),
                        if row.same_design_as_baseline {
                            "yes"
                        } else {
                            "no"
                        },
                    );
                    csv.row([
                        format!("{load}"),
                        format!("{}", row.mtbf_scale),
                        format!("{:.2}", cost.dollars()),
                        format!("{:.4}", dt.minutes()),
                        format!("{}", row.same_design_as_baseline),
                    ]);
                }
                _ => println!("  {:>10} | infeasible", row.mtbf_scale),
            }
        }
        println!();
    }
    csv.write_if(csv_dir.as_deref(), "sensitivity.csv")?;
    if let Some(dir) = csv_dir {
        println!("CSV written to {dir}/sensitivity.csv");
    }
    Ok(())
}
