//! Regenerates the data behind the paper's Fig. 8: the *additional annual
//! cost* of availability — relative to the minimum-cost design that merely
//! supports the load — as a function of the downtime requirement, for
//! loads of 400, 800, 1600 and 3200 units.
//!
//! Usage: `cargo run --release -p aved-bench --bin fig8 [-- --csv results]`

use aved::avail::DecompositionEngine;
use aved::scenario;
use aved::search::{tier_pareto_frontier, EvalContext, SearchOptions};
use aved_bench::{csv_dir_from_args, geometric_grid, Csv};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let csv_dir = csv_dir_from_args();
    let infrastructure = scenario::infrastructure()?;
    let service = scenario::ecommerce()?;
    let catalog = scenario::catalog();
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&infrastructure, &service, &catalog, &engine);
    let options = SearchOptions::default();

    let loads = [400.0, 800.0, 1600.0, 3200.0];
    let budgets = geometric_grid(0.1, 1000.0, 25);

    println!("== Fig. 8: extra annual cost of availability vs downtime requirement ==\n");
    print!("{:>14}", "budget (min/y)");
    for load in loads {
        print!("{:>12}", format!("load {load}"));
    }
    println!();

    let mut csv = Csv::with_header(&["load", "downtime_budget_minutes", "extra_cost_dollars"]);
    let mut frontiers = Vec::new();
    for &load in &loads {
        frontiers.push(tier_pareto_frontier(&ctx, "application", load, &options)?.0);
    }
    for &budget in &budgets {
        print!("{budget:>14.2}");
        for (frontier, &load) in frontiers.iter().zip(loads.iter()) {
            let base = frontier[0].cost();
            match frontier
                .iter()
                .find(|e| e.annual_downtime().minutes() <= budget)
            {
                Some(e) => {
                    let extra = (e.cost() - base).dollars();
                    print!("{extra:>12.0}");
                    csv.row([
                        format!("{load}"),
                        format!("{budget:.3}"),
                        format!("{extra:.2}"),
                    ]);
                }
                None => print!("{:>12}", "infeasible"),
            }
        }
        println!();
    }
    println!("\n(extra annual cost over the minimum-cost design supporting the same load)");
    csv.write_if(csv_dir.as_deref(), "fig8.csv")?;
    if let Some(dir) = csv_dir {
        println!("CSV written to {dir}/fig8.csv");
    }
    Ok(())
}
