//! The paper's scientific-application example (§5.2): optimal design as a
//! function of the job execution-time requirement (the data behind Fig. 7).
//!
//! For each requirement the engine selects the resource type (cheap
//! machineA nodes vs the 16-way machineB), the node count, the spare
//! count, the checkpoint interval and the checkpoint storage location.
//!
//! Run with: `cargo run --release -p aved --example scientific_job`

use aved::avail::DecompositionEngine;
use aved::model::ParamValue;
use aved::scenario;
use aved::search::{search_job_tier, EvalContext, SearchOptions};
use aved::units::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let infrastructure = scenario::infrastructure()?;
    let service = scenario::scientific()?;
    let catalog = scenario::catalog();
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&infrastructure, &service, &catalog, &engine);

    // Fig. 7 fixes the maintenance contract to bronze.
    let options = SearchOptions {
        max_extra_active: 2,
        max_spares: 2,
        ..SearchOptions::default()
    }
    .with_pin("maintenanceA", "level", ParamValue::Level("bronze".into()))
    .with_pin("maintenanceB", "level", ParamValue::Level("bronze".into()));

    println!("jobsize = 10000; bronze maintenance (as in the paper's Fig. 7)\n");
    println!(
        "{:>10} | {:>8} | {:>6} | {:>6} | {:>12} | {:>8} | {:>10} | {:>12}",
        "req (h)",
        "resource",
        "nodes",
        "spares",
        "interval",
        "storage",
        "cost ($/y)",
        "expected (h)"
    );
    for req_hours in [2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0] {
        let outcome = search_job_tier(
            &ctx,
            "computation",
            Duration::from_hours(req_hours),
            &options,
        )?;
        match outcome.best() {
            Some(best) => {
                let td = best.design();
                let interval = td
                    .setting("checkpoint", "checkpoint_interval")
                    .map_or_else(|| "-".to_owned(), ToString::to_string);
                let storage = td
                    .setting("checkpoint", "storage_location")
                    .map_or_else(|| "-".to_owned(), ToString::to_string);
                println!(
                    "{:>10} | {:>8} | {:>6} | {:>6} | {:>12} | {:>8} | {:>10.0} | {:>12.1}",
                    req_hours,
                    td.resource().as_str(),
                    td.n_active(),
                    td.n_spare(),
                    interval,
                    storage,
                    best.cost().dollars(),
                    best.expected_job_time().unwrap().hours(),
                );
            }
            None => println!("{req_hours:>10} | infeasible within the search bounds"),
        }
    }
    Ok(())
}
