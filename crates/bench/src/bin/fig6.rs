//! Regenerates the data behind the paper's Fig. 6: the optimal design
//! family of the application tier as a function of the load requirement
//! (x: 400–5000 units) and the annual-downtime requirement (y: 0.1–10,000
//! minutes).
//!
//! For each load we compute the tier's cost/downtime Pareto frontier; each
//! frontier step is a design family `(resource, contract, n_extra,
//! n_spare)`, and the curve of a family across loads is the downtime it
//! delivers where it is optimal — exactly the curves the paper plots.
//!
//! Usage: `cargo run --release -p aved-bench --bin fig6 [-- --csv results]`

use std::collections::BTreeMap;

use aved::avail::DecompositionEngine;
use aved::scenario;
use aved::search::{tier_pareto_frontier, EvalContext, SearchOptions};
use aved_bench::{csv_dir_from_args, Csv, Family};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let csv_dir = csv_dir_from_args();
    let infrastructure = scenario::infrastructure()?;
    let service = scenario::ecommerce()?;
    let catalog = scenario::catalog();
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&infrastructure, &service, &catalog, &engine);
    let options = SearchOptions::default();

    let loads: Vec<f64> = (1..=25).map(|i| 200.0 * f64::from(i)).collect(); // 200..5000

    // family -> load -> (downtime minutes, cost)
    let mut curves: BTreeMap<Family, BTreeMap<u32, (f64, f64)>> = BTreeMap::new();
    for &load in &loads {
        let frontier = tier_pareto_frontier(&ctx, "application", load, &options)?.0;
        for e in &frontier {
            let dt = e.annual_downtime().minutes();
            if !(0.05..=20_000.0).contains(&dt) {
                continue; // outside the paper's plotted range
            }
            curves
                .entry(Family::of(e))
                .or_default()
                .insert(load as u32, (dt, e.cost().dollars()));
        }
    }

    // Family index, ordered by the downtime at their first load (top of the
    // plot first), mimicking the paper's legend numbering by decreasing
    // downtime.
    let mut families: Vec<(&Family, f64)> = curves
        .iter()
        .map(|(f, pts)| {
            let first = pts.values().next().map_or(f64::NAN, |&(dt, _)| dt);
            (f, first)
        })
        .collect();
    families.sort_by(|a, b| b.1.total_cmp(&a.1));

    println!("== Fig. 6: optimal design families of the application tier ==\n");
    println!("families (top curve first; coordinates are (resource, contract, n_extra, n_spare)):");
    for (i, (f, _)) in families.iter().enumerate() {
        println!("  {:>2} - {}", i + 1, f);
    }
    println!("\ndowntime (min/yr) delivered by each family at each load where it is optimal:");
    print!("{:>6}", "load");
    for (i, _) in families.iter().enumerate() {
        print!("{:>9}", format!("fam{}", i + 1));
    }
    println!();
    let mut csv = Csv::with_header(&[
        "load",
        "family",
        "resource",
        "contract",
        "n_extra",
        "n_spare",
        "downtime_minutes",
        "cost_dollars",
    ]);
    for &load in &loads {
        print!("{load:>6}");
        for (i, (family, _)) in families.iter().enumerate() {
            match curves[family].get(&(load as u32)) {
                Some(&(dt, cost)) => {
                    print!("{dt:>9.2}");
                    csv.row([
                        format!("{load}"),
                        format!("{}", i + 1),
                        family.resource.clone(),
                        family.contract.clone(),
                        format!("{}", family.n_extra),
                        format!("{}", family.n_spare),
                        format!("{dt:.4}"),
                        format!("{cost:.2}"),
                    ]);
                }
                None => print!("{:>9}", "."),
            }
        }
        println!();
    }
    println!(
        "\n{} families; {} (load, family) points within the plotted range",
        families.len(),
        csv.n_rows()
    );
    csv.write_if(csv_dir.as_deref(), "fig6.csv")?;
    if let Some(dir) = csv_dir {
        println!("CSV written to {dir}/fig6.csv");
    }
    Ok(())
}
