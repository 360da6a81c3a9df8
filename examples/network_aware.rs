//! The network extension (the paper's §7 future work): compose a designed
//! service with the shared LAN infrastructure it runs on, and see how much
//! network redundancy the availability budget actually requires.
//!
//! The tiers' own availability comes from the design engine; the switches
//! are shared series elements modeled with `SharedSubsystem`. The example
//! also shows the mission-time view: expected downtime during the first
//! month of operation and the mean time to the first outage.
//!
//! Run with: `cargo run --release -p aved --example network_aware`

use aved::avail::{
    combine_series, derive_tier_model, CtmcEngine, SharedSubsystem, TierAvailability,
};
use aved::model::{FailureScope, Sizing};
use aved::scenario;
use aved::search::{search_service_with_health, CachingEngine, EvalContext, SearchOptions};
use aved::units::Duration;
use aved::DecompositionEngine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let infrastructure = scenario::infrastructure()?;
    let service = scenario::ecommerce()?;
    let catalog = scenario::catalog();
    let inner = DecompositionEngine::default();
    let engine = CachingEngine::new(&inner);
    let ctx = EvalContext::new(&infrastructure, &service, &catalog, &engine);
    let options = SearchOptions {
        max_extra_active: 2,
        max_spares: 1,
        ..SearchOptions::default()
    };

    // Design the compute side for a 200-minute service budget.
    let budget = Duration::from_mins(200.0);
    let design = search_service_with_health(&ctx, 800.0, budget, &options)?
        .0
        .ok_or("the compute budget should be satisfiable")?;
    println!("compute design ({} min/yr budget):", budget.minutes());
    for tier in design.tiers() {
        println!("  {}", tier.design());
    }
    println!(
        "  compute-only downtime: {:.2} min/yr at {}/yr\n",
        design.annual_downtime().minutes(),
        design.cost()
    );

    // Now include the network: switches with 2-year MTBF, 8-hour swap.
    let tiers: Vec<TierAvailability> = design.tiers().iter().map(|t| *t.availability()).collect();
    println!("adding the shared LAN (switch MTBF 2 years, 8 h replacement):");
    println!(
        "  {:<22} {:>16} {:>18}",
        "topology", "LAN (min/yr)", "service (min/yr)"
    );
    for (label, n, k) in [("single switch", 1, 1), ("duplexed switches", 2, 1)] {
        let lan = SharedSubsystem::new("lan", n, k)
            .with_failure(Duration::from_days(730.0), Duration::from_hours(8.0))
            .evaluate()?;
        let mut all = tiers.clone();
        all.push(lan);
        let total = combine_series(&all);
        println!(
            "  {:<22} {:>16.2} {:>18.2}{}",
            label,
            lan.annual_downtime().minutes(),
            total.annual_downtime().minutes(),
            if total.annual_downtime() <= budget {
                "  (within budget)"
            } else {
                "  (BLOWS the budget)"
            },
        );
    }

    // Mission-time view of the application tier: early-life behaviour.
    let app = design
        .tiers()
        .iter()
        .find(|t| t.design().tier().as_str() == "application")
        .expect("application tier present");
    let option = service
        .tier("application")
        .and_then(|t| t.option_for(app.design().resource().as_str()))
        .expect("designed option exists");
    let model = derive_tier_model(
        &infrastructure,
        app.design(),
        Sizing::Dynamic,
        FailureScope::Resource,
        app.min_for_perf(),
    )?;
    let _ = option;
    let ctmc = CtmcEngine::default();
    let month = Duration::from_hours(30.0 * 24.0);
    let early = ctmc.mission_downtime(&model, month, 48)?;
    // Steady-state figure from the same exact engine, so the comparison
    // isolates the early-life effect rather than engine differences.
    use aved::avail::AvailabilityEngine as _;
    let steady = ctmc.evaluate(&model)?.unavailability() * month.hours();
    let mttf = ctmc.mean_time_to_first_outage(&model)?;
    println!("\napplication tier, first month of operation:");
    println!(
        "  expected downtime: {:.2} min (steady-state pro-rata would be {:.2} min)",
        early.minutes(),
        steady * 60.0
    );
    println!("  mean time to first outage: {:.1} days", mttf.days());
    Ok(())
}
