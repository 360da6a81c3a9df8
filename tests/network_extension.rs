//! Integration test of the network/shared-subsystem extension (the
//! paper's §7 future work): compose the designed e-commerce service with a
//! LAN whose switches are shared series elements, and verify the combined
//! availability accounting.

use aved::avail::{combine_series, SharedSubsystem, TierAvailability};
use aved::scenario;
use aved::search::{search_service_with_health, CachingEngine, EvalContext, SearchOptions};
use aved::units::{Duration, Rate};
use aved::DecompositionEngine;

fn designed_tiers() -> Vec<TierAvailability> {
    let infrastructure = scenario::infrastructure().unwrap();
    let service = scenario::ecommerce().unwrap();
    let catalog = scenario::catalog();
    let inner = DecompositionEngine::default();
    let engine = CachingEngine::new(&inner);
    let ctx = EvalContext::new(&infrastructure, &service, &catalog, &engine);
    let options = SearchOptions {
        max_extra_active: 1,
        max_spares: 1,
        ..SearchOptions::default()
    };
    let design = search_service_with_health(&ctx, 800.0, Duration::from_mins(500.0), &options)
        .unwrap()
        .0
        .expect("feasible");
    design.tiers().iter().map(|t| *t.availability()).collect()
}

#[test]
fn single_switch_dominates_a_well_designed_service() {
    let tiers = designed_tiers();
    let service_only = combine_series(&tiers);

    // One switch, year-scale MTBF, 8-hour replacement: ~240 min/yr on its
    // own — worse than the designed service.
    let lan = SharedSubsystem::new("lan", 1, 1)
        .with_failure(Duration::from_days(365.0 * 2.0), Duration::from_hours(8.0))
        .evaluate()
        .unwrap();
    let mut with_lan = tiers.clone();
    with_lan.push(lan);
    let combined = combine_series(&with_lan);

    assert!(combined.unavailability() > service_only.unavailability());
    let lan_share = lan.annual_downtime().minutes()
        / (service_only.annual_downtime().minutes() + lan.annual_downtime().minutes());
    assert!(
        lan_share > 0.2,
        "an unduplexed switch should contribute a visible share, got {lan_share}"
    );
}

#[test]
fn duplexed_switches_restore_the_service_budget() {
    let tiers = designed_tiers();
    let service_only = combine_series(&tiers);

    let duplex = SharedSubsystem::new("lan", 2, 1)
        .with_failure(Duration::from_days(365.0 * 2.0), Duration::from_hours(8.0))
        .evaluate()
        .unwrap();
    let mut with_lan = tiers.clone();
    with_lan.push(duplex);
    let combined = combine_series(&with_lan);

    // Duplexing makes the network contribution negligible (< 1% extra).
    assert!(
        combined.annual_downtime().minutes() < service_only.annual_downtime().minutes() * 1.01,
        "duplexed LAN added {} vs {} min",
        combined.annual_downtime().minutes(),
        service_only.annual_downtime().minutes()
    );
}

#[test]
fn series_composition_is_order_invariant() {
    let tiers = designed_tiers();
    let lan = SharedSubsystem::new("lan", 2, 1)
        .with_failure(Duration::from_days(500.0), Duration::from_hours(4.0))
        .evaluate()
        .unwrap();

    let mut front = vec![lan];
    front.extend(tiers.iter().copied());
    let mut back = tiers.clone();
    back.push(lan);

    let a = combine_series(&front);
    let b = combine_series(&back);
    assert!((a.unavailability() - b.unavailability()).abs() < 1e-15);
    assert!(
        (a.down_event_rate().per_hour_value() - b.down_event_rate().per_hour_value()).abs() < 1e-15
    );
}

#[test]
fn empty_and_perfect_elements_are_neutral() {
    let tiers = designed_tiers();
    let base = combine_series(&tiers);
    let mut padded = tiers.clone();
    padded.push(TierAvailability::new(0.0, Rate::ZERO));
    let with_perfect = combine_series(&padded);
    assert!((base.unavailability() - with_perfect.unavailability()).abs() < 1e-15);
}
