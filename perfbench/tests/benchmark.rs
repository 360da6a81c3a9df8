//! Tests of the benchmark's own machinery: the seeded generator, the tail
//! percentile, the output checker and the recorded reference answers.

use aved::units::{Duration, Money};
use aved::ServiceRequirement;
use aved_perfbench::check::{self, Claim};
use aved_perfbench::queries::{pool, Stream};
use aved_perfbench::workload::{Setup, Workload};
use aved_perfbench::{reference, stats};

fn first_ids(workload: Workload, seed: u64, n: usize) -> Vec<usize> {
    let mut stream = Stream::new(workload, seed);
    (0..n).map(|_| stream.next_id()).collect()
}

fn answer(setup: &Setup, requirement: &ServiceRequirement) -> Option<Claim> {
    let (report, health) = setup
        .aved
        .design_with_health(&setup.service, requirement)
        .unwrap();
    assert!(!health.is_degraded(), "{health}");
    report.as_ref().map(Claim::from_report)
}

#[test]
fn the_same_seed_yields_the_same_queries() {
    for w in Workload::ALL {
        assert_eq!(pool(w), pool(w), "{}", w.name());
        assert_eq!(first_ids(w, 7, 300), first_ids(w, 7, 300), "{}", w.name());
        assert_ne!(first_ids(w, 7, 300), first_ids(w, 8, 300), "{}", w.name());
    }
}

#[test]
fn a_run_asks_the_whole_pool_before_repeating_a_query() {
    for w in Workload::ALL {
        let size = pool(w).len();
        let mut ids = first_ids(w, 3, size);
        ids.sort_unstable();
        assert_eq!(ids, (0..size).collect::<Vec<_>>(), "{}", w.name());
    }
}

#[test]
fn the_tail_percentile_is_correct_on_known_inputs() {
    let ramp = |n: u32| (1..=n).map(f64::from).collect::<Vec<f64>>();
    let at = |n, per_mille| {
        let t = stats::percentile(&ramp(n), per_mille);
        (t.percentile, t.value, t.beyond)
    };
    assert_eq!(at(1000, 990), (99.0, 990.0, 10));
    assert_eq!(at(1000, 950), (95.0, 950.0, 50));
    assert_eq!(at(725, 950), (95.0, 689.0, 36));
    assert_eq!(at(117, 900), (90.0, 106.0, 11));
    assert_eq!(at(50, 750), (75.0, 38.0, 12));
    assert_eq!(at(1, 999), (99.9, 1.0, 0));
    let mut reversed = ramp(1000);
    reversed.reverse();
    assert_eq!(stats::percentile(&reversed, 990).value, 990.0);
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(stats::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn the_checker_accepts_real_answers_and_rejects_tampered_ones() {
    let cases = [
        (
            Workload::EcommerceDefault,
            ServiceRequirement::enterprise(1000.0, Duration::from_mins(100.0)),
        ),
        (
            Workload::ScientificJob,
            ServiceRequirement::job(Duration::from_hours(300.0)),
        ),
    ];
    for (w, requirement) in cases {
        let setup = Setup::new(w).unwrap();
        let claim = answer(&setup, &requirement).expect("feasible");
        let engine = w.engine();
        let ctx = setup.context(engine.as_ref());
        check::check(&ctx, &requirement, &claim).unwrap();

        let mut one_ulp = claim.clone();
        one_ulp.cost = Money::from_dollars(f64::from_bits(claim.cost.dollars().to_bits() + 1));
        let err = check::check(&ctx, &requirement, &one_ulp).unwrap_err();
        assert!(err.contains("cost"), "{}: {err}", w.name());

        // The same design, asked against a limit it misses.
        let tighter = match requirement {
            ServiceRequirement::Enterprise { min_throughput, .. } => {
                ServiceRequirement::enterprise(min_throughput, claim.annual_downtime.unwrap() * 0.5)
            }
            ServiceRequirement::Job { .. } => {
                ServiceRequirement::job(claim.expected_job_time.unwrap() * 0.5)
            }
        };
        let err = check::check(&ctx, &tighter, &claim).unwrap_err();
        assert!(err.contains("exceeds"), "{}: {err}", w.name());
    }
}

/// A run fails every answer that differs from its recorded reference, even
/// one the checker alone accepts: a feasible but dearer design, or
/// "infeasible" where a design exists.
#[test]
fn a_changed_answer_fails_the_run() {
    let w = Workload::EcommerceDefault;
    let setup = Setup::new(w).unwrap();
    let engine = w.engine();
    let ctx = setup.context(engine.as_ref());
    let pool = pool(w);
    let recorded = reference::load(w, &pool).unwrap();
    let infeasible = reference::answer_hash(None);

    // Within the first load's stratum: the loosest budget, the tightest
    // budget that still has a design, and one that has none.
    let budget = |id: usize| pool[id].requirement();
    let minutes = |id: usize| match budget(id) {
        ServiceRequirement::Enterprise {
            max_annual_downtime,
            ..
        } => max_annual_downtime.minutes(),
        ServiceRequirement::Job { .. } => unreachable!("an enterprise workload"),
    };
    let mut stratum: Vec<usize> = (0..pool.len())
        .filter(|&id| pool[id].load == pool[0].load)
        .collect();
    stratum.sort_by(|&a, &b| minutes(a).total_cmp(&minutes(b)));
    let loose = *stratum.last().unwrap();
    let tight = *stratum
        .iter()
        .find(|&&id| recorded[id] != infeasible)
        .unwrap();
    let none = *stratum
        .iter()
        .find(|&&id| recorded[id] == infeasible)
        .unwrap();

    let cheap = answer(&setup, &budget(loose));
    let dear = answer(&setup, &budget(tight));
    assert_ne!(cheap, dear, "the two budgets must have different answers");
    let dear_claim = dear.clone().unwrap();

    // The real answers pass.
    check::judge(&ctx, &budget(loose), &Ok(cheap.clone()), recorded[loose]).unwrap();
    check::judge(&ctx, &budget(tight), &Ok(dear.clone()), recorded[tight]).unwrap();
    check::judge(&ctx, &budget(none), &Ok(None), recorded[none]).unwrap();

    // The dearer design meets the loose budget, so the checker accepts it;
    // only the reference shows that it is not the minimum-cost answer.
    check::check(&ctx, &budget(loose), &dear_claim).unwrap();
    let err = check::judge(&ctx, &budget(loose), &Ok(dear), recorded[loose]).unwrap_err();
    assert!(err.contains("differs from the one recorded"), "{err}");
    let err = check::judge(&ctx, &budget(loose), &Ok(None), recorded[loose]).unwrap_err();
    assert!(err.contains("infeasible"), "{err}");
    let err = check::judge(&ctx, &budget(none), &Ok(cheap), recorded[none]).unwrap_err();
    assert!(err.contains("exceeds"), "{err}");
    let err = check::judge(&ctx, &budget(loose), &Err("boom".into()), recorded[loose]).unwrap_err();
    assert_eq!(err, "boom");

    // A one-ULP change is a changed answer too.
    let mut one_ulp = dear_claim.clone();
    one_ulp.cost = Money::from_dollars(f64::from_bits(dear_claim.cost.dollars().to_bits() + 1));
    assert_ne!(
        reference::answer_hash(Some(&dear_claim)),
        reference::answer_hash(Some(&one_ulp))
    );
}

#[test]
fn every_workload_has_one_recorded_answer_per_pooled_query() {
    for w in Workload::ALL {
        let answers = reference::load(w, &pool(w)).unwrap();
        assert_eq!(answers.len(), pool(w).len(), "{}", w.name());
    }
}
