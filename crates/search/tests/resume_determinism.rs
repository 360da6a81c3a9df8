//! A killed sweep, resumed from its journal, must select the same winner
//! — to the bit — as a sweep that was never interrupted.
//!
//! On the paper's Fig. 6 (e-commerce application tier) and Fig. 7
//! (scientific job tier) fixtures: a sweep is cancelled mid-run (a
//! wrapped engine trips the [`CancelToken`] after a fixed number of
//! evaluations, simulating SIGINT at a deterministic point), its journal
//! is reloaded, and the resumed search must reproduce the uninterrupted
//! reference winner. A second scenario
//! truncates the journal mid-record, as a hard kill (`kill -9`) during a
//! write would, and resumes from the mangled file.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use aved_avail::{
    AvailError, AvailabilityEngine, CancelToken, DecompositionEngine, EvalHealth, EvalSession,
    TierAvailability, TierModel,
};
use aved_model::{Infrastructure, ParamValue, Service};
use aved_perf::Catalog;
use aved_search::{
    search_job_tier, search_service_with_health, search_tier, EvalContext, EvaluatedDesign,
    JournalEngine, JournalReplay, SearchOptions, SweepJournal,
};
use aved_units::Duration;

/// The engine every journal here is written and replayed under: the
/// default decomposition engine at its default depth.
fn decomp() -> JournalEngine {
    JournalEngine::new("decomp", 5)
}

struct Fixture {
    infrastructure: Infrastructure,
    service: Service,
    catalog: Catalog,
}

fn fig6_fixture() -> Fixture {
    Fixture {
        infrastructure: aved_spec::parse_infrastructure(include_str!(
            "../../../data/infrastructure.aved"
        ))
        .unwrap(),
        service: aved_spec::parse_service(include_str!("../../../data/ecommerce.aved")).unwrap(),
        catalog: aved_perf::paper::catalog(),
    }
}

fn fig7_fixture() -> Fixture {
    Fixture {
        infrastructure: aved_spec::parse_infrastructure(include_str!(
            "../../../data/infrastructure.aved"
        ))
        .unwrap(),
        service: aved_spec::parse_service(include_str!("../../../data/scientific.aved")).unwrap(),
        catalog: aved_perf::paper::catalog(),
    }
}

fn enterprise_opts() -> SearchOptions {
    SearchOptions {
        max_extra_active: 3,
        max_spares: 2,
        ..SearchOptions::default()
    }
}

fn job_opts() -> SearchOptions {
    SearchOptions {
        max_extra_active: 2,
        max_spares: 1,
        ..SearchOptions::default()
    }
    .with_pin("maintenanceA", "level", ParamValue::Level("bronze".into()))
    .with_pin("maintenanceB", "level", ParamValue::Level("bronze".into()))
}

fn temp_journal(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("aved-resume-{tag}-{}.jsonl", std::process::id()));
    path
}

/// Bit-level equality of every metric a design carries.
fn assert_bit_identical(a: &EvaluatedDesign, b: &EvaluatedDesign, label: &str) {
    assert_eq!(a.design(), b.design(), "{label}: design");
    assert_eq!(
        a.cost().dollars().to_bits(),
        b.cost().dollars().to_bits(),
        "{label}: cost"
    );
    assert_eq!(
        a.availability().unavailability().to_bits(),
        b.availability().unavailability().to_bits(),
        "{label}: unavailability"
    );
    match (a.expected_job_time(), b.expected_job_time()) {
        (Some(x), Some(y)) => assert_eq!(
            x.seconds().to_bits(),
            y.seconds().to_bits(),
            "{label}: job time"
        ),
        (x, y) => assert_eq!(x, y, "{label}: job time presence"),
    }
}

/// Delegates to the decomposition engine, tripping `token` after `quota`
/// evaluations: a SIGINT arriving at a deterministic moment mid-sweep.
struct CancelAfter {
    inner: DecompositionEngine,
    remaining: AtomicUsize,
    token: CancelToken,
}

impl CancelAfter {
    fn new(quota: usize, token: CancelToken) -> CancelAfter {
        CancelAfter {
            inner: DecompositionEngine::default(),
            remaining: AtomicUsize::new(quota),
            token,
        }
    }
}

impl AvailabilityEngine for CancelAfter {
    fn evaluate_with_session(
        &self,
        model: &TierModel,
        session: &mut EvalSession,
    ) -> Result<(TierAvailability, EvalHealth), AvailError> {
        let spent = self
            .remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                Some(n.saturating_sub(1))
            })
            .unwrap();
        if spent == 0 {
            self.token.cancel();
        }
        self.inner.evaluate_with_session(model, session)
    }
}

#[test]
fn fig6_killed_sweep_resumes_to_the_reference_winner() {
    let fx = fig6_fixture();
    let load = 1000.0;
    let budget = Duration::from_mins(100.0);

    let reference_engine = DecompositionEngine::default();
    let ctx = EvalContext::new(
        &fx.infrastructure,
        &fx.service,
        &fx.catalog,
        &reference_engine,
    );
    let reference = search_tier(&ctx, "application", load, budget, &enterprise_opts()).unwrap();
    let reference_best = reference.best().expect("feasible");

    // Killed run: the engine trips the cancel token after 5 evaluations,
    // early enough that cost-dominance pruning cannot finish the sweep
    // before the cancellation is felt.
    let path = temp_journal("fig6-killed");
    {
        let token = CancelToken::new();
        let engine = CancelAfter::new(5, token.clone());
        let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
        let journal = Arc::new(SweepJournal::create(&path, &decomp()).unwrap());
        let opts = enterprise_opts()
            .with_cancel(token)
            .with_journal(journal.clone());
        let killed = search_tier(&ctx, "application", load, budget, &opts).unwrap();
        assert!(
            killed.health().interrupted,
            "the cancellation must be felt: {}",
            killed.health()
        );
        journal.flush().unwrap();
    }

    // The resumed run must land on the reference.
    let replay = Arc::new(JournalReplay::load(&path, &decomp()).unwrap());
    assert!(
        !replay.is_empty(),
        "the killed sweep journaled its progress"
    );
    let opts = enterprise_opts().with_resume(replay);
    let resumed = search_tier(&ctx, "application", load, budget, &opts).unwrap();
    let best = resumed.best().expect("feasible after resume");
    assert_bit_identical(reference_best, best, "fig6 resume");
    assert!(
        resumed.health().journal_replayed > 0,
        "resume must replay, not re-solve: {}",
        resumed.health()
    );
    assert!(!resumed.health().interrupted, "runs to the end");
    std::fs::remove_file(&path).ok();
}

/// Engine evaluations after which the killed Fig. 7 sweep is cancelled.
const JOB_KILL_QUOTA: usize = 5;

#[test]
fn fig7_killed_job_sweep_resumes_to_the_reference_winner() {
    let fx = fig7_fixture();
    // The job search evaluates each availability model once, so the kill
    // needs a deadline whose search evaluates many: 11 at 50 h, one at
    // 200 h.
    let deadline = Duration::from_hours(50.0);

    let reference_engine = DecompositionEngine::default();
    let ctx = EvalContext::new(
        &fx.infrastructure,
        &fx.service,
        &fx.catalog,
        &reference_engine,
    );
    let reference = search_job_tier(&ctx, "computation", deadline, &job_opts()).unwrap();
    let reference_best = reference.best().expect("feasible");
    assert!(
        reference.health().models_evaluated > 2 * JOB_KILL_QUOTA as u64,
        "the kill must land mid-sweep: {}",
        reference.health()
    );

    let path = temp_journal("fig7-killed");
    {
        let token = CancelToken::new();
        let engine = CancelAfter::new(JOB_KILL_QUOTA, token.clone());
        let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
        let journal = Arc::new(SweepJournal::create(&path, &decomp()).unwrap());
        let opts = job_opts().with_cancel(token).with_journal(journal.clone());
        let killed = search_job_tier(&ctx, "computation", deadline, &opts).unwrap();
        assert!(killed.health().interrupted, "{}", killed.health());
        journal.flush().unwrap();
    }

    let replay = Arc::new(JournalReplay::load(&path, &decomp()).unwrap());
    assert!(!replay.is_empty());
    let opts = job_opts().with_resume(replay);
    let resumed = search_job_tier(&ctx, "computation", deadline, &opts).unwrap();
    let best = resumed.best().expect("feasible after resume");
    assert_bit_identical(reference_best, best, "fig7 resume");
    assert!(
        resumed.health().journal_replayed > 0,
        "{}",
        resumed.health()
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn partly_replayed_availability_designs_resume_to_the_reference_winner() {
    // Every other record of a full job-sweep journal survives, so each
    // availability design's candidates are split between replay and live
    // scoring: the resumed sweep must evaluate every design again and
    // still land on the reference winner, to the bit.
    let fx = fig7_fixture();
    let deadline = Duration::from_hours(50.0);
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
    let reference = search_job_tier(&ctx, "computation", deadline, &job_opts()).unwrap();
    let reference_best = reference.best().expect("feasible");

    let path = temp_journal("fig7-partial");
    {
        let journal = Arc::new(SweepJournal::create(&path, &decomp()).unwrap());
        let opts = job_opts().with_journal(journal.clone());
        search_job_tier(&ctx, "computation", deadline, &opts).unwrap();
        journal.flush().unwrap();
    }
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines = text.lines();
    let header = lines.next().unwrap();
    let kept: Vec<&str> = std::iter::once(header).chain(lines.step_by(2)).collect();
    std::fs::write(&path, kept.join("\n") + "\n").unwrap();

    let replay = Arc::new(JournalReplay::load(&path, &decomp()).unwrap());
    assert_eq!(replay.len(), kept.len() - 1);
    let opts = job_opts().with_resume(replay.clone());
    let resumed = search_job_tier(&ctx, "computation", deadline, &opts).unwrap();
    let label = "fig7 partial resume";
    assert_bit_identical(reference_best, resumed.best().expect("feasible"), label);
    let (r, h) = (reference.health(), resumed.health());
    assert_eq!(h.journal_replayed, replay.len() as u64, "{label}: {h}");
    assert_eq!(h.models_evaluated, r.models_evaluated, "{label}: {h}");
    assert_eq!(
        h.candidates_scored + h.journal_replayed,
        r.candidates_scored,
        "{label}: every candidate is replayed or scored once"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn journal_truncated_mid_record_still_resumes_to_the_reference_winner() {
    // A `kill -9` can cut the journal mid-write. The loader drops the
    // torn tail record; the resumed sweep re-evaluates that candidate and
    // still lands on the reference winner.
    let fx = fig6_fixture();
    let load = 1000.0;
    let budget = Duration::from_mins(100.0);
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);

    let reference = search_tier(&ctx, "application", load, budget, &enterprise_opts()).unwrap();
    let reference_best = reference.best().expect("feasible");

    let path = temp_journal("fig6-torn");
    {
        let journal = Arc::new(SweepJournal::create(&path, &decomp()).unwrap());
        search_tier(
            &ctx,
            "application",
            load,
            budget,
            &enterprise_opts().with_journal(journal.clone()),
        )
        .unwrap();
        journal.flush().unwrap();
    }

    // Tear the file: keep half the records, cut the last one in two.
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 4, "need enough records to tear");
    let keep = lines.len() / 2;
    let mut torn = lines[..keep].join("\n");
    torn.push('\n');
    torn.push_str(&lines[keep][..lines[keep].len() / 2]);
    std::fs::write(&path, &torn).unwrap();

    let replay = Arc::new(JournalReplay::load(&path, &decomp()).unwrap());
    assert!(!replay.is_empty(), "the intact prefix must survive");
    let opts = enterprise_opts().with_resume(replay);
    let resumed = search_tier(&ctx, "application", load, budget, &opts).unwrap();
    assert_bit_identical(
        reference_best,
        resumed.best().expect("feasible"),
        "fig6 torn-journal resume",
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn capped_service_query_resumes_from_a_truncated_journal() {
    // A service query evaluates the database tier in full, searches the
    // other tiers for a cost bound and caps their frontiers under it. Each
    // candidate it folds is journaled once, in a fixed order, so a journal
    // cut mid-record resumes to the same answer, replaying every intact
    // record.
    let fx = fig6_fixture();
    let load = 1000.0;
    let budget = Duration::from_mins(100.0);
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&fx.infrastructure, &fx.service, &fx.catalog, &engine);
    let answer = |found: Option<aved_search::ServiceDesign>| {
        let found = found.expect("feasible");
        let designs: Vec<_> = found.tiers().iter().map(|e| e.design().clone()).collect();
        let cost = found.cost().dollars().to_bits();
        (designs, cost, found.annual_downtime().minutes().to_bits())
    };

    let path = temp_journal("service-torn");
    let (reference, health) = {
        let journal = Arc::new(SweepJournal::create(&path, &decomp()).unwrap());
        let opts = enterprise_opts().with_journal(journal.clone());
        let (found, health) = search_service_with_health(&ctx, load, budget, &opts).unwrap();
        journal.flush().unwrap();
        (answer(found), health)
    };
    assert!(
        health.candidates_pruned > 0,
        "the query is capped: {health}"
    );
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.len() as u64 - 1,
        health.candidates_scored,
        "one record per scored candidate: {health}"
    );

    // Keep half the records and cut the next one in two.
    let keep = lines.len() / 2;
    let mut torn = lines[..keep].join("\n");
    torn.push('\n');
    torn.push_str(&lines[keep][..lines[keep].len() / 2]);
    std::fs::write(&path, &torn).unwrap();

    let replay = Arc::new(JournalReplay::load(&path, &decomp()).unwrap());
    assert_eq!(replay.len(), keep - 1);
    let opts = enterprise_opts().with_resume(replay.clone());
    let (found, resumed) = search_service_with_health(&ctx, load, budget, &opts).unwrap();
    assert_eq!(answer(found), reference);
    assert_eq!(resumed.journal_replayed, replay.len() as u64, "{resumed}");
    assert_eq!(
        resumed.candidates_scored + resumed.journal_replayed,
        health.candidates_scored,
        "every candidate is replayed or scored once: {resumed}"
    );
    std::fs::remove_file(&path).ok();
}
