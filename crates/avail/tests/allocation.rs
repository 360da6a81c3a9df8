//! Heap allocations of repatched evaluations, counted by a global
//! allocator of this test binary.
//!
//! Once a session has explored a chain shape and sized its buffers,
//! evaluating another model of that shape must not allocate anything that
//! grows with the chain: states are inline values, the successor buffer,
//! the solve scratch and the single-class model belong to the session, and
//! the solver lends its answer out of the scratch. What remains is the one
//! attempt trail each solve returns. A decomposition evaluation whose
//! classes all replay from the session's class memo runs no solve and
//! allocates nothing at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aved_avail::{
    export_sharpe_markov, AvailabilityEngine, CtmcEngine, DecompositionEngine, EvalSession,
    FailureClass, TierModel,
};
use aved_units::Duration;

/// The system allocator, counting the allocations of each thread (the test
/// harness runs tests on threads of their own).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    std::hint::black_box(f());
    ALLOCATIONS.with(Cell::get) - before
}

/// A paper-style tier: one hard machine failure (failover when there are
/// spares) and `soft` restart-class failures. `scale` varies the rates,
/// not the chain's structure.
fn paper_tier(n: u32, m: u32, s: u32, soft: usize, scale: f64) -> TierModel {
    let soft_classes = [
        ("machineA/soft", 75.0, 4.2),
        ("linux/soft", 60.0, 3.1),
        ("webserver/soft", 60.0, 0.5),
    ];
    soft_classes[..soft].iter().fold(
        TierModel::new(n, m, s).with_class(FailureClass::new(
            "machineA/hard",
            Duration::from_days(650.0 * scale).rate(),
            Duration::from_hours(38.0),
            Duration::from_mins(5.0),
            s > 0,
        )),
        |tier, &(label, mtbf_days, restart_mins)| {
            tier.with_class(FailureClass::new(
                label,
                Duration::from_days(mtbf_days * scale).rate(),
                Duration::from_mins(restart_mins),
                Duration::from_mins(5.0),
                false,
            ))
        },
    )
}

/// The number of states of the exact engine's chain for `model`.
fn chain_states(model: &TierModel) -> usize {
    let text = export_sharpe_markov(&CtmcEngine::default(), model).unwrap();
    text.lines()
        .find_map(|line| {
            line.strip_prefix("* ")?
                .strip_suffix(" transitions; rates per hour")
        })
        .and_then(|line| line.split(' ').next()?.parse().ok())
        .expect("the export names its state count")
}

/// The most allocations any of a few repatched evaluations of `shape`'s
/// rate variants makes, after one warm-up evaluation in the same session.
fn repatched_allocations(
    engine: &dyn AvailabilityEngine,
    shape: impl Fn(f64) -> TierModel,
) -> usize {
    let mut session = EvalSession::new();
    engine
        .evaluate_with_session(&shape(1.0), &mut session)
        .unwrap();
    let warm = *session.stats();
    let variants: Vec<TierModel> = (1..=4).map(|i| shape(1.0 + 0.1 * f64::from(i))).collect();
    let most = variants
        .iter()
        .map(|model| allocations(|| engine.evaluate_with_session(model, &mut session).unwrap()))
        .max()
        .unwrap();
    let stats = session.stats();
    assert_eq!(
        stats.rebuilds_avoided - warm.rebuilds_avoided,
        stats.solves - warm.solves,
        "every solve after the warm-up repatched: {stats:?}"
    );
    most
}

#[test]
fn exact_chain_evaluations_allocate_the_same_at_any_chain_size() {
    // The same tier with its hard failure class alone, and with all four.
    let small = |scale| paper_tier(6, 6, 1, 0, scale);
    let large = |scale| paper_tier(6, 6, 1, 3, scale);
    assert_eq!(chain_states(&small(1.0)), 12);
    assert_eq!(chain_states(&large(1.0)), 252);

    let engine = CtmcEngine::default();
    let at_12 = repatched_allocations(&engine, small);
    let at_252 = repatched_allocations(&engine, large);
    assert!(
        at_12 <= 1,
        "a repatched 12-state evaluation allocates only its attempt trail, made {at_12}"
    );
    assert!(
        at_252 <= at_12,
        "252 states made {at_252} allocations, 12 states made {at_12}"
    );
}

#[test]
fn decomposition_evaluations_allocate_at_most_once_per_class_solve() {
    let engine = DecompositionEngine::default();
    for (soft, spares) in [(3, 1), (3, 0), (0, 2)] {
        let shape = |scale| paper_tier(5, 4, spares, soft, scale);
        let classes = shape(1.0).classes().len();
        let made = repatched_allocations(&engine, shape);
        assert!(
            made <= classes,
            "{classes} class solves made {made} allocations (soft {soft}, spares {spares})"
        );
    }
}

#[test]
fn memoised_decomposition_evaluations_allocate_nothing() {
    let engine = DecompositionEngine::default();
    for (soft, spares) in [(3, 1), (3, 0), (0, 2)] {
        let model = paper_tier(5, 4, spares, soft, 1.0);
        let classes = model.classes().len() as u64;
        let mut session = EvalSession::new();
        engine.evaluate_with_session(&model, &mut session).unwrap();
        let warm = *session.stats();
        let made = allocations(|| engine.evaluate_with_session(&model, &mut session).unwrap());
        let stats = session.stats();
        assert_eq!(
            (
                stats.class_hits - warm.class_hits,
                stats.solves - warm.solves
            ),
            (classes, 0),
            "every class replayed: {stats:?}"
        );
        assert_eq!(
            made, 0,
            "a replayed evaluation allocated (soft {soft}, spares {spares})"
        );
    }
}
