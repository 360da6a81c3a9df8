//! Heap allocations of the irreducibility check, counted by a global
//! allocator of this test binary.
//!
//! Every first solve of a chain structure checks that the chain is
//! irreducible. The check runs in the solver's reusable scratch — visited
//! flags, a stack and the in-edge transpose — so once a scratch has grown
//! to a chain's size, checking another chain that fits allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aved_markov::{Ctmc, CtmcBuilder, SolveScratch};

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

/// A birth–death chain of `n` states with a shortcut from the top back to
/// state 0; with `absorbing`, the top state has no way out.
fn chain(n: usize, absorbing: bool) -> Ctmc {
    let mut b = CtmcBuilder::new(n);
    for i in 0..n - 1 {
        b.rate(i, i + 1, 1.0 + i as f64);
        if !absorbing {
            b.rate(i + 1, i, 2.0);
        }
    }
    if !absorbing {
        b.rate(n - 1, 0, 0.5);
    }
    b.build_unchecked()
}

#[test]
fn a_grown_scratch_checks_a_fresh_chain_without_allocating() {
    let mut scratch = SolveScratch::new();
    assert_eq!(chain(64, false).check_irreducible(&mut scratch), Ok(()));

    let fresh = chain(40, false);
    let mut result = Err(usize::MAX);
    let n = allocations(|| result = fresh.check_irreducible(&mut scratch));
    assert_eq!(result, Ok(()));
    assert_eq!(n, 0, "the check allocated {n} time(s)");

    let reducible = chain(40, true);
    let n = allocations(|| result = reducible.check_irreducible(&mut scratch));
    assert_eq!(result, Err(1), "state 1 cannot reach state 0");
    assert_eq!(n, 0, "the failing check allocated {n} time(s)");
}
