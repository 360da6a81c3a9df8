//! The scoped-thread executor behind the parallel search.
//!
//! The design space factors into independent availability-model
//! evaluations, so the search is embarrassingly parallel — the only care
//! is keeping the result *bit-identical* to the serial walk. The contract
//! here:
//!
//! * [`parallel_map_with`] evaluates a slice of work items on up to `jobs`
//!   workers (plain `std::thread::scope`, no external runtime), handing
//!   each worker one mutable state for its whole run. Items are sharded
//!   into **contiguous chunks**, so a worker's shard is a consecutive run
//!   of the (parameter-locality-ordered) work list — the substrate for the
//!   workers' evaluation sessions — and the results are merged back **in
//!   item order**.
//! * With `jobs <= 1` the map degenerates to an in-order sequential loop on
//!   the calling thread.
//!
//! Determinism argument, in one paragraph: every decision the search makes
//! (dominance pruning, winner selection, tie-breaking, level termination,
//! degradation patience) happens in the sweep's *fold* over candidates in
//! enumeration order, on the calling thread — identical at any worker
//! count. Workers only evaluate availability models ahead of the fold, and
//! engine evaluations are pure functions of the model, so a result is the
//! same no matter which thread computes it.

use std::num::NonZeroUsize;

/// Resolves a requested worker count: `0` means "use the machine's
/// available parallelism" (the `--jobs` CLI default); any other request is
/// clamped to the machine's available parallelism. Oversubscribing compute-
/// bound solver workers onto fewer cores only adds context-switch and
/// cache-thrash overhead — on a 1-CPU box, `--jobs 8` used to run ~20%
/// *slower* than serial; now it degenerates to the inline serial path.
#[must_use]
pub fn effective_jobs(requested: usize) -> usize {
    let cpus = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    if requested > 0 {
        requested.min(cpus)
    } else {
        cpus
    }
}

/// Maps `f` over `items` on up to `jobs` scoped threads, returning results
/// in item order. Each worker borrows one mutable state from `states` for
/// its whole run — the hook that threads evaluation sessions through the
/// search workers. `f` receives `(state, index, &item)` and
/// must be pure up to that state and interior-mutable shared state it
/// synchronizes itself (the engine's counters, the sweep's abort flag).
///
/// Work is split into **contiguous chunks** (worker `w` gets items
/// `[w·⌈n/k⌉, (w+1)·⌈n/k⌉)`), not stolen item-by-item: the availability
/// designs the search evaluates come in parameter-locality order
/// (neighboring items differ in one knob), and a worker whose shard is a
/// consecutive run of that order sees a chain of near-identical models —
/// exactly what its session's in-place rebuilds exploit. The price is load
/// balance on skewed items; evaluations within one batch are near-uniform,
/// so locality wins.
///
/// With `jobs <= 1` or a single item the map runs sequentially on the
/// calling thread using `states[0]`, preserving the
/// serial-is-parallel-at-width-1 property. Unused states (when there are
/// fewer chunks than states) are simply not touched.
///
/// # Panics
///
/// Panics if `states` has fewer than `min(jobs, items.len()).max(1)`
/// entries, and propagates panics from worker threads.
pub fn parallel_map_with<T, R, S, F>(jobs: usize, states: &mut [S], items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    S: Send,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let workers = jobs.min(items.len());
    if workers <= 1 {
        assert!(
            !states.is_empty(),
            "parallel_map_with needs at least one worker state"
        );
        let state = &mut states[0];
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(state, i, t))
            .collect();
    }
    assert!(
        states.len() >= workers,
        "parallel_map_with needs one state per worker ({} < {workers})",
        states.len()
    );
    let chunk = items.len().div_ceil(workers);
    // Workers move their `&mut S` in but only borrow `f` (a `&F` is `Send`
    // because `F: Sync`).
    let f = &f;
    let mut per_worker: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = states[..workers]
            .iter_mut()
            .enumerate()
            .map(|(w, state)| {
                let start = w * chunk;
                let end = (start + chunk).min(items.len());
                scope.spawn(move || {
                    items[start..end]
                        .iter()
                        .enumerate()
                        .map(|(off, t)| f(state, start + off, t))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("search worker panicked"))
            .collect()
    });
    // Chunks are contiguous and in worker order, so concatenation *is*
    // item order.
    let mut out = Vec::with_capacity(items.len());
    for part in &mut per_worker {
        out.append(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_jobs_resolves_zero_and_clamps_to_the_machine() {
        let cpus = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(effective_jobs(0), cpus);
        assert_eq!(effective_jobs(1), 1);
        // Requests are capped at the machine's parallelism: solver workers
        // are compute-bound, so oversubscription can only slow things down.
        assert_eq!(effective_jobs(7), 7.min(cpus));
        assert_eq!(effective_jobs(usize::MAX), cpus);
    }

    #[test]
    fn map_preserves_item_order_at_any_width() {
        let items: Vec<u64> = (0..103).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, 200] {
            let got = parallel_map_with(jobs, &mut vec![(); jobs], &items, |(), _, x| x * x);
            assert_eq!(got, expect, "{jobs}");
        }
    }

    #[test]
    fn map_handles_empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        let mut states = [(); 8];
        assert!(parallel_map_with(8, &mut states, &empty, |(), _, x| *x).is_empty());
        let got = parallel_map_with(8, &mut states, &[41_u32], |(), _, x| x + 1);
        assert_eq!(got, vec![42]);
    }

    #[test]
    fn map_passes_the_item_index() {
        let items = ["a", "b", "c"];
        let got = parallel_map_with(2, &mut [(); 2], &items, |(), i, s| format!("{i}{s}"));
        assert_eq!(got, vec!["0a", "1b", "2c"]);
    }

    #[test]
    #[should_panic(expected = "search worker panicked")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..64).collect();
        let _ = parallel_map_with(4, &mut [(); 4], &items, |(), _, x| {
            assert!(*x != 13, "boom");
            *x
        });
    }

    #[test]
    fn map_with_preserves_item_order_at_any_width() {
        let items: Vec<u64> = (0..103).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, 200] {
            let mut states = vec![0_u64; jobs.max(1)];
            let got = parallel_map_with(jobs, &mut states, &items, |s, _, x| {
                *s += 1;
                x * x
            });
            assert_eq!(got, expect, "jobs={jobs}");
            assert_eq!(
                states.iter().sum::<u64>(),
                items.len() as u64,
                "every item visits exactly one worker state (jobs={jobs})"
            );
        }
    }

    #[test]
    fn map_with_gives_each_worker_a_contiguous_locality_chunk() {
        let items: Vec<usize> = (0..20).collect();
        let mut states: Vec<Vec<usize>> = vec![Vec::new(); 4];
        let _ = parallel_map_with(4, &mut states, &items, |seen, i, _| seen.push(i));
        for seen in &states {
            for pair in seen.windows(2) {
                assert_eq!(
                    pair[1],
                    pair[0] + 1,
                    "a worker's shard must be a consecutive run of the item order"
                );
            }
        }
        let mut all: Vec<usize> = states.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, items, "chunks must partition the items");
    }

    #[test]
    fn map_with_runs_inline_on_the_first_state_when_serial() {
        let items = [10_u32, 20, 30];
        let mut states = vec![0_u32, 99];
        let got = parallel_map_with(1, &mut states, &items, |s, _, x| {
            *s += x;
            *x
        });
        assert_eq!(got, vec![10, 20, 30]);
        assert_eq!(states, vec![60, 99], "only the first state is touched");
    }

    #[test]
    #[should_panic(expected = "one state per worker")]
    fn map_with_rejects_too_few_states() {
        let items: Vec<u32> = (0..10).collect();
        let mut states = vec![(); 1];
        let _ = parallel_map_with(4, &mut states, &items, |(), _, x| *x);
    }
}
