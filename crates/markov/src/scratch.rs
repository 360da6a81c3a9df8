//! Reusable solver workspace.
//!
//! A design search solves thousands of chains of nearly identical size
//! back to back; allocating the iteration vectors, the transposed in-edge
//! structure, and the dense elimination matrix fresh for every solve is
//! pure churn. [`SolveScratch`] owns those buffers so consecutive solves
//! recycle them — pass one to
//! [`FallbackSolver::solve`](crate::FallbackSolver::solve) and the only
//! per-solve allocation left is the returned `π` vector itself.
//!
//! The scratch carries capacity, never state: every solve overwrites the
//! buffers it reads before reading them, so a solve's result does not
//! depend on what the scratch solved before.

/// Reusable buffers for steady-state solves.
///
/// All buffers are resized on demand, so one scratch serves chains of any
/// (varying) size; capacity only grows. A used scratch is equivalent to a
/// fresh one — reuse changes performance, never results, down to the bit.
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    /// Current iterate / final solution of the last solve.
    pub(crate) pi: Vec<f64>,
    /// Second iterate for Jacobi-style updates (power iteration).
    pub(crate) next: Vec<f64>,
    /// Transposed adjacency: `in_starts[j]..in_starts[j+1]` indexes
    /// `in_edges`, listing the incoming `(source, rate)` pairs of state `j`.
    pub(crate) in_starts: Vec<usize>,
    /// Flat in-edge storage (see `in_starts`).
    pub(crate) in_edges: Vec<(usize, f64)>,
    /// Per-state write cursor used while building the transpose.
    pub(crate) in_cursor: Vec<usize>,
    /// Row-major dense elimination workspace (`n × n`).
    pub(crate) dense: Vec<f64>,
    /// Right-hand side / solution vector of the dense solve.
    pub(crate) rhs: Vec<f64>,
    /// Per-state inflow accumulator of the fallback solver's residual check.
    pub(crate) net_flow: Vec<f64>,
}

impl SolveScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> SolveScratch {
        SolveScratch::default()
    }

    /// Total `f64` capacity currently held across all buffers (a coarse
    /// footprint indicator for tests and diagnostics).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.pi.capacity()
            + self.next.capacity()
            + self.dense.capacity()
            + self.rhs.capacity()
            + self.net_flow.capacity()
            + 2 * self.in_edges.capacity()
            + self.in_starts.capacity()
            + self.in_cursor.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_capacity_starts_empty() {
        assert_eq!(SolveScratch::new().capacity(), 0);
    }
}
