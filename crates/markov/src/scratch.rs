//! Reusable solver workspace.
//!
//! A design search solves thousands of chains of nearly identical size
//! back to back; allocating the iteration vectors, the transposed in-edge
//! structure, the irreducibility check's visited flags and stack, and the
//! dense elimination matrix fresh for every solve is pure churn.
//! [`SolveScratch`] owns those buffers so consecutive solves recycle them
//! — pass one to [`FallbackSolver::solve`](crate::FallbackSolver::solve),
//! which lends the accepted `π` out of the scratch, and the only per-solve
//! allocation left is the attempt trail.
//!
//! The scratch carries capacity, never state: every solve overwrites the
//! buffers it reads before reading them, so a solve's result does not
//! depend on what the scratch solved before.

use crate::Ctmc;

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
    /// Per-state visited flags of the irreducibility check.
    pub(crate) seen: Vec<bool>,
    /// Depth-first work stack of the irreducibility check.
    pub(crate) stack: Vec<usize>,
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
            + self.stack.capacity()
            + self.seen.capacity().div_ceil(8)
    }

    /// Builds `ctmc`'s incoming transitions in flat transposed-CSR form:
    /// `in_edges[in_starts[j]..in_starts[j+1]]` lists the `(i, q_ij)`
    /// pairs of state `j`, in source-ascending order.
    pub(crate) fn transpose(&mut self, ctmc: &Ctmc) {
        let n = ctmc.n_states();
        let SolveScratch {
            in_starts,
            in_edges,
            in_cursor,
            ..
        } = self;
        in_starts.clear();
        in_starts.resize(n + 1, 0);
        for t in ctmc.transitions() {
            in_starts[t.to + 1] += 1;
        }
        for j in 0..n {
            in_starts[j + 1] += in_starts[j];
        }
        in_cursor.clear();
        in_cursor.extend_from_slice(&in_starts[..n]);
        in_edges.clear();
        in_edges.resize(in_starts[n], (0, 0.0));
        for t in ctmc.transitions() {
            in_edges[in_cursor[t.to]] = (t.from, t.rate);
            in_cursor[t.to] += 1;
        }
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
