//! Reusable solver workspace.
//!
//! A design search solves thousands of chains of nearly identical size
//! back to back; allocating the iteration vectors, the transposed in-edge
//! structure, and the dense elimination matrix fresh for every solve is
//! pure churn. [`SolveScratch`] owns those buffers so consecutive solves
//! recycle them — pass one to
//! [`FallbackSolver::solve_warm`](crate::FallbackSolver::solve_warm) (or the
//! individual solvers' scratch entry points) and the only per-solve
//! allocation left is the returned `π` vector itself.

/// Reusable buffers for steady-state solves.
///
/// All buffers are resized on demand, so one scratch serves chains of any
/// (varying) size; capacity only grows. A fresh scratch is equivalent to no
/// scratch — reuse changes performance, never results.
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

/// Validates and normalizes a warm-start hint.
///
/// Returns `None` (caller falls back to a cold start) when the hint is the
/// wrong length, contains a non-finite entry, has a meaningfully negative
/// entry, or carries no mass. Tiny negative entries (down to `-1e-9`, the
/// solvers' own rounding allowance) are clamped to zero; any other mass
/// profile is renormalized to sum to one.
pub(crate) fn sanitize_hint(n: usize, hint: &[f64]) -> Option<Vec<f64>> {
    if hint.len() != n {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    let mut sum = 0.0_f64;
    for &h in hint {
        if !h.is_finite() || h < -1e-9 {
            return None;
        }
        let v = h.max(0.0);
        out.push(v);
        sum += v;
    }
    if !sum.is_finite() || sum <= 0.0 {
        return None;
    }
    for v in &mut out {
        *v /= sum;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_rejects_wrong_size() {
        assert!(sanitize_hint(3, &[0.5, 0.5]).is_none());
        assert!(sanitize_hint(2, &[0.2, 0.3, 0.5]).is_none());
    }

    #[test]
    fn sanitize_rejects_non_finite_and_negative() {
        assert!(sanitize_hint(2, &[f64::NAN, 1.0]).is_none());
        assert!(sanitize_hint(2, &[f64::INFINITY, 1.0]).is_none());
        assert!(sanitize_hint(2, &[-0.5, 1.5]).is_none());
        assert!(sanitize_hint(2, &[0.0, 0.0]).is_none(), "no mass");
    }

    #[test]
    fn sanitize_renormalizes_and_clamps_rounding_noise() {
        let got = sanitize_hint(2, &[3.0, 1.0]).unwrap();
        assert_eq!(got, vec![0.75, 0.25]);
        let got = sanitize_hint(2, &[-1e-12, 2.0]).unwrap();
        assert_eq!(got, vec![0.0, 1.0]);
    }

    #[test]
    fn scratch_capacity_starts_empty() {
        assert_eq!(SolveScratch::new().capacity(), 0);
    }
}
