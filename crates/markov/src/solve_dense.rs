//! Exact steady-state solution by Gaussian elimination.

use crate::scratch::SolveScratch;
use crate::{Ctmc, MarkovError, SteadyStateSolver};

/// Direct steady-state solver.
///
/// Solves `Qᵀ·πᵀ = 0` with the normalization constraint `Σπ = 1` by
/// replacing the last equation with the all-ones row, then running Gaussian
/// elimination with partial pivoting. Exact (up to floating point) and
/// robust for the modest chains produced by tier availability models
/// (typically well under a thousand states).
///
/// # Examples
///
/// ```
/// use aved_markov::{CtmcBuilder, DenseSolver, SteadyStateSolver};
///
/// // Birth-death chain 0 <-> 1 <-> 2.
/// let mut b = CtmcBuilder::new(3);
/// b.rate(0, 1, 1.0).rate(1, 2, 1.0).rate(1, 0, 2.0).rate(2, 1, 2.0);
/// let pi = DenseSolver::default().steady_state(&b.build()?)?;
/// assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// # Ok::<(), aved_markov::MarkovError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DenseSolver {
    _private: (),
}

impl DenseSolver {
    /// Creates a dense solver.
    #[must_use]
    pub fn new() -> DenseSolver {
        DenseSolver::default()
    }

    /// The elimination, writing the solution into `scratch.pi` and reusing
    /// the scratch's `n × n` matrix buffer — the dominant allocation of a
    /// dense solve.
    ///
    /// `assume_irreducible` skips the strong-connectivity check; callers set
    /// it only for a structure that already produced an accepted solve.
    pub(crate) fn solve_into(
        &self,
        ctmc: &Ctmc,
        scratch: &mut SolveScratch,
        assume_irreducible: bool,
    ) -> Result<(), MarkovError> {
        if !assume_irreducible {
            ctmc.check_irreducible(scratch)
                .map_err(|state| MarkovError::Reducible { state })?;
        }
        let n = ctmc.n_states();
        if n == 1 {
            scratch.pi.clear();
            scratch.pi.push(1.0);
            return Ok(());
        }

        let SolveScratch { pi, dense, rhs, .. } = scratch;
        assemble(ctmc, dense, rhs);
        let (a, b) = (dense, rhs);
        solve_linear(a, b, n)?;

        // Guard against tiny negative values from rounding.
        let mut sum = 0.0;
        for p in b.iter_mut() {
            if *p < 0.0 {
                if *p < -1e-8 {
                    return Err(MarkovError::Singular);
                }
                *p = 0.0;
            }
            sum += *p;
        }
        if sum.is_nan() || sum <= 0.0 || !sum.is_finite() {
            return Err(MarkovError::Singular);
        }
        for p in b.iter_mut() {
            *p /= sum;
        }
        pi.clear();
        pi.extend_from_slice(b);
        Ok(())
    }
}

impl SteadyStateSolver for DenseSolver {
    fn steady_state(&self, ctmc: &Ctmc) -> Result<Vec<f64>, MarkovError> {
        let mut scratch = SolveScratch::new();
        self.solve_into(ctmc, &mut scratch, false)?;
        Ok(std::mem::take(&mut scratch.pi))
    }
}

/// Assembles the system `A·x = b` for the chain's stationary vector:
/// `A = Qᵀ` as a dense row-major matrix with its last row overwritten by
/// ones (normalization), and `b = e_{n-1}`.
fn assemble(ctmc: &Ctmc, a: &mut Vec<f64>, b: &mut Vec<f64>) {
    let n = ctmc.n_states();
    a.clear();
    a.resize(n * n, 0.0);
    for t in ctmc.transitions() {
        // Q[from][to] += rate; Q[from][from] -= rate. Transposed:
        a[t.to * n + t.from] += t.rate;
        a[t.from * n + t.from] -= t.rate;
    }
    for col in 0..n {
        a[(n - 1) * n + col] = 1.0;
    }
    b.clear();
    b.resize(n, 0.0);
    b[n - 1] = 1.0;
}

/// In-place Gaussian elimination with partial pivoting on an `n×n`
/// row-major matrix; the solution overwrites `b`.
///
/// The forward elimination is compiled twice from one body — a portable
/// instance and, on x86-64 CPUs that have it, an AVX2 instance picked at
/// run time. Both perform the same floating-point operations in the same
/// order, so the solution is bit-identical either way (see `DESIGN.md`,
/// "Dense elimination kernel").
fn solve_linear(a: &mut [f64], b: &mut [f64], n: usize) -> Result<(), MarkovError> {
    forward_eliminate(a, b, n)?;
    back_substitute(a, b, n);
    Ok(())
}

/// Runs the fastest forward-elimination instance this CPU supports.
fn forward_eliminate(a: &mut [f64], b: &mut [f64], n: usize) -> Result<(), MarkovError> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked just above.
        return unsafe { forward_eliminate_avx2(a, b, n) };
    }
    eliminate(a, b, n)
}

/// The AVX2 instance of [`eliminate`]. AVX2 widens the row update to four
/// lanes; it does not enable FMA, so each multiply and subtract still
/// rounds separately.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn forward_eliminate_avx2(
    a: &mut [f64],
    b: &mut [f64],
    n: usize,
) -> Result<(), MarkovError> {
    eliminate(a, b, n)
}

/// Forward elimination with partial pivoting, leaving `a` upper
/// triangular (entries below the diagonal are never read again).
///
/// The pivot is the first row holding the column's largest magnitude
/// (strict `>`). Each target row's factor is `a[row][col] / pivot`, and
/// its trailing entries are updated column by column as `t -= factor * p`:
/// a rounded multiply, then a rounded subtract. The update runs over
/// disjoint row slices so the compiler can vectorise it; lanes are
/// independent elements, so vectorising changes no result. The next
/// column's pivot search rides along with the update, reading each row's
/// new leading entry while it is still in cache, in the same row order as
/// a separate scan.
#[inline(always)]
fn eliminate(a: &mut [f64], b: &mut [f64], n: usize) -> Result<(), MarkovError> {
    let mut pivot_row = 0;
    let mut pivot_val = a[0].abs();
    for row in 1..n {
        let v = a[row * n].abs();
        if v > pivot_val {
            pivot_val = v;
            pivot_row = row;
        }
    }
    for col in 0..n {
        if pivot_val < 1e-300 {
            return Err(MarkovError::Singular);
        }
        let (above, below) = a.split_at_mut((col + 1) * n);
        let pivot_full = &mut above[col * n..];
        if pivot_row != col {
            let other = &mut below[(pivot_row - col - 1) * n..(pivot_row - col) * n];
            pivot_full[col..].swap_with_slice(&mut other[col..]);
            b.swap(col, pivot_row);
        }
        let pivot = pivot_full[col];
        let pivot_tail = &pivot_full[col + 1..];
        let b_pivot = b[col];
        let next = col + 1;
        let rows = below.chunks_exact_mut(n).zip(&mut b[next..]);
        for (row, (target, b_row)) in (next..).zip(rows) {
            let factor = target[col] / pivot;
            if factor != 0.0 {
                for (t, &p) in target[next..].iter_mut().zip(pivot_tail) {
                    *t -= factor * p;
                }
                *b_row -= factor * b_pivot;
            }
            let v = target[next].abs();
            if row == next || v > pivot_val {
                pivot_val = v;
                pivot_row = row;
            }
        }
    }
    Ok(())
}

/// Back substitution on the upper triangle left by [`eliminate`].
fn back_substitute(a: &[f64], b: &mut [f64], n: usize) {
    for col in (0..n).rev() {
        let mut v = b[col];
        for k in (col + 1)..n {
            v -= a[col * n + k] * b[k];
        }
        b[col] = v / a[col * n + col];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CtmcBuilder;
    use proptest::prelude::*;

    fn solve(builder: &CtmcBuilder) -> Vec<f64> {
        DenseSolver::new()
            .steady_state(&builder.build().unwrap())
            .unwrap()
    }

    #[test]
    fn two_state_repair_model() {
        // MTBF 100, MTTR 1 => availability 100/101.
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0 / 100.0).rate(1, 0, 1.0);
        let pi = solve(&b);
        assert!((pi[0] - 100.0 / 101.0).abs() < 1e-12);
        assert!((pi[1] - 1.0 / 101.0).abs() < 1e-12);
    }

    #[test]
    fn detailed_balance_chain() {
        // 3-state ring with symmetric rates has uniform stationary dist.
        let mut b = CtmcBuilder::new(3);
        for (i, j) in [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)] {
            b.rate(i, j, 2.0);
        }
        let pi = solve(&b);
        for p in pi {
            assert!((p - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn asymmetric_ring() {
        // One-directional ring: uniform stationary distribution as well
        // (doubly stochastic generator).
        let mut b = CtmcBuilder::new(4);
        b.rate(0, 1, 5.0)
            .rate(1, 2, 5.0)
            .rate(2, 3, 5.0)
            .rate(3, 0, 5.0);
        let pi = solve(&b);
        for p in pi {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn ring_with_unequal_rates() {
        // pi_i proportional to 1/rate_i for a unidirectional ring.
        let rates = [1.0, 2.0, 4.0];
        let mut b = CtmcBuilder::new(3);
        b.rate(0, 1, rates[0])
            .rate(1, 2, rates[1])
            .rate(2, 0, rates[2]);
        let pi = solve(&b);
        let weight: f64 = rates.iter().map(|r| 1.0 / r).sum();
        for (i, p) in pi.iter().enumerate() {
            assert!((p - (1.0 / rates[i]) / weight).abs() < 1e-12);
        }
    }

    #[test]
    fn widely_separated_rates_stay_accurate() {
        // MTBF years vs repair minutes: rate ratio ~ 1e7.
        let lambda = 1.0 / (650.0 * 24.0); // per hour
        let mu = 60.0; // one minute repairs
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, lambda).rate(1, 0, mu);
        let pi = solve(&b);
        let expect = lambda / (lambda + mu);
        assert!((pi[1] - expect).abs() / expect < 1e-10);
    }

    #[test]
    fn reducible_chain_is_rejected() {
        let mut b = CtmcBuilder::new(3);
        b.rate(0, 1, 1.0).rate(1, 0, 1.0).rate(2, 0, 1.0);
        let ctmc = b.build_unchecked();
        assert!(matches!(
            DenseSolver::new().steady_state(&ctmc),
            Err(MarkovError::Reducible { .. })
        ));
    }

    #[test]
    fn single_state() {
        let b = CtmcBuilder::new(1);
        let pi = solve(&b);
        assert_eq!(pi, vec![1.0]);
    }

    /// The scalar elimination the dense stage ran before the vectorised
    /// kernel, kept verbatim as the bit-identity reference.
    fn reference_solve_linear(a: &mut [f64], b: &mut [f64], n: usize) -> Result<(), MarkovError> {
        for col in 0..n {
            let mut pivot_row = col;
            let mut pivot_val = a[col * n + col].abs();
            for row in (col + 1)..n {
                let v = a[row * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = row;
                }
            }
            if pivot_val < 1e-300 {
                return Err(MarkovError::Singular);
            }
            if pivot_row != col {
                for k in 0..n {
                    a.swap(col * n + k, pivot_row * n + k);
                }
                b.swap(col, pivot_row);
            }
            let pivot = a[col * n + col];
            for row in (col + 1)..n {
                let factor = a[row * n + col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                a[row * n + col] = 0.0;
                for k in (col + 1)..n {
                    a[row * n + k] -= factor * a[col * n + k];
                }
                b[row] -= factor * b[col];
            }
        }
        for col in (0..n).rev() {
            let mut v = b[col];
            for k in (col + 1)..n {
                v -= a[col * n + k] * b[k];
            }
            b[col] = v / a[col * n + col];
        }
        Ok(())
    }

    type Eliminate = fn(&mut [f64], &mut [f64], usize) -> Result<(), MarkovError>;

    /// Every forward-elimination instance this CPU can run.
    fn kernel_instances() -> Vec<(&'static str, Eliminate)> {
        let mut instances: Vec<(&'static str, Eliminate)> = vec![("portable", eliminate)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: only registered when the CPU supports AVX2.
            instances.push(("avx2", |a, b, n| unsafe { forward_eliminate_avx2(a, b, n) }));
        }
        instances
    }

    /// Solves `ctmc`'s dense system with the reference and with every
    /// kernel instance, asserting bit-identical solutions.
    fn assert_kernels_match_reference(ctmc: &Ctmc) {
        let n = ctmc.n_states();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        assemble(ctmc, &mut a, &mut b);
        let (mut ref_a, mut ref_b) = (a.clone(), b.clone());
        reference_solve_linear(&mut ref_a, &mut ref_b, n).unwrap();
        for (name, eliminate) in kernel_instances() {
            let (mut a, mut b) = (a.clone(), b.clone());
            eliminate(&mut a, &mut b, n).unwrap();
            back_substitute(&a, &mut b, n);
            for (i, (x, y)) in b.iter().zip(&ref_b).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{name} kernel, n={n}, entry {i}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Random ergodic chains of up to 300 states with rates spread
        /// over six decades: every kernel instance reproduces the scalar
        /// reference bit for bit. Half the cases snap the rates to powers
        /// of ten, so equal magnitudes compete for the pivot and the
        /// first-maximum rule decides.
        #[test]
        fn kernel_matches_scalar_reference_bit_for_bit(
            n in 2_usize..301,
            snap in 0_u8..2,
            exponents in proptest::collection::vec(-4.0_f64..2.0, 2 * 300),
            chords in proptest::collection::vec((0_usize..300, 0_usize..300, -4.0_f64..2.0), 0..600),
        ) {
            let rate = |exponent: f64| {
                10_f64.powf(if snap == 1 { exponent.round() } else { exponent })
            };
            let mut b = CtmcBuilder::new(n);
            for i in 0..n {
                b.rate(i, (i + 1) % n, rate(exponents[i]));
                b.rate((i + 1) % n, i, rate(exponents[300 + i]));
            }
            for (from, to, exponent) in chords {
                let (from, to) = (from % n, to % n);
                if from != to {
                    b.rate(from, to, rate(exponent));
                }
            }
            assert_kernels_match_reference(&b.build().unwrap());
        }
    }

    proptest! {
        /// For random irreducible 2-state chains the closed form is known.
        #[test]
        fn two_state_closed_form(lambda in 1e-8_f64..1e3, mu in 1e-8_f64..1e3) {
            let mut b = CtmcBuilder::new(2);
            b.rate(0, 1, lambda).rate(1, 0, mu);
            let pi = solve(&b);
            let expect0 = mu / (lambda + mu);
            prop_assert!((pi[0] - expect0).abs() < 1e-9 * expect0.max(1e-12));
        }

        /// Random strongly-connected chains: the result satisfies piQ = 0.
        #[test]
        fn residual_is_small(
            n in 2_usize..12,
            seed_rates in proptest::collection::vec(0.01_f64..100.0, 2 * 12),
        ) {
            let mut b = CtmcBuilder::new(n);
            // Ring to guarantee irreducibility...
            for (i, &rate) in seed_rates.iter().enumerate().take(n) {
                b.rate(i, (i + 1) % n, rate);
            }
            // ...plus some chords.
            for i in 0..n {
                let j = (i * 7 + 3) % n;
                if j != i {
                    b.rate(i, j, seed_rates[n + i]);
                }
            }
            let ctmc = b.build().unwrap();
            let pi = DenseSolver::new().steady_state(&ctmc).unwrap();
            // residual_j = sum_i pi_i Q[i][j]
            let mut residual = vec![0.0_f64; n];
            for t in ctmc.transitions() {
                residual[t.to] += pi[t.from] * t.rate;
                residual[t.from] -= pi[t.from] * t.rate;
            }
            for r in residual {
                prop_assert!(r.abs() < 1e-8);
            }
            prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-10);
        }
    }
}
