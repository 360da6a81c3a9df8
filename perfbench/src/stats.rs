//! Order statistics for latency samples.

/// The median of `samples` (the mean of the two middle values for an even
/// count).
///
/// # Panics
///
/// Panics if `samples` is empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A tail percentile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
}

/// The `per_mille / 10` percentile of `samples` by the nearest-rank rule,
/// with the number of samples ranked beyond it. Per mille keeps the rank
/// exact.
///
/// # Panics
///
/// Panics if `samples` is empty or `per_mille` exceeds 1000.
#[must_use]
pub fn percentile(samples: &[f64], per_mille: u32) -> Tail {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(per_mille <= 1000, "per mille {per_mille} exceeds 1000");
    let sorted = sorted(samples);
    let n = sorted.len();
    let rank = (per_mille as usize * n).div_ceil(1000).clamp(1, n);
    Tail {
        percentile: f64::from(per_mille) / 10.0,
        value: sorted[rank - 1],
        beyond: n - rank,
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
