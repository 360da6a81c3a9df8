//! Minimal compressed-sparse-row matrix for transition storage.

use serde::{Deserialize, Serialize};

/// A row-major sparse matrix of `(column, value)` entries.
///
/// This is deliberately minimal: availability models produce generator
/// matrices with a handful of entries per row, and the chain only needs row
/// iteration and in-place rate patches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct CsrMatrix {
    row_starts: Vec<usize>,
    entries: Vec<(usize, f64)>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from unsorted triplets, merging duplicates by
    /// summation.
    ///
    /// Duplicate `(row, column)` triplets are summed **in input order** (the
    /// sort below is stable), so the merged value is bit-reproducible from
    /// the triplet sequence alone. The rate-only rebuild path
    /// ([`Ctmc::patch_rates`](crate::Ctmc)) relies on this: re-accumulating
    /// the same contributions in the same order reproduces the same floats.
    ///
    /// # Panics
    ///
    /// Panics if any row or column index is `>= n_rows` / `>= n_cols`
    /// respectively (the matrix is square here: `n_cols == n_rows`).
    #[must_use]
    pub fn from_triplets(n_rows: usize, mut triplets: Vec<(usize, usize, f64)>) -> CsrMatrix {
        for &(r, c, _) in &triplets {
            assert!(r < n_rows && c < n_rows, "triplet index out of range");
        }
        triplets.sort_by_key(|a| (a.0, a.1));
        let mut row_starts = Vec::with_capacity(n_rows + 1);
        let mut entries: Vec<(usize, f64)> = Vec::with_capacity(triplets.len());
        let mut current_row = 0;
        row_starts.push(0);
        for (r, c, v) in triplets {
            while current_row < r {
                row_starts.push(entries.len());
                current_row += 1;
            }
            // Merge duplicates, but only within the current row.
            if entries.len() > row_starts[current_row] {
                let last = entries.last_mut().expect("row is nonempty");
                if last.0 == c {
                    last.1 += v;
                    continue;
                }
            }
            entries.push((c, v));
        }
        while current_row < n_rows {
            row_starts.push(entries.len());
            current_row += 1;
        }
        debug_assert_eq!(row_starts.len(), n_rows + 1);
        CsrMatrix {
            row_starts,
            entries,
        }
    }

    /// Number of stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The entries of row `r` as `(column, value)` pairs, sorted by column.
    ///
    /// # Panics
    ///
    /// Panics if `r >= n_rows`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[(usize, f64)] {
        &self.entries[self.row_starts[r]..self.row_starts[r + 1]]
    }

    /// The position of entry `(r, c)` in the flat entry array, if stored.
    ///
    /// Positions index the row-major, column-sorted entry order and stay
    /// valid as long as the sparsity structure is unchanged (values may be
    /// rewritten via [`CsrMatrix::overwrite_values`]).
    ///
    /// # Panics
    ///
    /// Panics if `r >= n_rows`.
    #[must_use]
    pub fn entry_index(&self, r: usize, c: usize) -> Option<usize> {
        let start = self.row_starts[r];
        let row = &self.entries[start..self.row_starts[r + 1]];
        row.binary_search_by_key(&c, |&(col, _)| col)
            .ok()
            .map(|i| start + i)
    }

    /// Replaces every stored value in flat entry order, keeping the
    /// sparsity structure. This is the rate-only rebuild primitive: a
    /// neighbor model with identical topology patches its rates in place
    /// instead of re-sorting and re-merging triplets.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != nnz`.
    pub fn overwrite_values(&mut self, values: &[f64]) {
        assert_eq!(values.len(), self.entries.len(), "value count mismatch");
        for (e, &v) in self.entries.iter_mut().zip(values) {
            e.1 = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn builds_sorted_rows() {
        let m = CsrMatrix::from_triplets(3, vec![(2, 0, 5.0), (0, 2, 1.0), (0, 1, 2.0)]);
        assert_eq!(m.row(0), &[(1, 2.0), (2, 1.0)]);
        assert_eq!(m.row(1), &[]);
        assert_eq!(m.row(2), &[(0, 5.0)]);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn merges_duplicates() {
        let m = CsrMatrix::from_triplets(2, vec![(0, 1, 1.0), (0, 1, 2.5)]);
        assert_eq!(m.row(0), &[(1, 3.5)]);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn does_not_merge_across_rows() {
        let m = CsrMatrix::from_triplets(3, vec![(0, 2, 1.0), (1, 2, 2.0)]);
        assert_eq!(m.row(0), &[(2, 1.0)]);
        assert_eq!(m.row(1), &[(2, 2.0)]);
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::from_triplets(4, vec![]);
        assert_eq!(m.nnz(), 0);
        for r in 0..4 {
            assert!(m.row(r).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let _ = CsrMatrix::from_triplets(2, vec![(0, 5, 1.0)]);
    }

    #[test]
    fn entry_index_finds_stored_entries_only() {
        let m = CsrMatrix::from_triplets(3, vec![(0, 2, 1.0), (0, 1, 2.0), (2, 0, 5.0)]);
        assert_eq!(m.entry_index(0, 1), Some(0));
        assert_eq!(m.entry_index(0, 2), Some(1));
        assert_eq!(m.entry_index(2, 0), Some(2));
        assert_eq!(m.entry_index(0, 0), None);
        assert_eq!(m.entry_index(1, 2), None);
        assert_eq!(m.entries[2], (0, 5.0));
    }

    #[test]
    fn overwrite_values_patches_in_entry_order() {
        let mut m = CsrMatrix::from_triplets(2, vec![(0, 1, 1.0), (1, 0, 2.0)]);
        m.overwrite_values(&[10.0, 20.0]);
        assert_eq!(m.row(0), &[(1, 10.0)]);
        assert_eq!(m.row(1), &[(0, 20.0)]);
    }

    #[test]
    #[should_panic(expected = "value count mismatch")]
    fn overwrite_values_rejects_wrong_length() {
        let mut m = CsrMatrix::from_triplets(2, vec![(0, 1, 1.0)]);
        m.overwrite_values(&[1.0, 2.0]);
    }

    proptest! {
        // Satellite requirement: duplicate-triplet merging is explicit —
        // duplicates sum, and they sum in input order (stable sort), so the
        // build is bit-reproducible.
        #[test]
        fn duplicates_merge_by_input_order_summation(
            n in 1_usize..6,
            trips in proptest::collection::vec((0_usize..6, 0_usize..6, 0.001_f64..10.0), 1..40),
        ) {
            let trips: Vec<_> = trips
                .into_iter()
                .map(|(r, c, v)| (r % n, c % n, v))
                .collect();
            let m = CsrMatrix::from_triplets(n, trips.clone());
            // Expected value of (r, c): sum of matching triplets, left to
            // right in input order. Must match bitwise.
            for r in 0..n {
                for c in 0..n {
                    let expect = trips
                        .iter()
                        .filter(|&&(tr, tc, _)| tr == r && tc == c)
                        .fold(None, |acc: Option<f64>, &(_, _, v)| {
                            Some(acc.map_or(v, |a| a + v))
                        });
                    let got = m.entry_index(r, c).map(|i| m.entries[i].1);
                    prop_assert_eq!(got.map(f64::to_bits), expect.map(f64::to_bits));
                }
            }
            // Structure: rows sorted by column, no duplicate columns.
            for r in 0..n {
                let row = m.row(r);
                for w in row.windows(2) {
                    prop_assert!(w[0].0 < w[1].0, "row {} not strictly sorted", r);
                }
            }
        }

        // Satellite requirement: input order of *distinct* entries never
        // matters — shuffled triplets build the identical matrix.
        #[test]
        fn unsorted_triplets_build_identical_matrices(
            n in 1_usize..6,
            trips in proptest::collection::vec((0_usize..6, 0_usize..6, 0.001_f64..10.0), 0..20),
            rot in 0_usize..20,
        ) {
            let mut dedup: Vec<(usize, usize, f64)> = Vec::new();
            for (r, c, v) in trips {
                let (r, c) = (r % n, c % n);
                if !dedup.iter().any(|&(dr, dc, _)| dr == r && dc == c) {
                    dedup.push((r, c, v));
                }
            }
            let sorted = CsrMatrix::from_triplets(n, dedup.clone());
            if !dedup.is_empty() {
                let rot = rot % dedup.len();
                dedup.rotate_left(rot);
            }
            let rotated = CsrMatrix::from_triplets(n, dedup);
            prop_assert_eq!(sorted, rotated);
        }

        // overwrite_values + entry_index round-trip preserves the structure
        // and replaces exactly the values (the rate-only rebuild contract).
        #[test]
        fn value_patch_round_trips(
            n in 1_usize..6,
            trips in proptest::collection::vec((0_usize..6, 0_usize..6, 0.001_f64..10.0), 1..20),
        ) {
            let trips: Vec<_> = trips
                .into_iter()
                .map(|(r, c, v)| (r % n, c % n, v))
                .collect();
            let original = CsrMatrix::from_triplets(n, trips.clone());
            let doubled_trips: Vec<_> =
                trips.iter().map(|&(r, c, v)| (r, c, 2.0 * v)).collect();
            let rebuilt = CsrMatrix::from_triplets(n, doubled_trips);
            // Patch: accumulate doubled contributions through entry_index.
            let mut values = vec![0.0_f64; original.nnz()];
            for &(r, c, v) in &trips {
                let idx = original.entry_index(r, c).expect("entry exists");
                values[idx] += 2.0 * v;
            }
            let mut patched = original;
            patched.overwrite_values(&values);
            // Bit-identical to a from-scratch rebuild with the new rates.
            prop_assert_eq!(patched, rebuilt);
        }
    }
}
