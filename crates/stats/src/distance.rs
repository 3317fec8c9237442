//! Pairwise Euclidean distances and Pearson correlation.

use crate::dataset::DataSet;
use serde::{Deserialize, Serialize};

/// The upper triangle of a symmetric distance matrix over `n` items,
/// stored condensed (like SciPy's `pdist` output).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CondensedDistances {
    n: usize,
    values: Vec<f64>,
}

impl CondensedDistances {
    /// Number of items (benchmarks).
    pub fn num_items(&self) -> usize {
        self.n
    }

    /// Number of pairs, `n * (n - 1) / 2`.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when there are no pairs (fewer than two items).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The condensed values, ordered `(0,1), (0,2), ..., (n-2,n-1)`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Distance between items `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i != j, "no self-distance in a condensed matrix");
        assert!(i < self.n && j < self.n, "index out of range");
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        // Offset of row i's block in the condensed layout.
        let idx = i * self.n - i * (i + 1) / 2 + (j - i - 1);
        self.values[idx]
    }

    /// Largest pairwise distance (0.0 when empty).
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Iterate `(i, j, distance)` over all pairs.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let n = self.n;
        (0..n)
            .flat_map(move |i| (i + 1..n).map(move |j| (i, j)))
            .zip(self.values.iter().copied())
            .map(|((i, j), d)| (i, j, d))
    }
}

/// One row's block of the condensed layout: distances from item `i` to
/// every item after it.
fn row_block(ds: &DataSet, i: usize) -> Vec<f64> {
    let a = ds.row(i);
    (i + 1..ds.rows())
        .map(|j| {
            let b = ds.row(j);
            let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
            d2.sqrt()
        })
        .collect()
}

/// Euclidean distances between all row pairs of `ds`.
///
/// Row blocks are computed on the [`mica_par`] worker pool and concatenated
/// in row order, so the result is bit-identical for any thread count.
pub fn pairwise_distances(ds: &DataSet) -> CondensedDistances {
    let n = ds.rows();
    let blocks = mica_par::par_map_indexed(n.saturating_sub(1), |i| row_block(ds, i));
    let mut values = Vec::with_capacity(n.saturating_sub(1) * n / 2);
    for block in blocks {
        values.extend(block);
    }
    CondensedDistances { n, values }
}

/// Pearson correlation coefficient of two equal-length samples.
///
/// Returns 0.0 if either sample has zero variance (degenerate case; the
/// experiments treat "no information" as "no correlation").
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "samples must have equal length");
    assert!(!a.is_empty(), "samples must be non-empty");
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        let dx = x - ma;
        let dy = y - mb;
        cov += dx * dy;
        va += dx * dx;
        vb += dy * dy;
    }
    if va <= 0.0 || vb <= 0.0 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_match_hand_computation() {
        let ds = DataSet::from_rows(vec![vec![0.0, 0.0], vec![3.0, 4.0], vec![0.0, 1.0]]);
        let d = pairwise_distances(&ds);
        assert_eq!(d.len(), 3);
        assert_eq!(d.get(0, 1), 5.0);
        assert_eq!(d.get(0, 2), 1.0);
        assert_eq!(d.get(1, 2), (9.0f64 + 9.0).sqrt());
        assert_eq!(d.get(1, 0), d.get(0, 1), "symmetric lookup");
        assert_eq!(d.max(), 5.0);
    }

    #[test]
    fn iter_pairs_covers_upper_triangle_in_order() {
        let ds = DataSet::from_rows(vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let d = pairwise_distances(&ds);
        let pairs: Vec<_> = d.iter_pairs().map(|(i, j, _)| (i, j)).collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        for (i, j, dist) in d.iter_pairs() {
            assert_eq!(dist, (j - i) as f64);
        }
    }

    #[test]
    fn triangle_inequality_holds() {
        let ds = DataSet::from_rows(vec![
            vec![1.0, 7.0, -2.0],
            vec![0.5, -3.0, 4.0],
            vec![9.0, 0.0, 0.0],
        ]);
        let d = pairwise_distances(&ds);
        assert!(d.get(0, 2) <= d.get(0, 1) + d.get(1, 2) + 1e-12);
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        let c = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_of_constant_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn degenerate_datasets_give_empty_distances() {
        // 0 rows (fully-quarantined run) and 1 row (single survivor) both
        // have no pairs; neither may panic.
        for ds in [DataSet::from_rows(Vec::new()), DataSet::from_rows(vec![vec![1.0, 2.0]])] {
            let d = pairwise_distances(&ds);
            assert_eq!(d.num_items(), ds.rows());
            assert!(d.values().is_empty());
            assert_eq!(d.max(), 0.0);
        }
    }

    #[test]
    fn pearson_uncorrelated_is_small() {
        // Orthogonal-ish pattern.
        let a = [1.0, -1.0, 1.0, -1.0];
        let b = [1.0, 1.0, -1.0, -1.0];
        assert!(pearson(&a, &b).abs() < 1e-12);
    }
}
