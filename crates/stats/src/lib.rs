//! Statistical toolkit for the MICA workload-comparison methodology.
//!
//! Everything here operates on a [`DataSet`] — a benchmarks × metrics matrix
//! — and is deliberately dependency-light (no BLAS): the paper's data sets
//! are small (122 × 47), so clarity wins over throughput.
//!
//! The pieces map onto the paper as follows:
//!
//! - [`zscore_normalize`] — the normalization step of Section IV (zero mean,
//!   unit standard deviation per characteristic);
//! - [`pairwise_distances`] / [`CondensedDistances`] — Euclidean distances
//!   between all benchmark tuples;
//! - [`pearson`] — the correlation coefficient of Figures 1 and 5;
//! - [`classify_pairs`] — the true/false positive/negative split of
//!   Table III;
//! - [`roc_curve`] / [`auc`] — the ROC evaluation of Figure 4;
//! - [`correlation_elimination`] — Section V-A;
//! - [`GeneticSelector`] — the GA feature selection of Section V-B, with the
//!   paper's fitness `f = rho * (1 - n/N)`;
//! - [`Pca`] — the prior-work baseline the paper compares against;
//! - [`kmeans`] / [`choose_k_by_bic`] — the clustering of Section VI;
//! - [`hierarchical_cluster`] / [`silhouette`] — the dendrogram alternative
//!   used by the prior work the paper cites, plus cluster validation;
//! - [`plot`] — small self-contained SVG emitters (scatter, lines, kiviat)
//!   used by the experiment binaries.

mod corr_elim;
mod dataset;
mod distance;
mod ga;
mod hier;
mod kmeans;
mod pca;
pub mod plot;
mod roc;

pub use corr_elim::{correlation_elimination, elimination_order, mean_abs_correlation};
pub use dataset::{DataSet, ParseDataSetError};
pub use distance::{pairwise_distances, pearson, CondensedDistances};
pub use ga::{select_features, select_features_k, GaConfig, GaResult, GeneticSelector};
pub use hier::{hierarchical_cluster, silhouette, Dendrogram, Merge};
pub use kmeans::{choose_k_by_bic, kmeans, KMeansResult};
pub use pca::Pca;
pub use roc::{auc, classify_pairs, roc_curve, PairClassification, RocPoint};

/// Normalize each column to zero mean and unit standard deviation
/// (the Section IV normalization). Constant columns become all-zero;
/// an empty dataset (possible when every benchmark was quarantined)
/// passes through unchanged.
pub fn zscore_normalize(ds: &DataSet) -> DataSet {
    if ds.rows() == 0 {
        return ds.clone();
    }
    let mut out = ds.clone();
    for c in 0..ds.cols() {
        let n = ds.rows() as f64;
        let mean = (0..ds.rows()).map(|r| ds.get(r, c)).sum::<f64>() / n;
        let var = (0..ds.rows()).map(|r| (ds.get(r, c) - mean).powi(2)).sum::<f64>() / n;
        let sd = var.sqrt();
        for r in 0..ds.rows() {
            let v = if sd > 0.0 { (ds.get(r, c) - mean) / sd } else { 0.0 };
            out.set(r, c, v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zscore_gives_zero_mean_unit_sd() {
        let ds = DataSet::from_rows(vec![
            vec![1.0, 10.0],
            vec![2.0, 20.0],
            vec![3.0, 30.0],
            vec![4.0, 40.0],
        ]);
        let z = zscore_normalize(&ds);
        for c in 0..2 {
            let mean: f64 = (0..4).map(|r| z.get(r, c)).sum::<f64>() / 4.0;
            let var: f64 = (0..4).map(|r| z.get(r, c).powi(2)).sum::<f64>() / 4.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_column_becomes_zero() {
        let ds = DataSet::from_rows(vec![vec![5.0], vec![5.0], vec![5.0]]);
        let z = zscore_normalize(&ds);
        for r in 0..3 {
            assert_eq!(z.get(r, 0), 0.0);
        }
    }

    #[test]
    fn empty_dataset_passes_through() {
        let ds = DataSet::from_rows(Vec::new());
        let z = zscore_normalize(&ds);
        assert_eq!(z, ds);
    }
}
