//! Brute-force k-nearest-neighbours with z-score feature scaling
//! (Table IV's "kNN" row).

use serde::{Deserialize, Serialize};

use crate::data::{Dataset, Standardizer};
use crate::Classifier;

/// Hyper-parameters for [`KNearestNeighbors`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnnConfig {
    /// Number of neighbours consulted per prediction.
    pub k: usize,
    /// Standardize features before distance computation (recommended; raw
    /// profile counts span 9 orders of magnitude).
    pub standardize: bool,
}

impl Default for KnnConfig {
    fn default() -> Self {
        Self {
            k: 5,
            standardize: true,
        }
    }
}

/// A fitted (memorized) kNN model.
///
/// # Example
///
/// ```
/// use ph_ml::data::Dataset;
/// use ph_ml::knn::{KNearestNeighbors, KnnConfig};
/// use ph_ml::Classifier;
///
/// let data = Dataset::new(vec![0.0, 0.1, 0.9, 1.0], 1, vec![false, false, true, true])?;
/// let model = KNearestNeighbors::fit(&KnnConfig { k: 3, standardize: false }, &data);
/// assert!(model.predict(&[0.95]));
/// # Ok::<(), ph_ml::data::DatasetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KNearestNeighbors {
    k: usize,
    scaler: Option<Standardizer>,
    /// The memorized training set, scaled when `scaler` is set.
    data: Dataset,
}

impl KNearestNeighbors {
    /// Memorizes the training data (and fits the scaler when enabled).
    ///
    /// `k` is clamped to the training-set size.
    ///
    /// # Panics
    ///
    /// Panics if `config.k == 0`.
    pub fn fit(config: &KnnConfig, data: &Dataset) -> Self {
        assert!(config.k > 0, "k must be positive");
        let scaler = config.standardize.then(|| Standardizer::fit(data));
        let data = match &scaler {
            Some(s) => s.transform_dataset(data),
            None => data.clone(),
        };
        Self {
            k: config.k.min(data.len()),
            scaler,
            data,
        }
    }

    /// Effective `k` after clamping.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Fraction of the k nearest training points labelled positive.
    pub fn predict_probability(&self, features: &[f64]) -> f64 {
        let query = match &self.scaler {
            Some(s) => s.transform(features),
            None => features.to_vec(),
        };
        // Partial selection of the k smallest squared distances.
        let mut dists: Vec<(f64, bool)> = self
            .data
            .rows()
            .zip(self.data.labels())
            .map(|(row, &label)| (squared_distance(row, &query), label))
            .collect();
        dists.select_nth_unstable_by(self.k - 1, |a, b| a.0.total_cmp(&b.0));
        let positive = dists[..self.k].iter().filter(|(_, l)| *l).count();
        positive as f64 / self.k as f64
    }
}

fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "feature width mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

impl Classifier for KNearestNeighbors {
    fn predict(&self, features: &[f64]) -> bool {
        self.predict_probability(features) >= 0.5
    }

    fn predict_score(&self, features: &[f64]) -> f64 {
        self.predict_probability(features)
    }

    fn predict_with_score(&self, features: &[f64]) -> (bool, f64) {
        let p = self.predict_probability(features);
        (p >= 0.5, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_neighbour_wins_with_k1() {
        let data = Dataset::new(vec![0.0, 10.0], 1, vec![false, true]).unwrap();
        let model = KNearestNeighbors::fit(
            &KnnConfig {
                k: 1,
                standardize: false,
            },
            &data,
        );
        assert!(!model.predict(&[1.0]));
        assert!(model.predict(&[9.0]));
    }

    #[test]
    fn k_is_clamped_to_dataset_size() {
        let data = Dataset::new(vec![0.0, 1.0], 1, vec![true, true]).unwrap();
        let model = KNearestNeighbors::fit(
            &KnnConfig {
                k: 50,
                standardize: false,
            },
            &data,
        );
        assert_eq!(model.k(), 2);
        assert!(model.predict(&[0.5]));
    }

    #[test]
    fn standardization_rebalances_feature_scales() {
        // Feature 0 is the signal (range 0–1); feature 1 is noise with a
        // huge scale that swamps unscaled Euclidean distance.
        let values = vec![0.0, 50_000.0, 0.1, -90_000.0, 0.9, 80_000.0, 1.0, -60_000.0];
        let labels = vec![false, false, true, true];
        let data = Dataset::new(values, 2, labels).unwrap();
        let scaled = KNearestNeighbors::fit(
            &KnnConfig {
                k: 1,
                standardize: true,
            },
            &data,
        );
        // Query near the positive cluster on the signal axis, noise mid-range.
        assert!(scaled.predict(&[0.95, 0.0]));
    }

    #[test]
    fn probability_counts_neighbour_votes() {
        let data =
            Dataset::new(vec![0.0, 0.2, 0.4, 10.0], 1, vec![true, true, false, false]).unwrap();
        let model = KNearestNeighbors::fit(
            &KnnConfig {
                k: 3,
                standardize: false,
            },
            &data,
        );
        assert!((model.predict_probability(&[0.1]) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let data = Dataset::new(vec![0.0], 1, vec![true]).unwrap();
        let _ = KNearestNeighbors::fit(
            &KnnConfig {
                k: 0,
                standardize: false,
            },
            &data,
        );
    }

    #[test]
    fn tie_breaks_positive() {
        let data = Dataset::new(vec![0.0, 2.0], 1, vec![true, false]).unwrap();
        let model = KNearestNeighbors::fit(
            &KnnConfig {
                k: 2,
                standardize: false,
            },
            &data,
        );
        // 1 of 2 neighbours positive → probability 0.5 → predicted positive.
        assert!(model.predict(&[1.0]));
    }
}
