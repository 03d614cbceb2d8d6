//! Permutation feature importance.
//!
//! The paper motivates its 58 features qualitatively; permutation
//! importance quantifies which of them the trained detector actually leans
//! on: shuffle one feature column across the evaluation set, measure the
//! accuracy drop. Model-agnostic, so it works for every Table IV
//! classifier.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::data::Dataset;
use crate::metrics::ConfusionMatrix;
use crate::Classifier;

/// Importance of one feature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureImportance {
    /// Column index.
    pub feature: usize,
    /// Accuracy drop when the column is permuted (may be slightly negative
    /// for irrelevant features due to sampling noise).
    pub accuracy_drop: f64,
}

/// Computes permutation importance of every feature on `data`.
///
/// `repeats` permutations are averaged per feature (2–5 is typical).
/// Results are sorted by importance, largest drop first.
///
/// # Panics
///
/// Panics if `repeats == 0`.
pub fn permutation_importance(
    model: &dyn Classifier,
    data: &Dataset,
    repeats: usize,
    seed: u64,
) -> Vec<FeatureImportance> {
    assert!(repeats > 0, "need at least one repeat");
    let mut rng = StdRng::seed_from_u64(seed);
    let baseline = accuracy_of(model, data.rows(), data.labels());
    let width = data.num_features();
    let mut values = data.values().to_vec();
    let mut importances = Vec::with_capacity(width);
    for feature in 0..width {
        let original: Vec<f64> = values.chunks_exact(width).map(|r| r[feature]).collect();
        let mut total_drop = 0.0;
        for _ in 0..repeats {
            let mut permuted = original.clone();
            permuted.shuffle(&mut rng);
            for (row, &v) in values.chunks_exact_mut(width).zip(&permuted) {
                row[feature] = v;
            }
            total_drop += baseline - accuracy_of(model, values.chunks_exact(width), data.labels());
        }
        // Restore the column.
        for (row, &v) in values.chunks_exact_mut(width).zip(&original) {
            row[feature] = v;
        }
        importances.push(FeatureImportance {
            feature,
            accuracy_drop: total_drop / repeats as f64,
        });
    }
    importances.sort_by(|a, b| b.accuracy_drop.total_cmp(&a.accuracy_drop));
    importances
}

fn accuracy_of<'a>(
    model: &dyn Classifier,
    rows: impl Iterator<Item = &'a [f64]>,
    labels: &[bool],
) -> f64 {
    let predictions: Vec<bool> = rows.map(|row| model.predict(row)).collect();
    ConfusionMatrix::from_predictions(&predictions, labels).accuracy()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::{RandomForest, RandomForestConfig};

    /// Dataset where only feature 0 matters; feature 1 is noise.
    fn signal_and_noise() -> Dataset {
        let values: Vec<f64> = (0..200)
            .flat_map(|i| [i as f64, ((i * 7919) % 101) as f64])
            .collect();
        let labels: Vec<bool> = (0..200).map(|i| i >= 100).collect();
        Dataset::new(values, 2, labels).unwrap()
    }

    #[test]
    fn signal_feature_dominates() {
        let data = signal_and_noise();
        let model = RandomForest::fit(
            &RandomForestConfig {
                num_trees: 10,
                ..Default::default()
            },
            &data,
            3,
        );
        let imp = permutation_importance(&model, &data, 3, 7);
        assert_eq!(imp.len(), 2);
        assert_eq!(imp[0].feature, 0, "signal feature should rank first");
        assert!(imp[0].accuracy_drop > 0.2);
        assert!(imp[1].accuracy_drop.abs() < 0.1, "noise feature ~zero drop");
    }

    #[test]
    fn importance_is_deterministic() {
        let data = signal_and_noise();
        let model = RandomForest::fit(
            &RandomForestConfig {
                num_trees: 5,
                ..Default::default()
            },
            &data,
            3,
        );
        let a = permutation_importance(&model, &data, 2, 9);
        let b = permutation_importance(&model, &data, 2, 9);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one repeat")]
    fn zero_repeats_panics() {
        let data = signal_and_noise();
        let model = RandomForest::fit(
            &RandomForestConfig {
                num_trees: 2,
                ..Default::default()
            },
            &data,
            1,
        );
        let _ = permutation_importance(&model, &data, 0, 1);
    }
}
