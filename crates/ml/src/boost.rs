//! Gradient boosting over regression trees with logistic loss — the paper's
//! "Extreme Gradient Boosting (EGB)" contender (Table IV).
//!
//! Each stage fits a shallow [`RegressionTree`] to the negative gradient of
//! the logistic loss (the residual `y − p`), optionally on a subsample of
//! rows, and adds it to the additive model with shrinkage.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::bins::BinnedMatrix;
use crate::data::Dataset;
use crate::tree::{label_targets, DecisionTreeConfig, RegressionTree};
use crate::Classifier;

/// Hyper-parameters for [`GradientBoosting`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoostConfig {
    /// Number of boosting stages.
    pub num_stages: usize,
    /// Shrinkage (learning rate) applied to each stage.
    pub learning_rate: f64,
    /// Depth of each weak learner.
    pub max_depth: usize,
    /// Fraction of rows sampled (without replacement) per stage; 1.0
    /// disables stochastic boosting.
    pub subsample: f64,
    /// Minimum samples per leaf of the weak learners.
    pub min_samples_leaf: usize,
}

impl Default for BoostConfig {
    fn default() -> Self {
        Self {
            num_stages: 60,
            learning_rate: 0.2,
            max_depth: 4,
            subsample: 0.8,
            min_samples_leaf: 2,
        }
    }
}

/// A fitted gradient-boosting classifier.
///
/// # Example
///
/// ```
/// use ph_ml::boost::{BoostConfig, GradientBoosting};
/// use ph_ml::data::Dataset;
/// use ph_ml::Classifier;
///
/// let values: Vec<f64> = (0..80).map(|i| (i % 40) as f64).collect();
/// let labels: Vec<bool> = values.iter().map(|&x| x >= 20.0).collect();
/// let data = Dataset::new(values, 1, labels)?;
/// let model = GradientBoosting::fit(&BoostConfig::default(), &data, 2);
/// assert!(model.predict(&[35.0]));
/// assert!(!model.predict(&[3.0]));
/// # Ok::<(), ph_ml::data::DatasetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GradientBoosting {
    initial_log_odds: f64,
    learning_rate: f64,
    stages: Vec<RegressionTree>,
}

impl GradientBoosting {
    /// Trains the boosted ensemble; deterministic for a given seed.
    ///
    /// # Panics
    ///
    /// Panics if `num_stages == 0`, `learning_rate <= 0`, or
    /// `subsample ∉ (0, 1]`.
    pub fn fit(config: &BoostConfig, data: &Dataset, seed: u64) -> Self {
        assert!(config.num_stages > 0, "need at least one stage");
        assert!(config.learning_rate > 0.0, "learning rate must be positive");
        assert!(
            config.subsample > 0.0 && config.subsample <= 1.0,
            "subsample must be in (0, 1]"
        );
        let n = data.len();
        let y = label_targets(data.labels());
        // F0 = log-odds of the positive class, clamped away from ±∞ for
        // single-class datasets.
        let p0 = (data.num_positive() as f64 / n as f64).clamp(1e-6, 1.0 - 1e-6);
        let initial_log_odds = (p0 / (1.0 - p0)).ln();

        let tree_config = DecisionTreeConfig {
            max_depth: config.max_depth,
            min_samples_split: config.min_samples_leaf * 2,
            min_samples_leaf: config.min_samples_leaf,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scores = vec![initial_log_odds; n];
        let mut stages = Vec::with_capacity(config.num_stages);
        let sample_size = ((n as f64 * config.subsample) as usize).clamp(1, n);
        // Bin once; each stage fits on a list of row indices into it.
        let bins = BinnedMatrix::new(data);
        let mut order: Vec<u32> = (0..n as u32).collect();
        for _ in 0..config.num_stages {
            // Residuals of the logistic loss: r_i = y_i − σ(F(x_i)).
            let residuals: Vec<f64> = scores
                .iter()
                .zip(&y)
                .map(|(&f, &yi)| yi - sigmoid(f))
                .collect();
            if sample_size < n {
                order.shuffle(&mut rng);
            }
            let rows_stage = order[..sample_size].to_vec();
            let tree = RegressionTree::fit_binned(&tree_config, &bins, &residuals, rows_stage);
            for (i, score) in scores.iter_mut().enumerate() {
                *score += config.learning_rate * tree.predict(data.row(i));
            }
            stages.push(tree);
        }
        Self {
            initial_log_odds,
            learning_rate: config.learning_rate,
            stages,
        }
    }

    /// Number of boosting stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Predicted positive-class probability.
    pub fn predict_probability(&self, features: &[f64]) -> f64 {
        let mut f = self.initial_log_odds;
        for stage in &self.stages {
            f += self.learning_rate * stage.predict(features);
        }
        sigmoid(f)
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl Classifier for GradientBoosting {
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

    fn stripes() -> Dataset {
        // Positive iff floor(x / 10) is odd — nonlinear, needs an ensemble.
        let values: Vec<f64> = (0..200).map(|i| (i % 40) as f64).collect();
        let labels: Vec<bool> = values
            .iter()
            .map(|&x| ((x / 10.0) as usize) % 2 == 1)
            .collect();
        Dataset::new(values, 1, labels).unwrap()
    }

    #[test]
    fn fits_nonlinear_pattern() {
        let data = stripes();
        let model = GradientBoosting::fit(&BoostConfig::default(), &data, 5);
        let correct = data
            .rows()
            .zip(data.labels())
            .filter(|(r, &l)| model.predict(r) == l)
            .count();
        assert!(correct as f64 / data.len() as f64 > 0.97);
    }

    #[test]
    fn deterministic_for_seed() {
        let data = stripes();
        let a = GradientBoosting::fit(&BoostConfig::default(), &data, 3);
        let b = GradientBoosting::fit(&BoostConfig::default(), &data, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn probability_in_bounds_and_monotone_in_stages() {
        let data = stripes();
        let model = GradientBoosting::fit(&BoostConfig::default(), &data, 1);
        for row in data.rows().take(10) {
            let p = model.predict_probability(row);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn single_class_dataset_predicts_that_class() {
        let data = Dataset::new(vec![1.0, 2.0], 1, vec![true, true]).unwrap();
        let model = GradientBoosting::fit(&BoostConfig::default(), &data, 1);
        assert!(model.predict(&[1.5]));
        assert!(model.predict_probability(&[1.5]) > 0.9);
    }

    #[test]
    fn full_sample_mode_has_no_row_sampling() {
        let data = stripes();
        let config = BoostConfig {
            subsample: 1.0,
            ..Default::default()
        };
        // Different seeds only affect row sampling, so with subsample = 1.0
        // the fitted models must be identical.
        assert_eq!(
            GradientBoosting::fit(&config, &data, 1),
            GradientBoosting::fit(&config, &data, 2)
        );
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stages_panics() {
        let data = stripes();
        let _ = GradientBoosting::fit(
            &BoostConfig {
                num_stages: 0,
                ..Default::default()
            },
            &data,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "subsample")]
    fn invalid_subsample_panics() {
        let data = stripes();
        let _ = GradientBoosting::fit(
            &BoostConfig {
                subsample: 1.5,
                ..Default::default()
            },
            &data,
            1,
        );
    }
}
