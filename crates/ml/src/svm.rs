//! Linear support vector machine trained with Pegasos-style stochastic
//! sub-gradient descent on the hinge loss (Table IV's "SVM" row).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::data::{Dataset, Standardizer};
use crate::Classifier;

/// Hyper-parameters for [`LinearSvm`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SvmConfig {
    /// Number of SGD epochs over the training set.
    pub epochs: usize,
    /// Regularization strength λ of the Pegasos objective.
    pub lambda: f64,
    /// Standardize features before training (strongly recommended).
    pub standardize: bool,
    /// Weight hinge violations of the minority class by the class ratio.
    /// Spam streams are heavily imbalanced; an unweighted SVM happily
    /// degenerates to "everything is ham".
    pub balance_classes: bool,
}

impl Default for SvmConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            lambda: 1e-4,
            standardize: true,
            balance_classes: true,
        }
    }
}

/// A fitted linear SVM: `predict = sign(w · x + b)`.
///
/// # Example
///
/// ```
/// use ph_ml::data::Dataset;
/// use ph_ml::svm::{LinearSvm, SvmConfig};
/// use ph_ml::Classifier;
///
/// let values: Vec<f64> = (0..100).map(|i| i as f64 / 50.0 - 1.0).collect();
/// let labels: Vec<bool> = (0..100).map(|i| i >= 50).collect();
/// let data = Dataset::new(values, 1, labels)?;
/// let svm = LinearSvm::fit(&SvmConfig::default(), &data, 4);
/// assert!(svm.predict(&[0.8]));
/// assert!(!svm.predict(&[-0.8]));
/// # Ok::<(), ph_ml::data::DatasetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearSvm {
    weights: Vec<f64>,
    bias: f64,
    scaler: Option<Standardizer>,
}

impl LinearSvm {
    /// Trains with Pegasos SGD: learning rate `1 / (λ t)`, hinge
    /// sub-gradient, deterministic for a given seed.
    ///
    /// # Panics
    ///
    /// Panics if `epochs == 0` or `lambda <= 0`.
    pub fn fit(config: &SvmConfig, data: &Dataset, seed: u64) -> Self {
        assert!(config.epochs > 0, "epochs must be positive");
        assert!(config.lambda > 0.0, "lambda must be positive");
        let scaler = config.standardize.then(|| Standardizer::fit(data));
        let scaled = scaler.as_ref().map(|s| s.transform_dataset(data));
        let train = scaled.as_ref().unwrap_or(data);
        let targets: Vec<f64> = data
            .labels()
            .iter()
            .map(|&l| if l { 1.0 } else { -1.0 })
            .collect();

        let d = data.num_features();
        let n = train.len();
        // Per-class example weights: minority-class hinge violations count
        // proportionally more, so the margin cannot collapse onto the
        // majority class.
        let positives = data.num_positive().max(1);
        let negatives = (n - data.num_positive()).max(1);
        // Square-root weighting: enough pull to keep the margin off the
        // majority class, without the full-ratio weighting that floods the
        // positive side with false alarms at extreme imbalance.
        let positive_weight = if config.balance_classes {
            (negatives as f64 / positives as f64).sqrt()
        } else {
            1.0
        };
        let mut weights = vec![0.0; d];
        let mut bias = 0.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t: u64 = 0;
        for _ in 0..config.epochs {
            for _ in 0..n {
                t += 1;
                let i = rng.random_range(0..n);
                let eta = 1.0 / (config.lambda * t as f64);
                let margin = targets[i] * (dot(&weights, train.row(i)) + bias);
                // w ← (1 − ηλ) w  [+ η c_i y x when the hinge is active]
                let shrink = 1.0 - eta * config.lambda;
                for w in &mut weights {
                    *w *= shrink;
                }
                if margin < 1.0 {
                    let class_weight = if targets[i] > 0.0 {
                        positive_weight
                    } else {
                        1.0
                    };
                    let step = eta * targets[i] * class_weight;
                    for (w, &x) in weights.iter_mut().zip(train.row(i)) {
                        *w += step * x;
                    }
                    bias += step;
                }
            }
        }
        Self {
            weights,
            bias,
            scaler,
        }
    }

    /// Signed decision value `w · x + b` (positive ⇒ spam side).
    pub fn decision_value(&self, features: &[f64]) -> f64 {
        let scaled;
        let x: &[f64] = match &self.scaler {
            Some(s) => {
                scaled = s.transform(features);
                &scaled
            }
            None => features,
        };
        dot(&self.weights, x) + self.bias
    }

    /// Fitted weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Fitted bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "feature width mismatch");
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

impl Classifier for LinearSvm {
    fn predict(&self, features: &[f64]) -> bool {
        self.decision_value(features) > 0.0
    }

    fn predict_score(&self, features: &[f64]) -> f64 {
        // Logistic squashing of the margin gives a usable [0,1] score.
        1.0 / (1.0 + (-self.decision_value(features)).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable(n: usize) -> Dataset {
        // Positive iff 2*x0 + x1 > 3.
        let values: Vec<f64> = (0..n)
            .flat_map(|i| [(i % 20) as f64 / 5.0, ((i * 13) % 20) as f64 / 5.0])
            .collect();
        let labels: Vec<bool> = values
            .chunks_exact(2)
            .map(|r| 2.0 * r[0] + r[1] > 3.0)
            .collect();
        Dataset::new(values, 2, labels).unwrap()
    }

    #[test]
    fn learns_linear_boundary() {
        let data = separable(400);
        let svm = LinearSvm::fit(&SvmConfig::default(), &data, 1);
        let correct = data
            .rows()
            .zip(data.labels())
            .filter(|(r, &l)| svm.predict(r) == l)
            .count();
        assert!(
            correct as f64 / data.len() as f64 > 0.95,
            "only {correct}/{} correct",
            data.len()
        );
    }

    #[test]
    fn deterministic_for_seed() {
        let data = separable(100);
        let a = LinearSvm::fit(&SvmConfig::default(), &data, 7);
        let b = LinearSvm::fit(&SvmConfig::default(), &data, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn decision_value_sign_matches_prediction() {
        let data = separable(100);
        let svm = LinearSvm::fit(&SvmConfig::default(), &data, 7);
        for row in data.rows().take(20) {
            assert_eq!(svm.predict(row), svm.decision_value(row) > 0.0);
        }
    }

    #[test]
    fn score_is_probability_like() {
        let data = separable(100);
        let svm = LinearSvm::fit(&SvmConfig::default(), &data, 7);
        let s = svm.predict_score(&[4.0, 4.0]);
        assert!((0.0..=1.0).contains(&s));
        assert!(s > 0.5, "clearly positive point should score > 0.5");
    }

    #[test]
    #[should_panic(expected = "epochs must be positive")]
    fn zero_epochs_panics() {
        let data = separable(10);
        let _ = LinearSvm::fit(
            &SvmConfig {
                epochs: 0,
                ..Default::default()
            },
            &data,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn non_positive_lambda_panics() {
        let data = separable(10);
        let _ = LinearSvm::fit(
            &SvmConfig {
                lambda: 0.0,
                ..Default::default()
            },
            &data,
            1,
        );
    }

    #[test]
    fn class_balancing_rescues_imbalanced_data() {
        // 5% positives, linearly separable on x0.
        let values: Vec<f64> = (0..400).map(|i| i as f64 / 400.0).collect();
        let labels: Vec<bool> = (0..400).map(|i| i >= 380).collect();
        let data = Dataset::new(values, 1, labels).unwrap();
        let catches = |balance: bool| {
            let model = LinearSvm::fit(
                &SvmConfig {
                    balance_classes: balance,
                    ..Default::default()
                },
                &data,
                2,
            );
            (380..400)
                .filter(|&i| model.predict(&[i as f64 / 400.0]))
                .count()
        };
        let balanced = catches(true);
        let unbalanced = catches(false);
        assert!(
            balanced >= 8,
            "balanced SVM caught only {balanced}/20 positives"
        );
        assert!(
            balanced >= unbalanced,
            "balancing should not reduce positive coverage \
             (balanced {balanced}, unbalanced {unbalanced})"
        );
    }

    #[test]
    fn unstandardized_training_also_works_on_small_scales() {
        let data = separable(200);
        let svm = LinearSvm::fit(
            &SvmConfig {
                standardize: false,
                ..Default::default()
            },
            &data,
            3,
        );
        let correct = data
            .rows()
            .zip(data.labels())
            .filter(|(r, &l)| svm.predict(r) == l)
            .count();
        assert!(correct as f64 / data.len() as f64 > 0.85);
    }
}
