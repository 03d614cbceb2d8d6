//! From-scratch machine-learning substrate for the pseudo-honeypot detector.
//!
//! The paper (§IV-C, Table IV) compares five classifiers on the labeled
//! ground-truth dataset under 10-fold cross-validation — Decision Tree,
//! k-Nearest Neighbors, Support Vector Machine, Extreme Gradient Boosting
//! and Random Forest — and deploys the winner (Random Forest, 70 trees,
//! depth cap 700) as the production spam detector.
//!
//! Rust's ML crate ecosystem is thin, so this crate implements all five from
//! scratch over one shared row-major [`Dataset`]:
//!
//! - [`tree::DecisionTree`] — CART with Gini impurity (plus a regression
//!   variant used by boosting), grown on a [`bins::BinnedMatrix`] that
//!   quantises each feature to ≤256 `u8` bins once per fit,
//! - [`forest::RandomForest`] — bagged CART trees with per-split feature
//!   subsampling,
//! - [`knn::KNearestNeighbors`] — brute-force kNN with z-score scaling,
//! - [`svm::LinearSvm`] — Pegasos-style SGD on the hinge loss,
//! - [`boost::GradientBoosting`] — logistic-loss gradient boosting ("EGB"),
//!
//! together with [`metrics`] (accuracy / precision / recall / false-positive
//! rate) and a seeded stratified [`cv`] (cross-validation) harness.
//!
//! # Example
//!
//! ```
//! use ph_ml::data::Dataset;
//! use ph_ml::forest::{RandomForest, RandomForestConfig};
//! use ph_ml::Classifier;
//!
//! // Toy dataset: positive iff x0 > 0.5.
//! let values: Vec<f64> = (0..100).flat_map(|i| [i as f64 / 100.0, 0.0]).collect();
//! let labels: Vec<bool> = (0..100).map(|i| i >= 50).collect();
//! let data = Dataset::new(values, 2, labels)?;
//! let model = RandomForest::fit(&RandomForestConfig::default(), &data, 7);
//! assert!(model.predict(&[0.9, 0.0]));
//! assert!(!model.predict(&[0.1, 0.0]));
//! # Ok::<(), ph_ml::data::DatasetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bins;
pub mod boost;
pub mod cv;
pub mod data;
pub mod flat;
pub mod forest;
pub mod importance;
pub mod knn;
pub mod metrics;
pub mod svm;
pub mod tree;

pub use data::Dataset;
pub use metrics::ClassificationReport;

/// A trained binary classifier over dense feature rows.
///
/// `true` is the positive (spam) class throughout the workspace.
pub trait Classifier: Send + Sync {
    /// Predicts the class of one feature row.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `features.len()` differs from the
    /// training dimensionality.
    fn predict(&self, features: &[f64]) -> bool;

    /// Predicts a score in `[0, 1]` interpreted as the positive-class
    /// probability (or a monotone surrogate for margin-based models).
    fn predict_score(&self, features: &[f64]) -> f64 {
        if self.predict(features) {
            1.0
        } else {
            0.0
        }
    }

    /// `(predict(x), predict_score(x))` in one call. Models whose verdict
    /// is `score >= 0.5` override this with a single evaluation; the
    /// default keeps both calls because a margin model's verdict need not
    /// equal its squashed score's threshold at the boundary.
    fn predict_with_score(&self, features: &[f64]) -> (bool, f64) {
        (self.predict(features), self.predict_score(features))
    }
}

/// The five classifier families compared in Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Algorithm {
    /// CART decision tree ("DT").
    DecisionTree,
    /// k-nearest neighbours ("kNN").
    KNearestNeighbors,
    /// Linear support vector machine ("SVM").
    LinearSvm,
    /// Gradient boosting over regression trees ("EGB").
    GradientBoosting,
    /// Random forest ("RF") — the paper's production choice.
    RandomForest,
}

impl Algorithm {
    /// All algorithms in the paper's Table IV row order.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::DecisionTree,
        Algorithm::KNearestNeighbors,
        Algorithm::LinearSvm,
        Algorithm::GradientBoosting,
        Algorithm::RandomForest,
    ];

    /// The abbreviation used in the paper ("DT", "kNN", "SVM", "EGB", "RF").
    pub fn abbreviation(self) -> &'static str {
        match self {
            Algorithm::DecisionTree => "DT",
            Algorithm::KNearestNeighbors => "kNN",
            Algorithm::LinearSvm => "SVM",
            Algorithm::GradientBoosting => "EGB",
            Algorithm::RandomForest => "RF",
        }
    }

    /// Trains this algorithm with its default configuration.
    pub fn fit_default(self, data: &Dataset, seed: u64) -> Box<dyn Classifier> {
        match self {
            Algorithm::DecisionTree => Box::new(tree::DecisionTree::fit(
                &tree::DecisionTreeConfig::default(),
                data,
            )),
            Algorithm::KNearestNeighbors => Box::new(knn::KNearestNeighbors::fit(
                &knn::KnnConfig::default(),
                data,
            )),
            Algorithm::LinearSvm => {
                Box::new(svm::LinearSvm::fit(&svm::SvmConfig::default(), data, seed))
            }
            Algorithm::GradientBoosting => Box::new(boost::GradientBoosting::fit(
                &boost::BoostConfig::default(),
                data,
                seed,
            )),
            Algorithm::RandomForest => Box::new(flat::FlatForest::from_forest(
                &forest::RandomForest::fit(&forest::RandomForestConfig::default(), data, seed),
            )),
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbreviation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_abbreviations_match_paper() {
        let abbrs: Vec<&str> = Algorithm::ALL.iter().map(|a| a.abbreviation()).collect();
        assert_eq!(abbrs, vec!["DT", "kNN", "SVM", "EGB", "RF"]);
    }

    #[test]
    fn display_uses_abbreviation() {
        assert_eq!(Algorithm::RandomForest.to_string(), "RF");
    }
}
