//! Random forest — the paper's production classifier (Table IV: precision
//! 0.974, false-positive rate 0.002; configured with 70 trees and a depth
//! cap of 700).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::bins::BinnedMatrix;
use crate::data::Dataset;
use crate::tree::{label_targets, DecisionTree, DecisionTreeConfig};
use crate::Classifier;

/// Hyper-parameters for [`RandomForest`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RandomForestConfig {
    /// Number of trees (paper: 70).
    pub num_trees: usize,
    /// Per-tree CART configuration (paper: max depth 700).
    pub tree: DecisionTreeConfig,
    /// Features considered per split; `None` = `sqrt(num_features)`.
    pub features_per_split: Option<usize>,
    /// Train trees on parallel worker threads.
    pub parallel: bool,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        Self {
            num_trees: 70,
            tree: DecisionTreeConfig::default(),
            features_per_split: None,
            parallel: true,
        }
    }
}

/// A fitted random forest: bootstrap-bagged CART trees with per-split
/// feature subsampling, majority-voted.
///
/// # Example
///
/// ```
/// use ph_ml::data::Dataset;
/// use ph_ml::forest::{RandomForest, RandomForestConfig};
/// use ph_ml::Classifier;
///
/// let values: Vec<f64> = (0..60).flat_map(|i| [i as f64, (i % 7) as f64]).collect();
/// let labels: Vec<bool> = (0..60).map(|i| i >= 30).collect();
/// let data = Dataset::new(values, 2, labels)?;
/// let config = RandomForestConfig { num_trees: 15, ..Default::default() };
/// let forest = RandomForest::fit(&config, &data, 11);
/// assert!(forest.predict(&[55.0, 1.0]));
/// # Ok::<(), ph_ml::data::DatasetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Trains the forest. Deterministic for a given `(config, data, seed)`
    /// regardless of the `parallel` flag.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_trees == 0`.
    pub fn fit(config: &RandomForestConfig, data: &Dataset, seed: u64) -> Self {
        let _span = ph_telemetry::span("forest.fit");
        let tree_timer = ph_telemetry::histogram(
            "ml.forest.tree_train_ms",
            &ph_telemetry::default_latency_buckets_ms(),
        );
        assert!(config.num_trees > 0, "forest needs at least one tree");
        let features_per_split = config
            .features_per_split
            .unwrap_or_else(|| ((data.num_features() as f64).sqrt().round() as usize).max(1));
        // Derive one independent seed per tree up front so parallel and
        // sequential training produce identical forests.
        let mut seeder = StdRng::seed_from_u64(seed);
        let tree_seeds: Vec<u64> = (0..config.num_trees).map(|_| seeder.random()).collect();
        // Bin every feature once; all trees share the codes read-only.
        let bins = BinnedMatrix::new(data);
        let targets = label_targets(data.labels());

        let train_one = |tree_seed: u64| -> (DecisionTree, f64) {
            let start = std::time::Instant::now();
            let mut rng = StdRng::seed_from_u64(tree_seed);
            // Bootstrap sample: n draws with replacement, grown as the
            // ~63 % distinct rows weighted by their draw counts — the same
            // tree as the n draws listed with duplicates (see
            // `DecisionTree::fit_binned`), at a fraction of the row work.
            let n = data.len();
            let mut counts = vec![0u32; n];
            for _ in 0..n {
                counts[rng.random_range(0..n)] += 1;
            }
            let rows: Vec<u32> = (0..n as u32).filter(|&r| counts[r as usize] > 0).collect();
            let tree = DecisionTree::fit_binned(
                &config.tree,
                &bins,
                &targets,
                rows,
                Some(&counts),
                Some(features_per_split),
                rng.random(),
            );
            (tree, start.elapsed().as_secs_f64() * 1e3)
        };

        // Trees fan out through the exec stage driver: one tree per chunk,
        // CPU-bound round-robin dealing, outputs back in seed order. This
        // buys the standard stage telemetry/prof/trace instrumentation
        // (so `perf critical-path` sees per-tree batches inside the
        // ml.train phase) for free.
        let workers = if config.parallel && config.num_trees > 1 {
            ph_exec::ExecConfig::with_threads(0)
                .resolve_threads()
                .min(config.num_trees)
        } else {
            1
        };
        ph_telemetry::set_meta("ml.forest.workers", &workers.to_string());
        let exec = ph_exec::ExecConfig {
            chunk_size: 1,
            ..ph_exec::ExecConfig::with_threads(workers)
        };
        let timed: Vec<(DecisionTree, f64)> = ph_exec::run_weighted(
            &exec,
            "ml.forest.train",
            ph_exec::StageWeight::CpuBound,
            tree_seeds,
            |&s| s,
            |_worker| train_one,
        );
        // Timings recorded on the caller thread after the ordered merge:
        // per-seed order, and no worker contention on the shared
        // histogram mutex.
        let trees = timed
            .into_iter()
            .map(|(tree, ms)| {
                tree_timer.record(ms);
                tree
            })
            .collect();
        Self { trees }
    }

    /// Number of trees in the ensemble.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Fraction of trees voting positive.
    pub fn predict_probability(&self, features: &[f64]) -> f64 {
        let votes = self.trees.iter().filter(|t| t.predict(features)).count();
        votes as f64 / self.trees.len() as f64
    }

    /// Access to the fitted trees (for inspection / feature-importance
    /// style analyses).
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }
}

impl Classifier for RandomForest {
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

    fn linear_data(n: usize) -> Dataset {
        let values: Vec<f64> = (0..n)
            .flat_map(|i| [i as f64, ((i * 31) % 17) as f64, ((i * 7) % 5) as f64])
            .collect();
        let labels: Vec<bool> = (0..n).map(|i| i >= n / 2).collect();
        Dataset::new(values, 3, labels).unwrap()
    }

    #[test]
    fn forest_learns_simple_boundary() {
        let data = linear_data(200);
        let forest = RandomForest::fit(
            &RandomForestConfig {
                num_trees: 21,
                ..Default::default()
            },
            &data,
            3,
        );
        assert!(forest.predict(&[180.0, 0.0, 0.0]));
        assert!(!forest.predict(&[5.0, 0.0, 0.0]));
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let data = linear_data(120);
        let base = RandomForestConfig {
            num_trees: 8,
            ..Default::default()
        };
        let par = RandomForest::fit(&base, &data, 42);
        let seq = RandomForest::fit(
            &RandomForestConfig {
                parallel: false,
                ..base
            },
            &data,
            42,
        );
        assert_eq!(par, seq);
    }

    #[test]
    fn deterministic_across_runs() {
        let data = linear_data(80);
        let config = RandomForestConfig {
            num_trees: 5,
            ..Default::default()
        };
        assert_eq!(
            RandomForest::fit(&config, &data, 9),
            RandomForest::fit(&config, &data, 9)
        );
    }

    #[test]
    fn different_seeds_differ() {
        let data = linear_data(80);
        let config = RandomForestConfig {
            num_trees: 5,
            ..Default::default()
        };
        assert_ne!(
            RandomForest::fit(&config, &data, 1),
            RandomForest::fit(&config, &data, 2)
        );
    }

    #[test]
    fn probability_is_vote_fraction() {
        let data = linear_data(100);
        let forest = RandomForest::fit(
            &RandomForestConfig {
                num_trees: 10,
                ..Default::default()
            },
            &data,
            5,
        );
        let p = forest.predict_probability(&[99.0, 0.0, 0.0]);
        assert!((0.0..=1.0).contains(&p));
        // Vote fractions are multiples of 1/num_trees.
        let scaled = p * 10.0;
        assert!((scaled - scaled.round()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_panics() {
        let data = linear_data(10);
        let _ = RandomForest::fit(
            &RandomForestConfig {
                num_trees: 0,
                ..Default::default()
            },
            &data,
            1,
        );
    }
}
