//! Ablation: the environment-score feature `f_score` (§IV-A).
//!
//! Trains the detector with and without the environment score (by freezing
//! it at τ) and compares cross-validated quality — quantifying what the
//! group-likelihood feedback contributes.

use ph_bench::{banner, ground_truth_phase, ExperimentScale};
use ph_core::detector::build_training_data;
use ph_core::features::FEATURE_COUNT;
use ph_ml::cv::cross_validate_with;
use ph_ml::data::Dataset;
use ph_ml::forest::{RandomForest, RandomForestConfig};

fn main() {
    let _metrics = ph_bench::metrics_scope("ablation_env_score");
    let scale = ExperimentScale::from_args();
    banner("Ablation — environment score feature");

    let mut engine = scale.build_engine();
    let (report, dataset) = ground_truth_phase(&mut engine, &scale);
    let (with_env, _) = build_training_data(
        &report.collected,
        &dataset.labels,
        &engine,
        ph_core::features::DEFAULT_TAU,
    );
    // "Without": zero the environment-score column (the last feature), so
    // dimensionality and splits stay comparable.
    let env_column = FEATURE_COUNT - 1;
    let mut values_without = with_env.values().to_vec();
    for row in values_without.chunks_exact_mut(FEATURE_COUNT) {
        row[env_column] = 0.0;
    }
    let without_env = Dataset::new(values_without, FEATURE_COUNT, with_env.labels().to_vec())
        .expect("same shape as the original");

    let folds = 5;
    let trees = scale.forest_trees;
    println!(
        "training set: {} tweets, {:.1}% spam, {folds}-fold CV, {trees} trees\n",
        with_env.len(),
        100.0 * with_env.positive_rate()
    );
    println!(
        "{:<16} {:>10} {:>10} {:>8} {:>16}",
        "Variant", "Accuracy", "Precision", "Recall", "False Positive"
    );
    for (name, data) in [("with f_score", &with_env), ("without", &without_env)] {
        let cv = cross_validate_with(name, data, folds, scale.seed, |train, s| {
            Box::new(RandomForest::fit(
                &RandomForestConfig {
                    num_trees: trees,
                    ..Default::default()
                },
                train,
                s,
            ))
        });
        println!(
            "{:<16} {:>10.3} {:>10.3} {:>8.3} {:>16.3}",
            name, cv.mean.accuracy, cv.mean.precision, cv.mean.recall, cv.mean.false_positive_rate
        );
    }
}
