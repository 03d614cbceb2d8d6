//! Seeded stratified k-fold cross-validation — the evaluation protocol
//! behind the paper's Table IV (10-fold).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::data::Dataset;
use crate::metrics::{ClassificationReport, ConfusionMatrix};
use crate::Algorithm;

/// The paper's fold count.
pub const PAPER_FOLDS: usize = 10;

/// Produces stratified fold index sets: each fold receives a proportional
/// share of positives and negatives, shuffled with `seed`.
///
/// # Panics
///
/// Panics if `folds < 2` or `folds > data.len()`.
pub fn stratified_folds(data: &Dataset, folds: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(folds >= 2, "need at least 2 folds");
    assert!(folds <= data.len(), "more folds than examples");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut positives: Vec<usize> = Vec::new();
    let mut negatives: Vec<usize> = Vec::new();
    for (i, &label) in data.labels().iter().enumerate() {
        if label {
            positives.push(i);
        } else {
            negatives.push(i);
        }
    }
    positives.shuffle(&mut rng);
    negatives.shuffle(&mut rng);
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); folds];
    for (k, &i) in positives.iter().enumerate() {
        out[k % folds].push(i);
    }
    for (k, &i) in negatives.iter().enumerate() {
        // Offset negative round-robin so small classes don't all land with
        // fold 0's positives.
        out[(k + folds / 2) % folds].push(i);
    }
    out
}

/// The outcome of one cross-validated evaluation of one algorithm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossValidation {
    /// Which algorithm was evaluated.
    pub algorithm_name: String,
    /// Per-fold reports, in fold order.
    pub fold_reports: Vec<ClassificationReport>,
    /// Mean of the per-fold reports (the Table IV row).
    pub mean: ClassificationReport,
    /// Confusion matrix pooled over all folds.
    pub pooled: ConfusionMatrix,
}

/// Runs k-fold cross-validation of `algorithm` with its default
/// configuration.
///
/// Every fold trains on the remaining k−1 folds and evaluates on the held-out
/// fold; folds are stratified and seeded so results are reproducible.
///
/// # Panics
///
/// Panics if any training split would be single-row or `folds < 2`.
pub fn cross_validate(
    algorithm: Algorithm,
    data: &Dataset,
    folds: usize,
    seed: u64,
) -> CrossValidation {
    cross_validate_with(&format!("{algorithm}"), data, folds, seed, |train, s| {
        algorithm.fit_default(train, s)
    })
}

/// Generic cross-validation over any training closure, enabling custom
/// configurations and the ablation benches.
///
/// The closure receives the training split and a per-fold seed.
pub fn cross_validate_with<F>(
    name: &str,
    data: &Dataset,
    folds: usize,
    seed: u64,
    mut fit: F,
) -> CrossValidation
where
    F: FnMut(&Dataset, u64) -> Box<dyn crate::Classifier>,
{
    let _span = ph_telemetry::span("ml.cv");
    let fold_timer =
        ph_telemetry::histogram("ml.cv.fold_ms", &ph_telemetry::default_latency_buckets_ms());
    let fold_indices = stratified_folds(data, folds, seed);
    let mut fold_reports = Vec::with_capacity(folds);
    let mut pooled = ConfusionMatrix::default();
    for (k, test_idx) in fold_indices.iter().enumerate() {
        if test_idx.is_empty() {
            continue; // tiny datasets can leave a fold empty
        }
        let fold_span = ph_telemetry::span("fold");
        let train_idx: Vec<usize> = fold_indices
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != k)
            .flat_map(|(_, idx)| idx.iter().copied())
            .collect();
        let train = data.subset(&train_idx);
        let test = data.subset(test_idx);
        let model = fit(&train, seed.wrapping_add(k as u64));
        let predictions: Vec<bool> = test.rows().map(|row| model.predict(row)).collect();
        let matrix = ConfusionMatrix::from_predictions(&predictions, test.labels());
        pooled.merge(&matrix);
        fold_reports.push(matrix.report());
        fold_timer.record(fold_span.elapsed_ms());
    }
    let mean = ClassificationReport::mean(&fold_reports);
    CrossValidation {
        algorithm_name: name.to_string(),
        fold_reports,
        mean,
        pooled,
    }
}

/// Cross-validates every Table IV algorithm and returns results in the
/// paper's row order (DT, kNN, SVM, EGB, RF).
pub fn compare_algorithms(data: &Dataset, folds: usize, seed: u64) -> Vec<CrossValidation> {
    Algorithm::ALL
        .iter()
        .map(|&a| cross_validate(a, data, folds, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(n: usize) -> Dataset {
        // Separable-with-noise: positive iff x0 + small noise feature > n/2.
        let values: Vec<f64> = (0..n)
            .flat_map(|i| [i as f64, ((i * 37) % 11) as f64])
            .collect();
        let labels: Vec<bool> = (0..n).map(|i| i > n / 2).collect();
        Dataset::new(values, 2, labels).unwrap()
    }

    #[test]
    fn folds_partition_all_indices() {
        let data = dataset(103);
        let folds = stratified_folds(&data, 10, 7);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn folds_are_stratified() {
        let data = dataset(100);
        let folds = stratified_folds(&data, 5, 3);
        let overall = data.positive_rate();
        for fold in &folds {
            let pos = fold.iter().filter(|&&i| data.label(i)).count() as f64;
            let rate = pos / fold.len() as f64;
            assert!(
                (rate - overall).abs() < 0.15,
                "fold positive rate {rate} far from overall {overall}"
            );
        }
    }

    #[test]
    fn folds_are_seed_deterministic() {
        let data = dataset(60);
        assert_eq!(
            stratified_folds(&data, 6, 11),
            stratified_folds(&data, 6, 11)
        );
        assert_ne!(
            stratified_folds(&data, 6, 11),
            stratified_folds(&data, 6, 12)
        );
    }

    #[test]
    fn cross_validation_reports_all_folds() {
        let data = dataset(90);
        let cv = cross_validate(Algorithm::DecisionTree, &data, 5, 1);
        assert_eq!(cv.fold_reports.len(), 5);
        assert_eq!(cv.pooled.total(), 90);
        assert!(cv.mean.accuracy > 0.8, "DT should fit the toy boundary");
    }

    #[test]
    fn compare_runs_all_five() {
        let data = dataset(60);
        let results = compare_algorithms(&data, 3, 1);
        let names: Vec<&str> = results.iter().map(|r| r.algorithm_name.as_str()).collect();
        assert_eq!(names, vec!["DT", "kNN", "SVM", "EGB", "RF"]);
        for r in &results {
            assert!(r.mean.accuracy > 0.6, "{} too weak", r.algorithm_name);
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 folds")]
    fn one_fold_panics() {
        let data = dataset(10);
        let _ = stratified_folds(&data, 1, 0);
    }
}
