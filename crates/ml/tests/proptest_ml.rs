//! Property-based tests for the ML substrate invariants.

use proptest::prelude::*;

use ph_ml::bins::{BinnedMatrix, MAX_BINS};
use ph_ml::boost::{BoostConfig, GradientBoosting};
use ph_ml::cv::stratified_folds;
use ph_ml::data::{Dataset, Standardizer};
use ph_ml::flat::FlatForest;
use ph_ml::forest::{RandomForest, RandomForestConfig};
use ph_ml::knn::{KNearestNeighbors, KnnConfig};
use ph_ml::metrics::ConfusionMatrix;
use ph_ml::svm::{LinearSvm, SvmConfig};
use ph_ml::tree::{DecisionTree, DecisionTreeConfig};
use ph_ml::Classifier;

/// Strategy: a small random dataset with both classes present.
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (4usize..40, 1usize..5, any::<u64>()).prop_map(|(n, d, seed)| {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let values: Vec<f64> = (0..n * d).map(|_| next() * 10.0).collect();
        // Label: threshold on first feature, guaranteeing both classes by
        // flipping the first two rows deterministically.
        let mut labels: Vec<bool> = values.chunks_exact(d).map(|r| r[0] > 5.0).collect();
        labels[0] = true;
        labels[1] = false;
        Dataset::new(values, d, labels).unwrap()
    })
}

/// Strategy: a hostile labeled feature matrix. Cells mix duplicates,
/// adjacent floats (`f64::from_bits(b + 1)`), `-0.0`/`+0.0`, ±1e300 and
/// small integers with, in the denser modes, unique values — so some
/// columns stay under 256 distinct values and some go well past it.
fn hostile_strategy() -> impl Strategy<Value = Dataset> {
    (1usize..700, 1usize..4, 0u64..4, any::<u64>()).prop_map(|(n, d, dense, seed)| {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let up = |v: f64, k: u64| f64::from_bits(v.to_bits() + k);
        let pool = [
            0.0,
            -0.0,
            1.0,
            up(1.0, 1),
            up(1.0, 2),
            1e300,
            up(1e300, 1),
            -1e300,
            up(-1e300, 1),
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            3.0,
            7.0,
        ];
        let mut cell = move || {
            if next() % 4 < dense {
                (next() as f64 / (1u64 << 53) as f64 - 0.5) * 2e6
            } else {
                pool[(next() % pool.len() as u64) as usize]
            }
        };
        let values: Vec<f64> = (0..n * d).map(|_| cell()).collect();
        let labels: Vec<bool> = (0..n).map(|i| (seed >> (i % 64)) & 1 == 1).collect();
        Dataset::new(values, d, labels).unwrap()
    })
}

/// `data` plus a copy of its first `conflicts` rows with the opposite
/// label: identical rows that disagree leave 0.5 leaves in deep trees and
/// tied votes in even-sized forests.
fn with_conflicts(data: &Dataset, conflicts: usize) -> Dataset {
    let mut values = data.values().to_vec();
    let mut labels = data.labels().to_vec();
    for i in 0..conflicts.min(data.len()) {
        values.extend_from_slice(data.row(i));
        labels.push(!data.labels()[i]);
    }
    Dataset::new(values, data.num_features(), labels).unwrap()
}

/// Every family's one-call verdict, checked against its two-call form
/// bit for bit.
fn assert_one_call_matches(model: &dyn Classifier, rows: &[Vec<f64>]) -> Result<(), String> {
    for row in rows {
        let (spam, score) = model.predict_with_score(row);
        prop_assert_eq!(spam, model.predict(row));
        prop_assert_eq!(score.to_bits(), model.predict_score(row).to_bits());
    }
    Ok(())
}

/// The bin a split's threshold cuts after: the last bin lying wholly at
/// or below it.
fn split_bin(bins: &BinnedMatrix, feature: usize, threshold: f64) -> Option<u8> {
    (0..bins.num_bins(feature))
        .rev()
        .map(|b| b as u8)
        .find(|&b| bins.bin_range(feature, b).1 <= threshold)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The binning contract on hostile columns: at most 256 bins, codes
    /// monotone in value and inside their bin's range, bins ascending and
    /// disjoint, and one exact bin per value when a column has at most
    /// 256 distinct values.
    #[test]
    fn binning_is_monotone_bounded_and_exact_when_sparse(
        data in hostile_strategy(),
    ) {
        let bins = BinnedMatrix::new(&data);
        for f in 0..bins.num_features() {
            let nb = bins.num_bins(f);
            prop_assert!((1..=MAX_BINS).contains(&nb), "feature {f}: {nb} bins");
            for b in 1..nb {
                let (_, prev_max) = bins.bin_range(f, (b - 1) as u8);
                let (min, max) = bins.bin_range(f, b as u8);
                prop_assert!(prev_max < min && min <= max, "bins {b} overlap");
            }
            let mut by_value: Vec<(f64, u8)> =
                data.rows().enumerate().map(|(r, row)| (row[f], bins.code(f, r))).collect();
            for &(v, code) in &by_value {
                let (min, max) = bins.bin_range(f, code);
                prop_assert!(min <= v && v <= max, "{v} outside bin {code} [{min}, {max}]");
            }
            by_value.sort_by(|a, b| a.0.total_cmp(&b.0));
            for pair in by_value.windows(2) {
                let ((a, ca), (b, cb)) = (pair[0], pair[1]);
                prop_assert!(ca <= cb, "codes not monotone: {a} -> {ca}, {b} -> {cb}");
                if a == b {
                    prop_assert_eq!(ca, cb, "equal values {} and {} split", a, b);
                }
            }
            let mut distinct: Vec<f64> = by_value.iter().map(|&(v, _)| v).collect();
            distinct.dedup_by(|a, b| a == b);
            if distinct.len() <= MAX_BINS {
                prop_assert_eq!(nb, distinct.len());
                for b in 0..nb {
                    let (min, max) = bins.bin_range(f, b as u8);
                    prop_assert!(min == max, "sparse bin {b} spans [{min}, {max}]");
                }
            }
        }
    }

    /// Binned thresholds route training rows exactly: at every split on a
    /// training row's path, `value <= threshold` holds exactly when the
    /// row's code is at most the split's bin.
    #[test]
    fn split_thresholds_route_training_rows_as_their_codes(
        data in hostile_strategy(),
    ) {
        let bins = BinnedMatrix::new(&data);
        let tree = DecisionTree::fit(&DecisionTreeConfig::default(), &data);
        for (r, row) in data.rows().enumerate() {
            for (f, threshold) in tree.decision_path(row) {
                let bin = split_bin(&bins, f, threshold);
                prop_assert!(bin.is_some(), "threshold {threshold} below every bin of {f}");
                let bin = bin.unwrap();
                prop_assert_eq!(
                    row[f] <= threshold,
                    bins.code(f, r) <= bin,
                    "row {} feature {} value {} code {} vs threshold {} bin {}",
                    r, f, row[f], bins.code(f, r), threshold, bin
                );
            }
        }
    }

    /// A bootstrap grown as its ascending distinct rows weighted by their
    /// draw counts is the tree grown on its draws listed with duplicates,
    /// with and without per-split feature sampling: with 0/1 targets
    /// every weighted count and sum is exact, so no gain, tie, leaf or
    /// RNG draw can move.
    #[test]
    fn weighted_distinct_rows_grow_the_expanded_tree(
        data in hostile_strategy(),
        draws in proptest::collection::vec(any::<u32>(), 1..1400),
        seed: u64,
        min_samples_leaf in 1usize..4,
        min_samples_split in 2usize..8,
    ) {
        let n = data.len() as u32;
        let bins = BinnedMatrix::new(&data);
        let targets: Vec<f64> = data.labels().iter().map(|&l| f64::from(u8::from(l))).collect();
        let expanded: Vec<u32> = draws.iter().map(|&d| d % n).collect();
        let mut counts = vec![0u32; data.len()];
        for &r in &expanded {
            counts[r as usize] += 1;
        }
        let distinct: Vec<u32> = (0..n).filter(|&r| counts[r as usize] > 0).collect();
        let config = DecisionTreeConfig {
            min_samples_leaf,
            min_samples_split,
            ..Default::default()
        };
        for features_per_split in [None, Some(1), Some(data.num_features().div_ceil(2))] {
            let fit = |rows: &[u32], weights: Option<&[u32]>| {
                DecisionTree::fit_binned(
                    &config, &bins, &targets, rows.to_vec(), weights, features_per_split, seed,
                )
            };
            prop_assert_eq!(fit(&expanded, None), fit(&distinct, Some(&counts)));
        }
    }

    /// A deep decision tree achieves 100% training accuracy whenever no two
    /// identical rows carry different labels (here rows are continuous, so
    /// collisions are essentially impossible).
    #[test]
    fn tree_memorizes_training_data(data in dataset_strategy()) {
        let tree = DecisionTree::fit(&DecisionTreeConfig::default(), &data);
        for (row, &label) in data.rows().zip(data.labels()) {
            prop_assert_eq!(tree.predict(row), label);
        }
    }

    /// Forest probability is always a valid vote fraction.
    #[test]
    fn forest_probability_bounds(data in dataset_strategy(), seed: u64) {
        let forest = RandomForest::fit(
            &RandomForestConfig { num_trees: 7, threads: 1, ..Default::default() },
            &data,
            seed,
        );
        for row in data.rows() {
            let p = forest.predict_probability(row);
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }

    /// Every flat-forest entry point agrees bit for bit with the pointer
    /// forest: per-row probabilities, `predict_with_score`, the batch
    /// path, the explainer's probability and the byte codec. Forest sizes
    /// sit around the 8-tree lane width, constant labels grow single-leaf
    /// trees (the first root is a leaf at node 0, whose self-loop wraps),
    /// and query rows mix arbitrary values with NaN, ±inf, ±0.0, ±1e300
    /// and exact training values.
    #[test]
    fn flat_forest_is_bit_identical(
        data in dataset_strategy(),
        seed: u64,
        size in 0usize..6,
        constant in 0u8..3,
        queries in proptest::collection::vec(
            proptest::collection::vec((-1e3f64..1e3, 0usize..16), 5),
            1..12,
        ),
    ) {
        let trees = [1, 7, 8, 9, 16, 70][size];
        // 0: the strategy's mixed labels; 1, 2: all ham, all spam.
        let data = match constant {
            0 => data,
            c => Dataset::new(data.values().to_vec(), data.num_features(), vec![c == 2; data.len()])
                .unwrap(),
        };
        let forest = RandomForest::fit(
            &RandomForestConfig { num_trees: trees, threads: 1, ..Default::default() },
            &data,
            seed,
        );
        let flat = FlatForest::from_forest(&forest);
        let width = flat.num_features();
        let hostile = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1e300,
            -1e300,
            data.row(0)[0],
        ];
        // Query rows trimmed to the training width; training rows too.
        let rows: Vec<Vec<f64>> = data
            .rows()
            .map(<[f64]>::to_vec)
            .chain(queries.into_iter().map(|q| {
                q[..width]
                    .iter()
                    .map(|&(x, k)| hostile.get(k).copied().unwrap_or(x))
                    .collect()
            }))
            .collect();
        let matrix: Vec<f64> = rows.concat();
        let batch = flat.predict_batch(&matrix, rows.len());
        let explainer = flat.explainer();
        let decoded = FlatForest::from_bytes(&flat.to_bytes()).unwrap();
        prop_assert_eq!(&decoded, &flat, "byte codec round-trip diverged");
        for (i, row) in rows.iter().enumerate() {
            let expected = forest.predict_probability(row);
            prop_assert_eq!(flat.predict_probability(row).to_bits(), expected.to_bits());
            let (spam, score) = flat.predict_with_score(row);
            prop_assert_eq!((spam, score.to_bits()), (expected >= 0.5, expected.to_bits()));
            prop_assert_eq!(batch[i].to_bits(), expected.to_bits());
            prop_assert_eq!(explainer.explain(row).probability.to_bits(), expected.to_bits());
            prop_assert_eq!(
                decoded.predict_probability(row).to_bits(),
                expected.to_bits()
            );
        }
        if constant != 0 {
            prop_assert_eq!(flat.num_nodes(), trees, "constant labels grow single-leaf trees");
        }
    }

    /// `predict_with_score` equals `(predict, predict_score)` bit for bit
    /// for every family, on training rows (some conflicting, so trees hold
    /// 0.5 leaves and even forests tie) and on arbitrary queries.
    #[test]
    fn predict_with_score_is_predict_then_score(
        data in dataset_strategy(),
        conflicts in 0usize..6,
        seed: u64,
        half_trees in 1usize..5,
        k in 1usize..5,
        queries in proptest::collection::vec(
            proptest::collection::vec(-20f64..20.0, 5),
            1..8,
        ),
    ) {
        let data = with_conflicts(&data, conflicts);
        let width = data.num_features();
        let rows: Vec<Vec<f64>> = data
            .rows()
            .map(<[f64]>::to_vec)
            .chain(queries.into_iter().map(|q| q[..width].to_vec()))
            .collect();
        let forest = RandomForest::fit(
            &RandomForestConfig { num_trees: 2 * half_trees, threads: 1, ..Default::default() },
            &data,
            seed,
        );
        let flat = FlatForest::from_forest(&forest);
        let models: Vec<Box<dyn Classifier>> = vec![
            Box::new(DecisionTree::fit(&DecisionTreeConfig::default(), &data)),
            Box::new(KNearestNeighbors::fit(&KnnConfig { k, standardize: k % 2 == 0 }, &data)),
            Box::new(LinearSvm::fit(&SvmConfig { epochs: 3, ..Default::default() }, &data, seed)),
            Box::new(GradientBoosting::fit(
                &BoostConfig { num_stages: 4, ..Default::default() },
                &data,
                seed,
            )),
            Box::new(forest),
            Box::new(flat),
        ];
        for model in &models {
            assert_one_call_matches(model.as_ref(), &rows)?;
        }
    }

    /// kNN with k = n predicts the majority class for every query.
    #[test]
    fn knn_full_k_is_majority(data in dataset_strategy()) {
        let model = KNearestNeighbors::fit(
            &KnnConfig { k: data.len(), standardize: false },
            &data,
        );
        let majority = data.num_positive() * 2 >= data.len();
        prop_assert_eq!(model.predict(data.row(0)), majority);
    }

    /// SVM training is deterministic in the seed.
    #[test]
    fn svm_seed_determinism(data in dataset_strategy(), seed: u64) {
        let cfg = SvmConfig { epochs: 3, ..Default::default() };
        prop_assert_eq!(
            LinearSvm::fit(&cfg, &data, seed),
            LinearSvm::fit(&cfg, &data, seed)
        );
    }

    /// Boosting probabilities stay in (0, 1).
    #[test]
    fn boosting_probability_bounds(data in dataset_strategy(), seed: u64) {
        let cfg = BoostConfig { num_stages: 5, ..Default::default() };
        let model = GradientBoosting::fit(&cfg, &data, seed);
        for row in data.rows() {
            let p = model.predict_probability(row);
            prop_assert!(p > 0.0 && p < 1.0);
        }
    }

    /// Standardized data has ~zero mean and ~unit variance per feature.
    #[test]
    fn standardizer_normalizes(data in dataset_strategy()) {
        let scaler = Standardizer::fit(&data);
        let scaled = scaler.transform_dataset(&data);
        for (mean, std) in scaled.feature_moments() {
            prop_assert!(mean.abs() < 1e-6, "mean {mean}");
            // Degenerate (constant) features keep std 1 by convention.
            prop_assert!((std - 1.0).abs() < 1e-6, "std {std}");
        }
    }

    /// Stratified folds partition the dataset exactly.
    #[test]
    fn folds_partition(data in dataset_strategy(), seed: u64, folds in 2usize..5) {
        prop_assume!(folds <= data.len());
        let f = stratified_folds(&data, folds, seed);
        let mut all: Vec<usize> = f.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..data.len()).collect::<Vec<_>>());
    }

    /// Confusion-matrix identities: accuracy ∈ [0,1], TPR+FNR-style cell sums.
    #[test]
    fn confusion_matrix_identities(
        preds in proptest::collection::vec(any::<bool>(), 1..64),
        seed: u64,
    ) {
        let actual: Vec<bool> = preds
            .iter()
            .enumerate()
            .map(|(i, &p)| p ^ ((seed >> (i % 64)) & 1 == 1))
            .collect();
        let m = ConfusionMatrix::from_predictions(&preds, &actual);
        prop_assert_eq!(m.total(), preds.len());
        prop_assert!((0.0..=1.0).contains(&m.accuracy()));
        prop_assert!((0.0..=1.0).contains(&m.precision()));
        prop_assert!((0.0..=1.0).contains(&m.recall()));
        prop_assert!((0.0..=1.0).contains(&m.false_positive_rate()));
        let pos_truth = m.true_positives + m.false_negatives;
        prop_assert_eq!(pos_truth, actual.iter().filter(|&&a| a).count());
    }
}

/// The threshold case the proptest can only hit by chance, forced: two
/// identical rows with opposite labels give a 0.5 tree leaf, a 2-of-4 kNN
/// vote, a zero-logit boosted model and (for some seed) a 1–1 forest vote.
/// The one-call verdict must still be `score >= 0.5`, as `predict` says.
#[test]
fn predict_with_score_agrees_on_exact_ties() {
    let data = Dataset::new(vec![0.0; 4], 1, vec![true, false, true, false]).unwrap();
    let tie = [0.0];
    let forest = (0..64)
        .map(|seed| {
            RandomForest::fit(
                &RandomForestConfig {
                    num_trees: 2,
                    threads: 1,
                    ..Default::default()
                },
                &data,
                seed,
            )
        })
        .find(|f| f.predict_probability(&tie) == 0.5)
        .expect("some seed splits a 2-tree vote");
    let flat = FlatForest::from_forest(&forest);
    let models: Vec<Box<dyn Classifier>> = vec![
        Box::new(DecisionTree::fit(&DecisionTreeConfig::default(), &data)),
        Box::new(KNearestNeighbors::fit(
            &KnnConfig {
                k: 4,
                standardize: false,
            },
            &data,
        )),
        Box::new(GradientBoosting::fit(
            &BoostConfig {
                num_stages: 1,
                subsample: 1.0,
                ..Default::default()
            },
            &data,
            3,
        )),
        Box::new(forest),
        Box::new(flat),
    ];
    for model in &models {
        assert_eq!(model.predict_score(&tie), 0.5);
        assert_eq!(model.predict_with_score(&tie), (true, 0.5));
        assert!(model.predict(&tie));
    }
}
