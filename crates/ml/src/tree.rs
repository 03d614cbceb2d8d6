//! CART trees: the classification tree of Table IV's "DT" row, and the
//! regression variant that powers gradient boosting.
//!
//! Both variants share one split-search core operating on `f64` targets.
//! For binary 0/1 targets, variance reduction ranks splits identically to
//! Gini gain (Gini impurity `2p(1-p)` is proportional to the node variance
//! `p(1-p)`), so the classification tree fits the shared core to 0/1 targets
//! and thresholds leaf means at 0.5.
//!
//! Split finding runs on a [`BinnedMatrix`] — every feature quantised to
//! `u8` codes once per fit — so one grower serves the single tree, every
//! tree of a forest, and every boosting stage. Each split is stored as an
//! `f64` threshold that routes every training row exactly as its code did
//! (see [`crate::bins`]).

use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::bins::{BinnedMatrix, MAX_BINS};
use crate::data::Dataset;
use crate::Classifier;

/// Hyper-parameters for [`DecisionTree`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionTreeConfig {
    /// Maximum tree depth (the paper caps its RF trees at 700).
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum number of samples in each child of a split.
    pub min_samples_leaf: usize,
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 700,
            min_samples_split: 2,
            min_samples_leaf: 1,
        }
    }
}

/// One node of a fitted tree, stored in a flat arena.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Node {
    /// Terminal node carrying the mean target of its training samples.
    Leaf { value: f64 },
    /// Internal split: rows with `features[feature] <= threshold` go left.
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// The shared fitted-tree core used by both public tree types.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct TreeCore {
    pub(crate) nodes: Vec<Node>,
    pub(crate) num_features: usize,
}

impl TreeCore {
    /// Walks `features` down to its leaf, calling `on_split` with the
    /// `(feature, threshold)` of every split passed, and returns the leaf
    /// value.
    fn descend(&self, features: &[f64], mut on_split: impl FnMut(usize, f64)) -> f64 {
        assert_eq!(
            features.len(),
            self.num_features,
            "feature width mismatch with training data"
        );
        let mut at = 0;
        loop {
            match &self.nodes[at] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    on_split(*feature, *threshold);
                    at = if features[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    fn predict_value(&self, features: &[f64]) -> f64 {
        self.descend(features, |_, _| {})
    }

    fn decision_path(&self, features: &[f64]) -> Vec<(usize, f64)> {
        let mut path = Vec::new();
        self.descend(features, |feature, threshold| {
            path.push((feature, threshold))
        });
        path
    }

    fn depth(&self) -> usize {
        fn walk(nodes: &[Node], at: usize) -> usize {
            match &nodes[at] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0)
        }
    }

    fn num_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }
}

/// Labels as 0/1 regression targets (see the module docs).
pub(crate) fn label_targets(labels: &[bool]) -> Vec<f64> {
    labels.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect()
}

/// Options driving one tree-growing run.
struct GrowOptions<'a> {
    config: &'a DecisionTreeConfig,
    /// `Some(k)` samples k features per split (random-forest mode).
    features_per_split: Option<usize>,
}

/// Target statistics of a set of rows: count, Σt and Σt².
#[derive(Debug, Clone, Copy, Default)]
struct Stats {
    n: u32,
    sum: f64,
    sq: f64,
}

impl Stats {
    fn add(&mut self, t: f64) {
        self.n += 1;
        self.sum += t;
        self.sq += t * t;
    }

    fn merge(&mut self, other: &Stats) {
        self.n += other.n;
        self.sum += other.sum;
        self.sq += other.sq;
    }
}

/// Per-tree working buffers, allocated once and reused at every node.
struct Scratch {
    /// Targets of the current node's rows, in row-list order.
    targets: Vec<f64>,
    /// One histogram bucket per bin of the feature being scanned; all
    /// zero between scans.
    hist: Vec<Stats>,
    /// Right-hand rows during a stable partition.
    right: Vec<u32>,
}

/// Grows a regression tree on `targets` (indexed by row) over the rows
/// listed in `rows` (bootstrap duplicates allowed).
///
/// Each node owns a contiguous `[lo, hi)` range of `rows`. Splitting
/// builds a (count, Σt, Σt²) histogram over the node's rows for each of
/// the node's sampled candidate features only, scans its bins in
/// ascending order, and stably partitions the one row list in place.
fn grow(
    bins: &BinnedMatrix,
    targets: &[f64],
    mut rows: Vec<u32>,
    opts: &GrowOptions<'_>,
    rng: &mut StdRng,
) -> TreeCore {
    assert!(!rows.is_empty(), "cannot grow a tree on zero samples");
    assert_eq!(
        targets.len(),
        bins.num_rows(),
        "one target per binned row required"
    );
    let num_features = bins.num_features();
    let mut core = TreeCore {
        nodes: Vec::new(),
        num_features,
    };
    let mut scratch = Scratch {
        targets: Vec::with_capacity(rows.len()),
        hist: vec![Stats::default(); MAX_BINS],
        right: Vec::with_capacity(rows.len()),
    };
    // Explicit stack instead of recursion: the paper's depth cap is 700,
    // beyond typical thread stack comfort for recursive descent.
    // Each entry: (node slot, row range lo..hi, depth). Children are
    // pushed left then right, so the right subtree is grown (and draws
    // its candidate features) first.
    core.nodes.push(Node::Leaf { value: 0.0 });
    let mut stack: Vec<(usize, usize, usize, usize)> = vec![(0, 0, rows.len(), 0)];
    while let Some((slot, lo, hi, depth)) = stack.pop() {
        let node = &rows[lo..hi];
        scratch.targets.clear();
        let mut total = Stats::default();
        for &r in node {
            let t = targets[r as usize];
            scratch.targets.push(t);
            total.add(t);
        }
        let mean = total.sum / node.len() as f64;
        let pure = scratch.targets.iter().all(|&t| t == scratch.targets[0]);
        if depth >= opts.config.max_depth || node.len() < opts.config.min_samples_split || pure {
            core.nodes[slot] = Node::Leaf { value: mean };
            continue;
        }
        let candidates = candidate_features(num_features, opts.features_per_split, rng);
        let Some(split) = best_split(bins, node, &total, &candidates, opts.config, &mut scratch)
        else {
            core.nodes[slot] = Node::Leaf { value: mean };
            continue;
        };
        let column = bins.column(split.feature);
        let left_len = partition_stable(&mut rows[lo..hi], &mut scratch.right, |r| {
            column[r as usize] <= split.bin
        });
        let left_slot = core.nodes.len();
        core.nodes.push(Node::Leaf { value: 0.0 });
        let right_slot = core.nodes.len();
        core.nodes.push(Node::Leaf { value: 0.0 });
        core.nodes[slot] = Node::Split {
            feature: split.feature,
            threshold: split.threshold,
            left: left_slot,
            right: right_slot,
        };
        stack.push((left_slot, lo, lo + left_len, depth + 1));
        stack.push((right_slot, lo + left_len, hi, depth + 1));
    }
    core
}

/// Stably partitions `rows` so those with `goes_left` come first (both
/// halves keep their relative order). Returns the left-half length.
fn partition_stable(
    rows: &mut [u32],
    right: &mut Vec<u32>,
    goes_left: impl Fn(u32) -> bool,
) -> usize {
    right.clear();
    let mut write = 0usize;
    for read in 0..rows.len() {
        let r = rows[read];
        if goes_left(r) {
            rows[write] = r;
            write += 1;
        } else {
            right.push(r);
        }
    }
    rows[write..].copy_from_slice(right);
    write
}

fn candidate_features(
    num_features: usize,
    features_per_split: Option<usize>,
    rng: &mut StdRng,
) -> Vec<usize> {
    match features_per_split {
        Some(k) if k < num_features => sample(rng, num_features, k).into_vec(),
        _ => (0..num_features).collect(),
    }
}

struct SplitChoice {
    feature: usize,
    /// Rows whose code is `<= bin` go left.
    bin: u8,
    threshold: f64,
}

/// Finds the variance-minimizing split over the candidate features, if any
/// split yields positive gain while respecting `min_samples_leaf`.
///
/// Per candidate, one pass over the node's rows fills a histogram over
/// the bins the node occupies; the scan then walks those bins in
/// ascending order and considers a cut between every occupied bin and the
/// next occupied one. Candidates and cuts are visited in a fixed order and
/// only a strictly larger gain replaces the incumbent, so ties go to the
/// first candidate and the lowest cut.
fn best_split(
    bins: &BinnedMatrix,
    node: &[u32],
    total: &Stats,
    candidates: &[usize],
    config: &DecisionTreeConfig,
    scratch: &mut Scratch,
) -> Option<SplitChoice> {
    let n = node.len() as f64;
    let parent_sse = total.sq - total.sum * total.sum / n;
    let mut best: Option<(f64, SplitChoice)> = None;

    for &feature in candidates {
        let column = bins.column(feature);
        let hist = &mut scratch.hist;
        let (mut lo_bin, mut hi_bin) = (u8::MAX, u8::MIN);
        for (&r, &t) in node.iter().zip(&scratch.targets) {
            let b = column[r as usize];
            hist[b as usize].add(t);
            lo_bin = lo_bin.min(b);
            hi_bin = hi_bin.max(b);
        }
        // Taking each bucket leaves the histogram zeroed for the next scan.
        let mut buckets = (lo_bin..=hi_bin).zip(&mut hist[lo_bin as usize..=hi_bin as usize]);
        let (mut prev, first) = buckets.next().expect("a node occupies at least one bin");
        let mut left = std::mem::take(first);
        for (b, bucket) in buckets {
            let here = std::mem::take(bucket);
            if here.n == 0 {
                continue;
            }
            let left_n = left.n as usize;
            let right_n = node.len() - left_n;
            if left_n >= config.min_samples_leaf && right_n >= config.min_samples_leaf {
                let (ln, rn) = (left_n as f64, right_n as f64);
                let right_sum = total.sum - left.sum;
                let right_sq = total.sq - left.sq;
                let sse =
                    (left.sq - left.sum * left.sum / ln) + (right_sq - right_sum * right_sum / rn);
                let gain = parent_sse - sse;
                // Zero-gain splits are allowed (XOR-style interactions only
                // pay off a level deeper); tiny negative values are float
                // noise.
                if gain >= -1e-9 && best.as_ref().is_none_or(|(g, _)| gain > *g) {
                    let (_, left_max) = bins.bin_range(feature, prev);
                    let (right_min, _) = bins.bin_range(feature, b);
                    best = Some((
                        gain,
                        SplitChoice {
                            feature,
                            bin: prev,
                            threshold: midpoint(left_max, right_min),
                        },
                    ));
                }
            }
            left.merge(&here);
            prev = b;
        }
    }
    best.map(|(_, choice)| choice)
}

/// Midpoint that is guaranteed to separate `lo < hi` even when they are
/// adjacent floats (falls back to `lo`).
fn midpoint(lo: f64, hi: f64) -> f64 {
    let mid = lo + (hi - lo) / 2.0;
    if mid > lo && mid < hi {
        mid
    } else {
        lo
    }
}

/// A fitted CART classification tree (Gini-equivalent splits, see module
/// docs).
///
/// # Example
///
/// ```
/// use ph_ml::data::Dataset;
/// use ph_ml::tree::{DecisionTree, DecisionTreeConfig};
/// use ph_ml::Classifier;
///
/// let data = Dataset::new(vec![0.0, 1.0, 2.0, 3.0], 1, vec![false, false, true, true])?;
/// let tree = DecisionTree::fit(&DecisionTreeConfig::default(), &data);
/// assert!(tree.predict(&[2.5]));
/// assert!(!tree.predict(&[0.5]));
/// # Ok::<(), ph_ml::data::DatasetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    core: TreeCore,
}

impl DecisionTree {
    /// Fits a tree to the full dataset.
    pub fn fit(config: &DecisionTreeConfig, data: &Dataset) -> Self {
        let bins = BinnedMatrix::new(data);
        let rows: Vec<u32> = (0..data.len() as u32).collect();
        Self::fit_binned(config, &bins, &label_targets(data.labels()), rows, None, 0)
    }

    /// Fits a tree over the listed rows of a binned matrix (duplicates
    /// allowed) with optional per-split feature subsampling — the entry
    /// point used by [`crate::forest::RandomForest`], which bins once and
    /// shares the matrix across trees. `targets` holds one 0/1 label per
    /// binned row.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or lists a row the matrix does not hold,
    /// or if `targets` does not cover every binned row.
    pub fn fit_binned(
        config: &DecisionTreeConfig,
        bins: &BinnedMatrix,
        targets: &[f64],
        rows: Vec<u32>,
        features_per_split: Option<usize>,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let core = grow(
            bins,
            targets,
            rows,
            &GrowOptions {
                config,
                features_per_split,
            },
            &mut rng,
        );
        Self { core }
    }

    /// Fraction of positive training samples in the leaf this row lands in.
    pub fn predict_probability(&self, features: &[f64]) -> f64 {
        self.core.predict_value(features)
    }

    /// The `(feature, threshold)` of every split `features` passes on its
    /// way to a leaf, root first.
    pub fn decision_path(&self, features: &[f64]) -> Vec<(usize, f64)> {
        self.core.decision_path(features)
    }

    /// Depth of the fitted tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        self.core.depth()
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.core.num_leaves()
    }

    /// Fitted-tree internals, for [`crate::flat::FlatForest`] flattening.
    pub(crate) fn core(&self) -> &TreeCore {
        &self.core
    }
}

impl Classifier for DecisionTree {
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

/// A fitted CART regression tree over arbitrary `f64` targets — the weak
/// learner of [`crate::boost::GradientBoosting`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    core: TreeCore,
}

impl RegressionTree {
    /// Fits a regression tree over the listed rows of a binned matrix —
    /// the entry point used by [`crate::boost::GradientBoosting`], which
    /// bins once and fits every stage on a subsample of row indices.
    /// `targets` holds one value per binned row.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or lists a row the matrix does not hold,
    /// or if `targets` does not cover every binned row.
    pub fn fit_binned(
        config: &DecisionTreeConfig,
        bins: &BinnedMatrix,
        targets: &[f64],
        rows: Vec<u32>,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(0);
        let core = grow(
            bins,
            targets,
            rows,
            &GrowOptions {
                config,
                features_per_split: None,
            },
            &mut rng,
        );
        Self { core }
    }

    /// Predicted target for one row.
    pub fn predict(&self, features: &[f64]) -> f64 {
        self.core.predict_value(features)
    }

    /// Depth of the fitted tree.
    pub fn depth(&self) -> usize {
        self.core.depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stripes() -> Dataset {
        // Positive iff x in [1, 2) ∪ [3, 4): needs depth ≥ 2.
        let values: Vec<f64> = (0..40).map(|i| i as f64 / 10.0).collect();
        let labels: Vec<bool> = (0..40).map(|i| (i / 10) % 2 == 1).collect();
        Dataset::new(values, 1, labels).unwrap()
    }

    #[test]
    fn fits_axis_aligned_boundary_perfectly() {
        let data = stripes();
        let tree = DecisionTree::fit(&DecisionTreeConfig::default(), &data);
        for (row, &label) in data.rows().zip(data.labels()) {
            assert_eq!(tree.predict(row), label);
        }
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn depth_zero_tree_is_majority_vote() {
        let data = Dataset::new(vec![0.0, 1.0, 2.0], 1, vec![true, true, false]).unwrap();
        let tree = DecisionTree::fit(
            &DecisionTreeConfig {
                max_depth: 0,
                ..Default::default()
            },
            &data,
        );
        assert_eq!(tree.num_leaves(), 1);
        assert!(tree.predict(&[5.0]));
        assert!((tree.predict_probability(&[5.0]) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn pure_node_stops_splitting() {
        let data = Dataset::new(vec![1.0, 2.0], 1, vec![true, true]).unwrap();
        let tree = DecisionTree::fit(&DecisionTreeConfig::default(), &data);
        assert_eq!(tree.depth(), 0);
        assert!(tree.predict(&[0.0]));
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let data = stripes();
        let tree = DecisionTree::fit(
            &DecisionTreeConfig {
                min_samples_leaf: 15,
                ..Default::default()
            },
            &data,
        );
        // With 40 samples and a 15-sample leaf floor, at most 1 split level
        // on each side is possible.
        assert!(tree.depth() <= 2);
    }

    #[test]
    fn constant_features_produce_single_leaf() {
        let data = Dataset::new(vec![3.0; 4], 1, vec![true, false, true, false]).unwrap();
        let tree = DecisionTree::fit(&DecisionTreeConfig::default(), &data);
        assert_eq!(tree.depth(), 0);
    }

    /// A regression tree over one feature whose value is the row index.
    fn fit_regression(config: &DecisionTreeConfig, targets: &[f64]) -> RegressionTree {
        let n = targets.len();
        let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let bins = BinnedMatrix::new(&Dataset::new(values, 1, vec![false; n]).unwrap());
        RegressionTree::fit_binned(config, &bins, targets, (0..n as u32).collect())
    }

    #[test]
    fn regression_tree_fits_step_function() {
        let targets: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 5.0 }).collect();
        let tree = fit_regression(&DecisionTreeConfig::default(), &targets);
        assert!((tree.predict(&[3.0]) - 1.0).abs() < 1e-9);
        assert!((tree.predict(&[15.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn regression_tree_respects_depth_cap() {
        let targets: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let tree = fit_regression(
            &DecisionTreeConfig {
                max_depth: 3,
                ..Default::default()
            },
            &targets,
        );
        assert!(tree.depth() <= 3);
    }

    #[test]
    fn midpoint_separates_adjacent_values() {
        let m = midpoint(1.0, 1.0 + f64::EPSILON);
        assert!((1.0..1.0 + f64::EPSILON).contains(&m));
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn predict_with_wrong_width_panics() {
        let data = Dataset::new(vec![0.0, 1.0], 1, vec![false, true]).unwrap();
        let tree = DecisionTree::fit(&DecisionTreeConfig::default(), &data);
        let _ = tree.predict(&[0.0, 1.0]);
    }

    #[test]
    fn two_feature_interaction() {
        // XOR-like pattern needs both features.
        let values = vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0];
        let labels = vec![false, true, true, false];
        let data = Dataset::new(values, 2, labels).unwrap();
        let tree = DecisionTree::fit(&DecisionTreeConfig::default(), &data);
        assert!(!tree.predict(&[0.0, 0.0]));
        assert!(tree.predict(&[0.0, 1.0]));
        assert!(tree.predict(&[1.0, 0.0]));
        assert!(!tree.predict(&[1.0, 1.0]));
    }
}
