//! Flattened branchless random forest — the deployment-side data layout.
//!
//! [`crate::forest::RandomForest`] stores each tree as a `Vec` of enum
//! nodes behind a `DecisionTree` box: good for growing, bad for the hot
//! predict path (an enum discriminant branch plus a pointer chase per
//! level, per tree, per tweet). [`FlatForest`] flattens all trees into one
//! contiguous struct-of-arrays arena:
//!
//! - `feature[i]` — split feature index, or [`LEAF`] for a leaf,
//! - `threshold[i]` — split threshold, or the leaf's mean target,
//! - `left[i]` — left-child index; the right child is always `left[i] + 1`
//!   (children are allocated consecutively during flattening), so a level
//!   step is the branchless `left[i] + (value > threshold) as usize`.
//!
//! Predictions are bit-identical to the pointer forest: each tree lands in
//! the same leaf (same `<=` comparisons, same NaN routing via the negated
//! comparison), votes are exact integers, and the probability is the same
//! `votes as f64 / num_trees as f64` expression.
//!
//! The vendored `serde` shim is a no-op (no wire format), so persistence
//! uses an explicit little-endian byte codec ([`FlatForest::to_bytes`] /
//! [`FlatForest::from_bytes`]) in the style of the ph-store framed codecs,
//! with full structural validation on decode.

use serde::{Deserialize, Serialize};

use crate::forest::RandomForest;
use crate::tree::{Node, TreeCore};
use crate::Classifier;

/// Sentinel in `feature` marking a leaf node.
const LEAF: u32 = u32::MAX;

/// Magic prefix of the byte codec (`b"PHFF"`, version 1).
const MAGIC: [u8; 4] = *b"PHFF";
const VERSION: u32 = 1;

/// All trees of a random forest flattened into contiguous node arrays.
///
/// # Example
///
/// ```
/// use ph_ml::data::Dataset;
/// use ph_ml::flat::FlatForest;
/// use ph_ml::forest::{RandomForest, RandomForestConfig};
///
/// let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64, (i % 7) as f64]).collect();
/// let labels: Vec<bool> = (0..60).map(|i| i >= 30).collect();
/// let data = Dataset::new(rows, labels)?;
/// let config = RandomForestConfig { num_trees: 15, ..Default::default() };
/// let forest = RandomForest::fit(&config, &data, 11);
/// let flat = FlatForest::from_forest(&forest);
/// assert_eq!(
///     flat.predict_probability(&[55.0, 1.0]),
///     forest.predict_probability(&[55.0, 1.0]),
/// );
/// # Ok::<(), ph_ml::data::DatasetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlatForest {
    num_features: u32,
    /// Root node index of each tree.
    roots: Vec<u32>,
    /// Split feature per node ([`LEAF`] for leaves).
    feature: Vec<u32>,
    /// Split threshold per node (leaf mean for leaves).
    threshold: Vec<f64>,
    /// Left-child index per node (0 for leaves); right child = left + 1.
    left: Vec<u32>,
}

impl FlatForest {
    /// Flattens a fitted pointer forest.
    ///
    /// # Panics
    ///
    /// Panics if the forest has no trees (cannot happen for a forest built
    /// by [`RandomForest::fit`]).
    pub fn from_forest(forest: &RandomForest) -> Self {
        assert!(
            forest.num_trees() > 0,
            "cannot flatten a forest with no trees"
        );
        let mut flat = Self {
            num_features: 0,
            roots: Vec::with_capacity(forest.num_trees()),
            feature: Vec::new(),
            threshold: Vec::new(),
            left: Vec::new(),
        };
        for tree in forest.trees() {
            let core = tree.core();
            flat.num_features = core.num_features as u32;
            let root = flat.flatten_tree(core);
            flat.roots.push(root);
        }
        flat
    }

    /// Copies one tree into the arena, renumbering so every split's
    /// children occupy consecutive slots. Returns the new root index.
    fn flatten_tree(&mut self, core: &TreeCore) -> u32 {
        let root = self.alloc();
        let mut stack: Vec<(usize, u32)> = vec![(0, root)];
        while let Some((old, new)) = stack.pop() {
            match &core.nodes[old] {
                Node::Leaf { value } => {
                    self.feature[new as usize] = LEAF;
                    self.threshold[new as usize] = *value;
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let lnew = self.alloc();
                    let rnew = self.alloc();
                    debug_assert_eq!(rnew, lnew + 1);
                    self.feature[new as usize] = *feature as u32;
                    self.threshold[new as usize] = *threshold;
                    self.left[new as usize] = lnew;
                    stack.push((*right, rnew));
                    stack.push((*left, lnew));
                }
            }
        }
        root
    }

    fn alloc(&mut self) -> u32 {
        let at = self.feature.len() as u32;
        self.feature.push(LEAF);
        self.threshold.push(0.0);
        self.left.push(0);
        at
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.roots.len()
    }

    /// Feature width expected by `predict*`.
    pub fn num_features(&self) -> usize {
        self.num_features as usize
    }

    /// Total node count across all trees.
    pub fn num_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Walks one tree to its leaf value for `row`.
    // `!(x <= t)` is load-bearing, not a clumsy `x > t`: NaN must fail
    // the comparison and take the right child, as the pointer walk does.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline]
    fn leaf_value(&self, root: u32, row: &[f64]) -> f64 {
        let mut at = root as usize;
        loop {
            let f = self.feature[at];
            if f == LEAF {
                return self.threshold[at];
            }
            // `!(x <= t)` (not `x > t`) keeps the pointer tree's NaN
            // routing: NaN fails `<=` and goes right.
            at = self.left[at] as usize + usize::from(!(row[f as usize] <= self.threshold[at]));
        }
    }

    /// Fraction of trees voting positive — bit-identical to
    /// [`RandomForest::predict_probability`].
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the training width.
    pub fn predict_probability(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.num_features as usize,
            "feature width mismatch with training data"
        );
        let votes = self
            .roots
            .iter()
            .filter(|&&root| self.leaf_value(root, features) >= 0.5)
            .count();
        votes as f64 / self.roots.len() as f64
    }

    /// Batch kernel over a contiguous row-major matrix: `data` holds
    /// `n_rows` rows of `num_features()` values each. Evaluates tree-outer
    /// / row-inner so each tree's node arrays stay hot in cache, and
    /// returns one vote-fraction probability per row (bit-identical to
    /// calling [`Self::predict_probability`] per row).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n_rows * num_features()`.
    pub fn predict_batch(&self, data: &[f64], n_rows: usize) -> Vec<f64> {
        assert_eq!(
            data.len(),
            n_rows * self.num_features as usize,
            "feature width mismatch with training data"
        );
        let mut votes = vec![0u32; n_rows];
        let width = self.num_features as usize;
        for &root in &self.roots {
            for (row, vote) in data.chunks_exact(width.max(1)).zip(votes.iter_mut()) {
                *vote += u32::from(self.leaf_value(root, row) >= 0.5);
            }
        }
        let num_trees = self.roots.len() as f64;
        votes.into_iter().map(|v| v as f64 / num_trees).collect()
    }

    /// Serializes to the versioned little-endian byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.roots.len() * 4 + self.feature.len() * 16);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.num_features.to_le_bytes());
        out.extend_from_slice(&(self.roots.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.feature.len() as u32).to_le_bytes());
        for &r in &self.roots {
            out.extend_from_slice(&r.to_le_bytes());
        }
        for &f in &self.feature {
            out.extend_from_slice(&f.to_le_bytes());
        }
        for &t in &self.threshold {
            out.extend_from_slice(&t.to_le_bytes());
        }
        for &l in &self.left {
            out.extend_from_slice(&l.to_le_bytes());
        }
        out
    }

    /// Decodes [`Self::to_bytes`] output, validating every structural
    /// invariant (magic, version, counts, child/feature index ranges) so
    /// corrupt bytes yield an error, never a panicking forest.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FlatForestDecodeError> {
        use FlatForestDecodeError::*;
        struct Cursor<'a> {
            bytes: &'a [u8],
            at: usize,
        }
        impl<'a> Cursor<'a> {
            fn take(&mut self, n: usize) -> Result<&'a [u8], FlatForestDecodeError> {
                let end = self.at.checked_add(n).ok_or(Truncated)?;
                let s = self.bytes.get(self.at..end).ok_or(Truncated)?;
                self.at = end;
                Ok(s)
            }
            fn read_u32(&mut self) -> Result<u32, FlatForestDecodeError> {
                Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
            }
            fn read_vec_u32(&mut self, len: usize) -> Result<Vec<u32>, FlatForestDecodeError> {
                let mut v = Vec::with_capacity(len.min(self.bytes.len() / 4));
                for _ in 0..len {
                    v.push(self.read_u32()?);
                }
                Ok(v)
            }
        }
        let mut cur = Cursor { bytes, at: 0 };
        if cur.take(4)? != MAGIC {
            return Err(BadMagic);
        }
        let version = cur.read_u32()?;
        if version != VERSION {
            return Err(UnsupportedVersion(version));
        }
        let num_features = cur.read_u32()?;
        let num_roots = cur.read_u32()? as usize;
        let num_nodes = cur.read_u32()? as usize;
        if num_roots == 0 {
            return Err(Structural("forest has no trees"));
        }
        let roots = cur.read_vec_u32(num_roots)?;
        let feature = cur.read_vec_u32(num_nodes)?;
        let mut threshold = Vec::with_capacity(num_nodes.min(bytes.len() / 8));
        for _ in 0..num_nodes {
            threshold.push(f64::from_le_bytes(cur.take(8)?.try_into().unwrap()));
        }
        let left = cur.read_vec_u32(num_nodes)?;
        if cur.at != bytes.len() {
            return Err(TrailingBytes);
        }
        for &r in &roots {
            if r as usize >= num_nodes {
                return Err(Structural("root index out of range"));
            }
        }
        for i in 0..num_nodes {
            if feature[i] == LEAF {
                continue;
            }
            if feature[i] >= num_features {
                return Err(Structural("split feature out of range"));
            }
            // Children must both exist and point past the parent so a
            // predict walk always terminates.
            let l = left[i] as usize;
            if l <= i || l + 1 >= num_nodes {
                return Err(Structural("child index out of range"));
            }
        }
        Ok(Self {
            num_features,
            roots,
            feature,
            threshold,
            left,
        })
    }
}

/// One explained prediction: the vote probability plus a signed
/// per-feature decomposition of how the forest got there.
///
/// `contributions[f]` is the probability delta attributed to feature `f`:
/// at every split taken, the change in the subtree's expected vote is
/// credited to the split feature (Saabas-style path attribution, with
/// subtree expectations weighted by leaf count). The deltas telescope, so
/// `baseline + contributions.iter().sum() == probability` up to float
/// rounding.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// Fraction of trees voting positive — bit-identical to
    /// [`FlatForest::predict_probability`] on the same row.
    pub probability: f64,
    /// Signed vote margin `2·probability − 1`: +1 is a unanimous spam
    /// vote, −1 unanimous ham, 0 a split jury.
    pub margin: f64,
    /// The forest's prior: mean expected root vote across trees — what
    /// the forest would predict knowing nothing about the row.
    pub baseline: f64,
    /// Signed probability delta per feature (`num_features` long).
    pub contributions: Vec<f64>,
}

/// Explanation-mode companion to a [`FlatForest`]: precomputes each
/// node's expected vote (leaf-count-weighted mean of the leaves below
/// it) so explained walks cost one subtraction per level instead of a
/// subtree traversal.
///
/// Build once per forest with [`FlatForest::explainer`]; `explain` is
/// then pure and deterministic, and its `probability` stays bit-identical
/// to the unexplained predict path (same leaf comparisons, same vote
/// arithmetic).
#[derive(Debug, Clone)]
pub struct ForestExplainer<'a> {
    forest: &'a FlatForest,
    /// Expected vote of the subtree rooted at each node.
    value: Vec<f64>,
    baseline: f64,
}

impl FlatForest {
    /// Builds the explanation companion. One `O(num_nodes)` pass; walk
    /// nodes in reverse index order — children are always allocated
    /// after their parent (and the byte decoder enforces `left > node`),
    /// so both child values exist by the time a split is folded.
    pub fn explainer(&self) -> ForestExplainer<'_> {
        let n = self.feature.len();
        let mut value = vec![0.0f64; n];
        let mut leaves = vec![0u64; n];
        for i in (0..n).rev() {
            if self.feature[i] == LEAF {
                value[i] = f64::from(self.threshold[i] >= 0.5);
                leaves[i] = 1;
            } else {
                let l = self.left[i] as usize;
                let (wl, wr) = (leaves[l] as f64, leaves[l + 1] as f64);
                leaves[i] = leaves[l] + leaves[l + 1];
                value[i] = (value[l] * wl + value[l + 1] * wr) / (wl + wr);
            }
        }
        let baseline =
            self.roots.iter().map(|&r| value[r as usize]).sum::<f64>() / self.roots.len() as f64;
        ForestExplainer {
            forest: self,
            value,
            baseline,
        }
    }
}

impl ForestExplainer<'_> {
    /// The forest's prior (mean expected root vote).
    pub fn baseline(&self) -> f64 {
        self.baseline
    }

    /// Explains one prediction: walks every tree exactly like
    /// [`FlatForest::predict_probability`], crediting each level's
    /// expected-vote change to the split feature.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the training width.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn explain(&self, row: &[f64]) -> Explanation {
        let forest = self.forest;
        assert_eq!(
            row.len(),
            forest.num_features as usize,
            "feature width mismatch with training data"
        );
        let mut contributions = vec![0.0f64; forest.num_features as usize];
        let inv = 1.0 / forest.roots.len() as f64;
        let mut votes = 0usize;
        for &root in &forest.roots {
            let mut at = root as usize;
            loop {
                let f = forest.feature[at];
                if f == LEAF {
                    // Same comparison as the predict walk's vote test.
                    votes += usize::from(forest.threshold[at] >= 0.5);
                    break;
                }
                // Same NaN-goes-right step as `leaf_value`.
                let next = forest.left[at] as usize
                    + usize::from(!(row[f as usize] <= forest.threshold[at]));
                contributions[f as usize] += (self.value[next] - self.value[at]) * inv;
                at = next;
            }
        }
        let probability = votes as f64 / forest.roots.len() as f64;
        Explanation {
            probability,
            margin: 2.0 * probability - 1.0,
            baseline: self.baseline,
            contributions,
        }
    }
}

/// Why [`FlatForest::from_bytes`] rejected its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlatForestDecodeError {
    /// Input ended before the declared counts were satisfied.
    Truncated,
    /// Input does not start with the `PHFF` magic.
    BadMagic,
    /// Unknown format version.
    UnsupportedVersion(u32),
    /// Bytes left over after the declared counts.
    TrailingBytes,
    /// An index invariant is violated (root/child/feature out of range).
    Structural(&'static str),
}

impl std::fmt::Display for FlatForestDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "flat forest bytes truncated"),
            Self::BadMagic => write!(f, "flat forest magic mismatch"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported flat forest version {v}"),
            Self::TrailingBytes => write!(f, "trailing bytes after flat forest"),
            Self::Structural(why) => write!(f, "flat forest structure invalid: {why}"),
        }
    }
}

impl std::error::Error for FlatForestDecodeError {}

impl Classifier for FlatForest {
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

    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<bool> {
        rows.iter()
            .map(|r| self.predict_probability(r) >= 0.5)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::forest::RandomForestConfig;

    fn fitted(n: usize, trees: usize, seed: u64) -> (RandomForest, Dataset) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64, ((i * 31) % 17) as f64, ((i * 7) % 5) as f64])
            .collect();
        let labels: Vec<bool> = (0..n).map(|i| i >= n / 2).collect();
        let data = Dataset::new(rows, labels).unwrap();
        let forest = RandomForest::fit(
            &RandomForestConfig {
                num_trees: trees,
                ..Default::default()
            },
            &data,
            seed,
        );
        (forest, data)
    }

    #[test]
    fn matches_pointer_forest_on_training_rows() {
        let (forest, data) = fitted(150, 12, 7);
        let flat = FlatForest::from_forest(&forest);
        for row in data.rows() {
            assert_eq!(
                flat.predict_probability(row).to_bits(),
                forest.predict_probability(row).to_bits(),
            );
        }
    }

    #[test]
    fn predict_batch_matches_per_row() {
        let (forest, data) = fitted(90, 9, 3);
        let flat = FlatForest::from_forest(&forest);
        let width = flat.num_features();
        let mut matrix = Vec::with_capacity(data.len() * width);
        for row in data.rows() {
            matrix.extend_from_slice(row);
        }
        let probs = flat.predict_batch(&matrix, data.len());
        assert_eq!(probs.len(), data.len());
        for (row, p) in data.rows().iter().zip(&probs) {
            assert_eq!(p.to_bits(), forest.predict_probability(row).to_bits());
        }
    }

    #[test]
    fn byte_codec_round_trips() {
        let (forest, _) = fitted(60, 5, 11);
        let flat = FlatForest::from_forest(&forest);
        let bytes = flat.to_bytes();
        let back = FlatForest::from_bytes(&bytes).unwrap();
        assert_eq!(flat, back);
    }

    #[test]
    fn decode_rejects_corruption() {
        let (forest, _) = fitted(40, 3, 2);
        let flat = FlatForest::from_forest(&forest);
        let bytes = flat.to_bytes();
        assert_eq!(
            FlatForest::from_bytes(&[]),
            Err(FlatForestDecodeError::Truncated)
        );
        assert_eq!(
            FlatForest::from_bytes(&bytes[..bytes.len() - 1]),
            Err(FlatForestDecodeError::Truncated)
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(
            FlatForest::from_bytes(&bad_magic),
            Err(FlatForestDecodeError::BadMagic)
        );
        let mut extra = bytes.clone();
        extra.push(0);
        assert_eq!(
            FlatForest::from_bytes(&extra),
            Err(FlatForestDecodeError::TrailingBytes)
        );
    }

    #[test]
    fn decode_never_builds_a_walkable_cycle() {
        // A split whose child points at itself must be rejected.
        let (forest, _) = fitted(40, 3, 2);
        let flat = FlatForest::from_forest(&forest);
        let mut bytes = flat.to_bytes();
        // Find the first split node and corrupt its left child to 0.
        let num_roots = flat.roots.len();
        let nodes_at = 20 + num_roots * 4 + flat.feature.len() * 12;
        let split = flat.feature.iter().position(|&f| f != LEAF).unwrap();
        bytes[nodes_at + split * 4..nodes_at + split * 4 + 4]
            .copy_from_slice(&(split as u32).to_le_bytes());
        assert!(matches!(
            FlatForest::from_bytes(&bytes),
            Err(FlatForestDecodeError::Structural(_))
        ));
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn wrong_width_panics() {
        let (forest, _) = fitted(40, 3, 2);
        let flat = FlatForest::from_forest(&forest);
        let _ = flat.predict_probability(&[1.0]);
    }

    #[test]
    fn explained_probability_is_bit_identical_to_predict() {
        let (forest, data) = fitted(150, 12, 7);
        let flat = FlatForest::from_forest(&forest);
        let explainer = flat.explainer();
        for row in data.rows() {
            let e = explainer.explain(row);
            assert_eq!(
                e.probability.to_bits(),
                flat.predict_probability(row).to_bits()
            );
            assert_eq!(e.margin.to_bits(), (2.0 * e.probability - 1.0).to_bits());
        }
    }

    #[test]
    fn contributions_telescope_to_probability_minus_baseline() {
        let (forest, data) = fitted(120, 9, 5);
        let flat = FlatForest::from_forest(&forest);
        let explainer = flat.explainer();
        for row in data.rows() {
            let e = explainer.explain(row);
            let total: f64 = e.contributions.iter().sum();
            assert!(
                (e.baseline + total - e.probability).abs() < 1e-9,
                "baseline {} + sum {} != probability {}",
                e.baseline,
                total,
                e.probability
            );
        }
    }

    #[test]
    fn baseline_is_a_probability_and_unsplit_features_get_zero() {
        // Only feature 0 separates the classes, so the trees should
        // never credit a feature the forest has no splits on.
        let rows: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64, 1.0]).collect();
        let labels: Vec<bool> = (0..80).map(|i| i >= 40).collect();
        let data = Dataset::new(rows, labels).unwrap();
        let forest = RandomForest::fit(
            &RandomForestConfig {
                num_trees: 7,
                ..Default::default()
            },
            &data,
            3,
        );
        let flat = FlatForest::from_forest(&forest);
        let explainer = flat.explainer();
        assert!((0.0..=1.0).contains(&explainer.baseline()));
        let split_features: std::collections::HashSet<u32> = flat
            .feature
            .iter()
            .copied()
            .filter(|&f| f != LEAF)
            .collect();
        let e = explainer.explain(&[70.0, 1.0]);
        for (f, &c) in e.contributions.iter().enumerate() {
            if !split_features.contains(&(f as u32)) {
                assert_eq!(c, 0.0, "unsplit feature {f} was credited");
            }
        }
    }

    #[test]
    fn explain_is_deterministic() {
        let (forest, data) = fitted(90, 9, 3);
        let flat = FlatForest::from_forest(&forest);
        let a = flat.explainer();
        let b = flat.explainer();
        for row in data.rows() {
            let (ea, eb) = (a.explain(row), b.explain(row));
            assert_eq!(ea, eb);
            for (x, y) in ea.contributions.iter().zip(&eb.contributions) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
