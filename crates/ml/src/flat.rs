//! Flattened branchless random forest — the deployment-side data layout.
//!
//! [`crate::forest::RandomForest`] stores each tree as a `Vec` of enum
//! nodes behind a `DecisionTree` box: good for growing, bad for the hot
//! predict path (an enum discriminant branch plus a pointer chase per
//! level, per tree, per tweet). [`FlatForest`] flattens all trees into one
//! contiguous array of 16-byte `PackedNode`s, so a level reads one cache
//! line:
//!
//! - a split holds its `threshold`, its `feature` and its `left` child;
//!   the right child is always `left + 1` (children are allocated
//!   consecutively during flattening), so a level step is the branchless
//!   `left + !(row[feature] <= threshold)`;
//! - a leaf is a self-loop: `threshold = NaN`, `feature = 0`, `left` one
//!   below its own index (wrapping at node 0). `!(x <= NaN)` holds for
//!   every `x`, so the same step lands on `left + 1`, the leaf itself.
//!   Leaf values sit in a side array read once per tree.
//!
//! Because a finished walk stands still, [`FlatForest::predict_probability`]
//! advances `LANES` trees per step and stops when no lane moved: the
//! lanes' loads are independent, so their cache misses overlap instead of
//! chaining tree after tree.
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

/// Sentinel in the byte codec's `feature` array marking a leaf node.
const LEAF: u32 = u32::MAX;

/// Magic prefix of the byte codec (`b"PHFF"`, version 1).
const MAGIC: [u8; 4] = *b"PHFF";
const VERSION: u32 = 1;

/// Trees walked side by side per row: enough independent loads to overlap
/// their latency. Much wider groups spill the lane state out of registers
/// (16 lanes lose the gain; DESIGN.md §14).
const LANES: usize = 8;

/// One flattened node: a split, or a self-looping leaf (see the module
/// docs).
#[derive(Debug, Clone, Copy)]
struct PackedNode {
    threshold: f64,
    feature: u32,
    left: u32,
}

const _: () = assert!(std::mem::size_of::<PackedNode>() == 16);

impl PackedNode {
    /// The self-loop stored at leaf index `at`.
    fn leaf(at: u32) -> Self {
        Self {
            threshold: f64::NAN,
            feature: 0,
            left: at.wrapping_sub(1),
        }
    }

    /// One level of the walk: the child `row` routes to, or the leaf
    /// itself. `!(x <= t)` is load-bearing, not a clumsy `x > t`: NaN must
    /// fail the comparison and take the right child, as the pointer walk
    /// does, and every value fails against a leaf's NaN threshold.
    ///
    /// A zero-width forest is all leaves and reads no feature, so the
    /// missing column reads as NaN there.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline(always)]
    fn step(self, row: &[f64]) -> u32 {
        let x = row.get(self.feature as usize).copied().unwrap_or(f64::NAN);
        self.left.wrapping_add(u32::from(!(x <= self.threshold)))
    }
}

/// All trees of a random forest flattened into one contiguous node array.
///
/// # Example
///
/// ```
/// use ph_ml::data::Dataset;
/// use ph_ml::flat::FlatForest;
/// use ph_ml::forest::{RandomForest, RandomForestConfig};
///
/// let values: Vec<f64> = (0..60).flat_map(|i| [i as f64, (i % 7) as f64]).collect();
/// let labels: Vec<bool> = (0..60).map(|i| i >= 30).collect();
/// let data = Dataset::new(values, 2, labels)?;
/// let config = RandomForestConfig { num_trees: 15, ..Default::default() };
/// let forest = RandomForest::fit(&config, &data, 11);
/// let flat = FlatForest::from_forest(&forest);
/// assert_eq!(
///     flat.predict_probability(&[55.0, 1.0]),
///     forest.predict_probability(&[55.0, 1.0]),
/// );
/// # Ok::<(), ph_ml::data::DatasetError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlatForest {
    num_features: u32,
    /// Root node index of each tree.
    roots: Vec<u32>,
    nodes: Vec<PackedNode>,
    /// Leaf value (mean target) per node; 0.0 at splits.
    leaf_value: Vec<f64>,
}

/// Bitwise equality: the byte codec is a lossless image of the forest,
/// so two forests are equal when they encode to the same bytes. (A
/// derived `==` would call every leaf's NaN threshold unequal to itself.)
impl PartialEq for FlatForest {
    fn eq(&self, other: &Self) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

impl Eq for FlatForest {}

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
            nodes: Vec::new(),
            leaf_value: Vec::new(),
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
                    self.leaf_value[new as usize] = *value;
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
                    self.nodes[new as usize] = PackedNode {
                        threshold: *threshold,
                        feature: *feature as u32,
                        left: lnew,
                    };
                    stack.push((*right, rnew));
                    stack.push((*left, lnew));
                }
            }
        }
        root
    }

    /// Appends a node, a leaf until its split (if any) is written.
    fn alloc(&mut self) -> u32 {
        let at = self.nodes.len() as u32;
        self.nodes.push(PackedNode::leaf(at));
        self.leaf_value.push(0.0);
        at
    }

    /// Whether node `at` is a leaf: only a leaf's `left + 1` is itself
    /// (a split's children lie strictly after it).
    fn is_leaf(&self, at: usize) -> bool {
        self.nodes[at].left.wrapping_add(1) as usize == at
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
        self.nodes.len()
    }

    /// Positive votes for `row`: walks the trees [`LANES`] at a time,
    /// stepping every lane each round until none moved (a lane parked on
    /// its leaf steps onto itself). A short last group pads its idle lanes
    /// with its first tree and counts only the real ones.
    #[inline]
    fn votes(&self, row: &[f64]) -> usize {
        let nodes = self.nodes.as_slice();
        let mut votes = 0;
        for trees in self.roots.chunks(LANES) {
            let mut at = [trees[0]; LANES];
            at[..trees.len()].copy_from_slice(trees);
            loop {
                let mut moved = false;
                for lane in &mut at {
                    let next = nodes[*lane as usize].step(row);
                    moved |= next != *lane;
                    *lane = next;
                }
                if !moved {
                    break;
                }
            }
            votes += at[..trees.len()]
                .iter()
                .filter(|&&leaf| self.leaf_value[leaf as usize] >= 0.5)
                .count();
        }
        votes
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
        self.votes(features) as f64 / self.roots.len() as f64
    }

    /// Batch predict over a contiguous row-major matrix: `data` holds
    /// `n_rows` rows of `num_features()` values each. Walks row by row
    /// through the same lane kernel as [`Self::predict_probability`], so
    /// it times and returns exactly what the deployed per-row path does.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n_rows * num_features()`.
    pub fn predict_batch(&self, data: &[f64], n_rows: usize) -> Vec<f64> {
        let width = self.num_features as usize;
        assert_eq!(
            data.len(),
            n_rows * width,
            "feature width mismatch with training data"
        );
        let num_trees = self.roots.len() as f64;
        (0..n_rows)
            .map(|i| self.votes(&data[i * width..(i + 1) * width]) as f64 / num_trees)
            .collect()
    }

    /// Node `at` as the byte codec's `(feature, threshold, left)` triple:
    /// `(LEAF, leaf value, 0)` for a leaf.
    fn v1_node(&self, at: usize) -> (u32, f64, u32) {
        if self.is_leaf(at) {
            (LEAF, self.leaf_value[at], 0)
        } else {
            let node = self.nodes[at];
            (node.feature, node.threshold, node.left)
        }
    }

    /// Serializes to the versioned little-endian byte format: the
    /// header, the roots, then v1's `feature` (`u32::MAX` at leaves),
    /// `threshold` (the leaf value at leaves) and `left` (0 at leaves)
    /// arrays.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.roots.len() * 4 + self.nodes.len() * 16);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.num_features.to_le_bytes());
        out.extend_from_slice(&(self.roots.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.nodes.len() as u32).to_le_bytes());
        for &r in &self.roots {
            out.extend_from_slice(&r.to_le_bytes());
        }
        let n = self.nodes.len();
        for (feature, _, _) in (0..n).map(|i| self.v1_node(i)) {
            out.extend_from_slice(&feature.to_le_bytes());
        }
        for (_, threshold, _) in (0..n).map(|i| self.v1_node(i)) {
            out.extend_from_slice(&threshold.to_le_bytes());
        }
        for (_, _, left) in (0..n).map(|i| self.v1_node(i)) {
            out.extend_from_slice(&left.to_le_bytes());
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
        let mut nodes = Vec::with_capacity(num_nodes);
        let mut leaf_value = vec![0.0; num_nodes];
        for i in 0..num_nodes {
            if feature[i] == LEAF {
                nodes.push(PackedNode::leaf(i as u32));
                leaf_value[i] = threshold[i];
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
            nodes.push(PackedNode {
                threshold: threshold[i],
                feature: feature[i],
                left: left[i],
            });
        }
        Ok(Self {
            num_features,
            roots,
            nodes,
            leaf_value,
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
        let n = self.nodes.len();
        let mut value = vec![0.0f64; n];
        let mut leaves = vec![0u64; n];
        for i in (0..n).rev() {
            if self.is_leaf(i) {
                value[i] = f64::from(self.leaf_value[i] >= 0.5);
                leaves[i] = 1;
            } else {
                let l = self.nodes[i].left as usize;
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

    /// Explains one prediction: walks every tree with the predict path's
    /// step, one tree at a time, crediting each level's expected-vote
    /// change to the split feature.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the training width.
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
                let node = forest.nodes[at];
                let next = node.step(row) as usize;
                if next == at {
                    // Same comparison as the predict walk's vote test.
                    votes += usize::from(forest.leaf_value[at] >= 0.5);
                    break;
                }
                contributions[node.feature as usize] += (self.value[next] - self.value[at]) * inv;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::forest::RandomForestConfig;

    fn fitted(n: usize, trees: usize, seed: u64) -> (RandomForest, Dataset) {
        let values: Vec<f64> = (0..n)
            .flat_map(|i| [i as f64, ((i * 31) % 17) as f64, ((i * 7) % 5) as f64])
            .collect();
        let labels: Vec<bool> = (0..n).map(|i| i >= n / 2).collect();
        let data = Dataset::new(values, 3, labels).unwrap();
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
        let probs = flat.predict_batch(data.values(), data.len());
        assert_eq!(probs.len(), data.len());
        for (row, p) in data.rows().zip(&probs) {
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

    /// The v1 byte image of a fixed forest, pinned by length and CRC-32:
    /// the in-memory node layout may change, the wire format may not.
    #[test]
    fn byte_codec_matches_the_v1_golden_image() {
        fn crc32(bytes: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
                }
            }
            !crc
        }
        let (forest, _) = fitted(60, 5, 11);
        let bytes = FlatForest::from_forest(&forest).to_bytes();
        assert_eq!(bytes.len(), 344);
        assert_eq!(crc32(&bytes), 0xcfb2_6312);
        // Leaves keep v1's sentinel, leaf value and zero child.
        let n = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let (features_at, thresholds_at) = (40, 40 + 4 * n);
        let lefts_at = thresholds_at + 8 * n;
        let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let leaves: Vec<usize> = (0..n)
            .filter(|&i| word(features_at + 4 * i) == LEAF)
            .collect();
        assert!(!leaves.is_empty());
        for i in leaves {
            assert_eq!(word(lefts_at + 4 * i), 0);
            let t = f64::from_le_bytes(bytes[thresholds_at + 8 * i..][..8].try_into().unwrap());
            assert!((0.0..=1.0).contains(&t), "leaf value {t}");
        }
    }

    /// Every split probed at its exact threshold and at the adjacent
    /// floats on both sides: the `<=` boundary routes as the pointer
    /// walk's does, in the lane kernel, the batch path and the explainer.
    #[test]
    fn split_thresholds_and_their_neighbours_route_like_the_pointer_forest() {
        let (forest, data) = fitted(150, 12, 7);
        let flat = FlatForest::from_forest(&forest);
        let explainer = flat.explainer();
        let base = data.row(75).to_vec();
        let mut probes = Vec::new();
        for i in (0..flat.num_nodes()).filter(|&i| !flat.is_leaf(i)) {
            let PackedNode {
                threshold, feature, ..
            } = flat.nodes[i];
            for x in [threshold.next_down(), threshold, threshold.next_up()] {
                let mut row = base.clone();
                row[feature as usize] = x;
                probes.push(row);
            }
        }
        assert!(probes.len() >= 30);
        let matrix: Vec<f64> = probes.concat();
        let batch = flat.predict_batch(&matrix, probes.len());
        for (row, p) in probes.iter().zip(batch) {
            let expected = forest.predict_probability(row).to_bits();
            assert_eq!(flat.predict_probability(row).to_bits(), expected);
            assert_eq!(p.to_bits(), expected);
            assert_eq!(explainer.explain(row).probability.to_bits(), expected);
        }
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
        // A split whose child points at itself or backward must be
        // rejected: the walk would never reach a leaf.
        let (forest, _) = fitted(40, 3, 2);
        let flat = FlatForest::from_forest(&forest);
        let lefts_at = 20 + flat.roots.len() * 4 + flat.num_nodes() * 12;
        let split = (1..flat.num_nodes()).find(|&i| !flat.is_leaf(i)).unwrap();
        for child in [split, split - 1] {
            let mut bytes = flat.to_bytes();
            bytes[lefts_at + split * 4..][..4].copy_from_slice(&(child as u32).to_le_bytes());
            assert!(matches!(
                FlatForest::from_bytes(&bytes),
                Err(FlatForestDecodeError::Structural(_))
            ));
        }
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
        let values: Vec<f64> = (0..80).flat_map(|i| [i as f64, 1.0]).collect();
        let labels: Vec<bool> = (0..80).map(|i| i >= 40).collect();
        let data = Dataset::new(values, 2, labels).unwrap();
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
        let split_features: std::collections::HashSet<u32> = (0..flat.num_nodes())
            .filter(|&i| !flat.is_leaf(i))
            .map(|i| flat.nodes[i].feature)
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
