//! MinHash signatures for near-duplicate text detection.
//!
//! The paper (§IV-B) finds near-duplicate user descriptions with MinHash over
//! tri-gram shinglings, treating two descriptions as identical "if their
//! minimum hash values of the tri-grams shinglings are the same". This module
//! provides a seeded [`MinHasher`] that produces fixed-width
//! [`MinHashSignature`]s, signature equality, and Jaccard estimation.

use serde::{Deserialize, Serialize};

/// A factory for MinHash signatures using `k` independent 64-bit hash
/// functions derived from a seed.
///
/// # Example
///
/// ```
/// use ph_sketch::MinHasher;
///
/// let hasher = MinHasher::new(16, 42);
/// let a = hasher.signature_of_text("limited time offer click now");
/// let b = hasher.signature_of_text("limited time offer click now");
/// assert_eq!(a, b);
/// assert!(a.estimate_jaccard(&b) > 0.999);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MinHasher {
    /// Per-function multiplier (odd, derived from the seed).
    multipliers: Vec<u64>,
    /// Per-function XOR mask.
    masks: Vec<u64>,
}

impl MinHasher {
    /// Creates a hasher with `num_hashes` functions seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `num_hashes == 0`.
    pub fn new(num_hashes: usize, seed: u64) -> Self {
        assert!(num_hashes > 0, "need at least one hash function");
        // SplitMix64 stream to derive per-function parameters deterministically.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut multipliers = Vec::with_capacity(num_hashes);
        let mut masks = Vec::with_capacity(num_hashes);
        for _ in 0..num_hashes {
            multipliers.push(next() | 1); // odd multiplier = bijection mod 2^64
            masks.push(next());
        }
        Self { multipliers, masks }
    }

    /// Number of hash functions (signature width).
    pub fn num_hashes(&self) -> usize {
        self.multipliers.len()
    }

    /// Signature of an arbitrary shingle iterator.
    ///
    /// An empty input produces the all-`u64::MAX` signature, which only
    /// compares equal to other empty signatures.
    pub fn signature<I, S>(&self, shingles: I) -> MinHashSignature
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut mins = vec![u64::MAX; self.num_hashes()];
        for shingle in shingles {
            self.absorb(&mut mins, shingle.as_ref().as_bytes());
        }
        MinHashSignature { mins }
    }

    /// Signature of raw text: tri-gram shingles over the text as-is —
    /// bit-identical to `signature(trigram_shingles(text))`.
    ///
    /// Each character 3-gram is hashed straight out of `text` as a UTF-8
    /// byte slice, so the only allocation is the signature itself. A
    /// repeated 3-gram is hashed again, which cannot change a minimum.
    /// Texts of one or two characters are a single whole-text shingle,
    /// and the empty text has none, as in
    /// [`trigram_shingles`](crate::shingle::trigram_shingles).
    ///
    /// Callers that need the paper's normalization should pass the text
    /// through [`crate::shingle::normalize`] first.
    pub fn signature_of_text(&self, text: &str) -> MinHashSignature {
        let mut mins = vec![u64::MAX; self.num_hashes()];
        // `starts[k % 3]` holds the byte offset of char boundary k until
        // boundary k + 3 closes the 3-gram that begins there.
        let mut starts = [0usize; 3];
        let mut boundaries = 0usize;
        let ends = text.char_indices().map(|(at, _)| at).chain([text.len()]);
        for at in ends {
            let slot = boundaries % 3;
            if boundaries >= 3 {
                self.absorb(&mut mins, &text.as_bytes()[starts[slot]..at]);
            }
            starts[slot] = at;
            boundaries += 1;
        }
        // One or two characters: three boundaries at most, no full 3-gram.
        if (2..=3).contains(&boundaries) {
            self.absorb(&mut mins, text.as_bytes());
        }
        MinHashSignature { mins }
    }

    /// Folds one shingle's bytes into the running minima.
    fn absorb(&self, mins: &mut [u64], shingle: &[u8]) {
        let base = fnv1a(shingle);
        for ((min, &mask), &multiplier) in mins.iter_mut().zip(&self.masks).zip(&self.multipliers) {
            let h = (base ^ mask).wrapping_mul(multiplier);
            if h < *min {
                *min = h;
            }
        }
    }
}

/// A MinHash signature: the element-wise minimum of hashed shingles.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MinHashSignature {
    mins: Vec<u64>,
}

impl MinHashSignature {
    /// Signature width.
    pub fn len(&self) -> usize {
        self.mins.len()
    }

    /// True when the signature has zero width (never produced by
    /// [`MinHasher`], which requires at least one function).
    pub fn is_empty(&self) -> bool {
        self.mins.is_empty()
    }

    /// Raw minimum values.
    pub fn as_slice(&self) -> &[u64] {
        &self.mins
    }

    /// Fraction of matching positions — an unbiased estimator of Jaccard
    /// similarity between the underlying shingle sets.
    ///
    /// # Panics
    ///
    /// Panics if the signatures have different widths (i.e. came from
    /// different hashers).
    pub fn estimate_jaccard(&self, other: &Self) -> f64 {
        assert_eq!(
            self.len(),
            other.len(),
            "signatures must come from the same MinHasher"
        );
        if self.is_empty() {
            return 1.0;
        }
        let matches = self
            .mins
            .iter()
            .zip(&other.mins)
            .filter(|(a, b)| a == b)
            .count();
        matches as f64 / self.len() as f64
    }

    /// The paper's identity criterion: all minimum hash values equal.
    pub fn matches(&self, other: &Self) -> bool {
        self.mins == other.mins
    }
}

/// FNV-1a 64-bit hash of a byte slice.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shingle::{jaccard, normalize, trigram_shingles};

    #[test]
    fn identical_texts_match() {
        let h = MinHasher::new(32, 7);
        let a = h.signature_of_text("win a free iphone today");
        let b = h.signature_of_text("win a free iphone today");
        assert!(a.matches(&b));
        assert_eq!(a.estimate_jaccard(&b), 1.0);
    }

    #[test]
    fn different_texts_do_not_match() {
        let h = MinHasher::new(32, 7);
        let a = h.signature_of_text("win a free iphone today");
        let b = h.signature_of_text("the weather in lafayette is humid");
        assert!(!a.matches(&b));
        assert!(a.estimate_jaccard(&b) < 0.5);
    }

    #[test]
    fn estimate_tracks_true_jaccard() {
        let h = MinHasher::new(256, 99);
        let t1 = "cheap followers instant delivery guaranteed results buy now";
        let t2 = "cheap followers instant delivery guaranteed results order today";
        let (s1, s2) = (h.signature_of_text(t1), h.signature_of_text(t2));
        let truth = jaccard(&trigram_shingles(t1), &trigram_shingles(t2));
        let est = s1.estimate_jaccard(&s2);
        assert!(
            (est - truth).abs() < 0.15,
            "estimate {est} too far from truth {truth}"
        );
    }

    #[test]
    fn empty_text_signature_is_saturated() {
        let h = MinHasher::new(8, 1);
        let s = h.signature_of_text("");
        assert!(s.as_slice().iter().all(|&m| m == u64::MAX));
    }

    #[test]
    fn text_path_equals_shingle_set_path_on_edge_cases() {
        let texts = [
            "",
            "a",
            "ab",
            "abc",
            "abcd",
            "é",
            "éß",
            "中文字",
            "🚀",
            "🚀😀",
            "a🚀b",
            "🚀🚀🚀🚀🚀",
            "aaaaaaaaaa",
            "abababababab",
            "e\u{301}e\u{301}",
        ];
        for width in [1, 16, 64] {
            let h = MinHasher::new(width, 5);
            for text in texts {
                assert_eq!(
                    h.signature_of_text(text),
                    h.signature(trigram_shingles(text)),
                    "width {width}, text {text:?}"
                );
            }
        }
    }

    #[test]
    fn seeds_produce_different_hashers() {
        let a = MinHasher::new(16, 1).signature_of_text("hello world text");
        let b = MinHasher::new(16, 2).signature_of_text("hello world text");
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "same MinHasher")]
    fn mismatched_widths_panic() {
        let a = MinHasher::new(8, 1).signature_of_text("x y z");
        let b = MinHasher::new(16, 1).signature_of_text("x y z");
        let _ = a.estimate_jaccard(&b);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_hashes_panics() {
        let _ = MinHasher::new(0, 1);
    }

    #[test]
    fn normalized_campaign_variants_collide() {
        // Same template, different URL — the paper's canonical campaign case.
        let h = MinHasher::new(64, 3);
        let a = h.signature_of_text(&normalize("Earn $$$ fast!! visit https://a.example/aaa"));
        let b = h.signature_of_text(&normalize("Earn $$$ fast!! visit https://b.example/zzz"));
        assert!(a.matches(&b));
    }
}
