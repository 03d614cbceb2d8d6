//! Banded locality-sensitive hashing over fixed-width signatures.
//!
//! Every clustering pass that needs all-pairs similarity (profile-image
//! dHash, description and tweet MinHash) avoids the O(n²) scan by banding:
//! split each signature into bands, bucket items by exact band value, and
//! only verify pairs that share buckets.
//!
//! Banding also bounds *how many* buckets a matching pair must share. A
//! position (or bit) on which two signatures differ lies in exactly one
//! band, so it can break at most one band. A pair with at most `d`
//! differing positions over `b` bands therefore shares at least `b − d`
//! bands exactly — the pigeonhole floor. [`BandIndex::candidates`] counts
//! shared buckets per pair and emits only pairs that reach the floor, so no
//! pair that can pass verification is lost, and none that cannot reach it
//! is ever verified.

/// Band-bucket index: items are inserted band by band; candidate pairs are
/// items sharing at least a given number of `(band, key)` buckets.
///
/// # Example
///
/// ```
/// use ph_sketch::lsh::BandIndex;
///
/// let mut index = BandIndex::new();
/// // Items 0 and 1 agree on both bands, 1 and 2 on band 1 only.
/// index.insert(0, [(0, 11), (1, 42)]);
/// index.insert(1, [(0, 11), (1, 42)]);
/// index.insert(2, [(0, 7), (1, 42)]);
/// assert_eq!(index.candidates(1), vec![(0, 1), (0, 2), (1, 2)]);
/// assert_eq!(index.candidates(2), vec![(0, 1)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BandIndex {
    /// One `(band, key, item)` run per inserted band; sorted (and so
    /// grouped into buckets with ascending members) by [`Self::candidates`].
    entries: Vec<(u32, u64, u32)>,
}

impl BandIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts one item under its `(band, key)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `item` does not fit in a `u32`.
    pub fn insert<I>(&mut self, item: usize, bands: I)
    where
        I: IntoIterator<Item = (u32, u64)>,
    {
        let item = u32::try_from(item).expect("band index items must fit in u32");
        self.entries
            .extend(bands.into_iter().map(|(band, key)| (band, key, item)));
    }

    /// All distinct pairs `(i, j)` with `i < j` that share at least
    /// `min_shared` buckets, sorted. A `min_shared` of 0 is treated as 1:
    /// pairs sharing no bucket are never candidates.
    ///
    /// Work is per item, never per pair: for each item `i`, a reusable
    /// counter is bumped once for every member `j > i` of each of its
    /// buckets, and `(i, j)` is emitted when the count reaches
    /// `min_shared`. No pair list is materialised beyond the output.
    pub fn candidates(&mut self, min_shared: usize) -> Vec<(usize, usize)> {
        let min_shared = min_shared.max(1);
        self.entries.sort_unstable();
        self.entries.dedup();
        let entries = &self.entries;

        // `(item, entry, bucket end)` for every entry of a bucket with more
        // than one member, grouped by item; the members of that bucket
        // after the item are `entries[entry + 1..bucket end]`.
        let mut owned: Vec<(u32, u32, u32)> = Vec::new();
        let mut start = 0;
        for bucket in entries.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let end = start + bucket.len();
            if bucket.len() > 1 {
                owned.extend(
                    (start..end)
                        .zip(bucket)
                        .map(|(e, &(_, _, item))| (item, e as u32, end as u32)),
                );
            }
            start = end;
        }
        owned.sort_unstable();

        let universe = owned.last().map_or(0, |&(item, _, _)| item as usize + 1);
        let mut shared = vec![0u32; universe];
        let mut touched: Vec<u32> = Vec::new();
        let mut pairs = Vec::new();
        for group in owned.chunk_by(|a, b| a.0 == b.0) {
            let i = group[0].0 as usize;
            let emitted = pairs.len();
            for &(_, e, end) in group {
                for &(_, _, j) in &entries[e as usize + 1..end as usize] {
                    let count = &mut shared[j as usize];
                    if *count == 0 {
                        touched.push(j);
                    }
                    *count += 1;
                    if *count as usize == min_shared {
                        pairs.push((i, j as usize));
                    }
                }
            }
            pairs[emitted..].sort_unstable();
            for &j in &touched {
                shared[j as usize] = 0;
            }
            touched.clear();
        }
        pairs
    }

    /// The all-pairs oracle the filtered path replaced: every distinct
    /// pair sharing any bucket, materialised, sorted and deduplicated.
    #[cfg(test)]
    pub(crate) fn candidate_pairs(&self) -> Vec<(usize, usize)> {
        use std::collections::HashMap;
        let mut buckets: HashMap<(u32, u64), Vec<usize>> = HashMap::new();
        for &(band, key, item) in &self.entries {
            buckets.entry((band, key)).or_default().push(item as usize);
        }
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for bucket in buckets.values() {
            for (k, &i) in bucket.iter().enumerate() {
                for &j in &bucket[k + 1..] {
                    pairs.push(if i < j { (i, j) } else { (j, i) });
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }
}

/// Pigeonhole floor for MinHash banding: the fewest bands two signatures of
/// `width` minima, banded `rows_per_band` at a time, must share exactly if
/// their estimated Jaccard (`matches as f64 / width as f64`) is at least
/// `threshold`.
///
/// The smallest passing match count is found with the same f64 comparison
/// the verifier uses, so the floor is exact at the boundary (at width 64,
/// 0.8 needs 52 matches, not 51.2). Each mismatch breaks at most one band.
/// A threshold no match count reaches (above 1.0, or NaN) gets the band
/// count, since nothing can pass. The floor is never below 1.
///
/// # Panics
///
/// Panics if `rows_per_band == 0`.
pub fn jaccard_band_floor(width: usize, rows_per_band: usize, threshold: f64) -> usize {
    assert!(rows_per_band > 0, "rows_per_band must be positive");
    let bands = width.div_ceil(rows_per_band);
    let min_matches = (0..=width)
        .find(|&m| m as f64 / width as f64 >= threshold)
        .unwrap_or(width);
    bands.saturating_sub(width - min_matches).max(1)
}

/// Pigeonhole floor for Hamming banding: the fewest of `bands` bands two
/// values must share exactly if their Hamming distance is strictly below
/// `distance_below` (so it is at most `distance_below − 1`). Never below 1.
pub fn hamming_band_floor(bands: u32, distance_below: u32) -> usize {
    bands
        .saturating_sub(distance_below.saturating_sub(1))
        .max(1) as usize
}

/// Splits a 128-bit value into `bands` equal chunks (up to 16-bit each for
/// 8 bands), yielding `(band, key)` pairs for [`BandIndex`].
///
/// With 8 bands, any pair within Hamming distance < 5 shares at least 4
/// exact bands ([`hamming_band_floor`]`(8, 5)`).
///
/// # Panics
///
/// Panics unless `bands` divides 128 and is in `1..=64`.
pub fn bands_of_u128(bits: u128, bands: u32) -> Vec<(u32, u64)> {
    assert!(
        (1..=64).contains(&bands) && 128 % bands == 0,
        "bands must divide 128"
    );
    let width = 128 / bands;
    (0..bands)
        .map(|band| {
            let chunk = (bits >> (width * band)) & ((1u128 << width) - 1);
            (band, chunk as u64)
        })
        .collect()
}

/// Bands a MinHash signature: `rows_per_band` consecutive minima are mixed
/// into one 64-bit band key. Equal minima give equal keys; a ragged width
/// leaves a shorter last band.
///
/// # Panics
///
/// Panics if `rows_per_band == 0`.
pub fn bands_of_signature(
    mins: &[u64],
    rows_per_band: usize,
) -> impl Iterator<Item = (u32, u64)> + '_ {
    assert!(rows_per_band > 0, "rows_per_band must be positive");
    mins.chunks(rows_per_band).enumerate().map(|(band, chunk)| {
        let key = chunk.iter().fold(0u64, |acc, &m| acc.rotate_left(13) ^ m);
        (band as u32, key)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dhash::DHash128;
    use crate::minhash::MinHasher;
    use crate::UnionFind;

    #[test]
    fn candidates_deduplicate_across_bands() {
        let mut index = BandIndex::new();
        // Items 0 and 1 share two bands; the pair must appear once.
        index.insert(0, [(0, 5), (1, 9)]);
        index.insert(1, [(0, 5), (1, 9)]);
        assert_eq!(index.candidates(1), vec![(0, 1)]);
        assert_eq!(index.candidates(2), vec![(0, 1)]);
        assert!(index.candidates(3).is_empty());
    }

    #[test]
    fn pigeonhole_guarantee_for_dhash_threshold() {
        // Two 128-bit values 4 bits apart, one bit in each of four bands:
        // banding with 8 bands must still produce them at the floor of 4.
        let a: u128 = 0xdead_beef_dead_beef_dead_beef_dead_beef;
        let b = a ^ 1 ^ (1 << 16) ^ (1 << 32) ^ (1 << 48);
        let mut index = BandIndex::new();
        index.insert(0, bands_of_u128(a, 8));
        index.insert(1, bands_of_u128(b, 8));
        assert_eq!(hamming_band_floor(8, 5), 4);
        assert_eq!(index.candidates(4), vec![(0, 1)]);
        assert!(index.candidates(5).is_empty(), "the floor of 4 is tight");
        let ha = DHash128::from_parts((a >> 64) as u64, a as u64);
        let hb = DHash128::from_parts((b >> 64) as u64, b as u64);
        assert!(ha.hamming_distance(hb) < 5);
    }

    #[test]
    fn distant_values_share_no_bands() {
        let mut index = BandIndex::new();
        index.insert(0, bands_of_u128(0, 8));
        index.insert(1, bands_of_u128(!0, 8));
        assert!(index.candidates(1).is_empty());
    }

    #[test]
    fn signature_banding_matches_identical_signatures() {
        let hasher = MinHasher::new(16, 3);
        let s1 = hasher.signature_of_text("identical text body");
        let s2 = hasher.signature_of_text("identical text body");
        let mut index = BandIndex::new();
        index.insert(0, bands_of_signature(s1.as_slice(), 4));
        index.insert(1, bands_of_signature(s2.as_slice(), 4));
        assert_eq!(index.candidates(4), vec![(0, 1)]);
    }

    #[test]
    fn floors_for_the_paper_thresholds() {
        // Tweets: 0.8 needs 52 of 64 (51/64 = 0.797), so 16 − 12 = 4.
        assert_eq!(jaccard_band_floor(64, 4, 0.8), 4);
        // Descriptions: 0.9 needs 58 of 64, so 16 − 6 = 10.
        assert_eq!(jaccard_band_floor(64, 4, 0.9), 10);
        // Images: distance < 5 is at most 4 bits, so 8 − 4 = 4.
        assert_eq!(hamming_band_floor(8, 5), 4);
        // Degenerate thresholds clamp to [1, bands].
        assert_eq!(jaccard_band_floor(64, 4, 0.0), 1);
        assert_eq!(jaccard_band_floor(64, 4, 1.0), 16);
        assert_eq!(jaccard_band_floor(64, 4, 1.5), 16);
        assert_eq!(jaccard_band_floor(62, 4, 0.8), 4);
        assert_eq!(hamming_band_floor(8, 0), 8);
        assert_eq!(hamming_band_floor(8, 9), 1);
    }

    #[test]
    #[should_panic(expected = "divide 128")]
    fn bad_band_count_panics() {
        let _ = bands_of_u128(0, 7);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rows_per_band_panics() {
        let _ = bands_of_signature(&[1, 2], 0);
    }

    /// SplitMix64: a tiny deterministic generator for the oracle tests.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Distinct positions `0..width` to corrupt: `spread` puts each in its
    /// own band while bands last (the pigeonhole worst case).
    fn positions(
        rng: &mut Mix,
        width: usize,
        rows: usize,
        count: usize,
        spread: bool,
    ) -> Vec<usize> {
        let bands = width.div_ceil(rows);
        let mut picked: Vec<usize> = Vec::new();
        if spread {
            let mut order: Vec<usize> = (0..bands).collect();
            for k in (1..order.len()).rev() {
                order.swap(k, rng.below(k + 1));
            }
            for &band in order.iter().take(count) {
                let lo = band * rows;
                let hi = (lo + rows).min(width);
                picked.push(lo + rng.below(hi - lo));
            }
        }
        while picked.len() < count {
            let p = rng.below(width);
            if !picked.contains(&p) {
                picked.push(p);
            }
        }
        picked
    }

    /// Random signatures with planted near-duplicate groups whose members
    /// differ from a shared base in `mismatches` positions (spread or
    /// clustered), plus low-entropy background items that collide on
    /// partial bands.
    fn planted_signatures(
        seed: u64,
        width: usize,
        rows: usize,
        mismatches: &[usize],
    ) -> Vec<Vec<u64>> {
        let mut rng = Mix(seed);
        let mut sigs: Vec<Vec<u64>> = Vec::new();
        for group in 0..6 {
            let base: Vec<u64> = (0..width).map(|_| rng.next()).collect();
            sigs.push(base.clone());
            for member in 0..4 {
                let count = mismatches[(group + member) % mismatches.len()].min(width);
                let mut sig = base.clone();
                for p in positions(&mut rng, width, rows, count, member % 2 == 0) {
                    sig[p] = rng.next();
                }
                sigs.push(sig);
            }
        }
        // Background: minima from a tiny alphabet share many partial bands.
        for _ in 0..30 {
            sigs.push((0..width).map(|_| rng.next() % 3).collect());
        }
        // Shuffle so group members are not adjacent item ids.
        for k in (1..sigs.len()).rev() {
            sigs.swap(k, rng.below(k + 1));
        }
        sigs
    }

    /// Checks the filtered candidates against the all-pairs oracle: every
    /// oracle pair that passes `verify` is a candidate (superset), every
    /// candidate is an oracle pair, and the verified components are equal.
    fn assert_matches_oracle(
        index: &mut BandIndex,
        universe: usize,
        floor: usize,
        verify: impl Fn(usize, usize) -> bool,
    ) -> usize {
        let oracle = index.candidate_pairs();
        let filtered = index.candidates(floor);
        assert!(filtered.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        let mut passing = 0;
        for &(i, j) in &oracle {
            if verify(i, j) {
                passing += 1;
                assert!(
                    filtered.binary_search(&(i, j)).is_ok(),
                    "pair ({i}, {j}) passes verify but was filtered at floor {floor}"
                );
            }
        }
        for pair in &filtered {
            assert!(
                oracle.binary_search(pair).is_ok(),
                "{pair:?} shares no bucket"
            );
        }
        let components = |pairs: &[(usize, usize)]| {
            let mut uf = UnionFind::new(universe);
            for &(i, j) in pairs {
                if verify(i, j) {
                    uf.union(i, j);
                }
            }
            uf.components()
        };
        assert_eq!(components(&filtered), components(&oracle));
        passing
    }

    #[test]
    fn minhash_candidates_match_the_all_pairs_oracle() {
        // Exact boundaries: 51/64 fails 0.8 and 52/64 passes; 57/64 fails
        // 0.9 and 58/64 passes. Spread members put every mismatch in its
        // own band, so a floor one above the bound loses them.
        let thresholds = [0.8, 0.9, 52.0 / 64.0, 58.0 / 64.0, 1.0, 1.01, 0.0];
        for (width, rows) in [(64usize, 4usize), (62, 4)] {
            for (seed, mismatches) in [
                (1u64, vec![12usize, 13, 11, 0]),
                (2, vec![6, 7, 5, 1]),
                (3, vec![13, 12, 7, 6]),
                (4, vec![64, 2, 12, 6]),
            ] {
                let sigs = planted_signatures(seed, width, rows, &mismatches);
                let mut index = BandIndex::new();
                for (i, sig) in sigs.iter().enumerate() {
                    index.insert(i, bands_of_signature(sig, rows));
                }
                for threshold in thresholds {
                    let floor = jaccard_band_floor(width, rows, threshold);
                    let verify = |i: usize, j: usize| {
                        let matches = sigs[i].iter().zip(&sigs[j]).filter(|(a, b)| a == b).count();
                        matches as f64 / width as f64 >= threshold
                    };
                    assert_matches_oracle(&mut index, sigs.len(), floor, verify);
                }
            }
        }
    }

    #[test]
    fn minhash_floor_is_tight_at_the_boundary() {
        // A pair with exactly the fewest passing matches, every mismatch in
        // its own band, shares exactly the floor: one more loses it.
        for (width, threshold) in [(64usize, 0.8), (64, 0.9), (62, 0.8), (64, 1.0)] {
            let rows = 4;
            let floor = jaccard_band_floor(width, rows, threshold);
            let min_matches = (0..=width)
                .find(|&m| m as f64 / width as f64 >= threshold)
                .unwrap();
            let mut rng = Mix(width as u64);
            let a: Vec<u64> = (0..width).map(|_| rng.next()).collect();
            let mut b = a.clone();
            for p in positions(&mut rng, width, rows, width - min_matches, true) {
                b[p] = rng.next();
            }
            let mut index = BandIndex::new();
            index.insert(0, bands_of_signature(&a, rows));
            index.insert(1, bands_of_signature(&b, rows));
            assert_eq!(
                index.candidates(floor),
                vec![(0, 1)],
                "{width} @ {threshold}"
            );
            assert!(
                index.candidates(floor + 1).is_empty(),
                "{width} @ {threshold}"
            );
        }
    }

    #[test]
    fn hamming_candidates_match_the_all_pairs_oracle() {
        let mut rng = Mix(99);
        let mut values: Vec<u128> = Vec::new();
        for _ in 0..8 {
            let base = (u128::from(rng.next()) << 64) | u128::from(rng.next());
            values.push(base);
            // Members at every distance 0..=10, bits spread one per band
            // or packed into one band.
            for distance in 0..=10usize {
                let mut v = base;
                let spread = distance % 2 == 0;
                let mut bits: Vec<usize> = Vec::new();
                while bits.len() < distance {
                    let bit = if spread && bits.len() < 8 {
                        bits.len() * 16 + rng.below(16)
                    } else {
                        rng.below(128)
                    };
                    if !bits.contains(&bit) {
                        bits.push(bit);
                    }
                }
                for bit in bits {
                    v ^= 1u128 << bit;
                }
                values.push(v);
            }
        }
        // Background values whose 16-bit bands come from a tiny alphabet.
        for _ in 0..30 {
            let mut v = 0u128;
            for band in 0..8 {
                v |= u128::from(rng.next() % 3) << (band * 16);
            }
            values.push(v);
        }
        let mut index = BandIndex::new();
        for (i, &v) in values.iter().enumerate() {
            index.insert(i, bands_of_u128(v, 8));
        }
        for threshold in [0u32, 1, 5, 8, 9] {
            let floor = hamming_band_floor(8, threshold);
            let verify = |i: usize, j: usize| (values[i] ^ values[j]).count_ones() < threshold;
            let passing = assert_matches_oracle(&mut index, values.len(), floor, verify);
            if threshold >= 5 {
                assert!(
                    passing > 8,
                    "planted pairs must pass at threshold {threshold}"
                );
            }
        }
    }
}
