//! Property-based tests for the sketch substrate invariants.

use proptest::prelude::*;

use ph_sketch::dhash::DHash128;
use ph_sketch::image::GrayImage;
use ph_sketch::minhash::MinHasher;
use ph_sketch::namepattern::NamePattern;
use ph_sketch::shingle::{jaccard, normalize, shingles, trigram_shingles};
use ph_sketch::unionfind::UnionFind;

/// `normalize` as first written: one lower-cased and one filtered string
/// per word, joined at the end.
fn normalize_word_by_word(text: &str) -> String {
    let mut words: Vec<String> = Vec::new();
    for raw in text.split_whitespace() {
        let lower = raw.to_lowercase();
        if lower.starts_with("http://")
            || lower.starts_with("https://")
            || lower.starts_with("www.")
        {
            continue;
        }
        let cleaned: String = lower
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect();
        if cleaned.is_empty() || ph_sketch::shingle::STOP_WORDS.contains(&cleaned.as_str()) {
            continue;
        }
        words.push(cleaned);
    }
    words.join(" ")
}

proptest! {
    /// Any shard partitioning of the same edge set — any number of shards,
    /// any assignment of edges to shards, any edge order within a shard —
    /// absorbed in shard order yields exactly the sequential components.
    #[test]
    fn sharded_union_find_matches_sequential(
        len in 1usize..40,
        edges in proptest::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 0..80),
        shards in 1usize..6,
    ) {
        let edges: Vec<(usize, usize, usize)> = edges
            .into_iter()
            .map(|(a, b, s)| (a as usize % len, b as usize % len, s as usize % shards))
            .collect();
        let mut sequential = UnionFind::new(len);
        for &(a, b, _) in &edges {
            sequential.union(a, b);
        }
        // Build one local union-find per shard from its edge subset.
        let mut locals: Vec<UnionFind> = (0..shards).map(|_| UnionFind::new(len)).collect();
        for &(a, b, s) in &edges {
            locals[s].union(a, b);
        }
        // Shard-ordered fold, as the parallel cluster merge does.
        let mut merged = UnionFind::new(len);
        for local in &locals {
            merged.absorb(local);
        }
        prop_assert_eq!(merged.component_count(), sequential.component_count());
        prop_assert_eq!(merged.components(), sequential.components());
    }

    /// `root` never mutates and always names a fixed point.
    #[test]
    fn root_is_pure_and_idempotent(
        len in 1usize..30,
        edges in proptest::collection::vec((any::<u16>(), any::<u16>()), 0..40),
    ) {
        let mut uf = UnionFind::new(len);
        for (a, b) in edges {
            uf.union(a as usize % len, b as usize % len);
        }
        let snapshot = uf.clone();
        for x in 0..len {
            let r = uf.root(x);
            prop_assert_eq!(uf.root(r), r, "root of a root must be itself");
            prop_assert_eq!(r, snapshot.clone().find(x));
        }
        prop_assert_eq!(uf, snapshot);
    }

    /// Hamming distance is a metric: identity, symmetry, triangle inequality.
    #[test]
    fn dhash_distance_is_a_metric(a: (u64, u64), b: (u64, u64), c: (u64, u64)) {
        let (h1, h2, h3) = (
            DHash128::from_parts(a.0, a.1),
            DHash128::from_parts(b.0, b.1),
            DHash128::from_parts(c.0, c.1),
        );
        prop_assert_eq!(h1.hamming_distance(h1), 0);
        prop_assert_eq!(h1.hamming_distance(h2), h2.hamming_distance(h1));
        prop_assert!(
            h1.hamming_distance(h3) <= h1.hamming_distance(h2) + h2.hamming_distance(h3)
        );
        prop_assert!(h1.hamming_distance(h2) <= 128);
    }

    /// Resizing never panics and preserves the value range.
    #[test]
    fn resize_preserves_value_range(
        w in 1u32..40,
        h in 1u32..40,
        nw in 1u32..20,
        nh in 1u32..20,
        seed in any::<u64>(),
    ) {
        let img = GrayImage::from_fn(w, h, |x, y| {
            (seed
                .wrapping_mul(u64::from(x) + 1)
                .wrapping_add(u64::from(y).wrapping_mul(7919))
                % 256) as u8
        });
        let lo = *img.as_raw().iter().min().unwrap();
        let hi = *img.as_raw().iter().max().unwrap();
        let out = img.resize(nw, nh);
        prop_assert_eq!(out.dimensions(), (nw, nh));
        for &p in out.as_raw() {
            prop_assert!(p >= lo && p <= hi, "averaged pixel escaped source range");
        }
    }

    /// dHash of any image is deterministic.
    #[test]
    fn dhash_is_deterministic(w in 1u32..40, h in 1u32..40, seed in any::<u64>()) {
        let img = GrayImage::from_fn(w, h, |x, y| {
            (seed ^ (u64::from(x) << 8) ^ u64::from(y)) as u8
        });
        prop_assert_eq!(DHash128::of(&img), DHash128::of(&img));
    }

    /// Identical texts always produce matching signatures; estimate is in [0,1].
    #[test]
    fn minhash_identity_and_bounds(text in ".{0,64}", other in ".{0,64}", seed: u64) {
        let hasher = MinHasher::new(16, seed);
        let s1 = hasher.signature_of_text(&text);
        let s2 = hasher.signature_of_text(&text);
        prop_assert!(s1.matches(&s2));
        let s3 = hasher.signature_of_text(&other);
        let est = s1.estimate_jaccard(&s3);
        prop_assert!((0.0..=1.0).contains(&est));
    }

    /// The allocation-free text path is bit-identical to hashing the
    /// materialised shingle set, for arbitrary Unicode: empty and 1–3-char
    /// texts, multi-byte chars, emoji, and heavily repeated trigrams.
    #[test]
    fn signature_of_text_matches_shingle_set(
        picks in proptest::collection::vec(any::<u32>(), 0..40),
        alphabet_size in 1usize..12,
        arbitrary_chars: bool,
        seed: u64,
    ) {
        // A small alphabet forces repeated trigrams; otherwise the code
        // points are drawn from all of Unicode.
        const ALPHABET: [char; 11] = ['a', 'b', ' ', 'é', 'ß', '中', '文', '🚀', '😀', '\u{301}', '\0'];
        let text: String = picks
            .iter()
            .map(|&p| {
                if arbitrary_chars {
                    char::from_u32(p % 0x11_0000).unwrap_or('\u{fffd}')
                } else {
                    ALPHABET[p as usize % alphabet_size.min(ALPHABET.len())]
                }
            })
            .collect();
        for width in [1usize, 16, 64] {
            let hasher = MinHasher::new(width, seed);
            prop_assert_eq!(
                hasher.signature_of_text(&text),
                hasher.signature(trigram_shingles(&text))
            );
        }
    }

    /// MinHash estimate correlates with true Jaccard for word-ish strings:
    /// equal sets estimate 1.0, disjoint sets estimate low.
    #[test]
    fn minhash_estimate_matches_extremes(words in proptest::collection::vec("[a-z]{3,8}", 3..10)) {
        let text = words.join(" ");
        let hasher = MinHasher::new(128, 42);
        let sig = hasher.signature(trigram_shingles(&text));
        prop_assert!((sig.estimate_jaccard(&sig) - 1.0).abs() < 1e-12);
    }

    /// The one-buffer `normalize` returns exactly what the word-by-word
    /// form returns, over tokens that mix case, URL prefixes in any case,
    /// stop words, punctuation, emoji and letters whose lower case is, or
    /// starts with, ASCII (Kelvin sign, dotted capital I, final sigma).
    #[test]
    fn normalize_matches_the_word_by_word_form(
        tokens in proptest::collection::vec((0usize..26, 0usize..4), 0..24),
    ) {
        const POOL: [&str; 26] = [
            "Hello", "WORLD", "the", "The", "THE", "and", "http://x.io/a", "HTTPS://Y.io",
            "Www.spam.biz", "wwW.", "http:/", "deal!!", "co-op", "42", "3rd", "🚀", "日本",
            "\u{212A}elvin", "\u{130}stanbul", "ΣΟΦΟΣ", "naïve", "ÀB", "...", "it's",
            "\u{212A}", "x\u{130}",
        ];
        const SEPARATORS: [&str; 4] = [" ", "  ", "\t", "\n "];
        let text: String = tokens
            .iter()
            .map(|&(t, sep)| format!("{}{}", POOL[t], SEPARATORS[sep]))
            .collect();
        prop_assert_eq!(normalize(&text), normalize_word_by_word(&text));
    }

    /// Normalization output contains only lowercase alphanumerics and spaces,
    /// and is idempotent.
    #[test]
    fn normalize_is_idempotent(text in ".{0,80}") {
        let once = normalize(&text);
        prop_assert!(once
            .chars()
            .all(|c| c == ' ' || c.is_ascii_lowercase() || c.is_ascii_digit()));
        prop_assert_eq!(normalize(&once), once.clone());
    }

    /// Shingle sets are consistent with text length.
    #[test]
    fn shingle_count_bounds(text in "[a-z ]{0,50}", k in 1usize..6) {
        let s = shingles(&text, k);
        let n = text.chars().count();
        if n == 0 {
            prop_assert!(s.is_empty());
        } else if n <= k {
            prop_assert_eq!(s.len(), 1);
        } else {
            prop_assert!(s.len() <= n - k + 1);
        }
    }

    /// Jaccard similarity is symmetric and bounded.
    #[test]
    fn jaccard_symmetric(a in "[a-z ]{0,40}", b in "[a-z ]{0,40}") {
        let (sa, sb) = (trigram_shingles(&a), trigram_shingles(&b));
        let j1 = jaccard(&sa, &sb);
        let j2 = jaccard(&sb, &sa);
        prop_assert!((j1 - j2).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&j1));
    }

    /// Name pattern length equals the name's character count.
    #[test]
    fn name_pattern_covers_all_chars(name in ".{0,40}") {
        let p = NamePattern::of(&name);
        prop_assert_eq!(p.len() as usize, name.chars().count());
    }

    /// Union-find: component count decreases by exactly the number of
    /// successful unions, and `connected` agrees with `find`.
    #[test]
    fn unionfind_component_accounting(
        n in 1usize..64,
        edges in proptest::collection::vec((0usize..64, 0usize..64), 0..128),
    ) {
        let mut uf = UnionFind::new(n);
        let mut merges = 0;
        for (a, b) in edges {
            let (a, b) = (a % n, b % n);
            if uf.union(a, b) {
                merges += 1;
            }
        }
        prop_assert_eq!(uf.component_count(), n - merges);
        let comps = uf.components();
        let total: usize = comps.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, n);
        prop_assert_eq!(comps.len(), uf.component_count());
    }
}
