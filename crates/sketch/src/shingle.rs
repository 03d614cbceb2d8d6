//! Text normalization and shingling for near-duplicate detection.
//!
//! Before MinHash-ing user descriptions, the paper removes URLs, emoji, stop
//! words and special characters, then builds tri-gram shinglings (§IV-B).

use std::collections::BTreeSet;

/// Common English stop words removed during normalization.
///
/// A compact list is sufficient here: the goal is canonicalizing templated
/// campaign descriptions, not full IR-grade stemming.
pub const STOP_WORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if", "in", "into", "is", "it",
    "no", "not", "of", "on", "or", "our", "so", "such", "that", "the", "their", "then", "there",
    "these", "they", "this", "to", "was", "we", "will", "with", "you", "your",
];

/// Normalizes free-form profile/tweet text for shingling.
///
/// Removes URLs (`http://`, `https://`, `www.` tokens), non-ASCII symbols
/// (which covers emoji), punctuation, and stop words; lower-cases the rest
/// and collapses whitespace.
///
/// # Example
///
/// ```
/// use ph_sketch::shingle::normalize;
///
/// let n = normalize("Check THIS out!! 🚀 https://spam.example/x the best deal");
/// assert_eq!(n, "check out best deal");
/// ```
pub fn normalize(text: &str) -> String {
    // One output buffer: a word is filtered straight into it and cut back
    // off if it turns out empty or a stop word.
    let mut out = String::with_capacity(text.len());
    let mut lower = String::new();
    for raw in text.split_whitespace() {
        // An ASCII word is lower-cased as it is filtered; any other is
        // lower-cased into a reused buffer first. `char::to_lowercase`
        // differs from `str::to_lowercase` only in word-final sigma, which
        // the ASCII filter drops either way.
        let word = if raw.is_ascii() {
            raw
        } else {
            lower.clear();
            lower.extend(raw.chars().flat_map(char::to_lowercase));
            &lower
        };
        let prefixed = |p: &str| {
            word.get(..p.len())
                .is_some_and(|w| w.eq_ignore_ascii_case(p))
        };
        if prefixed("http://") || prefixed("https://") || prefixed("www.") {
            continue;
        }
        let mark = out.len();
        if mark > 0 {
            out.push(' ');
        }
        let start = out.len();
        out.extend(
            word.chars()
                .filter(char::is_ascii_alphanumeric)
                .map(|c| c.to_ascii_lowercase()),
        );
        if out.len() == start || STOP_WORDS.contains(&&out[start..]) {
            out.truncate(mark);
        }
    }
    out
}

/// Produces the set of character tri-gram shingles of `text`.
///
/// Texts shorter than the shingle length yield a single shingle containing
/// the whole text (so that short descriptions still compare equal to
/// themselves).
///
/// # Example
///
/// ```
/// use ph_sketch::shingle::trigram_shingles;
///
/// let s = trigram_shingles("abcd");
/// assert!(s.contains("abc") && s.contains("bcd"));
/// assert_eq!(s.len(), 2);
/// ```
pub fn trigram_shingles(text: &str) -> BTreeSet<String> {
    shingles(text, 3)
}

/// Produces the set of character `k`-gram shingles of `text`.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn shingles(text: &str, k: usize) -> BTreeSet<String> {
    assert!(k > 0, "shingle length must be positive");
    let chars: Vec<char> = text.chars().collect();
    let mut out = BTreeSet::new();
    if chars.is_empty() {
        return out;
    }
    if chars.len() <= k {
        out.insert(chars.iter().collect());
        return out;
    }
    for window in chars.windows(k) {
        out.insert(window.iter().collect());
    }
    out
}

/// Exact Jaccard similarity of two shingle sets.
///
/// Returns 1.0 for two empty sets (identical-by-vacuity), matching the
/// convention used by the MinHash estimator.
pub fn jaccard(a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let intersection = a.intersection(b).count();
    let union = a.len() + b.len() - intersection;
    if union == 0 {
        1.0
    } else {
        intersection as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_strips_urls_and_emoji() {
        assert_eq!(
            normalize("WIN money 💰 now!!! at http://bad.example/click"),
            "win money now"
        );
    }

    #[test]
    fn normalize_strips_www_links() {
        assert_eq!(normalize("go www.spam.biz today"), "go today");
    }

    #[test]
    fn normalize_removes_stop_words() {
        assert_eq!(normalize("the cat and the hat"), "cat hat");
    }

    #[test]
    fn normalize_empty_and_symbol_only() {
        assert_eq!(normalize(""), "");
        assert_eq!(normalize("!!! ??? 🤖"), "");
    }

    #[test]
    fn shingles_of_short_text_is_whole_text() {
        let s = shingles("ab", 3);
        assert_eq!(s.len(), 1);
        assert!(s.contains("ab"));
    }

    #[test]
    fn shingles_count_matches_window_count() {
        let s = shingles("hello world", 3);
        // 11 chars → 9 windows, minus duplicates (none here).
        assert_eq!(s.len(), 9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_shingle_panics() {
        let _ = shingles("abc", 0);
    }

    #[test]
    fn jaccard_bounds_and_identity() {
        let a = trigram_shingles("free money fast");
        let b = trigram_shingles("free money fast");
        let c = trigram_shingles("completely different words");
        assert!((jaccard(&a, &b) - 1.0).abs() < 1e-12);
        let d = jaccard(&a, &c);
        assert!((0.0..1.0).contains(&d));
    }

    #[test]
    fn jaccard_empty_sets_are_identical() {
        let e = BTreeSet::new();
        assert_eq!(jaccard(&e, &e), 1.0);
    }
}
