//! Text corpora and generators for synthetic tweets, names and
//! descriptions.
//!
//! The generators are intentionally simple but produce text with the
//! *detectable structure* the paper's labeling rules key on: spam payloads
//! carry malicious URLs, money-gain phrasing, adult keywords or promoter
//! language; organic text is benign chatter with occasional ambiguous
//! wording (so classifiers face a non-trivial boundary).

use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::Rng;

/// Benign vocabulary for organic tweets and descriptions.
pub const BENIGN_WORDS: &[&str] = &[
    "coffee",
    "morning",
    "weekend",
    "project",
    "reading",
    "music",
    "garden",
    "friends",
    "family",
    "travel",
    "photo",
    "recipe",
    "game",
    "movie",
    "book",
    "lecture",
    "meeting",
    "sunset",
    "running",
    "cycling",
    "painting",
    "coding",
    "concert",
    "museum",
    "festival",
    "puppy",
    "kitten",
    "dinner",
    "breakfast",
    "holiday",
    "beach",
    "mountain",
    "river",
    "library",
    "workshop",
    "seminar",
    "podcast",
    "album",
    "season",
    "episode",
    "recipe",
    "bakery",
];

/// Short human-ish given names used for organic display names.
pub const GIVEN_NAMES: &[&str] = &[
    "alex", "maria", "chen", "fatima", "john", "sofia", "ivan", "amara", "liam", "noor", "kai",
    "elena", "omar", "jade", "hugo", "nina", "ravi", "lucia", "tomas", "aisha", "felix", "maya",
    "diego", "hana", "peter", "zara", "emil", "rosa", "amir", "iris",
];

/// Money/quick-gain spam phrases (rule 6 of the paper's rule list).
pub const MONEY_PHRASES: &[&str] = &[
    "earn cash fast working from home",
    "double your money in one week guaranteed",
    "free money no strings attached claim now",
    "quick loan approved instantly no credit check",
    "win big jackpot today limited spots",
    "get rich with this one simple trick",
];

/// Adult-content spam phrases (rule 7).
pub const ADULT_PHRASES: &[&str] = &[
    "hot singles in your area waiting",
    "adult cams free preview tonight",
    "explicit photos click to unlock",
];

/// Malicious-promoter phrases (rules 9/10): fake followers, pills, deals.
pub const PROMOTER_PHRASES: &[&str] = &[
    "buy 10000 followers cheap instant delivery",
    "miracle diet pills lose weight overnight",
    "designer watches replica huge discount today",
    "unlock premium accounts free generator",
    "crypto giveaway send one coin receive ten",
];

/// Deceptive/phishing phrases (rule 3).
pub const PHISHING_PHRASES: &[&str] = &[
    "your account will be suspended verify now",
    "you have won a prize confirm your details",
    "security alert unusual login confirm password",
    "package delivery failed update your address",
];

/// Domains used in malicious URLs. The labeling rules treat any URL on one
/// of these domains as malicious (the simulator's stand-in for a URL
/// blacklist such as Google Safe Browsing).
pub const MALICIOUS_DOMAINS: &[&str] = &[
    "malware-load.example",
    "phish-login.example",
    "cheap-pills.example",
    "follower-farm.example",
    "crypto-grab.example",
];

/// Benign domains for organic link sharing.
pub const BENIGN_DOMAINS: &[&str] = &[
    "news.example",
    "blog.example",
    "video.example",
    "photos.example",
    "events.example",
];

/// Word stems used to build campaign screen-name templates.
pub const CAMPAIGN_STEMS: &[&str] = &[
    "deal", "promo", "offer", "bonus", "prize", "click", "win", "cash", "gift", "sale",
];

/// Returns a benign sentence of `words` words.
pub fn benign_sentence(rng: &mut StdRng, words: usize) -> String {
    let mut out = Vec::with_capacity(words);
    for _ in 0..words {
        out.push(*BENIGN_WORDS.choose(rng).expect("non-empty corpus"));
    }
    out.join(" ")
}

/// Returns a benign organic description, e.g. for a user bio.
///
/// Real bios are structurally diverse; a single scaffold ("X lover. Y and Z
/// enthusiast.") would make thousands of organic bios near-duplicates under
/// tri-gram MinHash and poison the clustering pass. Five scaffolds with
/// variable-length free text keep organic pairwise similarity low.
pub fn organic_description(rng: &mut StdRng) -> String {
    let w = |rng: &mut StdRng| *BENIGN_WORDS.choose(rng).expect("non-empty");
    match rng.random_range(0..5) {
        0 => format!("{} lover. {} and {} enthusiast.", w(rng), w(rng), w(rng)),
        1 => {
            let words = rng.random_range(3..8);
            benign_sentence(rng, words)
        }
        2 => format!("{} | {} | {}", w(rng), w(rng), w(rng)),
        3 => format!(
            "into {} since {}. ask me about {}.",
            w(rng),
            rng.random_range(1999..2018),
            w(rng)
        ),
        _ => format!(
            "{} person from the {} side of town, {} on weekends",
            w(rng),
            w(rng),
            w(rng)
        ),
    }
}

/// Returns a random malicious URL on one of the blacklisted domains.
pub fn malicious_url(rng: &mut StdRng) -> String {
    format!(
        "http://{}/{:06x}",
        MALICIOUS_DOMAINS.choose(rng).expect("non-empty"),
        rng.random_range(0..0xff_ffff)
    )
}

/// Returns a random benign URL.
pub fn benign_url(rng: &mut StdRng) -> String {
    format!(
        "https://{}/{:06x}",
        BENIGN_DOMAINS.choose(rng).expect("non-empty"),
        rng.random_range(0..0xff_ffff)
    )
}

/// True when `url` points at a blacklisted domain.
pub fn is_malicious_url(url: &str) -> bool {
    MALICIOUS_DOMAINS.iter().any(|d| url.contains(d))
}

/// The flavors of spam payload a campaign can specialize in, matching the
/// paper's rule-based labeling categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpamFlavor {
    /// Quick-money and loan scams.
    Money,
    /// Adult-content lures.
    Adult,
    /// Fake-goods / fake-follower promotion.
    Promoter,
    /// Credential phishing.
    Phishing,
}

impl SpamFlavor {
    /// All flavors.
    pub const ALL: [SpamFlavor; 4] = [
        SpamFlavor::Money,
        SpamFlavor::Adult,
        SpamFlavor::Promoter,
        SpamFlavor::Phishing,
    ];

    /// The phrase corpus for this flavor.
    pub fn phrases(self) -> &'static [&'static str] {
        match self {
            SpamFlavor::Money => MONEY_PHRASES,
            SpamFlavor::Adult => ADULT_PHRASES,
            SpamFlavor::Promoter => PROMOTER_PHRASES,
            SpamFlavor::Phishing => PHISHING_PHRASES,
        }
    }
}

/// Builds one spam payload: a flavor phrase plus a malicious URL, with a
/// small amount of filler variation so payloads are near- (not exact-)
/// duplicates.
pub fn spam_payload(rng: &mut StdRng, flavor: SpamFlavor) -> String {
    let extra = if rng.random_bool(0.5) { 0 } else { 1 };
    spam_payload_with_noise(rng, flavor, extra)
}

/// Like [`spam_payload`] with `extra_words` benign filler words mixed in.
/// Heavy filler pushes tri-gram similarity between payloads of the same
/// campaign below clustering thresholds — the sloppy-campaign case.
pub fn spam_payload_with_noise(rng: &mut StdRng, flavor: SpamFlavor, extra_words: usize) -> String {
    let phrase = flavor.phrases().choose(rng).expect("non-empty corpus");
    let url = malicious_url(rng);
    let mut parts: Vec<&str> = Vec::with_capacity(extra_words + 2);
    let before = rng.random_range(0..=extra_words);
    for _ in 0..before {
        parts.push(BENIGN_WORDS.choose(rng).expect("non-empty"));
    }
    parts.push(phrase);
    for _ in before..extra_words {
        parts.push(BENIGN_WORDS.choose(rng).expect("non-empty"));
    }
    parts.push(&url);
    parts.join(" ")
}

/// A *subtle* spam payload: benign wording plus a benign-domain URL. It
/// evades the URL blacklist and the keyword rules; only human checking (or
/// behavioral features) can catch it.
pub fn subtle_spam_payload(rng: &mut StdRng) -> String {
    let words = rng.random_range(4..8);
    format!("{} {}", benign_sentence(rng, words), benign_url(rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn benign_sentence_has_requested_words() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = benign_sentence(&mut rng, 5);
        assert_eq!(s.split_whitespace().count(), 5);
    }

    #[test]
    fn malicious_urls_are_detected() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            assert!(is_malicious_url(&malicious_url(&mut rng)));
            assert!(!is_malicious_url(&benign_url(&mut rng)));
        }
    }

    #[test]
    fn spam_payload_contains_malicious_url() {
        let mut rng = StdRng::seed_from_u64(3);
        for &flavor in &SpamFlavor::ALL {
            let p = spam_payload(&mut rng, flavor);
            assert!(is_malicious_url(&p), "payload missing bad URL: {p}");
        }
    }

    #[test]
    fn flavors_have_distinct_corpora() {
        assert_ne!(SpamFlavor::Money.phrases(), SpamFlavor::Adult.phrases());
    }

    #[test]
    fn descriptions_are_nonempty() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!(!organic_description(&mut rng).is_empty());
    }
}
