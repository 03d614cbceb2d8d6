//! Pass 2: clustering-based labeling.
//!
//! Groups accounts by profile-image dHash (banded LSH + Hamming verify),
//! screen-name Σ-sequences, and description MinHash; groups tweets by
//! near-duplicate content inside 1-day windows; then propagates spam labels
//! through the groups per the paper's two rules:
//!
//! 1. if a user in a group is suspended (or already labeled a spammer), all
//!    users in the group are spammers;
//! 2. if a tweet in a group is labeled spam (or authored by a spammer), all
//!    tweets in the group are spam and their authors spammers.

use std::collections::{HashMap, HashSet};

use ph_exec::ExecConfig;
use ph_sketch::dhash::DHash128;
use ph_sketch::lsh::{
    bands_of_signature, bands_of_u128, hamming_band_floor, jaccard_band_floor, BandIndex,
};
use ph_sketch::shingle::normalize;
use ph_sketch::{MinHasher, UnionFind};
use ph_twitter_sim::engine::RestApi;
use ph_twitter_sim::AccountId;
use serde::{Deserialize, Serialize};

use crate::labeling::{AccountLabel, LabelMethod, LabeledCollection, TweetLabel};
use crate::monitor::CollectedTweet;

/// Clustering thresholds (defaults follow the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusteringConfig {
    /// Images within this Hamming distance are near-duplicates (paper: 5,
    /// strict less-than).
    pub image_distance_threshold: u32,
    /// Minimum members for a screen-name pattern group (paper: 5).
    pub name_group_min: usize,
    /// Estimated-Jaccard threshold for near-duplicate descriptions.
    pub description_similarity: f64,
    /// Estimated-Jaccard threshold for near-duplicate tweets.
    pub tweet_similarity: f64,
    /// Tweet near-duplicate window (paper: 1 day).
    pub tweet_window_hours: u64,
    /// Minimum raw tweet length checked for duplication (paper: 20 chars).
    pub min_tweet_chars: usize,
    /// MinHash signature width.
    pub minhash_width: usize,
    /// MinHash seed.
    pub minhash_seed: u64,
}

impl Default for ClusteringConfig {
    fn default() -> Self {
        Self {
            image_distance_threshold: 5,
            name_group_min: 5,
            // The paper treats descriptions as identical when their minimum
            // hash values coincide — i.e., near-exact matching. A loose
            // threshold would chain template-ish organic bios into giant
            // components that one false suspension could condemn wholesale.
            description_similarity: 0.9,
            tweet_similarity: 0.8,
            tweet_window_hours: 24,
            min_tweet_chars: 20,
            minhash_width: 64,
            minhash_seed: 17,
        }
    }
}

/// Diagnostics from one clustering pass.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Multi-member account groups found (by any signal).
    pub account_groups: usize,
    /// Multi-member tweet groups found.
    pub tweet_groups: usize,
    /// Spammer accounts newly labeled by propagation.
    pub newly_labeled_spammers: usize,
    /// Spam tweets newly labeled by propagation.
    pub newly_labeled_spam: usize,
}

/// Applies the clustering pass sequentially. Labels only entries that are
/// still unlabeled; earlier passes take precedence.
pub fn apply(
    collected: &[CollectedTweet],
    rest: &RestApi<'_>,
    config: &ClusteringConfig,
    labels: &mut LabeledCollection,
) -> ClusterReport {
    apply_with(collected, rest, config, &ExecConfig::sequential(), labels)
}

/// Applies the clustering pass, fanning the dHash / Σ-sequence / MinHash
/// sketch computation *and* the candidate-pair verify → union-find merge
/// ([`merge_candidate_pairs`]) out across `exec`'s workers. Candidate
/// generation stays sequential and reaches `verify` only with pairs that
/// share the pigeonhole floor of LSH bands ([`BandIndex::candidates`]);
/// every pair that can pass `verify` does, so the components are those of
/// the unfiltered all-pairs pass. Components are invariant under pair
/// partitioning, so the resulting labels are identical to [`apply`] at any
/// thread count.
pub fn apply_with(
    collected: &[CollectedTweet],
    rest: &RestApi<'_>,
    config: &ClusteringConfig,
    exec: &ExecConfig,
    labels: &mut LabeledCollection,
) -> ClusterReport {
    apply_filtered(
        collected,
        rest,
        config,
        exec,
        labels,
        Candidates::Pigeonhole,
    )
}

/// Which band-sharing pairs a similarity pass hands to `verify`.
#[derive(Debug, Clone, Copy)]
enum Candidates {
    /// Only pairs sharing at least the pigeonhole floor of bands.
    Pigeonhole,
    /// Every pair sharing any band: the oracle the floor must agree with.
    #[cfg(test)]
    Unfiltered,
}

impl Candidates {
    /// Bands a pair must share, given the pass's pigeonhole floor.
    fn floor(self, pigeonhole: usize) -> usize {
        match self {
            Candidates::Pigeonhole => pigeonhole,
            #[cfg(test)]
            Candidates::Unfiltered => 1,
        }
    }
}

fn apply_filtered(
    collected: &[CollectedTweet],
    rest: &RestApi<'_>,
    config: &ClusteringConfig,
    exec: &ExecConfig,
    labels: &mut LabeledCollection,
    candidates: Candidates,
) -> ClusterReport {
    debug_assert_eq!(collected.len(), labels.tweet_labels.len());
    let _span = ph_telemetry::span("clustering");
    let mut report = ClusterReport::default();

    // ---- Account universe -------------------------------------------------
    let mut authors: Vec<AccountId> = collected.iter().map(|c| c.tweet.author).collect();
    authors.sort_unstable();
    authors.dedup();
    let mut account_uf = UnionFind::new(authors.len());

    cluster_by_image(&authors, rest, config, exec, candidates, &mut account_uf);
    cluster_by_name(&authors, rest, config, exec, &mut account_uf);
    cluster_by_description(&authors, rest, config, exec, candidates, &mut account_uf);

    let account_groups = account_uf.components_with_min_size(2);
    report.account_groups = account_groups.len();

    // ---- Tweet universe ----------------------------------------------------
    let mut tweet_uf = UnionFind::new(collected.len());
    cluster_tweets(collected, config, exec, candidates, &mut tweet_uf);
    let tweet_groups = tweet_uf.components_with_min_size(2);
    report.tweet_groups = tweet_groups.len();

    // ---- Propagation to fixpoint -------------------------------------------
    let mut spammers: HashSet<AccountId> = labels
        .account_labels
        .iter()
        .filter(|(_, l)| l.spammer)
        .map(|(&id, _)| id)
        .collect();
    let mut spam_tweets: HashSet<usize> = labels
        .tweet_labels
        .iter()
        .enumerate()
        .filter(|(_, l)| l.is_some_and(|l| l.spam))
        .map(|(i, _)| i)
        .collect();

    loop {
        let mut changed = false;
        // Rule 1: "if a user in one group is suspended [or otherwise known
        // spam], we label all users in this group as spammers". Account
        // labels flow through account groups — their *other* tweets are
        // left for the later rule-based / manual passes, per the paper.
        for group in &account_groups {
            if group.iter().any(|&i| spammers.contains(&authors[i])) {
                for &i in group {
                    changed |= spammers.insert(authors[i]);
                }
            }
        }
        // Rule 2: "if a tweet in one group is labeled [spam], we label its
        // users and all tweets in this group as spammers and spams".
        for group in &tweet_groups {
            if group.iter().any(|&i| spam_tweets.contains(&i)) {
                for &i in group {
                    changed |= spam_tweets.insert(i);
                    changed |= spammers.insert(collected[i].tweet.author);
                }
            }
        }
        if !changed {
            break;
        }
    }

    // ---- Write back (first-label-wins) --------------------------------------
    for idx in spam_tweets {
        let slot = &mut labels.tweet_labels[idx];
        if slot.is_none() {
            *slot = Some(TweetLabel {
                spam: true,
                method: LabelMethod::Clustering,
            });
            report.newly_labeled_spam += 1;
        }
    }
    for id in spammers {
        use std::collections::hash_map::Entry;
        if let Entry::Vacant(e) = labels.account_labels.entry(id) {
            e.insert(AccountLabel {
                spammer: true,
                method: LabelMethod::Clustering,
            });
            report.newly_labeled_spammers += 1;
        }
    }
    report
}

/// Floor on candidate pairs per exec chunk in [`merge_candidate_pairs`].
/// The actual chunk size also scales with the pair count so that at most
/// ~4 chunks land on each worker: every chunk costs one O(universe)
/// local-union-find init plus one O(universe) absorb on the caller, so
/// unbounded chunk counts would swamp the verification work they carry.
const MERGE_PAIRS_PER_CHUNK: usize = 512;

/// Verifies candidate pairs and unions the survivors into `uf`, fanning
/// both the verification and the union-find construction across `exec`'s
/// workers — the parallel tail of every similarity pass.
///
/// Pairs are cut into fixed-size chunks; each worker verifies its chunks
/// and records survivors in a *local* [`UnionFind`] over the same
/// `universe`. The caller then absorbs the locals in chunk order
/// (deterministic chunk-ordered fold). Connected components depend only on
/// the set of verified pairs — not on union order or chunk boundaries — so
/// the resulting groups are identical to the old sequential
/// verify-and-union loop at any thread count.
///
/// `verify` must be pure (it runs on worker threads, possibly concurrently
/// and in any order).
pub fn merge_candidate_pairs<F>(
    exec: &ExecConfig,
    stage: &str,
    universe: usize,
    pairs: Vec<(usize, usize)>,
    verify: F,
    uf: &mut UnionFind,
) where
    F: Fn(usize, usize) -> bool + Sync,
{
    if pairs.is_empty() {
        return;
    }
    // Bound the chunk count by ~4 per worker (one chunk total when
    // sequential), so the per-chunk O(universe) overhead stays a small
    // constant factor of the verification work. Chunk boundaries are
    // invisible in the result, so this sizing is a pure tuning knob.
    let threads = exec.resolve_threads().max(1);
    let per_chunk = pairs.len().div_ceil(threads * 4).max(MERGE_PAIRS_PER_CHUNK);
    let chunks: Vec<Vec<(usize, usize)>> = pairs
        .chunks(per_chunk)
        .map(<[(usize, usize)]>::to_vec)
        .collect();
    let locals: Vec<UnionFind> = ph_exec::map(exec, stage, chunks, |chunk: Vec<(usize, usize)>| {
        let mut local = UnionFind::new(universe);
        for (i, j) in chunk {
            if verify(i, j) {
                local.union(i, j);
            }
        }
        local
    });
    for local in &locals {
        uf.absorb(local);
    }
}

/// Image clustering: 8-band LSH over the 128-bit dHash. A pair within
/// Hamming distance < 5 differs in ≤ 4 bits, so at least 4 of the 8
/// 16-bit bands match exactly — only pairs sharing 4 bands are verified
/// (the floor follows the configured threshold).
fn cluster_by_image(
    authors: &[AccountId],
    rest: &RestApi<'_>,
    config: &ClusteringConfig,
    exec: &ExecConfig,
    candidates: Candidates,
    uf: &mut UnionFind,
) {
    let hashes: Vec<Option<DHash128>> = ph_exec::map(
        exec,
        "clustering.image_sketch",
        authors.to_vec(),
        |id: AccountId| {
            let p = rest.profile(id)?;
            // Default (egg) avatars are identical platform-wide and carry
            // no campaign signal; skip them.
            if p.default_profile_image {
                None
            } else {
                Some(DHash128::of(&p.profile_image))
            }
        },
    );
    let mut index = BandIndex::new();
    for (i, hash) in hashes.iter().enumerate() {
        let Some(h) = hash else { continue };
        let bits = ((h.horizontal_bits() as u128) << 64) | h.vertical_bits() as u128;
        index.insert(i, bands_of_u128(bits, 8));
    }
    let floor = hamming_band_floor(8, config.image_distance_threshold);
    merge_candidate_pairs(
        exec,
        "clustering.image_merge",
        authors.len(),
        index.candidates(candidates.floor(floor)),
        |i, j| match (hashes[i], hashes[j]) {
            (Some(hi), Some(hj)) => hi.hamming_distance(hj) < config.image_distance_threshold,
            _ => false,
        },
        uf,
    );
}

/// Screen-name grouping (groups of ≥ `name_group_min`).
///
/// The paper learns regular expressions with literal substrings (merchant
/// patterns); pure Σ-sequences are too generic — any `name+digits` shape
/// would pool unrelated organic users. The key is therefore the Σ-sequence
/// *plus* the lowercase 3-character prefix, approximating the constant stem
/// a learned regex would pin down.
fn cluster_by_name(
    authors: &[AccountId],
    rest: &RestApi<'_>,
    config: &ClusteringConfig,
    exec: &ExecConfig,
    uf: &mut UnionFind,
) {
    use ph_sketch::NamePattern;
    let keys: Vec<Option<(NamePattern, String)>> = ph_exec::map(
        exec,
        "clustering.name_sketch",
        authors.to_vec(),
        |id: AccountId| {
            let profile = rest.profile(id)?;
            let name = &profile.screen_name;
            let prefix: String = name.chars().take(3).flat_map(char::to_lowercase).collect();
            Some((NamePattern::of(name), prefix))
        },
    );
    let mut groups: HashMap<(NamePattern, String), Vec<usize>> = HashMap::new();
    for (i, key) in keys.into_iter().enumerate() {
        if let Some(key) = key {
            groups.entry(key).or_default().push(i);
        }
    }
    for members in groups.into_values() {
        if members.len() < config.name_group_min {
            continue;
        }
        for w in members.windows(2) {
            uf.union(w[0], w[1]);
        }
    }
}

/// Description MinHash grouping: 16 bands × 4 rows, verified at the
/// configured similarity (the default 0.9 needs 58 of 64 minima, so a
/// match shares at least 10 bands).
fn cluster_by_description(
    authors: &[AccountId],
    rest: &RestApi<'_>,
    config: &ClusteringConfig,
    exec: &ExecConfig,
    candidates: Candidates,
    uf: &mut UnionFind,
) {
    let hasher = MinHasher::new(config.minhash_width, config.minhash_seed);
    let signatures: Vec<Option<ph_sketch::MinHashSignature>> = ph_exec::map(
        exec,
        "clustering.description_sketch",
        authors.to_vec(),
        |id: AccountId| {
            let p = rest.profile(id)?;
            let normalized = normalize(&p.description);
            if normalized.len() < 10 {
                return None; // too short to be a meaningful template
            }
            Some(hasher.signature_of_text(&normalized))
        },
    );
    let mut index = BandIndex::new();
    for (i, sig) in signatures.iter().enumerate() {
        let Some(s) = sig else { continue };
        index.insert(i, bands_of_signature(s.as_slice(), 4));
    }
    let floor = jaccard_band_floor(config.minhash_width, 4, config.description_similarity);
    merge_candidate_pairs(
        exec,
        "clustering.description_merge",
        authors.len(),
        index.candidates(candidates.floor(floor)),
        |i, j| match (&signatures[i], &signatures[j]) {
            (Some(si), Some(sj)) => si.estimate_jaccard(sj) >= config.description_similarity,
            _ => false,
        },
        uf,
    );
}

/// Near-duplicate tweets inside rolling 1-day windows, MinHash-verified
/// (the default 0.8 needs 52 of 64 minima, so a match shares at least 4
/// bands).
fn cluster_tweets(
    collected: &[CollectedTweet],
    config: &ClusteringConfig,
    exec: &ExecConfig,
    candidates: Candidates,
    uf: &mut UnionFind,
) {
    let hasher = MinHasher::new(config.minhash_width, config.minhash_seed ^ 0x5eed);
    let signatures: Vec<Option<ph_sketch::MinHashSignature>> = ph_exec::map(
        exec,
        "clustering.tweet_sketch",
        collected.iter().collect(),
        |c: &CollectedTweet| {
            if c.tweet.text.chars().count() < config.min_tweet_chars {
                return None;
            }
            let normalized = normalize(&c.tweet.text);
            if normalized.is_empty() {
                return None;
            }
            Some(hasher.signature_of_text(&normalized))
        },
    );
    // The 1-day window participates in the band key so only same-window
    // tweets become candidates; equal bands in one window keep equal keys.
    let mut index = BandIndex::new();
    for (i, sig) in signatures.iter().enumerate() {
        let Some(sig) = sig else { continue };
        let window = collected[i].hour / config.tweet_window_hours.max(1);
        index.insert(
            i,
            bands_of_signature(sig.as_slice(), 4)
                .map(|(band, key)| (band, key ^ window.wrapping_mul(0x9e37_79b9))),
        );
    }
    let floor = jaccard_band_floor(config.minhash_width, 4, config.tweet_similarity);
    merge_candidate_pairs(
        exec,
        "clustering.tweet_merge",
        collected.len(),
        index.candidates(candidates.floor(floor)),
        |i, j| {
            // Same-window check: the band-key mixing makes cross-window
            // collisions unlikely but not impossible.
            let wi = collected[i].hour / config.tweet_window_hours.max(1);
            let wj = collected[j].hour / config.tweet_window_hours.max(1);
            if wi != wj {
                return false;
            }
            match (&signatures[i], &signatures[j]) {
                (Some(si), Some(sj)) => si.estimate_jaccard(sj) >= config.tweet_similarity,
                _ => false,
            }
        },
        uf,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::{ProfileAttribute, SampleAttribute};
    use crate::labeling::suspended;
    use crate::monitor::{Runner, RunnerConfig};
    use ph_twitter_sim::engine::{Engine, SimConfig};

    fn monitored_engine() -> (Engine, Vec<CollectedTweet>) {
        let mut engine = Engine::new(SimConfig {
            seed: 31,
            num_organic: 500,
            num_campaigns: 4,
            accounts_per_campaign: 10,
            suspension_rate_per_hour: 0.03,
            ..Default::default()
        });
        let runner = Runner::new(RunnerConfig {
            slots: vec![
                SampleAttribute::profile(ProfileAttribute::ListsPerDay, 1.0),
                SampleAttribute::profile(ProfileAttribute::FollowersCount, 10_000.0),
                SampleAttribute::profile(ProfileAttribute::FriendsCount, 10_000.0),
            ],
            ..Default::default()
        });
        let report = runner.run(&mut engine, 40);
        (engine, report.collected)
    }

    #[test]
    fn clustering_expands_suspension_seeds() {
        let (engine, collected) = monitored_engine();
        assert!(!collected.is_empty());
        let mut labels = LabeledCollection {
            tweet_labels: vec![None; collected.len()],
            ..Default::default()
        };
        suspended::apply(&collected, &engine.rest(), &mut labels);
        let before = labels.num_spammers();
        let report = apply(
            &collected,
            &engine.rest(),
            &ClusteringConfig::default(),
            &mut labels,
        );
        let after = labels.num_spammers();
        assert!(
            after >= before,
            "clustering must never remove spammer labels"
        );
        // With 4 campaigns of 10 templated accounts, the clusters must
        // propagate beyond the suspended seeds.
        assert!(
            report.newly_labeled_spammers > 0,
            "clustering labeled no new spammers (groups: {}, seeds: {before})",
            report.account_groups
        );
    }

    #[test]
    fn clustering_finds_campaign_account_groups() {
        let (engine, collected) = monitored_engine();
        let mut labels = LabeledCollection {
            tweet_labels: vec![None; collected.len()],
            ..Default::default()
        };
        let report = apply(
            &collected,
            &engine.rest(),
            &ClusteringConfig::default(),
            &mut labels,
        );
        assert!(report.account_groups > 0, "no account clusters found");
    }

    #[test]
    fn propagated_labels_are_mostly_true_spammers() {
        let (engine, collected) = monitored_engine();
        let mut labels = LabeledCollection {
            tweet_labels: vec![None; collected.len()],
            ..Default::default()
        };
        suspended::apply(&collected, &engine.rest(), &mut labels);
        apply(
            &collected,
            &engine.rest(),
            &ClusteringConfig::default(),
            &mut labels,
        );
        let gt = engine.ground_truth();
        let labeled: Vec<_> = labels
            .account_labels
            .iter()
            .filter(|(_, l)| l.spammer)
            .collect();
        assert!(!labeled.is_empty());
        let correct = labeled.iter().filter(|(&id, _)| gt.is_spammer(id)).count();
        let precision = correct as f64 / labeled.len() as f64;
        assert!(
            precision > 0.8,
            "cluster-propagated labels too noisy: precision {precision:.2}"
        );
    }

    #[test]
    fn sharded_clustering_matches_sequential() {
        let (engine, collected) = monitored_engine();
        let mut seq_labels = LabeledCollection {
            tweet_labels: vec![None; collected.len()],
            ..Default::default()
        };
        suspended::apply(&collected, &engine.rest(), &mut seq_labels);
        let mut par_labels = seq_labels.clone();
        let seq_report = apply(
            &collected,
            &engine.rest(),
            &ClusteringConfig::default(),
            &mut seq_labels,
        );
        let par_report = apply_with(
            &collected,
            &engine.rest(),
            &ClusteringConfig::default(),
            &ExecConfig::with_threads(4),
            &mut par_labels,
        );
        assert_eq!(par_report, seq_report);
        assert_eq!(par_labels, seq_labels);
    }

    #[test]
    fn pigeonhole_candidates_label_exactly_like_the_unfiltered_pass() {
        let (engine, collected) = monitored_engine();
        let mut seeded = LabeledCollection {
            tweet_labels: vec![None; collected.len()],
            ..Default::default()
        };
        suspended::apply(&collected, &engine.rest(), &mut seeded);
        let config = ClusteringConfig::default();
        let mut oracle_labels = seeded.clone();
        let oracle_report = apply_filtered(
            &collected,
            &engine.rest(),
            &config,
            &ExecConfig::sequential(),
            &mut oracle_labels,
            Candidates::Unfiltered,
        );
        assert!(oracle_report.tweet_groups > 0 && oracle_report.account_groups > 0);
        for threads in [1, 4] {
            let mut labels = seeded.clone();
            let report = apply_with(
                &collected,
                &engine.rest(),
                &config,
                &ExecConfig::with_threads(threads),
                &mut labels,
            );
            assert_eq!(report, oracle_report, "threads {threads}");
            assert_eq!(labels, oracle_labels, "threads {threads}");
        }
    }

    #[test]
    fn without_seeds_nothing_propagates_from_accounts_alone() {
        // No suspended seeds and no rule labels: propagation can only start
        // from pre-labeled spam, so the pass labels nothing.
        let (engine, collected) = monitored_engine();
        let mut labels = LabeledCollection {
            tweet_labels: vec![None; collected.len()],
            ..Default::default()
        };
        let report = apply(
            &collected,
            &engine.rest(),
            &ClusteringConfig::default(),
            &mut labels,
        );
        assert_eq!(report.newly_labeled_spam, 0);
        assert_eq!(report.newly_labeled_spammers, 0);
    }
}
