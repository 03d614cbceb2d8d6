//! The 58-feature extraction of §IV-A: 16 sender-profile + 16
//! receiver-profile + 8 content + 18 behavioral features per collected
//! tweet.
//!
//! The extractor is *streaming*: behavioral aggregates (tweet/source
//! distributions, average intervals, reciprocity) are computed from the
//! tweets observed so far, exactly as an online monitor would, and the
//! environment score `f_score` updates as spam verdicts arrive
//! ("both `P_attr` and `f_score` will be updated once new spams are found").

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use ph_exec::ExecConfig;
use ph_twitter_sim::engine::{Engine, RestApi};
use ph_twitter_sim::{AccountId, Profile, SimTime, Tweet, TweetKind};
use serde::{Deserialize, Serialize};

use crate::attributes::SampleAttribute;
use crate::monitor::CollectedTweet;

/// Total number of features.
pub const FEATURE_COUNT: usize = 58;

/// Default τ — the environment score assigned while an attribute group has
/// produced no spam yet.
pub const DEFAULT_TAU: f64 = 0.01;

/// Where the pure feature phase looks up author profiles.
///
/// Profiles never change once an account exists, and the engine only ever
/// appends accounts (campaign replacements at the end of an hour), so a
/// directory copied from an engine and extended with each hour's new
/// accounts answers exactly as the engine does — the daemon classifies
/// from such a copy while its replica engine steps ahead on another
/// thread.
pub trait ProfileLookup: Sync {
    /// The public profile of `id`, if the account exists.
    fn profile(&self, id: AccountId) -> Option<&Profile>;
}

impl ProfileLookup for RestApi<'_> {
    fn profile(&self, id: AccountId) -> Option<&Profile> {
        RestApi::profile(self, id)
    }
}

impl ProfileLookup for Engine {
    fn profile(&self, id: AccountId) -> Option<&Profile> {
        self.rest().profile(id)
    }
}

/// A profile directory indexed by account id (`profiles[id]` is `id`'s).
impl ProfileLookup for [Profile] {
    fn profile(&self, id: AccountId) -> Option<&Profile> {
        self.get(id.index())
    }
}

/// Sentinel mention time (minutes) when a tweet carries no reaction
/// context; one full day, i.e. "slower than any real reaction we track".
pub const MENTION_TIME_SENTINEL: f64 = 1_440.0;

/// Names of all 58 features, in vector order.
pub fn feature_names() -> [&'static str; FEATURE_COUNT] {
    [
        // Sender profile (16).
        "s_friends",
        "s_followers",
        "s_age_days",
        "s_statuses",
        "s_statuses_per_day",
        "s_lists",
        "s_lists_per_day",
        "s_favorites_per_day",
        "s_favorites",
        "s_verified",
        "s_default_image",
        "s_screen_name_len",
        "s_display_name_len",
        "s_description_len",
        "s_description_emoji",
        "s_description_digits",
        // Receiver profile (16).
        "r_friends",
        "r_followers",
        "r_age_days",
        "r_statuses",
        "r_statuses_per_day",
        "r_lists",
        "r_lists_per_day",
        "r_favorites_per_day",
        "r_favorites",
        "r_verified",
        "r_default_image",
        "r_screen_name_len",
        "r_display_name_len",
        "r_description_len",
        "r_description_emoji",
        "r_description_digits",
        // Content (8).
        "c_repeated",
        "c_kind",
        "c_source",
        "c_hashtag_count",
        "c_mention_count",
        "c_length",
        "c_emoji_count",
        "c_digit_count",
        // Behavior (18).
        "b_reciprocity",
        "b_s_tweet_frac",
        "b_s_retweet_frac",
        "b_s_quote_frac",
        "b_r_tweet_frac",
        "b_r_retweet_frac",
        "b_r_quote_frac",
        "b_s_src_web",
        "b_s_src_mobile",
        "b_s_src_third",
        "b_s_src_other",
        "b_r_src_web",
        "b_r_src_mobile",
        "b_r_src_third",
        "b_r_src_other",
        "b_mention_time",
        "b_avg_tweet_interval",
        "b_environment_score",
    ]
}

/// Rolling per-account aggregates over the monitored stream.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct AccountStats {
    kind_counts: [u64; 3],
    source_counts: [u64; 4],
    /// Number of observed tweets.
    count: u64,
    /// Timestamp of the most recent observed tweet.
    last_at: Option<SimTime>,
    /// Sum of gaps between consecutive tweets, in minutes.
    gap_sum_minutes: f64,
    /// Number of gaps summed.
    gap_count: u64,
}

impl AccountStats {
    fn observe(&mut self, tweet: &Tweet) {
        self.kind_counts[kind_index(tweet.kind)] += 1;
        self.source_counts[tweet.source.index()] += 1;
        if let Some(last) = self.last_at {
            self.gap_sum_minutes += tweet.created_at.minutes_since(last) as f64;
            self.gap_count += 1;
        }
        self.last_at = Some(tweet.created_at);
        self.count += 1;
    }

    fn kind_fractions(&self) -> [f64; 3] {
        fractions3(&self.kind_counts)
    }

    fn source_fractions(&self) -> [f64; 4] {
        fractions4(&self.source_counts)
    }

    fn average_interval_minutes(&self) -> f64 {
        if self.gap_count == 0 {
            0.0
        } else {
            self.gap_sum_minutes / self.gap_count as f64
        }
    }
}

fn kind_index(kind: TweetKind) -> usize {
    match kind {
        TweetKind::Original => 0,
        TweetKind::Retweet => 1,
        TweetKind::Quote => 2,
    }
}

fn fractions3(counts: &[u64; 3]) -> [f64; 3] {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return [0.0; 3];
    }
    [
        counts[0] as f64 / total as f64,
        counts[1] as f64 / total as f64,
        counts[2] as f64 / total as f64,
    ]
}

fn fractions4(counts: &[u64; 4]) -> [f64; 4] {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return [0.0; 4];
    }
    let mut out = [0.0; 4];
    for (o, &c) in out.iter_mut().zip(counts) {
        *o = c as f64 / total as f64;
    }
    out
}

/// The group-likelihood environment score of §IV-A: per selection slot,
/// `p_i` = spams found / tweets collected, with τ while no spam is known.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnvironmentScore {
    tau: f64,
    stats: HashMap<SampleAttribute, (u64, u64)>,
}

impl EnvironmentScore {
    /// Creates an empty score table with the given τ.
    pub fn new(tau: f64) -> Self {
        Self {
            tau,
            stats: HashMap::new(),
        }
    }

    /// Records one verdict for a slot (spam or not).
    pub fn record(&mut self, slot: SampleAttribute, is_spam: bool) {
        let entry = self.stats.entry(slot).or_insert((0, 0));
        entry.1 += 1;
        if is_spam {
            entry.0 += 1;
        }
    }

    /// The score for a slot: its group likelihood if spam has been seen
    /// there, τ otherwise.
    pub fn score(&self, slot: &SampleAttribute) -> f64 {
        match self.stats.get(slot) {
            Some(&(spams, total)) if spams > 0 && total > 0 => spams as f64 / total as f64,
            _ => self.tau,
        }
    }

    /// The configured τ.
    pub fn tau(&self) -> f64 {
        self.tau
    }
}

impl Default for EnvironmentScore {
    fn default() -> Self {
        Self::new(DEFAULT_TAU)
    }
}

/// Streaming 58-feature extractor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureExtractor {
    sender: HashMap<AccountId, AccountStats>,
    receiver: HashMap<AccountId, AccountStats>,
    /// Conversation counts per unordered account pair.
    pairs: HashMap<(u32, u32), u64>,
    /// Seen-content fingerprints (normalized text hash → count).
    seen_texts: HashMap<u64, u64>,
    env: EnvironmentScore,
}

impl FeatureExtractor {
    /// Creates an extractor with the default τ.
    pub fn new() -> Self {
        Self::with_tau(DEFAULT_TAU)
    }

    /// Creates an extractor with an explicit τ.
    pub fn with_tau(tau: f64) -> Self {
        Self {
            sender: HashMap::new(),
            receiver: HashMap::new(),
            pairs: HashMap::new(),
            seen_texts: HashMap::new(),
            env: EnvironmentScore::new(tau),
        }
    }

    /// Completes a row that already holds the pure phase (a
    /// [`FeatureMatrix`] row from [`pure_batch_matrix`]) **in place** into
    /// the full 58-feature vector: fills the stream-order-dependent slots
    /// (repeated-content flag, reciprocity, kind/source distributions,
    /// average interval, environment score), then folds the tweet into the
    /// rolling aggregates. Must be called in stream order with the same
    /// `collected` the pure phase saw.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `features.len() != FEATURE_COUNT`.
    pub fn finish_into(&mut self, collected: &CollectedTweet, features: &mut [f64]) {
        // Counter only — a span per tweet would dominate the extractor's
        // own cost in the inner loop; stage timing wraps the batch callers.
        ph_telemetry::cached_counter!("features.vectors_extracted").inc();
        let tweet = &collected.tweet;
        let sender_id = tweet.author;
        let receiver_id = (collected.node != sender_id).then_some(collected.node);

        debug_assert_eq!(features.len(), FEATURE_COUNT);

        let text_key = hash_text(&tweet.text);
        let repeated = self.seen_texts.get(&text_key).copied().unwrap_or(0) > 0;
        features[32] = if repeated { 1.0 } else { 0.0 };

        let reciprocity = receiver_id
            .map(|r| {
                self.pairs
                    .get(&pair_key(sender_id, r))
                    .copied()
                    .unwrap_or(0)
            })
            .unwrap_or(0);
        features[40] = reciprocity as f64;
        let s_stats = self.sender.entry(sender_id).or_default().clone();
        let r_stats = receiver_id
            .map(|r| self.receiver.entry(r).or_default().clone())
            .unwrap_or_default();
        features[41..44].copy_from_slice(&s_stats.kind_fractions());
        features[44..47].copy_from_slice(&r_stats.kind_fractions());
        features[47..51].copy_from_slice(&s_stats.source_fractions());
        features[51..55].copy_from_slice(&r_stats.source_fractions());
        features[56] = s_stats.average_interval_minutes();
        features[57] = self.env.score(&collected.slot);

        // Fold this tweet into the rolling state.
        *self.seen_texts.entry(text_key).or_insert(0) += 1;
        self.sender.entry(sender_id).or_default().observe(tweet);
        if let Some(r) = receiver_id {
            self.receiver.entry(r).or_default().observe(tweet);
            *self.pairs.entry(pair_key(sender_id, r)).or_insert(0) += 1;
        }
    }

    /// Feeds a spam verdict back into the environment score (call after the
    /// labeling pipeline or detector decides).
    pub fn record_verdict(&mut self, slot: SampleAttribute, is_spam: bool) {
        self.env.record(slot, is_spam);
    }

    /// The live environment-score table.
    pub fn environment(&self) -> &EnvironmentScore {
        &self.env
    }
}

impl Default for FeatureExtractor {
    fn default() -> Self {
        Self::new()
    }
}

/// Writes the order-independent slice of a feature vector into a
/// caller-owned row: sender/receiver profiles, content shape and mention
/// time computed; every stream-order-dependent slot left at 0.0 for
/// [`FeatureExtractor::finish_into`] to fill. It reads only the tweet and
/// a [`ProfileLookup`] — never extractor state — so it can run on any
/// worker thread in any order. Every slot is assigned, so rows may be
/// reused without re-zeroing.
fn fill_pure_features<P: ProfileLookup + ?Sized>(
    collected: &CollectedTweet,
    profiles: &P,
    features: &mut [f64],
) {
    debug_assert_eq!(features.len(), FEATURE_COUNT);
    let tweet = &collected.tweet;
    let sender_id = tweet.author;
    // Receiver = the crossed node when the tweet mentions it; a node's
    // own post has no receiver in the paper's sense.
    let receiver_id = (collected.node != sender_id).then_some(collected.node);

    // Sender profile (16).
    match profiles.profile(sender_id) {
        Some(p) => write_profile(&mut features[0..16], p),
        None => features[0..16].fill(0.0),
    }
    // Receiver profile (16).
    match receiver_id.and_then(|id| profiles.profile(id)) {
        Some(p) => write_profile(&mut features[16..32], p),
        None => features[16..32].fill(0.0),
    }

    // Content (8) — c_repeated (index 32) needs the seen-texts table.
    features[32] = 0.0;
    features[33] = kind_index(tweet.kind) as f64;
    features[34] = tweet.source.index() as f64;
    features[35] = tweet.hashtags.len() as f64;
    features[36] = tweet.mentions.len() as f64;
    features[37] = tweet.content_length() as f64;
    features[38] = tweet.emoji_count() as f64;
    features[39] = tweet.digit_count() as f64;

    // Behavior (18) — reciprocity (40) and the kind/source distributions
    // (41..55) are rolling aggregates; only mention time (55) is pure.
    features[40..55].fill(0.0);
    features[55] = match tweet.reacted_to_post_at {
        Some(t) => tweet.created_at.minutes_since(t) as f64,
        None => MENTION_TIME_SENTINEL,
    };
    features[56] = 0.0; // b_avg_tweet_interval
    features[57] = 0.0; // b_environment_score
}

/// A contiguous row-major feature matrix: `rows × FEATURE_COUNT` values in
/// one allocation, the columnar block the batch classifier kernels consume
/// without per-row pointer chasing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeatureMatrix {
    data: Vec<f64>,
    rows: usize,
}

impl FeatureMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True when the matrix holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// One row as a feature slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * FEATURE_COUNT..(i + 1) * FEATURE_COUNT]
    }

    /// One row, mutable (the in-place target of
    /// [`FeatureExtractor::finish_into`]).
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * FEATURE_COUNT..(i + 1) * FEATURE_COUNT]
    }

    /// The whole matrix as one contiguous slice.
    pub fn data(&self) -> &[f64] {
        &self.data
    }
}

/// Runs the pure extraction phase over a whole batch, sharded across
/// `exec`'s workers, into one contiguous [`FeatureMatrix`] in `collected`
/// order; completing its rows with [`FeatureExtractor::finish_into`] in
/// stream order gives the same vectors at any thread count.
///
/// The stage is pure and CPU-heavy, so it declares
/// [`ph_exec::StageWeight::CpuBound`]: records deal round-robin across
/// every worker instead of collapsing onto the author-hash shards. Each
/// worker fills a stack `[f64; 58]` (no heap allocation per tweet); the
/// rows are then copied into one batch-sized allocation.
pub fn pure_batch_matrix<P: ProfileLookup + ?Sized>(
    collected: &[CollectedTweet],
    profiles: &P,
    exec: &ExecConfig,
) -> FeatureMatrix {
    let pure = ph_exec::run_weighted(
        exec,
        "features.pure",
        ph_exec::StageWeight::CpuBound,
        collected.iter().collect(),
        |c: &&CollectedTweet| u64::from(c.tweet.author.0),
        |_worker| {
            move |c: &CollectedTweet| {
                let mut row = [0.0f64; FEATURE_COUNT];
                fill_pure_features(c, profiles, &mut row);
                row
            }
        },
    );
    let mut data = Vec::with_capacity(pure.len() * FEATURE_COUNT);
    for row in &pure {
        data.extend_from_slice(row);
    }
    FeatureMatrix {
        data,
        rows: pure.len(),
    }
}

fn write_profile(out: &mut [f64], p: &Profile) {
    out[0] = p.friends_count as f64;
    out[1] = p.followers_count as f64;
    out[2] = f64::from(p.account_age_days);
    out[3] = p.statuses_count as f64;
    out[4] = p.statuses_per_day();
    out[5] = p.lists_count as f64;
    out[6] = p.lists_per_day();
    out[7] = p.favorites_per_day();
    out[8] = p.favorites_count as f64;
    out[9] = if p.verified { 1.0 } else { 0.0 };
    out[10] = if p.default_profile_image { 1.0 } else { 0.0 };
    out[11] = p.screen_name.chars().count() as f64;
    out[12] = p.display_name.chars().count() as f64;
    out[13] = p.description.chars().count() as f64;
    out[14] = p.description.chars().filter(|c| !c.is_ascii()).count() as f64;
    out[15] = p.description.chars().filter(char::is_ascii_digit).count() as f64;
}

fn pair_key(a: AccountId, b: AccountId) -> (u32, u32) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

fn hash_text(text: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    text.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::{ProfileAttribute, SampleAttribute};
    use crate::monitor::{CollectedTweet, TweetCategory};
    use ph_twitter_sim::engine::{Engine, SimConfig};
    use ph_twitter_sim::{TweetId, TweetSource};

    fn engine() -> Engine {
        Engine::new(SimConfig {
            seed: 3,
            num_organic: 50,
            num_campaigns: 1,
            accounts_per_campaign: 3,
            ..Default::default()
        })
    }

    /// One tweet through the production path: a one-row pure phase, then
    /// the in-place stream-order finish.
    fn extract(fx: &mut FeatureExtractor, c: &CollectedTweet, engine: &Engine) -> Vec<f64> {
        let mut matrix =
            pure_batch_matrix(std::slice::from_ref(c), engine, &ExecConfig::sequential());
        fx.finish_into(c, matrix.row_mut(0));
        matrix.row(0).to_vec()
    }

    fn slot() -> SampleAttribute {
        SampleAttribute::profile(ProfileAttribute::FriendsCount, 100.0)
    }

    fn collected(author: u32, node: u32, minute: u64, text: &str) -> CollectedTweet {
        let tweet = Tweet::observed(
            TweetId(minute),
            AccountId(author),
            SimTime::from_minutes(minute),
            TweetKind::Original,
            TweetSource::ThirdParty,
            text.to_string(),
            vec!["tech_0".into()],
            vec![AccountId(node)],
            vec![],
            Some(SimTime::from_minutes(minute.saturating_sub(3))),
        );
        CollectedTweet {
            tweet,
            category: TweetCategory::MentionOfNode,
            node: AccountId(node),
            slot: slot(),
            hour: minute / 60,
        }
    }

    #[test]
    fn feature_vector_has_58_named_features() {
        assert_eq!(feature_names().len(), FEATURE_COUNT);
        let e = engine();
        let mut fx = FeatureExtractor::new();
        let v = extract(&mut fx, &collected(1, 2, 100, "hello world"), &e);
        assert_eq!(v.len(), FEATURE_COUNT);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn repeated_content_flag_flips_on_second_sight() {
        let e = engine();
        let mut fx = FeatureExtractor::new();
        let v1 = extract(&mut fx, &collected(1, 2, 100, "same text"), &e);
        let v2 = extract(&mut fx, &collected(3, 2, 105, "same text"), &e);
        assert_eq!(v1[32], 0.0, "first sighting should not be repeated");
        assert_eq!(v2[32], 1.0, "second sighting should be repeated");
    }

    #[test]
    fn reciprocity_counts_prior_conversations() {
        let e = engine();
        let mut fx = FeatureExtractor::new();
        let first = extract(&mut fx, &collected(1, 2, 100, "a"), &e);
        let second = extract(&mut fx, &collected(1, 2, 110, "b"), &e);
        let third = extract(&mut fx, &collected(2, 1, 120, "c"), &e);
        assert_eq!(first[40], 0.0);
        assert_eq!(second[40], 1.0);
        // Pair key is unordered: the reply sees both prior tweets.
        assert_eq!(third[40], 2.0);
    }

    #[test]
    fn mention_time_is_reaction_gap() {
        let e = engine();
        let mut fx = FeatureExtractor::new();
        let v = extract(&mut fx, &collected(1, 2, 100, "x"), &e);
        assert_eq!(v[55], 3.0, "mention time should be the reaction gap");
    }

    #[test]
    fn average_interval_tracks_sender_gaps() {
        let e = engine();
        let mut fx = FeatureExtractor::new();
        extract(&mut fx, &collected(1, 2, 100, "a"), &e);
        extract(&mut fx, &collected(1, 2, 110, "b"), &e);
        let v = extract(&mut fx, &collected(1, 2, 130, "c"), &e);
        // Gaps so far: 10 → average 10.
        assert_eq!(v[56], 10.0);
    }

    #[test]
    fn environment_score_starts_at_tau_and_updates() {
        let e = engine();
        let mut fx = FeatureExtractor::with_tau(0.05);
        let v1 = extract(&mut fx, &collected(1, 2, 100, "a"), &e);
        assert_eq!(v1[57], 0.05);
        fx.record_verdict(slot(), true);
        fx.record_verdict(slot(), false);
        let v2 = extract(&mut fx, &collected(3, 2, 140, "b"), &e);
        assert!((v2[57] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn source_distribution_accumulates() {
        let e = engine();
        let mut fx = FeatureExtractor::new();
        extract(&mut fx, &collected(1, 2, 100, "a"), &e);
        let v = extract(&mut fx, &collected(1, 2, 110, "b"), &e);
        // The one prior tweet was ThirdParty → sender source dist = [0,0,1,0].
        assert_eq!(&v[47..51], &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn sharded_pure_phase_matches_row_by_row_at_any_thread_count() {
        let e = engine();
        let batch: Vec<CollectedTweet> = (0u32..40)
            .map(|i| {
                collected(
                    i % 7,
                    (i % 5) + 10,
                    100 + u64::from(i) * 7,
                    &format!("text number {}", i % 9),
                )
            })
            .collect();
        let mut seq_fx = FeatureExtractor::new();
        let expected: Vec<Vec<f64>> = batch.iter().map(|c| extract(&mut seq_fx, c, &e)).collect();
        for threads in [1, 4] {
            let exec = ExecConfig::with_threads(threads);
            let mut matrix = pure_batch_matrix(&batch, &e.rest(), &exec);
            let mut fx = FeatureExtractor::new();
            let got: Vec<Vec<f64>> = batch
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    fx.finish_into(c, matrix.row_mut(i));
                    matrix.row(i).to_vec()
                })
                .collect();
            assert_eq!(got, expected, "{threads}-thread pure phase diverged");
        }
    }

    #[test]
    fn node_own_activity_has_zero_receiver_block() {
        let e = engine();
        let mut fx = FeatureExtractor::new();
        let mut c = collected(2, 2, 100, "self post");
        c.category = TweetCategory::NodeActivity;
        c.tweet.mentions.clear();
        let v = extract(&mut fx, &c, &e);
        assert!(v[16..32].iter().all(|&x| x == 0.0));
    }
}
