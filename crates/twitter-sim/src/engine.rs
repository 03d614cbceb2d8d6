//! The hour-stepped simulation engine.
//!
//! Each [`Engine::step_hour`] call: evolves the topic pool, refreshes the
//! spammer-attraction table, generates organic posts (with mentions and
//! replies), generates campaign spam targeted by attractiveness, runs the
//! suspension process, and publishes every tweet to the streaming bus.

use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::account::{Account, AccountId, CampaignId};
use crate::api::{StreamBus, StreamingApi};
use crate::attract::{AttractivenessModel, TopicExposure};
use crate::campaign::Campaign;
use crate::population::generate_organic;
use crate::text::{benign_sentence, benign_url, spam_payload, MONEY_PHRASES};
use crate::time::{SimTime, MINUTES_PER_HOUR};
use crate::topics::{TopicEngine, Trend};
use crate::tweet::{Tweet, TweetId, TweetKind, TweetSource};

/// Simulation configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Master seed; everything downstream derives from it.
    pub seed: u64,
    /// Number of organic accounts.
    pub num_organic: usize,
    /// Number of spam campaigns.
    pub num_campaigns: usize,
    /// Accounts per campaign.
    pub accounts_per_campaign: usize,
    /// Topics per hashtag category.
    pub topics_per_category: usize,
    /// Hourly probability that a campaign account that has spammed gets
    /// suspended. Calibrated so a sizeable minority of spammers are
    /// suspended over a multi-hundred-hour run (paper Table III: suspension
    /// labels 6.7% of tweets).
    pub suspension_rate_per_hour: f64,
    /// Hourly probability that an organic account is (wrongly) suspended —
    /// "a suspended account is not necessarily a spam account".
    pub organic_suspension_rate_per_hour: f64,
    /// Hours a hashtag stays in an account's recent-exposure window.
    pub exposure_window_hours: u64,
    /// The ground-truth attraction model.
    pub attract: AttractivenessModel,
    /// Probability that an organic tweet uses spam-adjacent wording (hard
    /// negatives for the classifier).
    pub organic_spamlike_rate: f64,
    /// Probability that a campaign replaces a freshly suspended member with
    /// a newly registered account (the underground account-market churn the
    /// paper's related work describes). Churn spreads a campaign's spam
    /// volume over many short-lived accounts.
    pub campaign_replenishment_rate: f64,
    /// Optional spammer-taste drift schedule (§IV-C's future-work problem,
    /// made simulatable). `None` keeps tastes fixed for the whole run.
    pub drift: Option<crate::drift::DriftSchedule>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            num_organic: 2_000,
            num_campaigns: 6,
            accounts_per_campaign: 12,
            topics_per_category: 12,
            suspension_rate_per_hour: 0.02,
            organic_suspension_rate_per_hour: 0.000_02,
            exposure_window_hours: 6,
            attract: AttractivenessModel::default(),
            organic_spamlike_rate: 0.01,
            campaign_replenishment_rate: 0.8,
            drift: None,
        }
    }
}

/// Aggregate counters maintained by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Hours simulated so far.
    pub hours: u64,
    /// Total tweets generated.
    pub tweets: u64,
    /// Ground-truth spam tweets generated.
    pub spam_tweets: u64,
    /// Tweets carrying at least one mention.
    pub mention_tweets: u64,
    /// Currently suspended accounts.
    pub suspended_accounts: u64,
}

/// Public activity summary used for the paper's Active/Dormant screening.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActivitySummary {
    /// Time of the account's most recent post, if any.
    pub last_post_at: Option<SimTime>,
    /// Exponentially-weighted recent mentions received per hour.
    pub recent_mentions_per_hour: f64,
}

/// One account's rolling exposure bookkeeping.
#[derive(Debug, Clone, Default)]
struct AccountState {
    last_post_at: Option<SimTime>,
    /// Hashtags used recently: (index into the topic pool, hour used).
    recent_topics: VecDeque<(usize, u64)>,
    /// EWMA of mentions received per hour.
    mention_ewma: f64,
    /// Mentions received during the current hour.
    mentions_this_hour: u32,
    suspended: bool,
    has_spammed: bool,
}

/// The simulation engine. See the module docs for the per-hour schedule.
#[derive(Debug)]
pub struct Engine {
    config: SimConfig,
    rng: StdRng,
    time: SimTime,
    accounts: Vec<Account>,
    campaigns: Vec<Campaign>,
    topics: TopicEngine,
    graph: crate::graph::SocialGraph,
    states: Vec<AccountState>,
    bus: Arc<StreamBus>,
    next_tweet_id: u64,
    stats: EngineStats,
    /// `config.attract`'s profile factor of each account, by index: kept
    /// until the model changes, and extended as accounts are added.
    profile_factors: Vec<f64>,
    /// Cumulative attraction weights over organic accounts, rebuilt hourly.
    victim_cumulative: Vec<f64>,
    /// Organic account indices parallel to `victim_cumulative`.
    victim_indices: Vec<usize>,
    /// Accounts that posted during the last hour (reply targets).
    recent_posters: Vec<AccountId>,
    /// The hour's five hottest trending-up topics (spam rides them).
    trending_up: Vec<usize>,
}

/// A tweet on its way to [`Engine::deliver`], with the pool index of its
/// hashtag: every simulated tweet carries at most one.
type Posted = (Tweet, Option<usize>);

impl Engine {
    /// Builds the population, campaigns and topic pool from the config.
    ///
    /// # Panics
    ///
    /// Panics if the config describes an empty population.
    pub fn new(config: SimConfig) -> Self {
        assert!(config.num_organic > 0, "need at least one organic account");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let topics = TopicEngine::new(config.topics_per_category, &mut rng);
        let mut accounts = generate_organic(config.num_organic, 0, &mut rng);
        let mut campaigns = Vec::with_capacity(config.num_campaigns);
        for c in 0..config.num_campaigns {
            let campaign = Campaign::generate(CampaignId(c as u16), &mut rng);
            for _ in 0..config.accounts_per_campaign {
                let id = AccountId(accounts.len() as u32);
                accounts.push(campaign.generate_member(id, &mut rng));
            }
            campaigns.push(campaign);
        }
        let graph = crate::graph::SocialGraph::generate(&accounts, &mut rng);
        let states = vec![AccountState::default(); accounts.len()];
        let mut engine = Self {
            config,
            rng,
            time: SimTime::EPOCH,
            accounts,
            campaigns,
            topics,
            graph,
            states,
            bus: Arc::new(StreamBus::default()),
            next_tweet_id: 0,
            stats: EngineStats::default(),
            profile_factors: Vec::new(),
            victim_cumulative: Vec::new(),
            victim_indices: Vec::new(),
            recent_posters: Vec::new(),
            trending_up: Vec::new(),
        };
        engine.rebuild_victim_table();
        engine
    }

    /// Current simulation time (start of the next hour to simulate).
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Aggregate counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Client handle to the streaming API.
    pub fn streaming(&self) -> StreamingApi {
        StreamingApi::new(Arc::clone(&self.bus))
    }

    /// Read-only REST facade.
    pub fn rest(&self) -> RestApi<'_> {
        RestApi { engine: self }
    }

    /// Ground-truth oracle (evaluation only — not part of the API surface
    /// the detector observes).
    pub fn ground_truth(&self) -> GroundTruth<'_> {
        GroundTruth { engine: self }
    }

    /// The topic pool (playing the hashtag-analytics-provider role).
    pub fn topics(&self) -> &TopicEngine {
        &self.topics
    }

    /// The spam campaigns (ground truth, for evaluation).
    pub fn campaigns(&self) -> &[Campaign] {
        &self.campaigns
    }

    /// Registers an externally constructed account (e.g. an artificial
    /// honeypot) into the live network. The account participates in the
    /// next simulated hour: it posts per its behavior and can be targeted
    /// by spammers like any organic account.
    ///
    /// Returns the id assigned to the new account.
    ///
    /// # Panics
    ///
    /// Panics if the account is constructed as a campaign member (scripted
    /// accounts must be organic-kind; campaigns are created via config).
    pub fn add_account(&mut self, mut account: crate::account::Account) -> AccountId {
        assert!(
            !account.is_spammer(),
            "scripted accounts must be organic-kind"
        );
        let id = AccountId(self.accounts.len() as u32);
        account.profile.id = id;
        self.accounts.push(account);
        self.states.push(AccountState::default());
        self.graph.extend_to(self.accounts.len());
        self.rebuild_victim_table();
        id
    }

    /// The realized social-interaction graph (public information: follow
    /// lists are visible through the real API as well).
    pub fn graph(&self) -> &crate::graph::SocialGraph {
        &self.graph
    }

    /// Simulates `hours` hours.
    pub fn run_hours(&mut self, hours: u64) {
        for _ in 0..hours {
            self.step_hour();
        }
    }

    /// Simulates one hour.
    pub fn step_hour(&mut self) {
        let _span = ph_telemetry::span("simulate.step_hour");
        // Spammer drift takes effect at the scheduled hour boundary.
        if let Some(schedule) = &self.config.drift {
            if let Some(event) = schedule.change_at(self.time.whole_hours()) {
                let event = event.clone();
                if let Some(model) = event.attract {
                    self.config.attract = model;
                    self.profile_factors.clear();
                }
                if let Some(shift) = event.stealth {
                    self.apply_stealth_shift(&shift);
                }
            }
        }
        self.topics.evolve(&mut self.rng);
        self.rebuild_victim_table();
        self.trending_up = self.topics.trending(Trend::Up, 5);
        let mut posters: Vec<AccountId> = Vec::new();
        let mut tweets: Vec<Posted> = Vec::new();

        for index in 0..self.accounts.len() {
            if self.states[index].suspended {
                continue;
            }
            if self.accounts[index].is_spammer() {
                self.spam_activity(index, &mut tweets);
                // Campaign accounts also post benign camouflage.
                let camouflage = self.campaigns[self.accounts[index]
                    .campaign()
                    .expect("spammer has campaign")
                    .0 as usize]
                    .camouflage_rate;
                if self.rng.random_bool(camouflage) {
                    let t = self.organic_tweet(index, false);
                    tweets.push(t);
                }
            } else {
                let posts = self.poisson(self.accounts[index].behavior.posts_per_hour);
                for _ in 0..posts {
                    let spamlike = self.rng.random_bool(self.config.organic_spamlike_rate);
                    let t = self.organic_tweet(index, spamlike);
                    tweets.push(t);
                }
                if posts > 0 {
                    posters.push(AccountId(index as u32));
                }
            }
        }

        // Deliver, then update rolling state.
        for (tweet, topic) in &tweets {
            self.deliver(tweet, *topic);
        }
        ph_telemetry::cached_counter!("simulate.tweets_posted").add(tweets.len() as u64);
        self.recent_posters = posters;
        self.finish_hour();
    }

    /// Applies a behavioural drift shift to every campaign and its live
    /// members (future replacements inherit via the campaign templates).
    fn apply_stealth_shift(&mut self, shift: &crate::drift::StealthShift) {
        for campaign in &mut self.campaigns {
            campaign.subtle_rate = shift.subtle_rate;
            campaign.reaction_mean_minutes = shift.reaction_mean_minutes;
            campaign.member_source_weights = shift.source_weights;
        }
        for account in &mut self.accounts {
            if account.is_spammer() {
                account.behavior.reaction_latency_minutes = shift.reaction_mean_minutes;
                account.behavior.source_weights = shift.source_weights;
            }
        }
    }

    /// Rebuilds the cumulative attraction table over organic accounts.
    fn rebuild_victim_table(&mut self) {
        let model = &self.config.attract;
        let known = self.profile_factors.len();
        self.profile_factors.extend(
            self.accounts[known..]
                .iter()
                .map(|a| model.profile_factor(&a.profile)),
        );
        self.victim_indices.clear();
        self.victim_cumulative.clear();
        let mut acc = 0.0;
        for (i, account) in self.accounts.iter().enumerate() {
            if account.is_spammer() || self.states[i].suspended {
                continue;
            }
            let exposure = self.exposure_of(i);
            let score = model.score_from(self.profile_factors[i], &exposure);
            acc += score;
            self.victim_indices.push(i);
            self.victim_cumulative.push(acc);
        }
    }

    /// Recent topical exposure of an account.
    fn exposure_of(&self, index: usize) -> TopicExposure {
        let mut exposure = TopicExposure::default();
        for &(topic, _) in &self.states[index].recent_topics {
            let topic = &self.topics.topics()[topic];
            exposure.uses_hashtags = true;
            exposure.categories[topic.category.index()] = true;
            match topic.trend {
                Trend::Up => exposure.trending_up = true,
                Trend::Down => exposure.trending_down = true,
                Trend::Popular => exposure.popular = true,
                Trend::Stable => {}
            }
        }
        exposure
    }

    /// One organic (or camouflage) tweet from `index`.
    fn organic_tweet(&mut self, index: usize, spamlike: bool) -> Posted {
        let created_at = self.random_minute();
        let behavior = &self.accounts[index].behavior;
        let (retweet, quote) = (behavior.retweet_probability, behavior.quote_probability);
        let source_weights = behavior.source_weights;
        let mention_probability = behavior.mention_probability;
        let latency_mean = behavior.reaction_latency_minutes;
        let kind = {
            let r = self.rng.random::<f64>();
            if r < retweet {
                TweetKind::Retweet
            } else if r < retweet + quote {
                TweetKind::Quote
            } else {
                TweetKind::Original
            }
        };
        let source = self.sample_source(&source_weights);

        // A hashtag from the account's interests.
        let interests = &self.accounts[index].behavior.interests;
        let topic = if !interests.is_empty() && self.rng.random_bool(0.7) {
            Some(self.topics.sample_topic(interests, &mut self.rng))
        } else {
            None
        };

        // Mentions: organic users mostly react to people they actually
        // follow who posted recently; occasionally to any recent poster
        // (discovery via hashtags/retweets).
        let mut mentions = Vec::new();
        let mut reacted_to_post_at = None;
        if self.rng.random_bool(mention_probability) {
            let target = if self.rng.random_bool(0.7) {
                let now_hours = self.time.whole_hours();
                let states = &self.states;
                let recent = |f: &&AccountId| {
                    states[f.index()]
                        .last_post_at
                        .is_some_and(|t| now_hours.saturating_sub(t.whole_hours()) <= 2)
                };
                let following = self.graph.following(AccountId(index as u32));
                // `choose` over the recently active followees — one
                // `random_range(0..n)` draw, none when there are none —
                // without collecting them.
                match following.iter().filter(recent).count() {
                    0 => None,
                    n => following
                        .iter()
                        .filter(recent)
                        .nth(self.rng.random_range(0..n))
                        .copied(),
                }
            } else {
                self.recent_posters.choose(&mut self.rng).copied()
            };
            if let Some(target) = target {
                if target.index() != index {
                    mentions.push(target);
                    // Organic reaction latency: the target posted earlier;
                    // reconstruct the observed gap from this user's latency.
                    let latency = self.exp_minutes(latency_mean);
                    reacted_to_post_at =
                        Some(created_at - SimTime::from_minutes(latency.max(1.0) as u64));
                }
            }
        }

        let word_count = self.rng.random_range(4..12);
        let mut text = benign_sentence(&mut self.rng, word_count);
        let mut urls = Vec::new();
        if self.rng.random_bool(0.15) {
            let url = benign_url(&mut self.rng);
            text.push(' ');
            text.push_str(&url);
            urls.push(url);
        }
        if spamlike {
            // Hard negative: money wording, but benign link and organic
            // account. Keeps the classification boundary non-trivial.
            let phrase = MONEY_PHRASES
                .choose(&mut self.rng)
                .expect("non-empty corpus");
            text = format!("lol this ad says: {phrase}");
        }
        let mut hashtags = Vec::new();
        if let Some(topic) = topic {
            let name = &self.topics.topics()[topic].name;
            text.push_str(" #");
            text.push_str(name);
            hashtags.push(name.clone());
        }

        let tweet = self.make_tweet(
            index,
            created_at,
            kind,
            source,
            text,
            hashtags,
            mentions,
            urls,
            reacted_to_post_at,
            false,
        );
        (tweet, topic)
    }

    /// Spam mentions from campaign account `index` during this hour.
    fn spam_activity(&mut self, index: usize, out: &mut Vec<Posted>) {
        let behavior = &self.accounts[index].behavior;
        let (flavor, latency_mean) = (behavior.spam_flavor, behavior.reaction_latency_minutes);
        let source_weights = behavior.source_weights;
        let attempts = self.poisson(behavior.spam_attempts_per_hour);
        if attempts == 0 || self.victim_indices.is_empty() {
            return;
        }
        let flavor = flavor.expect("spammer has flavor");
        let campaign = &self.campaigns[self.accounts[index]
            .campaign()
            .expect("spammer has campaign")
            .0 as usize];
        let (discipline, subtle_rate) = (campaign.discipline, campaign.subtle_rate);
        for _ in 0..attempts {
            let victim = self.sample_victim();
            let created_at = self.random_minute();
            // Spammers react to victims almost immediately.
            let gap = self.exp_minutes(latency_mean).max(1.0);
            let reacted = Some(created_at - SimTime::from_minutes(gap as u64));
            let text = if self.rng.random_bool(subtle_rate) {
                crate::text::subtle_spam_payload(&mut self.rng)
            } else if self.rng.random_bool(discipline) {
                spam_payload(&mut self.rng, flavor)
            } else {
                let extra = self.rng.random_range(2..5);
                crate::text::spam_payload_with_noise(&mut self.rng, flavor, extra)
            };
            let urls: Vec<String> = text
                .split_whitespace()
                .filter(|w| w.starts_with("http"))
                .map(str::to_string)
                .collect();
            // Spam sometimes rides a trending hashtag for reach.
            let topic = if self.rng.random_bool(0.4) {
                self.trending_up.choose(&mut self.rng).copied()
            } else {
                None
            };
            let hashtags = topic
                .map(|t| self.topics.topics()[t].name.clone())
                .into_iter()
                .collect();
            let source = self.sample_source(&source_weights);
            let tweet = self.make_tweet(
                index,
                created_at,
                TweetKind::Original,
                source,
                text,
                hashtags,
                vec![AccountId(victim as u32)],
                urls,
                reacted,
                true,
            );
            out.push((tweet, topic));
        }
        self.states[index].has_spammed = true;
    }

    /// Weighted victim draw from the hourly attraction table.
    fn sample_victim(&mut self) -> usize {
        let total = *self
            .victim_cumulative
            .last()
            .expect("victim table is non-empty");
        let draw = self.rng.random::<f64>() * total;
        let pos = self
            .victim_cumulative
            .partition_point(|&c| c < draw)
            .min(self.victim_indices.len() - 1);
        self.victim_indices[pos]
    }

    #[allow(clippy::too_many_arguments)]
    fn make_tweet(
        &mut self,
        author_index: usize,
        created_at: SimTime,
        kind: TweetKind,
        source: TweetSource,
        text: String,
        hashtags: Vec<String>,
        mentions: Vec<AccountId>,
        urls: Vec<String>,
        reacted_to_post_at: Option<SimTime>,
        spam: bool,
    ) -> Tweet {
        let id = TweetId(self.next_tweet_id);
        self.next_tweet_id += 1;
        Tweet {
            id,
            author: AccountId(author_index as u32),
            created_at,
            kind,
            source,
            text,
            hashtags,
            mentions,
            urls,
            reacted_to_post_at,
            ground_truth_spam: spam,
        }
    }

    /// Publishes a tweet and updates rolling per-account state + stats.
    /// `topic` is the pool index of the tweet's hashtag, if it has one.
    fn deliver(&mut self, tweet: &Tweet, topic: Option<usize>) {
        debug_assert_eq!(tweet.hashtags.len(), usize::from(topic.is_some()));
        self.bus.publish(tweet);
        self.stats.tweets += 1;
        if tweet.ground_truth_spam {
            self.stats.spam_tweets += 1;
        }
        if !tweet.mentions.is_empty() {
            self.stats.mention_tweets += 1;
        }
        let hour = self.time.whole_hours();
        let author = tweet.author.index();
        self.states[author].last_post_at = Some(tweet.created_at);
        if let Some(topic) = topic {
            self.states[author].recent_topics.push_back((topic, hour));
        }
        for mention in &tweet.mentions {
            self.states[mention.index()].mentions_this_hour += 1;
        }
    }

    /// Hour epilogue: suspension process, exposure-window expiry, EWMA
    /// update, clock advance.
    fn finish_hour(&mut self) {
        let hour = self.time.whole_hours();
        let window = self.config.exposure_window_hours;
        let mut replacements: Vec<CampaignId> = Vec::new();
        for index in 0..self.accounts.len() {
            // Suspension.
            if !self.states[index].suspended {
                let rate = if self.accounts[index].is_spammer() {
                    if self.states[index].has_spammed {
                        self.config.suspension_rate_per_hour
                    } else {
                        0.0
                    }
                } else {
                    self.config.organic_suspension_rate_per_hour
                };
                if rate > 0.0 && self.rng.random_bool(rate.min(1.0)) {
                    self.states[index].suspended = true;
                    self.stats.suspended_accounts += 1;
                    // The campaign buys a replacement account.
                    if let Some(campaign) = self.accounts[index].campaign() {
                        if self
                            .rng
                            .random_bool(self.config.campaign_replenishment_rate.clamp(0.0, 1.0))
                        {
                            replacements.push(campaign);
                        }
                    }
                }
            }
            // Exposure window expiry.
            let state = &mut self.states[index];
            while state
                .recent_topics
                .front()
                .is_some_and(|&(_, h)| hour.saturating_sub(h) >= window)
            {
                state.recent_topics.pop_front();
            }
            // Mention EWMA.
            state.mention_ewma =
                state.mention_ewma * 0.7 + f64::from(state.mentions_this_hour) * 0.3;
            state.mentions_this_hour = 0;
        }
        for campaign_id in replacements {
            let id = AccountId(self.accounts.len() as u32);
            let member = self.campaigns[campaign_id.0 as usize].generate_member(id, &mut self.rng);
            self.accounts.push(member);
            self.states.push(AccountState::default());
        }
        self.graph.extend_to(self.accounts.len());
        self.stats.hours += 1;
        self.time = self.time + SimTime::from_hours(1);
    }

    /// A random minute within the current hour.
    fn random_minute(&mut self) -> SimTime {
        self.time + SimTime::from_minutes(self.rng.random_range(0..MINUTES_PER_HOUR))
    }

    /// Knuth Poisson sampler (rates here are ≤ ~4, so this is fast).
    fn poisson(&mut self, lambda: f64) -> u32 {
        if lambda <= 0.0 {
            return 0;
        }
        let l = (-lambda).exp();
        let mut k = 0u32;
        let mut p = 1.0;
        loop {
            p *= self.rng.random::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
            if k > 10_000 {
                return k; // defensive cap; unreachable for sane rates
            }
        }
    }

    /// Exponentially distributed minutes with the given mean.
    fn exp_minutes(&mut self, mean: f64) -> f64 {
        let u: f64 = self.rng.random::<f64>().max(1e-12);
        -mean * u.ln()
    }

    fn sample_source(&mut self, weights: &[f64; 4]) -> TweetSource {
        let total: f64 = weights.iter().sum();
        let mut draw = self.rng.random::<f64>() * total;
        for (i, &w) in weights.iter().enumerate() {
            draw -= w;
            if draw <= 0.0 {
                return TweetSource::ALL[i];
            }
        }
        TweetSource::Other
    }
}

/// Read-only REST facade over the engine — profile lookups, suspension
/// checks, timeline-derived signals. Everything here is public information
/// in Twitter terms.
#[derive(Debug, Clone, Copy)]
pub struct RestApi<'a> {
    engine: &'a Engine,
}

impl<'a> RestApi<'a> {
    /// Total number of accounts in the network.
    pub fn num_accounts(&self) -> usize {
        self.engine.accounts.len()
    }

    /// Looks up a public profile.
    pub fn profile(&self, id: AccountId) -> Option<&'a crate::account::Profile> {
        self.engine.accounts.get(id.index()).map(|a| &a.profile)
    }

    /// Iterates all public profiles (the paper screens billions of accounts
    /// through sampled streams; the simulator exposes the full directory).
    pub fn profiles(&self) -> impl Iterator<Item = &'a crate::account::Profile> {
        self.engine.accounts.iter().map(|a| &a.profile)
    }

    /// Whether the account is currently suspended.
    pub fn is_suspended(&self, id: AccountId) -> bool {
        self.engine
            .states
            .get(id.index())
            .is_some_and(|s| s.suspended)
    }

    /// The hashtags the account used within the exposure window
    /// (observable from its public timeline), oldest first, as indices
    /// into the topic pool ([`Engine::topics`]). A topic's index never
    /// changes, so callers can key per-round tables by it.
    pub fn recent_topics(&self, id: AccountId) -> impl Iterator<Item = usize> + 'a {
        self.engine
            .states
            .get(id.index())
            .into_iter()
            .flat_map(|s| s.recent_topics.iter().map(|&(topic, _)| topic))
    }

    /// [`recent_topics`](Self::recent_topics) by hashtag text, borrowed
    /// from the engine.
    pub fn recent_hashtags(&self, id: AccountId) -> impl Iterator<Item = &'a str> {
        let topics = self.engine.topics.topics();
        self.recent_topics(id)
            .map(move |topic| topics[topic].name.as_str())
    }

    /// Post/mention recency summary for Active/Dormant screening.
    pub fn activity(&self, id: AccountId) -> ActivitySummary {
        let state = &self.engine.states[id.index()];
        ActivitySummary {
            last_post_at: state.last_post_at,
            recent_mentions_per_hour: state.mention_ewma,
        }
    }
}

/// The evaluation-only oracle over simulation ground truth.
///
/// The pseudo-honeypot *pipeline* never consults this (it would be
/// cheating); the labeling pipeline's simulated "manual checking" pass and
/// the experiment harnesses do.
#[derive(Debug, Clone, Copy)]
pub struct GroundTruth<'a> {
    engine: &'a Engine,
}

impl GroundTruth<'_> {
    /// True when the tweet is ground-truth spam.
    pub fn is_spam(&self, tweet: &Tweet) -> bool {
        tweet.ground_truth_spam
    }

    /// True when the account is campaign-operated.
    pub fn is_spammer(&self, id: AccountId) -> bool {
        self.engine
            .accounts
            .get(id.index())
            .is_some_and(Account::is_spammer)
    }

    /// The campaign operating the account, if any.
    pub fn campaign_of(&self, id: AccountId) -> Option<CampaignId> {
        self.engine
            .accounts
            .get(id.index())
            .and_then(Account::campaign)
    }

    /// Total ground-truth spammer accounts in the network.
    pub fn num_spammers(&self) -> usize {
        self.engine
            .accounts
            .iter()
            .filter(|a| a.is_spammer())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            num_organic: 300,
            num_campaigns: 3,
            accounts_per_campaign: 8,
            ..Default::default()
        }
    }

    #[test]
    fn engine_builds_expected_population() {
        let engine = Engine::new(small_config(1));
        assert_eq!(engine.rest().num_accounts(), 300 + 3 * 8);
        assert_eq!(engine.ground_truth().num_spammers(), 24);
    }

    #[test]
    fn stepping_advances_time_and_generates_tweets() {
        let mut engine = Engine::new(small_config(2));
        engine.run_hours(5);
        assert_eq!(engine.now().whole_hours(), 5);
        let stats = engine.stats();
        assert_eq!(stats.hours, 5);
        assert!(stats.tweets > 0, "no tweets generated");
        assert!(stats.spam_tweets > 0, "no spam generated");
        assert!(stats.spam_tweets < stats.tweets);
    }

    #[test]
    fn streaming_receives_mentions_of_tracked_account() {
        let mut engine = Engine::new(small_config(3));
        let streaming = engine.streaming();
        // Track everyone so the subscription certainly matches something.
        let all: Vec<AccountId> = (0..engine.rest().num_accounts() as u32)
            .map(AccountId)
            .collect();
        let sub = streaming.track_mentions(all);
        engine.run_hours(3);
        let tweets = streaming.poll(sub).unwrap();
        assert_eq!(tweets.len() as u64, engine.stats().tweets);
    }

    #[test]
    fn spam_tweets_mention_organic_victims() {
        let mut engine = Engine::new(small_config(4));
        let streaming = engine.streaming();
        let all: Vec<AccountId> = (0..engine.rest().num_accounts() as u32)
            .map(AccountId)
            .collect();
        let sub = streaming.track_mentions(all);
        engine.run_hours(4);
        let tweets = streaming.poll(sub).unwrap();
        let gt = engine.ground_truth();
        let spam: Vec<_> = tweets.iter().filter(|t| gt.is_spam(t)).collect();
        assert!(!spam.is_empty());
        for s in &spam {
            assert!(gt.is_spammer(s.author), "spam from non-spammer");
            assert!(!s.mentions.is_empty(), "spam without a victim mention");
            for m in &s.mentions {
                assert!(!gt.is_spammer(*m), "spammer targeted a spammer");
            }
        }
    }

    #[test]
    fn spammers_get_suspended_over_time() {
        let mut engine = Engine::new(SimConfig {
            suspension_rate_per_hour: 0.05,
            ..small_config(5)
        });
        engine.run_hours(60);
        let rest = engine.rest();
        let gt = engine.ground_truth();
        let suspended_spammers = (0..rest.num_accounts() as u32)
            .map(AccountId)
            .filter(|&id| gt.is_spammer(id) && rest.is_suspended(id))
            .count();
        assert!(
            suspended_spammers > 3,
            "only {suspended_spammers} spammers suspended after 60h"
        );
        // Suspension is partial: some spammers survive.
        assert!(suspended_spammers < gt.num_spammers());
    }

    #[test]
    fn deterministic_for_seed() {
        let mut a = Engine::new(small_config(9));
        let mut b = Engine::new(small_config(9));
        a.run_hours(3);
        b.run_hours(3);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn activity_summary_tracks_posts() {
        let mut engine = Engine::new(small_config(6));
        engine.run_hours(6);
        let rest = engine.rest();
        let with_posts = (0..rest.num_accounts() as u32)
            .map(AccountId)
            .filter(|&id| rest.activity(id).last_post_at.is_some())
            .count();
        assert!(with_posts > 50, "only {with_posts} accounts ever posted");
    }

    #[test]
    fn spam_mention_gaps_are_shorter_than_organic() {
        let mut engine = Engine::new(small_config(7));
        let streaming = engine.streaming();
        let all: Vec<AccountId> = (0..engine.rest().num_accounts() as u32)
            .map(AccountId)
            .collect();
        let sub = streaming.track_mentions(all);
        engine.run_hours(8);
        let tweets = streaming.poll(sub).unwrap();
        let gt = engine.ground_truth();
        let mean_gap = |spam: bool| {
            let gaps: Vec<f64> = tweets
                .iter()
                .filter(|t| gt.is_spam(t) == spam && t.reacted_to_post_at.is_some())
                .map(|t| t.created_at.minutes_since(t.reacted_to_post_at.unwrap()) as f64)
                .collect();
            assert!(!gaps.is_empty());
            gaps.iter().sum::<f64>() / gaps.len() as f64
        };
        assert!(
            mean_gap(true) < mean_gap(false),
            "spam mention time should be shorter"
        );
    }

    #[test]
    fn churn_replaces_suspended_campaign_members() {
        let mut engine = Engine::new(SimConfig {
            suspension_rate_per_hour: 0.2,
            campaign_replenishment_rate: 1.0,
            ..small_config(33)
        });
        let before = engine.rest().num_accounts();
        engine.run_hours(25);
        let after = engine.rest().num_accounts();
        assert!(after > before, "no replacement accounts were registered");
        // Replacements are campaign members with fresh ids.
        let gt = engine.ground_truth();
        let fresh_spammers = (before as u32..after as u32)
            .map(AccountId)
            .filter(|&id| gt.is_spammer(id))
            .count();
        assert_eq!(
            fresh_spammers,
            after - before,
            "every churned-in account must belong to a campaign"
        );
    }

    #[test]
    fn churn_can_be_disabled() {
        let mut engine = Engine::new(SimConfig {
            suspension_rate_per_hour: 0.2,
            campaign_replenishment_rate: 0.0,
            ..small_config(34)
        });
        let before = engine.rest().num_accounts();
        engine.run_hours(25);
        assert_eq!(engine.rest().num_accounts(), before);
    }

    /// The profile directory is append-only: a copy taken at any hour,
    /// extended with the accounts later hours create, equals the live
    /// directory — what lets a consumer classify from a copy while the
    /// engine steps ahead on another thread.
    #[test]
    fn profile_directory_only_grows_under_churn() {
        let mut engine = Engine::new(SimConfig {
            suspension_rate_per_hour: 0.5,
            organic_suspension_rate_per_hour: 0.05,
            campaign_replenishment_rate: 1.0,
            ..small_config(35)
        });
        let directory = |engine: &Engine| -> Vec<String> {
            engine.rest().profiles().map(|p| format!("{p:?}")).collect()
        };
        let mut snapshots = vec![directory(&engine)];
        for _ in 0..12 {
            engine.step_hour();
            snapshots.push(directory(&engine));
        }
        assert!(
            snapshots.last().unwrap().len() > snapshots[0].len(),
            "churn registered no replacement accounts"
        );
        for (h, earlier) in snapshots.iter().enumerate() {
            for later in &snapshots[h..] {
                assert_eq!(
                    &later[..earlier.len()],
                    &earlier[..],
                    "a profile present at hour {h} changed later"
                );
            }
        }
    }

    #[test]
    fn stealth_shift_applies_to_live_members() {
        use crate::drift::{DriftSchedule, StealthShift};
        let mut engine = Engine::new(SimConfig {
            drift: Some(DriftSchedule::new(vec![(
                2,
                crate::drift::DriftEvent {
                    attract: None,
                    stealth: Some(StealthShift::undercover()),
                },
            )])),
            ..small_config(35)
        });
        engine.run_hours(3);
        let shifted = engine
            .accounts
            .iter()
            .filter(|a| a.is_spammer())
            .all(|a| (a.behavior.reaction_latency_minutes - 45.0).abs() < 1e-9);
        assert!(shifted, "stealth shift did not reach live members");
    }

    #[test]
    fn drift_changes_victim_preferences() {
        use crate::drift::{inverted_tastes, DriftSchedule};
        // Mean lists-per-day of spam victims under normal vs inverted
        // tastes: inverted tastes must target noticeably less list-active
        // victims.
        let victim_lpd = |drift: Option<DriftSchedule>| -> f64 {
            let mut engine = Engine::new(SimConfig {
                drift,
                ..small_config(42)
            });
            let streaming = engine.streaming();
            let all: Vec<AccountId> = (0..engine.rest().num_accounts() as u32)
                .map(AccountId)
                .collect();
            let sub = streaming.track_mentions(all);
            engine.run_hours(10);
            let tweets = streaming.poll(sub).unwrap();
            let gt = engine.ground_truth();
            let rest = engine.rest();
            let lpds: Vec<f64> = tweets
                .iter()
                .filter(|t| gt.is_spam(t))
                .filter_map(|t| t.mentions.first())
                .filter_map(|&v| rest.profile(v))
                .map(|p| p.lists_per_day())
                .collect();
            assert!(!lpds.is_empty(), "no spam victims observed");
            lpds.iter().sum::<f64>() / lpds.len() as f64
        };
        let normal = victim_lpd(None);
        let drifted = victim_lpd(Some(DriftSchedule::flip_at(0, inverted_tastes())));
        assert!(
            drifted < normal,
            "inverted tastes should target less list-active victims \
             (normal {normal:.3}, drifted {drifted:.3})"
        );
    }

    #[test]
    fn exposure_window_expires() {
        let mut engine = Engine::new(SimConfig {
            exposure_window_hours: 2,
            ..small_config(8)
        });
        engine.run_hours(1);
        // Find an account with recent hashtags, then run past the window
        // with that account suspended-equivalent (we just check expiry for
        // accounts that stop posting — organic ones keep posting, so check
        // bounds instead: no hashtag entry may be older than the window).
        engine.run_hours(4);
        let rest = engine.rest();
        for i in 0..rest.num_accounts() as u32 {
            let tags = rest.recent_hashtags(AccountId(i)).count();
            assert!(tags < 1000, "unbounded hashtag window");
        }
    }
}
