//! Attribute-based pseudo-honeypot node selection (§III-B to §III-D).
//!
//! Selection screens the account directory through the public REST facade
//! only: profile attributes for C1 slots, recent public hashtag usage
//! against the analytics provider's top-k lists for C2/C3 slots, and the
//! paper's Active/Dormant screening (§III-D) to keep the network portable
//! over accounts that still attract attention.

use std::collections::HashMap;

use ph_twitter_sim::engine::Engine;
use ph_twitter_sim::topics::{TopicEngine, Trend};
use ph_twitter_sim::{AccountId, TopicCategory};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::attributes::{
    matches_sample, AttributeKind, ProfileAttribute, SampleAttribute, TrendAttribute,
};
use crate::network::{NodeAssignment, PseudoHoneypotNetwork};

/// Selection parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectorConfig {
    /// Accounts selected per slot (paper: 10 per profile sample value, 100
    /// per topical attribute — expressed here as per-slot quotas).
    pub accounts_per_slot: usize,
    /// Enable the Active/Dormant screening of §III-D.
    pub active_only: bool,
    /// An account is Dormant when it has not posted within this window.
    pub dormant_after_hours: u64,
    /// Size of the top-k hashtag/topic lists consulted for C2/C3 matching
    /// (the paper uses the provider's top 10).
    pub top_k: usize,
    /// Prefer candidates drawing the most recent mention attention — the
    /// paper's portability strategy of "smartly drop\[ping\] the ineffective
    /// ones, always keeping those that attract spammers' interests the
    /// most" (§III-A/D). When false, candidates are picked uniformly.
    pub rank_by_attention: bool,
}

impl Default for SelectorConfig {
    fn default() -> Self {
        Self {
            accounts_per_slot: 10,
            active_only: true,
            dormant_after_hours: 24,
            top_k: 10,
            rank_by_attention: true,
        }
    }
}

/// Which top-k lists a hashtag (or an account's recent hashtags) falls in:
/// bit `i` for the `TopicCategory::ALL[i]` list, then the three trend lists.
type TagMask = u16;
const TRENDING_UP: TagMask = 1 << TopicCategory::ALL.len();
const TRENDING_DOWN: TagMask = TRENDING_UP << 1;
const POPULAR: TagMask = TRENDING_UP << 2;
const ANY_TRENDING: TagMask = TRENDING_UP | TRENDING_DOWN | POPULAR;

/// The round's top-k lists folded into one lookup: hashtag → [`TagMask`].
fn tag_masks(topics: &TopicEngine, top_k: usize) -> HashMap<&str, TagMask> {
    let mut masks: HashMap<&str, TagMask> = HashMap::new();
    for (i, &category) in TopicCategory::ALL.iter().enumerate() {
        for tag in topics.top_hashtags(category, top_k) {
            *masks.entry(tag).or_default() |= 1 << i;
        }
    }
    for (trend, bit) in [
        (Trend::Up, TRENDING_UP),
        (Trend::Down, TRENDING_DOWN),
        (Trend::Popular, POPULAR),
    ] {
        for tag in topics.trending(trend, top_k) {
            *masks.entry(tag).or_default() |= bit;
        }
    }
    masks
}

/// One eligible account as the screen sees it, computed once per round.
struct Screened {
    /// Every C1 attribute, in `ProfileAttribute::ALL` order.
    profile: [f64; ProfileAttribute::ALL.len()],
    /// OR of the masks of its recent hashtags.
    tags: TagMask,
    posted: bool,
    no_hashtags: bool,
}

/// A slot's membership test over [`Screened`] facts.
enum SlotTest {
    /// Attribute `ProfileAttribute::ALL[attr]` matches `target`.
    Profile { attr: usize, target: f64 },
    /// Some recent hashtag is in one of these lists.
    Tags(TagMask),
    /// Posted, but with no hashtags.
    NoHashtag,
    /// Posted, but in no trend list.
    NonTrending,
}

impl SlotTest {
    fn of(slot: &SampleAttribute) -> Self {
        match slot.kind {
            AttributeKind::Profile(attr) => SlotTest::Profile {
                attr: ProfileAttribute::ALL
                    .iter()
                    .position(|&a| a == attr)
                    .expect("attribute is in ALL"),
                target: slot.sample_value.expect("profile slot has sample value"),
            },
            AttributeKind::Hashtag(Some(category)) => SlotTest::Tags(
                1 << TopicCategory::ALL
                    .iter()
                    .position(|&c| c == category)
                    .expect("category is in ALL"),
            ),
            AttributeKind::Hashtag(None) => SlotTest::NoHashtag,
            AttributeKind::Trending(TrendAttribute::TrendingUp) => SlotTest::Tags(TRENDING_UP),
            AttributeKind::Trending(TrendAttribute::TrendingDown) => SlotTest::Tags(TRENDING_DOWN),
            AttributeKind::Trending(TrendAttribute::Popular) => SlotTest::Tags(POPULAR),
            AttributeKind::Trending(TrendAttribute::NonTrending) => SlotTest::NonTrending,
        }
    }

    fn matches(&self, s: &Screened) -> bool {
        match *self {
            SlotTest::Profile { attr, target } => matches_sample(s.profile[attr], target),
            SlotTest::Tags(mask) => s.tags & mask != 0,
            SlotTest::NoHashtag => s.posted && s.no_hashtags,
            SlotTest::NonTrending => s.posted && s.tags & ANY_TRENDING == 0,
        }
    }
}

/// Selects a pseudo-honeypot network over the given slots.
///
/// Each account is assigned to at most one slot ("each account satisfying
/// at least one attribute", 2,400 *distinct* nodes). Candidates per slot
/// are shuffled with `seed` before picking, so repeated hourly selections
/// rotate through the eligible population (the paper's portability
/// property).
///
/// One round touches each account once ("the account screening is
/// extremely fast", §III-B): a single directory pass screens every
/// eligible account and appends it, in directory order, to the candidate
/// list of each slot it matches. Slots then claim their quota in order
/// from their own lists, skipping accounts an earlier slot took.
pub fn select_network(
    engine: &Engine,
    slots: &[SampleAttribute],
    config: &SelectorConfig,
    seed: u64,
) -> PseudoHoneypotNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let rest = engine.rest();
    let now_hours = engine.now().whole_hours();
    let masks = tag_masks(engine.topics(), config.top_k);
    let tests: Vec<SlotTest> = slots.iter().map(SlotTest::of).collect();

    let mut lists: Vec<Vec<AccountId>> = vec![Vec::new(); slots.len()];
    for profile in rest.profiles() {
        let id = profile.id;
        let activity = rest.activity(id);
        let active = !config.active_only
            || match activity.last_post_at {
                Some(t) => now_hours.saturating_sub(t.whole_hours()) <= config.dormant_after_hours,
                // Early in a simulation nobody has posted yet; treat
                // unknown history as eligible rather than starving
                // selection.
                None => now_hours < config.dormant_after_hours,
            };
        if !active || rest.is_suspended(id) {
            continue;
        }
        let mut tags = 0;
        let mut no_hashtags = true;
        for tag in rest.recent_hashtags(id) {
            no_hashtags = false;
            tags |= masks.get(tag).copied().unwrap_or(0);
        }
        let screened = Screened {
            profile: ProfileAttribute::ALL.map(|attr| attr.value_of(profile)),
            tags,
            posted: activity.last_post_at.is_some(),
            no_hashtags,
        };
        for (list, test) in lists.iter_mut().zip(&tests) {
            if test.matches(&screened) {
                list.push(id);
            }
        }
    }

    // Each slot's candidates are its list minus earlier slots' picks —
    // the same accounts in the same order as a per-slot directory scan,
    // so the shuffle below draws the same RNG stream.
    let mut taken = vec![false; rest.num_accounts()];
    let mut nodes = Vec::new();
    let mut shortfalls = Vec::new();
    for (slot, mut candidates) in slots.iter().zip(lists) {
        candidates.retain(|id| !taken[id.index()]);
        candidates.shuffle(&mut rng);
        if config.rank_by_attention {
            // Stable sort after the shuffle: attention decides, ties rotate.
            candidates.sort_by(|&a, &b| {
                let ma = rest.activity(a).recent_mentions_per_hour;
                let mb = rest.activity(b).recent_mentions_per_hour;
                mb.total_cmp(&ma)
            });
        }
        let quota = config.accounts_per_slot;
        if candidates.len() < quota {
            shortfalls.push((*slot, quota - candidates.len()));
        }
        for id in candidates.into_iter().take(quota) {
            taken[id.index()] = true;
            nodes.push(NodeAssignment {
                account: id,
                slot: *slot,
            });
        }
    }
    PseudoHoneypotNetwork::new(nodes, shortfalls)
}

/// Selects `count` random, non-suspended accounts — the paper's *non
/// pseudo-honeypot* comparison group (§V-E). Assignments carry a synthetic
/// "no hashtag" slot purely so they fit the same network type.
pub fn select_random_network(engine: &Engine, count: usize, seed: u64) -> PseudoHoneypotNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let rest = engine.rest();
    let mut ids: Vec<AccountId> = rest
        .profiles()
        .map(|p| p.id)
        .filter(|&id| !rest.is_suspended(id))
        .collect();
    ids.shuffle(&mut rng);
    let slot = SampleAttribute::hashtag(None);
    let nodes = ids
        .into_iter()
        .take(count)
        .map(|account| NodeAssignment { account, slot })
        .collect();
    PseudoHoneypotNetwork::new(nodes, Vec::new())
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use ph_twitter_sim::engine::SimConfig;

    /// The selection round as it was before one-pass screening, kept as
    /// the oracle: `HashSet<String>` top-k tables, a `HashSet` of taken
    /// accounts, and one full directory scan per slot.
    fn select_network_reference(
        engine: &Engine,
        slots: &[SampleAttribute],
        config: &SelectorConfig,
        seed: u64,
    ) -> PseudoHoneypotNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let rest = engine.rest();
        let topics = engine.topics();
        let now_hours = engine.now().whole_hours();

        let top_by_category: Vec<(TopicCategory, HashSet<String>)> = TopicCategory::ALL
            .iter()
            .map(|&c| {
                (
                    c,
                    topics
                        .top_hashtags(c, config.top_k)
                        .into_iter()
                        .map(str::to_string)
                        .collect(),
                )
            })
            .collect();
        let top_trending = |t: Trend| -> HashSet<String> {
            topics
                .trending(t, config.top_k)
                .into_iter()
                .map(str::to_string)
                .collect()
        };
        let up = top_trending(Trend::Up);
        let down = top_trending(Trend::Down);
        let popular = top_trending(Trend::Popular);
        let any_trending: HashSet<String> =
            up.union(&down).cloned().chain(popular.clone()).collect();

        struct Facts {
            eligible: bool,
            posted: bool,
            no_hashtags: bool,
            category: [bool; 8],
            trending_up: bool,
            trending_down: bool,
            popular: bool,
            any_trending: bool,
        }
        let facts: Vec<Facts> = rest
            .profiles()
            .map(|profile| {
                let id = profile.id;
                let activity = rest.activity(id);
                let active = if !config.active_only {
                    true
                } else {
                    match activity.last_post_at {
                        Some(t) => {
                            now_hours.saturating_sub(t.whole_hours()) <= config.dormant_after_hours
                        }
                        None => now_hours < config.dormant_after_hours,
                    }
                };
                let tags: Vec<String> = rest.recent_hashtags(id).map(str::to_string).collect();
                let mut category = [false; 8];
                for (slot, (_, top)) in category.iter_mut().zip(&top_by_category) {
                    *slot = tags.iter().any(|h| top.contains(h));
                }
                Facts {
                    eligible: active && !rest.is_suspended(id),
                    posted: activity.last_post_at.is_some(),
                    no_hashtags: tags.is_empty(),
                    category,
                    trending_up: tags.iter().any(|h| up.contains(h)),
                    trending_down: tags.iter().any(|h| down.contains(h)),
                    popular: tags.iter().any(|h| popular.contains(h)),
                    any_trending: tags.iter().any(|h| any_trending.contains(h)),
                }
            })
            .collect();

        let mut taken: HashSet<AccountId> = HashSet::new();
        let mut nodes = Vec::new();
        let mut shortfalls = Vec::new();

        for slot in slots {
            let mut candidates: Vec<AccountId> = Vec::new();
            for (profile, f) in rest.profiles().zip(&facts) {
                let id = profile.id;
                if !f.eligible || taken.contains(&id) {
                    continue;
                }
                let matches = match slot.kind {
                    AttributeKind::Profile(attr) => {
                        let target = slot.sample_value.expect("profile slot has sample value");
                        matches_sample(attr.value_of(profile), target)
                    }
                    AttributeKind::Hashtag(Some(category)) => {
                        let index = TopicCategory::ALL
                            .iter()
                            .position(|&c| c == category)
                            .expect("category is in ALL");
                        f.category[index]
                    }
                    AttributeKind::Hashtag(None) => f.posted && f.no_hashtags,
                    AttributeKind::Trending(t) => match t {
                        TrendAttribute::TrendingUp => f.trending_up,
                        TrendAttribute::TrendingDown => f.trending_down,
                        TrendAttribute::Popular => f.popular,
                        TrendAttribute::NonTrending => f.posted && !f.any_trending,
                    },
                };
                if matches {
                    candidates.push(id);
                }
            }
            candidates.shuffle(&mut rng);
            if config.rank_by_attention {
                candidates.sort_by(|&a, &b| {
                    let ma = rest.activity(a).recent_mentions_per_hour;
                    let mb = rest.activity(b).recent_mentions_per_hour;
                    mb.total_cmp(&ma)
                });
            }
            let quota = config.accounts_per_slot;
            if candidates.len() < quota {
                shortfalls.push((*slot, quota - candidates.len()));
            }
            for id in candidates.into_iter().take(quota) {
                taken.insert(id);
                nodes.push(NodeAssignment {
                    account: id,
                    slot: *slot,
                });
            }
        }
        PseudoHoneypotNetwork::new(nodes, shortfalls)
    }

    fn engine(hours: u64) -> Engine {
        let mut e = Engine::new(SimConfig {
            seed: 11,
            num_organic: 1_500,
            num_campaigns: 2,
            accounts_per_campaign: 5,
            ..Default::default()
        });
        e.run_hours(hours);
        e
    }

    #[test]
    fn one_pass_selection_matches_reference() {
        // Duplicate slots (the second copy only sees what the first left),
        // a profile target nobody has, and every topical kind.
        let mixed = vec![
            SampleAttribute::profile(ProfileAttribute::FriendsCount, 100.0),
            SampleAttribute::profile(ProfileAttribute::FriendsCount, 100.0),
            SampleAttribute::profile(ProfileAttribute::FollowersCount, 1e15),
            SampleAttribute::hashtag(Some(TopicCategory::ALL[0])),
            SampleAttribute::hashtag(Some(TopicCategory::ALL[0])),
            SampleAttribute::hashtag(None),
            SampleAttribute::trending(TrendAttribute::NonTrending),
            SampleAttribute::trending(TrendAttribute::NonTrending),
            SampleAttribute::trending(TrendAttribute::Popular),
            SampleAttribute::trending(TrendAttribute::TrendingUp),
            SampleAttribute::trending(TrendAttribute::TrendingDown),
        ];
        let slot_lists = [SampleAttribute::standard_slots(), mixed, Vec::new()];
        for world in [11, 29] {
            let mut e = Engine::new(SimConfig {
                seed: world,
                num_organic: 400,
                num_campaigns: 2,
                accounts_per_campaign: 5,
                ..Default::default()
            });
            let mut at = 0;
            // No posting history yet, warming up, and past the 24 h
            // dormancy window.
            for hour in [0, 8, 30] {
                e.run_hours(hour - at);
                at = hour;
                let flags = [true, false];
                let configs = flags.iter().flat_map(|&active_only| {
                    flags.iter().flat_map(move |&rank_by_attention| {
                        [3, 10].into_iter().flat_map(move |top_k| {
                            [2, 24].into_iter().map(move |dormant_after_hours| {
                                (active_only, rank_by_attention, top_k, dormant_after_hours)
                            })
                        })
                    })
                });
                for (active_only, rank_by_attention, top_k, dormant_after_hours) in configs {
                    for (seed, accounts_per_slot) in [(1, 10), (77, 3)] {
                        let config = SelectorConfig {
                            accounts_per_slot,
                            active_only,
                            dormant_after_hours,
                            top_k,
                            rank_by_attention,
                        };
                        for slots in &slot_lists {
                            assert_eq!(
                                select_network(&e, slots, &config, seed),
                                select_network_reference(&e, slots, &config, seed),
                                "world {world}, hour {hour}, seed {seed}, {} slots, {config:?}",
                                slots.len()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn profile_slots_select_matching_accounts() {
        let e = engine(0);
        let slots = vec![
            SampleAttribute::profile(ProfileAttribute::FriendsCount, 100.0),
            SampleAttribute::profile(ProfileAttribute::FollowersCount, 1_000.0),
        ];
        let net = select_network(&e, &slots, &SelectorConfig::default(), 1);
        assert!(!net.is_empty());
        let rest = e.rest();
        for node in net.nodes() {
            let p = rest.profile(node.account).unwrap();
            match node.slot.kind {
                AttributeKind::Profile(attr) => {
                    assert!(matches_sample(
                        attr.value_of(p),
                        node.slot.sample_value.unwrap()
                    ));
                }
                _ => panic!("unexpected slot kind"),
            }
        }
    }

    #[test]
    fn accounts_are_not_double_assigned() {
        let e = engine(0);
        let net = select_network(
            &e,
            &SampleAttribute::standard_slots(),
            &SelectorConfig::default(),
            2,
        );
        let ids = net.account_ids();
        let distinct: HashSet<_> = ids.iter().collect();
        assert_eq!(ids.len(), distinct.len(), "duplicate node assignment");
    }

    #[test]
    fn standard_network_fills_most_profile_slots() {
        let e = engine(0);
        let net = select_network(
            &e,
            &SampleAttribute::standard_slots(),
            &SelectorConfig::default(),
            3,
        );
        // 123 slots × 10 = 1,230 max. Topical slots need posting history
        // (hour 0 has none for hashtag matching), so expect at least the
        // profile side to fill substantially.
        assert!(
            net.len() >= 800,
            "only {} nodes selected (shortfalls: {:?})",
            net.len(),
            net.shortfalls().len()
        );
    }

    #[test]
    fn hashtag_slots_fill_after_warmup() {
        let e = engine(8);
        let slots: Vec<SampleAttribute> = TopicCategory::ALL
            .iter()
            .map(|&c| SampleAttribute::hashtag(Some(c)))
            .collect();
        let net = select_network(&e, &slots, &SelectorConfig::default(), 4);
        assert!(
            net.len() >= slots.len(),
            "topical selection too sparse: {} nodes",
            net.len()
        );
    }

    #[test]
    fn trending_slots_fill_after_warmup() {
        let e = engine(12);
        let slots: Vec<SampleAttribute> = TrendAttribute::ALL
            .iter()
            .map(|&t| SampleAttribute::trending(t))
            .collect();
        let net = select_network(&e, &slots, &SelectorConfig::default(), 5);
        let sizes = net.slot_sizes();
        // Non-trending accounts always exist; the others depend on current
        // topic dynamics but should mostly be found after 12 hours.
        assert!(
            sizes
                .get(&SampleAttribute::trending(TrendAttribute::NonTrending))
                .copied()
                .unwrap_or(0)
                > 0
        );
        assert!(net.len() > 10);
    }

    #[test]
    fn selection_is_seed_deterministic_and_rotates() {
        let e = engine(2);
        let slots = vec![SampleAttribute::profile(
            ProfileAttribute::FriendsCount,
            100.0,
        )];
        // Uniform picking isolates the seed-driven rotation property
        // (attention ranking would pin the order to observed mentions).
        let config = SelectorConfig {
            rank_by_attention: false,
            ..Default::default()
        };
        let a = select_network(&e, &slots, &config, 7);
        let b = select_network(&e, &slots, &config, 7);
        let c = select_network(&e, &slots, &config, 8);
        assert_eq!(a, b);
        assert_ne!(
            a.account_ids(),
            c.account_ids(),
            "different seeds should rotate node sets"
        );
    }

    #[test]
    fn attention_ranking_prefers_mentioned_accounts() {
        let e = engine(10);
        let slots = vec![SampleAttribute::profile(
            ProfileAttribute::FriendsCount,
            100.0,
        )];
        let ranked = select_network(&e, &slots, &SelectorConfig::default(), 7);
        let uniform = select_network(
            &e,
            &slots,
            &SelectorConfig {
                rank_by_attention: false,
                ..Default::default()
            },
            7,
        );
        let rest = e.rest();
        let mean_attention = |net: &crate::network::PseudoHoneypotNetwork| {
            let ids = net.account_ids();
            ids.iter()
                .map(|&id| rest.activity(id).recent_mentions_per_hour)
                .sum::<f64>()
                / ids.len().max(1) as f64
        };
        assert!(
            mean_attention(&ranked) >= mean_attention(&uniform),
            "ranked selection should not have less attention than uniform"
        );
    }

    #[test]
    fn dormant_accounts_are_screened_out() {
        let mut e = Engine::new(SimConfig {
            seed: 12,
            num_organic: 400,
            num_campaigns: 1,
            accounts_per_campaign: 3,
            ..Default::default()
        });
        e.run_hours(30);
        let slots = vec![SampleAttribute::profile(
            ProfileAttribute::FriendsCount,
            100.0,
        )];
        let strict = SelectorConfig {
            dormant_after_hours: 2,
            ..Default::default()
        };
        let lax = SelectorConfig {
            active_only: false,
            ..Default::default()
        };
        let strict_net = select_network(&e, &slots, &strict, 1);
        let lax_net = select_network(&e, &slots, &lax, 1);
        // Strict screening can only shrink the candidate pool.
        assert!(strict_net.len() <= lax_net.len());
        let rest = e.rest();
        for node in strict_net.nodes() {
            let last = rest.activity(node.account).last_post_at.unwrap();
            assert!(e.now().whole_hours() - last.whole_hours() <= 2);
        }
    }

    #[test]
    fn random_network_has_requested_size() {
        let e = engine(1);
        let net = select_random_network(&e, 100, 9);
        assert_eq!(net.len(), 100);
        let distinct: HashSet<_> = net.account_ids().into_iter().collect();
        assert_eq!(distinct.len(), 100);
    }
}
