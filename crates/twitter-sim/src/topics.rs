//! Hashtag categories and the trending-topic engine.
//!
//! The paper's C2 attributes cover eight topical hashtag categories
//! (*entertainment, general, business, tech, education, environment, social,
//! astrology*) plus "no hashtag"; its C3 attributes classify topics as
//! trending up, trending down, popular, or non-trending. The paper sources
//! its top-10 hashtag/topic lists from a hashtag-analytics provider — here
//! the [`TopicEngine`] plays that role, evolving per-topic "heat" hour by
//! hour and exposing the equivalent top-k queries.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The eight topical hashtag categories of Table I (C2). "No hashtag" is
/// represented by the *absence* of a category, not a variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TopicCategory {
    /// Movies, music, celebrities.
    Entertainment,
    /// Catch-all everyday chatter.
    General,
    /// Companies, markets, commerce.
    Business,
    /// Technology and gadgets.
    Tech,
    /// Schools, learning.
    Education,
    /// Climate, nature.
    Environment,
    /// Social causes and community.
    Social,
    /// Horoscopes and the like.
    Astrology,
}

impl TopicCategory {
    /// All categories in Table I order.
    pub const ALL: [TopicCategory; 8] = [
        TopicCategory::Entertainment,
        TopicCategory::General,
        TopicCategory::Business,
        TopicCategory::Tech,
        TopicCategory::Education,
        TopicCategory::Environment,
        TopicCategory::Social,
        TopicCategory::Astrology,
    ];

    /// Position in [`TopicCategory::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Lowercase label used in hashtag names and reports.
    pub fn label(self) -> &'static str {
        match self {
            TopicCategory::Entertainment => "entertainment",
            TopicCategory::General => "general",
            TopicCategory::Business => "business",
            TopicCategory::Tech => "tech",
            TopicCategory::Education => "education",
            TopicCategory::Environment => "environment",
            TopicCategory::Social => "social",
            TopicCategory::Astrology => "astrology",
        }
    }
}

impl std::fmt::Display for TopicCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Trending state of a topic — the C3 attribute values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Trend {
    /// Heat rising quickly ("trending-up topics").
    Up,
    /// Heat falling quickly ("trending-down topics").
    Down,
    /// Sustained top-decile heat ("popular tweets").
    Popular,
    /// Everything else ("no-trending topics").
    Stable,
}

/// One hashtag topic tracked by the engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topic {
    /// Hashtag text without the `#`, e.g. `tech_gadget3`.
    pub name: String,
    /// Topical category.
    pub category: TopicCategory,
    /// Current attention level (arbitrary units, ≥ 0).
    pub heat: f64,
    /// Heat change during the last evolution step.
    pub momentum: f64,
    /// Current trend classification.
    pub trend: Trend,
}

/// The simulated hashtag-analytics provider: a pool of topics per category
/// whose heat evolves hourly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopicEngine {
    topics: Vec<Topic>,
}

/// Fraction of topics (by heat rank) classified [`Trend::Popular`].
const POPULAR_DECILE: f64 = 0.1;
/// Momentum threshold (relative to heat) separating Up/Down from Stable.
const TREND_THRESHOLD: f64 = 0.12;

impl TopicEngine {
    /// Creates `per_category` topics in every category with randomized
    /// initial heat.
    ///
    /// # Panics
    ///
    /// Panics if `per_category == 0`.
    pub fn new(per_category: usize, rng: &mut StdRng) -> Self {
        assert!(per_category > 0, "need at least one topic per category");
        let mut topics = Vec::with_capacity(per_category * TopicCategory::ALL.len());
        for &category in &TopicCategory::ALL {
            for i in 0..per_category {
                topics.push(Topic {
                    name: format!("{}_{}", category.label(), i),
                    category,
                    heat: rng.random_range(1.0..100.0),
                    momentum: 0.0,
                    trend: Trend::Stable,
                });
            }
        }
        let mut engine = Self { topics };
        engine.reclassify();
        engine
    }

    /// Advances the topic dynamics by one hour: heat follows a mean-reverting
    /// random walk with occasional viral bursts, then trends are
    /// reclassified.
    pub fn evolve(&mut self, rng: &mut StdRng) {
        for topic in &mut self.topics {
            let before = topic.heat;
            // Mean reversion toward 50 plus noise.
            let reversion = (50.0 - topic.heat) * 0.05;
            let noise = (rng.random::<f64>() - 0.5) * 12.0;
            // Occasional viral burst or collapse.
            let shock = if rng.random_bool(0.04) {
                rng.random_range(20.0..60.0)
            } else if rng.random_bool(0.04) {
                -rng.random_range(15.0..40.0)
            } else {
                0.0
            };
            topic.heat = (topic.heat + reversion + noise + shock).max(0.5);
            topic.momentum = topic.heat - before;
        }
        self.reclassify();
    }

    fn reclassify(&mut self) {
        // Popular = top decile by heat.
        let mut heats: Vec<f64> = self.topics.iter().map(|t| t.heat).collect();
        heats.sort_by(f64::total_cmp);
        let cut_index = ((heats.len() as f64) * (1.0 - POPULAR_DECILE)) as usize;
        let popular_cut = heats[cut_index.min(heats.len() - 1)];
        for topic in &mut self.topics {
            let relative = topic.momentum / topic.heat.max(1.0);
            topic.trend = if topic.heat >= popular_cut {
                Trend::Popular
            } else if relative > TREND_THRESHOLD {
                Trend::Up
            } else if relative < -TREND_THRESHOLD {
                Trend::Down
            } else {
                Trend::Stable
            };
        }
    }

    /// All topics, category-major in [`TopicCategory::ALL`] order. The
    /// pool is built once: a topic's index is stable for the engine's
    /// lifetime, and only its heat, momentum and trend evolve.
    pub fn topics(&self) -> &[Topic] {
        &self.topics
    }

    /// The index range of one category's block of the pool.
    fn block(&self, category: TopicCategory) -> Range<usize> {
        let per_category = self.topics.len() / TopicCategory::ALL.len();
        let start = category.index() * per_category;
        start..start + per_category
    }

    /// Indices of the `k` hottest topics that `keep` admits, hottest
    /// first; equal heats keep pool order.
    fn hottest(&self, k: usize, keep: impl Fn(&Topic) -> bool) -> Vec<usize> {
        let mut matching: Vec<usize> = (0..self.topics.len())
            .filter(|&i| keep(&self.topics[i]))
            .collect();
        matching.sort_by(|&a, &b| self.topics[b].heat.total_cmp(&self.topics[a].heat));
        matching.truncate(k);
        matching
    }

    /// Indices of the `k` hottest topics of a category (the provider's
    /// per-category "top 10" list).
    pub fn top_hashtags(&self, category: TopicCategory, k: usize) -> Vec<usize> {
        self.hottest(k, |t| t.category == category)
    }

    /// Indices of the `k` hottest topics currently in trend state `trend`.
    pub fn trending(&self, trend: Trend, k: usize) -> Vec<usize> {
        self.hottest(k, |t| t.trend == trend)
    }

    /// Samples a topic for an account with the given interests, weighted by
    /// heat (hot topics get talked about more), and returns its index.
    /// Falls back to any topic when `interests` is empty.
    pub fn sample_topic(&self, interests: &[TopicCategory], rng: &mut StdRng) -> usize {
        let mut draw = rng.random::<f64>() * self.pool_heat(interests);
        let mut last = 0;
        for i in self.pool(interests) {
            draw -= self.topics[i].heat;
            if draw <= 0.0 {
                return i;
            }
            last = i;
        }
        last
    }

    /// The indices [`sample_topic`](Self::sample_topic) draws from: the
    /// interests' category blocks in [`TopicCategory::ALL`] order, which
    /// is pool order.
    fn pool<'a>(&'a self, interests: &'a [TopicCategory]) -> impl Iterator<Item = usize> + 'a {
        TopicCategory::ALL
            .iter()
            .filter(move |c| interests.is_empty() || interests.contains(c))
            .flat_map(move |&c| self.block(c))
    }

    /// The pool's total heat, summed topic by topic in pool order — the
    /// order a filter over the whole pool sums in, so it rounds the same.
    /// (Per-category subtotals would round differently.)
    fn pool_heat(&self, interests: &[TopicCategory]) -> f64 {
        self.pool(interests).map(|i| self.topics[i].heat).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn engine(seed: u64) -> (TopicEngine, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = TopicEngine::new(12, &mut rng);
        (e, rng)
    }

    #[test]
    fn creates_topics_in_every_category() {
        let (e, _) = engine(1);
        assert_eq!(e.topics().len(), 12 * 8);
        for &cat in &TopicCategory::ALL {
            assert_eq!(e.topics().iter().filter(|t| t.category == cat).count(), 12);
        }
    }

    #[test]
    fn top_hashtags_are_sorted_by_heat() {
        let (e, _) = engine(2);
        let top = e.top_hashtags(TopicCategory::Tech, 5);
        assert_eq!(top.len(), 5);
        let heats: Vec<f64> = top.iter().map(|&i| e.topics()[i].heat).collect();
        for w in heats.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(top
            .iter()
            .all(|&i| e.topics()[i].category == TopicCategory::Tech));
    }

    #[test]
    fn evolution_produces_all_trend_states_over_time() {
        let (mut e, mut rng) = engine(3);
        let mut seen_up = false;
        let mut seen_down = false;
        let mut seen_popular = false;
        for _ in 0..50 {
            e.evolve(&mut rng);
            seen_up |= e.topics().iter().any(|t| t.trend == Trend::Up);
            seen_down |= e.topics().iter().any(|t| t.trend == Trend::Down);
            seen_popular |= e.topics().iter().any(|t| t.trend == Trend::Popular);
        }
        assert!(seen_up, "never saw a trending-up topic");
        assert!(seen_down, "never saw a trending-down topic");
        assert!(seen_popular, "never saw a popular topic");
    }

    #[test]
    fn heat_stays_positive() {
        let (mut e, mut rng) = engine(4);
        for _ in 0..100 {
            e.evolve(&mut rng);
        }
        assert!(e.topics().iter().all(|t| t.heat > 0.0));
    }

    #[test]
    fn sample_topic_respects_interests() {
        let (e, mut rng) = engine(5);
        for _ in 0..50 {
            let t = e.sample_topic(&[TopicCategory::Astrology], &mut rng);
            assert_eq!(e.topics()[t].category, TopicCategory::Astrology);
        }
    }

    #[test]
    fn sample_topic_with_no_interests_uses_all() {
        let (e, mut rng) = engine(6);
        let mut categories = std::collections::HashSet::new();
        for _ in 0..200 {
            categories.insert(e.topics()[e.sample_topic(&[], &mut rng)].category);
        }
        assert_eq!(categories.len(), TopicCategory::ALL.len());
    }

    /// Topic sampling as it was before the pool was walked by category
    /// block, kept as the oracle: a filtered `Vec` of the pool, summed and
    /// walked in pool order.
    fn sample_topic_reference<'a>(
        e: &'a TopicEngine,
        interests: &[TopicCategory],
        rng: &mut StdRng,
    ) -> &'a Topic {
        let pool: Vec<&Topic> = if interests.is_empty() {
            e.topics.iter().collect()
        } else {
            e.topics
                .iter()
                .filter(|t| interests.contains(&t.category))
                .collect()
        };
        let total: f64 = pool.iter().map(|t| t.heat).sum();
        let mut draw = rng.random::<f64>() * total;
        for topic in &pool {
            draw -= topic.heat;
            if draw <= 0.0 {
                return topic;
            }
        }
        pool[pool.len() - 1]
    }

    #[test]
    fn sample_topic_matches_the_pool_reference_for_every_interest_subset() {
        let (mut e, mut rng) = engine(7);
        for round in 0..4 {
            e.evolve(&mut rng);
            for subset in 0u32..1 << TopicCategory::ALL.len() {
                let mut interests: Vec<TopicCategory> = TopicCategory::ALL
                    .iter()
                    .copied()
                    .filter(|c| subset & (1 << c.index()) != 0)
                    .collect();
                // Interest lists are not kept in category order.
                if round % 2 == 1 {
                    interests.reverse();
                }
                let reference_heat: f64 = e
                    .topics
                    .iter()
                    .filter(|t| interests.is_empty() || interests.contains(&t.category))
                    .map(|t| t.heat)
                    .sum();
                assert_eq!(
                    e.pool_heat(&interests).to_bits(),
                    reference_heat.to_bits(),
                    "subset {subset:#010b}: the heat total must round as the pool sum did"
                );
                let seed = u64::from(subset) + 1_000 * round;
                let mut ours = StdRng::seed_from_u64(seed);
                let mut theirs = StdRng::seed_from_u64(seed);
                for _ in 0..16 {
                    let index = e.sample_topic(&interests, &mut ours);
                    let expected = sample_topic_reference(&e, &interests, &mut theirs);
                    assert_eq!(
                        &e.topics()[index],
                        expected,
                        "subset {subset:#010b}, round {round}"
                    );
                }
                assert_eq!(ours.random::<u64>(), theirs.random::<u64>());
            }
        }
    }

    #[test]
    fn category_labels_match_paper() {
        let labels: Vec<&str> = TopicCategory::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec![
                "entertainment",
                "general",
                "business",
                "tech",
                "education",
                "environment",
                "social",
                "astrology"
            ]
        );
    }
}
