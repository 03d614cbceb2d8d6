//! The ground-truth spammer-attraction model.
//!
//! Why this exists: the paper *measures* which account attributes attract
//! spammers on live Twitter (Tables V–VI, Figures 3–5). To reproduce those
//! measurements on a synthetic substrate, the simulator needs a generative
//! model of spammer victim choice. This module encodes the mechanisms the
//! paper hypothesises — visible, active accounts attract spam; list
//! activity, follower mass and trending-topic exposure matter most — as a
//! smooth per-account score. Spammers sample victims with probability
//! proportional to this score, and the paper's attribute rankings *emerge*
//! from measurement rather than being hard-coded into the pipeline under
//! test.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::account::Profile;
use crate::topics::TopicCategory;

/// An account's recent topical exposure, computed by the engine from its
/// rolling hashtag window.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TopicExposure {
    /// Categories present among recent hashtags, as a set:
    /// `categories[c.index()]` for category `c`.
    pub categories: [bool; TopicCategory::ALL.len()],
    /// Recently used a trending-up hashtag.
    pub trending_up: bool,
    /// Recently used a trending-down hashtag.
    pub trending_down: bool,
    /// Recently used a popular (top-decile heat) hashtag.
    pub popular: bool,
    /// Used any hashtag at all recently.
    pub uses_hashtags: bool,
}

/// Tunable weights of the attraction model. Defaults reproduce the paper's
/// ordering; the ablation benches perturb them. The two scale weights may
/// be negative — that *inverts* the preference (active accounts become
/// repellent); the factor then floors at a small positive value so scores
/// stay valid sampling weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttractivenessModel {
    /// Scale of the lists-per-day factor (the paper's #1 attribute).
    /// Negative values make list-active accounts repellent.
    pub lists_activity_weight: f64,
    /// Scale of the follower-mass factor. Negative values make
    /// well-followed accounts repellent.
    pub follower_weight: f64,
    /// Multiplier when the account is exposed to trending-up topics.
    pub trending_up_boost: f64,
    /// Multiplier when exposed to popular topics.
    pub popular_boost: f64,
    /// Multiplier when exposed to trending-down topics.
    pub trending_down_boost: f64,
    /// Multiplier when the account posts without hashtags.
    pub no_hashtag_damp: f64,
}

impl Default for AttractivenessModel {
    fn default() -> Self {
        Self {
            lists_activity_weight: 3.0,
            follower_weight: 1.6,
            trending_up_boost: 2.0,
            popular_boost: 1.8,
            trending_down_boost: 1.4,
            no_hashtag_damp: 0.6,
        }
    }
}

impl AttractivenessModel {
    /// The spammer-attraction score of one account (> 0). Spammers pick
    /// victims with probability proportional to this value.
    pub fn score(&self, profile: &Profile, exposure: &TopicExposure) -> f64 {
        self.score_from(self.profile_factor(profile), exposure)
    }

    /// The profile half of [`score`](Self::score): the product of its
    /// profile factors. Profiles do not change while the engine runs, so
    /// the engine keeps this per account until the model changes.
    pub fn profile_factor(&self, profile: &Profile) -> f64 {
        let mut score = 1.0;

        // Lists-per-day: saturating Hill curve peaking toward ~1–2/day.
        // Table VI ranks "joining 1 list per day" first by a wide margin.
        let lpd = profile.lists_per_day();
        let lists_activity = (lpd * lpd) / (lpd * lpd + 0.35);
        score *= (0.3 + self.lists_activity_weight * lists_activity).max(0.02);

        // Follower / friend mass: logarithmic visibility scaling.
        score *=
            (0.5 + self.follower_weight * log_scale(profile.followers_count, 30_000)).max(0.02);
        score *= 0.6 + 1.1 * log_scale(profile.friends_count, 30_000);
        score *= 0.5 + 1.5 * log_scale(profile.lists_count, 500);
        score *= 0.7 + 0.9 * log_scale(profile.favorites_count, 200_000);
        score *= 0.7 + 0.9 * log_scale(profile.statuses_count, 200_000);

        // Account age: a bump around ~1000 days (Figure 3(e)); very young
        // accounts are invisible, ancient ones are often dormant.
        let age = f64::from(profile.account_age_days);
        let age_bump = (-((age - 1000.0) / 900.0).powi(2)).exp();
        score *= 0.7 + 0.6 * age_bump;

        // Friend/follower ratio: audiences (ratio ≪ 1) are attractive,
        // follow-spam shapes (ratio ≫ 1) are not (Figure 3(d)).
        let ratio = profile.friend_follower_ratio();
        score *= 0.7 + 0.6 / (1.0 + ratio);
        score
    }

    /// [`score`](Self::score) from a [`profile_factor`](Self::profile_factor):
    /// the topical multipliers are applied after the profile product, in
    /// the same order, so the result is bit-identical.
    pub fn score_from(&self, profile_factor: f64, exposure: &TopicExposure) -> f64 {
        let mut score = profile_factor;

        // Topical exposure.
        if exposure.trending_up {
            score *= self.trending_up_boost;
        } else if exposure.popular {
            score *= self.popular_boost;
        } else if exposure.trending_down {
            score *= self.trending_down_boost;
        }
        if !exposure.uses_hashtags {
            score *= self.no_hashtag_damp;
        } else {
            score *= category_boost(&exposure.categories);
        }

        score.max(1e-6)
    }
}

/// `ln(1 + v) / ln(1 + cap)`, clamped to `[0, 1.2]` — diminishing returns
/// past the paper's largest sample value.
fn log_scale(value: u64, cap: u64) -> f64 {
    ((1.0 + value as f64).ln() / (1.0 + cap as f64).ln()).clamp(0.0, 1.2)
}

/// The strongest category boost among the exposed categories (Figure 4
/// shows social/general/tech/business capture the most spammers).
fn category_boost(categories: &[bool; TopicCategory::ALL.len()]) -> f64 {
    TopicCategory::ALL
        .iter()
        .filter(|c| categories[c.index()])
        .map(|c| match c {
            TopicCategory::Social => 1.50,
            TopicCategory::Tech => 1.45,
            TopicCategory::General => 1.40,
            TopicCategory::Business => 1.35,
            TopicCategory::Entertainment => 1.30,
            TopicCategory::Education => 1.00,
            TopicCategory::Environment => 0.90,
            TopicCategory::Astrology => 0.85,
        })
        .fold(1.0_f64, f64::max)
}

/// Samples `k` indices (with replacement) proportionally to `weights`.
///
/// # Panics
///
/// Panics if `weights` is empty or sums to a non-positive value.
pub fn weighted_sample(weights: &[f64], k: usize, rng: &mut StdRng) -> Vec<usize> {
    assert!(!weights.is_empty(), "cannot sample from empty weights");
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must sum to a positive value");
    // Cumulative table + binary search: O(n) build, O(log n) per draw.
    let mut cumulative = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for &w in weights {
        acc += w.max(0.0);
        cumulative.push(acc);
    }
    (0..k)
        .map(|_| {
            let draw = rng.random::<f64>() * acc;
            cumulative
                .partition_point(|&c| c < draw)
                .min(weights.len() - 1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::AccountId;
    use ph_sketch::GrayImage;
    use rand::SeedableRng;

    fn exposed(category: TopicCategory) -> [bool; TopicCategory::ALL.len()] {
        let mut categories = [false; TopicCategory::ALL.len()];
        categories[category.index()] = true;
        categories
    }

    fn base_profile() -> Profile {
        Profile {
            id: AccountId(0),
            screen_name: "user".into(),
            display_name: "User".into(),
            description: String::new(),
            friends_count: 200,
            followers_count: 200,
            account_age_days: 500,
            lists_count: 5,
            favorites_count: 500,
            statuses_count: 2_000,
            verified: false,
            default_profile_image: false,
            profile_image: GrayImage::new(9, 9),
        }
    }

    #[test]
    fn score_is_positive() {
        let m = AttractivenessModel::default();
        let s = m.score(&base_profile(), &TopicExposure::default());
        assert!(s > 0.0);
    }

    #[test]
    fn more_followers_attract_more() {
        let m = AttractivenessModel::default();
        let lo = base_profile();
        let hi = Profile {
            followers_count: 10_000,
            ..base_profile()
        };
        let e = TopicExposure::default();
        assert!(m.score(&hi, &e) > m.score(&lo, &e));
    }

    #[test]
    fn one_list_per_day_beats_quarter_list_per_day() {
        let m = AttractivenessModel::default();
        let daily = Profile {
            lists_count: 500,
            account_age_days: 500,
            ..base_profile()
        };
        let quarterly = Profile {
            lists_count: 125,
            account_age_days: 500,
            ..base_profile()
        };
        let e = TopicExposure::default();
        assert!(m.score(&daily, &e) > m.score(&quarterly, &e));
    }

    #[test]
    fn age_peaks_near_1000_days() {
        let m = AttractivenessModel::default();
        let e = TopicExposure::default();
        // Hold the per-day rates fixed while varying age, so the comparison
        // isolates the age bump from the activity factors.
        let at = |days: u32| {
            m.score(
                &Profile {
                    account_age_days: days,
                    lists_count: u64::from(days / 100),
                    favorites_count: u64::from(days),
                    statuses_count: u64::from(4 * days),
                    ..base_profile()
                },
                &e,
            )
        };
        assert!(at(1000) > at(10));
        assert!(at(1000) > at(3000));
    }

    #[test]
    fn low_ratio_is_more_attractive() {
        let m = AttractivenessModel::default();
        let e = TopicExposure::default();
        let audience = Profile {
            friends_count: 100,
            followers_count: 1000,
            ..base_profile()
        };
        let follower_spammer = Profile {
            friends_count: 1000,
            followers_count: 100,
            ..base_profile()
        };
        assert!(m.score(&audience, &e) > m.score(&follower_spammer, &e));
    }

    #[test]
    fn trending_up_boosts_most() {
        let m = AttractivenessModel::default();
        let p = base_profile();
        let hashtag = TopicExposure {
            uses_hashtags: true,
            categories: exposed(TopicCategory::Education),
            ..Default::default()
        };
        let up = TopicExposure {
            trending_up: true,
            ..hashtag.clone()
        };
        let down = TopicExposure {
            trending_down: true,
            ..hashtag.clone()
        };
        assert!(m.score(&p, &up) > m.score(&p, &down));
        assert!(m.score(&p, &down) > m.score(&p, &hashtag));
    }

    #[test]
    fn no_hashtag_dampens() {
        let m = AttractivenessModel::default();
        let p = base_profile();
        let none = TopicExposure::default();
        let social = TopicExposure {
            uses_hashtags: true,
            categories: exposed(TopicCategory::Social),
            ..Default::default()
        };
        assert!(m.score(&p, &social) > m.score(&p, &none));
    }

    #[test]
    fn weighted_sample_prefers_heavy_indices() {
        let mut rng = StdRng::seed_from_u64(1);
        let weights = vec![1.0, 0.0, 9.0];
        let draws = weighted_sample(&weights, 5_000, &mut rng);
        let heavy = draws.iter().filter(|&&i| i == 2).count();
        let zero = draws.iter().filter(|&&i| i == 1).count();
        assert!(heavy > 4_000, "heavy index drawn only {heavy} times");
        assert_eq!(zero, 0, "zero-weight index must never be drawn");
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_weights_panic() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = weighted_sample(&[], 1, &mut rng);
    }
}
