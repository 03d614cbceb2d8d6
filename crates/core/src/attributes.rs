//! The attribute taxonomy of Tables I and II.
//!
//! Pseudo-honeypot nodes are selected by attributes in three categories:
//!
//! - **C1 — profile-based**: 11 numeric profile attributes, each sampled at
//!   the 10 values of Table II,
//! - **C2 — hashtag-based**: the 8 topical categories plus *no hashtag*,
//! - **C3 — trending-based**: trending-up / trending-down / popular /
//!   no-trending topics.

use ph_twitter_sim::Profile;
use ph_twitter_sim::TopicCategory;
use serde::{Deserialize, Serialize};

/// The 11 profile-based attributes of Table II (category C1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ProfileAttribute {
    /// Attribute 1: friends count.
    FriendsCount,
    /// Attribute 2: follower count.
    FollowersCount,
    /// Attribute 3: total friends and followers.
    TotalFriendsFollowers,
    /// Attribute 4: ratio of friends over followers.
    FriendFollowerRatio,
    /// Attribute 5: account age in days.
    AccountAgeDays,
    /// Attribute 6: lists count.
    ListsCount,
    /// Attribute 7: favorites count.
    FavoritesCount,
    /// Attribute 8: status count.
    StatusesCount,
    /// Attribute 9: average lists joined per day.
    ListsPerDay,
    /// Attribute 10: average favorites per day.
    FavoritesPerDay,
    /// Attribute 11: average statuses per day.
    StatusesPerDay,
}

impl ProfileAttribute {
    /// All 11 attributes in Table II row order.
    pub const ALL: [ProfileAttribute; 11] = [
        ProfileAttribute::FriendsCount,
        ProfileAttribute::FollowersCount,
        ProfileAttribute::TotalFriendsFollowers,
        ProfileAttribute::FriendFollowerRatio,
        ProfileAttribute::AccountAgeDays,
        ProfileAttribute::ListsCount,
        ProfileAttribute::FavoritesCount,
        ProfileAttribute::StatusesCount,
        ProfileAttribute::ListsPerDay,
        ProfileAttribute::FavoritesPerDay,
        ProfileAttribute::StatusesPerDay,
    ];

    /// The attribute's Table II sample-value row.
    pub fn sample_values(self) -> &'static [f64] {
        use ph_twitter_sim::population::grids;
        match self {
            ProfileAttribute::FriendsCount => &grids::FRIENDS,
            ProfileAttribute::FollowersCount => &grids::FOLLOWERS,
            ProfileAttribute::TotalFriendsFollowers => &grids::TOTAL,
            ProfileAttribute::FriendFollowerRatio => &grids::RATIO,
            ProfileAttribute::AccountAgeDays => &grids::AGE_DAYS,
            ProfileAttribute::ListsCount => &grids::LISTS,
            ProfileAttribute::FavoritesCount => &grids::FAVORITES,
            ProfileAttribute::StatusesCount => &grids::STATUSES,
            ProfileAttribute::ListsPerDay => &grids::LISTS_PER_DAY,
            ProfileAttribute::FavoritesPerDay => &grids::FAVORITES_PER_DAY,
            ProfileAttribute::StatusesPerDay => &grids::STATUSES_PER_DAY,
        }
    }

    /// Reads the attribute's value off a public profile.
    pub fn value_of(self, profile: &Profile) -> f64 {
        match self {
            ProfileAttribute::FriendsCount => profile.friends_count as f64,
            ProfileAttribute::FollowersCount => profile.followers_count as f64,
            ProfileAttribute::TotalFriendsFollowers => profile.total_friends_followers() as f64,
            ProfileAttribute::FriendFollowerRatio => profile.friend_follower_ratio(),
            ProfileAttribute::AccountAgeDays => f64::from(profile.account_age_days),
            ProfileAttribute::ListsCount => profile.lists_count as f64,
            ProfileAttribute::FavoritesCount => profile.favorites_count as f64,
            ProfileAttribute::StatusesCount => profile.statuses_count as f64,
            ProfileAttribute::ListsPerDay => profile.lists_per_day(),
            ProfileAttribute::FavoritesPerDay => profile.favorites_per_day(),
            ProfileAttribute::StatusesPerDay => profile.statuses_per_day(),
        }
    }

    /// Human-readable label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            ProfileAttribute::FriendsCount => "friends count",
            ProfileAttribute::FollowersCount => "followers count",
            ProfileAttribute::TotalFriendsFollowers => "total friends and followers",
            ProfileAttribute::FriendFollowerRatio => "ratio of friends and followers",
            ProfileAttribute::AccountAgeDays => "account age (days)",
            ProfileAttribute::ListsCount => "lists count",
            ProfileAttribute::FavoritesCount => "favorites count",
            ProfileAttribute::StatusesCount => "statuses count",
            ProfileAttribute::ListsPerDay => "average of lists per day",
            ProfileAttribute::FavoritesPerDay => "average of favorites per day",
            ProfileAttribute::StatusesPerDay => "average of statuses per day",
        }
    }
}

impl std::fmt::Display for ProfileAttribute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The trending-based attribute values of category C3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TrendAttribute {
    /// Recently active in a trending-up topic.
    TrendingUp,
    /// Recently active in a trending-down topic.
    TrendingDown,
    /// Recently active in a popular topic.
    Popular,
    /// Posting, but in no trending topic.
    NonTrending,
}

impl TrendAttribute {
    /// All four trending attributes in Table I order.
    pub const ALL: [TrendAttribute; 4] = [
        TrendAttribute::TrendingUp,
        TrendAttribute::TrendingDown,
        TrendAttribute::Popular,
        TrendAttribute::NonTrending,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            TrendAttribute::TrendingUp => "trending up",
            TrendAttribute::TrendingDown => "trending down",
            TrendAttribute::Popular => "popular tweets",
            TrendAttribute::NonTrending => "no trending",
        }
    }
}

impl std::fmt::Display for TrendAttribute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// An attribute of any category — the unit the paper's per-attribute
/// statistics (Table V, Figures 3–5) aggregate over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AttributeKind {
    /// C1: a profile attribute.
    Profile(ProfileAttribute),
    /// C2: a topical hashtag category; `None` = the *no hashtag* attribute.
    Hashtag(Option<TopicCategory>),
    /// C3: a trending attribute.
    Trending(TrendAttribute),
}

impl AttributeKind {
    /// All 24 attributes (11 + 9 + 4) in Table I order.
    pub fn all() -> Vec<AttributeKind> {
        let mut out: Vec<AttributeKind> = ProfileAttribute::ALL
            .iter()
            .map(|&p| AttributeKind::Profile(p))
            .collect();
        out.extend(
            TopicCategory::ALL
                .iter()
                .map(|&c| AttributeKind::Hashtag(Some(c))),
        );
        out.push(AttributeKind::Hashtag(None));
        out.extend(
            TrendAttribute::ALL
                .iter()
                .map(|&t| AttributeKind::Trending(t)),
        );
        out
    }

    /// Human-readable label.
    pub fn label(&self) -> String {
        match self {
            AttributeKind::Profile(p) => p.label().to_string(),
            AttributeKind::Hashtag(Some(c)) => format!("hashtag: {c}"),
            AttributeKind::Hashtag(None) => "no hashtag".to_string(),
            AttributeKind::Trending(t) => t.label().to_string(),
        }
    }
}

impl std::fmt::Display for AttributeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// A concrete selection slot: an attribute, plus (for profile attributes)
/// the Table II sample value targeted. This is the unit PGE ranks in
/// Table VI ("Joining 1 lists per day", "Having 10k followers", …).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SampleAttribute {
    /// The attribute.
    pub kind: AttributeKind,
    /// The targeted sample value (profile attributes only).
    pub sample_value: Option<f64>,
}

impl SampleAttribute {
    /// A profile-attribute slot at a sample value.
    pub fn profile(attr: ProfileAttribute, value: f64) -> Self {
        Self {
            kind: AttributeKind::Profile(attr),
            sample_value: Some(value),
        }
    }

    /// A hashtag-category slot (`None` = no hashtag).
    pub fn hashtag(category: Option<TopicCategory>) -> Self {
        Self {
            kind: AttributeKind::Hashtag(category),
            sample_value: None,
        }
    }

    /// A trending slot.
    pub fn trending(trend: TrendAttribute) -> Self {
        Self {
            kind: AttributeKind::Trending(trend),
            sample_value: None,
        }
    }

    /// All 123 standard slots: 11 × 10 profile samples + 9 hashtag + 4
    /// trending — the full Table I/II selection plan.
    pub fn standard_slots() -> Vec<SampleAttribute> {
        let mut slots = Vec::new();
        for &attr in &ProfileAttribute::ALL {
            for &value in attr.sample_values() {
                slots.push(SampleAttribute::profile(attr, value));
            }
        }
        for &cat in &TopicCategory::ALL {
            slots.push(SampleAttribute::hashtag(Some(cat)));
        }
        slots.push(SampleAttribute::hashtag(None));
        for &t in &TrendAttribute::ALL {
            slots.push(SampleAttribute::trending(t));
        }
        slots
    }

    /// Stable map key (f64 sample values are grid constants, so exact
    /// bit-equality is well-defined).
    pub fn key(&self) -> (AttributeKind, u64) {
        (self.kind, self.sample_value.unwrap_or(-1.0).to_bits())
    }

    /// A Table VI-style description, e.g. `"average of lists per day = 1"`.
    pub fn describe(&self) -> String {
        match self.sample_value {
            Some(v) => format!("{} = {}", self.kind, trim_float(v)),
            None => self.kind.label(),
        }
    }
}

impl Eq for SampleAttribute {}

impl std::hash::Hash for SampleAttribute {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl std::fmt::Display for SampleAttribute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.describe())
    }
}

fn trim_float(v: f64) -> String {
    if (v.fract()).abs() < 1e-9 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// Relative tolerance used when matching a profile value to a sample value.
pub const MATCH_TOLERANCE_REL: f64 = 0.15;

/// Absolute tolerance floor for small sample values.
pub const MATCH_TOLERANCE_ABS: f64 = 0.01;

/// True when `value` matches sample `target` within the selection
/// tolerances.
pub fn matches_sample(value: f64, target: f64) -> bool {
    (value - target).abs() <= sample_tolerance(target)
}

/// The largest `|value - target|` that still matches sample `target`.
pub fn sample_tolerance(target: f64) -> f64 {
    (target * MATCH_TOLERANCE_REL).max(MATCH_TOLERANCE_ABS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_24_attributes() {
        assert_eq!(AttributeKind::all().len(), 24);
    }

    #[test]
    fn standard_slots_match_paper_network_plan() {
        let slots = SampleAttribute::standard_slots();
        // 110 profile sample slots + 9 hashtag + 4 trending.
        assert_eq!(slots.len(), 123);
        let profile_slots = slots
            .iter()
            .filter(|s| matches!(s.kind, AttributeKind::Profile(_)))
            .count();
        assert_eq!(profile_slots, 110);
    }

    #[test]
    fn every_profile_attribute_has_ten_sample_values() {
        for &attr in &ProfileAttribute::ALL {
            assert_eq!(attr.sample_values().len(), 10, "{attr}");
        }
    }

    #[test]
    fn value_of_reads_profile() {
        use ph_sketch::GrayImage;
        use ph_twitter_sim::AccountId;
        let p = Profile {
            id: AccountId(0),
            screen_name: "x".into(),
            display_name: "x".into(),
            description: String::new(),
            friends_count: 30,
            followers_count: 60,
            account_age_days: 10,
            lists_count: 5,
            favorites_count: 100,
            statuses_count: 50,
            verified: false,
            default_profile_image: false,
            profile_image: GrayImage::new(9, 9),
        };
        assert_eq!(ProfileAttribute::FriendsCount.value_of(&p), 30.0);
        assert_eq!(ProfileAttribute::TotalFriendsFollowers.value_of(&p), 90.0);
        assert!((ProfileAttribute::FriendFollowerRatio.value_of(&p) - 0.5).abs() < 1e-12);
        assert!((ProfileAttribute::ListsPerDay.value_of(&p) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sample_matching_tolerances() {
        assert!(matches_sample(10_400.0, 10_000.0));
        assert!(!matches_sample(12_000.0, 10_000.0));
        assert!(matches_sample(0.105, 0.1));
        assert!(!matches_sample(0.2, 0.1));
        // Absolute floor lets tiny targets match nearby values.
        assert!(matches_sample(0.012, 0.01));
    }

    #[test]
    fn sample_attribute_keys_are_stable() {
        let a = SampleAttribute::profile(ProfileAttribute::FriendsCount, 10.0);
        let b = SampleAttribute::profile(ProfileAttribute::FriendsCount, 10.0);
        let c = SampleAttribute::profile(ProfileAttribute::FriendsCount, 50.0);
        assert_eq!(a, b);
        assert_eq!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
    }

    #[test]
    fn describe_formats() {
        let s = SampleAttribute::profile(ProfileAttribute::ListsPerDay, 1.0);
        assert_eq!(s.describe(), "average of lists per day = 1");
        assert_eq!(SampleAttribute::hashtag(None).describe(), "no hashtag");
        assert_eq!(
            SampleAttribute::trending(TrendAttribute::Popular).describe(),
            "popular tweets"
        );
    }
}
