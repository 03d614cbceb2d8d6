//! Pass 3: rule-based labeling.
//!
//! The paper's 11 spam rules reduce, on this substrate, to the signals the
//! generator emits: blacklisted URLs (rule 1), repetitive content from one
//! author (rules 2/5), deceptive/phishing wording (rule 3), quick-money
//! wording (rule 6), adult content (rule 7), bot/API posting with malicious
//! intent and malicious promoters (rules 8/9). Non-spam seeds come from
//! verified ("truthful") accounts.

use std::collections::{HashMap, HashSet};

use ph_sketch::shingle::normalize;
use ph_twitter_sim::engine::RestApi;
use ph_twitter_sim::text::{
    is_malicious_url, ADULT_PHRASES, MONEY_PHRASES, PHISHING_PHRASES, PROMOTER_PHRASES,
};
use ph_twitter_sim::AccountId;
use serde::{Deserialize, Serialize};

use crate::labeling::{AccountLabel, LabelMethod, LabeledCollection, TweetLabel};
use crate::monitor::CollectedTweet;

/// Rule thresholds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleConfig {
    /// An author repeating the same normalized text this many times is
    /// spamming (rules 2/5).
    pub repetition_threshold: usize,
    /// Treat verified accounts as non-spam seeds.
    pub seed_verified_accounts: bool,
}

impl Default for RuleConfig {
    fn default() -> Self {
        Self {
            repetition_threshold: 3,
            seed_verified_accounts: true,
        }
    }
}

/// Which rule fired for a tweet (diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpamRule {
    /// Rule 1: malicious URL.
    MaliciousUrl,
    /// Rules 2/5: repetitive content.
    Repetition,
    /// Rule 3: deceptive / phishing wording.
    Deception,
    /// Rule 6: quick-money wording.
    MoneyGain,
    /// Rule 7: adult content.
    AdultContent,
    /// Rules 9/10: malicious promoter wording.
    Promoter,
}

/// Diagnostics from one rule pass.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RuleReport {
    /// Spam tweets newly labeled, per rule.
    pub fired: HashMap<SpamRule, usize>,
    /// Non-spam tweets labeled via seed accounts.
    pub seeded_nonspam: usize,
}

/// Checks the text-level rules against a single tweet's content.
pub fn spam_rule_for(text: &str, urls: &[String]) -> Option<SpamRule> {
    if urls.iter().any(|u| is_malicious_url(u)) || is_malicious_url(text) {
        return Some(SpamRule::MaliciousUrl);
    }
    let lower = text.to_lowercase();
    let hit = |corpus: &[&str]| corpus.iter().any(|p| lower.contains(p));
    // Quoted/reported spam wording ("this ad says: …") is conversational,
    // not promotional — rules target the promotional form with a link or
    // direct phrasing; a quoting prefix exempts it.
    let quoting = lower.contains("says:");
    if !quoting {
        if hit(PHISHING_PHRASES) {
            return Some(SpamRule::Deception);
        }
        if hit(MONEY_PHRASES) {
            return Some(SpamRule::MoneyGain);
        }
        if hit(ADULT_PHRASES) {
            return Some(SpamRule::AdultContent);
        }
        if hit(PROMOTER_PHRASES) {
            return Some(SpamRule::Promoter);
        }
    }
    None
}

/// Applies the rule pass over unlabeled entries.
pub fn apply(
    collected: &[CollectedTweet],
    rest: &RestApi<'_>,
    config: &RuleConfig,
    labels: &mut LabeledCollection,
) -> RuleReport {
    debug_assert_eq!(collected.len(), labels.tweet_labels.len());
    let _span = ph_telemetry::span("rules");
    let mut report = RuleReport::default();

    // Repetition counts per (author, normalized text). Each tweet's text
    // is normalized and hashed once; the labeling loop reuses the key.
    let keys: Vec<u64> = collected.iter().map(|c| text_key(&c.tweet.text)).collect();
    let mut repeats: HashMap<(AccountId, u64), usize> = HashMap::new();
    for (c, &key) in collected.iter().zip(&keys) {
        *repeats.entry((c.tweet.author, key)).or_insert(0) += 1;
    }
    let repetitive_keys: HashSet<(AccountId, u64)> = repeats
        .into_iter()
        .filter(|&(_, n)| n >= config.repetition_threshold)
        .map(|(k, _)| k)
        .collect();

    let mut spam_authors: HashSet<AccountId> = HashSet::new();
    for ((c, &key), slot) in collected
        .iter()
        .zip(&keys)
        .zip(labels.tweet_labels.iter_mut())
    {
        if slot.is_some() {
            continue;
        }
        // Seed non-spam: verified authors are truthful seeds.
        let verified = config.seed_verified_accounts
            && rest.profile(c.tweet.author).is_some_and(|p| p.verified);
        if verified {
            *slot = Some(TweetLabel {
                spam: false,
                method: LabelMethod::RuleBased,
            });
            report.seeded_nonspam += 1;
            continue;
        }
        let rule = spam_rule_for(&c.tweet.text, &c.tweet.urls).or_else(|| {
            repetitive_keys
                .contains(&(c.tweet.author, key))
                .then_some(SpamRule::Repetition)
        });
        if let Some(rule) = rule {
            *slot = Some(TweetLabel {
                spam: true,
                method: LabelMethod::RuleBased,
            });
            *report.fired.entry(rule).or_insert(0) += 1;
            spam_authors.insert(c.tweet.author);
        }
    }
    for author in spam_authors {
        labels.account_labels.entry(author).or_insert(AccountLabel {
            spammer: true,
            method: LabelMethod::RuleBased,
        });
    }
    // Seed accounts become labeled non-spammers.
    if config.seed_verified_accounts {
        let mut authors: Vec<AccountId> = collected.iter().map(|c| c.tweet.author).collect();
        authors.sort_unstable();
        authors.dedup();
        for author in authors {
            if rest.profile(author).is_some_and(|p| p.verified) {
                labels.account_labels.entry(author).or_insert(AccountLabel {
                    spammer: false,
                    method: LabelMethod::RuleBased,
                });
            }
        }
    }
    report
}

fn text_key(text: &str) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    normalize(text).hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malicious_url_rule_fires() {
        let rule = spam_rule_for(
            "check this http://phish-login.example/zzz",
            &["http://phish-login.example/zzz".to_string()],
        );
        assert_eq!(rule, Some(SpamRule::MaliciousUrl));
    }

    #[test]
    fn money_rule_fires_without_url() {
        let rule = spam_rule_for("double your money in one week guaranteed", &[]);
        assert_eq!(rule, Some(SpamRule::MoneyGain));
    }

    #[test]
    fn adult_and_promoter_rules_fire() {
        assert_eq!(
            spam_rule_for("hot singles in your area waiting", &[]),
            Some(SpamRule::AdultContent)
        );
        assert_eq!(
            spam_rule_for("buy 10000 followers cheap instant delivery", &[]),
            Some(SpamRule::Promoter)
        );
    }

    #[test]
    fn phishing_rule_fires() {
        assert_eq!(
            spam_rule_for("security alert unusual login confirm password", &[]),
            Some(SpamRule::Deception)
        );
    }

    #[test]
    fn quoted_spam_wording_is_exempt() {
        assert_eq!(
            spam_rule_for(
                "lol this ad says: free money no strings attached claim now",
                &[]
            ),
            None
        );
    }

    #[test]
    fn benign_text_does_not_fire() {
        assert_eq!(spam_rule_for("lovely sunset at the beach today", &[]), None);
        assert_eq!(
            spam_rule_for("reading a book about coffee https://blog.example/x", &[]),
            None
        );
    }

    #[test]
    fn end_to_end_rule_pass_labels_payloads() {
        use crate::attributes::{ProfileAttribute, SampleAttribute};
        use crate::monitor::{Runner, RunnerConfig};
        use ph_twitter_sim::engine::{Engine, SimConfig};

        let mut engine = Engine::new(SimConfig {
            seed: 41,
            num_organic: 400,
            num_campaigns: 3,
            accounts_per_campaign: 8,
            ..Default::default()
        });
        let runner = Runner::new(RunnerConfig {
            slots: vec![SampleAttribute::profile(ProfileAttribute::ListsPerDay, 1.0)],
            ..Default::default()
        });
        let report = runner.run(&mut engine, 25);
        let mut labels = LabeledCollection {
            tweet_labels: vec![None; report.collected.len()],
            ..Default::default()
        };
        let rule_report = apply(
            &report.collected,
            &engine.rest(),
            &RuleConfig::default(),
            &mut labels,
        );
        let gt = engine.ground_truth();
        let true_spam = report
            .collected
            .iter()
            .filter(|c| gt.is_spam(&c.tweet))
            .count();
        if true_spam > 0 {
            assert!(
                labels.num_spam() > 0,
                "rules labeled nothing despite {true_spam} true spams (fired: {:?})",
                rule_report.fired
            );
            // Rule-labeled spam should be overwhelmingly true spam.
            let correct = report
                .collected
                .iter()
                .zip(&labels.tweet_labels)
                .filter(|(c, l)| l.is_some_and(|l| l.spam) && gt.is_spam(&c.tweet))
                .count();
            let precision = correct as f64 / labels.num_spam() as f64;
            assert!(precision > 0.9, "rule precision {precision:.2}");
        }
    }
}
