//! Pass 4: simulated manual checking.
//!
//! The paper spends two weeks of human effort refining the roughly labeled
//! data into a reliable ground truth. On a synthetic substrate the human is
//! replaced by a calibrated noisy oracle over the simulator's true labels:
//! it inspects the remaining unlabeled tweets (and optionally audits the
//! rough labels) and answers correctly with configurable accuracy.

use std::collections::BTreeMap;

use ph_twitter_sim::engine::GroundTruth;
use ph_twitter_sim::AccountId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::labeling::{AccountLabel, LabelMethod, LabeledCollection, TweetLabel};
use crate::monitor::CollectedTweet;

/// Manual-checking parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManualConfig {
    /// Probability the human answers correctly per item.
    pub accuracy: f64,
    /// Fraction of remaining unlabeled tweets actually inspected.
    pub coverage: f64,
    /// Also audit (and possibly fix) labels produced by earlier passes —
    /// the paper's "manual checking … in the labeled dataset". Audited
    /// labels keep their original method attribution when confirmed.
    pub audit_rough_labels: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ManualConfig {
    fn default() -> Self {
        Self {
            // On a ham-dominated stream even small human error rates mint
            // hundreds of false spams; two careful weeks (the paper's
            // budget) warrant a low per-item error rate.
            accuracy: 0.995,
            coverage: 1.0,
            audit_rough_labels: true,
            seed: 97,
        }
    }
}

/// Applies the manual pass.
pub fn apply(
    collected: &[CollectedTweet],
    oracle: &GroundTruth<'_>,
    config: &ManualConfig,
    labels: &mut LabeledCollection,
) {
    debug_assert_eq!(collected.len(), labels.tweet_labels.len());
    let _span = ph_telemetry::span("manual");
    assert!(
        (0.0..=1.0).contains(&config.accuracy) && (0.0..=1.0).contains(&config.coverage),
        "accuracy and coverage must be probabilities"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    check_tweets(
        collected,
        oracle,
        config,
        &mut rng,
        &mut labels.tweet_labels,
    );

    // Account-level, in ascending author order: an author with two or more
    // spam tweets is a spammer; the remaining unlabeled authors are
    // checked directly.
    for (author, spam_tweet_count) in spam_tweets_per_author(collected, &labels.tweet_labels) {
        if labels.account_labels.contains_key(&author) {
            continue;
        }
        // One noisy spam label is weak evidence; two or more is decisive.
        // Single-spam authors get a direct (noisy) human check — otherwise
        // every manual-pass labeling error would mint a phantom spammer.
        let spammer = if spam_tweet_count >= 2 {
            true
        } else {
            let truth = oracle.is_spammer(author);
            if rng.random_bool(config.accuracy) {
                truth
            } else {
                !truth
            }
        };
        labels.account_labels.insert(
            author,
            AccountLabel {
                spammer,
                method: LabelMethod::Manual,
            },
        );
    }
}

/// The tweet-level pass: inspects unlabeled tweets and audits rough labels.
fn check_tweets(
    collected: &[CollectedTweet],
    oracle: &GroundTruth<'_>,
    config: &ManualConfig,
    rng: &mut StdRng,
    tweet_labels: &mut [Option<TweetLabel>],
) {
    for (c, slot) in collected.iter().zip(tweet_labels.iter_mut()) {
        match slot {
            None => {
                if config.coverage >= 1.0 || rng.random_bool(config.coverage) {
                    let truth = oracle.is_spam(&c.tweet);
                    let answer = if rng.random_bool(config.accuracy) {
                        truth
                    } else {
                        !truth
                    };
                    *slot = Some(TweetLabel {
                        spam: answer,
                        method: LabelMethod::Manual,
                    });
                }
            }
            Some(label) if config.audit_rough_labels => {
                let truth = oracle.is_spam(&c.tweet);
                if label.spam != truth && rng.random_bool(config.accuracy) {
                    // The human catches the rough-label mistake; the fix is
                    // attributed to manual checking.
                    *slot = Some(TweetLabel {
                        spam: truth,
                        method: LabelMethod::Manual,
                    });
                }
            }
            Some(_) => {}
        }
    }
}

/// Spam-labeled tweets per author, over every author in `collected`
/// (zero included), in ascending author order — one pass over the tweets.
fn spam_tweets_per_author(
    collected: &[CollectedTweet],
    tweet_labels: &[Option<TweetLabel>],
) -> BTreeMap<AccountId, usize> {
    let mut counts = BTreeMap::new();
    for (c, l) in collected.iter().zip(tweet_labels) {
        *counts.entry(c.tweet.author).or_insert(0) += usize::from(l.is_some_and(|l| l.spam));
    }
    counts
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::attributes::{ProfileAttribute, SampleAttribute};
    use crate::monitor::{Runner, RunnerConfig};
    use ph_twitter_sim::engine::{Engine, SimConfig};

    fn monitored() -> (Engine, Vec<CollectedTweet>) {
        let mut engine = Engine::new(SimConfig {
            seed: 51,
            num_organic: 300,
            num_campaigns: 2,
            accounts_per_campaign: 6,
            ..Default::default()
        });
        let runner = Runner::new(RunnerConfig {
            slots: vec![SampleAttribute::profile(ProfileAttribute::ListsPerDay, 1.0)],
            ..Default::default()
        });
        let report = runner.run(&mut engine, 15);
        (engine, report.collected)
    }

    #[test]
    fn full_coverage_labels_everything() {
        let (engine, collected) = monitored();
        let mut labels = LabeledCollection {
            tweet_labels: vec![None; collected.len()],
            ..Default::default()
        };
        apply(
            &collected,
            &engine.ground_truth(),
            &ManualConfig::default(),
            &mut labels,
        );
        assert!(labels.tweet_labels.iter().all(Option::is_some));
        // Every observed author is labeled.
        let mut authors: Vec<_> = collected.iter().map(|c| c.tweet.author).collect();
        authors.sort_unstable();
        authors.dedup();
        assert_eq!(labels.account_labels.len(), authors.len());
    }

    #[test]
    fn perfect_accuracy_matches_ground_truth() {
        let (engine, collected) = monitored();
        let mut labels = LabeledCollection {
            tweet_labels: vec![None; collected.len()],
            ..Default::default()
        };
        apply(
            &collected,
            &engine.ground_truth(),
            &ManualConfig {
                accuracy: 1.0,
                ..Default::default()
            },
            &mut labels,
        );
        let gt = engine.ground_truth();
        for (c, l) in collected.iter().zip(&labels.tweet_labels) {
            assert_eq!(l.unwrap().spam, gt.is_spam(&c.tweet));
        }
    }

    #[test]
    fn partial_coverage_leaves_gaps() {
        let (engine, collected) = monitored();
        if collected.len() < 20 {
            return; // not enough data to assert coverage statistics
        }
        let mut labels = LabeledCollection {
            tweet_labels: vec![None; collected.len()],
            ..Default::default()
        };
        apply(
            &collected,
            &engine.ground_truth(),
            &ManualConfig {
                coverage: 0.3,
                ..Default::default()
            },
            &mut labels,
        );
        let labeled = labels.tweet_labels.iter().filter(|l| l.is_some()).count();
        assert!(labeled < collected.len(), "coverage 0.3 labeled everything");
        assert!(labeled > 0, "coverage 0.3 labeled nothing");
    }

    #[test]
    fn audit_fixes_wrong_rough_labels() {
        let (engine, collected) = monitored();
        if collected.is_empty() {
            return;
        }
        let gt = engine.ground_truth();
        // Deliberately mislabel everything as the opposite of truth.
        let mut labels = LabeledCollection {
            tweet_labels: collected
                .iter()
                .map(|c| {
                    Some(TweetLabel {
                        spam: !gt.is_spam(&c.tweet),
                        method: LabelMethod::Suspended,
                    })
                })
                .collect(),
            ..Default::default()
        };
        apply(
            &collected,
            &gt,
            &ManualConfig {
                accuracy: 1.0,
                ..Default::default()
            },
            &mut labels,
        );
        for (c, l) in collected.iter().zip(&labels.tweet_labels) {
            let l = l.unwrap();
            assert_eq!(l.spam, gt.is_spam(&c.tweet));
            assert_eq!(l.method, LabelMethod::Manual, "fix must be attributed");
        }
    }

    /// The account-level pass as it once ran: a full rescan of the
    /// collection for every unlabeled author, O(authors × tweets).
    fn check_authors_by_rescan(
        collected: &[CollectedTweet],
        tweet_labels: &[Option<TweetLabel>],
        oracle: &GroundTruth<'_>,
        accuracy: f64,
        rng: &mut StdRng,
        account_labels: &mut HashMap<AccountId, AccountLabel>,
    ) {
        let mut authors: Vec<AccountId> = collected.iter().map(|c| c.tweet.author).collect();
        authors.sort_unstable();
        authors.dedup();
        for author in authors {
            if account_labels.contains_key(&author) {
                continue;
            }
            let spam_tweet_count = collected
                .iter()
                .zip(tweet_labels)
                .filter(|(c, l)| c.tweet.author == author && l.is_some_and(|l| l.spam))
                .count();
            let spammer = if spam_tweet_count >= 2 {
                true
            } else {
                let truth = oracle.is_spammer(author);
                if rng.random_bool(accuracy) {
                    truth
                } else {
                    !truth
                }
            };
            account_labels.insert(
                author,
                AccountLabel {
                    spammer,
                    method: LabelMethod::Manual,
                },
            );
        }
    }

    #[test]
    fn one_pass_author_counts_label_accounts_as_the_rescan() {
        let (engine, collected) = monitored();
        let gt = engine.ground_truth();
        let config = ManualConfig::default();
        // Half the tweets arrive rough-labeled (every third as spam) and
        // some authors arrive already labeled, as after the rule pass.
        let mut input = LabeledCollection {
            tweet_labels: (0..collected.len())
                .map(|i| {
                    (i % 2 == 0).then_some(TweetLabel {
                        spam: i % 3 == 0,
                        method: LabelMethod::RuleBased,
                    })
                })
                .collect(),
            ..Default::default()
        };
        for c in collected.iter().step_by(5) {
            input.account_labels.insert(
                c.tweet.author,
                AccountLabel {
                    spammer: true,
                    method: LabelMethod::RuleBased,
                },
            );
        }

        let mut labels = input.clone();
        apply(&collected, &gt, &config, &mut labels);

        let mut expected = input;
        let mut rng = StdRng::seed_from_u64(config.seed);
        check_tweets(
            &collected,
            &gt,
            &config,
            &mut rng,
            &mut expected.tweet_labels,
        );
        let counts = spam_tweets_per_author(&collected, &expected.tweet_labels);
        assert!(
            counts.values().any(|&n| n >= 2) && counts.values().any(|&n| n < 2),
            "fixture must hold both decisive and directly checked authors"
        );
        check_authors_by_rescan(
            &collected,
            &expected.tweet_labels,
            &gt,
            config.accuracy,
            &mut rng,
            &mut expected.account_labels,
        );
        assert_eq!(labels.tweet_labels, expected.tweet_labels);
        assert_eq!(labels.account_labels, expected.account_labels);
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn invalid_accuracy_panics() {
        let (engine, collected) = monitored();
        let mut labels = LabeledCollection {
            tweet_labels: vec![None; collected.len()],
            ..Default::default()
        };
        apply(
            &collected,
            &engine.ground_truth(),
            &ManualConfig {
                accuracy: 1.5,
                ..Default::default()
            },
            &mut labels,
        );
    }
}
