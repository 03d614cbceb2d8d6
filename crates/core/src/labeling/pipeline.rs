//! The full labeling pipeline in paper order, with Table III accounting.

use ph_exec::ExecConfig;
use ph_twitter_sim::engine::Engine;
use serde::{Deserialize, Serialize};

use crate::labeling::clustering::{self, ClusteringConfig};
use crate::labeling::manual::{self, ManualConfig};
use crate::labeling::rules::{self, RuleConfig};
use crate::labeling::{suspended, LabeledCollection, LabelingSummary};
use crate::monitor::CollectedTweet;

/// Configuration of the four passes.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Clustering thresholds.
    pub clustering: ClusteringConfig,
    /// Rule thresholds.
    pub rules: RuleConfig,
    /// Manual-checking parameters.
    pub manual: ManualConfig,
}

/// The pipeline's complete output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroundTruthDataset {
    /// Per-tweet / per-account labels.
    pub labels: LabeledCollection,
    /// Table III summary.
    pub summary: LabelingSummary,
}

/// Runs suspended → clustering → rule-based → manual over a collection.
///
/// The engine provides both the REST facade (public data: suspension flags,
/// profiles) and, for the manual pass only, the ground-truth oracle that
/// stands in for the paper's human checkers.
pub fn label_collection(
    collected: &[CollectedTweet],
    engine: &Engine,
    config: &PipelineConfig,
) -> GroundTruthDataset {
    label_collection_with(collected, engine, config, &ExecConfig::sequential())
}

/// [`label_collection`] with the clustering pass's sketch computation
/// sharded across `exec`'s workers; labels are identical to the
/// sequential run at any thread count.
pub fn label_collection_with(
    collected: &[CollectedTweet],
    engine: &Engine,
    config: &PipelineConfig,
    exec: &ExecConfig,
) -> GroundTruthDataset {
    let _span = ph_telemetry::span("label");
    let _phase = ph_trace::phase("label");
    ph_telemetry::cached_counter!("label.tweets_labeled").add(collected.len() as u64);
    let mut labels = LabeledCollection {
        tweet_labels: vec![None; collected.len()],
        ..Default::default()
    };
    let rest = engine.rest();
    // Journal one event per pass with how many tweets it newly labeled.
    // Labels are thread-count-invariant, so these events are
    // deterministic and persist into the store journal.
    let mut assigned_before = 0usize;
    let emit_pass = |labels: &LabeledCollection, pass: &str, before: &mut usize| {
        let now = labels.tweet_labels.iter().filter(|l| l.is_some()).count();
        ph_telemetry::journal_emit(ph_telemetry::TelemetryEvent::LabelingPass {
            pass: pass.to_string(),
            labeled: (now - *before) as u64,
        });
        *before = now;
    };
    {
        let _pass = ph_trace::phase("label.suspended");
        suspended::apply(collected, &rest, &mut labels);
    }
    emit_pass(&labels, "suspended", &mut assigned_before);
    {
        let _pass = ph_trace::phase("label.clustering");
        clustering::apply_with(collected, &rest, &config.clustering, exec, &mut labels);
    }
    emit_pass(&labels, "clustering", &mut assigned_before);
    {
        let _pass = ph_trace::phase("label.rules");
        rules::apply(collected, &rest, &config.rules, &mut labels);
    }
    emit_pass(&labels, "rules", &mut assigned_before);
    {
        let _pass = ph_trace::phase("label.manual");
        manual::apply(
            collected,
            &engine.ground_truth(),
            &config.manual,
            &mut labels,
        );
    }
    emit_pass(&labels, "manual", &mut assigned_before);
    let summary = LabelingSummary::from_labels(&labels, collected.len());
    GroundTruthDataset { labels, summary }
}

/// Renders the Table III summary as aligned text rows.
pub fn format_table3(summary: &LabelingSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Total tweets: {}   Total users: {}\n",
        summary.total_tweets, summary.total_users
    ));
    out.push_str(&format!(
        "{:<16} {:>10} {:>12} {:>12} {:>12}\n",
        "Categories", "# spams", "% tweets", "# spammers", "% users"
    ));
    for row in &summary.rows {
        out.push_str(&format!(
            "{:<16} {:>10} {:>12.2} {:>12} {:>12.2}\n",
            row.method.label(),
            row.spams,
            row.spam_pct_of_tweets,
            row.spammers,
            row.spammer_pct_of_users
        ));
    }
    out.push_str(&format!(
        "{:<16} {:>10} {:>12.2} {:>12} {:>12.2}\n",
        "Total",
        summary.total_spams,
        100.0 * summary.total_spams as f64 / summary.total_tweets.max(1) as f64,
        summary.total_spammers,
        100.0 * summary.total_spammers as f64 / summary.total_users.max(1) as f64,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::{ProfileAttribute, SampleAttribute};
    use crate::labeling::LabelMethod;
    use crate::monitor::{Runner, RunnerConfig};
    use ph_twitter_sim::engine::SimConfig;

    fn run_pipeline() -> (Engine, Vec<CollectedTweet>, GroundTruthDataset) {
        let mut engine = Engine::new(SimConfig {
            seed: 61,
            num_organic: 600,
            num_campaigns: 4,
            accounts_per_campaign: 8,
            suspension_rate_per_hour: 0.02,
            ..Default::default()
        });
        let runner = Runner::new(RunnerConfig {
            slots: vec![
                SampleAttribute::profile(ProfileAttribute::ListsPerDay, 1.0),
                SampleAttribute::profile(ProfileAttribute::FollowersCount, 10_000.0),
                SampleAttribute::profile(ProfileAttribute::FavoritesCount, 200_000.0),
            ],
            ..Default::default()
        });
        let report = runner.run(&mut engine, 40);
        let dataset = label_collection(&report.collected, &engine, &PipelineConfig::default());
        (engine, report.collected, dataset)
    }

    #[test]
    fn pipeline_labels_everything_with_full_coverage() {
        let (_, collected, dataset) = run_pipeline();
        assert!(!collected.is_empty());
        assert!(dataset.labels.tweet_labels.iter().all(Option::is_some));
        assert_eq!(dataset.summary.total_tweets, collected.len());
    }

    #[test]
    fn labels_are_accurate_against_ground_truth() {
        let (engine, collected, dataset) = run_pipeline();
        let gt = engine.ground_truth();
        let correct = collected
            .iter()
            .zip(&dataset.labels.tweet_labels)
            .filter(|(c, l)| l.unwrap().spam == gt.is_spam(&c.tweet))
            .count();
        let accuracy = correct as f64 / collected.len() as f64;
        assert!(
            accuracy > 0.95,
            "pipeline ground truth too noisy: {accuracy:.3}"
        );
    }

    #[test]
    fn multiple_methods_contribute() {
        let (_, _, dataset) = run_pipeline();
        let contributing = LabelMethod::ALL
            .iter()
            .filter(|&&m| {
                dataset.labels.spam_by_method(m) > 0 || dataset.labels.spammers_by_method(m) > 0
            })
            .count();
        assert!(
            contributing >= 2,
            "only {contributing} labeling methods contributed"
        );
    }

    #[test]
    fn summary_rows_are_in_paper_order() {
        let (_, _, dataset) = run_pipeline();
        let methods: Vec<LabelMethod> = dataset.summary.rows.iter().map(|r| r.method).collect();
        assert_eq!(methods, LabelMethod::ALL.to_vec());
    }

    #[test]
    fn table3_formats() {
        let (_, _, dataset) = run_pipeline();
        let text = format_table3(&dataset.summary);
        assert!(text.contains("Suspended"));
        assert!(text.contains("Human Labeling"));
        assert!(text.contains("Total"));
    }

    use ph_twitter_sim::engine::Engine;
}
