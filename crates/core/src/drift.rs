//! Adapting to spammer drift (§IV-C future work).
//!
//! The paper's proposed strategy: "keep track of the spammers' tastes in
//! real time … update its spam features automatically … meanwhile, the
//! ground truth training dataset also keeps updating". This module
//! implements that loop as an [`AdaptiveDetector`]: it classifies the live
//! stream with the current model, accumulates recent traffic in a rolling
//! window, periodically re-labels the window with the §IV-B pipeline and
//! retrains. The `ablation_drift` bench compares it against a frozen
//! detector across a simulated taste flip.

use ph_twitter_sim::engine::Engine;
use serde::{Deserialize, Serialize};

use crate::detector::{build_training_data, DetectorConfig, SpamDetector};
use crate::labeling::pipeline::{label_collection, PipelineConfig};
use crate::monitor::CollectedTweet;

/// Retraining policy of the adaptive detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Hours between retraining rounds.
    pub retrain_interval_hours: u64,
    /// Rolling training window: only tweets from the last this-many hours
    /// are re-labeled and learned from.
    pub window_hours: u64,
    /// Detector hyper-parameters.
    pub detector: DetectorConfig,
    /// Labeling-pipeline configuration used at each retraining round.
    pub pipeline: PipelineConfig,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            retrain_interval_hours: 12,
            window_hours: 48,
            detector: DetectorConfig::default(),
            pipeline: PipelineConfig::default(),
        }
    }
}

/// A detector that retrains itself on a rolling, freshly labeled window.
pub struct AdaptiveDetector {
    config: AdaptiveConfig,
    detector: Option<SpamDetector>,
    window: Vec<CollectedTweet>,
    last_trained_hour: Option<u64>,
    retrain_count: usize,
}

impl std::fmt::Debug for AdaptiveDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveDetector")
            .field("window_len", &self.window.len())
            .field("retrain_count", &self.retrain_count)
            .field("trained", &self.detector.is_some())
            .finish()
    }
}

impl AdaptiveDetector {
    /// Creates an untrained adaptive detector; the first retraining round
    /// happens as soon as a window is available.
    pub fn new(config: AdaptiveConfig) -> Self {
        Self {
            config,
            detector: None,
            window: Vec::new(),
            last_trained_hour: None,
            retrain_count: 0,
        }
    }

    /// Number of completed retraining rounds.
    pub fn retrain_count(&self) -> usize {
        self.retrain_count
    }

    /// True once a model has been trained.
    pub fn is_trained(&self) -> bool {
        self.detector.is_some()
    }

    /// Processes one batch of freshly collected tweets at `hour`:
    /// classifies them with the current model (all-ham before the first
    /// training round), extends the rolling window, and retrains when the
    /// interval has elapsed.
    pub fn process(&mut self, batch: &[CollectedTweet], engine: &Engine, hour: u64) -> Vec<bool> {
        let predictions = match &self.detector {
            Some(d) => d.classify_collection(batch, engine).predictions,
            None => vec![false; batch.len()],
        };
        self.window.extend(batch.iter().cloned());
        let horizon = hour.saturating_sub(self.config.window_hours);
        self.window.retain(|c| c.hour >= horizon);

        let due = match self.last_trained_hour {
            None => !self.window.is_empty(),
            Some(at) => hour.saturating_sub(at) >= self.config.retrain_interval_hours,
        };
        if due && !self.window.is_empty() {
            self.retrain(engine);
            self.last_trained_hour = Some(hour);
        }
        predictions
    }

    /// Re-labels the window with the full pipeline and fits a fresh model.
    /// Skipped (silently) when the window only contains one class — there
    /// is nothing to separate yet.
    fn retrain(&mut self, engine: &Engine) {
        let ground_truth = label_collection(&self.window, engine, &self.config.pipeline);
        let spam = ground_truth.labels.num_spam();
        let labeled = ground_truth
            .labels
            .tweet_labels
            .iter()
            .filter(|l| l.is_some())
            .count();
        if spam == 0 || spam == labeled {
            return;
        }
        let (data, _) = build_training_data(
            &self.window,
            &ground_truth.labels,
            engine,
            self.config.detector.tau,
        );
        self.detector = Some(SpamDetector::train(&self.config.detector, &data));
        self.retrain_count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::{ProfileAttribute, SampleAttribute};
    use crate::monitor::{Runner, RunnerConfig};
    use ph_ml::forest::RandomForestConfig;
    use ph_twitter_sim::engine::SimConfig;

    fn engine() -> Engine {
        Engine::new(SimConfig {
            seed: 91,
            num_organic: 500,
            num_campaigns: 3,
            accounts_per_campaign: 10,
            ..Default::default()
        })
    }

    fn small_adaptive() -> AdaptiveDetector {
        AdaptiveDetector::new(AdaptiveConfig {
            retrain_interval_hours: 8,
            window_hours: 24,
            detector: DetectorConfig {
                forest: RandomForestConfig {
                    num_trees: 8,
                    ..DetectorConfig::default().forest
                },
                ..Default::default()
            },
            ..Default::default()
        })
    }

    #[test]
    fn adaptive_detector_trains_and_classifies() {
        let mut engine = engine();
        let runner = Runner::new(RunnerConfig {
            slots: vec![SampleAttribute::profile(ProfileAttribute::ListsPerDay, 1.0)],
            ..Default::default()
        });
        let mut adaptive = small_adaptive();
        let mut total = 0usize;
        for round in 0..4 {
            let report = runner.run(&mut engine, 8);
            let hour = engine.now().whole_hours();
            let predictions = adaptive.process(&report.collected, &engine, hour);
            assert_eq!(predictions.len(), report.collected.len());
            total += report.collected.len();
            if round == 0 {
                // Before the first training round, everything is ham.
                assert!(predictions.iter().all(|&p| !p));
            }
        }
        assert!(total > 0);
        assert!(adaptive.is_trained(), "never trained in 32 hours");
        assert!(adaptive.retrain_count() >= 2, "too few retraining rounds");
    }

    #[test]
    fn window_is_bounded() {
        let mut engine = engine();
        let runner = Runner::new(RunnerConfig {
            slots: vec![SampleAttribute::profile(
                ProfileAttribute::FollowersCount,
                10_000.0,
            )],
            ..Default::default()
        });
        let mut adaptive = AdaptiveDetector::new(AdaptiveConfig {
            window_hours: 5,
            retrain_interval_hours: 100, // never retrain in this test
            ..AdaptiveConfig::default()
        });
        for _ in 0..4 {
            let report = runner.run(&mut engine, 5);
            let hour = engine.now().whole_hours();
            adaptive.process(&report.collected, &engine, hour);
            for c in &adaptive.window {
                assert!(hour - c.hour <= 5, "window retained stale tweets");
            }
        }
    }

    #[test]
    fn untrained_detector_reports_status() {
        let adaptive = small_adaptive();
        assert!(!adaptive.is_trained());
        assert_eq!(adaptive.retrain_count(), 0);
        assert!(format!("{adaptive:?}").contains("retrain_count"));
    }
}
