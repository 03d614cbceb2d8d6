//! The learning-based spam detector (§IV-C): model selection over the five
//! Table IV algorithms and the Random Forest production classifier
//! (70 trees, depth cap 700).

use std::collections::HashSet;

use ph_exec::ExecConfig;
use ph_ml::cv::{compare_algorithms, CrossValidation};
use ph_ml::data::Dataset;
use ph_ml::flat::FlatForest;
use ph_ml::forest::{RandomForest, RandomForestConfig};
use ph_ml::tree::DecisionTreeConfig;
use ph_ml::{Algorithm, Classifier};
use ph_twitter_sim::engine::Engine;
use ph_twitter_sim::AccountId;
use serde::{Deserialize, Serialize};

use crate::features::{self, FeatureExtractor, ProfileLookup};
use crate::labeling::LabeledCollection;
use crate::monitor::CollectedTweet;

/// Detector configuration. Defaults follow the paper: RF with 70 trees,
/// each capped at depth 700.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// The algorithm deployed (the paper selects RF by cross-validation).
    pub algorithm: PaperAlgorithm,
    /// RF parameters used when `algorithm` is RF.
    pub forest: RandomForestConfig,
    /// Training seed.
    pub seed: u64,
    /// τ of the environment score.
    pub tau: f64,
}

/// Serde-friendly mirror of [`ph_ml::Algorithm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PaperAlgorithm {
    /// Decision tree.
    DecisionTree,
    /// k-nearest neighbours.
    KNearestNeighbors,
    /// Linear SVM.
    LinearSvm,
    /// Gradient boosting.
    GradientBoosting,
    /// Random forest (paper's choice).
    RandomForest,
}

impl From<PaperAlgorithm> for Algorithm {
    fn from(a: PaperAlgorithm) -> Algorithm {
        match a {
            PaperAlgorithm::DecisionTree => Algorithm::DecisionTree,
            PaperAlgorithm::KNearestNeighbors => Algorithm::KNearestNeighbors,
            PaperAlgorithm::LinearSvm => Algorithm::LinearSvm,
            PaperAlgorithm::GradientBoosting => Algorithm::GradientBoosting,
            PaperAlgorithm::RandomForest => Algorithm::RandomForest,
        }
    }
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            algorithm: PaperAlgorithm::RandomForest,
            forest: RandomForestConfig {
                num_trees: 70,
                tree: DecisionTreeConfig {
                    max_depth: 700,
                    ..Default::default()
                },
                ..Default::default()
            },
            seed: 13,
            tau: crate::features::DEFAULT_TAU,
        }
    }
}

/// Builds the training matrix from a labeled collection: features are
/// extracted in stream order with environment-score feedback from the
/// labels (the online update of §IV-A). Unlabeled tweets (partial manual
/// coverage) are skipped.
///
/// Returns the dataset plus the collected-index of each row.
///
/// # Panics
///
/// Panics if no labeled tweets exist.
pub fn build_training_data(
    collected: &[CollectedTweet],
    labels: &LabeledCollection,
    engine: &Engine,
    tau: f64,
) -> (Dataset, Vec<usize>) {
    build_training_data_with(collected, labels, engine, tau, &ExecConfig::sequential())
}

/// [`build_training_data`] with the pure feature phase sharded across
/// `exec`'s workers. The label lookup and environment-score feedback fold
/// stays sequential (it is stream-order-dependent by design), so the
/// resulting dataset is identical to the sequential build at any thread
/// count.
///
/// # Panics
///
/// Panics if no labeled tweets exist.
pub fn build_training_data_with(
    collected: &[CollectedTweet],
    labels: &LabeledCollection,
    engine: &Engine,
    tau: f64,
    exec: &ExecConfig,
) -> (Dataset, Vec<usize>) {
    let _span = ph_telemetry::span("features.extract_training");
    let _phase = ph_trace::phase("features.extract_training");
    let rest = engine.rest();
    let mut matrix = features::pure_batch_matrix(collected, &rest, exec);
    let mut extractor = FeatureExtractor::with_tau(tau);
    let mut rows = Vec::new();
    let mut ys = Vec::new();
    let mut indices = Vec::new();
    for (i, c) in collected.iter().enumerate() {
        extractor.finish_into(c, matrix.row_mut(i));
        if let Some(label) = labels.tweet_labels[i] {
            rows.push(matrix.row(i).to_vec());
            ys.push(label.spam);
            indices.push(i);
            extractor.record_verdict(c.slot, label.spam);
        }
    }
    let dataset = Dataset::new(rows, ys).expect("labeled collection is non-empty and rectangular");
    (dataset, indices)
}

/// Cross-validates all five Table IV algorithms on a training set.
pub fn model_selection(data: &Dataset, folds: usize, seed: u64) -> Vec<CrossValidation> {
    compare_algorithms(data, folds, seed)
}

/// The outcome of classifying a monitored collection.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ClassificationOutcome {
    /// Per-tweet spam predictions, parallel to the collection.
    pub predictions: Vec<bool>,
    /// Accounts with at least one spam-predicted tweet.
    pub spammers: HashSet<AccountId>,
}

impl ClassificationOutcome {
    /// Number of tweets classified spam.
    pub fn num_spam(&self) -> usize {
        self.predictions.iter().filter(|&&p| p).count()
    }

    /// Number of classified spammer accounts.
    pub fn num_spammers(&self) -> usize {
        self.spammers.len()
    }
}

/// Classifier-confidence histogram: 20 uniform buckets over [0, 1].
/// Verdict and score come from one `predict_with_score()` call, whose
/// verdict is exactly `predict()`'s; the histogram only records the
/// score, so classification behavior is untouched by the instrumentation.
fn confidence_histogram() -> std::sync::Arc<ph_telemetry::Histogram> {
    let bounds: Vec<f64> = (1..=20).map(|i| i as f64 * 0.05).collect();
    ph_telemetry::histogram("detect.rf_confidence", &bounds)
}

/// Verdict-margin histogram: 20 uniform buckets over the absolute vote
/// margin `|2·score − 1|` (0 = split jury, 1 = unanimous). Recorded on
/// every verdict, like the confidence histogram.
fn margin_histogram() -> std::sync::Arc<ph_telemetry::Histogram> {
    let bounds: Vec<f64> = (1..=20).map(|i| i as f64 * 0.05).collect();
    ph_telemetry::histogram("verdict.margin", &bounds)
}

/// The trained production detector.
pub struct SpamDetector {
    model: Model,
    tau: f64,
}

/// The deployed classifier. RF keeps its concrete flat forest — the
/// explanation path needs the tree structure that `dyn Classifier`
/// erases — and stores it once.
enum Model {
    Forest(FlatForest),
    Other(Box<dyn Classifier>),
}

impl Model {
    fn classifier(&self) -> &dyn Classifier {
        match self {
            Model::Forest(forest) => forest,
            Model::Other(model) => model.as_ref(),
        }
    }
}

impl std::fmt::Debug for SpamDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpamDetector")
            .field("tau", &self.tau)
            .finish()
    }
}

impl SpamDetector {
    /// Trains the configured algorithm on a training set.
    pub fn train(config: &DetectorConfig, data: &Dataset) -> Self {
        let _span = ph_telemetry::span("ml.train");
        let _phase = ph_trace::phase("ml.train");
        let model = match config.algorithm {
            PaperAlgorithm::RandomForest => {
                // Train on the pointer forest, deploy the flattened
                // packed layout: bit-identical predictions, no per-level
                // enum branch or pointer chase on the classify hot path.
                let forest = RandomForest::fit(&config.forest, data, config.seed);
                Model::Forest(FlatForest::from_forest(&forest))
            }
            other => Model::Other(Algorithm::from(other).fit_default(data, config.seed)),
        };
        if crate::observe::is_enabled() {
            // Capture the per-feature reference histograms this model
            // was trained against; the drift monitor scores live hours
            // against them.
            crate::observe::install_reference(crate::observe::FeatureReference::from_dataset(data));
        }
        Self {
            model,
            tau: config.tau,
        }
    }

    /// Classifies a monitored collection in stream order, feeding each
    /// verdict back into the environment score as the paper's detector
    /// does ("update its spam features automatically … once there are new
    /// spams captured").
    pub fn classify_collection(
        &self,
        collected: &[CollectedTweet],
        engine: &Engine,
    ) -> ClassificationOutcome {
        self.classify_batch(collected, engine, &ExecConfig::sequential())
    }

    /// [`classify_collection`](Self::classify_collection) with the pure
    /// feature phase sharded across `exec`'s workers. The predict +
    /// environment-score fold stays sequential — verdict feedback makes
    /// classification inherently stream-ordered — so the outcome is
    /// identical at any thread count.
    pub fn classify_batch(
        &self,
        collected: &[CollectedTweet],
        engine: &Engine,
        exec: &ExecConfig,
    ) -> ClassificationOutcome {
        let mut extractor = FeatureExtractor::with_tau(self.tau);
        let verdicts = self.classify_fold(&mut extractor, collected, engine, exec);
        let mut outcome = ClassificationOutcome::default();
        for (c, v) in collected.iter().zip(verdicts) {
            outcome.predictions.push(v.spam);
            if v.spam {
                outcome.spammers.insert(c.tweet.author);
            }
        }
        outcome
    }

    /// The one classify fold: sharded pure-feature phase, then the
    /// sequential predict + environment-score feedback loop against the
    /// *caller's* extractor — which is what lets the streaming classifier
    /// carry extractor state across hourly batches while the batch path
    /// uses a fresh one. Owns the `detect.classify` span/phase and the
    /// `detect.tweets_classified` / `detect.spam_predicted` counters.
    fn classify_fold<P: ProfileLookup + ?Sized>(
        &self,
        extractor: &mut FeatureExtractor,
        collected: &[CollectedTweet],
        profiles: &P,
        exec: &ExecConfig,
    ) -> Vec<Verdict> {
        let _span = ph_telemetry::span("detect.classify");
        let _phase = ph_trace::phase("detect.classify");
        let mut matrix = features::pure_batch_matrix(collected, profiles, exec);
        let confidence = confidence_histogram();
        let margin = margin_histogram();
        // Zero-cost when off: one relaxed load decides; the explainer's
        // node-value table is only built for observed batches.
        let observing = crate::observe::is_enabled();
        let explainer = if observing {
            match &self.model {
                Model::Forest(forest) => Some(forest.explainer()),
                Model::Other(_) => None,
            }
        } else {
            None
        };
        let mut verdicts = Vec::with_capacity(collected.len());
        for (i, c) in collected.iter().enumerate() {
            extractor.finish_into(c, matrix.row_mut(i));
            let row = matrix.row(i);
            let (spam, score) = self.model.classifier().predict_with_score(row);
            confidence.record(score);
            margin.record((2.0 * score - 1.0).abs());
            if observing {
                crate::observe::drift_observe(c.hour, row);
                if let Some(explainer) = &explainer {
                    crate::observe::record_explanation(
                        c.hour,
                        spam,
                        score,
                        &explainer.explain(row),
                    );
                }
            }
            extractor.record_verdict(c.slot, spam);
            verdicts.push(Verdict { spam, score });
        }
        ph_telemetry::cached_counter!("detect.tweets_classified").add(verdicts.len() as u64);
        ph_telemetry::cached_counter!("detect.spam_predicted")
            .add(verdicts.iter().filter(|v| v.spam).count() as u64);
        verdicts
    }
}

/// One live classification verdict: the binary call plus the classifier
/// confidence recorded alongside it (never thresholded).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// The spam prediction.
    pub spam: bool,
    /// Classifier confidence in [0, 1].
    pub score: f64,
}

/// The daemon's incremental classifier: a [`SpamDetector`] plus one
/// *persistent* [`FeatureExtractor`] whose environment-score state carries
/// across hourly batches. Classifying a run hour-by-hour through one
/// instance therefore yields exactly the verdict sequence of
/// [`SpamDetector::classify_batch`] over the whole collection at once —
/// the property the serve restart-equivalence contract rests on (a
/// resumed daemon rebuilds this state by replaying stored hours).
#[derive(Debug)]
pub struct StreamClassifier {
    detector: SpamDetector,
    extractor: FeatureExtractor,
}

impl StreamClassifier {
    /// Wraps a trained detector with fresh stream state (start of hour 0).
    pub fn new(detector: SpamDetector) -> Self {
        let extractor = FeatureExtractor::with_tau(detector.tau);
        Self {
            detector,
            extractor,
        }
    }

    /// The wrapped detector.
    pub fn detector(&self) -> &SpamDetector {
        &self.detector
    }

    /// Classifies one hour's collected batch in delivery order, carrying
    /// the environment-score state forward through the same fold as
    /// [`SpamDetector::classify_batch`]. Profiles come from `profiles` —
    /// the engine itself, or a copy of its directory (see
    /// [`ProfileLookup`]).
    pub fn classify_hour<P: ProfileLookup + ?Sized>(
        &mut self,
        collected: &[CollectedTweet],
        profiles: &P,
        exec: &ExecConfig,
    ) -> Vec<Verdict> {
        self.detector
            .classify_fold(&mut self.extractor, collected, profiles, exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::{ProfileAttribute, SampleAttribute};
    use crate::labeling::pipeline::{label_collection, PipelineConfig};
    use crate::monitor::{Runner, RunnerConfig};
    use ph_twitter_sim::engine::SimConfig;

    fn pipeline_run() -> (Engine, Vec<CollectedTweet>, LabeledCollection) {
        let mut engine = Engine::new(SimConfig {
            seed: 71,
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
            ],
            ..Default::default()
        });
        let report = runner.run(&mut engine, 50);
        let dataset = label_collection(&report.collected, &engine, &PipelineConfig::default());
        (engine, report.collected, dataset.labels)
    }

    #[test]
    fn training_data_has_58_features() {
        let (engine, collected, labels) = pipeline_run();
        let (data, indices) = build_training_data(&collected, &labels, &engine, 0.01);
        assert_eq!(data.num_features(), crate::features::FEATURE_COUNT);
        assert_eq!(data.len(), indices.len());
        assert!(data.num_positive() > 0, "no positive training examples");
        assert!(
            data.num_positive() < data.len(),
            "all-positive training set"
        );
    }

    #[test]
    fn detector_separates_spam_well() {
        let (engine, collected, labels) = pipeline_run();
        let (data, _) = build_training_data(&collected, &labels, &engine, 0.01);
        let detector = SpamDetector::train(
            &DetectorConfig {
                // Smaller forest for test speed; quality is still high.
                forest: RandomForestConfig {
                    num_trees: 15,
                    ..DetectorConfig::default().forest
                },
                ..Default::default()
            },
            &data,
        );
        let outcome = detector.classify_collection(&collected, &engine);
        assert_eq!(outcome.predictions.len(), collected.len());
        let gt = engine.ground_truth();
        let correct = collected
            .iter()
            .zip(&outcome.predictions)
            .filter(|(c, &p)| p == gt.is_spam(&c.tweet))
            .count();
        let accuracy = correct as f64 / collected.len() as f64;
        assert!(accuracy > 0.9, "detector accuracy {accuracy:.3}");
        assert!(outcome.num_spammers() > 0);
    }

    #[test]
    fn sharded_training_and_classification_match_sequential() {
        let (engine, collected, labels) = pipeline_run();
        let (data, indices) = build_training_data(&collected, &labels, &engine, 0.01);
        let exec = ExecConfig::with_threads(4);
        let (par_data, par_indices) =
            build_training_data_with(&collected, &labels, &engine, 0.01, &exec);
        assert_eq!(par_indices, indices);
        assert_eq!(par_data, data);

        let detector = SpamDetector::train(
            &DetectorConfig {
                forest: RandomForestConfig {
                    num_trees: 10,
                    ..DetectorConfig::default().forest
                },
                ..Default::default()
            },
            &data,
        );
        let sequential = detector.classify_collection(&collected, &engine);
        assert_eq!(
            detector.classify_batch(&collected, &engine, &exec),
            sequential
        );
    }

    #[test]
    fn hourly_stream_classifier_equals_one_shot_batch() {
        let (engine, collected, labels) = pipeline_run();
        let (data, _) = build_training_data(&collected, &labels, &engine, 0.01);
        let detector = SpamDetector::train(
            &DetectorConfig {
                forest: RandomForestConfig {
                    num_trees: 10,
                    ..DetectorConfig::default().forest
                },
                ..Default::default()
            },
            &data,
        );
        let exec = ExecConfig::sequential();
        let batch = detector.classify_batch(&collected, &engine, &exec);

        let detector2 = SpamDetector::train(
            &DetectorConfig {
                forest: RandomForestConfig {
                    num_trees: 10,
                    ..DetectorConfig::default().forest
                },
                ..Default::default()
            },
            &data,
        );
        let mut stream = StreamClassifier::new(detector2);
        let mut predictions = Vec::new();
        // Split by collection hour, as the daemon does.
        let mut i = 0;
        while i < collected.len() {
            let hour = collected[i].hour;
            let mut j = i;
            while j < collected.len() && collected[j].hour == hour {
                j += 1;
            }
            let verdicts = stream.classify_hour(&collected[i..j], &engine, &exec);
            predictions.extend(verdicts.into_iter().map(|v| v.spam));
            i = j;
        }
        assert_eq!(predictions, batch.predictions);
    }

    /// The daemon classifies from its own copy of the replica's profile
    /// directory, extended by the accounts each hour creates. Under heavy
    /// suspension and replacement churn that copy must give the engine's
    /// verdicts bit for bit, every hour.
    #[test]
    fn classify_hour_from_a_profile_copy_matches_the_engine() {
        use crate::monitor::{MemorySink, StreamMonitor};
        use ph_twitter_sim::Profile;

        let (training_engine, collected, labels) = pipeline_run();
        let (data, _) = build_training_data(&collected, &labels, &training_engine, 0.01);
        let config = DetectorConfig {
            forest: RandomForestConfig {
                num_trees: 10,
                ..DetectorConfig::default().forest
            },
            ..Default::default()
        };
        let mut from_engine = StreamClassifier::new(SpamDetector::train(&config, &data));
        let mut from_copy = StreamClassifier::new(SpamDetector::train(&config, &data));

        let mut live = Engine::new(SimConfig {
            seed: 72,
            num_organic: 600,
            num_campaigns: 4,
            accounts_per_campaign: 8,
            suspension_rate_per_hour: 0.5,
            campaign_replenishment_rate: 1.0,
            ..Default::default()
        });
        let streaming = live.streaming();
        let firehose =
            streaming.firehose_with_capacity(ph_twitter_sim::api::DEFAULT_QUEUE_CAPACITY);
        let mut profiles: Vec<Profile> = live.rest().profiles().cloned().collect();
        let initial_accounts = profiles.len();
        let runner = Runner::new(RunnerConfig {
            slots: vec![
                SampleAttribute::profile(ProfileAttribute::ListsPerDay, 1.0),
                SampleAttribute::profile(ProfileAttribute::FollowersCount, 10_000.0),
            ],
            switch_interval_hours: 1,
            ..Default::default()
        });
        let exec = ExecConfig::with_threads(2);
        let mut monitor = StreamMonitor::new(runner, 12);
        let mut classified = 0;
        while !monitor.complete() {
            monitor.begin_hour(&mut live);
            let delivered = streaming.poll(firehose).unwrap();
            let batch = monitor.finish_hour(delivered, 0, &mut MemorySink).unwrap();
            let known = profiles.len();
            profiles.extend(live.rest().profiles().skip(known).cloned());
            let expected = from_engine.classify_hour(&batch, &live, &exec);
            let got = from_copy.classify_hour(&batch, profiles.as_slice(), &exec);
            let bits = |v: &[Verdict]| -> Vec<(bool, u64)> {
                v.iter().map(|v| (v.spam, v.score.to_bits())).collect()
            };
            assert_eq!(
                bits(&got),
                bits(&expected),
                "hour {} diverged",
                monitor.state().next_hour - 1
            );
            classified += batch.len();
        }
        assert!(classified > 0, "nothing was classified");
        assert!(
            profiles.len() > initial_accounts,
            "churn created no accounts"
        );
    }

    #[test]
    fn model_selection_runs_all_five() {
        let (engine, collected, labels) = pipeline_run();
        let (data, _) = build_training_data(&collected, &labels, &engine, 0.01);
        // Subsample for speed if large.
        let results = model_selection(&data, 3, 5);
        assert_eq!(results.len(), 5);
        let rf = results.last().unwrap();
        assert_eq!(rf.algorithm_name, "RF");
        assert!(
            rf.mean.accuracy > 0.85,
            "RF accuracy {:.3}",
            rf.mean.accuracy
        );
    }

    #[test]
    fn default_config_matches_paper() {
        let c = DetectorConfig::default();
        assert_eq!(c.forest.num_trees, 70);
        assert_eq!(c.forest.tree.max_depth, 700);
        assert_eq!(c.algorithm, PaperAlgorithm::RandomForest);
    }
}
