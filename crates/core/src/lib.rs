//! Pseudo-honeypot: efficient and scalable spam sniffing over existing
//! social-network accounts.
//!
//! This crate implements the primary contribution of *Pseudo-Honeypot:
//! Toward Efficient and Scalable Spam Sniffer* (DSN 2019) on top of the
//! [`ph_twitter_sim`] substrate:
//!
//! 1. [`attributes`] — the 24-attribute taxonomy (Tables I/II),
//! 2. [`selection`] — attribute-based node selection with Active/Dormant
//!    screening (§III-B/D),
//! 3. [`monitor`] — hourly-switched streaming collection (§III-E),
//! 4. [`features`] — the 58-feature extraction (§IV-A),
//! 5. [`labeling`] — suspended/clustering/rule-based/manual ground-truth
//!    labeling with Table III accounting (§IV-B),
//! 6. [`detector`] — Table IV model selection + the RF production detector
//!    (§IV-C),
//! 7. [`pge`] — per-attribute statistics and the PGE metric (§V-E),
//! 8. [`advanced`] — the top-10-attribute advanced system (§V-E),
//! 9. [`baselines`] — random-account and traditional-honeypot baselines,
//!    plus the published Table VII rows,
//! 10. [`step`] — the hourly cycle (plan → monitor → classify) that
//!     `sniff`, `replay` and the `serve` daemon share.
//!
//! # Example: a complete sniffing campaign
//!
//! ```
//! use ph_core::attributes::{ProfileAttribute, SampleAttribute};
//! use ph_core::labeling::pipeline::{label_collection, PipelineConfig};
//! use ph_core::monitor::{Runner, RunnerConfig};
//! use ph_twitter_sim::engine::{Engine, SimConfig};
//!
//! let mut engine = Engine::new(SimConfig {
//!     num_organic: 400,
//!     num_campaigns: 2,
//!     accounts_per_campaign: 6,
//!     ..Default::default()
//! });
//! let runner = Runner::new(RunnerConfig {
//!     slots: vec![SampleAttribute::profile(ProfileAttribute::ListsPerDay, 1.0)],
//!     ..Default::default()
//! });
//! let report = runner.run(&mut engine, 10);
//! let ground_truth = label_collection(&report.collected, &engine, &PipelineConfig::default());
//! assert_eq!(ground_truth.labels.tweet_labels.len(), report.collected.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advanced;
pub mod attributes;
pub mod baselines;
pub mod detector;
pub mod drift;
pub mod features;
pub mod labeling;
pub mod monitor;
pub mod network;
pub mod observe;
pub mod pge;
pub mod selection;
pub mod step;

pub use attributes::{AttributeKind, ProfileAttribute, SampleAttribute, TrendAttribute};
pub use detector::{DetectorConfig, SpamDetector, StreamClassifier, Verdict};
pub use features::{FeatureExtractor, FEATURE_COUNT};
pub use monitor::{CollectedTweet, MonitorReport, Runner, RunnerConfig, StreamMonitor};
pub use network::PseudoHoneypotNetwork;
pub use pge::{overall_pge, pge_ranking, PgeEntry};
pub use selection::{select_network, select_random_network, SelectorConfig};
