//! Regenerates the paper's tables and figures.
//!
//! Every table in this crate follows the same two-phase protocol the paper
//! uses (§V):
//!
//! 1. **Ground-truth phase** — a small random-attribute network monitors
//!    for a while; its collection is labeled by the §IV-B pipeline and
//!    trains the detector (Tables III/IV).
//! 2. **Measurement phase** — the full Table I/II network (or the advanced
//!    / baseline variants) monitors; the detector classifies the stream;
//!    per-attribute statistics, PGE rankings and comparisons are computed
//!    (Tables V–VII, Figures 2–6).
//!
//! Each table is a function in the [`TABLES`] registry that renders into a
//! [`Report`] from shared [`Fixtures`], which build each phase's world at
//! most once. The `paper` binary runs the registry into `results/`;
//! EXPERIMENTS.md records the outputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ph_core::attributes::SampleAttribute;
use ph_core::detector::{build_training_data, DetectorConfig, SpamDetector};
use ph_core::features::DEFAULT_TAU;
use ph_core::labeling::pipeline::{label_collection, GroundTruthDataset, PipelineConfig};
use ph_core::monitor::{MonitorReport, Runner, RunnerConfig};
use ph_core::pge::{pge_ranking_with_min, PgeEntry};
use ph_core::selection::SelectorConfig;
use ph_ml::data::Dataset;
use ph_ml::forest::RandomForestConfig;
use ph_ml::metrics::ClassificationReport;
use ph_twitter_sim::engine::{Engine, SimConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cell::OnceCell;
use std::fmt::{self, Write};

mod ablations;
mod figures;
mod tables;

/// Renders one table from the shared fixtures into a report.
pub type Render = fn(&Fixtures, &mut Report) -> fmt::Result;

/// `[(name, render)]` for tables named after their render functions.
macro_rules! registry {
    ($($module:ident::$table:ident),* $(,)?) => {
        [$((stringify!($table), $module::$table as Render)),*]
    };
}

/// Every table the driver regenerates, by the stem of its
/// `results/<name>.txt`, in run order.
pub const TABLES: [(&str, Render); 18] = registry![
    tables::table2_selection,
    tables::table3_labeling,
    tables::table4_classifiers,
    tables::table5_top_attributes,
    tables::table6_pge,
    tables::table7_comparison,
    figures::fig2_spam_distribution,
    figures::fig3_profile_attributes,
    figures::fig4_hashtag_attributes,
    figures::fig5_trending_attributes,
    figures::fig6_advanced_vs_random,
    ablations::ablation_switching,
    ablations::ablation_active_screening,
    ablations::ablation_env_score,
    ablations::ablation_mention_only,
    ablations::ablation_sketch,
    ablations::ablation_drift,
    ablations::feature_importance,
];

/// One table's output: its text, byte for byte what `results/<name>.txt`
/// holds, and the plottable series written beside it.
#[derive(Debug, Default, PartialEq)]
pub struct Report {
    /// The rendered text.
    pub text: String,
    /// Series CSVs by file name (e.g. `fig2_series.csv`).
    pub csvs: Vec<(&'static str, String)>,
}

impl Report {
    /// A horizontal rule + title, shared by all tables.
    pub(crate) fn banner(&mut self, title: &str) -> fmt::Result {
        let rule = "=".repeat(72);
        writeln!(self, "{rule}\n{title}\n{rule}")
    }
}

impl fmt::Write for Report {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.text.write_str(s)
    }
}

/// The worlds the tables share, each built on first use and at most once:
/// the ground-truth phase (Tables III/IV, feature importance, the
/// environment-score ablation) and the full two-phase protocol (Tables
/// V–VII, Figures 2–6). Tables that change the world build their own.
pub struct Fixtures {
    /// The scale every table runs at.
    pub(crate) scale: ExperimentScale,
    ground_truth: OnceCell<GroundTruth>,
    full_run: OnceCell<FullRun>,
}

impl Fixtures {
    /// Fixtures at `scale`, none built yet.
    pub fn new(scale: ExperimentScale) -> Self {
        Self {
            scale,
            ground_truth: OnceCell::new(),
            full_run: OnceCell::new(),
        }
    }

    /// The ground-truth phase, built on first use.
    pub(crate) fn ground_truth(&self) -> &GroundTruth {
        self.ground_truth
            .get_or_init(|| GroundTruth::build(&self.scale))
    }

    /// The full two-phase protocol, built on first use.
    pub(crate) fn full_run(&self) -> &FullRun {
        self.full_run.get_or_init(|| FullRun::build(&self.scale))
    }

    /// The full run's PGE ranking over slots with at least half their
    /// nominal node-hours (10 nodes for every measured hour).
    pub(crate) fn pge_ranking(&self) -> Vec<PgeEntry> {
        let run = self.full_run();
        pge_ranking_with_min(
            &run.report,
            &run.predictions,
            0.5 * self.scale.hours as f64 * 10.0,
        )
    }
}

/// Scale of an experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentScale {
    /// Organic population size.
    pub organic: usize,
    /// Number of spam campaigns.
    pub campaigns: usize,
    /// Accounts per campaign.
    pub per_campaign: usize,
    /// Ground-truth (training) monitoring hours.
    pub gt_hours: u64,
    /// Measurement monitoring hours.
    pub hours: u64,
    /// Master seed.
    pub seed: u64,
    /// Trees in the production forest (70 at paper scale).
    pub forest_trees: usize,
}

impl ExperimentScale {
    /// Seconds-scale run for CI and quick iteration.
    pub fn small() -> Self {
        Self {
            organic: 3_000,
            campaigns: 8,
            per_campaign: 30,
            gt_hours: 30,
            hours: 40,
            seed: 42,
            forest_trees: 20,
        }
    }

    /// The default benchmarking scale (~a minute per binary in release).
    pub fn default_scale() -> Self {
        Self {
            organic: 8_000,
            campaigns: 14,
            per_campaign: 55,
            gt_hours: 60,
            hours: 120,
            seed: 42,
            forest_trees: 40,
        }
    }

    /// Paper-shaped scale: the full 700-hour / 2,400-node protocol
    /// (minutes of CPU; use for EXPERIMENTS.md regeneration).
    pub fn paper() -> Self {
        Self {
            organic: 15_000,
            campaigns: 25,
            per_campaign: 70,
            gt_hours: 300,
            hours: 700,
            seed: 42,
            forest_trees: 70,
        }
    }

    /// The simulator configuration at this scale.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            seed: self.seed,
            num_organic: self.organic,
            num_campaigns: self.campaigns,
            accounts_per_campaign: self.per_campaign,
            ..Default::default()
        }
    }

    /// Builds a fresh engine.
    pub fn build_engine(&self) -> Engine {
        Engine::new(self.sim_config())
    }

    /// The detector configuration at this scale.
    pub fn detector_config(&self) -> DetectorConfig {
        DetectorConfig {
            forest: RandomForestConfig {
                num_trees: self.forest_trees,
                ..DetectorConfig::default().forest
            },
            ..Default::default()
        }
    }
}

/// The ground-truth phase (§V-C): a 100-node network with attributes
/// randomly drawn from Table I monitors for `gt_hours`; its collection is
/// pipeline-labeled and becomes the training matrix at the default τ
/// (Table IV cross-validates on it).
pub(crate) struct GroundTruth {
    /// The engine after monitoring and ageing.
    pub(crate) engine: Engine,
    /// The ground-truth network's collection.
    pub(crate) report: MonitorReport,
    /// Table III's labels and summary.
    pub(crate) dataset: GroundTruthDataset,
    /// The labeled collection as a feature matrix.
    pub(crate) data: Dataset,
}

impl GroundTruth {
    /// Runs the phase on a fresh engine.
    pub(crate) fn build(scale: &ExperimentScale) -> Self {
        let mut engine = scale.build_engine();
        let mut rng = StdRng::seed_from_u64(scale.seed ^ 0x6007);
        let mut slots = SampleAttribute::standard_slots();
        slots.shuffle(&mut rng);
        slots.truncate(10); // 10 slots × 10 accounts = the paper's 100 nodes
        let runner = Runner::new(RunnerConfig {
            slots,
            selector: SelectorConfig::default(),
            switch_interval_hours: 1,
            seed: scale.seed ^ 0x17ab,
            ..Default::default()
        });
        let report = runner.run(&mut engine, scale.gt_hours);
        // The paper collected in March 2018 and labeled in September: by
        // labeling time Twitter's suspension process had months to catch up.
        // Age the network before checking suspension flags.
        engine.run_hours(scale.gt_hours / 2);
        let dataset = label_collection(&report.collected, &engine, &PipelineConfig::default());
        let (data, _) =
            build_training_data(&report.collected, &dataset.labels, &engine, DEFAULT_TAU);
        Self {
            engine,
            report,
            dataset,
            data,
        }
    }
}

/// The measurement phase after the ground-truth one: the detector trained
/// on its matrix, the full standard network's run with hourly switching,
/// and the detector's verdicts on that run.
pub(crate) struct FullRun {
    /// The trained detector.
    pub(crate) detector: SpamDetector,
    /// The measurement-phase monitoring report.
    pub(crate) report: MonitorReport,
    /// Per-tweet spam predictions over `report.collected`.
    pub(crate) predictions: Vec<bool>,
}

impl FullRun {
    /// Runs both phases on a fresh engine.
    pub(crate) fn build(scale: &ExperimentScale) -> Self {
        let GroundTruth {
            mut engine, data, ..
        } = GroundTruth::build(scale);
        let detector = SpamDetector::train(&scale.detector_config(), &data);
        let runner = Runner::new(RunnerConfig {
            slots: SampleAttribute::standard_slots(),
            selector: SelectorConfig::default(),
            switch_interval_hours: 1,
            seed: scale.seed ^ 0x2bad,
            ..Default::default()
        });
        let report = runner.run(&mut engine, scale.hours);
        let predictions = detector
            .classify_collection(&report.collected, &engine)
            .predictions;
        Self {
            detector,
            report,
            predictions,
        }
    }
}

/// A cross-validation table: one row per model, its name in a first
/// column `width` wide, then accuracy, precision, recall and FPR.
fn cv_table<'a>(
    out: &mut Report,
    (header, width): (&str, usize),
    rows: impl IntoIterator<Item = (&'a str, &'a ClassificationReport)>,
) -> fmt::Result {
    writeln!(
        out,
        "{header:<width$} {:>10} {:>10} {:>8} {:>16}",
        "Accuracy", "Precision", "Recall", "False Positive"
    )?;
    for (name, m) in rows {
        writeln!(
            out,
            "{name:<width$} {:>10.3} {:>10.3} {:>8.3} {:>16.3}",
            m.accuracy, m.precision, m.recall, m.false_positive_rate
        )?;
    }
    Ok(())
}

/// Formats a sample value: integers bare, fractions to three places.
fn fmt_sample(value: f64) -> String {
    if value.fract().abs() < 1e-9 {
        format!("{}", value as i64)
    } else {
        format!("{value:.3}")
    }
}

/// Formats a count with thousands separators.
pub(crate) fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let (s, d, p) = (
            ExperimentScale::small(),
            ExperimentScale::default_scale(),
            ExperimentScale::paper(),
        );
        assert!(s.organic < d.organic && d.organic < p.organic);
        assert!(s.hours < d.hours && d.hours < p.hours);
        assert_eq!(p.forest_trees, 70);
    }

    #[test]
    fn fmt_count_inserts_separators() {
        assert_eq!(fmt_count(5), "5");
        assert_eq!(fmt_count(1_234), "1,234");
        assert_eq!(fmt_count(5_618_476), "5,618,476");
    }

    /// Seconds-scale worlds for protocol tests.
    fn tiny() -> ExperimentScale {
        ExperimentScale {
            organic: 500,
            campaigns: 3,
            per_campaign: 6,
            gt_hours: 20,
            hours: 5,
            seed: 9,
            forest_trees: 5,
        }
    }

    #[test]
    fn ground_truth_phase_produces_training_data() {
        let GroundTruth {
            report,
            dataset,
            data,
            ..
        } = GroundTruth::build(&tiny());
        assert!(!report.collected.is_empty());
        assert_eq!(dataset.labels.tweet_labels.len(), report.collected.len());
        assert!(dataset.summary.total_spams > 0, "no spam labeled");
        assert_eq!(data.len(), report.collected.len());
    }

    #[test]
    fn tables_render_the_same_alone_and_after_each_other() {
        let render = |fixtures: &Fixtures, render: Render| {
            let mut report = Report::default();
            render(fixtures, &mut report).expect("a String takes every write");
            report
        };
        // Alone first, last table first: a table that leaves process-global
        // state behind has not yet run when the tables after it render
        // alone, but has when they render after it over shared fixtures.
        let mut alone: Vec<Report> = TABLES
            .iter()
            .rev()
            .map(|&(_, r)| render(&Fixtures::new(tiny()), r))
            .collect();
        alone.reverse();
        let shared = Fixtures::new(tiny());
        for (&(name, r), alone) in TABLES.iter().zip(&alone) {
            assert!(!alone.text.is_empty(), "{name} rendered nothing");
            assert_eq!(
                render(&shared, r),
                *alone,
                "{name} renders differently after the tables before it"
            );
        }
    }
}
