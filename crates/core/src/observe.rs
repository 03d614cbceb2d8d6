//! Decision observability: verdict explanations and per-feature drift
//! monitoring for the production detector.
//!
//! A verdict is normally a bare probability. A [`DecisionLog`] makes the
//! *decisions* of one session inspectable after the fact:
//!
//! - **Explanations** — every tweet the log sees classified gets a
//!   [`VerdictExplanation`]: the signed vote margin plus a fixed
//!   `[f64; 58]` attribution vector from the flat forest's Saabas-style
//!   path decomposition ([`ph_ml::flat::ForestExplainer`]).
//! - **Drift** — the log captures per-feature reference histograms
//!   (fixed-bin, bounded by the 1st/99th percentile so outliers cannot
//!   stretch the bins) from the session's training matrix; its
//!   [`DriftMonitor`] then scores every live hour against that reference
//!   with a per-feature population stability index (PSI), publishes
//!   `drift.feature.<i>.psi` gauges, and emits a typed
//!   [`TelemetryEvent::DriftAlarm`] journal event when a feature crosses
//!   the alarm threshold.
//!
//! # Ownership and cost when off
//!
//! The log is a value the session owns: `serve` and `sniff --store
//! --explain` build one from their training set, hand it to the
//! [`StreamClassifier`](crate::detector::StreamClassifier) whose classify
//! fold records into it, and pass it on to the store's run record. Two
//! sessions in one process keep separate logs. A session that does not
//! explain builds none, and the fold then builds no explainer and
//! allocates nothing for it. The gauges and journal events go to the
//! process-global `ph_telemetry` registry and journal, as every other
//! metric does.
//!
//! # Determinism
//!
//! Explanations and drift scores are produced inside the *sequential*
//! predict/feedback fold over a deterministic feature matrix, so the
//! captured records (and the `explain.log`/`drift.log` streams ph-store
//! derives from them) are byte-identical at any `--threads N`.

use ph_ml::data::Dataset;
use ph_ml::flat::Explanation;
use ph_telemetry::TelemetryEvent;

use crate::features::FEATURE_COUNT;

/// Interior histogram bins per feature; two more catch under/overflow.
pub const DRIFT_INTERIOR_BINS: usize = 10;

/// Total histogram bins per feature (interior + underflow + overflow).
pub const DRIFT_BINS: usize = DRIFT_INTERIOR_BINS + 2;

/// PSI above which a feature's hourly window raises a [`DriftAlarm`](TelemetryEvent::DriftAlarm)
/// journal event. 0.25 is the conventional "significant shift" rule of
/// thumb for the population stability index.
pub const PSI_ALARM_THRESHOLD: f64 = 0.25;

/// Minimum rows an hourly window needs before its PSI scores may raise
/// alarms (tiny windows produce noisy scores; gauges are still set).
pub const MIN_ALARM_SAMPLES: u64 = 20;

/// One explained verdict, parallel to the stored record at index `seq`.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictExplanation {
    /// Classification index — equals the store's segment-log record
    /// index, so a stored verdict and its explanation join on `seq`.
    pub seq: u64,
    /// Engine hour the tweet was collected.
    pub hour: u64,
    /// The binary verdict.
    pub spam: bool,
    /// Classifier confidence in [0, 1].
    pub score: f64,
    /// Signed vote margin `2·score − 1`.
    pub margin: f64,
    /// The forest's prior (mean expected root vote).
    pub baseline: f64,
    /// Signed probability delta attributed to each of the 58 features.
    pub attributions: [f64; FEATURE_COUNT],
}

impl VerdictExplanation {
    /// Feature indices sorted by descending `|attribution|`, ties broken
    /// by feature index; zero-attribution features are skipped.
    #[must_use]
    pub fn top_features(&self, k: usize) -> Vec<(usize, f64)> {
        let mut ranked: Vec<(usize, f64)> = self
            .attributions
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, a)| a != 0.0)
            .collect();
        ranked.sort_by(|a, b| {
            b.1.abs()
                .partial_cmp(&a.1.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        ranked.truncate(k);
        ranked
    }
}

/// Per-feature fixed-bin reference histogram captured at train time.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureReference {
    /// `[lo, hi)` interior range per feature (1st/99th percentile of the
    /// training column, so outliers cannot stretch the bins).
    pub bounds: Vec<(f64, f64)>,
    /// Reference bin counts per feature.
    pub counts: Vec<[u64; DRIFT_BINS]>,
    /// Training rows binned.
    pub total: u64,
}

/// Sorted-column quantile (nearest-rank on the sorted copy).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let at = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[at.min(sorted.len() - 1)]
}

/// Which bin `x` falls in for interior range `[lo, hi)`: 0 is underflow,
/// `DRIFT_BINS - 1` overflow. NaN fails both range comparisons and its
/// float→int cast saturates to 0, so it lands in the first interior bin
/// deterministically.
fn bin_of(lo: f64, hi: f64, x: f64) -> usize {
    if x < lo {
        return 0;
    }
    if x >= hi {
        return DRIFT_BINS - 1;
    }
    let t = (x - lo) / (hi - lo) * DRIFT_INTERIOR_BINS as f64;
    1 + (t as usize).min(DRIFT_INTERIOR_BINS - 1)
}

impl FeatureReference {
    /// Captures the reference from a training matrix.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty (a trained detector always has rows).
    #[must_use]
    pub fn from_dataset(data: &Dataset) -> Self {
        assert!(!data.is_empty(), "cannot capture a reference from no rows");
        let width = data.num_features();
        let mut bounds = Vec::with_capacity(width);
        let mut column = Vec::with_capacity(data.len());
        for f in 0..width {
            column.clear();
            column.extend(data.rows().map(|r| r[f]));
            column.sort_by(f64::total_cmp);
            let lo = quantile(&column, 0.01);
            let mut hi = quantile(&column, 0.99);
            if hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
                // Degenerate (constant or NaN-heavy) column: widen so
                // the interior keeps a nonzero span.
                hi = lo + 1.0;
            }
            bounds.push((lo, hi));
        }
        let mut counts = vec![[0u64; DRIFT_BINS]; width];
        for row in data.rows() {
            for (f, &(lo, hi)) in bounds.iter().enumerate() {
                counts[f][bin_of(lo, hi, row[f])] += 1;
            }
        }
        Self {
            bounds,
            counts,
            total: data.len() as u64,
        }
    }

    /// PSI of a live window's bin counts for feature `f` against the
    /// reference. Laplace-smoothed so empty bins stay finite.
    #[must_use]
    pub fn psi(&self, f: usize, live: &[u64; DRIFT_BINS], live_total: u64) -> f64 {
        const EPS: f64 = 0.5;
        let ref_total = self.total as f64 + EPS * DRIFT_BINS as f64;
        let live_total = live_total as f64 + EPS * DRIFT_BINS as f64;
        let mut psi = 0.0;
        for (r, l) in self.counts[f].iter().zip(live) {
            let p = (*r as f64 + EPS) / ref_total;
            let q = (*l as f64 + EPS) / live_total;
            psi += (q - p) * (q / p).ln();
        }
        psi
    }
}

/// One finalized hourly window: PSI per feature.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftHourScores {
    /// Engine hour of the window.
    pub hour: u64,
    /// Rows the window held.
    pub samples: u64,
    /// PSI per feature against the train-time reference.
    pub psi: [f64; FEATURE_COUNT],
}

/// One alarm: a feature whose hourly PSI crossed the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftAlarmRecord {
    /// Engine hour of the offending window.
    pub hour: u64,
    /// Drifting feature index.
    pub feature: u32,
    /// The PSI score that tripped the alarm.
    pub psi: f64,
}

/// Streaming per-hour drift scorer: feed it every classified row in
/// stream order; it windows by engine hour, scores each finished window
/// against the reference, sets `drift.feature.<i>.psi` gauges, and
/// journals a [`TelemetryEvent::DriftAlarm`] per threshold crossing.
#[derive(Debug)]
pub struct DriftMonitor {
    reference: FeatureReference,
    current_hour: Option<u64>,
    live: Vec<[u64; DRIFT_BINS]>,
    live_total: u64,
    hours: Vec<DriftHourScores>,
    alarms: Vec<DriftAlarmRecord>,
}

impl DriftMonitor {
    /// Wraps a train-time reference with empty live windows.
    #[must_use]
    pub fn new(reference: FeatureReference) -> Self {
        let width = reference.bounds.len();
        Self {
            reference,
            current_hour: None,
            live: vec![[0u64; DRIFT_BINS]; width],
            live_total: 0,
            hours: Vec::new(),
            alarms: Vec::new(),
        }
    }

    /// Observes one classified row. Rows must arrive in stream order
    /// (hours never decrease); an hour change finalizes the previous
    /// window.
    pub fn observe(&mut self, hour: u64, row: &[f64]) {
        if self.current_hour != Some(hour) {
            self.roll();
            self.current_hour = Some(hour);
        }
        for (f, &(lo, hi)) in self.reference.bounds.iter().enumerate() {
            self.live[f][bin_of(lo, hi, row[f])] += 1;
        }
        self.live_total += 1;
    }

    /// Finalizes the open window (call once after the last row).
    pub fn finish(&mut self) {
        self.roll();
        self.current_hour = None;
    }

    /// Finished hourly windows, in hour order.
    #[must_use]
    pub fn hours(&self) -> &[DriftHourScores] {
        &self.hours
    }

    /// Alarms raised so far, in (hour, feature) order.
    #[must_use]
    pub fn alarms(&self) -> &[DriftAlarmRecord] {
        &self.alarms
    }

    fn roll(&mut self) {
        let Some(hour) = self.current_hour else {
            return;
        };
        let width = self.reference.bounds.len();
        let mut psi = [0.0f64; FEATURE_COUNT];
        for (f, slot) in psi.iter_mut().enumerate().take(width.min(FEATURE_COUNT)) {
            let score = self.reference.psi(f, &self.live[f], self.live_total);
            *slot = score;
            ph_telemetry::gauge(&format!("drift.feature.{f}.psi")).set(score);
            if score > PSI_ALARM_THRESHOLD && self.live_total >= MIN_ALARM_SAMPLES {
                self.alarms.push(DriftAlarmRecord {
                    hour,
                    feature: f as u32,
                    psi: score,
                });
                ph_telemetry::journal_emit(TelemetryEvent::DriftAlarm {
                    hour,
                    feature: f as u64,
                    psi: score,
                });
            }
        }
        self.hours.push(DriftHourScores {
            hour,
            samples: self.live_total,
            psi,
        });
        for bins in &mut self.live {
            *bins = [0; DRIFT_BINS];
        }
        self.live_total = 0;
    }
}

/// One session's decision log: every explained verdict in classification
/// order, and the drift monitor scoring live hours against the session's
/// training set.
#[derive(Debug)]
pub struct DecisionLog {
    explanations: Vec<VerdictExplanation>,
    drift: DriftMonitor,
}

impl DecisionLog {
    /// An empty log whose drift reference is captured from the training
    /// matrix the session's detector was fitted on.
    ///
    /// # Panics
    ///
    /// Panics if `training` is empty.
    #[must_use]
    pub fn new(training: &Dataset) -> Self {
        Self {
            explanations: Vec::new(),
            drift: DriftMonitor::new(FeatureReference::from_dataset(training)),
        }
    }

    /// Records one classified row; its `seq` is its arrival index, which
    /// the sequential classify fold makes the store's record index.
    pub(crate) fn record(
        &mut self,
        hour: u64,
        row: &[f64],
        spam: bool,
        score: f64,
        explanation: &Explanation,
    ) {
        self.drift.observe(hour, row);
        let mut attributions = [0.0f64; FEATURE_COUNT];
        let n = explanation.contributions.len().min(FEATURE_COUNT);
        attributions[..n].copy_from_slice(&explanation.contributions[..n]);
        self.explanations.push(VerdictExplanation {
            seq: self.explanations.len() as u64,
            hour,
            spam,
            score,
            margin: explanation.margin,
            baseline: explanation.baseline,
            attributions,
        });
    }

    /// Every explained verdict so far, in classification order.
    #[must_use]
    pub fn explanations(&self) -> &[VerdictExplanation] {
        &self.explanations
    }

    /// The drift monitor: finished hourly windows and alarms.
    #[must_use]
    pub fn drift(&self) -> &DriftMonitor {
        &self.drift
    }

    /// Closes the open drift window, which may raise the session's last
    /// drift alarms.
    pub fn finish(&mut self) {
        self.drift.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_dataset(shift: f64, n: usize) -> Dataset {
        let values: Vec<f64> = (0..n)
            .flat_map(|i| [i as f64 % 10.0 + shift, 1.0, (i % 3) as f64])
            .collect();
        let labels: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        Dataset::new(values, 3, labels).unwrap()
    }

    #[test]
    fn reference_bins_every_training_row() {
        let data = toy_dataset(0.0, 200);
        let reference = FeatureReference::from_dataset(&data);
        assert_eq!(reference.total, 200);
        assert_eq!(reference.bounds.len(), 3);
        for f in 0..3 {
            let binned: u64 = reference.counts[f].iter().sum();
            assert_eq!(binned, 200, "feature {f} lost rows");
        }
    }

    #[test]
    fn identical_window_scores_near_zero_shifted_scores_high() {
        let data = toy_dataset(0.0, 500);
        let reference = FeatureReference::from_dataset(&data);
        for f in 0..3 {
            let same = reference.psi(f, &reference.counts[f], reference.total);
            assert!(same < 0.01, "feature {f}'s self-PSI {same} should be ~0");
        }
        let shifted = toy_dataset(40.0, 500);
        // Feature 0 moved far outside the reference range.
        let mut live = vec![[0u64; DRIFT_BINS]; 3];
        for row in shifted.rows() {
            for (f, &(lo, hi)) in reference.bounds.iter().enumerate() {
                live[f][bin_of(lo, hi, row[f])] += 1;
            }
        }
        let psi0 = reference.psi(0, &live[0], 500);
        assert!(psi0 > PSI_ALARM_THRESHOLD, "shifted PSI {psi0} too small");
        // Feature 1 is constant in both — no drift signal.
        let psi1 = reference.psi(1, &live[1], 500);
        assert!(psi1 < 0.01, "undrifted PSI {psi1} should be ~0");
    }

    #[test]
    fn monitor_windows_by_hour_and_raises_alarms() {
        let data = toy_dataset(0.0, 400);
        let mut monitor = DriftMonitor::new(FeatureReference::from_dataset(&data));
        // Hour 0: in-distribution. Hour 1: feature 0 shifted far out.
        for row in data.rows().take(100) {
            monitor.observe(0, row);
        }
        for row in toy_dataset(40.0, 100).rows() {
            monitor.observe(1, row);
        }
        monitor.finish();
        assert_eq!(monitor.hours().len(), 2);
        assert_eq!(monitor.hours()[0].hour, 0);
        assert_eq!(monitor.hours()[0].samples, 100);
        assert!(monitor.hours()[0].psi[0] < 0.05);
        assert!(monitor.hours()[1].psi[0] > PSI_ALARM_THRESHOLD);
        assert!(
            monitor
                .alarms()
                .iter()
                .any(|a| a.hour == 1 && a.feature == 0),
            "no alarm for the shifted feature: {:?}",
            monitor.alarms()
        );
        assert!(
            monitor.alarms().iter().all(|a| a.hour != 0),
            "in-distribution hour raised an alarm"
        );
    }

    #[test]
    fn tiny_windows_score_but_do_not_alarm() {
        let data = toy_dataset(0.0, 200);
        let mut monitor = DriftMonitor::new(FeatureReference::from_dataset(&data));
        for row in toy_dataset(40.0, 5).rows() {
            monitor.observe(0, row);
        }
        monitor.finish();
        assert_eq!(monitor.hours().len(), 1);
        assert!(monitor.hours()[0].psi[0] > 0.0);
        assert!(monitor.alarms().is_empty(), "5-row window alarmed");
    }

    #[test]
    fn top_features_ranks_by_magnitude() {
        let mut attributions = [0.0f64; FEATURE_COUNT];
        attributions[3] = -0.4;
        attributions[10] = 0.1;
        attributions[20] = 0.25;
        let e = VerdictExplanation {
            seq: 0,
            hour: 0,
            spam: true,
            score: 0.9,
            margin: 0.8,
            baseline: 0.5,
            attributions,
        };
        let top: Vec<usize> = e.top_features(2).into_iter().map(|(f, _)| f).collect();
        assert_eq!(top, vec![3, 20]);
        assert_eq!(e.top_features(50).len(), 3, "zeros must be skipped");
    }

    #[test]
    fn nan_rows_bin_deterministically() {
        let data = toy_dataset(0.0, 100);
        let reference = FeatureReference::from_dataset(&data);
        let (lo, hi) = reference.bounds[0];
        assert_eq!(bin_of(lo, hi, f64::NAN), 1);
        assert_eq!(bin_of(lo, hi, f64::NEG_INFINITY), 0);
        assert_eq!(bin_of(lo, hi, f64::INFINITY), DRIFT_BINS - 1);
    }
}
