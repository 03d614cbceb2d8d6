//! What a run reports: the metric tables (names, units — the same lists
//! `BENCHMARK.json` declares), the arithmetic from samples to metrics,
//! and the result file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::span::Span;
use crate::stats::{median, tail_percentile};
use crate::verdicts::{Quality, Reference, Verdicts};
use crate::workload::Plan;

/// Hour-close latency limit, ms: the repo's own `--slo p99:250` example.
pub const SLO_MS: f64 = 250.0;

/// The end-to-end metrics, in the order they print: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("verdicts_per_s", "1/s"),
    ("hour_close_ms_p50", "ms"),
    ("hour_close_ms_p90", "ms"),
    ("slo_ok_ratio", "ratio"),
    ("verdict_ok_ratio", "ratio"),
    ("precision", "ratio"),
    ("recall", "ratio"),
    ("specificity", "ratio"),
];

/// The per-layer metrics: `(name, unit)`. A `_s` metric is the self time
/// of the layer's spans over one pass of the workload (median over the
/// traced passes); a count is exact per pass.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("sim.build_s", "s"),
    ("sim.step_hour_s", "s"),
    ("sim.tweets_posted", "count"),
    ("wire.encode_s", "s"),
    ("wire.decode_s", "s"),
    ("wire.bytes", "count"),
    ("wire.frames", "count"),
    ("monitor.select_s", "s"),
    ("monitor.run_s", "s"),
    ("monitor.run_cpu_s", "s"),
    ("monitor.begin_hour_s", "s"),
    ("monitor.finish_hour_s", "s"),
    ("monitor.collected", "count"),
    ("monitor.dropped", "count"),
    ("labeling.suspended_s", "s"),
    ("labeling.clustering_s", "s"),
    ("labeling.clustering_cpu_s", "s"),
    ("labeling.rules_s", "s"),
    ("labeling.manual_s", "s"),
    ("labeling.tweets", "count"),
    ("labeling.spam_labeled", "count"),
    ("features.train_extract_s", "s"),
    ("features.pure_s", "s"),
    ("features.pure_cpu_s", "s"),
    ("features.finish_s", "s"),
    ("features.rows", "count"),
    ("ml.fit_s", "s"),
    ("ml.fit_cpu_s", "s"),
    ("ml.fit_rows", "count"),
    ("ml.trees", "count"),
    ("ml.nodes", "count"),
    ("ml.flatten_s", "s"),
    ("ml.predict_s", "s"),
    ("ml.predict_rows", "count"),
    ("detector.classify_s", "s"),
    ("detector.classify_hour_s", "s"),
    ("store.sink_s", "s"),
    ("store.sync_s", "s"),
    ("store.recover_s", "s"),
    ("store.read_s", "s"),
    ("store.records", "count"),
    ("store.bytes", "count"),
    ("store.checkpoints", "count"),
    ("store.truncated_bytes", "count"),
    ("serve.queue_s", "s"),
    ("serve.queue_shed_push_ns", "ns"),
    ("serve.restamp_s", "s"),
    ("serve.verdict_write_s", "s"),
    ("serve.verdict_bytes", "count"),
    ("serve.train_s", "s"),
    ("serve.backlog_hours_max", "count"),
    ("loadgen.sent", "count"),
    ("loadgen.rate", "1/s"),
    ("loadgen.send_lag_ms_p90", "ms"),
    ("trace.wall_s", "s"),
    ("trace.residual_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.passes", "count"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Named values a pass of a workload produced, keyed by metric name.
pub type Ledger = BTreeMap<&'static str, f64>;

/// Raw material of the end-to-end metrics.
#[derive(Debug, Default)]
pub struct Measured {
    /// One sample per set-up performed.
    pub setup_s: Vec<f64>,
    /// One sample per measured pass of the workload.
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    /// One sample per monitored hour closed, over all measured passes.
    pub hour_close_ms: Vec<f64>,
    /// Hours the measured passes were to close (a missing hour misses
    /// the latency limit).
    pub hours_attempted: u64,
    /// Verdicts one pass produces.
    pub verdicts_per_pass: u64,
    /// Verdicts the reference holds the measured passes to, and how many
    /// of them were missing, wrong, dropped, shed or unreadable.
    pub attempted: u64,
    pub failed: u64,
    /// Detection quality of the last measured pass (every pass of a run
    /// sees the same inputs).
    pub quality: Quality,
}

impl Measured {
    /// Holds one pass's verdicts to the reference: counts what was
    /// attempted and what failed (`lost` = tweets dropped, shed or
    /// unreadable on the way), scores the pass, and names any mismatch
    /// in `problems`.
    pub fn hold_to(
        &mut self,
        reference: &Reference,
        got: &Verdicts,
        lost: u64,
        against: &str,
        problems: &mut Vec<String>,
    ) {
        let wrong = reference.mismatches(got);
        self.attempted += reference.verdicts.len() as u64;
        self.failed += wrong + lost;
        self.quality = reference.quality(got);
        if wrong > 0 {
            problems.push(format!(
                "verdicts differ from {against}: {wrong} of {} (digest {:08x}, want {:08x})",
                reference.verdicts.len(),
                got.digest(),
                reference.verdicts.digest()
            ));
        }
        if lost > 0 {
            problems.push(format!("{lost} tweets dropped, shed or unreadable"));
        }
    }

    /// The twelve end-to-end metrics. Timings are medians over the
    /// measured passes; the sample counts ride along in the result file.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let wall = median(&self.wall_s);
        let within = self
            .hour_close_ms
            .iter()
            .filter(|&&ms| ms <= SLO_MS)
            .count();
        let values = [
            median(&self.setup_s),
            wall,
            median(&self.cpu_s),
            crate::sys::peak_rss_mb(),
            self.verdicts_per_pass as f64 / wall,
            median(&self.hour_close_ms),
            tail_percentile(&self.hour_close_ms).1,
            within as f64 / self.hours_attempted.max(1) as f64,
            1.0 - self.failed as f64 / self.attempted.max(1) as f64,
            self.quality.precision,
            self.quality.recall,
            self.quality.specificity,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    }
}

/// The per-layer metrics from per-pass ledgers: medians over the passes
/// (counts repeat exactly, so their median is the count). A metric a
/// workload never touches reads 0.
pub fn per_layer(passes: &[Ledger]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let samples: Vec<f64> = passes.iter().filter_map(|p| p.get(name).copied()).collect();
            Metric {
                name,
                value: median(&samples),
                unit,
            }
        })
        .collect()
}

/// Everything one run hands back to `main`.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Per-pass samples behind the medians, by name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Reasons the run is not `correct`, or is invalid as a measurement.
    pub problems: Vec<String>,
    /// Spans of the traced passes (empty for an untraced run).
    pub spans: Vec<Vec<Span>>,
    pub reference_digest: u32,
    pub reference_verdicts: u64,
}

impl RunResult {
    /// Assembles a run's result: the per-layer metrics when `ledgers`
    /// are given (a traced run), else the end-to-end ones.
    pub fn new(
        measured: Measured,
        ledgers: Option<Vec<Ledger>>,
        spans: Vec<Vec<Span>>,
        problems: Vec<String>,
        reference: &Reference,
    ) -> Self {
        let metrics = match &ledgers {
            Some(ledgers) => per_layer(ledgers),
            None => measured.end_to_end(),
        };
        let mut samples = BTreeMap::new();
        samples.insert("setup_s", measured.setup_s);
        samples.insert("wall_s", measured.wall_s);
        samples.insert("cpu_s", measured.cpu_s);
        samples.insert("hour_close_ms", measured.hour_close_ms);
        Self {
            correct: problems.is_empty(),
            attempted: measured.attempted,
            failed: measured.failed,
            metrics,
            samples,
            problems,
            spans,
            reference_digest: reference.verdicts.digest(),
            reference_verdicts: reference.verdicts.len() as u64,
        }
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all the digits measured; non-finite values (a
/// ratio over nothing) become 0 so the line always parses.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `"name": {"value": …, "unit": …}` per metric.
fn metric_fields(metrics: &[Metric]) -> Vec<String> {
    metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect()
}

impl RunResult {
    /// The one-line result the pipeline parses off the end of stdout.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            format_args!("{{{}}}", metric_fields(&self.metrics).join(", "))
        )
    }

    /// The result file: the result line's content plus samples and meta.
    pub fn to_file_json(&self, plan: &Plan, seconds: u64, trace: bool, scratch: &Path) -> String {
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(name, xs)| {
                let xs: Vec<String> = xs.iter().map(|&x| json_number(x)).collect();
                format!("    {}: [{}]", json_string(name), xs.join(", "))
            })
            .collect();
        let problems: Vec<String> = self.problems.iter().map(|p| json_string(p)).collect();
        let metrics: Vec<String> = metric_fields(&self.metrics)
            .iter()
            .map(|field| format!("    {field}"))
            .collect();
        format!(
            "{{\n  \"workload\": {},\n  \"meta\": {{\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
             \"threads\": {}, \"nproc\": {}, \"organic\": {}, \"campaigns\": {}, \"per_campaign\": {}, \
             \"gt_hours\": {}, \"hours\": {}, \"rustc\": {}, \"commit\": {}, \"scratch_fs\": {}}},\n  \
             \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
             \"reference\": {{\"verdicts\": {}, \"digest\": \"{:08x}\"}},\n  \
             \"problems\": [{}],\n  \"metrics\": {{\n{}\n  }},\n  \"samples\": {{\n{}\n  }}\n}}\n",
            json_string(plan.workload.name()),
            plan.seed,
            seconds,
            trace,
            plan.smoke,
            plan.threads,
            crate::sys::nproc(),
            plan.organic,
            plan.campaigns,
            plan.per_campaign,
            plan.gt_hours,
            plan.hours,
            json_string(&crate::sys::rustc_version()),
            json_string(&crate::sys::commit()),
            json_string(&crate::sys::filesystem_of(scratch)),
            self.correct,
            self.attempted.max(1),
            self.failed,
            self.reference_verdicts,
            self.reference_digest,
            problems.join(", "),
            metrics.join(",\n"),
            samples.join(",\n"),
        )
    }

    /// The metric table for a person reading the terminal.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
        }
        out
    }
}

/// Spans of the traced passes as JSON: one array per pass.
pub fn spans_json(passes: &[Vec<Span>]) -> String {
    let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
    let passes: Vec<String> = passes
        .iter()
        .map(|spans| {
            let spans: Vec<String> = spans
                .iter()
                .map(|s| {
                    format!(
                        "  {{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"hour\": {}, \
                         \"probe\": {}, \"probe_of\": {}, \"cpu_s\": {}}}",
                        json_string(s.name),
                        s.start_ns,
                        s.end_ns,
                        opt(s.parent),
                        s.hour.map_or("null".to_string(), |h| h.to_string()),
                        s.probe.is_some(),
                        opt(s.probe.flatten()),
                        s.cpu_s.map_or("null".to_string(), json_number),
                    )
                })
                .collect();
            format!("[\n{}\n]", spans.join(",\n"))
        })
        .collect();
    format!("[{}]\n", passes.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_within_the_contracts_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|&(name, _)| name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_the_driver_prints() {
        let text = include_str!("../../BENCHMARK.json");
        let json = ph_prof::jsonv::parse(text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let printed = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), printed(&END_TO_END));
        assert_eq!(declared("per_layer"), printed(&PER_LAYER));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn the_result_line_is_one_parseable_object_with_the_four_keys() {
        let result = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![Metric {
                name: "wall_s",
                value: 1.25,
                unit: "s",
            }],
            samples: BTreeMap::new(),
            problems: vec!["a \"quoted\" problem".to_string()],
            spans: Vec::new(),
            reference_digest: 7,
            reference_verdicts: 10,
        };
        let line = result.result_line();
        assert!(!line.contains('\n'));
        let json = ph_prof::jsonv::parse(&line).expect("parses");
        assert_eq!(json.get("attempted").and_then(|v| v.as_u64()), Some(10));
        assert_eq!(json.get("failed").and_then(|v| v.as_u64()), Some(0));
        let wall = json
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("metric");
        assert_eq!(wall.get("value").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(wall.get("unit").and_then(|v| v.as_str()), Some("s"));
    }

    #[test]
    fn slo_and_failure_ratios_count_against_what_was_attempted() {
        let measured = Measured {
            setup_s: vec![0.5],
            wall_s: vec![2.0],
            cpu_s: vec![3.0],
            // One hour over the limit, one hour never closed.
            hour_close_ms: vec![10.0, 20.0, 300.0],
            hours_attempted: 4,
            verdicts_per_pass: 100,
            attempted: 1000,
            failed: 1,
            quality: Quality::default(),
        };
        let metrics = measured.end_to_end();
        let get = |name: &str| metrics.iter().find(|m| m.name == name).expect(name).value;
        assert_eq!(get("slo_ok_ratio"), 0.5);
        assert_eq!(get("verdict_ok_ratio"), 0.999);
        assert_eq!(get("verdicts_per_s"), 50.0);
        assert_eq!(get("hour_close_ms_p50"), 20.0);
    }
}
