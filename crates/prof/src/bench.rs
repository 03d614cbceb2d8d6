//! The stable `BENCH_<scenario>.json` baseline schema, its codec, and
//! the order statistics used by the harness.
//!
//! # File format (schema version 1)
//!
//! ```json
//! {
//!   "schema": 1,
//!   "scenario": "feature_extraction",
//!   "unit": "ms",
//!   "warmup": 1,
//!   "samples": [12.1, 11.9, 12.4],
//!   "median": 12.1,
//!   "iqr": 0.5,
//!   "min": 11.9,
//!   "max": 12.4,
//!   "meta": {
//!     "rustc": "rustc 1.95.0",
//!     "threads": 1,
//!     "seed": 42,
//!     "crate_version": "0.1.0",
//!     "mode": "quick"
//!   }
//! }
//! ```
//!
//! The contract: `schema` is bumped on any incompatible change, every
//! field above is required, `samples` holds the raw post-warmup
//! measurements in run order (finite, milliseconds), and the summary
//! stats are derived from `samples` at write time. Floats are emitted
//! with Rust's shortest-round-trip `Display`, so encode → decode is
//! exact for finite values.

use std::fmt::Write as _;

use ph_telemetry::json::push_str_literal;

/// Current on-disk schema version.
pub const SCHEMA_VERSION: u64 = 1;

/// Canonical baseline file name for a scenario: `BENCH_<scenario>.json`.
#[must_use]
pub fn bench_file_name(scenario: &str) -> String {
    format!("BENCH_{scenario}.json")
}

/// Build/run metadata recorded with every baseline so files from
/// different machines or configurations are comparable (or visibly
/// not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchMeta {
    /// `rustc --version` of the build.
    pub rustc: String,
    /// Worker thread count the scenario ran with (0 = all cores).
    pub threads: u64,
    /// Deterministic seed the scenario ran with.
    pub seed: u64,
    /// Workspace crate version.
    pub crate_version: String,
    /// Harness mode: `"quick"` or `"full"`.
    pub mode: String,
}

/// One scenario's recorded benchmark: raw samples plus derived summary
/// statistics and build metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version (see [`SCHEMA_VERSION`]).
    pub schema: u64,
    /// Scenario name (also names the file, via [`bench_file_name`]).
    pub scenario: String,
    /// Unit of every sample; currently always `"ms"`.
    pub unit: String,
    /// Warmup iterations discarded before sampling.
    pub warmup: u64,
    /// Raw post-warmup wall-time samples, in run order.
    pub samples: Vec<f64>,
    /// Median of `samples`.
    pub median: f64,
    /// Inter-quartile range (p75 − p25) of `samples`.
    pub iqr: f64,
    /// Fastest sample.
    pub min: f64,
    /// Slowest sample.
    pub max: f64,
    /// Build/run metadata.
    pub meta: BenchMeta,
}

/// Decode failure: the input is not a schema-1 bench report. Never a
/// panic — malformed bytes, wrong types, or missing fields all land
/// here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid bench report: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Median of `xs` (0 when empty). Does not require sorted input.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    percentile_of(xs, 50.0)
}

/// Inter-quartile range (p75 − p25) of `xs`; 0 when empty.
#[must_use]
pub fn iqr(xs: &[f64]) -> f64 {
    percentile_of(xs, 75.0) - percentile_of(xs, 25.0)
}

/// Linear-interpolated percentile (`p` in 0..=100) of **sorted** input;
/// 0 when empty.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

fn percentile_of(xs: &[f64], p: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

impl BenchReport {
    /// Builds a report from raw samples, deriving the summary stats.
    #[must_use]
    pub fn from_samples(scenario: &str, warmup: u64, samples: Vec<f64>, meta: BenchMeta) -> Self {
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        BenchReport {
            schema: SCHEMA_VERSION,
            scenario: scenario.to_string(),
            unit: "ms".to_string(),
            warmup,
            median: percentile(&sorted, 50.0),
            iqr: percentile(&sorted, 75.0) - percentile(&sorted, 25.0),
            min: sorted.first().copied().unwrap_or(0.0),
            max: sorted.last().copied().unwrap_or(0.0),
            samples,
            meta,
        }
    }

    /// Serializes to the schema-1 JSON document shown in the module
    /// docs (pretty-printed, trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", self.schema);
        out.push_str("  \"scenario\": ");
        push_str_literal(&mut out, &self.scenario);
        out.push_str(",\n  \"unit\": ");
        push_str_literal(&mut out, &self.unit);
        out.push_str(",\n");
        let _ = writeln!(out, "  \"warmup\": {},", self.warmup);
        out.push_str("  \"samples\": [");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&num(*s));
        }
        out.push_str("],\n");
        let _ = writeln!(out, "  \"median\": {},", num(self.median));
        let _ = writeln!(out, "  \"iqr\": {},", num(self.iqr));
        let _ = writeln!(out, "  \"min\": {},", num(self.min));
        let _ = writeln!(out, "  \"max\": {},", num(self.max));
        out.push_str("  \"meta\": {\n");
        out.push_str("    \"rustc\": ");
        push_str_literal(&mut out, &self.meta.rustc);
        let _ = writeln!(out, ",\n    \"threads\": {},", self.meta.threads);
        let _ = writeln!(out, "    \"seed\": {},", self.meta.seed);
        out.push_str("    \"crate_version\": ");
        push_str_literal(&mut out, &self.meta.crate_version);
        out.push_str(",\n    \"mode\": ");
        push_str_literal(&mut out, &self.meta.mode);
        out.push_str("\n  }\n}\n");
        out
    }

    /// Decodes a schema-1 JSON document. Returns `Err` (never panics)
    /// on malformed input, missing fields, wrong types, non-finite
    /// samples, or an unknown schema version.
    pub fn from_json(text: &str) -> Result<Self, ParseError> {
        let doc = crate::jsonv::parse(text).map_err(ParseError)?;
        let schema = req_u64(&doc, "schema")?;
        if schema != SCHEMA_VERSION {
            return Err(ParseError(format!(
                "unsupported schema version {schema} (this build reads {SCHEMA_VERSION})"
            )));
        }
        let samples_json = doc
            .get("samples")
            .and_then(crate::jsonv::Json::as_arr)
            .ok_or_else(|| ParseError("missing array field \"samples\"".to_string()))?;
        let mut samples = Vec::with_capacity(samples_json.len());
        for (i, s) in samples_json.iter().enumerate() {
            let v = s
                .as_f64()
                .ok_or_else(|| ParseError(format!("sample {i} is not a number")))?;
            if !v.is_finite() {
                return Err(ParseError(format!("sample {i} is not finite")));
            }
            samples.push(v);
        }
        let meta_json = doc
            .get("meta")
            .ok_or_else(|| ParseError("missing object field \"meta\"".to_string()))?;
        let meta = BenchMeta {
            rustc: req_str(meta_json, "rustc")?,
            threads: req_u64(meta_json, "threads")?,
            seed: req_u64(meta_json, "seed")?,
            crate_version: req_str(meta_json, "crate_version")?,
            mode: req_str(meta_json, "mode")?,
        };
        Ok(BenchReport {
            schema,
            scenario: req_str(&doc, "scenario")?,
            unit: req_str(&doc, "unit")?,
            warmup: req_u64(&doc, "warmup")?,
            samples,
            median: req_finite(&doc, "median")?,
            iqr: req_finite(&doc, "iqr")?,
            min: req_finite(&doc, "min")?,
            max: req_finite(&doc, "max")?,
            meta,
        })
    }
}

fn req_u64(v: &crate::jsonv::Json, key: &str) -> Result<u64, ParseError> {
    v.get(key)
        .and_then(crate::jsonv::Json::as_u64)
        .ok_or_else(|| ParseError(format!("missing integer field {key:?}")))
}

fn req_str(v: &crate::jsonv::Json, key: &str) -> Result<String, ParseError> {
    v.get(key)
        .and_then(crate::jsonv::Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ParseError(format!("missing string field {key:?}")))
}

fn req_finite(v: &crate::jsonv::Json, key: &str) -> Result<f64, ParseError> {
    let n = v
        .get(key)
        .and_then(crate::jsonv::Json::as_f64)
        .ok_or_else(|| ParseError(format!("missing number field {key:?}")))?;
    if n.is_finite() {
        Ok(n)
    } else {
        Err(ParseError(format!("field {key:?} is not finite")))
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // Samples are validated finite before writing; this is a
        // defensive fallback that still produces valid JSON.
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> BenchMeta {
        BenchMeta {
            rustc: "rustc 1.95.0 (test)".to_string(),
            threads: 1,
            seed: 42,
            crate_version: "0.1.0".to_string(),
            mode: "quick".to_string(),
        }
    }

    #[test]
    fn stats_from_samples() {
        let r = BenchReport::from_samples("s", 1, vec![3.0, 1.0, 2.0, 4.0], meta());
        assert_eq!(r.median, 2.5);
        assert_eq!(r.min, 1.0);
        assert_eq!(r.max, 4.0);
        assert_eq!(r.iqr, 1.5); // p75 = 3.25, p25 = 1.75
    }

    #[test]
    fn empty_samples_do_not_panic() {
        let r = BenchReport::from_samples("s", 0, vec![], meta());
        assert_eq!(r.median, 0.0);
        assert_eq!(r.iqr, 0.0);
        let back = BenchReport::from_json(&r.to_json()).expect("round-trips");
        assert_eq!(back, r);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let r = BenchReport::from_samples(
            "feature_extraction",
            2,
            vec![12.125, 11.875, 12.4375, 13.0078125, 11.90625],
            meta(),
        );
        let back = BenchReport::from_json(&r.to_json()).expect("round-trips");
        assert_eq!(back, r);
    }

    #[test]
    fn rejects_wrong_schema_and_missing_fields() {
        let good = BenchReport::from_samples("s", 1, vec![1.0], meta()).to_json();
        let wrong_schema = good.replace("\"schema\": 1", "\"schema\": 99");
        assert!(BenchReport::from_json(&wrong_schema).is_err());
        let no_meta = good.replace("\"meta\"", "\"nope\"");
        assert!(BenchReport::from_json(&no_meta).is_err());
        assert!(BenchReport::from_json("not json at all").is_err());
        assert!(BenchReport::from_json("").is_err());
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 40.0);
        assert_eq!(percentile(&xs, 50.0), 25.0);
        assert_eq!(percentile(&xs, 25.0), 17.5);
    }
}
