//! Ingest→verdict latency SLOs.
//!
//! When `--slo pQQ:MS` is on, the daemon builds a stamping ingest queue
//! (`IngestQueue::stamped`): every
//! frame entering it is stamped with a monotonic tick ([`tick_now_ns`],
//! nanoseconds since a process-global origin — the one process-wide
//! value here, so ticks from any queue compare), and the daemon measures
//! each tweet's latency
//! when its verdict is durably flushed — wire + queue + buffering +
//! classification, the whole ingest-to-verdict path. Per hour the
//! daemon records the batch into the cumulative `serve.latency_ms`
//! histogram, refreshes the `serve.latency_ms.{p50,p95,p99}` quantile
//! gauges (exact order statistics over the hour, not bucket
//! interpolation), writes the same quantiles as per-hour series, and
//! hands the hour's quantiles to its [`SloCheck`], which compares the
//! targeted one against the limit (SLO `slo.pQQ`).
//!
//! Off (the default) the daemon's queue is built unstamped, and a push
//! reads one field of the queue it already holds. Latency is wall-clock
//! data: everything recorded here lands in gauges/series (outside the
//! byte-stability contract), never in the persisted journal.

use std::sync::OnceLock;
use std::time::Instant;

use ph_telemetry::{journal_emit, TelemetryEvent};

/// The histogram / gauge / series name prefix for ingest→verdict
/// latency.
pub const LATENCY_METRIC: &str = "serve.latency_ms";

/// Monotonic nanoseconds since the first call in this process. `0` is
/// reserved for "not stamped".
#[must_use]
pub fn tick_now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = *ORIGIN.get_or_init(Instant::now);
    (origin.elapsed().as_nanos() as u64).max(1)
}

/// A parsed `--slo` target: `p99:250` = "hourly p99 ingest→verdict
/// latency must stay at or under 250 ms".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloTarget {
    /// The targeted quantile (0.50, 0.95, or 0.99).
    pub quantile: f64,
    /// The quantile's label (`"p50"`, `"p95"`, `"p99"`).
    pub label: &'static str,
    /// The limit, in milliseconds.
    pub target_ms: f64,
}

impl SloTarget {
    /// Parses `pQQ:MS` (e.g. `p99:250`, `p95:40.5`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown quantiles or
    /// non-positive / non-numeric limits.
    pub fn parse(spec: &str) -> Result<SloTarget, String> {
        let (quantile_part, ms_part) = spec
            .split_once(':')
            .ok_or_else(|| format!("expected QUANTILE:MS (e.g. p99:250), got '{spec}'"))?;
        let (quantile, label) = match quantile_part {
            "p50" => (0.50, "p50"),
            "p95" => (0.95, "p95"),
            "p99" => (0.99, "p99"),
            other => return Err(format!("unknown quantile '{other}' (use p50, p95, or p99)")),
        };
        let target_ms: f64 = ms_part
            .parse()
            .map_err(|_| format!("'{ms_part}' is not a number of milliseconds"))?;
        if !(target_ms > 0.0 && target_ms.is_finite()) {
            return Err(format!("the SLO limit must be positive, got {target_ms}"));
        }
        Ok(SloTarget {
            quantile,
            label,
            target_ms,
        })
    }
}

/// The daemon's SLO check. After each hour's [`record_hour`] it compares
/// the hour's targeted quantile against the limit; the SLO fails while
/// the quantile is strictly over it. Edges, not levels, are reported:
/// passing → failing emits one [`TelemetryEvent::SloBreach`], failing →
/// passing one [`TelemetryEvent::SloRecovered`]. Both are diagnostic
/// events, so they reach the in-process journal and the flight recorder
/// but never `journal.log`. The `alert.slo.pQQ.{firing,value}` gauges
/// show the level every hour. The SLO is named `slo.pQQ`: the
/// `/healthz` reason, the events' `rule` and the gauge prefix. One check
/// lives per daemon session, so a session starts passing.
#[derive(Debug, Clone)]
pub struct SloCheck {
    target: SloTarget,
    firing: bool,
}

impl SloCheck {
    /// A passing check of `target`.
    #[must_use]
    pub fn new(target: SloTarget) -> Self {
        Self {
            target,
            firing: false,
        }
    }

    /// Checks `hour`'s `(p50, p95, p99)` as [`record_hour`] returns
    /// them: refreshes the gauges and returns the edge event, if the
    /// SLO changed state, after emitting it to the journal.
    pub fn check(&mut self, hour: u64, (p50, p95, p99): (f64, f64, f64)) -> Option<TelemetryEvent> {
        let value = match self.target.label {
            "p50" => p50,
            "p95" => p95,
            _ => p99,
        };
        let limit = self.target.target_ms;
        let firing = value > limit;
        let rule = format!("slo.{}", self.target.label);
        ph_telemetry::gauge(&format!("alert.{rule}.value")).set(value);
        ph_telemetry::gauge(&format!("alert.{rule}.firing")).set(f64::from(u8::from(firing)));
        if firing == self.firing {
            return None;
        }
        self.firing = firing;
        let event = if firing {
            TelemetryEvent::SloBreach {
                hour,
                rule,
                value,
                limit,
            }
        } else {
            TelemetryEvent::SloRecovered {
                hour,
                rule,
                value,
                limit,
            }
        };
        journal_emit(event.clone());
        Some(event)
    }
}

/// Exact interpolated quantile over unsorted samples (`q` in `[0,1]`).
/// Returns 0.0 for an empty slice.
#[must_use]
pub fn exact_quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Records one hour's ingest→verdict latencies: cumulative histogram,
/// live quantile gauges, and the per-hour quantile series. Returns the
/// hour's `(p50, p95, p99)` for [`SloCheck::check`].
pub fn record_hour(hour: u64, latencies_ms: &[f64]) -> (f64, f64, f64) {
    let hist = ph_telemetry::histogram(LATENCY_METRIC, &ph_telemetry::default_latency_buckets_ms());
    for &ms in latencies_ms {
        hist.record(ms);
    }
    let (p50, p95, p99) = (
        exact_quantile(latencies_ms, 0.50),
        exact_quantile(latencies_ms, 0.95),
        exact_quantile(latencies_ms, 0.99),
    );
    for (label, value) in [("p50", p50), ("p95", p95), ("p99", p99)] {
        ph_telemetry::gauge(&format!("{LATENCY_METRIC}.{label}")).set(value);
        ph_telemetry::series(&format!("{LATENCY_METRIC}.{label}")).set(hour, value);
    }
    (p50, p95, p99)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_quantiles() {
        assert_eq!(
            SloTarget::parse("p99:250").unwrap(),
            SloTarget {
                quantile: 0.99,
                label: "p99",
                target_ms: 250.0
            }
        );
        assert_eq!(SloTarget::parse("p50:1.5").unwrap().quantile, 0.50);
        assert_eq!(SloTarget::parse("p95:40").unwrap().label, "p95");
    }

    #[test]
    fn parse_rejects_malformed_specs_with_a_reason() {
        for bad in ["", "p99", "p42:10", "p99:-5", "p99:NaN", "p99:inf", "p99:x"] {
            assert!(SloTarget::parse(bad).is_err(), "'{bad}' parsed");
        }
    }

    #[test]
    fn check_emits_breach_then_recovery_in_order() {
        let mut check = SloCheck::new(SloTarget::parse("p95:100").unwrap());
        let firing = || ph_telemetry::gauge("alert.slo.p95.firing").get();
        assert_eq!(
            check.check(0, (1.0, 10.0, 900.0)),
            None,
            "p95 under the limit"
        );
        assert_eq!(firing(), 0.0);
        let breach = check.check(1, (1.0, 500.0, 900.0));
        assert_eq!(
            breach,
            Some(TelemetryEvent::SloBreach {
                hour: 1,
                rule: "slo.p95".into(),
                value: 500.0,
                limit: 100.0
            })
        );
        // Checking the same hour again is edge-triggered: no new event.
        assert_eq!(check.check(1, (1.0, 500.0, 900.0)), None);
        assert_eq!(firing(), 1.0, "firing gauge raised");
        assert_eq!(ph_telemetry::gauge("alert.slo.p95.value").get(), 500.0);
        // Equal to the limit is within the SLO.
        let recovery = check.check(2, (1.0, 100.0, 900.0));
        assert!(
            matches!(&recovery, Some(TelemetryEvent::SloRecovered { hour: 2, rule, .. })
                if rule == "slo.p95"),
            "{recovery:?}"
        );
        assert_eq!(firing(), 0.0);
        assert_eq!(check.check(2, (1.0, 100.0, 900.0)), None);
    }

    #[test]
    fn exact_quantiles_interpolate() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(exact_quantile(&samples, 0.0), 1.0);
        assert_eq!(exact_quantile(&samples, 1.0), 4.0);
        assert_eq!(exact_quantile(&samples, 0.5), 2.5);
        assert_eq!(exact_quantile(&[], 0.5), 0.0);
        assert_eq!(exact_quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn ticks_are_monotone_and_never_zero() {
        let a = tick_now_ns();
        let b = tick_now_ns();
        assert!(a >= 1);
        assert!(b >= a);
    }

    #[test]
    fn record_hour_updates_gauges_and_series() {
        let latencies: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p50, _p95, p99) = record_hour(7, &latencies);
        assert_eq!(p50, 50.5);
        assert!((p99 - 99.01).abs() < 1e-9);
        let points = ph_telemetry::series("serve.latency_ms.p99").points();
        assert!(points.iter().any(|&(h, v)| h == 7 && v == p99));
    }
}
