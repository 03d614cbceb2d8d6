//! `ph-telemetry` — observability substrate for the pseudo-honeypot
//! pipeline.
//!
//! The paper's headline numbers are *rates measured over time* (PGE,
//! spammers per node-hour, collection efficiency), so the reproduction
//! needs to see its own stages: how long a simulated hour takes, how many
//! tweets the monitor collected and shed, where labeling time goes, how
//! expensive forest training is per tree. This crate provides that with
//! zero dependencies (std only):
//!
//! - **Spans** ([`span`], [`time`]): wall-clock timed, hierarchical via a
//!   per-thread stack — nesting `span("monitor.run")` over
//!   `span("switch")` records `monitor.run.switch`. Aggregated as
//!   count/total/min/max per path.
//! - **Counters** ([`counter`]): monotone `u64`s (tweets collected,
//!   tweets dropped, features extracted).
//! - **Gauges** ([`gauge`]): last-value-wins `f64`s with an `add` upsert
//!   (buffer depth, per-slot node-hours).
//! - **Histograms** ([`histogram`]): fixed upper-bound buckets plus a
//!   catch-all overflow bucket, with sum/min/max — latency and per-hour
//!   volume distributions.
//! - **Run reports** ([`snapshot`], [`RunReport::to_json`],
//!   [`write_json_report`]): one JSON document with every metric above,
//!   written by the CLI's `--metrics-out` and by every `ph-bench` binary.
//! - **A leveled logger** ([`set_max_level`], [`log_info!`] and
//!   friends): the CLI's `--log-level`/`--quiet` plumbing.
//! - **A typed event journal** ([`journal_emit`], [`TelemetryEvent`]):
//!   ordered pipeline events (hour ticks, attribute switches, labeling
//!   passes, checkpoint/roll, shard stalls) with monotone sequence
//!   numbers; the deterministic subset persists into run stores.
//! - **Time series** ([`series`]): fixed-capacity rings of per-engine-
//!   hour buckets — per-hour collection volume, shed counts,
//!   per-attribute PGE inputs.
//! - **Alert rules** ([`alert_install`], [`alert_evaluate`]): a small
//!   deterministic threshold / multi-window burn-rate evaluator over the
//!   per-hour series, emitting `SloBreach`/`SloRecovered` journal events
//!   and `alert.*` gauges at hour boundaries.
//! - **A flight recorder** ([`flight_note`], [`flight_snapshot`]): a
//!   fixed-capacity ring of recent journal events and notes,
//!   wall-clock stamped, dumped into a store (`flight.log`) on SIGQUIT,
//!   watchdog trip, or panic for post-mortem diagnosis.
//! - **Prometheus export** ([`to_prometheus`]): the same snapshot in
//!   text-exposition format (CLI `--metrics-format prom`).
//! - **Live progress** ([`set_progress`], [`progress_update`]):
//!   stderr-only status line, so stdout byte-identity is preserved.
//!
//! Everything lives in one process-global registry, is thread-safe, and
//! is cheap enough for per-stage (not per-tweet-inner-loop)
//! instrumentation: counters are a single atomic add once the handle is
//! cached (see [`cached_counter!`]), spans cost two `Instant::now` calls
//! plus one short mutex-guarded map update on close.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alert;
mod event;
mod flight;
mod json;
mod logger;
mod metrics;
mod progress;
mod prom;
mod registry;
mod report;
mod series;
mod spans;

pub use alert::{
    alert_active, alert_evaluate, alert_install, alert_reset, rule_fires, rule_value, AlertKind,
    AlertRule,
};
pub use event::{journal_emit, journal_reset, journal_snapshot, JournalEntry, TelemetryEvent};
pub use flight::{flight_note, flight_reset, flight_snapshot, FlightEntry, FLIGHT_CAPACITY};
pub use logger::{log_args, set_max_level, set_quiet, Level, ParseLevelError};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use progress::{progress_bar, progress_done, progress_enabled, progress_update, set_progress};
pub use prom::to_prometheus;
pub use registry::{counter, gauge, histogram, reset, set_meta, snapshot};
pub use report::{
    write_json_report, write_report, CounterSnapshot, GaugeSnapshot, HistogramReport, ReportFormat,
    RunReport, SpanSnapshot,
};
pub use series::{
    run_series_points, series, series_reset, series_snapshot, Series, SeriesPoint,
    DEFAULT_SERIES_CAPACITY,
};
pub use spans::{span, time, SpanGuard};

/// Default bucket upper bounds (milliseconds) for stage-latency
/// histograms: exponential 0.25 ms → 16 s.
#[must_use]
pub fn default_latency_buckets_ms() -> Vec<f64> {
    let mut edge = 0.25;
    let mut buckets = Vec::with_capacity(17);
    while edge <= 16_384.0 {
        buckets.push(edge);
        edge *= 2.0;
    }
    buckets
}

/// Fetches (and on first use registers) a counter through a per-call-site
/// static cell, making steady-state increments a single atomic add.
#[macro_export]
macro_rules! cached_counter {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**CELL.get_or_init(|| $crate::counter($name))
    }};
}

/// Serializes the unit tests that reset or read the process-global
/// journal, flight ring and alert engine. One lock covers all three
/// because they feed each other: an alert evaluation emits journal
/// events, and every journal event lands in the flight ring.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global registry is shared across the test binary's threads, so
    // these tests use distinct metric names instead of `reset()` races.

    #[test]
    fn counters_accumulate_and_snapshot() {
        counter("test.lib.counter").add(3);
        counter("test.lib.counter").add(4);
        let report = snapshot();
        let c = report
            .counters
            .iter()
            .find(|c| c.name == "test.lib.counter")
            .expect("registered");
        assert!(c.value >= 7);
    }

    #[test]
    fn cached_counter_returns_the_same_instance() {
        let a = cached_counter!("test.lib.cached") as *const Counter;
        let b = cached_counter!("test.lib.cached2") as *const Counter;
        assert_ne!(a, b, "distinct call sites may differ");
        for _ in 0..10 {
            cached_counter!("test.lib.cached").add(1);
        }
        let report = snapshot();
        let c = report
            .counters
            .iter()
            .find(|c| c.name == "test.lib.cached")
            .expect("registered");
        assert!(c.value >= 10);
    }

    #[test]
    fn default_buckets_are_sorted_and_positive() {
        let buckets = default_latency_buckets_ms();
        assert!(buckets.len() > 10);
        assert!(buckets.windows(2).all(|w| w[0] < w[1]));
        assert!(buckets[0] > 0.0);
    }
}
