//! A small deterministic alert-rule evaluator over per-hour series.
//!
//! Rules are installed once (by `--slo` plumbing or by tests) and
//! evaluated at hour boundaries — the same cadence the per-hour series
//! they read are written at. Evaluation is pure over the series points:
//! the same points and the same hour always produce the same verdict,
//! whatever the thread count, so fixtures can pin breach/recovery hours
//! exactly.
//!
//! Two rule kinds:
//!
//! - **Threshold**: the most recent bucket at or before the evaluated
//!   hour is compared against the limit — fires while `value > limit`.
//! - **Burn rate**: multi-window, as SRE burn-rate alerts are shaped —
//!   the mean over a *short* trailing window (fast signal) **and** the
//!   mean over a *long* trailing window (sustained signal) must both
//!   exceed the limit. A short blip clears the short window before the
//!   long window catches up; a sustained burn trips both.
//!
//! Transitions (not levels) are what the evaluator reports: a rule
//! moving not-firing → firing emits one
//! [`TelemetryEvent::SloBreach`], firing → not-firing one
//! [`TelemetryEvent::SloRecovered`]. Both are diagnostic events (they
//! carry wall-clock-derived values) and never persist into `journal.log`;
//! they reach the operator through the in-process journal, the flight
//! recorder, and the `alert.<rule>.{firing,value}` gauges this module
//! maintains.
//!
//! With no rules installed the per-hour evaluation hook is one relaxed
//! atomic load — the same zero-cost-when-off discipline as `--explain`
//! and `--trace`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::event::{journal_emit, TelemetryEvent};

/// How a rule condenses its series window into one value.
#[derive(Debug, Clone, PartialEq)]
pub enum AlertKind {
    /// Latest bucket at or before the evaluated hour vs. the limit.
    Threshold,
    /// Multi-window burn rate: both trailing-window means must exceed
    /// the limit.
    BurnRate {
        /// Fast window, in hours (e.g. 1).
        short_hours: u64,
        /// Sustained window, in hours (e.g. 6). Must be ≥ `short_hours`.
        long_hours: u64,
    },
}

/// One installed alert rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name; also the `alert.<name>.*` gauge prefix and the `rule`
    /// field of emitted events.
    pub name: String,
    /// The per-hour series the rule reads (e.g. `serve.latency_ms.p99`).
    pub series: String,
    /// The limit the evaluated value must exceed (strictly) to fire.
    pub limit: f64,
    /// Evaluation shape.
    pub kind: AlertKind,
}

/// The evaluated value of `rule` over `points` at `hour`, or `None`
/// when the rule has no data yet (which never fires). Exposed so tests
/// can pin the window arithmetic without the global engine.
#[must_use]
pub fn rule_value(rule: &AlertRule, points: &[(u64, f64)], hour: u64) -> Option<f64> {
    let mean_over = |window: u64| -> Option<f64> {
        let from = hour.saturating_sub(window.max(1) - 1);
        let mut sum = 0.0;
        let mut n = 0u64;
        for &(h, v) in points {
            if h >= from && h <= hour {
                sum += v;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    };
    match rule.kind {
        AlertKind::Threshold => points
            .iter()
            .rev()
            .find(|&&(h, _)| h <= hour)
            .map(|&(_, v)| v),
        AlertKind::BurnRate { short_hours, .. } => mean_over(short_hours),
    }
}

/// Whether `rule` fires over `points` at `hour` (pure; see module docs
/// for the per-kind semantics).
#[must_use]
pub fn rule_fires(rule: &AlertRule, points: &[(u64, f64)], hour: u64) -> bool {
    let over = |window: u64| -> bool {
        let from = hour.saturating_sub(window.max(1) - 1);
        let mut sum = 0.0;
        let mut n = 0u64;
        for &(h, v) in points {
            if h >= from && h <= hour {
                sum += v;
                n += 1;
            }
        }
        n > 0 && sum / n as f64 > rule.limit
    };
    match rule.kind {
        AlertKind::Threshold => rule_value(rule, points, hour).is_some_and(|v| v > rule.limit),
        AlertKind::BurnRate {
            short_hours,
            long_hours,
        } => over(short_hours) && over(long_hours),
    }
}

struct RuleState {
    rule: AlertRule,
    firing: bool,
}

struct AlertEngine {
    rules: Mutex<Vec<RuleState>>,
}

/// Raised while at least one rule is installed, so the per-hour hook in
/// the monitor costs one relaxed load when alerting is off.
static ANY_RULES: AtomicBool = AtomicBool::new(false);

fn engine() -> &'static AlertEngine {
    static GLOBAL: OnceLock<AlertEngine> = OnceLock::new();
    GLOBAL.get_or_init(|| AlertEngine {
        rules: Mutex::new(Vec::new()),
    })
}

/// Installs a rule (appending to any already installed).
pub fn alert_install(rule: AlertRule) {
    let mut rules = engine().rules.lock().expect("alert engine poisoned");
    rules.push(RuleState {
        rule,
        firing: false,
    });
    ANY_RULES.store(true, Ordering::Relaxed);
}

/// Removes every rule and its firing state.
pub fn alert_reset() {
    let mut rules = engine().rules.lock().expect("alert engine poisoned");
    rules.clear();
    ANY_RULES.store(false, Ordering::Relaxed);
}

/// Whether any rule is installed (one relaxed atomic load).
#[must_use]
pub fn alert_active() -> bool {
    ANY_RULES.load(Ordering::Relaxed)
}

/// Evaluates every installed rule at `hour`, emits journal events for
/// the transitions, refreshes the `alert.<rule>.{firing,value}` gauges,
/// and returns the transition events (empty when nothing changed).
///
/// Safe to call more than once per hour: transitions are edge-triggered,
/// so a re-evaluation over unchanged series is a no-op.
pub fn alert_evaluate(hour: u64) -> Vec<TelemetryEvent> {
    if !alert_active() {
        return Vec::new();
    }
    let mut transitions = Vec::new();
    let mut rules = engine().rules.lock().expect("alert engine poisoned");
    for state in rules.iter_mut() {
        let points = crate::series(&state.rule.series).points();
        let value = rule_value(&state.rule, &points, hour).unwrap_or(0.0);
        let firing = rule_fires(&state.rule, &points, hour);
        crate::gauge(&format!("alert.{}.value", state.rule.name)).set(value);
        crate::gauge(&format!("alert.{}.firing", state.rule.name)).set(if firing {
            1.0
        } else {
            0.0
        });
        if firing != state.firing {
            let event = if firing {
                TelemetryEvent::SloBreach {
                    hour,
                    rule: state.rule.name.clone(),
                    value,
                    limit: state.rule.limit,
                }
            } else {
                TelemetryEvent::SloRecovered {
                    hour,
                    rule: state.rule.name.clone(),
                    value,
                    limit: state.rule.limit,
                }
            };
            journal_emit(event.clone());
            transitions.push(event);
            state.firing = firing;
        }
    }
    transitions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock as lock;

    fn threshold(limit: f64) -> AlertRule {
        AlertRule {
            name: "t".into(),
            series: "test.alert.unused".into(),
            limit,
            kind: AlertKind::Threshold,
        }
    }

    fn burn(limit: f64, short: u64, long: u64) -> AlertRule {
        AlertRule {
            name: "b".into(),
            series: "test.alert.unused".into(),
            limit,
            kind: AlertKind::BurnRate {
                short_hours: short,
                long_hours: long,
            },
        }
    }

    #[test]
    fn threshold_reads_the_latest_bucket_at_or_before_the_hour() {
        let points = vec![(0, 10.0), (2, 50.0)];
        let rule = threshold(20.0);
        // Hour 1 still sees bucket 0 (the freshest at or before it).
        assert!(!rule_fires(&rule, &points, 1));
        assert!(rule_fires(&rule, &points, 2));
        // Hour 3 has no bucket of its own; the rule holds on bucket 2.
        assert!(rule_fires(&rule, &points, 3));
        // No data at all → never fires.
        assert!(!rule_fires(&rule, &[], 5));
        // Strictly greater: a value equal to the limit does not fire.
        assert!(!rule_fires(&threshold(50.0), &points, 2));
    }

    #[test]
    fn burn_rate_needs_both_windows_over_the_limit() {
        // limit 10, short window 1 h, long window 3 h.
        let rule = burn(10.0, 1, 3);
        // One hot hour: short mean 30 > 10, but long mean over hours
        // 0..=2 is (0+0+30)/3 = 10, not > 10 → a blip does not fire.
        let blip = vec![(0, 0.0), (1, 0.0), (2, 30.0)];
        assert!(!rule_fires(&rule, &blip, 2));
        // Two hot hours: long mean (0+30+30)/3 = 20 > 10 → fires, and
        // fires exactly at hour 3, not hour 2 (where the long mean over
        // hours 0..=2 is exactly 10, not strictly over).
        let sustained = vec![(0, 0.0), (1, 0.0), (2, 30.0), (3, 30.0)];
        assert!(!rule_fires(&rule, &sustained, 2));
        assert!(rule_fires(&rule, &sustained, 3));
        // The reported value is the short-window mean.
        assert_eq!(rule_value(&rule, &sustained, 3), Some(30.0));
    }

    #[test]
    fn burn_rate_recovers_when_the_short_window_cools() {
        let rule = burn(10.0, 1, 3);
        // Burning through hour 3, cold at hour 4: the short window is
        // 0 immediately even though the long mean (30+30+0)/3 = 20
        // still exceeds the limit — fast recovery is the point of the
        // multi-window shape.
        let points = vec![(2, 30.0), (3, 30.0), (4, 0.0)];
        assert!(rule_fires(&rule, &points, 3));
        assert!(!rule_fires(&rule, &points, 4));
    }

    #[test]
    fn evaluate_emits_breach_then_recovery_in_order() {
        let _guard = lock();
        alert_reset();
        let series_name = "test.alert.e2e";
        alert_install(AlertRule {
            name: "test-e2e".into(),
            series: series_name.into(),
            limit: 100.0,
            kind: AlertKind::Threshold,
        });
        let s = crate::series(series_name);
        s.zero();
        s.set(0, 10.0);
        assert!(alert_evaluate(0).is_empty(), "under the limit");
        s.set(1, 500.0);
        let breach = alert_evaluate(1);
        assert_eq!(breach.len(), 1);
        assert!(
            matches!(&breach[0], TelemetryEvent::SloBreach { hour: 1, rule, value, limit }
                if rule == "test-e2e" && *value == 500.0 && *limit == 100.0),
            "{breach:?}"
        );
        // Re-evaluating the same hour is edge-triggered: no new event.
        assert!(alert_evaluate(1).is_empty());
        assert_eq!(
            crate::gauge("alert.test-e2e.firing").get(),
            1.0,
            "firing gauge raised"
        );
        s.set(2, 10.0);
        let recovery = alert_evaluate(2);
        assert_eq!(recovery.len(), 1);
        assert!(
            matches!(&recovery[0], TelemetryEvent::SloRecovered { hour: 2, rule, .. }
                if rule == "test-e2e"),
            "{recovery:?}"
        );
        assert_eq!(crate::gauge("alert.test-e2e.firing").get(), 0.0);
        alert_reset();
        assert!(!alert_active());
        assert!(alert_evaluate(3).is_empty(), "no rules → no-op");
    }
}
