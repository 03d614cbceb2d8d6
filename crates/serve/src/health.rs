//! The daemon's degradation state, as `/healthz` reports it.
//!
//! Health is a set of named degradation reasons: the stage watchdog
//! raises one per stalled stage, the SLO check one while the latency
//! SLO fails. While the set is non-empty `/healthz` answers
//! `503 Service Unavailable` with the joined reasons; when the last
//! reason clears it goes back to `200 ok`. Sources are keyed, so a
//! watchdog recovery cannot clear an SLO breach or vice versa.
//!
//! Each daemon session owns one [`Health`] and hands clones of it to the
//! watchdog and the HTTP server, so a session starts healthy and two
//! sessions in one process never see each other's reasons. The
//! `serve.health.degraded` gauge mirrors the state for scrapes that only
//! watch `/metrics`; like every metric it lives in the process-global
//! telemetry registry.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// One session's degradation reasons, keyed by source. Clones share the
/// same set.
#[derive(Debug, Clone, Default)]
pub struct Health {
    reasons: Arc<Mutex<BTreeMap<String, String>>>,
}

impl Health {
    fn reasons(&self) -> MutexGuard<'_, BTreeMap<String, String>> {
        self.reasons.lock().expect("health state poisoned")
    }

    fn update(&self, change: impl FnOnce(&mut BTreeMap<String, String>)) {
        let mut map = self.reasons();
        change(&mut map);
        ph_telemetry::gauge("serve.health.degraded").set(if map.is_empty() { 0.0 } else { 1.0 });
    }

    /// Raises (or updates) the degradation reason for `source`.
    pub fn degrade(&self, source: &str, reason: &str) {
        self.update(|map| {
            map.insert(source.to_string(), reason.to_string());
        });
    }

    /// Clears `source`'s degradation, if any.
    pub fn clear(&self, source: &str) {
        self.update(|map| {
            map.remove(source);
        });
    }

    /// The joined degradation reasons, or `None` when healthy.
    #[must_use]
    pub fn status(&self) -> Option<String> {
        let map = self.reasons();
        if map.is_empty() {
            return None;
        }
        Some(
            map.iter()
                .map(|(source, reason)| format!("{source}: {reason}"))
                .collect::<Vec<_>>()
                .join("; "),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reasons_join_sorted_and_clear_per_source() {
        let health = Health::default();
        assert_eq!(health.status(), None);
        health.degrade("watchdog.classify", "stage stalled");
        health.degrade("slo.p99", "p99 612ms > 250ms");
        assert_eq!(
            health.status().unwrap(),
            "slo.p99: p99 612ms > 250ms; watchdog.classify: stage stalled"
        );
        health.clear("slo.p99");
        assert_eq!(health.status().unwrap(), "watchdog.classify: stage stalled");
        health.clear("watchdog.classify");
        assert_eq!(health.status(), None);
    }

    #[test]
    fn degrade_overwrites_the_same_source_and_clones_share_the_set() {
        let health = Health::default();
        let shared = health.clone();
        health.degrade("slo.p99", "first");
        shared.degrade("slo.p99", "second");
        assert_eq!(health.status().unwrap(), "slo.p99: second");
        assert_eq!(
            Health::default().status(),
            None,
            "a new value starts healthy"
        );
    }
}
