//! The daemon's degradation state, as `/healthz` reports it.
//!
//! Health is a set of named degradation reasons: the stage watchdog
//! raises one per stalled stage, the SLO check one while the latency
//! SLO fails. While the set is non-empty `/healthz` answers
//! `503 Service Unavailable` with the joined reasons; when the last
//! reason clears it goes back to `200 ok`. Sources are keyed, so a
//! watchdog recovery cannot clear an SLO breach or vice versa.
//!
//! Process-global (like the telemetry registries) so the HTTP server
//! needs no plumbing from the daemon loop; `serve.health.degraded`
//! mirrors the state as a gauge for scrapes that only watch `/metrics`.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

fn reasons() -> &'static Mutex<BTreeMap<String, String>> {
    static GLOBAL: OnceLock<Mutex<BTreeMap<String, String>>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn update_gauge(map: &BTreeMap<String, String>) {
    ph_telemetry::gauge("serve.health.degraded").set(if map.is_empty() { 0.0 } else { 1.0 });
}

/// Raises (or updates) the degradation reason for `source`.
pub fn degrade(source: &str, reason: &str) {
    let mut map = reasons().lock().expect("health state poisoned");
    map.insert(source.to_string(), reason.to_string());
    update_gauge(&map);
}

/// Clears `source`'s degradation, if any.
pub fn clear(source: &str) {
    let mut map = reasons().lock().expect("health state poisoned");
    map.remove(source);
    update_gauge(&map);
}

/// The joined degradation reasons, or `None` when healthy.
#[must_use]
pub fn status() -> Option<String> {
    let map = reasons().lock().expect("health state poisoned");
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

/// Clears every reason (a fresh daemon session starts healthy).
pub fn reset() {
    let mut map = reasons().lock().expect("health state poisoned");
    map.clear();
    update_gauge(&map);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::MutexGuard;

    // Health is process-global; serialize the tests that reset it.
    pub(crate) fn lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn reasons_join_sorted_and_clear_per_source() {
        let _guard = lock();
        reset();
        assert_eq!(status(), None);
        degrade("watchdog.classify", "stage stalled");
        degrade("slo.p99", "p99 612ms > 250ms");
        assert_eq!(
            status().unwrap(),
            "slo.p99: p99 612ms > 250ms; watchdog.classify: stage stalled"
        );
        clear("slo.p99");
        assert_eq!(status().unwrap(), "watchdog.classify: stage stalled");
        clear("watchdog.classify");
        assert_eq!(status(), None);
        assert_eq!(ph_telemetry::gauge("serve.health.degraded").get(), 0.0);
    }

    #[test]
    fn degrade_overwrites_the_same_source() {
        let _guard = lock();
        reset();
        degrade("slo.p99", "first");
        degrade("slo.p99", "second");
        assert_eq!(status().unwrap(), "slo.p99: second");
        assert_eq!(ph_telemetry::gauge("serve.health.degraded").get(), 1.0);
        reset();
    }
}
