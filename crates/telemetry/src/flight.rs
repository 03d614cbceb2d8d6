//! The flight recorder: a fixed-capacity in-memory ring of recent
//! run events, wall-clock stamped.
//!
//! Metrics and the journal describe a run that *finished*; the flight
//! recorder exists for runs that did not. Every [`crate::journal_emit`]
//! call (deterministic or diagnostic) and every explicit
//! [`flight_note`] lands here with an epoch-millisecond stamp, and the
//! ring keeps only the most recent [`FLIGHT_CAPACITY`] entries — O(1)
//! memory however long a daemon soaks. On SIGQUIT, on a watchdog trip,
//! or from a panic hook, the owner dumps the ring into the store
//! (`ph-store`'s `flight.log`) so a dead soak is diagnosable from the
//! store directory alone.
//!
//! The ring carries wall-clock timestamps and scheduling-dependent
//! diagnostic events, so it is deliberately **outside** the byte-
//! stability contract: `flight.log` is only ever written on the
//! abnormal paths above, never by a clean run.

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Most recent entries the ring retains.
pub const FLIGHT_CAPACITY: usize = 4096;

/// One flight-recorder entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEntry {
    /// Wall-clock stamp, milliseconds since the Unix epoch.
    pub at_ms: u64,
    /// Short stable tag (`journal kind` or a caller-chosen note kind).
    pub kind: String,
    /// One-line human rendering.
    pub detail: String,
}

fn ring() -> &'static Mutex<VecDeque<FlightEntry>> {
    static GLOBAL: OnceLock<Mutex<VecDeque<FlightEntry>>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(VecDeque::new()))
}

fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Appends a note to the ring, evicting the oldest entry past capacity.
pub fn flight_note(kind: &str, detail: &str) {
    let mut ring = ring().lock().expect("flight ring poisoned");
    if ring.len() >= FLIGHT_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(FlightEntry {
        at_ms: now_ms(),
        kind: kind.to_string(),
        detail: detail.to_string(),
    });
}

/// Copies out the ring, oldest entry first.
#[must_use]
pub fn flight_snapshot() -> Vec<FlightEntry> {
    ring()
        .lock()
        .expect("flight ring poisoned")
        .iter()
        .cloned()
        .collect()
}

/// Drops every entry (capacity is kept).
pub fn flight_reset() {
    ring().lock().expect("flight ring poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock as lock;

    #[test]
    fn notes_accumulate_in_order_with_nondecreasing_stamps() {
        let _guard = lock();
        flight_reset();
        for i in 0..5 {
            flight_note("test", &format!("note {i}"));
        }
        let entries = flight_snapshot();
        assert_eq!(entries.len(), 5);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.detail, format!("note {i}"));
        }
        assert!(entries.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
    }

    #[test]
    fn ring_evicts_oldest_past_capacity() {
        let _guard = lock();
        flight_reset();
        for i in 0..(FLIGHT_CAPACITY + 10) {
            flight_note("test", &format!("n{i}"));
        }
        let entries = flight_snapshot();
        assert_eq!(entries.len(), FLIGHT_CAPACITY);
        assert_eq!(entries[0].detail, "n10");
        flight_reset();
        assert!(flight_snapshot().is_empty());
    }

    #[test]
    fn journal_emits_feed_the_ring() {
        let _guard = lock();
        flight_reset();
        crate::journal_emit(crate::TelemetryEvent::SegmentRoll {
            segment: 7,
            records: 11,
        });
        let entries = flight_snapshot();
        assert!(entries
            .iter()
            .any(|e| e.kind == "segment_roll" && e.detail.contains("segment 7")));
    }
}
