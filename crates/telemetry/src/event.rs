//! Typed run journal: a process-global, append-only sequence of
//! structured pipeline events with monotone sequence numbers.
//!
//! Metrics answer "how much"; the journal answers "what happened, in
//! what order": hour ticks, attribute switches, labeling passes,
//! checkpoint/segment-roll events, SLO breaches. The CLI persists the
//! journal into the run's store (see `ph-store`) so any finished run can
//! be inspected after the fact.
//!
//! # Determinism
//!
//! Events split into two classes, distinguished by
//! [`TelemetryEvent::is_deterministic`]:
//!
//! - **Deterministic** events are emitted by sequential pipeline code
//!   (the monitor hour loop, labeling passes, store checkpoints) and
//!   carry only simulation-time quantities. The persisted journal keeps
//!   exactly these, so its bytes are identical at any `--threads N`.
//! - **Diagnostic** events ([`TelemetryEvent::SloBreach`],
//!   [`TelemetryEvent::StageStalled`], …) depend on wall-clock time. They stay in the in-process journal
//!   (visible to progress reporting and reports) but are never written
//!   to a store.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// One structured pipeline event.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// The monitor finished one simulated hour.
    HourTick {
        /// Absolute engine hour index (resume-safe, not segment-local).
        hour: u64,
        /// Tweets the monitor collected this hour (post-categorize).
        collected: u64,
        /// Tweets shed by the bounded buffer this hour.
        dropped: u64,
    },
    /// The monitor re-drew its attribute assignment.
    AttributeSwitch {
        /// Engine hour the switch took effect.
        hour: u64,
        /// Switch round index (0 = initial assignment).
        round: u64,
        /// Nodes assigned in this round.
        nodes: u64,
    },
    /// One ground-truth labeling pass finished.
    LabelingPass {
        /// Pass name (`"suspended"`, `"clustering"`, `"rules"`,
        /// `"manual"`).
        pass: String,
        /// Tweets the pass newly labeled spam.
        labeled: u64,
    },
    /// The durable store wrote a checkpoint.
    CheckpointWritten {
        /// Engine hours covered by the checkpoint.
        hour: u64,
        /// Log records covered by the checkpoint.
        records: u64,
    },
    /// The segment log sealed a segment and started the next one.
    SegmentRoll {
        /// Index of the newly started segment.
        segment: u64,
        /// Total records appended when the roll happened.
        records: u64,
    },
    /// A live feature's distribution drifted past the alarm threshold
    /// relative to the detector's train-time reference (PSI score).
    DriftAlarm {
        /// Engine hour whose window crossed the threshold.
        hour: u64,
        /// Index of the drifting feature (`ph-core` feature order).
        feature: u64,
        /// The population-stability-index score that tripped the alarm.
        psi: f64,
    },
    /// An adaptive-detector retraining round completed, with the
    /// window's mean PSI against the old and new references. Nothing
    /// emits it any more; it stays so stored journals that carry it
    /// still decode.
    DriftRetrain {
        /// Engine hour the retrain happened at.
        hour: u64,
        /// Retrain round index (1 = first retrain).
        round: u64,
        /// Mean PSI of the retrain window against the old reference.
        psi_before: f64,
        /// Mean PSI of the same window against the refreshed reference.
        psi_after: f64,
    },
    /// The daemon's latency SLO started failing at an hour boundary
    /// (see `ph_serve::slo`). Carries wall-clock-derived quantities
    /// (latency quantiles), so diagnostic only — never persisted.
    SloBreach {
        /// Engine hour the SLO was checked at.
        hour: u64,
        /// SLO name (`"slo.p99"`, …).
        rule: String,
        /// The hour's targeted quantile, which crossed the limit.
        value: f64,
        /// The SLO's limit.
        limit: f64,
    },
    /// A previously failing latency SLO recovered. Diagnostic only —
    /// never persisted.
    SloRecovered {
        /// Engine hour the SLO was checked at.
        hour: u64,
        /// SLO name.
        rule: String,
        /// The hour's targeted quantile, now back under the limit.
        value: f64,
        /// The SLO's limit.
        limit: f64,
    },
    /// A watched stage stopped making progress mid-batch (its watchdog
    /// heartbeat flatlined). Wall-clock-dependent; diagnostic only —
    /// never persisted.
    StageStalled {
        /// The heartbeat's stage name (the daemon's is `serve.hour`).
        stage: String,
        /// Consecutive watchdog ticks without progress before the trip.
        ticks: u64,
    },
}

impl TelemetryEvent {
    /// Short stable tag for display and encoding.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryEvent::HourTick { .. } => "hour_tick",
            TelemetryEvent::AttributeSwitch { .. } => "attribute_switch",
            TelemetryEvent::LabelingPass { .. } => "labeling_pass",
            TelemetryEvent::CheckpointWritten { .. } => "checkpoint",
            TelemetryEvent::SegmentRoll { .. } => "segment_roll",
            TelemetryEvent::DriftAlarm { .. } => "drift_alarm",
            TelemetryEvent::DriftRetrain { .. } => "drift_retrain",
            TelemetryEvent::SloBreach { .. } => "slo_breach",
            TelemetryEvent::SloRecovered { .. } => "slo_recovered",
            TelemetryEvent::StageStalled { .. } => "stage_stalled",
        }
    }

    /// Whether the event is reproducible across thread counts and may
    /// be persisted into a store (see module docs).
    #[must_use]
    pub fn is_deterministic(&self) -> bool {
        !matches!(
            self,
            TelemetryEvent::SloBreach { .. }
                | TelemetryEvent::SloRecovered { .. }
                | TelemetryEvent::StageStalled { .. }
        )
    }

    /// One-line human rendering (used by `inspect` and progress).
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            TelemetryEvent::HourTick {
                hour,
                collected,
                dropped,
            } => format!("hour {hour}: collected {collected}, dropped {dropped}"),
            TelemetryEvent::AttributeSwitch { hour, round, nodes } => {
                format!("hour {hour}: attribute switch round {round} over {nodes} nodes")
            }
            TelemetryEvent::LabelingPass { pass, labeled } => {
                format!("labeling pass '{pass}': {labeled} tweets labeled")
            }
            TelemetryEvent::CheckpointWritten { hour, records } => {
                format!("checkpoint at hour {hour} covering {records} records")
            }
            TelemetryEvent::SegmentRoll { segment, records } => {
                format!("rolled to segment {segment} after {records} records")
            }
            TelemetryEvent::DriftAlarm { hour, feature, psi } => {
                format!("hour {hour}: drift alarm on feature {feature} (psi {psi:.3})")
            }
            TelemetryEvent::DriftRetrain {
                hour,
                round,
                psi_before,
                psi_after,
            } => format!(
                "hour {hour}: retrain round {round} (mean psi {psi_before:.3} -> {psi_after:.3})"
            ),
            TelemetryEvent::SloBreach {
                hour,
                rule,
                value,
                limit,
            } => format!("hour {hour}: alert '{rule}' breached ({value:.3} > {limit:.3})"),
            TelemetryEvent::SloRecovered {
                hour,
                rule,
                value,
                limit,
            } => format!("hour {hour}: alert '{rule}' recovered ({value:.3} <= {limit:.3})"),
            TelemetryEvent::StageStalled { stage, ticks } => {
                format!("stage '{stage}' stalled: no progress across {ticks} watchdog ticks")
            }
        }
    }
}

/// A journal entry: an event plus its process-wide sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Monotone sequence number, starting at 0 per process (and per
    /// [`journal_reset`]).
    pub seq: u64,
    /// The event.
    pub event: TelemetryEvent,
}

struct Journal {
    next_seq: AtomicU64,
    entries: Mutex<Vec<JournalEntry>>,
}

fn journal() -> &'static Journal {
    static GLOBAL: OnceLock<Journal> = OnceLock::new();
    GLOBAL.get_or_init(|| Journal {
        next_seq: AtomicU64::new(0),
        entries: Mutex::new(Vec::new()),
    })
}

/// Appends an event to the process journal and returns its sequence
/// number. Sequence numbers are monotone in emission order.
pub fn journal_emit(event: TelemetryEvent) -> u64 {
    // Every journal event — deterministic or diagnostic — also lands in
    // the flight-recorder ring with a wall-clock stamp, so a post-mortem
    // dump holds the run's recent history even though the persisted
    // journal filters the diagnostic subset.
    crate::flight::flight_note(event.kind(), &event.describe());
    let journal = journal();
    let mut entries = journal.entries.lock().expect("journal lock poisoned");
    // Seq is assigned under the same lock that orders the Vec, so the
    // stored order and the numbering always agree.
    let seq = journal.next_seq.fetch_add(1, Ordering::Relaxed);
    entries.push(JournalEntry { seq, event });
    seq
}

/// Copies out the full journal in emission order.
#[must_use]
pub fn journal_snapshot() -> Vec<JournalEntry> {
    journal()
        .entries
        .lock()
        .expect("journal lock poisoned")
        .clone()
}

/// Clears the journal and restarts sequence numbering at 0.
pub fn journal_reset() {
    let journal = journal();
    let mut entries = journal.entries.lock().expect("journal lock poisoned");
    entries.clear();
    journal.next_seq.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock as lock;

    #[test]
    fn sequence_numbers_are_monotone_and_match_order() {
        let _guard = lock();
        journal_reset();
        for hour in 0..5 {
            journal_emit(TelemetryEvent::HourTick {
                hour,
                collected: hour * 10,
                dropped: 0,
            });
        }
        let entries = journal_snapshot();
        assert_eq!(entries.len(), 5);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }

    #[test]
    fn reset_restarts_numbering() {
        let _guard = lock();
        journal_reset();
        journal_emit(TelemetryEvent::SegmentRoll {
            segment: 1,
            records: 9,
        });
        journal_reset();
        let seq = journal_emit(TelemetryEvent::SegmentRoll {
            segment: 2,
            records: 9,
        });
        assert_eq!(seq, 0);
        assert_eq!(journal_snapshot().len(), 1);
    }

    #[test]
    fn only_wall_clock_events_are_nondeterministic() {
        let det = [
            TelemetryEvent::HourTick {
                hour: 0,
                collected: 0,
                dropped: 0,
            },
            TelemetryEvent::AttributeSwitch {
                hour: 0,
                round: 0,
                nodes: 1,
            },
            TelemetryEvent::LabelingPass {
                pass: "rules".into(),
                labeled: 3,
            },
            TelemetryEvent::CheckpointWritten {
                hour: 1,
                records: 5,
            },
            TelemetryEvent::SegmentRoll {
                segment: 1,
                records: 5,
            },
            TelemetryEvent::DriftAlarm {
                hour: 2,
                feature: 17,
                psi: 0.31,
            },
            TelemetryEvent::DriftRetrain {
                hour: 12,
                round: 1,
                psi_before: 0.4,
                psi_after: 0.01,
            },
        ];
        assert!(det.iter().all(TelemetryEvent::is_deterministic));
        assert!(!TelemetryEvent::StageStalled {
            stage: "x".into(),
            ticks: 3,
        }
        .is_deterministic());
    }

    #[test]
    fn describe_names_every_kind() {
        let e = TelemetryEvent::LabelingPass {
            pass: "manual".into(),
            labeled: 2,
        };
        assert_eq!(e.kind(), "labeling_pass");
        assert!(e.describe().contains("manual"));
    }
}
