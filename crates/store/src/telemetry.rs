//! Durable telemetry: the run journal and time-series points persisted
//! next to the segment log, so `inspect` can reconstruct a run's
//! behavior without re-executing anything.
//!
//! Two sibling streams live in the store directory, each one event per
//! frame of the store's shared file format (described once, in
//! `frame.rs`):
//!
//! - **`journal.log`** (magic `PHSTJNL\x01`): the deterministic subset
//!   of the process journal ([`ph_telemetry::TelemetryEvent`]), one
//!   event per frame, re-numbered 0..n over that subset. Because every
//!   deterministic event is emitted by sequential pipeline code and
//!   carries only simulation-time quantities, the journal's bytes are
//!   **identical at any `--threads N`** — `tests/threads_equivalence.rs`
//!   enforces this. Diagnostic events (SLO transitions, stage stalls)
//!   never land here.
//! - **`series.log`** (magic `PHSTSRS\x01`): flattened
//!   [`ph_telemetry::SeriesPoint`]s — per-hour collection series plus
//!   run-level derived points (`stage.*` throughput, `span.*`
//!   aggregates, `hist.*` buckets). Wall-clock-derived points live here
//!   by design, so this stream is *not* part of the byte-stability
//!   contract.
//!
//! Both streams are **replay-safe**: writing is truncate-and-replace
//! (the telemetry of the most recent completed run wins), neither is
//! consulted by resume, and a store without them (e.g. one cut short by
//! a crash) is still fully inspectable from records + checkpoints.

use std::io;
use std::path::Path;

use ph_telemetry::{JournalEntry, SeriesPoint, TelemetryEvent};

use crate::codec::{put_f64, put_str, put_u64, put_u8, take_f64, take_str, take_u64, take_u8};
use crate::frame::{read_sidecar, write_framed};
use crate::record::StoreDecodeError;

/// Journal stream file name inside a store directory.
pub const JOURNAL_FILE: &str = "journal.log";

/// Series stream file name inside a store directory.
pub const SERIES_FILE: &str = "series.log";

/// Magic bytes opening the journal stream.
pub const JOURNAL_MAGIC: [u8; 8] = *b"PHSTJNL\x01";

/// Magic bytes opening the series stream.
pub const SERIES_MAGIC: [u8; 8] = *b"PHSTSRS\x01";

/// Event-type discriminants (journal payload byte 8, after the seq).
const EVENT_HOUR_TICK: u8 = 0;
const EVENT_ATTRIBUTE_SWITCH: u8 = 1;
const EVENT_LABELING_PASS: u8 = 2;
const EVENT_CHECKPOINT: u8 = 3;
const EVENT_SEGMENT_ROLL: u8 = 4;
/// Reserved: the channel-based stage driver's diagnostic shard stall.
/// Diagnostic events never reach a journal, so no store holds one; the
/// tag stays retired so that no new event is read as it.
#[allow(dead_code)]
const EVENT_SHARD_STALL: u8 = 5;
const EVENT_DRIFT_ALARM: u8 = 6;
const EVENT_DRIFT_RETRAIN: u8 = 7;
const EVENT_SLO_BREACH: u8 = 8;
const EVENT_SLO_RECOVERED: u8 = 9;
const EVENT_STAGE_STALLED: u8 = 10;

/// Encodes one journal entry into a frame payload.
#[must_use]
pub fn encode_journal_entry(entry: &JournalEntry) -> Vec<u8> {
    let mut buf = Vec::with_capacity(40);
    put_u64(&mut buf, entry.seq);
    match &entry.event {
        TelemetryEvent::HourTick {
            hour,
            collected,
            dropped,
        } => {
            put_u8(&mut buf, EVENT_HOUR_TICK);
            put_u64(&mut buf, *hour);
            put_u64(&mut buf, *collected);
            put_u64(&mut buf, *dropped);
        }
        TelemetryEvent::AttributeSwitch { hour, round, nodes } => {
            put_u8(&mut buf, EVENT_ATTRIBUTE_SWITCH);
            put_u64(&mut buf, *hour);
            put_u64(&mut buf, *round);
            put_u64(&mut buf, *nodes);
        }
        TelemetryEvent::LabelingPass { pass, labeled } => {
            put_u8(&mut buf, EVENT_LABELING_PASS);
            put_str(&mut buf, pass);
            put_u64(&mut buf, *labeled);
        }
        TelemetryEvent::CheckpointWritten { hour, records } => {
            put_u8(&mut buf, EVENT_CHECKPOINT);
            put_u64(&mut buf, *hour);
            put_u64(&mut buf, *records);
        }
        TelemetryEvent::SegmentRoll { segment, records } => {
            put_u8(&mut buf, EVENT_SEGMENT_ROLL);
            put_u64(&mut buf, *segment);
            put_u64(&mut buf, *records);
        }
        TelemetryEvent::DriftAlarm { hour, feature, psi } => {
            put_u8(&mut buf, EVENT_DRIFT_ALARM);
            put_u64(&mut buf, *hour);
            put_u64(&mut buf, *feature);
            put_f64(&mut buf, *psi);
        }
        TelemetryEvent::DriftRetrain {
            hour,
            round,
            psi_before,
            psi_after,
        } => {
            put_u8(&mut buf, EVENT_DRIFT_RETRAIN);
            put_u64(&mut buf, *hour);
            put_u64(&mut buf, *round);
            put_f64(&mut buf, *psi_before);
            put_f64(&mut buf, *psi_after);
        }
        TelemetryEvent::SloBreach {
            hour,
            rule,
            value,
            limit,
        } => {
            put_u8(&mut buf, EVENT_SLO_BREACH);
            put_u64(&mut buf, *hour);
            put_str(&mut buf, rule);
            put_f64(&mut buf, *value);
            put_f64(&mut buf, *limit);
        }
        TelemetryEvent::SloRecovered {
            hour,
            rule,
            value,
            limit,
        } => {
            put_u8(&mut buf, EVENT_SLO_RECOVERED);
            put_u64(&mut buf, *hour);
            put_str(&mut buf, rule);
            put_f64(&mut buf, *value);
            put_f64(&mut buf, *limit);
        }
        TelemetryEvent::StageStalled { stage, ticks } => {
            put_u8(&mut buf, EVENT_STAGE_STALLED);
            put_str(&mut buf, stage);
            put_u64(&mut buf, *ticks);
        }
    }
    buf
}

/// Decodes one journal-entry frame payload.
///
/// # Errors
///
/// Returns a [`StoreDecodeError`] on truncated or malformed payloads;
/// never panics, whatever the input bytes.
pub fn decode_journal_entry(payload: &[u8]) -> Result<JournalEntry, StoreDecodeError> {
    let mut buf = payload;
    let seq = take_u64(&mut buf)?;
    let event = match take_u8(&mut buf)? {
        EVENT_HOUR_TICK => TelemetryEvent::HourTick {
            hour: take_u64(&mut buf)?,
            collected: take_u64(&mut buf)?,
            dropped: take_u64(&mut buf)?,
        },
        EVENT_ATTRIBUTE_SWITCH => TelemetryEvent::AttributeSwitch {
            hour: take_u64(&mut buf)?,
            round: take_u64(&mut buf)?,
            nodes: take_u64(&mut buf)?,
        },
        EVENT_LABELING_PASS => TelemetryEvent::LabelingPass {
            pass: take_str(&mut buf)?,
            labeled: take_u64(&mut buf)?,
        },
        EVENT_CHECKPOINT => TelemetryEvent::CheckpointWritten {
            hour: take_u64(&mut buf)?,
            records: take_u64(&mut buf)?,
        },
        EVENT_SEGMENT_ROLL => TelemetryEvent::SegmentRoll {
            segment: take_u64(&mut buf)?,
            records: take_u64(&mut buf)?,
        },
        EVENT_DRIFT_ALARM => TelemetryEvent::DriftAlarm {
            hour: take_u64(&mut buf)?,
            feature: take_u64(&mut buf)?,
            psi: take_f64(&mut buf)?,
        },
        EVENT_DRIFT_RETRAIN => TelemetryEvent::DriftRetrain {
            hour: take_u64(&mut buf)?,
            round: take_u64(&mut buf)?,
            psi_before: take_f64(&mut buf)?,
            psi_after: take_f64(&mut buf)?,
        },
        EVENT_SLO_BREACH => TelemetryEvent::SloBreach {
            hour: take_u64(&mut buf)?,
            rule: take_str(&mut buf)?,
            value: take_f64(&mut buf)?,
            limit: take_f64(&mut buf)?,
        },
        EVENT_SLO_RECOVERED => TelemetryEvent::SloRecovered {
            hour: take_u64(&mut buf)?,
            rule: take_str(&mut buf)?,
            value: take_f64(&mut buf)?,
            limit: take_f64(&mut buf)?,
        },
        EVENT_STAGE_STALLED => TelemetryEvent::StageStalled {
            stage: take_str(&mut buf)?,
            ticks: take_u64(&mut buf)?,
        },
        value => {
            return Err(StoreDecodeError::BadDiscriminant {
                field: "journal event type",
                value,
            })
        }
    };
    if !buf.is_empty() {
        return Err(StoreDecodeError::BadDiscriminant {
            field: "journal trailing bytes",
            value: buf[0],
        });
    }
    Ok(JournalEntry { seq, event })
}

/// Encodes one series point into a frame payload.
#[must_use]
pub fn encode_series_point(point: &SeriesPoint) -> Vec<u8> {
    let mut buf = Vec::with_capacity(24 + point.name.len());
    put_str(&mut buf, &point.name);
    put_u64(&mut buf, point.hour);
    put_f64(&mut buf, point.value);
    buf
}

/// Decodes one series-point frame payload.
///
/// # Errors
///
/// Returns a [`StoreDecodeError`] on truncated or malformed payloads;
/// never panics, whatever the input bytes.
pub fn decode_series_point(payload: &[u8]) -> Result<SeriesPoint, StoreDecodeError> {
    let mut buf = payload;
    let name = take_str(&mut buf)?;
    let hour = take_u64(&mut buf)?;
    let value = take_f64(&mut buf)?;
    if !buf.is_empty() {
        return Err(StoreDecodeError::BadDiscriminant {
            field: "series trailing bytes",
            value: buf[0],
        });
    }
    Ok(SeriesPoint { name, hour, value })
}

/// Writes the persisted journal for a run: keeps only deterministic
/// events and renumbers them 0..n so the bytes are identical at any
/// thread count (diagnostic events consume in-process sequence numbers
/// unpredictably; the persisted stream must not see that).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_journal(dir: &Path, entries: &[JournalEntry]) -> io::Result<()> {
    let payloads: Vec<Vec<u8>> = entries
        .iter()
        .filter(|e| e.event.is_deterministic())
        .enumerate()
        .map(|(i, e)| {
            encode_journal_entry(&JournalEntry {
                seq: i as u64,
                event: e.event.clone(),
            })
        })
        .collect();
    write_framed(&dir.join(JOURNAL_FILE), &JOURNAL_MAGIC, &payloads)
}

/// Reads a store's persisted journal. Returns an empty vector when the
/// store has none (e.g. the run crashed before finishing).
///
/// # Errors
///
/// Fails with [`io::ErrorKind::InvalidData`] if the file exists but is
/// not a journal stream; propagates other I/O failures.
pub fn read_journal(dir: &Path) -> io::Result<Vec<JournalEntry>> {
    Ok(read_sidecar(dir, JOURNAL_FILE, &JOURNAL_MAGIC)?
        .iter()
        .map_while(|p| decode_journal_entry(p).ok())
        .collect())
}

/// Writes the persisted series points for a run (truncate-and-replace).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_series(dir: &Path, points: &[SeriesPoint]) -> io::Result<()> {
    let payloads: Vec<Vec<u8>> = points.iter().map(encode_series_point).collect();
    write_framed(&dir.join(SERIES_FILE), &SERIES_MAGIC, &payloads)
}

/// Reads a store's persisted series points. Returns an empty vector
/// when the store has none.
///
/// # Errors
///
/// Fails with [`io::ErrorKind::InvalidData`] if the file exists but is
/// not a series stream; propagates other I/O failures.
pub fn read_series(dir: &Path) -> io::Result<Vec<SeriesPoint>> {
    Ok(read_sidecar(dir, SERIES_FILE, &SERIES_MAGIC)?
        .iter()
        .map_while(|p| decode_series_point(p).ok())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ph-store-telemetry-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_entries() -> Vec<JournalEntry> {
        [
            TelemetryEvent::AttributeSwitch {
                hour: 0,
                round: 0,
                nodes: 2400,
            },
            TelemetryEvent::HourTick {
                hour: 0,
                collected: 120,
                dropped: 3,
            },
            TelemetryEvent::SegmentRoll {
                segment: 1,
                records: 117,
            },
            TelemetryEvent::CheckpointWritten {
                hour: 1,
                records: 117,
            },
            TelemetryEvent::LabelingPass {
                pass: "suspended".to_string(),
                labeled: 41,
            },
            TelemetryEvent::DriftAlarm {
                hour: 3,
                feature: 17,
                psi: 0.3125,
            },
            TelemetryEvent::DriftRetrain {
                hour: 12,
                round: 1,
                psi_before: 0.41,
                psi_after: 0.008,
            },
            TelemetryEvent::StageStalled {
                stage: "serve.hour".to_string(),
                ticks: 3,
            },
        ]
        .into_iter()
        .enumerate()
        .map(|(i, event)| JournalEntry {
            seq: i as u64,
            event,
        })
        .collect()
    }

    #[test]
    fn every_event_kind_roundtrips() {
        for entry in sample_entries() {
            let decoded = decode_journal_entry(&encode_journal_entry(&entry)).unwrap();
            assert_eq!(decoded, entry);
        }
    }

    #[test]
    fn retired_shard_stall_tag_decodes_as_nothing() {
        let mut payload = Vec::new();
        put_u64(&mut payload, 0);
        put_u8(&mut payload, EVENT_SHARD_STALL);
        put_str(&mut payload, "monitor.categorize");
        put_u64(&mut payload, 2);
        put_u64(&mut payload, 8);
        assert!(decode_journal_entry(&payload).is_err());
    }

    #[test]
    fn series_point_roundtrips() {
        let p = SeriesPoint {
            name: "pge.hashtag.politics".to_string(),
            hour: 17,
            value: 0.375,
        };
        assert_eq!(decode_series_point(&encode_series_point(&p)).unwrap(), p);
    }

    #[test]
    fn truncated_journal_payload_errors_at_every_cut() {
        for entry in sample_entries() {
            let payload = encode_journal_entry(&entry);
            for cut in 0..payload.len() {
                assert!(
                    decode_journal_entry(&payload[..cut]).is_err(),
                    "cut at {cut} decoded for {:?}",
                    entry.event.kind()
                );
            }
        }
    }

    #[test]
    fn journal_write_filters_diagnostics_and_renumbers() {
        let dir = temp_dir("filter");
        let entries = sample_entries();
        write_journal(&dir, &entries).unwrap();
        let read = read_journal(&dir).unwrap();
        // The stage stall (last entry) is gone; survivors are 0..n.
        assert_eq!(read.len(), entries.len() - 1);
        for (i, e) in read.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert!(e.event.is_deterministic());
        }
    }

    #[test]
    fn write_is_truncate_and_replace() {
        let dir = temp_dir("replace");
        write_journal(&dir, &sample_entries()).unwrap();
        let one = vec![JournalEntry {
            seq: 0,
            event: TelemetryEvent::HourTick {
                hour: 9,
                collected: 1,
                dropped: 0,
            },
        }];
        write_journal(&dir, &one).unwrap();
        assert_eq!(read_journal(&dir).unwrap(), one);
    }

    #[test]
    fn missing_streams_read_as_empty() {
        let dir = temp_dir("missing");
        assert!(read_journal(&dir).unwrap().is_empty());
        assert!(read_series(&dir).unwrap().is_empty());
    }

    #[test]
    fn corrupted_tail_is_dropped_not_fatal() {
        let dir = temp_dir("corrupt");
        write_journal(&dir, &sample_entries()).unwrap();
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let len = bytes.len();
        bytes[len - 2] ^= 0xFF; // corrupt the last frame's payload
        fs::write(&path, bytes).unwrap();
        let read = read_journal(&dir).unwrap();
        assert_eq!(read.len(), sample_entries().len() - 2);
    }

    #[test]
    fn foreign_file_is_rejected() {
        let dir = temp_dir("foreign");
        fs::write(dir.join(JOURNAL_FILE), b"not a journal, honest").unwrap();
        let err = read_journal(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn series_write_read_roundtrips_in_order() {
        let dir = temp_dir("series");
        let points: Vec<SeriesPoint> = (0..10)
            .map(|i| SeriesPoint {
                name: format!("stage.s{}.tweets_per_s", i % 3),
                hour: i,
                value: i as f64 * 1.5,
            })
            .collect();
        write_series(&dir, &points).unwrap();
        assert_eq!(read_series(&dir).unwrap(), points);
    }
}
