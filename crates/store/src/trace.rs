//! Durable timeline traces: the `trace.log` stream persisted next to
//! `journal.log`/`series.log` when a run is recorded with `--trace`.
//!
//! Same file format as the other sidecar streams (described once, in
//! `frame.rs`): truncate-and-replace write, torn-tail-tolerant read. The first
//! frame is a stream header carrying the recorder's dropped-event count;
//! every following frame is one [`ph_trace::TraceEvent`]. Event names
//! are stored inline (not interned), so a `trace.log` is
//! self-describing: `perf critical-path` and `inspect --timeline` can
//! analyze it in a fresh process with no recorder state.
//!
//! Timestamps are microseconds since the recording process's trace
//! epoch — wall-clock-derived and scheduling-dependent by nature, so
//! like `series.log` this stream is **not** part of the byte-stability
//! contract.

use std::io;
use std::path::Path;

use ph_trace::{TraceEvent, TraceLog};

use crate::codec::{put_str, put_u32, put_u64, put_u8, take_str, take_u32, take_u64, take_u8};
use crate::frame::{read_framed, read_sidecar, write_framed};
use crate::record::StoreDecodeError;

/// Trace stream file name inside a store directory.
pub const TRACE_FILE: &str = "trace.log";

/// Magic bytes opening the trace stream.
pub const TRACE_MAGIC: [u8; 8] = *b"PHSTTRC\x01";

/// Event-kind discriminants (payload byte 0).
const KIND_STAGE: u8 = 0;
const KIND_BATCH: u8 = 1;
/// Reserved: feeder stalls, merge waits and queue-depth samples of the
/// channel-based stage driver. Traces recorded before it was replaced
/// by `ph_exec::map` still hold them; readers skip them, and no new
/// event kind may reuse them.
const KIND_STALL: u8 = 2;
const KIND_MERGE_WAIT: u8 = 3;
const KIND_DEPTH: u8 = 4;
const KIND_PHASE: u8 = 5;
/// The stream-header frame (dropped-event count), always frame 0.
const KIND_HEADER: u8 = 6;

/// Encodes one trace event into a frame payload.
#[must_use]
pub fn encode_trace_event(event: &TraceEvent) -> Vec<u8> {
    let mut buf = Vec::with_capacity(40 + event.name().len());
    match event {
        TraceEvent::Stage {
            name,
            start_us,
            dur_us,
            workers,
            items,
        } => {
            put_u8(&mut buf, KIND_STAGE);
            put_str(&mut buf, name);
            put_u64(&mut buf, *start_us);
            put_u64(&mut buf, *dur_us);
            put_u32(&mut buf, *workers);
            put_u64(&mut buf, *items);
        }
        TraceEvent::Batch {
            name,
            worker,
            start_us,
            dur_us,
            items,
        } => {
            put_u8(&mut buf, KIND_BATCH);
            put_str(&mut buf, name);
            put_u32(&mut buf, *worker);
            put_u64(&mut buf, *start_us);
            put_u64(&mut buf, *dur_us);
            put_u32(&mut buf, *items);
        }
        TraceEvent::Phase {
            name,
            start_us,
            dur_us,
        } => {
            put_u8(&mut buf, KIND_PHASE);
            put_str(&mut buf, name);
            put_u64(&mut buf, *start_us);
            put_u64(&mut buf, *dur_us);
        }
    }
    buf
}

/// Decodes one trace-event frame payload.
///
/// # Errors
///
/// Returns a [`StoreDecodeError`] on truncated or malformed payloads
/// (including the header frame, which is not an event); never panics,
/// whatever the input bytes.
pub fn decode_trace_event(payload: &[u8]) -> Result<TraceEvent, StoreDecodeError> {
    let mut buf = payload;
    let event = match take_u8(&mut buf)? {
        KIND_STAGE => TraceEvent::Stage {
            name: take_str(&mut buf)?,
            start_us: take_u64(&mut buf)?,
            dur_us: take_u64(&mut buf)?,
            workers: take_u32(&mut buf)?,
            items: take_u64(&mut buf)?,
        },
        KIND_BATCH => TraceEvent::Batch {
            name: take_str(&mut buf)?,
            worker: take_u32(&mut buf)?,
            start_us: take_u64(&mut buf)?,
            dur_us: take_u64(&mut buf)?,
            items: take_u32(&mut buf)?,
        },
        KIND_PHASE => TraceEvent::Phase {
            name: take_str(&mut buf)?,
            start_us: take_u64(&mut buf)?,
            dur_us: take_u64(&mut buf)?,
        },
        value => {
            return Err(StoreDecodeError::BadDiscriminant {
                field: "trace event kind",
                value,
            })
        }
    };
    if !buf.is_empty() {
        return Err(StoreDecodeError::BadDiscriminant {
            field: "trace trailing bytes",
            value: buf[0],
        });
    }
    Ok(event)
}

fn encode_header(dropped: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(9);
    put_u8(&mut buf, KIND_HEADER);
    put_u64(&mut buf, dropped);
    buf
}

/// Writes a captured trace into `dir/trace.log` (truncate-and-replace,
/// like the journal and series streams).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_trace(dir: &Path, log: &TraceLog) -> io::Result<()> {
    let mut payloads = Vec::with_capacity(log.events.len() + 1);
    payloads.push(encode_header(log.dropped));
    payloads.extend(log.events.iter().map(encode_trace_event));
    write_framed(&dir.join(TRACE_FILE), &TRACE_MAGIC, &payloads)
}

/// Reads the trace stream at an explicit file path.
///
/// # Errors
///
/// Fails with [`io::ErrorKind::NotFound`] when the file is missing and
/// [`io::ErrorKind::InvalidData`] when it is not a trace stream;
/// corrupt frames past the header end the stream (torn-tail recovery)
/// rather than erroring. Frames of the reserved kinds an older recorder
/// wrote (stalls, merge waits, depth samples) are skipped.
pub fn read_trace_file(path: &Path) -> io::Result<TraceLog> {
    Ok(decode_trace(&read_framed(path, &TRACE_MAGIC)?))
}

/// Reads a store's persisted trace. Returns an empty log when the store
/// has none (e.g. the run was not traced).
///
/// # Errors
///
/// Fails with [`io::ErrorKind::InvalidData`] if the file exists but is
/// not a trace stream; propagates other I/O failures.
pub fn read_trace(dir: &Path) -> io::Result<TraceLog> {
    Ok(decode_trace(&read_sidecar(dir, TRACE_FILE, &TRACE_MAGIC)?))
}

/// The trace a stream's payloads hold: the header frame's drop count,
/// then every event up to the first that does not decode.
fn decode_trace(payloads: &[Vec<u8>]) -> TraceLog {
    let mut dropped = 0u64;
    let mut events = Vec::with_capacity(payloads.len().saturating_sub(1));
    for (i, payload) in payloads.iter().enumerate() {
        if i == 0 && payload.first() == Some(&KIND_HEADER) {
            let mut buf = &payload[1..];
            dropped = take_u64(&mut buf).unwrap_or(0);
            continue;
        }
        if matches!(
            payload.first(),
            Some(&(KIND_STALL | KIND_MERGE_WAIT | KIND_DEPTH))
        ) {
            continue;
        }
        match decode_trace_event(payload) {
            Ok(event) => events.push(event),
            Err(_) => break,
        }
    }
    TraceLog::from_events(events, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ph-store-trace-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Stage {
                name: "monitor.categorize".to_string(),
                start_us: 5,
                dur_us: 120,
                workers: 4,
                items: 640,
            },
            TraceEvent::Batch {
                name: "monitor.categorize".to_string(),
                worker: 2,
                start_us: 10,
                dur_us: 20,
                items: 32,
            },
            TraceEvent::Phase {
                name: "ml.train".to_string(),
                start_us: 70,
                dur_us: 400_000,
            },
        ]
    }

    #[test]
    fn every_event_kind_roundtrips() {
        for event in sample_events() {
            let decoded = decode_trace_event(&encode_trace_event(&event)).unwrap();
            assert_eq!(decoded, event);
        }
    }

    #[test]
    fn truncated_payload_errors_at_every_cut() {
        for event in sample_events() {
            let payload = encode_trace_event(&event);
            for cut in 0..payload.len() {
                assert!(
                    decode_trace_event(&payload[..cut]).is_err(),
                    "cut at {cut} decoded for {event:?}"
                );
            }
        }
    }

    #[test]
    fn write_read_roundtrips_with_dropped_count() {
        let dir = temp_dir("roundtrip");
        let log = TraceLog::from_events(sample_events(), 17);
        write_trace(&dir, &log).unwrap();
        assert_eq!(read_trace(&dir).unwrap(), log);
    }

    #[test]
    fn missing_trace_reads_as_empty() {
        let dir = temp_dir("missing");
        assert_eq!(read_trace(&dir).unwrap(), TraceLog::default());
    }

    #[test]
    fn foreign_file_is_rejected() {
        let dir = temp_dir("foreign");
        fs::write(dir.join(TRACE_FILE), b"not a trace stream, honest").unwrap();
        let err = read_trace(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupted_tail_is_dropped_not_fatal() {
        let dir = temp_dir("corrupt");
        write_trace(&dir, &TraceLog::from_events(sample_events(), 0)).unwrap();
        let path = dir.join(TRACE_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let len = bytes.len();
        bytes[len - 2] ^= 0xFF;
        fs::write(&path, bytes).unwrap();
        let read = read_trace(&dir).unwrap();
        assert!(read.events.len() < sample_events().len());
    }

    #[test]
    fn reserved_kinds_from_older_traces_are_skipped() {
        // A stream as the channel-based driver wrote it: stall, merge-wait
        // and depth frames between current events, then a corrupt frame
        // and one more event that must not be reached.
        let dir = temp_dir("reserved");
        let stage = TraceEvent::Stage {
            name: "features.pure".to_string(),
            start_us: 5,
            dur_us: 90,
            workers: 2,
            items: 64,
        };
        let batch = TraceEvent::Batch {
            name: "features.pure".to_string(),
            worker: 1,
            start_us: 10,
            dur_us: 20,
            items: 32,
        };
        let phase = TraceEvent::Phase {
            name: "ml.train".to_string(),
            start_us: 100,
            dur_us: 40,
        };
        let mut stall = vec![KIND_STALL];
        put_str(&mut stall, "features.pure");
        put_u32(&mut stall, 1); // shard
        put_u64(&mut stall, 40);
        put_u64(&mut stall, 7);
        let mut merge_wait = vec![KIND_MERGE_WAIT];
        put_str(&mut merge_wait, "features.pure");
        put_u64(&mut merge_wait, 50);
        put_u64(&mut merge_wait, 3);
        put_u32(&mut merge_wait, 9); // pending
        let mut depth = vec![KIND_DEPTH];
        put_str(&mut depth, "features.pure");
        put_u32(&mut depth, 0); // shard
        put_u64(&mut depth, 60);
        put_u32(&mut depth, 5);
        let after_garbage = TraceEvent::Phase {
            name: "unreached".to_string(),
            start_us: 200,
            dur_us: 1,
        };
        let payloads = vec![
            encode_header(4),
            encode_trace_event(&stage),
            stall,
            encode_trace_event(&batch),
            merge_wait,
            depth,
            encode_trace_event(&phase),
            vec![0xEE, 1, 2, 3],
            encode_trace_event(&after_garbage),
        ];
        write_framed(&dir.join(TRACE_FILE), &TRACE_MAGIC, &payloads).unwrap();
        let read = read_trace(&dir).unwrap();
        assert_eq!(read, TraceLog::from_events(vec![stage, batch, phase], 4));
    }

    #[test]
    fn write_is_truncate_and_replace() {
        let dir = temp_dir("replace");
        write_trace(&dir, &TraceLog::from_events(sample_events(), 3)).unwrap();
        let one = TraceLog::from_events(
            vec![TraceEvent::Phase {
                name: "only".to_string(),
                start_us: 0,
                dur_us: 1,
            }],
            0,
        );
        write_trace(&dir, &one).unwrap();
        assert_eq!(read_trace(&dir).unwrap(), one);
    }
}
