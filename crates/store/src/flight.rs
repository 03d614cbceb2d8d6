//! Durable flight recordings: the post-mortem sidecar dumped into a
//! store directory when a run hits an abnormal path.
//!
//! `flight.log` (magic `PHSTFLT\x01`) carries the telemetry flight
//! ring ([`ph_telemetry::FlightEntry`]), one entry per frame of the
//! store's shared file format (described once, in `frame.rs`). Unlike `journal.log`, the recording is wall-clock stamped
//! and includes diagnostic events, so it is deliberately **outside**
//! the byte-stability contract — it is only ever written on SIGQUIT, a
//! watchdog trip, or a panic (never by a clean run), and writing is
//! truncate-and-replace so the most recent dump wins.

use std::io;
use std::path::Path;

use ph_telemetry::FlightEntry;

use crate::codec::{put_str, put_u64, take_str, take_u64};
use crate::frame::{read_sidecar, write_framed};
use crate::record::StoreDecodeError;

/// Flight-recording file name inside a store directory.
pub const FLIGHT_FILE: &str = "flight.log";

/// Magic bytes opening the flight stream.
pub const FLIGHT_MAGIC: [u8; 8] = *b"PHSTFLT\x01";

/// Encodes one flight entry into a frame payload.
#[must_use]
pub fn encode_flight_entry(entry: &FlightEntry) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + entry.kind.len() + entry.detail.len());
    put_u64(&mut buf, entry.at_ms);
    put_str(&mut buf, &entry.kind);
    put_str(&mut buf, &entry.detail);
    buf
}

/// Decodes one flight-entry frame payload.
///
/// # Errors
///
/// Returns a [`StoreDecodeError`] on truncated or malformed payloads;
/// never panics, whatever the input bytes.
pub fn decode_flight_entry(payload: &[u8]) -> Result<FlightEntry, StoreDecodeError> {
    let mut buf = payload;
    let at_ms = take_u64(&mut buf)?;
    let kind = take_str(&mut buf)?;
    let detail = take_str(&mut buf)?;
    if !buf.is_empty() {
        return Err(StoreDecodeError::BadDiscriminant {
            field: "flight trailing bytes",
            value: buf[0],
        });
    }
    Ok(FlightEntry {
        at_ms,
        kind,
        detail,
    })
}

/// Writes a flight recording into `dir` (truncate-and-replace).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_flight(dir: &Path, entries: &[FlightEntry]) -> io::Result<()> {
    let payloads: Vec<Vec<u8>> = entries.iter().map(encode_flight_entry).collect();
    write_framed(&dir.join(FLIGHT_FILE), &FLIGHT_MAGIC, &payloads)
}

/// Reads a store's flight recording. Returns an empty vector when the
/// store has none (the run never hit an abnormal path).
///
/// # Errors
///
/// Fails with [`io::ErrorKind::InvalidData`] if the file exists but is
/// not a flight stream; propagates other I/O failures.
pub fn read_flight(dir: &Path) -> io::Result<Vec<FlightEntry>> {
    Ok(read_sidecar(dir, FLIGHT_FILE, &FLIGHT_MAGIC)?
        .iter()
        .map_while(|p| decode_flight_entry(p).ok())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ph-store-flight-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_entries() -> Vec<FlightEntry> {
        vec![
            FlightEntry {
                at_ms: 1_700_000_000_000,
                kind: "hour_tick".into(),
                detail: "hour 3: collected 120, dropped 0".into(),
            },
            FlightEntry {
                at_ms: 1_700_000_000_250,
                kind: "slo_breach".into(),
                detail: "hour 3: alert 'slo.p99' breached (612.000 > 250.000)".into(),
            },
            FlightEntry {
                at_ms: 1_700_000_001_000,
                kind: "note".into(),
                detail: String::new(),
            },
        ]
    }

    #[test]
    fn entries_roundtrip_exactly() {
        for entry in sample_entries() {
            let decoded = decode_flight_entry(&encode_flight_entry(&entry)).unwrap();
            assert_eq!(decoded, entry);
        }
    }

    #[test]
    fn truncation_at_every_cut_is_an_error_not_a_panic() {
        for entry in sample_entries() {
            let full = encode_flight_entry(&entry);
            for cut in 0..full.len() {
                assert!(
                    decode_flight_entry(&full[..cut]).is_err(),
                    "cut {cut} of {} decoded",
                    full.len()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_flight_entry(&sample_entries()[0]);
        bytes.push(0xAB);
        assert!(decode_flight_entry(&bytes).is_err());
    }

    #[test]
    fn write_then_read_roundtrips_through_a_store_dir() {
        let dir = temp_dir("roundtrip");
        let entries = sample_entries();
        write_flight(&dir, &entries).unwrap();
        assert_eq!(read_flight(&dir).unwrap(), entries);
        // Truncate-and-replace: a second, shorter dump wins outright.
        write_flight(&dir, &entries[..1]).unwrap();
        assert_eq!(read_flight(&dir).unwrap(), entries[..1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_reads_as_empty() {
        let dir = temp_dir("missing");
        assert!(read_flight(&dir).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_file_is_invalid_data() {
        let dir = temp_dir("foreign");
        fs::write(dir.join(FLIGHT_FILE), b"not a flight stream at all").unwrap();
        let err = read_flight(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_tail_frame_is_dropped_not_fatal() {
        let dir = temp_dir("torn");
        let entries = sample_entries();
        write_flight(&dir, &entries).unwrap();
        // Flip a byte in the last frame's payload: CRC fails, the tail
        // is dropped, the prefix survives.
        let path = dir.join(FLIGHT_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let len = bytes.len();
        bytes[len - 1] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let read = read_flight(&dir).unwrap();
        assert_eq!(read, entries[..2]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
