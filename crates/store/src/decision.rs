//! Durable decision observability: the `explain.log` and `drift.log`
//! streams persisted next to `journal.log`/`series.log` when a run is
//! recorded with `--explain`.
//!
//! Same file format as the other sidecar streams (described once, in
//! `frame.rs`): truncate-and-replace write, torn-tail-tolerant read.
//!
//! - `explain.log` holds one [`VerdictExplanation`] per classified
//!   tweet, in classification order; an explanation's `seq` equals the
//!   segment-log record index, so `explain` can join a stored verdict
//!   with its attribution vector from the store alone.
//! - `drift.log` holds the finished [`DriftHourScores`] windows followed
//!   by the [`DriftAlarmRecord`] timeline (kind-discriminated frames,
//!   so the two sequences interleave safely).
//!
//! Both streams are produced by the *sequential* classify fold over a
//! deterministic feature matrix, so — unlike `series.log` or
//! `trace.log` — they are part of the byte-stability contract: the same
//! run writes byte-identical `explain.log`/`drift.log` at any
//! `--threads N`.

use std::io;
use std::path::Path;

use ph_core::features::FEATURE_COUNT;
use ph_core::observe::{DriftAlarmRecord, DriftHourScores, VerdictExplanation};

use crate::codec::{put_f64, put_u32, put_u64, put_u8, take_f64, take_u32, take_u64, take_u8};
use crate::frame::{read_sidecar, write_framed};
use crate::record::StoreDecodeError;

/// Explanation stream file name inside a store directory.
pub const EXPLAIN_FILE: &str = "explain.log";

/// Drift stream file name inside a store directory.
pub const DRIFT_FILE: &str = "drift.log";

/// Magic bytes opening the explanation stream.
pub const EXPLAIN_MAGIC: [u8; 8] = *b"PHSTEXP\x01";

/// Magic bytes opening the drift stream.
pub const DRIFT_MAGIC: [u8; 8] = *b"PHSTDRF\x01";

/// Drift-frame discriminants (payload byte 0).
const KIND_HOUR: u8 = 0;
const KIND_ALARM: u8 = 1;

/// One frame of the drift stream: an hourly window or an alarm.
// The size skew is deliberate: frames exist only transiently at the
// codec boundary (one per decode call), never in bulk collections, so
// boxing the PSI array would buy nothing but an allocation per frame.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum DriftFrame {
    /// A finished hourly window's per-feature PSI scores.
    Hour(DriftHourScores),
    /// A threshold crossing.
    Alarm(DriftAlarmRecord),
}

/// Encodes one verdict explanation into a frame payload.
#[must_use]
pub fn encode_explanation(e: &VerdictExplanation) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 * 4 + 1 + 8 + 8 * FEATURE_COUNT);
    put_u64(&mut buf, e.seq);
    put_u64(&mut buf, e.hour);
    put_u8(&mut buf, u8::from(e.spam));
    put_f64(&mut buf, e.score);
    put_f64(&mut buf, e.margin);
    put_f64(&mut buf, e.baseline);
    for &a in &e.attributions {
        put_f64(&mut buf, a);
    }
    buf
}

/// Decodes one explanation frame payload.
///
/// # Errors
///
/// Returns a [`StoreDecodeError`] on truncated or malformed payloads;
/// never panics, whatever the input bytes.
pub fn decode_explanation(payload: &[u8]) -> Result<VerdictExplanation, StoreDecodeError> {
    let mut buf = payload;
    let seq = take_u64(&mut buf)?;
    let hour = take_u64(&mut buf)?;
    let spam = match take_u8(&mut buf)? {
        0 => false,
        1 => true,
        value => {
            return Err(StoreDecodeError::BadDiscriminant {
                field: "explanation spam flag",
                value,
            })
        }
    };
    let score = take_f64(&mut buf)?;
    let margin = take_f64(&mut buf)?;
    let baseline = take_f64(&mut buf)?;
    let mut attributions = [0.0f64; FEATURE_COUNT];
    for slot in &mut attributions {
        *slot = take_f64(&mut buf)?;
    }
    if !buf.is_empty() {
        return Err(StoreDecodeError::BadDiscriminant {
            field: "explanation trailing bytes",
            value: buf[0],
        });
    }
    Ok(VerdictExplanation {
        seq,
        hour,
        spam,
        score,
        margin,
        baseline,
        attributions,
    })
}

/// Encodes one drift frame (hourly window or alarm) into a payload.
#[must_use]
pub fn encode_drift_frame(frame: &DriftFrame) -> Vec<u8> {
    match frame {
        DriftFrame::Hour(h) => {
            let mut buf = Vec::with_capacity(1 + 16 + 8 * FEATURE_COUNT);
            put_u8(&mut buf, KIND_HOUR);
            put_u64(&mut buf, h.hour);
            put_u64(&mut buf, h.samples);
            for &p in &h.psi {
                put_f64(&mut buf, p);
            }
            buf
        }
        DriftFrame::Alarm(a) => {
            let mut buf = Vec::with_capacity(1 + 8 + 4 + 8);
            put_u8(&mut buf, KIND_ALARM);
            put_u64(&mut buf, a.hour);
            put_u32(&mut buf, a.feature);
            put_f64(&mut buf, a.psi);
            buf
        }
    }
}

/// Decodes one drift frame payload.
///
/// # Errors
///
/// Returns a [`StoreDecodeError`] on truncated or malformed payloads;
/// never panics, whatever the input bytes.
pub fn decode_drift_frame(payload: &[u8]) -> Result<DriftFrame, StoreDecodeError> {
    let mut buf = payload;
    let frame = match take_u8(&mut buf)? {
        KIND_HOUR => {
            let hour = take_u64(&mut buf)?;
            let samples = take_u64(&mut buf)?;
            let mut psi = [0.0f64; FEATURE_COUNT];
            for slot in &mut psi {
                *slot = take_f64(&mut buf)?;
            }
            DriftFrame::Hour(DriftHourScores { hour, samples, psi })
        }
        KIND_ALARM => DriftFrame::Alarm(DriftAlarmRecord {
            hour: take_u64(&mut buf)?,
            feature: take_u32(&mut buf)?,
            psi: take_f64(&mut buf)?,
        }),
        value => {
            return Err(StoreDecodeError::BadDiscriminant {
                field: "drift frame kind",
                value,
            })
        }
    };
    if !buf.is_empty() {
        return Err(StoreDecodeError::BadDiscriminant {
            field: "drift trailing bytes",
            value: buf[0],
        });
    }
    Ok(frame)
}

/// Writes the explanation stream into `dir/explain.log`
/// (truncate-and-replace, like the journal).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_explain(dir: &Path, explanations: &[VerdictExplanation]) -> io::Result<()> {
    let payloads: Vec<Vec<u8>> = explanations.iter().map(encode_explanation).collect();
    write_framed(&dir.join(EXPLAIN_FILE), &EXPLAIN_MAGIC, &payloads)
}

/// Reads a store's persisted explanations. Returns an empty vector when
/// the store has none (e.g. the run was not explained).
///
/// # Errors
///
/// Fails with [`io::ErrorKind::InvalidData`] if the file exists but is
/// not an explanation stream; corrupt frames end the stream (torn-tail
/// recovery) rather than erroring.
pub fn read_explain(dir: &Path) -> io::Result<Vec<VerdictExplanation>> {
    let payloads = read_sidecar(dir, EXPLAIN_FILE, &EXPLAIN_MAGIC)?;
    let mut explanations = Vec::with_capacity(payloads.len());
    for payload in &payloads {
        match decode_explanation(payload) {
            Ok(e) => explanations.push(e),
            Err(_) => break,
        }
    }
    Ok(explanations)
}

/// Writes the drift stream into `dir/drift.log`: every finished hourly
/// window, then the alarm timeline (truncate-and-replace).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_drift(
    dir: &Path,
    hours: &[DriftHourScores],
    alarms: &[DriftAlarmRecord],
) -> io::Result<()> {
    let mut payloads = Vec::with_capacity(hours.len() + alarms.len());
    payloads.extend(
        hours
            .iter()
            .map(|h| encode_drift_frame(&DriftFrame::Hour(h.clone()))),
    );
    payloads.extend(
        alarms
            .iter()
            .map(|a| encode_drift_frame(&DriftFrame::Alarm(a.clone()))),
    );
    write_framed(&dir.join(DRIFT_FILE), &DRIFT_MAGIC, &payloads)
}

/// Reads a store's persisted drift windows and alarms. Returns empty
/// vectors when the store has no drift stream.
///
/// # Errors
///
/// Fails with [`io::ErrorKind::InvalidData`] if the file exists but is
/// not a drift stream; corrupt frames end the stream (torn-tail
/// recovery) rather than erroring.
pub fn read_drift(dir: &Path) -> io::Result<(Vec<DriftHourScores>, Vec<DriftAlarmRecord>)> {
    let payloads = read_sidecar(dir, DRIFT_FILE, &DRIFT_MAGIC)?;
    let mut hours = Vec::new();
    let mut alarms = Vec::new();
    for payload in &payloads {
        match decode_drift_frame(payload) {
            Ok(DriftFrame::Hour(h)) => hours.push(h),
            Ok(DriftFrame::Alarm(a)) => alarms.push(a),
            Err(_) => break,
        }
    }
    Ok((hours, alarms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ph-store-decision-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_explanations() -> Vec<VerdictExplanation> {
        let mut attributions = [0.0f64; FEATURE_COUNT];
        attributions[0] = 0.25;
        attributions[7] = -0.125;
        attributions[57] = 1e-300;
        vec![
            VerdictExplanation {
                seq: 0,
                hour: 3,
                spam: true,
                score: 0.875,
                margin: 0.75,
                baseline: 0.5,
                attributions,
            },
            VerdictExplanation {
                seq: 1,
                hour: 3,
                spam: false,
                score: 0.125,
                margin: -0.75,
                baseline: 0.5,
                attributions: [0.0; FEATURE_COUNT],
            },
        ]
    }

    fn sample_drift() -> (Vec<DriftHourScores>, Vec<DriftAlarmRecord>) {
        let mut psi = [0.0f64; FEATURE_COUNT];
        psi[4] = 0.625;
        psi[30] = 0.0625;
        (
            vec![
                DriftHourScores {
                    hour: 1,
                    samples: 40,
                    psi: [0.0; FEATURE_COUNT],
                },
                DriftHourScores {
                    hour: 2,
                    samples: 44,
                    psi,
                },
            ],
            vec![DriftAlarmRecord {
                hour: 2,
                feature: 4,
                psi: 0.625,
            }],
        )
    }

    #[test]
    fn explanation_roundtrips() {
        for e in sample_explanations() {
            assert_eq!(decode_explanation(&encode_explanation(&e)).unwrap(), e);
        }
    }

    #[test]
    fn drift_frames_roundtrip() {
        let (hours, alarms) = sample_drift();
        for h in hours {
            let frame = DriftFrame::Hour(h);
            assert_eq!(
                decode_drift_frame(&encode_drift_frame(&frame)).unwrap(),
                frame
            );
        }
        for a in alarms {
            let frame = DriftFrame::Alarm(a);
            assert_eq!(
                decode_drift_frame(&encode_drift_frame(&frame)).unwrap(),
                frame
            );
        }
    }

    #[test]
    fn truncated_payloads_error_at_every_cut() {
        let payload = encode_explanation(&sample_explanations()[0]);
        for cut in 0..payload.len() {
            assert!(
                decode_explanation(&payload[..cut]).is_err(),
                "explanation cut at {cut} decoded"
            );
        }
        let (hours, alarms) = sample_drift();
        for frame in [
            DriftFrame::Hour(hours[1].clone()),
            DriftFrame::Alarm(alarms[0].clone()),
        ] {
            let payload = encode_drift_frame(&frame);
            for cut in 0..payload.len() {
                assert!(
                    decode_drift_frame(&payload[..cut]).is_err(),
                    "drift cut at {cut} decoded for {frame:?}"
                );
            }
        }
    }

    #[test]
    fn bad_spam_flag_is_rejected() {
        let mut payload = encode_explanation(&sample_explanations()[0]);
        payload[16] = 7; // after seq + hour
        assert!(decode_explanation(&payload).is_err());
    }

    #[test]
    fn write_read_roundtrips() {
        let dir = temp_dir("roundtrip");
        let explanations = sample_explanations();
        let (hours, alarms) = sample_drift();
        write_explain(&dir, &explanations).unwrap();
        write_drift(&dir, &hours, &alarms).unwrap();
        assert_eq!(read_explain(&dir).unwrap(), explanations);
        assert_eq!(read_drift(&dir).unwrap(), (hours, alarms));
    }

    #[test]
    fn missing_streams_read_as_empty() {
        let dir = temp_dir("missing");
        assert_eq!(read_explain(&dir).unwrap(), Vec::new());
        assert_eq!(read_drift(&dir).unwrap(), (Vec::new(), Vec::new()));
    }

    #[test]
    fn foreign_files_are_rejected() {
        let dir = temp_dir("foreign");
        fs::write(dir.join(EXPLAIN_FILE), b"not an explanation stream").unwrap();
        fs::write(dir.join(DRIFT_FILE), b"not a drift stream either").unwrap();
        assert_eq!(
            read_explain(&dir).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        assert_eq!(
            read_drift(&dir).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn corrupted_tail_is_dropped_not_fatal() {
        let dir = temp_dir("corrupt");
        write_explain(&dir, &sample_explanations()).unwrap();
        let path = dir.join(EXPLAIN_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let len = bytes.len();
        bytes[len - 2] ^= 0xFF;
        fs::write(&path, bytes).unwrap();
        let read = read_explain(&dir).unwrap();
        assert!(read.len() < sample_explanations().len());
    }

    #[test]
    fn write_is_truncate_and_replace() {
        let dir = temp_dir("replace");
        let explanations = sample_explanations();
        write_explain(&dir, &explanations).unwrap();
        write_explain(&dir, &explanations[..1]).unwrap();
        assert_eq!(read_explain(&dir).unwrap(), explanations[..1]);
        let (hours, alarms) = sample_drift();
        write_drift(&dir, &hours, &alarms).unwrap();
        write_drift(&dir, &hours[..1], &[]).unwrap();
        assert_eq!(read_drift(&dir).unwrap(), (hours[..1].to_vec(), Vec::new()));
    }
}
