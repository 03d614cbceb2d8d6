//! Hourly checkpoints: the resumable cursor of a monitoring run.
//!
//! A checkpoint pins everything a resume needs *besides* the tweets
//! themselves (those live in the segment log): the run cursor
//! ([`RunState`]), the cumulative report counters (hours, dropped,
//! node-hours per slot), the record count the segment log had when the
//! checkpoint was taken, and the absolute engine hour. The engine's RNG
//! state is deliberately **not** serialized — the simulation is
//! deterministic in its seed, so "engine at hour `h`" is reconstructed by
//! replaying `h` hours from the manifest's seed, which the
//! monitor-refactor tests prove is byte-equivalent.
//!
//! Checkpoints append to a single `checkpoints.log` file (magic
//! `PHSTCKP\x01`), one per frame of the store's shared file format
//! (described once, in `frame.rs`). On reopen everything past the valid
//! prefix is truncated, exactly like the segment log — a frame whose
//! payload does not decode ends the prefix too; resume then picks the
//! newest checkpoint whose `records` the *recovered* segment log still
//! covers — so a crash that tears the segment log simply rolls back to
//! the previous durable hour.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Seek, SeekFrom, Write};
use std::path::Path;

use ph_core::attributes::SampleAttribute;
use ph_core::monitor::{MonitorReport, RunState};
use ph_twitter_sim::AccountId;

use crate::codec::{put_f64, put_u32, put_u64, take_f64, take_u32, take_u64};
use crate::frame::{self, FRAME_OVERHEAD};
use crate::record::{put_slot, take_slot, StoreDecodeError};

/// Magic bytes opening the checkpoint log.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"PHSTCKP\x01";

/// One durable snapshot of run progress, taken at an hour boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Segment-log record count when this checkpoint was taken (every
    /// record below this index belongs to an already-completed hour).
    pub records: u64,
    /// Absolute engine hour (ground-truth warmup included) to fast-forward
    /// a fresh engine to before resuming.
    pub engine_hours: u64,
    /// The monitor's resumable cursor.
    pub state: RunState,
    /// Cumulative hours monitored across all segments so far.
    pub hours: u64,
    /// Cumulative tweets shed by the streaming buffer.
    pub dropped: u64,
    /// Cumulative node-hours per slot.
    pub node_hours: HashMap<SampleAttribute, f64>,
}

impl Checkpoint {
    /// Builds a checkpoint from the runner's cursor and the cumulative
    /// report (prior segments already merged in).
    #[must_use]
    pub fn new(
        records: u64,
        engine_hours: u64,
        state: &RunState,
        cumulative: &MonitorReport,
    ) -> Self {
        Self {
            records,
            engine_hours,
            state: state.clone(),
            hours: cumulative.hours,
            dropped: cumulative.dropped,
            node_hours: cumulative.node_hours.clone(),
        }
    }

    /// The cumulative counters as a (collected-less) [`MonitorReport`],
    /// ready to merge the resumed segments into.
    #[must_use]
    pub fn report(&self) -> MonitorReport {
        MonitorReport {
            collected: Vec::new(),
            node_hours: self.node_hours.clone(),
            hours: self.hours,
            dropped: self.dropped,
        }
    }

    /// Serializes the checkpoint payload (framing added by the log).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + 16 * self.state.membership.len());
        put_u64(&mut buf, self.records);
        put_u64(&mut buf, self.engine_hours);
        put_u64(&mut buf, self.state.next_hour);
        put_u64(&mut buf, self.state.round);
        put_u32(&mut buf, self.state.membership.len() as u32);
        for (account, slot) in &self.state.membership {
            put_u32(&mut buf, account.0);
            put_slot(&mut buf, slot);
        }
        put_u64(&mut buf, self.hours);
        put_u64(&mut buf, self.dropped);
        // Byte-stable order: sort per-slot entries by their encoding.
        let mut entries: Vec<(Vec<u8>, f64)> = self
            .node_hours
            .iter()
            .map(|(slot, &nh)| {
                let mut key = Vec::new();
                put_slot(&mut key, slot);
                (key, nh)
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        put_u32(&mut buf, entries.len() as u32);
        for (key, nh) in entries {
            buf.extend_from_slice(&key);
            put_f64(&mut buf, nh);
        }
        buf
    }

    /// Deserializes a checkpoint payload.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreDecodeError`] on truncated or malformed payloads;
    /// never panics, whatever the input bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, StoreDecodeError> {
        let mut buf = payload;
        let records = take_u64(&mut buf)?;
        let engine_hours = take_u64(&mut buf)?;
        let next_hour = take_u64(&mut buf)?;
        let round = take_u64(&mut buf)?;
        let members = take_u32(&mut buf)?;
        if u64::from(members) > buf.len() as u64 {
            return Err(StoreDecodeError::Truncated);
        }
        let mut membership = Vec::with_capacity(members as usize);
        for _ in 0..members {
            let account = AccountId(take_u32(&mut buf)?);
            membership.push((account, take_slot(&mut buf)?));
        }
        let hours = take_u64(&mut buf)?;
        let dropped = take_u64(&mut buf)?;
        let slots = take_u32(&mut buf)?;
        if u64::from(slots) > buf.len() as u64 {
            return Err(StoreDecodeError::Truncated);
        }
        let mut node_hours = HashMap::with_capacity(slots as usize);
        for _ in 0..slots {
            let slot = take_slot(&mut buf)?;
            node_hours.insert(slot, take_f64(&mut buf)?);
        }
        if !buf.is_empty() {
            return Err(StoreDecodeError::BadDiscriminant {
                field: "checkpoint trailing bytes",
                value: buf[0],
            });
        }
        Ok(Self {
            records,
            engine_hours,
            state: RunState {
                next_hour,
                round,
                membership,
            },
            hours,
            dropped,
            node_hours,
        })
    }
}

/// The append-only checkpoint file.
#[derive(Debug)]
pub struct CheckpointLog {
    file: File,
}

impl CheckpointLog {
    /// Creates a fresh checkpoint log at `path`.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::AlreadyExists`] if the file exists.
    pub fn create(path: &Path) -> io::Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)?;
        file.write_all(&frame::header(&CHECKPOINT_MAGIC))?;
        Ok(Self { file })
    }

    /// Reopens the checkpoint log, truncating any torn tail, and returns
    /// every intact checkpoint in append order.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] if the file header itself
    /// is unreadable (the store is not ours); propagates I/O failures.
    pub fn open(path: &Path) -> io::Result<(Self, Vec<Checkpoint>)> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let file_len = file.metadata()?.len();
        let mut reader = BufReader::new(&mut file);
        if !frame::read_header(&mut reader, &CHECKPOINT_MAGIC)? {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not a ph-store checkpoint log", path.display()),
            ));
        }
        let mut checkpoints = Vec::new();
        let mut valid_len = frame::HEADER_LEN;
        for payload in frame::read_prefix(&mut reader)? {
            let Ok(checkpoint) = Checkpoint::decode(&payload) else {
                break;
            };
            checkpoints.push(checkpoint);
            valid_len += FRAME_OVERHEAD + payload.len() as u64;
        }
        if valid_len < file_len {
            ph_telemetry::cached_counter!("store.recovery.truncated_bytes")
                .add(file_len - valid_len);
            ph_telemetry::log_warn!(
                "checkpoint log torn tail: truncated {} bytes, {} checkpoints survive",
                file_len - valid_len,
                checkpoints.len()
            );
            file.set_len(valid_len)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((Self { file }, checkpoints))
    }

    /// A second handle on the same file, for the store's writer thread.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures duplicating the handle.
    pub(crate) fn try_clone(&self) -> io::Result<Self> {
        Ok(Self {
            file: self.file.try_clone()?,
        })
    }

    /// Appends one checkpoint and fsyncs it — a checkpoint that is not
    /// durable is not a checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn append(&mut self, checkpoint: &Checkpoint) -> io::Result<()> {
        let payload = checkpoint.encode();
        let mut frame = Vec::with_capacity(FRAME_OVERHEAD as usize + payload.len());
        frame::put_frame(&mut frame, &payload);
        self.file.write_all(&frame)?;
        let span = ph_telemetry::span("store.checkpoint_fsync");
        self.file.sync_all()?;
        ph_telemetry::histogram(
            "store.fsync_ms",
            &ph_telemetry::default_latency_buckets_ms(),
        )
        .record(span.elapsed_ms());
        ph_telemetry::cached_counter!("store.checkpoints_written").add(1);
        ph_telemetry::cached_counter!("store.bytes_written").add(frame.len() as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_core::attributes::ProfileAttribute;
    use std::fs;
    use std::path::PathBuf;

    fn temp_file(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ph-store-ckp-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = fs::remove_file(&path);
        path
    }

    fn sample(records: u64) -> Checkpoint {
        let slot_a = SampleAttribute::profile(ProfileAttribute::FriendsCount, 1_000.0);
        let slot_b = SampleAttribute::hashtag(None);
        Checkpoint {
            records,
            engine_hours: 100 + records,
            state: RunState {
                next_hour: records / 2,
                round: records / 3,
                membership: vec![(AccountId(3), slot_a), (AccountId(9), slot_b)],
            },
            hours: records / 2,
            dropped: records % 5,
            node_hours: [(slot_a, 12.5), (slot_b, 3.0)].into_iter().collect(),
        }
    }

    #[test]
    fn payload_roundtrips() {
        let c = sample(42);
        assert_eq!(Checkpoint::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn payload_encoding_is_deterministic() {
        // HashMap iteration order must not leak into the bytes.
        let a = sample(7).encode();
        let b = sample(7).encode();
        assert_eq!(a, b);
    }

    #[test]
    fn truncated_payload_errors_at_every_cut() {
        let payload = sample(9).encode();
        for cut in 0..payload.len() {
            assert!(
                Checkpoint::decode(&payload[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn append_reopen_returns_all() {
        let path = temp_file("roundtrip.log");
        let mut log = CheckpointLog::create(&path).unwrap();
        for i in 1..=5 {
            log.append(&sample(i * 10)).unwrap();
        }
        drop(log);
        let (_log, checkpoints) = CheckpointLog::open(&path).unwrap();
        assert_eq!(checkpoints.len(), 5);
        assert_eq!(checkpoints[4], sample(50));
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = temp_file("torn.log");
        let mut log = CheckpointLog::create(&path).unwrap();
        log.append(&sample(10)).unwrap();
        log.append(&sample(20)).unwrap();
        drop(log);
        let intact_len = fs::metadata(&path).unwrap().len();
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&[0xAB; 5]).unwrap(); // half a frame header
        drop(file);
        let (mut log, checkpoints) = CheckpointLog::open(&path).unwrap();
        assert_eq!(checkpoints.len(), 2);
        assert_eq!(fs::metadata(&path).unwrap().len(), intact_len);
        // And the log appends cleanly after truncation.
        log.append(&sample(30)).unwrap();
        drop(log);
        let (_, checkpoints) = CheckpointLog::open(&path).unwrap();
        assert_eq!(checkpoints.len(), 3);
    }

    #[test]
    fn foreign_file_is_rejected() {
        let path = temp_file("foreign.log");
        fs::write(&path, b"definitely not a checkpoint log").unwrap();
        let err = CheckpointLog::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
