//! The append-only, segmented, checksummed event log.
//!
//! A log is a directory of fixed-capacity segment files named
//! `segment-XXXXXXXX.seg`, one record per frame in the store's shared
//! file format (described once, in `frame.rs`). Each segment's 24-byte
//! header is the shared magic + version header (magic `PHSTSEG\x01`)
//! followed by two fields of its own:
//!
//! ```text
//! [12..16) u32    record count (0xFFFF_FFFF while the segment is active)
//! [16..24) u64    global index of the segment's first record
//! ```
//!
//! A segment is *sealed* (its record count written back into the header)
//! when the writer rolls to the next segment; the last segment is
//! *active* and its count is discovered by scanning.
//!
//! **Recovery**: on reopen the whole log is scanned front to back; the
//! shared recovery rule's first invalid frame, or an inconsistent segment
//! header, marks the end of the valid prefix. Everything after it — torn
//! tail bytes and any later segment files — is truncated away and counted
//! in the returned [`RecoveryReport`] and the `store.recovery.*`
//! telemetry counters. Appending then continues from the valid prefix.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use ph_core::monitor::CollectedTweet;

use crate::frame::{self, Frame};
use crate::record::decode_collected;

pub use crate::frame::{FRAME_OVERHEAD, MAX_RECORD_LEN};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"PHSTSEG\x01";

/// Header `record count` sentinel of an active (unsealed) segment.
const ACTIVE: u32 = u32::MAX;

/// Byte length of the segment header.
pub const SEGMENT_HEADER_LEN: u64 = 24;

/// Default segment capacity before the writer rolls to a new file.
pub const DEFAULT_MAX_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// What recovery found (and removed) while reopening a log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Valid records surviving recovery.
    pub records: u64,
    /// Records cut off (torn frames and records stranded after them).
    pub truncated_records: u64,
    /// Bytes cut off.
    pub truncated_bytes: u64,
    /// Whole later segment files removed.
    pub removed_segments: u32,
}

fn segment_path(dir: &Path, index: u32) -> PathBuf {
    dir.join(format!("segment-{index:08}.seg"))
}

/// Segment files in `dir`, sorted by index.
fn list_segments(dir: &Path) -> io::Result<Vec<(u32, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(index) = name
            .strip_prefix("segment-")
            .and_then(|rest| rest.strip_suffix(".seg"))
            .and_then(|digits| digits.parse::<u32>().ok())
        {
            segments.push((index, entry.path()));
        }
    }
    segments.sort_unstable_by_key(|&(index, _)| index);
    Ok(segments)
}

/// Result of scanning one segment file front to back.
#[derive(Debug, Clone)]
struct SegmentScan {
    header_ok: bool,
    /// Sealed record count, `None` when active.
    sealed: Option<u32>,
    base_record: u64,
    valid_records: u64,
    /// Bytes (header included) up to the end of the last valid frame.
    valid_len: u64,
    /// Bytes from the first invalid frame to EOF.
    torn_bytes: u64,
    /// Intact records stranded *after* the first invalid frame — they
    /// cannot be kept (sequential framing gives them no trustworthy
    /// index) but recovery accounting should still see them.
    stranded_records: u64,
}

/// Reads a segment header off `reader`: its record count and first
/// record index, or `None` when the header is short or not a segment's.
fn read_segment_header<R: Read>(reader: &mut R) -> io::Result<Option<(u32, u64)>> {
    if !frame::read_header(reader, &SEGMENT_MAGIC)? {
        return Ok(None);
    }
    let mut fields = [0u8; (SEGMENT_HEADER_LEN - frame::HEADER_LEN) as usize];
    if frame::fill(reader, &mut fields)? < fields.len() {
        return Ok(None);
    }
    let count = u32::from_le_bytes(fields[0..4].try_into().expect("4 bytes"));
    let base_record = u64::from_le_bytes(fields[4..12].try_into().expect("8 bytes"));
    Ok(Some((count, base_record)))
}

fn scan_segment(path: &Path) -> io::Result<SegmentScan> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut reader = BufReader::new(file);
    let Some((count, base_record)) = read_segment_header(&mut reader)? else {
        return Ok(SegmentScan {
            header_ok: false,
            sealed: None,
            base_record: 0,
            valid_records: 0,
            valid_len: 0,
            torn_bytes: file_len,
            stranded_records: 0,
        });
    };
    let mut valid_records = 0u64;
    let mut valid_len = SEGMENT_HEADER_LEN;
    let mut stranded_records = 0u64;
    let mut past_cut = false;
    loop {
        match frame::read_frame(&mut reader)? {
            // Past a torn frame nothing can be framed, so nothing counts.
            Frame::End | Frame::Torn => break,
            // Past the first bad frame we only keep counting what the
            // truncation is about to discard.
            Frame::Intact(_) if past_cut => stranded_records += 1,
            Frame::Intact(payload) => {
                valid_records += 1;
                valid_len += FRAME_OVERHEAD + payload.len() as u64;
            }
            Frame::Corrupt => past_cut = true,
        }
    }
    Ok(SegmentScan {
        header_ok: true,
        sealed: (count != ACTIVE).then_some(count),
        base_record,
        valid_records,
        valid_len,
        torn_bytes: file_len - valid_len,
        stranded_records,
    })
}

/// The append side of the segment log.
#[derive(Debug)]
pub struct SegmentLog {
    dir: PathBuf,
    max_segment_bytes: u64,
    file: File,
    segment_index: u32,
    segment_bytes: u64,
    segment_records: u32,
    records: u64,
}

impl SegmentLog {
    /// Creates a fresh log in `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::AlreadyExists`] if `dir` already holds
    /// segment files (reopen those with [`SegmentLog::open`]).
    pub fn create(dir: &Path, max_segment_bytes: u64) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        if !list_segments(dir)?.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{} already contains a segment log", dir.display()),
            ));
        }
        let file = start_segment(dir, 0, 0)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            max_segment_bytes: max_segment_bytes.max(SEGMENT_HEADER_LEN + FRAME_OVERHEAD),
            file,
            segment_index: 0,
            segment_bytes: SEGMENT_HEADER_LEN,
            segment_records: 0,
            records: 0,
        })
    }

    /// Reopens an existing log, recovering from a torn tail by truncation:
    /// scans every segment front to back, cuts the log at the first
    /// invalid frame or inconsistent header, removes stranded later
    /// segments, and reopens the tail segment for appending.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; corruption is *not* an error (it is
    /// truncated and reported).
    pub fn open(dir: &Path, max_segment_bytes: u64) -> io::Result<(Self, RecoveryReport)> {
        fs::create_dir_all(dir)?;
        let segments = list_segments(dir)?;
        let mut report = RecoveryReport::default();
        let mut kept: Vec<(u32, PathBuf, SegmentScan)> = Vec::new();
        let mut expected_base = 0u64;
        let mut broken = false;
        for (index, path) in segments {
            if broken {
                let scan = scan_segment(&path)?;
                report.truncated_records += scan.valid_records + scan.stranded_records;
                report.truncated_bytes += fs::metadata(&path)?.len();
                report.removed_segments += 1;
                fs::remove_file(&path)?;
                continue;
            }
            let scan = scan_segment(&path)?;
            if !scan.header_ok || scan.base_record != expected_base {
                // Unreadable header or a gap in the record numbering:
                // nothing in this file (or after it) can be trusted.
                report.truncated_records += scan.valid_records + scan.stranded_records;
                report.truncated_bytes += fs::metadata(&path)?.len();
                report.removed_segments += 1;
                fs::remove_file(&path)?;
                broken = true;
                continue;
            }
            let torn = scan.torn_bytes > 0
                || scan
                    .sealed
                    .is_some_and(|sealed| u64::from(sealed) != scan.valid_records);
            expected_base += scan.valid_records;
            kept.push((index, path, scan));
            if torn {
                broken = true;
            }
        }

        let log = match kept.last() {
            None => {
                // Nothing valid at all: start over from segment 0.
                let file = start_segment(dir, 0, 0)?;
                Self {
                    dir: dir.to_path_buf(),
                    max_segment_bytes: max_segment_bytes.max(SEGMENT_HEADER_LEN + FRAME_OVERHEAD),
                    file,
                    segment_index: 0,
                    segment_bytes: SEGMENT_HEADER_LEN,
                    segment_records: 0,
                    records: 0,
                }
            }
            Some((index, path, scan)) => {
                if scan.torn_bytes > 0 {
                    report.truncated_bytes += scan.torn_bytes;
                    report.truncated_records += scan.stranded_records;
                }
                let mut file = OpenOptions::new().read(true).write(true).open(path)?;
                file.set_len(scan.valid_len)?;
                // The tail segment is active again, whatever its header
                // said before.
                write_count(&mut file, ACTIVE)?;
                file.seek(SeekFrom::End(0))?;
                file.sync_all()?;
                Self {
                    dir: dir.to_path_buf(),
                    max_segment_bytes: max_segment_bytes.max(SEGMENT_HEADER_LEN + FRAME_OVERHEAD),
                    file,
                    segment_index: *index,
                    segment_bytes: scan.valid_len,
                    segment_records: scan.valid_records as u32,
                    records: expected_base,
                }
            }
        };
        report.records = log.records;
        if report.truncated_bytes > 0 || report.removed_segments > 0 {
            ph_telemetry::cached_counter!("store.recovery.truncated_records")
                .add(report.truncated_records);
            ph_telemetry::cached_counter!("store.recovery.truncated_bytes")
                .add(report.truncated_bytes);
            ph_telemetry::log_warn!(
                "store recovery truncated {} bytes / {} stranded records ({} segment files removed); \
                 log resumes at record {}",
                report.truncated_bytes,
                report.truncated_records,
                report.removed_segments,
                report.records
            );
        }
        Ok((log, report))
    }

    /// Total records in the log.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Appends record payloads, one frame each; returns the global index
    /// of the first. A new segment starts before any frame that would
    /// overflow the current one's capacity — the check runs per frame, so
    /// the on-disk bytes never depend on how records were batched — and
    /// frames between rolls are coalesced into a single `write_all`,
    /// amortizing the syscall cost across the batch.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a failed batch may leave a torn tail,
    /// which the next [`SegmentLog::open`] truncates away as usual.
    pub fn append_batch<P: AsRef<[u8]>>(&mut self, payloads: &[P]) -> io::Result<u64> {
        let first = self.records;
        let mut buffer: Vec<u8> = Vec::new();
        for payload in payloads {
            let payload = payload.as_ref();
            let frame_len = FRAME_OVERHEAD + payload.len() as u64;
            if self.segment_records > 0 && self.segment_bytes + frame_len > self.max_segment_bytes {
                self.flush_frames(&mut buffer)?;
                self.roll()?;
            }
            frame::put_frame(&mut buffer, payload);
            self.segment_bytes += frame_len;
            self.segment_records += 1;
            self.records += 1;
            ph_telemetry::cached_counter!("store.bytes_written").add(frame_len);
            ph_telemetry::cached_counter!("store.records_appended").add(1);
        }
        self.flush_frames(&mut buffer)?;
        Ok(first)
    }

    /// Writes the coalesced frames buffered by [`SegmentLog::append_batch`].
    fn flush_frames(&mut self, buffer: &mut Vec<u8>) -> io::Result<()> {
        if !buffer.is_empty() {
            self.file.write_all(buffer)?;
            buffer.clear();
        }
        Ok(())
    }

    /// Seals the current segment and starts the next one.
    fn roll(&mut self) -> io::Result<()> {
        let roll_span = ph_telemetry::span("store.segment_roll");
        write_count(&mut self.file, self.segment_records)?;
        self.file.seek(SeekFrom::End(0))?;
        self.file.sync_all()?;
        self.segment_index += 1;
        self.file = start_segment(&self.dir, self.segment_index, self.records)?;
        self.segment_bytes = SEGMENT_HEADER_LEN;
        self.segment_records = 0;
        ph_telemetry::cached_counter!("store.segments_sealed").add(1);
        // Roll points depend only on record bytes (the per-frame roll
        // check is batch-invariant), so this event is deterministic.
        ph_telemetry::journal_emit(ph_telemetry::TelemetryEvent::SegmentRoll {
            segment: u64::from(self.segment_index),
            records: self.records,
        });
        ph_telemetry::histogram(
            "store.segment_roll_ms",
            &ph_telemetry::default_latency_buckets_ms(),
        )
        .record(roll_span.elapsed_ms());
        Ok(())
    }

    /// Flushes appended records to stable storage (fsync), recording the
    /// latency in the `store.fsync_ms` histogram.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn sync(&mut self) -> io::Result<()> {
        fsync_timed(&self.file)
    }

    /// A second handle on the active segment file, for the store's
    /// writer thread to fsync while appends go on through this one.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures duplicating the handle.
    pub(crate) fn try_clone_active(&self) -> io::Result<File> {
        self.file.try_clone()
    }

    /// Truncates the log to its first `target` records — used on resume to
    /// roll the log back to the newest checkpoint it still covers (records
    /// past the checkpoint belong to an hour that will be re-run).
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidInput`] if `target` exceeds the
    /// current record count; propagates I/O failures.
    pub fn truncate_to(&mut self, target: u64) -> io::Result<()> {
        if target > self.records {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "cannot truncate to {target}: log only holds {} records",
                    self.records
                ),
            ));
        }
        if target == self.records {
            return Ok(());
        }
        let cut = self.records - target;
        let segments = list_segments(&self.dir)?;
        // The segment that keeps the cut point: the last one whose base is
        // ≤ target. Later files are removed whole.
        let mut keep: Option<(u32, PathBuf, SegmentScan)> = None;
        for (index, path) in segments {
            let scan = scan_segment(&path)?;
            if scan.header_ok && scan.base_record <= target {
                keep = Some((index, path, scan));
            } else {
                fs::remove_file(&path)?;
            }
        }
        let (index, path, scan) = keep.expect("target 0 keeps segment 0");
        let within = target - scan.base_record;
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let new_len = frame_end_offset(&mut file, within)?;
        file.set_len(new_len)?;
        write_count(&mut file, ACTIVE)?;
        file.seek(SeekFrom::End(0))?;
        file.sync_all()?;
        self.file = file;
        self.segment_index = index;
        self.segment_bytes = new_len;
        self.segment_records = within as u32;
        self.records = target;
        ph_telemetry::cached_counter!("store.recovery.rolled_back_records").add(cut);
        Ok(())
    }
}

/// Fsyncs a segment `file`, recording the latency in the
/// `store.fsync_ms` histogram.
pub(crate) fn fsync_timed(file: &File) -> io::Result<()> {
    let span = ph_telemetry::span("store.fsync");
    file.sync_all()?;
    ph_telemetry::histogram(
        "store.fsync_ms",
        &ph_telemetry::default_latency_buckets_ms(),
    )
    .record(span.elapsed_ms());
    Ok(())
}

/// Byte offset just past the `records`-th frame of an open segment file.
fn frame_end_offset(file: &mut File, records: u64) -> io::Result<u64> {
    file.seek(SeekFrom::Start(SEGMENT_HEADER_LEN))?;
    let mut reader = BufReader::new(&mut *file);
    let mut offset = SEGMENT_HEADER_LEN;
    for _ in 0..records {
        let Frame::Intact(payload) = frame::read_frame(&mut reader)? else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "segment holds fewer intact frames than its recovered count",
            ));
        };
        offset += FRAME_OVERHEAD + payload.len() as u64;
    }
    Ok(offset)
}

/// Writes a fresh segment file with an active header.
fn start_segment(dir: &Path, index: u32, base_record: u64) -> io::Result<File> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(segment_path(dir, index))?;
    let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN as usize);
    header.extend_from_slice(&frame::header(&SEGMENT_MAGIC));
    header.extend_from_slice(&ACTIVE.to_le_bytes());
    header.extend_from_slice(&base_record.to_le_bytes());
    file.write_all(&header)?;
    Ok(file)
}

/// Rewrites the header record-count field, leaving the cursor unspecified.
fn write_count(file: &mut File, count: u32) -> io::Result<()> {
    file.seek(SeekFrom::Start(12))?;
    file.write_all(&count.to_le_bytes())
}

/// Streaming reader over every record payload in a log, in append order.
///
/// Reading is purely sequential and O(1) in memory — downstream labeling,
/// feature extraction, and classification iterate this instead of holding
/// the collection in RAM. A torn tail ends iteration cleanly (with a
/// warning and the `store.read.torn_tail_bytes` counter) rather than
/// erroring: the valid prefix is the log's contents.
#[derive(Debug)]
pub struct LogReader {
    segments: std::vec::IntoIter<(u32, PathBuf)>,
    current: Option<BufReader<File>>,
    current_path: Option<PathBuf>,
}

impl LogReader {
    /// Opens a reader over the log in `dir`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures listing the directory.
    pub fn open(dir: &Path) -> io::Result<Self> {
        Ok(Self {
            segments: list_segments(dir)?.into_iter(),
            current: None,
            current_path: None,
        })
    }

    /// Advances to the next segment; `Ok(false)` when none remain.
    fn next_segment(&mut self) -> io::Result<bool> {
        let Some((_, path)) = self.segments.next() else {
            return Ok(false);
        };
        let mut reader = BufReader::new(File::open(&path)?);
        if read_segment_header(&mut reader)?.is_none() {
            self.torn(&path, "unreadable segment header");
            return Ok(false);
        }
        self.current = Some(reader);
        self.current_path = Some(path);
        Ok(true)
    }

    /// Ends iteration at an invalid segment header or frame.
    fn torn(&mut self, path: &Path, what: &str) {
        self.current = None;
        self.segments = Vec::new().into_iter();
        ph_telemetry::cached_counter!("store.read.torn_tail_bytes").add(1);
        ph_telemetry::log_warn!(
            "segment log reader stopped early at {}: {what}",
            path.display()
        );
    }

    fn next_payload(&mut self) -> io::Result<Option<Vec<u8>>> {
        loop {
            if self.current.is_none() && !self.next_segment()? {
                return Ok(None);
            }
            let reader = self.current.as_mut().expect("segment is open");
            match frame::read_frame(reader)? {
                Frame::Intact(payload) => {
                    ph_telemetry::cached_counter!("store.bytes_read")
                        .add(FRAME_OVERHEAD + payload.len() as u64);
                    ph_telemetry::cached_counter!("store.records_read").add(1);
                    return Ok(Some(payload));
                }
                Frame::End => self.current = None, // clean end of segment
                Frame::Torn | Frame::Corrupt => {
                    let path = self.current_path.clone().expect("segment is open");
                    self.torn(&path, "torn, oversized or checksum-failed frame");
                    return Ok(None);
                }
            }
        }
    }
}

impl Iterator for LogReader {
    type Item = io::Result<Vec<u8>>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_payload() {
            Ok(Some(payload)) => Some(Ok(payload)),
            Ok(None) => None,
            Err(e) => {
                // An I/O error is terminal: surface it once, then stop.
                self.current = None;
                self.segments = Vec::new().into_iter();
                Some(Err(e))
            }
        }
    }
}

/// Streaming reader decoding each record into a [`CollectedTweet`].
#[derive(Debug)]
pub struct CollectedReader {
    inner: LogReader,
}

impl CollectedReader {
    /// Opens a decoding reader over the log in `dir`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures listing the directory.
    pub fn open(dir: &Path) -> io::Result<Self> {
        Ok(Self {
            inner: LogReader::open(dir)?,
        })
    }
}

impl Iterator for CollectedReader {
    type Item = io::Result<CollectedTweet>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.inner.next()? {
            Ok(payload) => Some(
                decode_collected(&payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
            ),
            Err(e) => Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ph-store-log-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn payloads(log: &Path) -> Vec<Vec<u8>> {
        LogReader::open(log)
            .unwrap()
            .collect::<io::Result<Vec<_>>>()
            .unwrap()
    }

    #[test]
    fn append_then_read_roundtrips_across_rolls() {
        let dir = temp_dir("roll");
        // Tiny segments: every record forces a roll.
        let mut log = SegmentLog::create(&dir, 64).unwrap();
        let records: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 20]).collect();
        for (i, r) in records.iter().enumerate() {
            assert_eq!(log.append_batch(&[r]).unwrap(), i as u64);
        }
        log.sync().unwrap();
        assert_eq!(log.record_count(), 10);
        assert!(list_segments(&dir).unwrap().len() > 1, "never rolled");
        assert_eq!(payloads(&dir), records);
    }

    #[test]
    fn append_batch_bytes_match_per_record_appends() {
        let records: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 10 + (i as usize % 17)]).collect();
        // Tiny segments so the batch straddles several rolls.
        let one_dir = temp_dir("batch-single");
        let mut one = SegmentLog::create(&one_dir, 96).unwrap();
        for r in &records {
            one.append_batch(&[r]).unwrap();
        }
        one.sync().unwrap();
        let batch_dir = temp_dir("batch-bulk");
        let mut bulk = SegmentLog::create(&batch_dir, 96).unwrap();
        assert_eq!(bulk.append_batch(&records[..25]).unwrap(), 0);
        assert_eq!(bulk.append_batch(&records[25..]).unwrap(), 25);
        bulk.sync().unwrap();
        assert_eq!(bulk.record_count(), one.record_count());
        let one_segs = list_segments(&one_dir).unwrap();
        let bulk_segs = list_segments(&batch_dir).unwrap();
        assert_eq!(one_segs.len(), bulk_segs.len(), "roll layout diverged");
        for ((_, a), (_, b)) in one_segs.iter().zip(&bulk_segs) {
            assert_eq!(fs::read(a).unwrap(), fs::read(b).unwrap());
        }
    }

    #[test]
    fn reopen_continues_appending() {
        let dir = temp_dir("reopen");
        let mut log = SegmentLog::create(&dir, 1024).unwrap();
        log.append_batch(&[b"one"]).unwrap();
        log.sync().unwrap();
        drop(log);
        let (mut log, report) = SegmentLog::open(&dir, 1024).unwrap();
        assert_eq!(
            report,
            RecoveryReport {
                records: 1,
                ..Default::default()
            }
        );
        log.append_batch(&[b"two"]).unwrap();
        log.sync().unwrap();
        assert_eq!(payloads(&dir), vec![b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = temp_dir("torn");
        let mut log = SegmentLog::create(&dir, 1 << 20).unwrap();
        log.append_batch(&[b"keep me"]).unwrap();
        log.append_batch(&[b"also keep"]).unwrap();
        log.sync().unwrap();
        drop(log);
        // Simulate a torn append: half a frame at the tail.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&[0x55; 7]).unwrap();
        drop(file);
        let (log, report) = SegmentLog::open(&dir, 1 << 20).unwrap();
        assert_eq!(log.record_count(), 2);
        assert_eq!(report.truncated_bytes, 7);
        assert_eq!(payloads(&dir).len(), 2);
    }

    #[test]
    fn corrupted_record_truncates_from_there() {
        let dir = temp_dir("corrupt");
        let mut log = SegmentLog::create(&dir, 1 << 20).unwrap();
        log.append_batch(&[&[1u8; 50]]).unwrap();
        log.append_batch(&[&[2u8; 50]]).unwrap();
        log.append_batch(&[&[3u8; 50]]).unwrap();
        log.sync().unwrap();
        drop(log);
        // Flip one byte inside the second record's payload.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let offset = SEGMENT_HEADER_LEN + FRAME_OVERHEAD + 50 + FRAME_OVERHEAD + 10;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        file.seek(SeekFrom::Start(offset)).unwrap();
        file.write_all(&[0xFF]).unwrap();
        drop(file);
        let (log, report) = SegmentLog::open(&dir, 1 << 20).unwrap();
        assert_eq!(log.record_count(), 1, "kept only the intact prefix");
        assert_eq!(report.truncated_records, 1, "record 3 was stranded");
        assert_eq!(payloads(&dir), vec![vec![1u8; 50]]);
    }

    #[test]
    fn truncate_to_rolls_back_across_segments() {
        let dir = temp_dir("truncate");
        let mut log = SegmentLog::create(&dir, 100).unwrap();
        for i in 0..12u8 {
            log.append_batch(&[&[i; 30]]).unwrap();
        }
        log.sync().unwrap();
        let before = list_segments(&dir).unwrap().len();
        assert!(before >= 4);
        log.truncate_to(3).unwrap();
        assert_eq!(log.record_count(), 3);
        assert!(list_segments(&dir).unwrap().len() < before);
        assert_eq!(
            payloads(&dir),
            vec![vec![0u8; 30], vec![1u8; 30], vec![2u8; 30]]
        );
        // Appending after a rollback keeps the numbering consistent.
        assert_eq!(log.append_batch(&[&[9u8; 30]]).unwrap(), 3);
        log.sync().unwrap();
        assert_eq!(payloads(&dir).len(), 4);
    }

    #[test]
    fn truncate_to_zero_empties_the_log() {
        let dir = temp_dir("truncate-zero");
        let mut log = SegmentLog::create(&dir, 1 << 20).unwrap();
        log.append_batch(&[b"x"]).unwrap();
        log.truncate_to(0).unwrap();
        assert_eq!(log.record_count(), 0);
        assert!(payloads(&dir).is_empty());
        assert_eq!(log.append_batch(&[b"y"]).unwrap(), 0);
    }

    #[test]
    fn create_refuses_an_existing_log() {
        let dir = temp_dir("refuse");
        let _log = SegmentLog::create(&dir, 1 << 20).unwrap();
        let err = SegmentLog::create(&dir, 1 << 20).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
    }
}
