//! The store facade: one directory holding a manifest, a segment log, and
//! a checkpoint log, plus the [`MonitorSink`] that streams a live run into
//! it and the resume logic that picks the run back up after a crash.
//!
//! Directory layout:
//!
//! ```text
//! store/
//! ├── MANIFEST              pinned run configuration (text)
//! ├── checkpoints.log       hourly RunState + cumulative counters
//! ├── segment-00000000.seg  collected tweets, CRC-framed
//! ├── segment-00000001.seg
//! ├── …
//! └── journal.log, series.log, explain.log, drift.log
//!                           the run record (Store::write_run_record)
//! ```
//!
//! **Resume invariant**: the log is rolled back to the newest checkpoint
//! the recovered log still fully covers, and monitoring restarts from that
//! checkpoint's hour. Anything the crash tore off belongs to an hour that
//! will be re-run — and because the simulation is deterministic, the
//! re-run appends byte-identical records, so
//! `run(N) ≡ run(k) → crash → resume → run(N−k)` on the log.
//!
//! **Writer thread**: the hour path frames records and writes them into
//! the page cache; each hour's durability work — segment fsync, then the
//! checkpoint append and its fsync — runs on the store's writer thread
//! while the caller goes on with the next hour. At most one hour is in
//! flight: handing over hour `h + 1` first waits until hour `h` is
//! durable.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::JoinHandle;

use ph_core::monitor::{CollectedTweet, MonitorReport, MonitorSink, RunState};
use ph_core::observe::DecisionLog;

use crate::checkpoint::{Checkpoint, CheckpointLog};
use crate::log::{CollectedReader, RecoveryReport, SegmentLog, DEFAULT_MAX_SEGMENT_BYTES};
use crate::manifest::Manifest;
use crate::record::encode_collected;

/// Manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Checkpoint log file name inside a store directory.
pub const CHECKPOINT_FILE: &str = "checkpoints.log";

/// When the segment log is fsynced. There is one policy: records become
/// durable at the hour boundary, with the checkpoint that covers them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Fsync at every hour boundary, just before the checkpoint. The
    /// writer thread does both while the next hour runs, so a crash
    /// re-runs at most the open hour plus the one in flight (`sniff
    /// --store`). A caller that waits for durability before it moves on
    /// — the daemon, before it writes an hour's verdicts — re-runs at
    /// most the open hour.
    #[default]
    EveryHour,
}

/// Store tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Segment capacity before rolling to a new file.
    pub max_segment_bytes: u64,
    /// Hours between checkpoints (1 = every hour boundary).
    pub checkpoint_interval_hours: u64,
    /// Fsync policy.
    pub sync: SyncPolicy,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            max_segment_bytes: DEFAULT_MAX_SEGMENT_BYTES,
            checkpoint_interval_hours: 1,
            sync: SyncPolicy::EveryHour,
        }
    }
}

/// An open store directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    config: StoreConfig,
    manifest: Manifest,
    log: SegmentLog,
    checkpoints: CheckpointLog,
    /// The run cursor the newest checkpoint records: the one a resumed
    /// store reopened at, or the last one handed over since.
    checkpointed: Option<u64>,
    /// The writer thread, started by the first hour handed over and
    /// joined when the [`StoreWriter`] drops or the store syncs.
    writer: Option<WriterThread>,
    /// A durability failure a [`StoreWriter`] drop could not return;
    /// the next [`Store::sync`] or hand-over does.
    failed: Option<io::Error>,
    /// Test fault for the next hour handed over.
    #[cfg(test)]
    fault: Option<Fault>,
}

impl Store {
    /// Creates a fresh store in `dir` (created if missing) for a run
    /// described by `manifest`.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::AlreadyExists`] if `dir` already holds
    /// a store; propagates I/O failures.
    pub fn create(dir: &Path, manifest: Manifest, config: StoreConfig) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let manifest_path = dir.join(MANIFEST_FILE);
        if manifest_path.exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "{} already holds a store (resume it instead)",
                    dir.display()
                ),
            ));
        }
        let log = SegmentLog::create(dir, config.max_segment_bytes)?;
        let checkpoints = CheckpointLog::create(&dir.join(CHECKPOINT_FILE))?;
        manifest.save(&manifest_path)?;
        Ok(Self::new(dir, config, manifest, log, checkpoints, None))
    }

    fn new(
        dir: &Path,
        config: StoreConfig,
        manifest: Manifest,
        log: SegmentLog,
        checkpoints: CheckpointLog,
        checkpointed: Option<u64>,
    ) -> Self {
        Self {
            dir: dir.to_path_buf(),
            config,
            manifest,
            log,
            checkpoints,
            checkpointed,
            writer: None,
            failed: None,
            #[cfg(test)]
            fault: None,
        }
    }

    /// Reopens the store in `dir` after a crash (or a clean stop):
    /// recovers the segment and checkpoint logs by truncating torn tails,
    /// rolls the segment log back to the newest checkpoint it still
    /// covers, and returns everything the caller needs to continue the
    /// run from that hour.
    ///
    /// # Errors
    ///
    /// Fails if `dir` holds no readable manifest; propagates I/O failures.
    pub fn open_resume(dir: &Path, config: StoreConfig) -> io::Result<ResumedStore> {
        let manifest = Manifest::load(&dir.join(MANIFEST_FILE))?;
        let (mut log, recovery) = SegmentLog::open(dir, config.max_segment_bytes)?;
        let checkpoint_path = dir.join(CHECKPOINT_FILE);
        let (checkpoints, all) = if checkpoint_path.exists() {
            CheckpointLog::open(&checkpoint_path)?
        } else {
            (CheckpointLog::create(&checkpoint_path)?, Vec::new())
        };
        // Newest checkpoint the recovered log still covers. A torn tail
        // can leave the log shorter than the last checkpoint recorded —
        // then we roll back one more hour, never forward.
        let chosen = all.into_iter().rfind(|c| c.records <= log.record_count());
        let (state, report, engine_hours, target) = match &chosen {
            Some(c) => (c.state.clone(), c.report(), c.engine_hours, c.records),
            None => (
                RunState::default(),
                MonitorReport::default(),
                manifest.gt_hours,
                0,
            ),
        };
        log.truncate_to(target)?;
        let store = Self::new(
            dir,
            config,
            manifest,
            log,
            checkpoints,
            Some(state.next_hour),
        );
        Ok(ResumedStore {
            store,
            manifest,
            state,
            report,
            engine_hours,
            recovery,
        })
    }

    /// Opens a run session on `dir`: with `resume`, reopens it at its
    /// last checkpoint ([`Store::open_resume`]; the stored manifest pins
    /// the run and `manifest` is ignored), otherwise creates it fresh for
    /// `manifest` ([`Store::create`]) as a session starting at hour 0.
    ///
    /// # Errors
    ///
    /// As [`Store::open_resume`] and [`Store::create`].
    pub fn open_session(
        dir: &Path,
        manifest: Manifest,
        config: StoreConfig,
        resume: bool,
    ) -> io::Result<ResumedStore> {
        if !resume {
            return Ok(ResumedStore {
                store: Self::create(dir, manifest, config)?,
                manifest,
                state: RunState::default(),
                report: MonitorReport::default(),
                engine_hours: manifest.gt_hours,
                recovery: RecoveryReport::default(),
            });
        }
        let resumed = Self::open_resume(dir, config)?;
        ph_telemetry::log_info!(
            "resuming {}: {} of {} h done, {} records on log ({} bytes truncated in recovery)",
            dir.display(),
            resumed.state.next_hour,
            resumed.manifest.hours,
            resumed.store.record_count(),
            resumed.recovery.truncated_bytes
        );
        Ok(resumed)
    }

    /// The pinned run configuration.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records currently in the segment log.
    pub fn record_count(&self) -> u64 {
        self.log.record_count()
    }

    /// Streaming reader over every stored tweet, in collection order.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures listing the directory.
    pub fn reader(&self) -> io::Result<CollectedReader> {
        CollectedReader::open(&self.dir)
    }

    /// Drains the writer thread — every hour handed over durable, the
    /// thread joined — then fsyncs the segment log. Call this once when a
    /// run finishes cleanly.
    ///
    /// # Errors
    ///
    /// Returns the writer thread's failure (a panic as an `io::Error`)
    /// if an hour could not be made durable; propagates I/O failures.
    pub fn sync(&mut self) -> io::Result<()> {
        self.drain()?;
        self.log.sync()
    }

    /// Waits until every hour handed to the writer thread is durable.
    fn wait_durable(&mut self) -> io::Result<()> {
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        let Some(writer) = &mut self.writer else {
            return Ok(());
        };
        let result = writer.wait();
        if writer.thread.is_none() {
            // It died; the next hand-over starts a fresh one.
            self.writer = None;
        }
        result
    }

    /// [`Store::wait_durable`], then stops and joins the writer thread.
    fn drain(&mut self) -> io::Result<()> {
        let waited = self.wait_durable();
        let joined = self.writer.take().map_or(Ok(()), |mut w| w.join());
        waited.and(joined)
    }

    /// Hands `checkpoint` to the writer thread once the hour before it is
    /// durable. Every record it covers is already written, so fsyncing
    /// the active segment makes them all durable: earlier segments were
    /// fsynced when they rolled.
    fn hand_over(&mut self, checkpoint: Checkpoint) -> io::Result<()> {
        self.wait_durable()?;
        let hour = HourSync {
            segment: self.log.try_clone_active()?,
            checkpoint,
            #[cfg(test)]
            fault: self.fault.take(),
        };
        let writer = match &mut self.writer {
            Some(writer) => writer,
            None => self
                .writer
                .insert(WriterThread::spawn(self.checkpoints.try_clone()?)?),
        };
        writer.send(hour)
    }

    /// Persists what a finished run leaves beside its log, each stream
    /// truncate-and-replace, so `inspect` and `explain` can render the
    /// run without re-executing it. In order:
    ///
    /// 1. with the session's decision log, closes its open drift window
    ///    — before the journal snapshot, because closing it may raise
    ///    the run's last drift alarms;
    /// 2. writes the journal (deterministic events only — see
    ///    [`crate::telemetry`] for the byte-stability contract) and the
    ///    series points up to `last_hour`;
    /// 3. with the decision log, writes the explained verdicts and the
    ///    drift windows and alarms ([`crate::decision`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_run_record(
        &self,
        last_hour: u64,
        mut decisions: Option<DecisionLog>,
    ) -> io::Result<()> {
        if let Some(log) = &mut decisions {
            log.finish();
        }
        let journal = ph_telemetry::journal_snapshot();
        crate::telemetry::write_journal(&self.dir, &journal)?;
        crate::telemetry::write_series(&self.dir, &ph_telemetry::run_series_points(last_hour))?;
        if let Some(log) = &decisions {
            crate::decision::write_explain(&self.dir, log.explanations())?;
            let drift = log.drift();
            crate::decision::write_drift(&self.dir, drift.hours(), drift.alarms())?;
        }
        ph_telemetry::log_info!(
            "run record ({} journal events) persisted to {}",
            journal.len(),
            self.dir.display()
        );
        Ok(())
    }

    /// A [`MonitorSink`] appending this run segment into the store.
    /// `prior` is the cumulative report of all *previous* segments (empty
    /// on a fresh run; [`ResumedStore::report`] on a resume) — checkpoints
    /// record `prior + current segment` so counters survive any number of
    /// crashes.
    pub fn writer(&mut self, prior: &MonitorReport) -> StoreWriter<'_> {
        let mut base = prior.clone();
        base.collected.clear();
        StoreWriter { store: self, base }
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        if let Err(e) = self.drain() {
            ph_telemetry::log_warn!("store {}: {e}", self.dir.display());
        }
    }
}

/// One hour handed to the writer thread: a handle on the segment its
/// last records went to, and the checkpoint that covers them.
struct HourSync {
    segment: File,
    checkpoint: Checkpoint,
    #[cfg(test)]
    fault: Option<Fault>,
}

/// A failure the tests make the writer thread run into.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// The segment fsync fails.
    Fsync,
    /// The thread panics.
    Panic,
    /// The thread stops for good before any durability work — a crash
    /// with the hour in flight.
    Stall,
}

/// The writer thread's durability work for one hour, in order.
fn make_durable(checkpoints: &mut CheckpointLog, hour: HourSync) -> io::Result<()> {
    #[cfg(test)]
    match hour.fault {
        Some(Fault::Fsync) => return Err(io::Error::other("injected segment fsync failure")),
        Some(Fault::Panic) => panic!("injected writer panic"),
        Some(Fault::Stall) => loop {
            std::thread::park();
        },
        None => {}
    }
    // Records must be durable before the checkpoint that covers them.
    crate::log::fsync_timed(&hour.segment)?;
    checkpoints.append(&hour.checkpoint)
}

/// The store's writer thread and its two channels: hours go in, one
/// result per hour comes back.
#[derive(Debug)]
struct WriterThread {
    hours: Option<SyncSender<HourSync>>,
    done: Receiver<io::Result<()>>,
    in_flight: bool,
    thread: Option<JoinHandle<()>>,
}

impl WriterThread {
    fn spawn(mut checkpoints: CheckpointLog) -> io::Result<Self> {
        let (hours, inbox) = mpsc::sync_channel::<HourSync>(1);
        let (results, done) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("ph-store-writer".to_string())
            .spawn(move || {
                for hour in inbox {
                    if results.send(make_durable(&mut checkpoints, hour)).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Self {
            hours: Some(hours),
            done,
            in_flight: false,
            thread: Some(thread),
        })
    }

    /// Hands `hour` over; the caller has waited for the one before.
    fn send(&mut self, hour: HourSync) -> io::Result<()> {
        if self.hours.as_ref().is_some_and(|h| h.send(hour).is_ok()) {
            self.in_flight = true;
            return Ok(());
        }
        self.join()?;
        Err(io::Error::other("the store writer thread stopped"))
    }

    /// Waits until the hour in flight, if any, is durable, and returns
    /// its result.
    fn wait(&mut self) -> io::Result<()> {
        if !std::mem::take(&mut self.in_flight) {
            return Ok(());
        }
        if let Ok(result) = self.done.recv() {
            return result;
        }
        self.join()?;
        Err(io::Error::other("the store writer thread stopped"))
    }

    /// Closes the hour channel and waits for the thread, surfacing its
    /// panic as an `io::Error`. Idempotent.
    fn join(&mut self) -> io::Result<()> {
        self.hours = None;
        match self.thread.take().map(JoinHandle::join) {
            None | Some(Ok(())) => Ok(()),
            Some(Err(panic)) => {
                let what = panic
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("non-string payload");
                Err(io::Error::other(format!(
                    "store writer thread panicked: {what}"
                )))
            }
        }
    }
}

/// Everything [`Store::open_resume`] hands back.
#[derive(Debug)]
pub struct ResumedStore {
    /// The reopened store, ready for [`Store::writer`].
    pub store: Store,
    /// The pinned run configuration (convenience copy).
    pub manifest: Manifest,
    /// The monitor cursor to continue from.
    pub state: RunState,
    /// Cumulative counters of the completed hours (`collected` empty — the
    /// tweets live in the log).
    pub report: MonitorReport,
    /// Absolute engine hour to fast-forward a fresh engine to.
    pub engine_hours: u64,
    /// What torn-tail recovery truncated on open (checkpoint rollback not
    /// included; that lands in `store.recovery.rolled_back_records`).
    pub recovery: RecoveryReport,
}

impl ResumedStore {
    /// Monitoring hours still owed (`manifest.hours − completed`).
    pub fn remaining_hours(&self) -> u64 {
        self.manifest.hours.saturating_sub(self.state.next_hour)
    }

    /// Whether the stored run already completed all its hours.
    pub fn is_complete(&self) -> bool {
        self.remaining_hours() == 0
    }
}

/// The durable [`MonitorSink`]: appends every collected tweet to the
/// segment log and checkpoints the run cursor at hour boundaries. Each
/// checkpoint is handed to the store's writer thread, which makes it
/// durable while the caller goes on; dropping the writer waits for that
/// and joins the thread.
#[derive(Debug)]
pub struct StoreWriter<'a> {
    store: &'a mut Store,
    /// Cumulative report of prior segments (collected always empty).
    base: MonitorReport,
}

impl StoreWriter<'_> {
    /// Forces a checkpoint right now, regardless of the configured
    /// interval — the graceful-drain path of a long-lived service uses
    /// this so a stop between interval boundaries still resumes from the
    /// last *completed* hour instead of re-running the whole interval
    /// (through [`StoreWriter::checkpoint_drain`], which skips a cursor
    /// already checkpointed). Duplicate checkpoints at the same cursor
    /// are harmless: resume picks the newest one the log covers.
    ///
    /// The checkpoint is handed to the writer thread, after the one
    /// before it is durable; [`StoreWriter::wait_durable`] waits for it.
    ///
    /// # Errors
    ///
    /// Returns the failure of the hour handed over before this one, or
    /// of starting the writer thread.
    pub fn checkpoint_now(&mut self, state: &RunState, segment: &MonitorReport) -> io::Result<()> {
        let mut cumulative = self.base.clone();
        cumulative.merge(segment);
        let checkpoint = Checkpoint::new(
            self.store.log.record_count(),
            self.store.manifest.gt_hours + state.next_hour,
            state,
            &cumulative,
        );
        let records = checkpoint.records;
        self.store.hand_over(checkpoint)?;
        self.store.checkpointed = Some(state.next_hour);
        ph_telemetry::journal_emit(ph_telemetry::TelemetryEvent::CheckpointWritten {
            hour: state.next_hour,
            records,
        });
        Ok(())
    }

    /// The checkpoint a drain ends with, so that a stop between interval
    /// boundaries resumes from the last *completed* hour: forces one at
    /// `state`'s cursor unless the newest checkpoint already records it
    /// (the interval's cadence wrote it, or the store was resumed there).
    /// A drained and resumed store's checkpoint log thus equals an
    /// uninterrupted run's.
    ///
    /// # Errors
    ///
    /// As [`StoreWriter::checkpoint_now`].
    pub fn checkpoint_drain(
        &mut self,
        state: &RunState,
        segment: &MonitorReport,
    ) -> io::Result<()> {
        if self.store.checkpointed == Some(state.next_hour) {
            return Ok(());
        }
        self.checkpoint_now(state, segment)
    }

    /// Waits until everything handed over so far is durable: the records
    /// fsynced, then the checkpoint that covers them appended and
    /// fsynced.
    ///
    /// # Errors
    ///
    /// Returns the writer thread's failure, a panic as an `io::Error`.
    pub fn wait_durable(&mut self) -> io::Result<()> {
        self.store.wait_durable()
    }
}

impl Drop for StoreWriter<'_> {
    fn drop(&mut self) {
        if let Err(e) = self.store.drain() {
            self.store.failed = Some(e);
        }
    }
}

impl MonitorSink for StoreWriter<'_> {
    fn on_tweet(&mut self, collected: &CollectedTweet) -> io::Result<()> {
        self.store
            .log
            .append_batch(&[encode_collected(collected)])?;
        Ok(())
    }

    fn on_batch(&mut self, batch: &[CollectedTweet]) -> io::Result<()> {
        let payloads: Vec<Vec<u8>> = batch.iter().map(encode_collected).collect();
        self.store.log.append_batch(&payloads)?;
        Ok(())
    }

    fn on_hour(&mut self, state: &RunState, segment: &MonitorReport) -> io::Result<()> {
        if !state
            .next_hour
            .is_multiple_of(self.store.config.checkpoint_interval_hours.max(1))
            && state.next_hour < self.store.manifest.hours
        {
            return Ok(());
        }
        self.checkpoint_now(state, segment)
    }

    fn retain_in_memory(&self) -> bool {
        // The log is the collection; arbitrarily long runs stay O(1) RAM.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_core::monitor::{MemorySink, Runner, RunnerConfig};
    use ph_twitter_sim::engine::Engine;
    use std::fs;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ph-store-store-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn manifest() -> Manifest {
        Manifest {
            sim_seed: 5,
            organic: 600,
            campaigns: 3,
            per_campaign: 8,
            runner_seed: 11,
            gt_hours: 0,
            hours: 10,
            buffer_capacity: ph_twitter_sim::api::DEFAULT_QUEUE_CAPACITY as u64,
            taste_flip: crate::manifest::NO_TASTE_FLIP,
        }
    }

    fn engine(m: &Manifest) -> Engine {
        Engine::new(m.sim_config())
    }

    fn runner(m: &Manifest) -> Runner {
        Runner::new(RunnerConfig {
            switch_interval_hours: 3, // crash mid-interval exercises membership restore
            ..m.runner_config()
        })
    }

    fn store_config() -> StoreConfig {
        StoreConfig {
            max_segment_bytes: 16 * 1024, // force several rolls in a short run
            ..Default::default()
        }
    }

    fn read_all(store: &Store) -> Vec<CollectedTweet> {
        store
            .reader()
            .unwrap()
            .collect::<io::Result<Vec<_>>>()
            .unwrap()
    }

    #[test]
    fn crash_and_resume_matches_uninterrupted_run() {
        let m = manifest();

        // Reference: uninterrupted in-memory run.
        let full = runner(&m).run(&mut engine(&m), m.hours);

        // Stored run, "crashing" after 4 of 10 hours (mid switch-interval).
        let dir = temp_dir("resume");
        let mut store = Store::create(&dir, m, store_config()).unwrap();
        let mut eng = engine(&m);
        let mut state = RunState::default();
        let r = runner(&m);
        let first = r
            .run_segment(
                &mut eng,
                &mut state,
                m.hours,
                4,
                r.standard_networks(),
                &mut store.writer(&MonitorReport::default()),
            )
            .unwrap();
        assert!(first.collected.is_empty(), "durable sink retained tweets");
        drop(store);
        drop(eng); // the crash

        // Resume from disk alone.
        let mut resumed = Store::open_resume(&dir, store_config()).unwrap();
        assert_eq!(resumed.state.next_hour, 4);
        assert_eq!(resumed.remaining_hours(), 6);
        assert!(!resumed.state.membership.is_empty(), "membership lost");
        let mut eng = engine(&resumed.manifest);
        eng.run_hours(resumed.state.next_hour);
        let mut merged = resumed.report.clone();
        let tail = r
            .run_segment(
                &mut eng,
                &mut resumed.state,
                resumed.manifest.hours,
                u64::MAX,
                r.standard_networks(),
                &mut resumed.store.writer(&resumed.report),
            )
            .unwrap();
        merged.merge(&tail);

        // Counters match the uninterrupted run; tweets come from the log.
        assert_eq!(merged.hours, full.hours);
        assert_eq!(merged.dropped, full.dropped);
        assert_eq!(merged.node_hours, full.node_hours);
        assert_eq!(read_all(&resumed.store), full.collected);
    }

    #[test]
    fn torn_tail_rolls_back_to_a_covered_checkpoint() {
        let m = manifest();
        let dir = temp_dir("rollback");
        let mut store = Store::create(&dir, m, store_config()).unwrap();
        let mut eng = engine(&m);
        let mut state = RunState::default();
        let r = runner(&m);
        r.run_segment(
            &mut eng,
            &mut state,
            m.hours,
            5,
            r.standard_networks(),
            &mut store.writer(&MonitorReport::default()),
        )
        .unwrap();
        let records_at_5 = store.record_count();
        drop(store);

        // Corrupt the very last record: recovery truncates it, leaving the
        // log one record short of the hour-5 checkpoint → resume must fall
        // back to hour 4's checkpoint, not resume at 5.
        let mut segs: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let p = e.unwrap().path();
                p.file_name()?
                    .to_str()?
                    .starts_with("segment-")
                    .then_some(p)
            })
            .collect();
        segs.sort();
        let last = segs.pop().unwrap();
        let len = fs::metadata(&last).unwrap().len();
        let mut bytes = fs::read(&last).unwrap();
        bytes[(len - 3) as usize] ^= 0xFF;
        fs::write(&last, bytes).unwrap();

        let resumed = Store::open_resume(&dir, store_config()).unwrap();
        assert_eq!(resumed.state.next_hour, 4, "did not roll back an hour");
        assert!(resumed.store.record_count() < records_at_5);
        assert!(resumed.recovery.truncated_bytes > 0);
        assert_eq!(resumed.report.hours, 4);
    }

    /// Runs hours `state.next_hour..state.next_hour + hours` of `m`'s run
    /// into `sink`, on an engine fast-forwarded to the cursor.
    fn run_hours(
        m: &Manifest,
        state: &mut RunState,
        hours: u64,
        sink: &mut impl MonitorSink,
    ) -> io::Result<MonitorReport> {
        let mut eng = engine(m);
        eng.run_hours(state.next_hour);
        let r = runner(m);
        r.run_segment(&mut eng, state, m.hours, hours, r.standard_networks(), sink)
    }

    fn checkpoints_on_disk(dir: &Path) -> Vec<Checkpoint> {
        // A second handle: the store under test keeps its own open.
        CheckpointLog::open(&dir.join(CHECKPOINT_FILE)).unwrap().1
    }

    #[test]
    fn a_failed_segment_fsync_comes_back_from_the_next_hand_over_and_writes_no_checkpoint() {
        let m = manifest();
        let dir = temp_dir("fault-on-hour");
        let mut store = Store::create(&dir, m, store_config()).unwrap();
        store.fault = Some(Fault::Fsync);
        let mut state = RunState::default();
        let mut writer = store.writer(&MonitorReport::default());
        let err = run_hours(&m, &mut state, 2, &mut writer).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        // The hour-1 checkpoint was never handed over; the hour-0 one
        // failed before its append: records come first, or nothing.
        drop(writer);
        assert!(checkpoints_on_disk(&dir).is_empty());
        store.sync().unwrap();
    }

    #[test]
    fn a_failed_segment_fsync_comes_back_from_the_barrier_or_from_sync() {
        let m = manifest();
        let dir = temp_dir("fault-barrier");
        let mut store = Store::create(&dir, m, store_config()).unwrap();
        store.fault = Some(Fault::Fsync);
        let mut state = RunState::default();
        let mut writer = store.writer(&MonitorReport::default());
        run_hours(&m, &mut state, 1, &mut writer).unwrap();
        let err = writer.wait_durable().unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        // Reported once; the next hour goes through.
        run_hours(&m, &mut state, 1, &mut writer).unwrap();
        writer.wait_durable().unwrap();
        drop(writer);
        assert_eq!(checkpoints_on_disk(&dir).len(), 1);

        // Dropping the writer keeps the failure for Store::sync.
        store.fault = Some(Fault::Fsync);
        let mut writer = store.writer(&MonitorReport::default());
        run_hours(&m, &mut state, 1, &mut writer).unwrap();
        drop(writer);
        let err = store.sync().unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        store.sync().unwrap();
    }

    #[test]
    fn a_writer_thread_panic_comes_back_as_an_io_error() {
        let m = manifest();
        let dir = temp_dir("fault-panic");
        let mut store = Store::create(&dir, m, store_config()).unwrap();
        store.fault = Some(Fault::Panic);
        let mut state = RunState::default();
        let mut writer = store.writer(&MonitorReport::default());
        run_hours(&m, &mut state, 1, &mut writer).unwrap();
        let err = writer.wait_durable().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert!(err.to_string().contains("injected writer panic"), "{err}");
        // A fresh thread takes the next hour.
        run_hours(&m, &mut state, 1, &mut writer).unwrap();
        drop(writer);
        store.sync().unwrap();
        assert_eq!(checkpoints_on_disk(&dir).len(), 1);
    }

    #[test]
    fn dropping_the_writer_leaves_every_handed_over_hour_checkpointed() {
        let m = manifest();
        let dir = temp_dir("drop-drains");
        let mut store = Store::create(&dir, m, store_config()).unwrap();
        let mut state = RunState::default();
        let mut writer = store.writer(&MonitorReport::default());
        run_hours(&m, &mut state, 3, &mut writer).unwrap();
        drop(writer);
        // What `--crash-after` does next: exit without running the
        // store's destructor.
        let records = store.record_count();
        std::mem::forget(store);
        let last = checkpoints_on_disk(&dir).pop().unwrap();
        assert_eq!((last.state.next_hour, last.records), (3, records));
    }

    #[test]
    fn a_drain_checkpoints_only_a_cursor_no_checkpoint_records() {
        let m = manifest();
        let dir = temp_dir("drain");
        let mut store = Store::create(&dir, m, store_config()).unwrap();
        let mut state = RunState::default();
        let mut writer = store.writer(&MonitorReport::default());
        // A fresh store records no cursor, not even the first.
        writer
            .checkpoint_drain(&state, &MonitorReport::default())
            .unwrap();
        let segment = run_hours(&m, &mut state, 2, &mut writer).unwrap();
        // The hourly cadence already wrote cursor 2.
        writer.checkpoint_drain(&state, &segment).unwrap();
        drop(writer);
        let cursors = |dir: &Path| -> Vec<u64> {
            checkpoints_on_disk(dir)
                .iter()
                .map(|c| c.state.next_hour)
                .collect()
        };
        assert_eq!(cursors(&dir), [0, 1, 2]);
        drop(store);

        // A session resumed at cursor 2 drains without a duplicate.
        let mut resumed = Store::open_resume(&dir, store_config()).unwrap();
        resumed
            .store
            .writer(&resumed.report)
            .checkpoint_drain(&resumed.state, &MonitorReport::default())
            .unwrap();
        drop(resumed);
        assert_eq!(cursors(&dir), [0, 1, 2]);
    }

    #[test]
    fn a_store_lost_with_an_hour_in_flight_resumes_before_that_hour() {
        let m = manifest();
        let full = runner(&m).run(&mut engine(&m), m.hours);
        let dir = temp_dir("in-flight");
        let mut store = Store::create(&dir, m, store_config()).unwrap();
        let mut state = RunState::default();
        run_hours(
            &m,
            &mut state,
            3,
            &mut store.writer(&MonitorReport::default()),
        )
        .unwrap();
        // Hour 3 is handed over to a writer that never gets to it; hour 4
        // is open, its first records written. Then the process is gone.
        store.fault = Some(Fault::Stall);
        let mut writer = store.writer(&MonitorReport::default());
        run_hours(&m, &mut state, 1, &mut writer).unwrap();
        let open_hour = run_hours(&m, &mut state.clone(), 1, &mut MemorySink).unwrap();
        writer
            .on_batch(&open_hour.collected[..open_hour.collected.len() / 2])
            .unwrap();
        std::mem::forget(writer);
        std::mem::forget(store);

        let mut resumed = Store::open_resume(&dir, store_config()).unwrap();
        // The hour in flight and the open hour are lost, no more.
        assert_eq!(resumed.state.next_hour, 3);
        let kept = read_all(&resumed.store);
        assert_eq!(kept, full.collected[..kept.len()]);
        let mut state = resumed.state.clone();
        run_hours(
            &m,
            &mut state,
            u64::MAX,
            &mut resumed.store.writer(&resumed.report),
        )
        .unwrap();
        resumed.store.sync().unwrap();
        assert_eq!(read_all(&resumed.store), full.collected);
    }

    #[test]
    fn fresh_directory_cannot_be_resumed_and_store_cannot_be_recreated() {
        let dir = temp_dir("guards");
        assert!(Store::open_resume(&dir, store_config()).is_err());
        let m = manifest();
        let _store = Store::create(&dir, m, store_config()).unwrap();
        let err = Store::create(&dir, m, store_config()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
    }

    #[test]
    fn resuming_a_complete_run_reports_zero_remaining() {
        let m = Manifest {
            hours: 3,
            ..manifest()
        };
        let dir = temp_dir("complete");
        let mut store = Store::create(&dir, m, store_config()).unwrap();
        let mut eng = engine(&m);
        let mut state = RunState::default();
        let r = runner(&m);
        r.run_segment(
            &mut eng,
            &mut state,
            m.hours,
            m.hours,
            r.standard_networks(),
            &mut store.writer(&MonitorReport::default()),
        )
        .unwrap();
        drop(store);
        let resumed = Store::open_resume(&dir, store_config()).unwrap();
        assert!(resumed.is_complete());
        assert_eq!(resumed.report.hours, 3);
    }
}
