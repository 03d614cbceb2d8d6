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

use std::io;
use std::path::{Path, PathBuf};

use ph_core::monitor::{CollectedTweet, MonitorReport, MonitorSink, RunState};

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
    /// Fsync at every hour boundary, just before the checkpoint — at most
    /// one hour of collection is re-run after a crash.
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
        Ok(Self {
            dir: dir.to_path_buf(),
            config,
            manifest,
            log,
            checkpoints,
        })
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
        let store = Self {
            dir: dir.to_path_buf(),
            config,
            manifest,
            log,
            checkpoints,
        };
        Ok(ResumedStore {
            store,
            manifest,
            state,
            report,
            engine_hours,
            recovery,
        })
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

    /// Fsyncs the segment log (the writer also syncs at each checkpoint;
    /// call this once more when a run finishes cleanly).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn sync(&mut self) -> io::Result<()> {
        self.log.sync()
    }

    /// Persists what a finished run leaves beside its log, each stream
    /// truncate-and-replace, so `inspect` and `explain` can render the
    /// run without re-executing it. In order:
    ///
    /// 1. when decision observability is on, closes the open drift
    ///    window — before the journal snapshot, because closing it may
    ///    raise the run's last drift alarms;
    /// 2. writes the journal (deterministic events only — see
    ///    [`crate::telemetry`] for the byte-stability contract) and the
    ///    series points up to `last_hour`;
    /// 3. when decision observability is on, writes the explained
    ///    verdicts and the drift windows and alarms ([`crate::decision`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_run_record(&self, last_hour: u64) -> io::Result<()> {
        let observing = ph_core::observe::is_enabled();
        if observing {
            ph_core::observe::drift_finalize();
        }
        let journal = ph_telemetry::journal_snapshot();
        crate::telemetry::write_journal(&self.dir, &journal)?;
        crate::telemetry::write_series(&self.dir, &ph_telemetry::run_series_points(last_hour))?;
        if observing {
            crate::decision::write_explain(&self.dir, &ph_core::observe::explanations())?;
            let (drift_hours, drift_alarms) = ph_core::observe::drift_results();
            crate::decision::write_drift(&self.dir, &drift_hours, &drift_alarms)?;
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
/// segment log and checkpoints the run cursor at hour boundaries.
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
    /// last *completed* hour instead of re-running the whole interval.
    /// Duplicate checkpoints at the same cursor are harmless: resume
    /// picks the newest one the log covers.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures syncing the log or appending the
    /// checkpoint.
    pub fn checkpoint_now(&mut self, state: &RunState, segment: &MonitorReport) -> io::Result<()> {
        // Records must be durable before the checkpoint that covers them.
        self.store.log.sync()?;
        let mut cumulative = self.base.clone();
        cumulative.merge(segment);
        let checkpoint = Checkpoint::new(
            self.store.log.record_count(),
            self.store.manifest.gt_hours + state.next_hour,
            state,
            &cumulative,
        );
        self.store.checkpoints.append(&checkpoint)?;
        ph_telemetry::journal_emit(ph_telemetry::TelemetryEvent::CheckpointWritten {
            hour: state.next_hour,
            records: checkpoint.records,
        });
        Ok(())
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
    use ph_core::monitor::{Runner, RunnerConfig};
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
