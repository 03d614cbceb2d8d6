//! The hour-loop watchdog: wall-clock sampling of a [`Heartbeat`].
//!
//! The daemon's hour loop publishes one heartbeat (`serve.hour`): it
//! raises `active` while an hour boundary is being processed and bumps a
//! monotone `progress` counter once per completed hour — relaxed atomic
//! adds, nothing more. A background thread samples it every `interval`.
//! If the heartbeat is *busy* and its progress counter has not moved for
//! `ticks` consecutive samples, the stage is declared stalled: the
//! watchdog emits a [`ph_telemetry::TelemetryEvent::StageStalled`]
//! journal event (diagnostic — it reaches the flight recorder and the
//! in-process journal, never `journal.log`), flips `/healthz` to degraded
//! through the session's [`Health`], and dumps the flight ring into the store so the
//! hang is diagnosable even if the process is later killed -9. When the
//! stage makes progress again (or goes idle), the degradation clears and
//! a recovery note lands in the flight ring.
//!
//! Idle never trips: a daemon legitimately sits between hour boundaries
//! for as long as the producer pleases. Only "busy and flatlined" is a
//! stall.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ph_telemetry::{journal_emit, log_warn, TelemetryEvent};

use crate::health::Health;

/// A stage's progress pulse, sampled by [`Watchdog`].
#[derive(Debug)]
pub struct Heartbeat {
    stage: String,
    progress: AtomicU64,
    active: AtomicU64,
}

impl Heartbeat {
    /// A fresh, idle heartbeat for the stage named `stage`.
    #[must_use]
    pub fn new(stage: &str) -> Self {
        Heartbeat {
            stage: stage.to_string(),
            progress: AtomicU64::new(0),
            active: AtomicU64::new(0),
        }
    }

    /// The stage name stall reports carry.
    #[must_use]
    pub fn stage(&self) -> &str {
        &self.stage
    }

    /// Marks a batch in flight (re-entrant: nested batches stack).
    pub fn begin_batch(&self) {
        self.active.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks the batch done; with no batch in flight the stage cannot
    /// stall.
    pub fn end_batch(&self) {
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records one unit of progress.
    pub fn bump(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    /// The monotone progress counter.
    #[must_use]
    pub fn progress(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }

    /// Whether a batch is currently in flight.
    #[must_use]
    pub fn busy(&self) -> bool {
        self.active.load(Ordering::Relaxed) > 0
    }
}

/// When to declare a stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Consecutive no-progress samples (of a busy stage) before the
    /// trip.
    pub ticks: u64,
    /// Sampling interval.
    pub interval: Duration,
}

impl Default for WatchdogConfig {
    /// 40 ticks × 250 ms: a stage must sit busy-but-flat for 10 s.
    fn default() -> Self {
        WatchdogConfig {
            ticks: 40,
            interval: Duration::from_millis(250),
        }
    }
}

/// A running watchdog thread. Dropping (or [`shutdown`](Watchdog::shutdown))
/// stops and joins it.
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Starts sampling `heartbeat`, raising and clearing its stall in
    /// `health`. `dump_dir` is the store directory the flight ring is
    /// dumped into on a trip (`None` = record events only).
    #[must_use]
    pub fn spawn(
        config: WatchdogConfig,
        dump_dir: Option<PathBuf>,
        heartbeat: Arc<Heartbeat>,
        health: Health,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let loop_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let stage = heartbeat.stage();
            let (mut last_progress, mut stale_ticks, mut tripped) = (0, 0, false);
            while !loop_stop.load(Ordering::SeqCst) {
                std::thread::sleep(config.interval);
                let progress = heartbeat.progress();
                let flat = progress == last_progress;
                last_progress = progress;
                if heartbeat.busy() && flat {
                    stale_ticks += 1;
                    if stale_ticks >= config.ticks && !tripped {
                        tripped = true;
                        journal_emit(TelemetryEvent::StageStalled {
                            stage: stage.to_string(),
                            ticks: stale_ticks,
                        });
                        log_warn!(
                            "watchdog: stage '{stage}' stalled ({stale_ticks} ticks without progress)"
                        );
                        health.degrade(
                            &format!("watchdog.{stage}"),
                            &format!("stage stalled: no progress across {stale_ticks} ticks"),
                        );
                        if let Some(dir) = &dump_dir {
                            if let Err(e) =
                                ph_store::write_flight(dir, &ph_telemetry::flight_snapshot())
                            {
                                log_warn!("watchdog: flight dump failed: {e}");
                            }
                        }
                    }
                } else {
                    stale_ticks = 0;
                    if tripped {
                        tripped = false;
                        ph_telemetry::flight_note(
                            "stage_recovered",
                            &format!("stage '{stage}' making progress again"),
                        );
                        health.clear(&format!("watchdog.{stage}"));
                    }
                }
            }
        });
        Watchdog {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the sampling loop and joins the thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> WatchdogConfig {
        WatchdogConfig {
            ticks: 3,
            interval: Duration::from_millis(5),
        }
    }

    fn wait_until(what: &str, mut ok: impl FnMut() -> bool) {
        for _ in 0..400 {
            if ok() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn heartbeat_tracks_progress_and_nested_batches() {
        let hb = Heartbeat::new("test.serve.heartbeat");
        assert_eq!(hb.stage(), "test.serve.heartbeat");
        assert!(!hb.busy());
        hb.begin_batch();
        hb.begin_batch();
        hb.bump();
        hb.bump();
        assert_eq!(hb.progress(), 2);
        hb.end_batch();
        assert!(hb.busy(), "outer batch still in flight");
        hb.end_batch();
        assert!(!hb.busy());
    }

    #[test]
    fn busy_flatlined_stage_trips_then_recovers() {
        let dir = std::env::temp_dir().join(format!("ph-serve-watchdog-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let stage = "test.serve.watchdog";
        let hb = Arc::new(Heartbeat::new(stage));
        let health = Health::default();
        let mut dog = Watchdog::spawn(fast(), Some(dir.clone()), Arc::clone(&hb), health.clone());

        // Idle: never trips, however long we wait.
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(health.status(), None);

        // Busy and flat: trips, degrades, and dumps the flight ring.
        hb.begin_batch();
        wait_until("the watchdog trip", || {
            health.status().is_some_and(|s| s.contains(stage))
        });
        assert!(
            ph_telemetry::journal_snapshot().iter().any(|e| matches!(
                &e.event,
                TelemetryEvent::StageStalled { stage: s, .. } if s == stage
            )),
            "StageStalled journal event missing"
        );
        wait_until("the flight dump", || {
            ph_store::read_flight(&dir)
                .is_ok_and(|entries| entries.iter().any(|e| e.kind == "stage_stalled"))
        });

        // Progress: clears the degradation.
        hb.bump();
        wait_until("the recovery", || health.status().is_none());
        hb.end_batch();
        dog.shutdown();
        dog.shutdown(); // idempotent
        let _ = std::fs::remove_dir_all(&dir);
    }
}
