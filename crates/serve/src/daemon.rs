//! The daemon: a long-lived monitor → extract → classify pipeline fed by
//! wire frames. Each hour is closed by the hour step `sniff` also runs
//! ([`HourStep::close`]); the daemon keeps only the I/O around it: the
//! listener and ingest queue, the replica thread, the store's durability
//! barrier, the verdict writer, SLO stamps and the watchdog.
//!
//! # The two-engine design
//!
//! The producer (a [`crate::loadgen`] feed or any external process
//! speaking the wire protocol) owns one deterministic engine and streams
//! its firehose. The daemon owns a second engine — the **replica** —
//! built from the same manifest and stepped exactly once per wire-marked
//! hour. Because the simulation is deterministic, the replica's world
//! state is identical to the producer's at every boundary, which gives
//! the daemon what the wire deliberately does not carry: the hourly
//! network selection, the profiles new accounts bring (classification
//! reads them from the step's profile copy), and the ground truth the
//! step re-stamps the delivered tweets' evaluation sidecars from — wire
//! tweets always arrive unlabeled, yet stored bytes match a batch run's.
//!
//! # Replica look-ahead
//!
//! None of that depends on what the wire delivers, so the replica runs on
//! its own thread ahead of the hour loop, planning each hour with
//! [`EngineHours::next`] and sending the [`HourPlan`] over a channel of
//! `LOOKAHEAD_HOURS`. At a boundary the hour loop closes the hour with
//! the plan and the buffered tweets. The store's writer thread makes the
//! hour's checkpoint durable while the hour is classified; the hour loop
//! waits for it before it writes the hour's verdict lines, so the verdict
//! stream never runs ahead of the durable log.
//!
//! The run cursor ([`RunState`]) still advances only at the boundary, on
//! the hour loop's thread: checkpoints, `AttributeSwitch`/`HourTick`
//! journal events and `--resume` never see a look-ahead hour. What does
//! run ahead is the replica's own telemetry — the `switch` span, the
//! `monitor.switch_latency_ms` histogram and the `simulate.*` counters
//! are recorded on the replica thread when it does the work, so a drained
//! session's `simulate.*` counters include up to two hours (one plan
//! queued, one waiting to be) that the hour loop never consumed.
//!
//! # Restart equivalence
//!
//! Hour boundaries — not wall clocks — define batch composition, so a
//! stop + `--resume` replays into the same hourly batches however the
//! frames were timed. On resume the daemon rebuilds classifier state by
//! classifying the stored hours again ([`replay_stored`]; classification
//! is stream-order-dependent via environment-score feedback), truncates
//! the verdict stream to the records the recovered store actually holds,
//! rewrites whatever prefix the stop tore off, and appends from there:
//! the concatenated verdict stream is byte-identical to an uninterrupted
//! run. Stale hour markers (a producer re-sending already-checkpointed
//! hours) are skipped with their tweets; a marker *gap* is a protocol
//! violation and fatal.

use std::cmp::Ordering as CmpOrdering;
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ph_core::detector::{ground_truth_and_detector, StreamClassifier, Verdict};
use ph_core::monitor::{CollectedTweet, RunState, Runner, StreamMonitor};
use ph_core::observe::DecisionLog;
use ph_core::step::{replay_stored, EngineHours, HourPlan, HourStep};
use ph_exec::ExecConfig;
use ph_store::{Manifest, ResumedStore, Store, StoreConfig, StoreWriter};
use ph_telemetry::{log_info, log_warn, TelemetryEvent};
use ph_twitter_sim::engine::Engine;
use ph_twitter_sim::tweet::{Tweet, TweetId};
use ph_twitter_sim::wire::StreamFrame;

use crate::health::Health;
use crate::http::MetricsServer;
use crate::listener::{BindAddr, Listener};
use crate::loadgen::{spawn_feed, FeedConfig};
use crate::queue::IngestQueue;
use crate::slo::{SloCheck, SloTarget};
use crate::verdict::VerdictWriter;
use crate::watchdog::{Heartbeat, Watchdog, WatchdogConfig};

/// How long one queue pop waits before the stop flag is re-checked.
const POP_TIMEOUT: Duration = Duration::from_millis(100);

/// File written into the store directory with the resolved endpoint
/// addresses (`ingest=…`, `http=…`) once the daemon is accepting.
pub const ENDPOINTS_FILE: &str = "ENDPOINTS";

/// Drop guard pairing [`Heartbeat::begin_batch`] with `end_batch` across
/// the `?`-heavy hour-boundary block.
struct HourDone<'a>(&'a Heartbeat);

impl Drop for HourDone<'_> {
    fn drop(&mut self) {
        self.0.end_batch();
    }
}

/// Hour plans the replica may finish before the hour loop asks for them.
/// With one more held by the replica thread while it waits to send, the
/// replica engine runs at most `LOOKAHEAD_HOURS + 1` hours ahead of the
/// run cursor. One plan is all an hour boundary can use; deeper buffering
/// would only hold more engine state in memory, so this is not a knob.
const LOOKAHEAD_HOURS: usize = 1;

/// The replica engine's thread and the channel its plans arrive on.
/// Every way out of [`run`] joins the thread: dropping this disconnects
/// the channel, so a replica blocked on a full channel stops, and waits
/// for it.
struct Replica {
    plans: Option<Receiver<HourPlan>>,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Replica {
    /// Runs `body` on its own thread, handing it the sending end of a
    /// [`LOOKAHEAD_HOURS`]-deep plan channel.
    fn start<F>(body: F) -> io::Result<Self>
    where
        F: FnOnce(SyncSender<HourPlan>) -> io::Result<()> + Send + 'static,
    {
        let (send, plans) = mpsc::sync_channel(LOOKAHEAD_HOURS);
        let thread = std::thread::Builder::new()
            .name("serve-replica".to_string())
            .spawn(move || body(send))?;
        Ok(Self {
            plans: Some(plans),
            thread: Some(thread),
        })
    }

    /// The next hour's plan. If the replica thread ended without one, its
    /// error — or its panic, as an `io::Error` — comes back instead.
    fn next(&mut self) -> io::Result<HourPlan> {
        if let Some(plan) = self.plans.as_ref().and_then(|plans| plans.recv().ok()) {
            return Ok(plan);
        }
        self.join()?;
        Err(io::Error::other("the replica stopped before the run ended"))
    }

    /// Disconnects the channel and waits for the thread, surfacing its
    /// error or panic. Idempotent.
    fn join(&mut self) -> io::Result<()> {
        self.plans = None;
        match self.thread.take().map(JoinHandle::join) {
            None | Some(Ok(Ok(()))) => Ok(()),
            Some(Ok(Err(e))) => Err(e),
            Some(Err(panic)) => {
                let what = panic
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("non-string payload");
                Err(io::Error::other(format!("replica thread panicked: {what}")))
            }
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        let _ = self.join();
    }
}

/// The replica thread's loop: from the session's restored cursor to the
/// end of the run, plan each hour ([`EngineHours::next`]) and send the
/// plan. A closed channel means the hour loop drained — a normal stop.
fn replica_hours(
    mut engine: Engine,
    runner: &Runner,
    state: &RunState,
    manifest: &Manifest,
    plans: &SyncSender<HourPlan>,
) -> io::Result<()> {
    let _span = ph_telemetry::span("serve.replica");
    // The replica's own subscription, opened only now so neither the
    // ground-truth window nor replayed hours leak into it. Its tweets
    // only supply each plan's truth: the wire delivers the hour.
    let mut hours = EngineHours::new(&engine, manifest.buffer_capacity as usize, state);
    let mut round = state.round;
    for hour_index in state.next_hour..manifest.hours {
        let (plan, _, _) = hours.next(runner, &mut engine, hour_index, round);
        round += u64::from(plan.network.is_some());
        if plans.send(plan).is_err() {
            break;
        }
    }
    Ok(())
}

/// In-daemon load generation settings.
#[derive(Debug, Clone, Copy)]
pub struct LoadgenConfig {
    /// Target events/second; `0` = unpaced.
    pub rate: f64,
}

/// A deterministic per-hour slowdown for health soak tests: the daemon
/// sleeps `ms` milliseconds inside each of the first `hours` hour
/// boundaries, inflating ingest→verdict latency enough to breach a
/// tight SLO — and then recovers, because later hours are unthrottled.
#[derive(Debug, Clone, Copy)]
pub struct ThrottleConfig {
    /// Sleep per throttled hour, in milliseconds.
    pub ms: u64,
    /// Hours `0..hours` are throttled; the rest run at full speed.
    pub hours: u64,
}

/// Everything [`run`] needs.
pub struct ServeConfig {
    /// Store directory (created fresh, or resumed with `resume`).
    pub dir: PathBuf,
    /// Run shape for a fresh store; ignored (with a warning upstream) on
    /// resume, where the stored manifest pins everything.
    pub manifest: Manifest,
    /// Continue a previous run from its last checkpoint.
    pub resume: bool,
    /// Store tuning (checkpoint cadence, segment size, sync policy).
    pub store: StoreConfig,
    /// Dataflow threading for categorize/extract/classify stages.
    pub exec: ExecConfig,
    /// Ingest socket to bind (TCP `host:port` or Unix path).
    pub listen: BindAddr,
    /// HTTP endpoint to bind for `/metrics` + `/healthz`; `None`
    /// disables it.
    pub http: Option<String>,
    /// Verdict stream path; `None` → `<dir>/verdicts.ndjson`.
    pub verdicts: Option<PathBuf>,
    /// Run the built-in producer against our own socket.
    pub loadgen: Option<LoadgenConfig>,
    /// Cooperative stop flag ([`crate::signal::install`] wires
    /// SIGINT/SIGTERM to it); checked between frames, honored at hour
    /// granularity.
    pub stop: Arc<AtomicBool>,
    /// Drain after this many hours *this session* — the deterministic
    /// stand-in for a mid-run signal in tests.
    pub stop_after_hours: Option<u64>,
    /// Decision observability: explained NDJSON verdicts (`margin` +
    /// `top_features` fields), per-feature drift monitoring, and the
    /// `explain.log`/`drift.log` streams persisted beside the journal.
    pub explain: bool,
    /// Ingest→verdict latency SLO (`--slo p99:250`): stamp queued
    /// frames, record per-hour latency quantiles, and degrade `/healthz`
    /// while the targeted quantile breaches. `None` = off, zero-cost.
    pub slo: Option<SloTarget>,
    /// Stage-watchdog sensitivity: declare a busy stage stalled after
    /// this many 250 ms samples without progress. `0` disables the
    /// watchdog.
    pub watchdog_ticks: u64,
    /// Test-only deterministic slowdown; see [`ThrottleConfig`].
    pub throttle: Option<ThrottleConfig>,
}

/// What a daemon session did.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Monitored hours now complete (whole run, not just this session).
    pub hours_done: u64,
    /// The run's total hours per the manifest.
    pub total_hours: u64,
    /// Records in the segment log at exit.
    pub records: u64,
    /// Verdict lines in the stream at exit.
    pub verdicts: u64,
    /// Tweets shed by the ingest queue this session.
    pub shed: u64,
    /// True when the session drained before completing the run (the
    /// store checkpoint makes `resume` continue it).
    pub stopped_early: bool,
    /// Resolved ingest address.
    pub ingest_addr: String,
    /// Resolved HTTP address, when enabled.
    pub http_addr: Option<String>,
}

/// Appends the verdicts of `batch` (first record `first`) that the
/// stream does not hold yet. With a decision log, the classify fold has
/// just explained every record of `batch` into it, and each line carries
/// its explain fields.
fn append_verdicts(
    verdicts: &mut VerdictWriter,
    batch: &[CollectedTweet],
    first: u64,
    hour_verdicts: &[Verdict],
    log: Option<&DecisionLog>,
) -> io::Result<()> {
    let explanations = log.map_or(&[][..], |log| {
        let all = log.explanations();
        &all[all.len() - batch.len()..]
    });
    for (offset, (collected, verdict)) in batch.iter().zip(hour_verdicts).enumerate() {
        if first + offset as u64 >= verdicts.next_seq() {
            match explanations.get(offset) {
                Some(e) => verdicts.append_explained(collected, *verdict, e)?,
                None => verdicts.append(collected, *verdict)?,
            }
        }
    }
    Ok(())
}

/// Runs the daemon to completion (or a requested stop). See the module
/// docs for the architecture.
///
/// # Errors
///
/// Propagates store/socket I/O failures and wire-protocol violations
/// (an hour-marker gap).
pub fn run(config: ServeConfig) -> io::Result<ServeOutcome> {
    let _span = ph_telemetry::span("serve");
    // Service-health setup. Each session starts healthy with an empty
    // journal, a fresh flight ring and, when targeted, a passing SLO
    // check.
    let health = Health::default();
    ph_telemetry::journal_reset();
    ph_telemetry::flight_reset();
    let mut slo_check = config.slo.map(SloCheck::new);
    if let Some(target) = &config.slo {
        log_info!(
            "serve: latency SLO armed — hourly {} must stay ≤ {} ms",
            target.label,
            target.target_ms
        );
    }
    let ResumedStore {
        mut store,
        manifest,
        state,
        report: prior,
        ..
    } = Store::open_session(&config.dir, config.manifest, config.store, config.resume)?;

    let exec = config.exec.clone();
    let mut engine = Engine::new(manifest.sim_config());
    let runner = Runner::with_exec(manifest.runner_config(), exec.clone());
    let mut classifier = {
        let (_, training, detector) =
            ground_truth_and_detector(&mut engine, &runner, manifest.gt_hours, &exec);
        let log = config.explain.then(|| DecisionLog::new(&training));
        StreamClassifier::with_log(detector, log)
    };

    let verdict_path = config
        .verdicts
        .clone()
        .unwrap_or_else(|| config.dir.join("verdicts.ndjson"));
    let mut verdicts = if config.resume {
        // Rebuild the stream-order-dependent classifier state from the
        // stored hours, and rewrite the verdict lines the previous
        // session computed but never durably flushed.
        let (mut writer, _) = VerdictWriter::resume(&verdict_path, store.record_count())?;
        let records = store.reader()?.collect::<io::Result<Vec<_>>>()?;
        let (records, replayed) = replay_stored(
            &mut engine,
            &mut classifier,
            &exec,
            records,
            state.next_hour,
        );
        append_verdicts(&mut writer, &records, 0, &replayed, classifier.log())?;
        writer.flush()?;
        writer
    } else {
        VerdictWriter::create(&verdict_path)?
    };

    let capacity = manifest.buffer_capacity as usize;
    let queue = Arc::new(if config.slo.is_some() {
        IngestQueue::stamped(capacity)
    } else {
        IngestQueue::new(capacity)
    });
    let mut listener = Listener::spawn(&config.listen, Arc::clone(&queue))?;
    let http = match &config.http {
        Some(addr) => Some(MetricsServer::spawn(addr, health.clone())?),
        None => None,
    };
    let ingest_addr = listener.addr.to_string();
    let http_addr = http.as_ref().map(|h| h.addr.clone());
    std::fs::write(
        config.dir.join(ENDPOINTS_FILE),
        format!(
            "ingest={ingest_addr}\nhttp={}\n",
            http_addr.as_deref().unwrap_or("-")
        ),
    )?;
    ph_telemetry::gauge("serve.hours_total").set(manifest.hours as f64);
    ph_telemetry::gauge("serve.hours_done").set(state.next_hour as f64);

    if let Some(loadgen) = &config.loadgen {
        // Self-soak: the producer connects to our own freshly bound
        // socket and streams the remaining hours. Detached — it ends at
        // its own Shutdown frame or a broken pipe when we drain first.
        drop(spawn_feed(
            listener.addr.clone(),
            FeedConfig {
                manifest,
                start_hour: state.next_hour,
                end_hour: manifest.hours,
                rate: loadgen.rate,
            },
        ));
    }

    // The hour loop's heartbeat: busy while an hour boundary is being
    // processed, progressing once per completed hour — so a hang inside
    // categorize/classify/flush trips the watchdog.
    let hour_hb = Arc::new(Heartbeat::new("serve.hour"));
    let mut watchdog = if config.watchdog_ticks > 0 {
        Some(Watchdog::spawn(
            WatchdogConfig {
                ticks: config.watchdog_ticks,
                ..WatchdogConfig::default()
            },
            Some(config.dir.clone()),
            Arc::clone(&hour_hb),
            health.clone(),
        ))
    } else {
        None
    };

    // The hour step copies the replica's profile directory now; the
    // engine itself moves to the replica thread, which starts once set-up
    // is done.
    let mut step = HourStep::new(
        StreamMonitor::resume(runner.clone(), manifest.hours, state.clone()),
        classifier,
        &engine,
        exec,
    );
    let session_start_hour = state.next_hour;
    let mut replica =
        Replica::start(move |plans| replica_hours(engine, &runner, &state, &manifest, &plans))?;
    let mut stopped_early = false;
    let mut producer_done = false;
    let mut buffered: Vec<Tweet> = Vec::new();
    let mut ingest_ticks: HashMap<TweetId, u64> = HashMap::new();
    {
        let mut writer: StoreWriter<'_> = store.writer(&prior);
        while !step.monitor.complete() {
            if crate::signal::take_dump_request() {
                // SIGQUIT = dump-and-continue: snapshot the flight ring
                // into the store, keep serving.
                match ph_store::write_flight(&config.dir, &ph_telemetry::flight_snapshot()) {
                    Ok(()) => log_info!(
                        "serve: SIGQUIT — flight recorder dumped to {}",
                        config.dir.join(ph_store::FLIGHT_FILE).display()
                    ),
                    Err(e) => log_warn!("serve: flight dump failed: {e}"),
                }
            }
            let hours_this_session = step.monitor.state().next_hour - session_start_hour;
            if config.stop.load(Ordering::SeqCst)
                || config
                    .stop_after_hours
                    .is_some_and(|n| hours_this_session >= n)
            {
                stopped_early = true;
                break;
            }
            let Some((frame, ingest_tick)) = queue.pop_timeout(POP_TIMEOUT) else {
                if producer_done && config.loadgen.is_some() && queue.depth() == 0 {
                    // Our own producer finished early (it errors out on
                    // a drain, never silently under-delivers) — without
                    // this the self-soak would idle forever.
                    stopped_early = true;
                    break;
                }
                continue;
            };
            match frame {
                StreamFrame::Tweet(tweet) => {
                    if ingest_tick != 0 {
                        ingest_ticks.insert(tweet.id, ingest_tick);
                    }
                    buffered.push(tweet);
                }
                StreamFrame::Shutdown => producer_done = true,
                StreamFrame::HourBoundary { hour } => {
                    match hour.cmp(&step.monitor.state().next_hour) {
                        CmpOrdering::Less => {
                            // A producer replaying already-checkpointed
                            // hours (it restarted from an older cursor):
                            // drop the duplicate hour wholesale.
                            buffered.clear();
                            ingest_ticks.clear();
                        }
                        CmpOrdering::Greater => {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!(
                                    "hour marker gap: producer announced hour {hour} but hour {} is next",
                                    step.monitor.state().next_hour
                                ),
                            ));
                        }
                        CmpOrdering::Equal => {
                            hour_hb.begin_batch();
                            // Releases "busy" even when an error below
                            // propagates out of the loop — a stale busy
                            // heartbeat would false-trip a later
                            // session's watchdog.
                            let _hour_done = HourDone(&hour_hb);
                            if let Some(throttle) = &config.throttle {
                                if hour < throttle.hours {
                                    std::thread::sleep(Duration::from_millis(throttle.ms));
                                }
                            }
                            let plan = replica.next()?;
                            let shed = queue.take_shed();
                            if shed > 0 {
                                ph_telemetry::counter("serve.ingest.shed").add(shed);
                            }
                            // Classify while the hour's checkpoint is in
                            // flight; its verdict lines wait until it is
                            // durable, so they never run ahead of the log.
                            let first = verdicts.next_seq();
                            let delivered = std::mem::take(&mut buffered);
                            let (batch, hour_verdicts) =
                                step.close(plan, delivered, shed, &mut writer)?;
                            writer.wait_durable()?;
                            #[cfg(test)]
                            tests::before_verdicts(&config.dir, hour);
                            append_verdicts(
                                &mut verdicts,
                                &batch,
                                first,
                                &hour_verdicts,
                                step.classifier.log(),
                            )?;
                            verdicts.flush()?;
                            if let Some(slo_check) = &mut slo_check {
                                // The verdicts are durable — the
                                // ingest→verdict clock stops here.
                                let now = crate::slo::tick_now_ns();
                                let taken = std::mem::take(&mut ingest_ticks);
                                let latencies: Vec<f64> = batch
                                    .iter()
                                    .filter_map(|c| taken.get(&c.tweet.id))
                                    .map(|&tick| now.saturating_sub(tick) as f64 / 1e6)
                                    .collect();
                                let quantiles = crate::slo::record_hour(hour, &latencies);
                                match slo_check.check(hour, quantiles) {
                                    Some(TelemetryEvent::SloBreach {
                                        rule, value, limit, ..
                                    }) => health.degrade(
                                        &rule,
                                        &format!("{value:.1} ms > {limit:.1} ms limit"),
                                    ),
                                    Some(TelemetryEvent::SloRecovered { rule, .. }) => {
                                        health.clear(&rule);
                                    }
                                    _ => {}
                                }
                            }
                            hour_hb.bump();
                            ph_telemetry::counter("serve.verdicts").add(batch.len() as u64);
                            ph_telemetry::gauge("serve.hours_done")
                                .set(step.monitor.state().next_hour as f64);
                            ph_telemetry::progress_update(&format!(
                                "serve: hour {}/{} done",
                                step.monitor.state().next_hour,
                                manifest.hours
                            ));
                        }
                    }
                }
            }
        }
        if stopped_early {
            // A partial hour is discarded — its boundary never arrived,
            // so the producer re-sends the whole hour after resume. The
            // drain's checkpoint is what lets a between-intervals stop
            // resume from the last *completed* hour.
            if !buffered.is_empty() {
                log_info!(
                    "serve: discarding {} tweets of the unfinished hour (re-sent on resume)",
                    buffered.len()
                );
                buffered.clear();
            }
            writer.checkpoint_drain(step.monitor.state(), step.monitor.segment())?;
        }
    }
    replica.join()?;
    step.monitor.finish(manifest.buffer_capacity as usize);
    if let Some(dog) = watchdog.as_mut() {
        dog.shutdown();
    }
    listener.shutdown();
    drop(http);
    store.sync()?;

    // The durable observability record, shaped exactly like a batch
    // run's so `inspect` renders serve stores unchanged.
    let hours_done = step.monitor.state().next_hour;
    store.write_run_record(hours_done.saturating_sub(1), step.classifier.into_log())?;

    let outcome = ServeOutcome {
        hours_done,
        total_hours: manifest.hours,
        records: store.record_count(),
        verdicts: verdicts.next_seq(),
        shed: queue.shed_count(),
        stopped_early: stopped_early && !step.monitor.complete(),
        ingest_addr,
        http_addr,
    };
    verdicts.flush()?;
    log_info!(
        "serve: {} of {} h done, {} records, {} verdicts, {} shed{}",
        outcome.hours_done,
        outcome.total_hours,
        outcome.records,
        outcome.verdicts,
        outcome.shed,
        if outcome.stopped_early {
            " — stopped early, resumable"
        } else {
            ""
        }
    );
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::path::Path;

    use ph_store::{CheckpointLog, CHECKPOINT_FILE};

    thread_local! {
        /// Hours `before_verdicts` has checked; `None` while unarmed.
        static CHECKED: Cell<Option<u64>> = const { Cell::new(None) };
    }

    /// Called by the hour loop right before it writes `hour`'s verdicts:
    /// when armed, hour `h`'s checkpoint (cursor `h + 1`) must already be
    /// on disk, the newest there.
    pub(super) fn before_verdicts(dir: &Path, hour: u64) {
        let Some(checked) = CHECKED.get() else {
            return;
        };
        let (_, checkpoints) =
            CheckpointLog::open(&dir.join(CHECKPOINT_FILE)).expect("checkpoint log readable");
        let cursors: Vec<u64> = checkpoints.iter().map(|c| c.state.next_hour).collect();
        assert_eq!(
            cursors,
            (1..=hour + 1).collect::<Vec<u64>>(),
            "the verdicts of hour {hour} ran ahead of its checkpoint"
        );
        CHECKED.set(Some(checked + 1));
    }

    #[test]
    fn no_verdict_line_is_written_before_its_hours_checkpoint() {
        let dir = std::env::temp_dir().join(format!("ph-serve-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = Manifest {
            sim_seed: 5,
            organic: 200,
            campaigns: 2,
            per_campaign: 6,
            runner_seed: 5,
            gt_hours: 2,
            hours: 4,
            buffer_capacity: ph_twitter_sim::api::DEFAULT_QUEUE_CAPACITY as u64,
            taste_flip: ph_store::manifest::NO_TASTE_FLIP,
        };
        CHECKED.set(Some(0));
        let outcome = run(ServeConfig {
            dir: dir.clone(),
            manifest,
            resume: false,
            store: StoreConfig::default(),
            exec: ExecConfig::with_threads(1),
            listen: BindAddr::Unix(dir.join("ingest.sock")),
            http: None,
            verdicts: None,
            loadgen: Some(LoadgenConfig { rate: 0.0 }),
            stop: Arc::new(AtomicBool::new(false)),
            stop_after_hours: None,
            explain: false,
            slo: None,
            watchdog_ticks: 0,
            throttle: None,
        })
        .unwrap();
        assert_eq!(outcome.hours_done, manifest.hours);
        assert_eq!(CHECKED.replace(None), Some(manifest.hours));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn empty_plan() -> HourPlan {
        HourPlan {
            hour: 0,
            network: None,
            truth: HashMap::new(),
            new_profiles: Vec::new(),
        }
    }

    #[test]
    fn plans_arrive_in_order_then_the_end_is_an_error() {
        let mut replica = Replica::start(|plans| {
            for hour in 0..3 {
                let plan = HourPlan {
                    hour,
                    ..empty_plan()
                };
                plans.send(plan).map_err(io::Error::other)?;
            }
            Ok(())
        })
        .unwrap();
        for hour in 0..3 {
            assert_eq!(replica.next().unwrap().hour, hour);
        }
        let err = replica.next().expect_err("no fourth plan");
        assert!(err.to_string().contains("stopped before"), "{err}");
        replica.join().unwrap();
    }

    #[test]
    fn a_replica_error_comes_back_from_next() {
        let mut replica = Replica::start(|_| Err(io::Error::other("tap closed"))).unwrap();
        let err = replica.next().expect_err("the replica failed");
        assert_eq!(err.to_string(), "tap closed");
    }

    #[test]
    fn a_replica_panic_comes_back_as_an_io_error() {
        let mut replica = Replica::start(|_| panic!("selection blew up")).unwrap();
        let err = replica.next().expect_err("the replica panicked");
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert!(err.to_string().contains("selection blew up"), "{err}");
    }

    #[test]
    fn dropping_the_hour_loop_stops_a_replica_blocked_on_a_full_channel() {
        let (sent, delivered) = mpsc::channel();
        let replica = Replica::start(move |plans| {
            while plans.send(empty_plan()).is_ok() {
                sent.send(()).map_err(io::Error::other)?;
            }
            Ok(())
        })
        .unwrap();
        // The channel holds LOOKAHEAD_HOURS plans; the next send blocks
        // until the drop below disconnects it.
        for _ in 0..LOOKAHEAD_HOURS {
            delivered.recv().unwrap();
        }
        drop(replica);
        assert_eq!(
            delivered.try_iter().count(),
            0,
            "a plan went past a full channel"
        );
    }
}
