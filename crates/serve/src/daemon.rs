//! The daemon: a long-lived monitor → extract → classify pipeline fed by
//! wire frames.
//!
//! # The two-engine design
//!
//! The producer (a [`crate::loadgen`] feed or any external process
//! speaking the wire protocol) owns one deterministic engine and streams
//! its firehose. The daemon owns a second engine — the **replica** —
//! built from the same manifest and stepped exactly once per wire-marked
//! hour. Because the simulation is deterministic, the replica's world
//! state (profiles, suspensions, trends, ground truth) is identical to
//! the producer's at every boundary, which gives the daemon three things
//! the wire deliberately does not carry:
//!
//! 1. **Network selection**: the hourly attribute switch reads the
//!    replica *before* stepping into the hour, exactly like the batch
//!    runner.
//! 2. **REST context**: feature extraction and classification look up
//!    author profiles in the replica's profile directory.
//! 3. **Evaluation sidecars**: ground-truth labels never cross the wire
//!    (decoded tweets always arrive unlabeled), so each hour the daemon
//!    polls its replica's own firehose and re-stamps the delivered
//!    tweets from the replica's oracle before they are stored — stored
//!    bytes match a batch run's exactly.
//!
//! # Replica look-ahead
//!
//! None of that depends on what the wire delivers, so the replica runs on
//! its own thread ahead of the hour loop. For each hour it selects the
//! network when a switch is due, steps, and turns its firehose tap into
//! the hour's `TweetId → spam` truth map; the result travels to the hour
//! loop as a `ReplicaHour` plan over a channel of `LOOKAHEAD_HOURS`.
//! At a boundary the hour loop only applies the plan
//! ([`StreamMonitor::begin_hour_with`]), re-stamps, categorizes, stores,
//! classifies and writes verdicts. Classification reads profiles from the
//! hour loop's own copy of the directory — profiles never change after an
//! account is created and accounts are only ever appended, so each plan
//! carries the profiles its hour created and the copy stays exact.
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
//! replaying the stored log hour-by-hour through the same
//! [`StreamClassifier`] (classification is stream-order-dependent via
//! environment-score feedback), truncates the verdict stream to the
//! records the recovered store actually holds, rewrites whatever prefix
//! the stop tore off, and appends from there: the concatenated verdict
//! stream is byte-identical to an uninterrupted run. Stale hour markers
//! (a producer re-sending already-checkpointed hours) are skipped with
//! their tweets; a marker *gap* is a protocol violation and fatal.

use std::cmp::Ordering as CmpOrdering;
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ph_core::detector::{build_training_data_with, DetectorConfig, SpamDetector, StreamClassifier};
use ph_core::features::DEFAULT_TAU;
use ph_core::labeling::pipeline::{label_collection_with, PipelineConfig};
use ph_core::monitor::{
    CollectedTweet, MonitorReport, RunState, Runner, RunnerConfig, StreamMonitor,
};
use ph_core::network::PseudoHoneypotNetwork;
use ph_exec::ExecConfig;
use ph_store::{Manifest, Store, StoreConfig, StoreWriter};
use ph_telemetry::{log_info, log_warn, TelemetryEvent};
use ph_twitter_sim::engine::{Engine, SimConfig};
use ph_twitter_sim::tweet::{Tweet, TweetId};
use ph_twitter_sim::wire::StreamFrame;
use ph_twitter_sim::Profile;

use crate::http::MetricsServer;
use crate::listener::{BindAddr, Listener};
use crate::loadgen::{spawn_feed, FeedConfig};
use crate::queue::IngestQueue;
use crate::slo::SloTarget;
use crate::verdict::VerdictWriter;
use crate::watchdog::{Watchdog, WatchdogConfig};

/// How long one queue pop waits before the stop flag is re-checked.
const POP_TIMEOUT: Duration = Duration::from_millis(100);

/// File written into the store directory with the resolved endpoint
/// addresses (`ingest=…`, `http=…`) once the daemon is accepting.
pub const ENDPOINTS_FILE: &str = "ENDPOINTS";

/// Drop guard pairing [`ph_exec::Heartbeat::begin_batch`] with
/// `end_batch` across the `?`-heavy hour-boundary block.
struct HourDone<'a>(&'a ph_exec::Heartbeat);

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

/// One hour of replica work, done ahead on the replica thread and applied
/// by the hour loop at that hour's boundary.
struct ReplicaHour {
    /// Absolute engine hour the replica stepped through.
    hour: u64,
    /// The switch round's network, when this hour opens one.
    network: Option<PseudoHoneypotNetwork>,
    /// Ground truth of every tweet the replica's firehose saw this hour.
    truth: HashMap<TweetId, bool>,
    /// Profiles of the accounts created this hour, in id order.
    new_profiles: Vec<Profile>,
}

/// The replica engine's thread and the channel its plans arrive on.
/// Every way out of [`run`] joins the thread: dropping this disconnects
/// the channel, so a replica blocked on a full channel stops, and waits
/// for it.
struct Replica {
    plans: Option<Receiver<ReplicaHour>>,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Replica {
    /// Runs `body` on its own thread, handing it the sending end of a
    /// [`LOOKAHEAD_HOURS`]-deep plan channel.
    fn start<F>(body: F) -> io::Result<Self>
    where
        F: FnOnce(SyncSender<ReplicaHour>) -> io::Result<()> + Send + 'static,
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
    fn next(&mut self) -> io::Result<ReplicaHour> {
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
/// end of the run, select (when a switch is due), step, and send the
/// hour's plan. A closed channel means the hour loop drained — a normal
/// stop.
fn replica_hours(
    mut engine: Engine,
    runner: &Runner,
    state: &RunState,
    manifest: &Manifest,
    plans: &SyncSender<ReplicaHour>,
) -> io::Result<()> {
    let _span = ph_telemetry::span("serve.replica");
    // The replica's own firehose tap, opened only now so neither the
    // ground-truth window nor replayed hours leak into it.
    let streaming = engine.streaming();
    let tap = streaming.firehose_with_capacity(manifest.buffer_capacity as usize);
    let mut round = state.round;
    let mut known_accounts = engine.rest().num_accounts();
    for hour_index in state.next_hour..manifest.hours {
        let (network, hour) = runner.open_hour(&mut engine, hour_index, round);
        round += u64::from(network.is_some());
        let tweets = streaming.poll(tap).map_err(io::Error::other)?;
        let oracle = engine.ground_truth();
        let truth = tweets.iter().map(|t| (t.id, oracle.is_spam(t))).collect();
        let new_profiles: Vec<Profile> = engine
            .rest()
            .profiles()
            .skip(known_accounts)
            .cloned()
            .collect();
        known_accounts += new_profiles.len();
        let plan = ReplicaHour {
            hour,
            network,
            truth,
            new_profiles,
        };
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
    /// frames, record per-hour latency quantiles, and alert when the
    /// targeted quantile breaches. `None` = off, zero-cost.
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

fn engine_for(manifest: &Manifest) -> Engine {
    Engine::new(SimConfig {
        seed: manifest.sim_seed,
        num_organic: manifest.organic as usize,
        num_campaigns: manifest.campaigns as usize,
        accounts_per_campaign: manifest.per_campaign as usize,
        drift: manifest.drift_schedule(),
        ..Default::default()
    })
}

/// Phases 1–2, identical to the batch CLI: ground-truth collection over
/// `gt_hours`, labeling, and Random-Forest training — leaving `engine`
/// stepped to the monitoring start.
fn train_detector(
    engine: &mut Engine,
    runner: &Runner,
    gt_hours: u64,
    exec: &ExecConfig,
) -> SpamDetector {
    log_info!("serve: phase 1 — ground truth, standard network, {gt_hours} h…");
    let train_report = runner.run(engine, gt_hours);
    let ground_truth = label_collection_with(
        &train_report.collected,
        engine,
        &PipelineConfig::default(),
        exec,
    );
    log_info!("serve: phase 2 — training the Random Forest detector…");
    let (data, _) = build_training_data_with(
        &train_report.collected,
        &ground_truth.labels,
        engine,
        DEFAULT_TAU,
        exec,
    );
    SpamDetector::train(&DetectorConfig::default(), &data)
}

fn open_store(config: &ServeConfig) -> io::Result<(Store, MonitorReport, RunState, Manifest)> {
    if config.resume {
        let r = Store::open_resume(&config.dir, config.store)?;
        log_info!(
            "serve: resuming {}: {} of {} h done, {} records on log ({} bytes truncated in recovery)",
            config.dir.display(),
            r.state.next_hour,
            r.manifest.hours,
            r.store.record_count(),
            r.recovery.truncated_bytes
        );
        Ok((r.store, r.report, r.state, r.manifest))
    } else {
        let store = Store::create(&config.dir, config.manifest, config.store)?;
        Ok((
            store,
            MonitorReport::default(),
            RunState::default(),
            config.manifest,
        ))
    }
}

/// Replays the stored log hour-by-hour through the classifier: steps the
/// replica across every already-monitored hour, rebuilds the
/// stream-order-dependent extractor state, and rewrites verdict lines
/// the previous session computed but never durably flushed.
fn warm_up(
    engine: &mut Engine,
    classifier: &mut StreamClassifier,
    exec: &ExecConfig,
    store: &Store,
    state: &RunState,
    verdicts: &mut VerdictWriter,
    kept_lines: u64,
) -> io::Result<()> {
    let records: Vec<CollectedTweet> = store
        .reader()?
        .collect::<io::Result<Vec<CollectedTweet>>>()?;
    log_info!(
        "serve: warm-up — replaying {} stored records over {} hours…",
        records.len(),
        state.next_hour
    );
    let mut base = 0usize;
    for _ in 0..state.next_hour {
        let absolute_hour = engine.now().whole_hours();
        engine.step_hour();
        let mut end = base;
        while end < records.len() && records[end].hour == absolute_hour {
            end += 1;
        }
        let batch = &records[base..end];
        let hour_verdicts = classifier.classify_hour(batch, engine, exec);
        // With observability on, the replay re-recorded an explanation
        // per record (seq = record index), so rewritten lines carry the
        // same explain fields an uninterrupted run would have flushed.
        let explanations = if ph_core::observe::is_enabled() {
            ph_core::observe::explanations_from(base as u64)
        } else {
            Vec::new()
        };
        for (offset, (collected, verdict)) in batch.iter().zip(&hour_verdicts).enumerate() {
            if (base + offset) as u64 >= kept_lines {
                match explanations.get(offset) {
                    Some(e) => verdicts.append_explained(collected, *verdict, e)?,
                    None => verdicts.append(collected, *verdict)?,
                }
            }
        }
        base = end;
    }
    verdicts.flush()?;
    if base != records.len() {
        log_warn!(
            "serve: {} stored records fall outside the checkpointed hours",
            records.len() - base
        );
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
    if config.explain {
        ph_core::observe::set_enabled(true);
    }
    // Service-health setup. Each session starts healthy with a fresh
    // flight ring; the SLO alert rule (when targeted) replaces any
    // rule set a previous in-process session installed.
    crate::health::reset();
    ph_telemetry::flight_reset();
    crate::slo::set_enabled(config.slo.is_some());
    if let Some(target) = &config.slo {
        ph_telemetry::alert_reset();
        ph_telemetry::alert_install(target.rule());
        log_info!(
            "serve: latency SLO armed — hourly {} must stay ≤ {} ms",
            target.label,
            target.target_ms
        );
    }
    let (mut store, prior, state, manifest) = open_store(&config)?;

    let exec = config.exec.clone();
    let mut engine = engine_for(&manifest);
    let runner = Runner::with_exec(
        RunnerConfig {
            seed: manifest.runner_seed,
            buffer_capacity: manifest.buffer_capacity as usize,
            ..Default::default()
        },
        exec.clone(),
    );
    let detector = train_detector(&mut engine, &runner, manifest.gt_hours, &exec);
    let mut classifier = StreamClassifier::new(detector);

    let verdict_path = config
        .verdicts
        .clone()
        .unwrap_or_else(|| config.dir.join("verdicts.ndjson"));
    let mut verdicts = if config.resume {
        let (mut writer, kept) = VerdictWriter::resume(&verdict_path, store.record_count())?;
        warm_up(
            &mut engine,
            &mut classifier,
            &exec,
            &store,
            &state,
            &mut writer,
            kept,
        )?;
        writer
    } else {
        VerdictWriter::create(&verdict_path)?
    };

    let queue = Arc::new(IngestQueue::new(manifest.buffer_capacity as usize));
    let mut listener = Listener::spawn(&config.listen, Arc::clone(&queue))?;
    let http = match &config.http {
        Some(addr) => Some(MetricsServer::spawn(addr)?),
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

    let mut watchdog = if config.watchdog_ticks > 0 {
        Some(Watchdog::spawn(
            WatchdogConfig {
                ticks: config.watchdog_ticks,
                ..WatchdogConfig::default()
            },
            Some(config.dir.clone()),
        ))
    } else {
        None
    };
    // The daemon loop's own heartbeat: busy while an hour boundary is
    // being processed, progressing once per completed hour — so a hang
    // inside classify/flush trips the watchdog like any exec stage.
    let hour_hb = ph_exec::heartbeat("serve.hour");

    // The hour loop's copy of the replica's profile directory, extended
    // from each plan; the engine itself moves to the replica thread,
    // which starts once set-up is done.
    let mut profiles: Vec<Profile> = engine.rest().profiles().cloned().collect();
    let mut replica = {
        let (runner, state) = (runner.clone(), state.clone());
        Replica::start(move |plans| replica_hours(engine, &runner, &state, &manifest, &plans))?
    };
    let mut monitor = StreamMonitor::resume(runner, manifest.hours, state);
    let session_start_hour = monitor.state().next_hour;
    let mut stopped_early = false;
    let mut producer_done = false;
    let mut buffered: Vec<Tweet> = Vec::new();
    let mut ingest_ticks: HashMap<TweetId, u64> = HashMap::new();
    {
        let mut writer: StoreWriter<'_> = store.writer(&prior);
        while !monitor.complete() {
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
            let hours_this_session = monitor.state().next_hour - session_start_hour;
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
                    match hour.cmp(&monitor.state().next_hour) {
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
                                    monitor.state().next_hour
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
                            monitor.begin_hour_with(plan.network, plan.hour);
                            // Re-stamp evaluation sidecars from the
                            // replica's oracle — the wire carries none.
                            for tweet in &mut buffered {
                                let spam = plan.truth.get(&tweet.id).copied().unwrap_or(false);
                                tweet.set_evaluation_sidecar_spam(spam);
                            }
                            profiles.extend(plan.new_profiles);
                            let shed = queue.take_shed();
                            if shed > 0 {
                                ph_telemetry::counter("serve.ingest.shed").add(shed);
                            }
                            let delivered = std::mem::take(&mut buffered);
                            let batch = monitor.finish_hour(delivered, shed, &mut writer)?;
                            let start_seq = verdicts.next_seq();
                            let hour_verdicts =
                                classifier.classify_hour(&batch, profiles.as_slice(), &exec);
                            let explanations = if config.explain {
                                ph_core::observe::explanations_from(start_seq)
                            } else {
                                Vec::new()
                            };
                            for (i, (collected, verdict)) in
                                batch.iter().zip(&hour_verdicts).enumerate()
                            {
                                match explanations.get(i) {
                                    Some(e) => verdicts.append_explained(collected, *verdict, e)?,
                                    None => verdicts.append(collected, *verdict)?,
                                }
                            }
                            verdicts.flush()?;
                            if config.slo.is_some() {
                                // The verdicts are durable — the
                                // ingest→verdict clock stops here.
                                let now = crate::slo::tick_now_ns();
                                let taken = std::mem::take(&mut ingest_ticks);
                                let latencies: Vec<f64> = batch
                                    .iter()
                                    .filter_map(|c| taken.get(&c.tweet.id))
                                    .map(|&tick| now.saturating_sub(tick) as f64 / 1e6)
                                    .collect();
                                crate::slo::record_hour(hour, &latencies);
                                // Re-evaluate now that this hour's
                                // quantiles exist; transitions are
                                // edge-triggered, so the earlier
                                // in-monitor evaluation cannot have
                                // consumed them.
                                for event in ph_telemetry::alert_evaluate(hour) {
                                    match event {
                                        TelemetryEvent::SloBreach {
                                            rule, value, limit, ..
                                        } => crate::health::degrade(
                                            &rule,
                                            &format!("{value:.1} ms > {limit:.1} ms limit"),
                                        ),
                                        TelemetryEvent::SloRecovered { rule, .. } => {
                                            crate::health::clear(&rule);
                                        }
                                        _ => {}
                                    }
                                }
                            }
                            hour_hb.bump();
                            ph_telemetry::counter("serve.verdicts").add(batch.len() as u64);
                            ph_telemetry::gauge("serve.hours_done")
                                .set(monitor.state().next_hour as f64);
                            ph_telemetry::progress_update(&format!(
                                "serve: hour {}/{} done",
                                monitor.state().next_hour,
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
            // forced checkpoint is what lets a between-intervals stop
            // resume from the last *completed* hour. A cursor the store's
            // own cadence already checkpointed (or this session resumed
            // from) gets no duplicate, so a drained and resumed store's
            // checkpoint log equals an uninterrupted run's.
            if !buffered.is_empty() {
                log_info!(
                    "serve: discarding {} tweets of the unfinished hour (re-sent on resume)",
                    buffered.len()
                );
                buffered.clear();
            }
            let next_hour = monitor.state().next_hour;
            let checkpointed = if next_hour == session_start_hour {
                config.resume
            } else {
                next_hour.is_multiple_of(config.store.checkpoint_interval_hours.max(1))
            };
            if !checkpointed {
                writer.checkpoint_now(monitor.state(), monitor.segment())?;
            }
        }
    }
    replica.join()?;
    monitor.finish(manifest.buffer_capacity as usize);
    if let Some(dog) = watchdog.as_mut() {
        dog.shutdown();
    }
    listener.shutdown();
    drop(http);
    store.sync()?;

    // The durable observability record, shaped exactly like a batch
    // run's so `inspect` renders serve stores unchanged.
    if config.explain {
        // Before the journal snapshot: finalizing the open drift window
        // may raise its last alarms.
        ph_core::observe::drift_finalize();
    }
    let journal = ph_telemetry::journal_snapshot();
    let points = ph_telemetry::run_series_points(monitor.state().next_hour.saturating_sub(1));
    store.write_telemetry(&journal, &points)?;
    if config.explain {
        ph_store::write_explain(&config.dir, &ph_core::observe::explanations())?;
        let (drift_hours, drift_alarms) = ph_core::observe::drift_results();
        ph_store::write_drift(&config.dir, &drift_hours, &drift_alarms)?;
    }

    let outcome = ServeOutcome {
        hours_done: monitor.state().next_hour,
        total_hours: manifest.hours,
        records: store.record_count(),
        verdicts: verdicts.next_seq(),
        shed: queue.shed_count(),
        stopped_early: stopped_early && !monitor.complete(),
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

    fn empty_plan() -> ReplicaHour {
        ReplicaHour {
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
                let plan = ReplicaHour {
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
        let err = replica.next().err().expect("no fourth plan");
        assert!(err.to_string().contains("stopped before"), "{err}");
        replica.join().unwrap();
    }

    #[test]
    fn a_replica_error_comes_back_from_next() {
        let mut replica = Replica::start(|_| Err(io::Error::other("tap closed"))).unwrap();
        let err = replica.next().err().expect("the replica failed");
        assert_eq!(err.to_string(), "tap closed");
    }

    #[test]
    fn a_replica_panic_comes_back_as_an_io_error() {
        let mut replica = Replica::start(|_| panic!("selection blew up")).unwrap();
        let err = replica.next().err().expect("the replica panicked");
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
