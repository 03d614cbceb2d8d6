//! The serve workloads: the daemon measured from outside over its own
//! socket, and its hour step replayed in-process for the layer ledger.
//!
//! # The socket session (end-to-end)
//!
//! `ph_serve::run` runs on its own thread exactly as `serve` starts it.
//! One generator (this thread) feeds it over one Unix-socket connection
//! from wire bytes encoded during set-up; one tailer thread polls
//! `verdicts.ndjson` every millisecond and stamps the instant each hour's
//! last verdict line became visible. `serve_paced` is an open loop —
//! frame *n* is due at `start + n / rate` whatever the daemon does —
//! and times each hour from the instant its `HourBoundary` frame was
//! due; `serve_flood` writes everything unpaced and times each hour from
//! the later of its boundary leaving and the previous hour closing,
//! which under a standing backlog is the daemon's own service time.
//!
//! # The replay (per-layer)
//!
//! The traced run repeats the daemon's hour step without sockets —
//! decode → queue → `begin_hour` → sidecar re-stamp → `finish_hour` into
//! the timed store sink → `classify_hour` → verdict append and flush —
//! from the same public functions `daemon.rs` calls, a span around each,
//! every span of an hour tagged with that hour.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{Read, Write as _};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ph_core::detector::StreamClassifier;
use ph_core::features::{FeatureExtractor, DEFAULT_TAU};
use ph_core::monitor::{MemorySink, MonitorReport, RunState, Runner, StreamMonitor};
use ph_core::selection::select_network;
use ph_exec::ExecConfig;
use ph_serve::daemon::ENDPOINTS_FILE;
use ph_serve::verdict::VerdictWriter;
use ph_serve::{BindAddr, IngestQueue, ServeConfig, ServeOutcome};
use ph_store::{Store, StoreConfig};
use ph_twitter_sim::engine::Engine;
use ph_twitter_sim::tweet::{Tweet, TweetId};
use ph_twitter_sim::wire::{read_stream_frame, write_stream_frame, StreamFrame};

use crate::batch::{classify_probes, ledgers_of, monitor, train, Ctx, Mode, TimedSink};
use crate::report::{Ledger, Measured, RunResult};
use crate::span::{call, probe, Tracer};
use crate::stats::{median, tail_percentile};
use crate::verdicts::{Reference, TailParser, VerdictLine, Verdicts};
use crate::workload::Plan;

/// Daemon starts timed per run for `setup_s` (the last one is the
/// measured session's own).
const SETUP_REPEATS: usize = 3;

/// How often the tailer looks at the verdict file, and the paced
/// generator at its schedule.
const POLL: Duration = Duration::from_millis(1);

/// Twice the listener's accept poll interval.
const ACCEPT_GRACE: Duration = Duration::from_millis(50);

/// A paced run whose generator ran later than this (p90) measured the
/// generator, not the daemon.
const MAX_SEND_LAG_MS: f64 = 5.0;

/// Frames in the queue the shed-path probe pushes into.
const SHED_PROBE_CAPACITY: usize = 4_096;

/// How long the session waits for the daemon to come up or to finish
/// before giving the run up as failed.
const DAEMON_TIMEOUT: Duration = Duration::from_secs(120);

/// Hours of the stream one replay pass covers: enough for every layer's
/// per-hour cost to show, few enough that an untraced and a traced pass
/// fit in a run beside the socket session.
const REPLAY_HOURS: u64 = 40;

/// The generated inputs of a serve run, and the reference they imply.
struct Inputs {
    /// Every frame of the run, wire-encoded: per hour its tweets then its
    /// `HourBoundary`, and a final `Shutdown`.
    wire: Vec<u8>,
    /// End offset in `wire` of every frame.
    frame_ends: Vec<usize>,
    /// Index in `frame_ends` of each hour's boundary frame.
    boundaries: Vec<usize>,
    reference: Reference,
    counts: Ledger,
}

/// Generates the wire stream and, from the same engine pass, the batch
/// reference: the sequential composition of ground truth → train →
/// monitor → `classify_batch` the daemon's verdicts must equal (its
/// restart-equivalence contract).
fn generate(plan: &Plan) -> Inputs {
    let off = Tracer::new(false);
    let mut ctx = Ctx::new(ExecConfig::sequential(), &off);
    let mut counts = Ledger::new();
    let mut engine = Engine::new(plan.sim_config());
    let runner = Runner::with_exec(plan.runner_config(), ctx.exec.clone());
    let gt = runner.run(&mut engine, plan.gt_hours);
    let detector = train(&mut ctx, &gt.collected, &engine, &mut Ledger::new());

    let streaming = engine.streaming();
    let tap = streaming.firehose_with_capacity(plan.manifest().buffer_capacity as usize);
    let mut state = RunState::default();
    let mut collected = Vec::new();
    let mut per_hour = Vec::new();
    let (mut wire, mut frame_ends, mut boundaries) = (Vec::new(), Vec::new(), Vec::new());
    let mut encode = Duration::ZERO;
    for hour in 0..plan.hours {
        let report = runner
            .run_segment(
                &mut engine,
                &mut state,
                plan.hours,
                1,
                runner.standard_networks(),
                &mut MemorySink,
            )
            .expect("in-memory monitoring cannot fail");
        per_hour.push(report.collected.len() as u64);
        collected.extend(report.collected);
        let tweets = streaming.poll(tap).expect("firehose tap is open");
        let start = Instant::now();
        for tweet in tweets {
            write_stream_frame(&mut wire, &StreamFrame::Tweet(tweet)).expect("encode to memory");
            frame_ends.push(wire.len());
        }
        write_stream_frame(&mut wire, &StreamFrame::HourBoundary { hour })
            .expect("encode to memory");
        encode += start.elapsed();
        boundaries.push(frame_ends.len());
        frame_ends.push(wire.len());
    }
    streaming.close(tap);
    write_stream_frame(&mut wire, &StreamFrame::Shutdown).expect("encode to memory");
    frame_ends.push(wire.len());

    let outcome = detector.classify_batch(&collected, &engine, &ctx.exec);
    let mut reference = Reference {
        per_hour,
        ..Default::default()
    };
    for (c, &spam) in collected.iter().zip(&outcome.predictions) {
        reference.verdicts.push(c.tweet.id.0, spam);
        reference.truth.push(c.tweet.evaluation_sidecar_spam());
    }
    counts.insert("wire.encode_s", encode.as_secs_f64());
    counts.insert("wire.bytes", wire.len() as f64);
    counts.insert("wire.frames", frame_ends.len() as f64);
    Inputs {
        wire,
        frame_ends,
        boundaries,
        reference,
        counts,
    }
}

fn serve_config(plan: &Plan, dir: &Path, stop: Arc<AtomicBool>) -> ServeConfig {
    ServeConfig {
        dir: dir.to_path_buf(),
        manifest: plan.manifest(),
        resume: false,
        store: StoreConfig::default(),
        exec: ExecConfig::with_threads(plan.threads),
        listen: BindAddr::Unix(dir.join("ingest.sock")),
        // One connection only: no HTTP listener beside the ingest socket.
        http: None,
        verdicts: None,
        loadgen: None,
        stop,
        stop_after_hours: None,
        explain: false,
        slo: None,
        watchdog_ticks: 0,
        throttle: None,
    }
}

type Daemon = std::thread::JoinHandle<std::io::Result<ServeOutcome>>;

/// Starts the daemon on its own thread in a fresh `dir` and waits until
/// it has written `ENDPOINTS`: ground truth, labeling and training done,
/// socket bound. Returns the handle and the seconds that took — the
/// set-up every start and every `--resume` repeats.
fn start_daemon(plan: &Plan, dir: &Path, stop: Arc<AtomicBool>) -> (Daemon, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let config = serve_config(plan, dir, stop);
    let endpoints = dir.join(ENDPOINTS_FILE);
    let start = Instant::now();
    let daemon = std::thread::spawn(move || ph_serve::run(config));
    while !endpoints.exists() {
        assert!(
            !daemon.is_finished() && start.elapsed() < DAEMON_TIMEOUT,
            "the daemon ended or hung before it was accepting"
        );
        std::thread::sleep(POLL);
    }
    (daemon, start.elapsed().as_secs_f64())
}

/// What the tailer saw.
struct Tail {
    lines: Vec<VerdictLine>,
    malformed: u64,
    /// When each hour's last verdict line became visible.
    visible: Vec<Option<Instant>>,
    /// Most hour markers ever outstanding: sent but not yet verdicted.
    backlog_hours_max: u64,
}

/// Polls the verdict file until told the daemon is done, stamping hour
/// closes against the reference's per-hour verdict counts.
fn tail(path: &Path, per_hour: &[u64], sent_hours: &AtomicU64, done: &AtomicBool) -> Tail {
    let mut file = std::fs::File::open(path).expect("the daemon created its verdict file");
    let mut parser = TailParser::default();
    let mut tail = Tail {
        lines: Vec::new(),
        malformed: 0,
        visible: vec![None; per_hour.len()],
        backlog_hours_max: 0,
    };
    let mut closed = 0usize;
    let mut due_lines = per_hour.first().copied().unwrap_or(0);
    let mut buf = vec![0u8; 1 << 16];
    loop {
        // Read the flag before the file: a final pass after `done` sees
        // everything the daemon wrote before it returned.
        let last_pass = done.load(Ordering::SeqCst);
        loop {
            let n = file.read(&mut buf).expect("verdict file read failed");
            if n == 0 {
                break;
            }
            parser.feed(&buf[..n], &mut tail.lines);
        }
        let now = Instant::now();
        while closed < per_hour.len() && tail.lines.len() as u64 >= due_lines {
            tail.visible[closed] = Some(now);
            closed += 1;
            due_lines += per_hour.get(closed).copied().unwrap_or(0);
        }
        let backlog = sent_hours
            .load(Ordering::SeqCst)
            .saturating_sub(closed as u64);
        tail.backlog_hours_max = tail.backlog_hours_max.max(backlog);
        if last_pass {
            tail.malformed = parser.malformed + u64::from(parser.pending() > 0);
            return tail;
        }
        std::thread::sleep(POLL);
    }
}

/// What the generator did.
struct Sent {
    first_byte: Instant,
    /// Per hour: when its boundary frame was due (paced) or had left
    /// (flood).
    hour_marks: Vec<Instant>,
    /// How late each paced write left versus its first frame's due time.
    lag_ms: Vec<f64>,
    seconds: f64,
}

/// Feeds the whole wire stream down `conn`: on schedule when `rate` is
/// set, else as fast as the socket takes it.
fn feed(conn: &mut UnixStream, inputs: &Inputs, rate: Option<f64>, sent_hours: &AtomicU64) -> Sent {
    let frames = inputs.frame_ends.len();
    let start = Instant::now();
    let mut hour_marks = Vec::with_capacity(inputs.boundaries.len());
    let mut lag_ms = Vec::new();
    let write = |conn: &mut UnixStream, from: usize, to: usize| {
        let begin = if from == 0 {
            0
        } else {
            inputs.frame_ends[from - 1]
        };
        conn.write_all(&inputs.wire[begin..inputs.frame_ends[to - 1]])
            .expect("the daemon closed the ingest socket");
    };
    match rate {
        Some(rate) => {
            let due = |frame: usize| start + Duration::from_secs_f64(frame as f64 / rate);
            hour_marks.extend(inputs.boundaries.iter().map(|&frame| due(frame)));
            let mut sent = 0;
            let mut hours = 0;
            while sent < frames {
                let now = Instant::now();
                let due_now = (((now - start).as_secs_f64() * rate) as usize + 1).min(frames);
                if due_now > sent {
                    lag_ms.push((now - due(sent)).as_secs_f64() * 1e3);
                    write(conn, sent, due_now);
                    sent = due_now;
                    while hours < inputs.boundaries.len() && inputs.boundaries[hours] < sent {
                        hours += 1;
                    }
                    sent_hours.store(hours as u64, Ordering::SeqCst);
                }
                std::thread::sleep(POLL);
            }
        }
        None => {
            let mut sent = 0;
            for (hour, &boundary) in inputs.boundaries.iter().enumerate() {
                write(conn, sent, boundary + 1);
                sent = boundary + 1;
                hour_marks.push(Instant::now());
                sent_hours.store(hour as u64 + 1, Ordering::SeqCst);
            }
            write(conn, sent, frames);
        }
    }
    Sent {
        first_byte: start,
        hour_marks,
        lag_ms,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// One measured socket session.
struct Session {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    hour_close_ms: Vec<f64>,
    verdicts: Verdicts,
    /// Tweets shed by the ingest queue plus verdict lines that did not
    /// parse.
    lost: u64,
    counts: Ledger,
    problems: Vec<String>,
}

fn session(plan: &Plan, inputs: &Inputs, rate: Option<f64>, dir: &Path) -> Session {
    let (daemon, setup_s) = start_daemon(plan, dir, Arc::new(AtomicBool::new(false)));
    let mut conn =
        UnixStream::connect(dir.join("ingest.sock")).expect("ingest socket connect failed");
    // The listener polls for new connections; let it pick this one up
    // before the first frame is due, or the first hour would be timing
    // the accept loop.
    std::thread::sleep(ACCEPT_GRACE);
    let sent_hours = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let verdict_path = dir.join("verdicts.ndjson");

    let cpu_before = crate::sys::cpu_seconds();
    let (sent, outcome, tail) = std::thread::scope(|scope| {
        let tailer = scope.spawn(|| {
            tail(
                &verdict_path,
                &inputs.reference.per_hour,
                &sent_hours,
                &done,
            )
        });
        let sent = feed(&mut conn, inputs, rate, &sent_hours);
        let waited = Instant::now();
        while !daemon.is_finished() && waited.elapsed() < DAEMON_TIMEOUT {
            std::thread::sleep(POLL);
        }
        assert!(
            daemon.is_finished(),
            "the daemon hung with the whole stream delivered"
        );
        let outcome = daemon.join().expect("the daemon panicked");
        done.store(true, Ordering::SeqCst);
        (sent, outcome, tailer.join().expect("the tailer panicked"))
    });
    let cpu_s = crate::sys::cpu_seconds() - cpu_before;
    drop(conn);

    let mut problems = Vec::new();
    let mut lost = tail.malformed;
    match outcome {
        Ok(outcome) => {
            lost += outcome.shed;
            if outcome.shed > 0 || outcome.stopped_early {
                problems.push(format!(
                    "the daemon shed {} tweets and closed {} of {} hours",
                    outcome.shed, outcome.hours_done, outcome.total_hours
                ));
            }
        }
        Err(e) => problems.push(format!("the daemon failed: {e}")),
    }

    let mut hour_close_ms = Vec::new();
    let mut previous = sent.first_byte;
    for (mark, visible) in sent.hour_marks.iter().zip(&tail.visible) {
        let Some(visible) = *visible else { continue };
        // Paced: from the boundary's due time. Flood: from the later of
        // the boundary leaving and the previous hour closing.
        let from = if rate.is_some() {
            *mark
        } else {
            (*mark).max(previous)
        };
        hour_close_ms.push(visible.saturating_duration_since(from).as_secs_f64() * 1e3);
        previous = visible;
    }
    let last_visible = tail.visible.iter().rev().find_map(|v| *v);
    let wall_s = last_visible.map_or(sent.seconds, |v| (v - sent.first_byte).as_secs_f64());

    let lag_p90 = tail_percentile(&sent.lag_ms).1;
    if rate.is_some() && lag_p90 > MAX_SEND_LAG_MS {
        problems.push(format!(
            "invalid run: the generator ran {lag_p90:.1} ms late (p90), over the {MAX_SEND_LAG_MS} ms limit"
        ));
    }
    if rate.is_some() && tail.backlog_hours_max > 1 {
        problems.push(format!(
            "a backlog of {} hours built up at a quarter of capacity",
            tail.backlog_hours_max
        ));
    }
    let mut verdicts = Verdicts::default();
    for (position, line) in tail.lines.iter().enumerate() {
        // A line out of sequence is a verdict the stream lost track of.
        lost += u64::from(line.seq != position as u64);
        verdicts.push(line.tweet, line.spam);
    }
    let mut counts = Ledger::new();
    counts.insert("serve.backlog_hours_max", tail.backlog_hours_max as f64);
    counts.insert("loadgen.sent", inputs.frame_ends.len() as f64);
    counts.insert(
        "loadgen.rate",
        inputs.frame_ends.len() as f64 / sent.seconds,
    );
    counts.insert("loadgen.send_lag_ms_p90", lag_p90);
    Session {
        setup_s,
        wall_s,
        cpu_s,
        hour_close_ms,
        verdicts,
        lost,
        counts,
        problems,
    }
}

/// Decodes one hour's frames off the wire, up to and including its
/// boundary.
fn decode_hour(reader: &mut &[u8]) -> Vec<StreamFrame> {
    let mut frames = Vec::new();
    while let Some(frame) = read_stream_frame(reader).expect("wire decode failed") {
        let boundary = matches!(frame, StreamFrame::HourBoundary { .. });
        frames.push(frame);
        if boundary {
            break;
        }
    }
    frames
}

/// Time of one push into a full queue, ns: the shed path searches for
/// and removes the oldest tweet before it appends.
fn shed_push_ns(inputs: &Inputs) -> f64 {
    let queue = IngestQueue::new(SHED_PROBE_CAPACITY);
    let mut reader = inputs.wire.as_slice();
    let mut fill: Vec<StreamFrame> =
        std::iter::from_fn(|| read_stream_frame(&mut reader).ok().flatten())
            .filter(|f| matches!(f, StreamFrame::Tweet(_)))
            .take(2 * SHED_PROBE_CAPACITY)
            .collect();
    let pushes = fill.split_off(fill.len() / 2);
    for frame in fill {
        queue.push(frame);
    }
    let n = pushes.len().max(1);
    let start = Instant::now();
    for frame in pushes {
        queue.push(frame);
    }
    let ns = start.elapsed().as_nanos() as f64 / n as f64;
    black_box(queue.shed_count());
    ns
}

/// What one replay pass produced.
struct Replay {
    verdicts: Verdicts,
    counts: Ledger,
    /// Wall seconds of the hour loop (training excluded, as set-up is
    /// from the session's wall).
    wall_s: f64,
}

/// Replays the daemon's session in-process: the training it does before
/// it accepts, then its hour step over the first `hours` hours of the
/// wire stream.
fn replay(ctx: &mut Ctx<'_>, plan: &Plan, inputs: &Inputs, hours: u64, dir: &Path) -> Replay {
    let _ = std::fs::remove_dir_all(dir);
    let tr = ctx.tr;
    let mut counts = Ledger::new();
    let manifest = plan.manifest();
    let capacity = manifest.buffer_capacity as usize;
    let runner = Runner::with_exec(plan.runner_config(), ctx.exec.clone());

    let build_start = Instant::now();
    let mut engine = Engine::new(plan.sim_config());
    counts.insert("sim.build_s", build_start.elapsed().as_secs_f64());
    if tr.enabled() {
        ctx.twin = Some(Engine::new(plan.sim_config()));
    }
    let train_start = Instant::now();
    let mut gt_sink = TimedSink::new(MemorySink, tr, None, 0);
    let mut state = RunState::default();
    let gt = monitor(
        ctx,
        &runner,
        &mut engine,
        &mut state,
        plan.gt_hours,
        plan.gt_hours,
        &mut gt_sink,
    );
    let detector = train(ctx, &gt.collected, &engine, &mut counts);
    counts.insert("serve.train_s", train_start.elapsed().as_secs_f64());

    let mut classifier = StreamClassifier::new(detector);
    let mut probe_extractor = FeatureExtractor::with_tau(DEFAULT_TAU);
    let mut store =
        Store::create(dir, manifest, StoreConfig::default()).expect("store create failed");
    let mut verdict_file =
        VerdictWriter::create(&dir.join("verdicts.ndjson")).expect("verdict file create failed");
    let streaming = engine.streaming();
    let tap = streaming.firehose_with_capacity(capacity);
    let queue = IngestQueue::new(capacity);
    let mut monitor = StreamMonitor::new(runner.clone(), hours);
    let mut verdicts = Verdicts::default();
    let mut reader = inputs.wire.as_slice();
    let mut collected_total = 0usize;
    let wall_s;
    {
        let writer = store.writer(&MonitorReport::default());
        let mut sink = TimedSink::new(writer, tr, Some("store.sink"), plan.gt_hours);
        let start = Instant::now();
        tr.run(call("pass"), || {
            for hour in 0..hours {
                let at = |name| call(name).hour(plan.gt_hours + hour);
                let frames = tr.run(at("wire.decode"), || decode_hour(&mut reader)).0;
                let mut delivered: Vec<Tweet> = tr
                    .run(at("serve.queue"), || {
                        for frame in frames {
                            queue.push(frame);
                        }
                        std::iter::from_fn(|| queue.pop_timeout(Duration::ZERO))
                            .filter_map(|(frame, _)| match frame {
                                StreamFrame::Tweet(tweet) => Some(tweet),
                                _ => None,
                            })
                            .collect()
                    })
                    .0;

                let round = monitor.state().round;
                let (_, begin) =
                    tr.run(at("monitor.begin_hour"), || monitor.begin_hour(&mut engine));
                if let Some(twin) = ctx.twin.as_mut() {
                    let config = runner.config();
                    let seed = config.seed.wrapping_add(round);
                    let of = |name| probe(name, Some(begin)).hour(plan.gt_hours + hour);
                    tr.run(of("monitor.select"), || {
                        black_box(select_network(twin, &config.slots, &config.selector, seed));
                    });
                    tr.run(of("sim.step_hour"), || twin.step_hour());
                }

                tr.run(at("serve.restamp"), || {
                    let replica = streaming.poll(tap).expect("replica tap is open");
                    let oracle = engine.ground_truth();
                    let truth: HashMap<TweetId, bool> =
                        replica.iter().map(|t| (t.id, oracle.is_spam(t))).collect();
                    for tweet in &mut delivered {
                        let spam = truth.get(&tweet.id).copied().unwrap_or(false);
                        tweet.set_evaluation_sidecar_spam(spam);
                    }
                });

                sink.start(hour);
                let batch = tr
                    .run(at("monitor.finish_hour"), || {
                        monitor.finish_hour(delivered, 0, &mut sink)
                    })
                    .0
                    .expect("finish_hour failed");
                let (hour_verdicts, classify) = tr.run(at("detector.classify_hour"), || {
                    classifier.classify_hour(&batch, &engine, &ctx.exec)
                });
                if tr.enabled() {
                    let spam: Vec<bool> = hour_verdicts.iter().map(|v| v.spam).collect();
                    classify_probes(
                        ctx,
                        &mut probe_extractor,
                        &batch,
                        &spam,
                        &engine,
                        classify,
                        Some(plan.gt_hours + hour),
                    );
                }
                tr.run(at("serve.verdict_write"), || {
                    for (collected, verdict) in batch.iter().zip(&hour_verdicts) {
                        verdict_file
                            .append(collected, *verdict)
                            .expect("verdict append failed");
                    }
                    verdict_file.flush().expect("verdict flush failed");
                });
                for (collected, verdict) in batch.iter().zip(&hour_verdicts) {
                    verdicts.push(collected.tweet.id.0, verdict.spam);
                }
                collected_total += batch.len();
            }
        });
        wall_s = start.elapsed().as_secs_f64();
    }
    streaming.close(tap);
    tr.run(call("store.sync"), || store.sync())
        .0
        .expect("store sync failed");

    counts.insert("sim.tweets_posted", engine.stats().tweets as f64);
    counts.insert(
        "monitor.collected",
        (gt.collected.len() + collected_total) as f64,
    );
    counts.insert("monitor.dropped", gt.dropped as f64);
    counts.insert("features.rows", collected_total as f64);
    counts.insert("ml.predict_rows", collected_total as f64);
    counts.insert("store.records", store.record_count() as f64);
    counts.insert("store.checkpoints", hours as f64);
    let verdict_bytes = std::fs::metadata(dir.join("verdicts.ndjson")).map_or(0, |m| m.len());
    counts.insert("serve.verdict_bytes", verdict_bytes as f64);
    counts.insert(
        "store.bytes",
        (crate::sys::dir_bytes(dir) - verdict_bytes) as f64,
    );
    Replay {
        verdicts,
        counts,
        wall_s,
    }
}

/// The first `hours` hours of the reference.
fn reference_prefix(reference: &Reference, hours: u64) -> Reference {
    let per_hour = reference.per_hour[..hours as usize].to_vec();
    let n = per_hour.iter().sum::<u64>() as usize;
    Reference {
        verdicts: Verdicts {
            tweets: reference.verdicts.tweets[..n].to_vec(),
            spam: reference.verdicts.spam[..n].to_vec(),
        },
        truth: reference.truth[..n].to_vec(),
        per_hour,
    }
}

/// Runs a serve workload. Untraced: the set-up repeats, then one socket
/// session, which is the measurement. Traced: the same session (for what
/// only shows from outside: generator lag and backlog), then replay
/// passes, untraced and traced in turn, for the ledger.
pub fn run(plan: &Plan, seconds: u64, mode: Mode, scratch: &Path) -> RunResult {
    let trace = mode == Mode::Traced;
    let inputs = generate(plan);
    let reference = &inputs.reference;
    let mut measured = Measured::default();
    let mut problems = Vec::new();

    ph_telemetry::reset();
    let repeats = if mode == Mode::Timed {
        SETUP_REPEATS
    } else {
        1
    };
    for i in 1..repeats {
        let stop = Arc::new(AtomicBool::new(true));
        let (daemon, setup_s) = start_daemon(plan, &scratch.join(format!("setup-{i}")), stop);
        measured.setup_s.push(setup_s);
        if let Err(e) = daemon.join().expect("the daemon panicked") {
            problems.push(format!("a set-up-only daemon start failed: {e}"));
        }
        ph_telemetry::reset();
    }
    let measuring = Instant::now();
    // The verdicts do not depend on pacing, so `check` skips it.
    let rate = plan.rate.filter(|_| mode != Mode::Check);
    let mut session = session(plan, &inputs, rate, &scratch.join("session"));
    measured.setup_s.push(session.setup_s);
    measured.wall_s.push(session.wall_s);
    measured.cpu_s.push(session.cpu_s);
    measured.hour_close_ms = std::mem::take(&mut session.hour_close_ms);
    measured.hours_attempted = plan.hours;
    measured.verdicts_per_pass = reference.verdicts.len() as u64;
    problems.append(&mut session.problems);
    measured.hold_to(
        reference,
        &session.verdicts,
        session.lost,
        "the batch reference (the daemon's stream)",
        &mut problems,
    );

    let mut ledgers = Vec::new();
    let mut spans = Vec::new();
    if trace {
        let hours = plan.hours.min(REPLAY_HOURS);
        let prefix = reference_prefix(reference, hours);
        let shed_push_ns = shed_push_ns(&inputs);
        let exec = ExecConfig::with_threads(plan.threads);
        let (off, on) = (Tracer::new(false), Tracer::new(true));
        let mut traced = Ctx::new(exec.clone(), &on);
        let mut untraced_walls = Vec::new();
        let dir = scratch.join("replay");
        while ledgers.is_empty() || measuring.elapsed().as_secs() < seconds {
            ph_telemetry::reset();
            let plain = replay(
                &mut Ctx::new(exec.clone(), &off),
                plan,
                &inputs,
                hours,
                &dir,
            );
            untraced_walls.push(plain.wall_s);
            ph_telemetry::reset();
            let out = replay(&mut traced, plan, &inputs, hours, &dir);
            measured.hold_to(
                &prefix,
                &out.verdicts,
                0,
                "the batch reference (the replayed hour step)",
                &mut problems,
            );
            let mut counts = out.counts;
            counts.extend(&inputs.counts);
            counts.extend(&session.counts);
            counts.insert("serve.queue_shed_push_ns", shed_push_ns);
            // The traced pass's own training ran the forest probes too.
            counts.insert("serve.train_s", plain.counts["serve.train_s"]);
            ledgers.push(counts);
            spans.push(on.take());
        }
        ledgers = ledgers_of(&spans, ledgers, median(&untraced_walls));
    }

    RunResult::new(
        measured,
        trace.then_some(ledgers),
        spans,
        problems,
        reference,
    )
}
