//! The batch workloads, composed from the layers' public functions.
//!
//! One composition serves both runs: with a disabled tracer it is the
//! end-to-end measurement, with an enabled one every call into a layer
//! is a span and the inner functions a call reaches only through another
//! layer are timed as probes on the same inputs (see [`crate::span`]).

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use ph_core::detector::{build_training_data_with, DetectorConfig, SpamDetector};
use ph_core::features::{pure_batch_matrix, FeatureExtractor, DEFAULT_TAU};
use ph_core::labeling::pipeline::{label_collection_with, PipelineConfig};
use ph_core::labeling::{clustering, manual, rules, suspended, LabeledCollection};
use ph_core::monitor::{CollectedTweet, MemorySink, MonitorReport, MonitorSink, RunState, Runner};
use ph_core::selection::select_network;
use ph_exec::ExecConfig;
use ph_ml::data::Dataset;
use ph_ml::flat::FlatForest;
use ph_ml::forest::RandomForest;
use ph_store::{Store, StoreConfig, SyncPolicy};
use ph_twitter_sim::engine::Engine;

use crate::report::{Ledger, Measured, RunResult, PER_LAYER};
use crate::span::{call, layer_totals, probe, Span, SpanId, Tracer};
use crate::stats::median;
use crate::verdicts::{Reference, Verdicts};
use crate::workload::{Plan, Workload};

/// Fewest measured passes a run reports a median over, however short
/// `--seconds` is.
const MIN_PASSES: usize = 3;

/// What a run is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`: measure for `--seconds`, report the end-to-end metrics.
    Timed,
    /// `--trace 1`: measure for `--seconds` with spans on, report the
    /// per-layer ledger.
    Traced,
    /// `check`: verify the outputs once, untimed.
    Check,
}

/// What a pass needs besides its inputs.
pub struct Ctx<'a> {
    pub exec: ExecConfig,
    pub tr: &'a Tracer,
    /// A monitor-less engine kept in the same hour as the real one, for
    /// the probes of what `Runner::run_segment` does inside one call
    /// (present on traced passes only).
    pub twin: Option<Engine>,
    /// A forest identical to the detector's, which keeps its own private:
    /// the `ml.flatten` and `ml.predict` probes need one. Fitted on the
    /// first traced pass and kept — every pass trains on the same data —
    /// and flattened anew each pass.
    forest: Option<RandomForest>,
    flat: Option<FlatForest>,
}

impl<'a> Ctx<'a> {
    pub fn new(exec: ExecConfig, tr: &'a Tracer) -> Self {
        Self {
            exec,
            tr,
            twin: None,
            forest: None,
            flat: None,
        }
    }
}

/// A [`MonitorSink`] decorator that stamps every hour close (for the
/// hour-close metrics) and, on a traced pass, wraps the inner sink's
/// batch and hour calls in `store.sink` spans.
pub struct TimedSink<'a, S> {
    pub inner: S,
    tr: &'a Tracer,
    /// Span name for the inner sink's calls; `None` for the in-memory
    /// sink, which does nothing worth a span.
    span: Option<&'static str>,
    /// Absolute engine hour of the run-relative hour 0.
    base_hour: u64,
    hour: u64,
    last: Instant,
    pub close_ms: Vec<f64>,
}

impl<'a, S: MonitorSink> TimedSink<'a, S> {
    pub fn new(inner: S, tr: &'a Tracer, span: Option<&'static str>, base_hour: u64) -> Self {
        Self {
            inner,
            tr,
            span,
            base_hour,
            hour: 0,
            last: Instant::now(),
            close_ms: Vec::new(),
        }
    }

    /// Starts the clock of the next hour to close; call right before
    /// handing the sink to the monitor.
    pub fn start(&mut self, next_hour: u64) {
        self.hour = next_hour;
        self.last = Instant::now();
    }
}

impl<S: MonitorSink> TimedSink<'_, S> {
    /// Calls into the inner sink, inside a span when it has one.
    fn inner_call<R>(&mut self, f: impl FnOnce(&mut S) -> R) -> R {
        let inner = &mut self.inner;
        match self.span {
            Some(name) => {
                let spec = call(name).hour(self.base_hour + self.hour);
                self.tr.run(spec, || f(inner)).0
            }
            None => f(inner),
        }
    }
}

impl<S: MonitorSink> MonitorSink for TimedSink<'_, S> {
    fn on_tweet(&mut self, collected: &CollectedTweet) -> std::io::Result<()> {
        self.inner.on_tweet(collected)
    }

    fn on_batch(&mut self, batch: &[CollectedTweet]) -> std::io::Result<()> {
        self.inner_call(|inner| inner.on_batch(batch))
    }

    fn on_hour(&mut self, state: &RunState, segment: &MonitorReport) -> std::io::Result<()> {
        let result = self.inner_call(|inner| inner.on_hour(state, segment));
        let now = Instant::now();
        self.close_ms.push((now - self.last).as_secs_f64() * 1e3);
        self.last = now;
        self.hour = state.next_hour;
        result
    }

    fn retain_in_memory(&self) -> bool {
        self.inner.retain_in_memory()
    }
}

/// `Runner::run_segment` inside a `monitor.run` span, followed on a
/// traced pass by the probes of the two layers it calls per hour: network
/// selection and the simulator step, re-run on the twin engine.
pub fn monitor<S: MonitorSink>(
    ctx: &mut Ctx<'_>,
    runner: &Runner,
    engine: &mut Engine,
    state: &mut RunState,
    total_hours: u64,
    segment_hours: u64,
    sink: &mut TimedSink<'_, S>,
) -> MonitorReport {
    let first = state.clone();
    let tr = ctx.tr;
    sink.start(state.next_hour);
    let (report, outer) = tr.run(call("monitor.run").cpu(), || {
        runner
            .run_segment(
                engine,
                state,
                total_hours,
                segment_hours,
                runner.standard_networks(),
                sink,
            )
            .expect("monitoring sink failed")
    });
    if let Some(twin) = ctx.twin.as_mut() {
        let config = runner.config();
        for i in 0..state.next_hour - first.next_hour {
            let hour = twin.now().whole_hours();
            let seed = config.seed.wrapping_add(first.round + i);
            tr.run(probe("monitor.select", Some(outer)).hour(hour), || {
                black_box(select_network(twin, &config.slots, &config.selector, seed));
            });
            tr.run(probe("sim.step_hour", Some(outer)).hour(hour), || {
                twin.step_hour()
            });
        }
    }
    report
}

/// The four labeling passes. Untraced this is `label_collection_with`;
/// traced, the same four public `apply` functions it calls, in its
/// order, each in a span (the verdict digest holds the two equal).
fn label(ctx: &Ctx<'_>, collected: &[CollectedTweet], engine: &Engine) -> LabeledCollection {
    let config = PipelineConfig::default();
    if !ctx.tr.enabled() {
        return label_collection_with(collected, engine, &config, &ctx.exec).labels;
    }
    let mut labels = LabeledCollection {
        tweet_labels: vec![None; collected.len()],
        ..Default::default()
    };
    let rest = engine.rest();
    let tr = ctx.tr;
    tr.run(call("labeling.suspended"), || {
        suspended::apply(collected, &rest, &mut labels);
    });
    tr.run(call("labeling.clustering").cpu(), || {
        clustering::apply_with(collected, &rest, &config.clustering, &ctx.exec, &mut labels);
    });
    tr.run(call("labeling.rules"), || {
        rules::apply(collected, &rest, &config.rules, &mut labels);
    });
    tr.run(call("labeling.manual"), || {
        manual::apply(
            collected,
            &engine.ground_truth(),
            &config.manual,
            &mut labels,
        );
    });
    labels
}

/// Labels the ground-truth window and trains the paper's 70-tree
/// detector on it — what `sniff` and the daemon both do before
/// monitoring starts.
pub fn train(
    ctx: &mut Ctx<'_>,
    collected: &[CollectedTweet],
    engine: &Engine,
    counts: &mut Ledger,
) -> SpamDetector {
    let labels = label(ctx, collected, engine);
    let (data, _) = ctx
        .tr
        .run(call("features.train_extract"), || {
            build_training_data_with(collected, &labels, engine, DEFAULT_TAU, &ctx.exec)
        })
        .0;
    let config = DetectorConfig::default();
    let (detector, fit) = ctx
        .tr
        .run(call("ml.fit").cpu(), || SpamDetector::train(&config, &data));
    counts.insert("labeling.tweets", collected.len() as f64);
    counts.insert("labeling.spam_labeled", labels.num_spam() as f64);
    counts.insert("ml.fit_rows", data.len() as f64);
    if ctx.tr.enabled() {
        flatten_probe(ctx, &config, &data, fit, counts);
    }
    detector
}

/// `SpamDetector::train` is fit + flatten behind one call: times the
/// flatten on an identical forest and takes it off the `ml.fit` span.
fn flatten_probe(
    ctx: &mut Ctx<'_>,
    config: &DetectorConfig,
    data: &Dataset,
    fit: SpanId,
    counts: &mut Ledger,
) {
    let tr = ctx.tr;
    let forest = ctx.forest.get_or_insert_with(|| {
        tr.run(probe("harness.fit", None), || {
            RandomForest::fit(&config.forest, data, config.seed)
        })
        .0
    });
    let flat = tr
        .run(probe("ml.flatten", Some(fit)), || {
            FlatForest::from_forest(forest)
        })
        .0;
    counts.insert("ml.trees", flat.num_trees() as f64);
    counts.insert("ml.nodes", flat.num_nodes() as f64);
    ctx.flat = Some(flat);
}

/// Probes of what one classify call (`outer`) does inside: the sharded
/// pure-feature phase, the sequential finish fold (fed the verdicts the
/// real call produced, so the environment score evolves identically),
/// and the flat-forest batch predict over the completed matrix.
pub fn classify_probes(
    ctx: &Ctx<'_>,
    extractor: &mut FeatureExtractor,
    collected: &[CollectedTweet],
    spam: &[bool],
    engine: &Engine,
    outer: SpanId,
    hour: Option<u64>,
) {
    let at = |name| {
        let spec = probe(name, Some(outer));
        hour.map_or(spec, |h| spec.hour(h))
    };
    let rest = engine.rest();
    let (mut matrix, _) = ctx.tr.run(at("features.pure").cpu(), || {
        pure_batch_matrix(collected, &rest, &ctx.exec)
    });
    ctx.tr.run(at("features.finish"), || {
        for (i, (c, &spam)) in collected.iter().zip(spam).enumerate() {
            extractor.finish_into(c, matrix.row_mut(i));
            extractor.record_verdict(c.slot, spam);
        }
    });
    let flat = ctx
        .flat
        .as_ref()
        .expect("the flatten probe ran at training");
    ctx.tr.run(at("ml.predict"), || {
        black_box(flat.predict_batch(matrix.data(), matrix.rows()));
    });
}

fn classify(
    ctx: &Ctx<'_>,
    detector: &SpamDetector,
    collected: &[CollectedTweet],
    engine: &Engine,
    counts: &mut Ledger,
) -> Vec<bool> {
    let (outcome, outer) = ctx.tr.run(call("detector.classify"), || {
        detector.classify_batch(collected, engine, &ctx.exec)
    });
    counts.insert("features.rows", collected.len() as f64);
    counts.insert("ml.predict_rows", collected.len() as f64);
    if ctx.tr.enabled() {
        let mut extractor = FeatureExtractor::with_tau(DEFAULT_TAU);
        classify_probes(
            ctx,
            &mut extractor,
            collected,
            &outcome.predictions,
            engine,
            outer,
            None,
        );
    }
    outcome.predictions
}

/// What one pass of a workload produced.
#[derive(Default)]
pub struct PassOut {
    pub verdicts: Verdicts,
    /// The oracle's call per verdict (the evaluation sidecar).
    pub truth: Vec<bool>,
    /// Verdicts per monitored hour.
    pub per_hour: Vec<u64>,
    /// Tweets the monitor shed plus store records that did not read back.
    pub lost: u64,
    pub hour_close_ms: Vec<f64>,
    /// Exact counts, by per-layer metric name.
    pub counts: Ledger,
}

fn finish_pass(
    out: &mut PassOut,
    collected: &[CollectedTweet],
    spam: Vec<bool>,
    first_hour: u64,
    hours: u64,
) {
    out.per_hour = vec![0; hours as usize];
    for c in collected {
        out.truth.push(c.tweet.evaluation_sidecar_spam());
        out.verdicts.tweets.push(c.tweet.id.0);
        out.per_hour[(c.hour - first_hour) as usize] += 1;
    }
    out.verdicts.spam = spam;
}

/// `gt_train`: a long ground-truth window labeled and trained on, then a
/// short sniff classified in memory.
fn gt_train(ctx: &mut Ctx<'_>, plan: &Plan, engine: &mut Engine) -> PassOut {
    let mut out = PassOut::default();
    let runner = Runner::with_exec(plan.runner_config(), ctx.exec.clone());
    let tr = ctx.tr;

    let mut sink = TimedSink::new(MemorySink, tr, None, 0);
    let mut state = RunState::default();
    let gt = monitor(
        ctx,
        &runner,
        engine,
        &mut state,
        plan.gt_hours,
        plan.gt_hours,
        &mut sink,
    );
    let detector = train(ctx, &gt.collected, engine, &mut out.counts);

    let mut state = RunState::default();
    let sniff = monitor(
        ctx, &runner, engine, &mut state, plan.hours, plan.hours, &mut sink,
    );
    let spam = classify(ctx, &detector, &sniff.collected, engine, &mut out.counts);

    out.lost = gt.dropped + sniff.dropped;
    out.hour_close_ms = sink.close_ms;
    out.counts.insert(
        "monitor.collected",
        (gt.collected.len() + sniff.collected.len()) as f64,
    );
    out.counts.insert("monitor.dropped", out.lost as f64);
    finish_pass(&mut out, &sniff.collected, spam, plan.gt_hours, plan.hours);
    out
}

/// `sniff_durable`: a short ground-truth window, then a long sniff
/// through the durable store — appended and checkpointed hourly, stopped
/// half-way with a forced checkpoint, recovered with `open_resume`,
/// finished, read back off the log and classified.
fn sniff_durable(ctx: &mut Ctx<'_>, plan: &Plan, engine: &mut Engine, dir: &Path) -> PassOut {
    let mut out = PassOut::default();
    let runner = Runner::with_exec(plan.runner_config(), ctx.exec.clone());
    let tr = ctx.tr;

    let mut gt_sink = TimedSink::new(MemorySink, tr, None, 0);
    let mut state = RunState::default();
    let gt = monitor(
        ctx,
        &runner,
        engine,
        &mut state,
        plan.gt_hours,
        plan.gt_hours,
        &mut gt_sink,
    );
    let detector = train(ctx, &gt.collected, engine, &mut out.counts);
    out.hour_close_ms = gt_sink.close_ms;

    let config = StoreConfig {
        checkpoint_interval_hours: 1,
        sync: SyncPolicy::EveryHour,
        ..StoreConfig::default()
    };
    let half = plan.hours / 2;
    let mut state = RunState::default();
    let mut store = tr
        .run(call("store.sink"), || {
            Store::create(dir, plan.manifest(), config)
        })
        .0
        .expect("store create failed");
    let mut dropped = gt.dropped;
    {
        let writer = store.writer(&MonitorReport::default());
        let mut sink = TimedSink::new(writer, tr, Some("store.sink"), plan.gt_hours);
        let first = monitor(
            ctx, &runner, engine, &mut state, plan.hours, half, &mut sink,
        );
        tr.run(call("store.sink"), || {
            sink.inner.checkpoint_now(&state, &first)
        })
        .0
        .expect("forced checkpoint failed");
        dropped += first.dropped;
        out.hour_close_ms.append(&mut sink.close_ms);
    }
    tr.run(call("store.sync"), || store.sync())
        .0
        .expect("store sync failed");
    drop(store);

    let mut resumed = tr
        .run(call("store.recover"), || Store::open_resume(dir, config))
        .0
        .expect("store recovery failed");
    assert_eq!(resumed.state.next_hour, half, "recovery lost hours");
    out.counts.insert(
        "store.truncated_bytes",
        resumed.recovery.truncated_bytes as f64,
    );
    let mut state = resumed.state.clone();
    {
        let writer = resumed.store.writer(&resumed.report);
        let mut sink = TimedSink::new(writer, tr, Some("store.sink"), plan.gt_hours);
        let rest = monitor(
            ctx,
            &runner,
            engine,
            &mut state,
            plan.hours,
            u64::MAX,
            &mut sink,
        );
        dropped += rest.dropped;
        out.hour_close_ms.append(&mut sink.close_ms);
    }
    let mut store = resumed.store;
    tr.run(call("store.sync"), || store.sync())
        .0
        .expect("store sync failed");

    // The durable sink kept nothing in memory: the log is the collection.
    let mut unreadable = 0u64;
    let collected: Vec<CollectedTweet> = tr
        .run(call("store.read"), || {
            store
                .reader()
                .expect("store reader failed")
                .filter_map(|record| record.map_err(|_| unreadable += 1).ok())
                .collect()
        })
        .0;
    let spam = classify(ctx, &detector, &collected, engine, &mut out.counts);

    out.lost = dropped + unreadable;
    out.counts
        .insert("store.records", store.record_count() as f64);
    out.counts
        .insert("store.bytes", crate::sys::dir_bytes(dir) as f64);
    // One per monitored hour plus the forced one at the stop.
    out.counts
        .insert("store.checkpoints", (plan.hours + 1) as f64);
    out.counts.insert(
        "monitor.collected",
        (gt.collected.len() + collected.len()) as f64,
    );
    out.counts.insert("monitor.dropped", dropped as f64);
    finish_pass(&mut out, &collected, spam, plan.gt_hours, plan.hours);
    out
}

/// One pass of a batch workload on a fresh engine, inside a `pass` root
/// span. The scratch store of the previous pass is removed first, off
/// the clock.
fn pass(ctx: &mut Ctx<'_>, plan: &Plan, engine: &mut Engine, scratch: &Path) -> PassOut {
    let dir = scratch.join("store");
    if plan.workload == Workload::SniffDurable {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let tr = ctx.tr;
    let mut out = tr
        .run(call("pass"), || match plan.workload {
            Workload::GtTrain => gt_train(ctx, plan, engine),
            Workload::SniffDurable => sniff_durable(ctx, plan, engine, &dir),
            _ => unreachable!("serve workloads run in crate::serve"),
        })
        .0;
    out.counts
        .insert("sim.tweets_posted", engine.stats().tweets as f64);
    out
}

/// The per-layer ledgers of a run's traced passes, from each pass's spans
/// and exact counts.
pub fn ledgers_of(spans: &[Vec<Span>], counts: Vec<Ledger>, untraced_wall_s: f64) -> Vec<Ledger> {
    let passes = spans.len() as f64;
    spans
        .iter()
        .zip(counts)
        .map(|(spans, counts)| {
            let mut ledger = ledger_of(spans, &counts, untraced_wall_s);
            ledger.insert("trace.passes", passes);
            ledger
        })
        .collect()
}

/// Turns the spans of one traced pass into that pass's per-layer ledger.
/// `untraced_wall_s` is the median wall of the untraced passes, the base
/// of the tracing overhead.
fn ledger_of(spans: &[Span], counts: &Ledger, untraced_wall_s: f64) -> Ledger {
    let totals = layer_totals(spans);
    // A `<span>_s` metric is the self time of the spans named `<span>`,
    // a `<span>_cpu_s` metric the CPU time they recorded.
    let mut ledger = counts.clone();
    for (metric, _) in PER_LAYER {
        let (span, cpu) = match metric.strip_suffix("_cpu_s") {
            Some(span) => (span, true),
            None => (metric.strip_suffix("_s").unwrap_or(metric), false),
        };
        if let Some(total) = totals.get(span) {
            ledger.insert(metric, if cpu { total.cpu_s } else { total.self_s });
        }
    }

    // The pass's wall is its root span less the probes, which are real
    // time of the traced run but not of the workload.
    let root = spans
        .iter()
        .position(|s| s.name == "pass")
        .expect("a traced pass has a root span");
    let probes: u64 = spans
        .iter()
        .filter(|s| s.probe.is_some() && s.parent == Some(root))
        .map(Span::duration_ns)
        .sum();
    let wall_s = (spans[root].duration_ns() - probes) as f64 / 1e9;
    ledger.insert("trace.wall_s", wall_s);
    ledger.insert("trace.residual_ratio", totals["pass"].self_s / wall_s);
    ledger.insert("trace.overhead_ratio", wall_s / untraced_wall_s - 1.0);
    ledger
}

/// Runs a batch workload: the sequential reference pass, then measured
/// passes for `seconds` — untraced for the end-to-end metrics, or
/// untraced and traced in turn for the ledger.
pub fn run(plan: &Plan, seconds: u64, mode: Mode, scratch: &Path) -> RunResult {
    let trace = mode == Mode::Traced;
    let mut measured = Measured::default();
    let mut problems = Vec::new();
    let build_engine = || {
        let start = Instant::now();
        let engine = Engine::new(plan.sim_config());
        (engine, start.elapsed().as_secs_f64())
    };

    // Reference: the same composition at `ExecConfig::sequential()`.
    // Doubles as the warm-up pass.
    let off = Tracer::new(false);
    let (mut engine, setup_s) = build_engine();
    measured.setup_s.push(setup_s);
    let out = pass(
        &mut Ctx::new(ExecConfig::sequential(), &off),
        plan,
        &mut engine,
        scratch,
    );
    if out.lost > 0 {
        problems.push(format!("the reference pass lost {} tweets", out.lost));
    }
    let reference = Reference {
        verdicts: out.verdicts,
        truth: out.truth,
        per_hour: out.per_hour,
    };
    const AGAINST: &str = "the sequential reference";

    // A traced run alternates untraced and traced passes, so that the
    // overhead compares medians taken over the same stretch of time.
    let exec = ExecConfig::with_threads(plan.threads);
    let on = Tracer::new(true);
    let mut traced = Ctx::new(exec.clone(), &on);
    let mut counts = Vec::new();
    let mut spans = Vec::new();
    let min_passes = if mode == Mode::Timed { MIN_PASSES } else { 1 };
    let started = Instant::now();
    while measured.wall_s.len() < min_passes
        || (mode != Mode::Check && started.elapsed().as_secs() < seconds)
    {
        ph_telemetry::reset();
        let (mut engine, setup_s) = build_engine();
        measured.setup_s.push(setup_s);
        let cpu = crate::sys::cpu_seconds();
        let start = Instant::now();
        let out = pass(
            &mut Ctx::new(exec.clone(), &off),
            plan,
            &mut engine,
            scratch,
        );
        measured.wall_s.push(start.elapsed().as_secs_f64());
        measured.cpu_s.push(crate::sys::cpu_seconds() - cpu);
        measured.hours_attempted += plan.gt_hours + plan.hours;
        measured.hour_close_ms.extend(&out.hour_close_ms);
        measured.hold_to(&reference, &out.verdicts, out.lost, AGAINST, &mut problems);
        if trace {
            ph_telemetry::reset();
            let (mut engine, build_s) = build_engine();
            traced.twin = Some(Engine::new(plan.sim_config()));
            let mut out = pass(&mut traced, plan, &mut engine, scratch);
            measured.hold_to(&reference, &out.verdicts, out.lost, AGAINST, &mut problems);
            out.counts.insert("sim.build_s", build_s);
            counts.push(out.counts);
            spans.push(on.take());
        }
    }
    measured.verdicts_per_pass = reference.verdicts.len() as u64;
    let ledgers = ledgers_of(&spans, counts, median(&measured.wall_s));
    RunResult::new(
        measured,
        trace.then_some(ledgers),
        spans,
        problems,
        &reference,
    )
}
