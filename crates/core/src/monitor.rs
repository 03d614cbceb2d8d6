//! Pseudo-honeypot monitoring (§III-E): hourly-switched streaming
//! collection of the tweets crossing the node set.
//!
//! The runner owns the selection/switch/poll loop: every `switch_interval`
//! hours it re-selects the node set (portability, §III-D), re-points the
//! streaming filter, steps the engine, and tags every collected tweet with
//! the slot of the node it crossed — the key that all per-attribute
//! statistics (Tables V–VI, Figures 3–5) aggregate over.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

use ph_exec::{ExecConfig, LongLivedStage};
use ph_twitter_sim::engine::Engine;
use ph_twitter_sim::{AccountId, Tweet};
use serde::{Deserialize, Serialize};

use crate::attributes::SampleAttribute;
use crate::network::PseudoHoneypotNetwork;
use crate::selection::{select_network, SelectorConfig};

/// Which of the paper's three collection categories a tweet falls into
/// (§III-E). Categories (2) and (3) are distinguished only *after*
/// classification, so the monitor records them jointly as `MentionOfNode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TweetCategory {
    /// Category (1): activity of a pseudo-honeypot account itself.
    NodeActivity,
    /// Categories (2)/(3): another account mentioning a node.
    MentionOfNode,
}

/// One collected tweet with its monitoring context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectedTweet {
    /// The tweet as delivered by the streaming API.
    pub tweet: Tweet,
    /// Collection category.
    pub category: TweetCategory,
    /// The node the tweet crossed: the mentioned node for
    /// [`TweetCategory::MentionOfNode`], the author for
    /// [`TweetCategory::NodeActivity`].
    pub node: AccountId,
    /// The slot that node was selected for at collection time.
    pub slot: SampleAttribute,
    /// Hour (since simulation start) of collection.
    pub hour: u64,
}

/// Everything a monitoring run produced.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MonitorReport {
    /// Collected tweets in delivery order.
    pub collected: Vec<CollectedTweet>,
    /// Node-hours accumulated per slot (`G_i · T_i` of the PGE formula).
    pub node_hours: HashMap<SampleAttribute, f64>,
    /// Total hours monitored.
    pub hours: u64,
    /// Tweets shed by the streaming buffer (0 unless overloaded).
    pub dropped: u64,
}

impl MonitorReport {
    /// Distinct accounts observed (authors of collected tweets).
    pub fn unique_authors(&self) -> usize {
        self.collected
            .iter()
            .map(|c| c.tweet.author)
            .collect::<HashSet<AccountId>>()
            .len()
    }

    /// Collected tweets whose category is `MentionOfNode`.
    pub fn mentions(&self) -> impl Iterator<Item = &CollectedTweet> {
        self.collected
            .iter()
            .filter(|c| c.category == TweetCategory::MentionOfNode)
    }

    /// Folds a later run segment into this report: collected tweets are
    /// appended in order, `node_hours` accumulate per slot, and `hours` /
    /// `dropped` add up — the semantics a resumed run needs so that
    /// `run(k)` merged with `run(N−k)` equals `run(N)`.
    pub fn merge(&mut self, later: &MonitorReport) {
        self.collected.extend(later.collected.iter().cloned());
        for (slot, node_hours) in &later.node_hours {
            *self.node_hours.entry(*slot).or_insert(0.0) += node_hours;
        }
        self.hours += later.hours;
        self.dropped += later.dropped;
    }
}

/// Configuration of a monitoring run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunnerConfig {
    /// Slots to select each round (defaults to the full Table I/II plan).
    pub slots: Vec<SampleAttribute>,
    /// Selection parameters.
    pub selector: SelectorConfig,
    /// Hours between node-set switches (paper: 1).
    pub switch_interval_hours: u64,
    /// Seed for selection rotation.
    pub seed: u64,
    /// Streaming buffer capacity (tweets). Small values simulate a slow
    /// consumer: the stream sheds the oldest buffered tweets, counted in
    /// [`MonitorReport::dropped`].
    pub buffer_capacity: usize,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self {
            slots: SampleAttribute::standard_slots(),
            selector: SelectorConfig::default(),
            switch_interval_hours: 1,
            seed: 7,
            buffer_capacity: ph_twitter_sim::api::DEFAULT_QUEUE_CAPACITY,
        }
    }
}

/// Resumable cursor of a partially completed monitoring run.
///
/// The runner updates the cursor at every hour boundary; a durable sink
/// (`ph-store`) checkpoints it so a crashed run can continue from the last
/// completed hour. Everything else a resume needs — the engine itself — is
/// reconstructed deterministically by replaying the simulation up to
/// [`RunState::next_hour`] from the original seed.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunState {
    /// Next run-relative hour index to simulate (`0..total_hours`).
    pub next_hour: u64,
    /// Switch rounds completed so far (selection-seed offset).
    pub round: u64,
    /// Current node-set membership, sorted by account id so serialized
    /// checkpoints are byte-stable. Restoring it lets a resume that lands
    /// mid-switch-interval re-point the streaming filter without
    /// re-selecting (re-selection at the later engine state would pick a
    /// different network).
    pub membership: Vec<(AccountId, SampleAttribute)>,
}

/// Where a monitoring run delivers its progress.
///
/// The in-memory default ([`MemorySink`]) makes [`Runner::run`] behave as
/// it always has; `ph-store`'s durable sink appends every tweet to a
/// segment log and checkpoints the [`RunState`] hourly.
pub trait MonitorSink {
    /// Called once per collected tweet, in delivery order.
    ///
    /// # Errors
    ///
    /// Durable sinks surface I/O failures; the runner aborts the segment.
    fn on_tweet(&mut self, collected: &CollectedTweet) -> std::io::Result<()>;

    /// Called with every tweet of one delivery batch (one simulated hour),
    /// in delivery order. The default forwards record-by-record to
    /// [`MonitorSink::on_tweet`]; durable sinks override it to amortize
    /// framing and syscalls across the batch.
    ///
    /// # Errors
    ///
    /// Durable sinks surface I/O failures; the runner aborts the segment.
    fn on_batch(&mut self, batch: &[CollectedTweet]) -> std::io::Result<()> {
        for collected in batch {
            self.on_tweet(collected)?;
        }
        Ok(())
    }

    /// Called at the end of every simulated hour with the updated cursor
    /// and the segment report accumulated so far.
    ///
    /// # Errors
    ///
    /// Durable sinks surface I/O failures; the runner aborts the segment.
    fn on_hour(&mut self, state: &RunState, segment: &MonitorReport) -> std::io::Result<()>;

    /// Whether the runner should also keep collected tweets in the
    /// in-memory report. Durable sinks return `false` so arbitrarily long
    /// runs stay O(1) in memory.
    fn retain_in_memory(&self) -> bool {
        true
    }
}

/// The no-op sink behind the classic in-memory [`Runner::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MemorySink;

impl MonitorSink for MemorySink {
    fn on_tweet(&mut self, _collected: &CollectedTweet) -> std::io::Result<()> {
        Ok(())
    }

    fn on_hour(&mut self, _state: &RunState, _segment: &MonitorReport) -> std::io::Result<()> {
        Ok(())
    }
}

/// Bucket edges for the tweets-collected-per-hour distribution:
/// 1, 2, 5 × powers of ten up to 100k, overflow above.
fn per_hour_volume_buckets() -> Vec<f64> {
    let mut buckets = Vec::with_capacity(18);
    let mut decade = 1.0;
    while decade <= 100_000.0 {
        for mult in [1.0, 2.0, 5.0] {
            buckets.push(decade * mult);
        }
        decade *= 10.0;
    }
    buckets
}

/// Applies one switch round to the run cursor and segment accounting:
/// membership replaced (sorted into the checkpointable cursor), the
/// `AttributeSwitch` journal event emitted, node-hours accrued for the
/// coming interval. Shared by the batch loop and the streaming monitor so
/// both record the identical switch history.
fn apply_switch(
    config: &RunnerConfig,
    state: &mut RunState,
    segment: &mut MonitorReport,
    network: &PseudoHoneypotNetwork,
    hour_index: u64,
    total_hours: u64,
) -> HashMap<AccountId, SampleAttribute> {
    state.round += 1;
    let membership = network.membership();
    state.membership = membership.iter().map(|(&a, &s)| (a, s)).collect();
    state.membership.sort_by_key(|&(a, _)| a.0);
    ph_telemetry::journal_emit(ph_telemetry::TelemetryEvent::AttributeSwitch {
        hour: hour_index,
        round: state.round - 1,
        nodes: membership.len() as u64,
    });
    let interval = config
        .switch_interval_hours
        .max(1)
        .min(total_hours - hour_index) as f64;
    for (slot, count) in network.slot_sizes() {
        *segment.node_hours.entry(slot).or_insert(0.0) += count as f64 * interval;
    }
    membership
}

/// Per-hour telemetry shared by the batch loop and the streaming monitor:
/// collected counter, per-hour series, the `HourTick` journal event, and
/// the live progress line.
fn record_hour_telemetry(
    hour_index: u64,
    total_hours: u64,
    collected_this_hour: u64,
    dropped_this_hour: u64,
    segment_collected: u64,
    segment_dropped: u64,
) {
    ph_telemetry::cached_counter!("monitor.tweets_collected").add(collected_this_hour);
    ph_telemetry::series("monitor.collected").add(hour_index, collected_this_hour as f64);
    ph_telemetry::series("monitor.dropped").add(hour_index, dropped_this_hour as f64);
    ph_telemetry::journal_emit(ph_telemetry::TelemetryEvent::HourTick {
        hour: hour_index,
        collected: collected_this_hour,
        dropped: dropped_this_hour,
    });
    // Alert rules are evaluated at every hour boundary — batch and
    // streaming alike. With none installed this is one relaxed atomic
    // load; transitions are edge-triggered, so callers that re-evaluate
    // after recording more per-hour data (the daemon does, once latency
    // for the hour is known) see exactly one event per transition.
    ph_telemetry::alert_evaluate(hour_index);
    if ph_telemetry::progress_enabled() {
        ph_telemetry::progress_update(&format!(
            "{} hour {}/{} · {} tweets · {} shed",
            ph_telemetry::progress_bar(hour_index + 1, total_hours, 24),
            hour_index + 1,
            total_hours,
            segment_collected,
            segment_dropped
        ));
    }
}

/// End-of-segment telemetry shared by the batch loop and the streaming
/// monitor: total-dropped counter, shed warning, per-slot node-hour gauges.
fn finish_segment_telemetry(segment: &MonitorReport, buffer_capacity: usize) {
    ph_telemetry::progress_done();
    ph_telemetry::cached_counter!("monitor.tweets_dropped").add(segment.dropped);
    if segment.dropped > 0 {
        ph_telemetry::log_warn!(
            "streaming buffer shed {} tweets (capacity {})",
            segment.dropped,
            buffer_capacity
        );
    }
    for (slot, node_hours) in &segment.node_hours {
        ph_telemetry::gauge(&format!("monitor.node_hours.{slot}")).set(*node_hours);
    }
}

/// The monitoring runner. See the module docs for the loop structure.
#[derive(Debug, Clone)]
pub struct Runner {
    config: RunnerConfig,
    exec: ExecConfig,
    /// Cooperative stop request, checked at hour boundaries. Lives on the
    /// runner (not the serializable [`RunnerConfig`]) so signal handlers
    /// can ask a run to checkpoint-and-exit between hours.
    stop: Option<Arc<AtomicBool>>,
}

impl Runner {
    /// Creates a sequential runner.
    pub fn new(config: RunnerConfig) -> Self {
        Self::with_exec(config, ExecConfig::sequential())
    }

    /// Creates a runner that shards per-hour categorization across the
    /// given execution configuration. Collected output is byte-identical
    /// to [`Runner::new`] at any thread count (see `ph-exec`).
    pub fn with_exec(config: RunnerConfig, exec: ExecConfig) -> Self {
        Self {
            config,
            exec,
            stop: None,
        }
    }

    /// Attaches a cooperative stop flag: once set (e.g. by a SIGINT
    /// handler), [`Runner::run_segment`] stops cleanly at the next hour
    /// boundary — every completed hour fully delivered to the sink, the
    /// cursor pointing at the first unsimulated hour — so the run can be
    /// resumed exactly like one bounded by `segment_hours`.
    #[must_use]
    pub fn with_stop_flag(mut self, stop: Arc<AtomicBool>) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Whether the attached stop flag (if any) has been raised.
    pub fn stop_requested(&self) -> bool {
        self.stop
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    /// The configuration.
    pub fn config(&self) -> &RunnerConfig {
        &self.config
    }

    /// The execution configuration.
    pub fn exec(&self) -> &ExecConfig {
        &self.exec
    }

    /// Monitors `engine` for `hours` hours, switching the node set every
    /// `switch_interval_hours`.
    pub fn run(&self, engine: &mut Engine, hours: u64) -> MonitorReport {
        self.run_with_networks(engine, hours, self.standard_networks())
    }

    /// Monitors with an externally supplied network per switch round —
    /// used by the baselines (random node sets, fixed honeypot sets).
    pub fn run_with_networks<F>(
        &self,
        engine: &mut Engine,
        hours: u64,
        make_network: F,
    ) -> MonitorReport
    where
        F: FnMut(&Engine, u64) -> PseudoHoneypotNetwork,
    {
        let mut state = RunState::default();
        self.run_segment(
            engine,
            &mut state,
            hours,
            hours,
            make_network,
            &mut MemorySink,
        )
        .expect("in-memory monitoring cannot fail")
    }

    /// Monitors `engine` from [`RunState::next_hour`] for up to
    /// `segment_hours` hours of a `total_hours`-hour run, delivering every
    /// collected tweet and every hour boundary to `sink`.
    ///
    /// Hour indices, switch rounds, and node-hour accrual are all relative
    /// to the *whole* run, so `run_segment(k)` followed by a restored
    /// `run_segment(N−k)` — on an engine deterministically fast-forwarded
    /// to hour `k` — produces, merged, exactly the report (and exactly the
    /// tweet stream) of an uninterrupted `run(N)`.
    ///
    /// Returns the report of **this segment only**; accumulate across
    /// segments with [`MonitorReport::merge`]. When the sink declines
    /// in-memory retention the returned `collected` stays empty.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O errors; the segment stops at the failed hour.
    pub fn run_segment<F, S>(
        &self,
        engine: &mut Engine,
        state: &mut RunState,
        total_hours: u64,
        segment_hours: u64,
        mut make_network: F,
        sink: &mut S,
    ) -> std::io::Result<MonitorReport>
    where
        F: FnMut(&Engine, u64) -> PseudoHoneypotNetwork,
        S: MonitorSink,
    {
        let _run_span = ph_telemetry::span("monitor.run");
        let _run_phase = ph_trace::phase("monitor.run");
        let switch_latency = ph_telemetry::histogram(
            "monitor.switch_latency_ms",
            &ph_telemetry::default_latency_buckets_ms(),
        );
        let tweets_per_hour =
            ph_telemetry::histogram("monitor.tweets_per_hour", &per_hour_volume_buckets());

        let streaming = engine.streaming();
        let subscription = streaming.track_mentions_with_capacity([], self.config.buffer_capacity);
        let mut membership: HashMap<AccountId, SampleAttribute> =
            state.membership.iter().copied().collect();
        if !membership.is_empty() {
            // Resumed mid-interval: re-point the stream at the node set the
            // checkpoint recorded.
            streaming
                .set_filter(subscription, membership.keys().copied())
                .expect("subscription is open");
        }
        let mut segment = MonitorReport::default();
        let start = state.next_hour;
        let end = total_hours.min(start.saturating_add(segment_hours));
        let mut segment_collected = 0u64;
        let mut dropped_before = 0u64;

        for hour_index in start..end {
            if self.stop_requested() {
                break;
            }
            if self.switch_due(hour_index) {
                let switch_span = ph_telemetry::span("switch");
                let _switch_phase = ph_trace::phase("monitor.switch");
                let network = make_network(engine, state.round);
                membership = apply_switch(
                    &self.config,
                    state,
                    &mut segment,
                    &network,
                    hour_index,
                    total_hours,
                );
                streaming
                    .set_filter(subscription, membership.keys().copied())
                    .expect("subscription is open");
                switch_latency.record(switch_span.elapsed_ms());
            }
            let hour = engine.now().whole_hours();
            engine.step_hour();
            let polled: Vec<Tweet> = streaming.poll(subscription).expect("subscription is open");
            // Categorization is a pure per-tweet function of the (fixed for
            // this hour) membership map, so it shards freely by author; the
            // ordered merge hands the batch back in delivery order, making
            // the sink see the identical stream at any thread count.
            let members = &membership;
            let batch: Vec<CollectedTweet> = ph_exec::run(
                &self.exec,
                "monitor.categorize",
                polled,
                |tweet: &Tweet| u64::from(tweet.author.0),
                |_worker| |tweet: Tweet| Self::categorize(tweet, members, hour),
            )
            .into_iter()
            .flatten()
            .collect();
            sink.on_batch(&batch)?;
            let collected_this_hour = batch.len() as u64;
            if sink.retain_in_memory() {
                segment.collected.extend(batch);
            }
            tweets_per_hour.record(collected_this_hour as f64);
            segment.hours += 1;
            segment.dropped = streaming.dropped(subscription).unwrap_or(0);
            let dropped_this_hour = segment.dropped - dropped_before;
            dropped_before = segment.dropped;
            segment_collected += collected_this_hour;
            record_hour_telemetry(
                hour_index,
                total_hours,
                collected_this_hour,
                dropped_this_hour,
                segment_collected,
                segment.dropped,
            );
            state.next_hour = hour_index + 1;
            sink.on_hour(state, &segment)?;
        }
        finish_segment_telemetry(&segment, self.config.buffer_capacity);
        streaming.close(subscription);
        Ok(segment)
    }

    /// Whether run-relative hour `hour_index` opens a switch round.
    fn switch_due(&self, hour_index: u64) -> bool {
        hour_index.is_multiple_of(self.config.switch_interval_hours.max(1))
    }

    /// The engine side of opening run-relative hour `hour_index`: selects
    /// switch round `round`'s network if one is due (on `engine` *before*
    /// stepping, like the batch loop), then steps `engine` into the hour.
    /// Returns the network and the absolute hour stepped through — what
    /// [`StreamMonitor::begin_hour_with`] takes.
    ///
    /// Telemetry lands on the calling thread, wherever that is: the
    /// `switch` span, the `monitor.switch_latency_ms` histogram and the
    /// `monitor.switch` / `sim.step_hour` trace phases, which are flushed
    /// to the trace sink before returning so a dedicated thread needs no
    /// teardown of its own.
    pub fn open_hour(
        &self,
        engine: &mut Engine,
        hour_index: u64,
        round: u64,
    ) -> (Option<PseudoHoneypotNetwork>, u64) {
        let network = self.switch_due(hour_index).then(|| {
            let switch_span = ph_telemetry::span("switch");
            let _switch_phase = ph_trace::phase("monitor.switch");
            let network = select_network(
                engine,
                &self.config.slots,
                &self.config.selector,
                self.config.seed.wrapping_add(round),
            );
            ph_telemetry::histogram(
                "monitor.switch_latency_ms",
                &ph_telemetry::default_latency_buckets_ms(),
            )
            .record(switch_span.elapsed_ms());
            network
        });
        let hour = engine.now().whole_hours();
        {
            let _step_phase = ph_trace::phase("sim.step_hour");
            engine.step_hour();
        }
        ph_trace::flush_thread();
        (network, hour)
    }

    /// The standard selection strategy as a `make_network` closure: slot
    /// plan + selector from the config, selection seed rotated per round.
    /// [`Runner::run`] and the store-backed resumable runs share it so a
    /// resumed run re-selects exactly as the original would have.
    pub fn standard_networks(&self) -> impl FnMut(&Engine, u64) -> PseudoHoneypotNetwork + '_ {
        move |engine, round| {
            select_network(
                engine,
                &self.config.slots,
                &self.config.selector,
                self.config.seed.wrapping_add(round),
            )
        }
    }

    /// Tags one delivered tweet with node/slot context.
    fn categorize(
        tweet: Tweet,
        membership: &HashMap<AccountId, SampleAttribute>,
        hour: u64,
    ) -> Option<CollectedTweet> {
        // Mention of a node takes precedence (categories (2)/(3)); a node's
        // own posts are category (1).
        if let Some((&node, &slot)) = tweet
            .mentions
            .iter()
            .find_map(|m| membership.get_key_value(m))
        {
            return Some(CollectedTweet {
                tweet,
                category: TweetCategory::MentionOfNode,
                node,
                slot,
                hour,
            });
        }
        if let Some((&node, &slot)) = membership.get_key_value(&tweet.author) {
            return Some(CollectedTweet {
                tweet,
                category: TweetCategory::NodeActivity,
                node,
                slot,
                hour,
            });
        }
        // Raced a filter switch: delivered under the previous node set.
        None
    }
}

/// Shared context the persistent categorize workers read: the membership
/// map of the current switch round and the absolute hour being collected.
/// The daemon updates it between batches (batches are synchronous, so
/// writers never race the workers).
struct CategorizeCtx {
    membership: HashMap<AccountId, SampleAttribute>,
    hour: u64,
}

/// The daemon-facing twin of [`Runner::run_segment`]: the same hourly
/// switch → step → categorize → account cycle, but driven by *externally
/// delivered* tweets (a socket ingest queue) instead of an engine-attached
/// subscription poll, and running the categorize stage on a persistent
/// [`LongLivedStage`] worker pool instead of a per-hour scoped pool.
///
/// The engine behind each hour is the daemon's *replica*: a deterministic
/// re-simulation stepped once per wire-marked hour so that network
/// selection and REST lookups see exactly the state the producer's engine
/// had. [`begin_hour`](StreamMonitor::begin_hour) selects on and steps it
/// in place; the daemon does both ahead of time on the replica's own
/// thread and opens the hour with
/// [`begin_hour_with`](StreamMonitor::begin_hour_with). Because the shared
/// [`apply_switch`] / [`record_hour_telemetry`] helpers do the bookkeeping,
/// the journal, series, and checkpoint stream are shaped identically to a
/// batch run — `inspect` works on a serve store unchanged.
///
/// There is no streaming filter to re-point: the producer sends the full
/// firehose and categorization itself drops non-members (the same
/// predicate the filtered subscription applies engine-side, so the
/// collected set is identical).
pub struct StreamMonitor {
    runner: Runner,
    total_hours: u64,
    state: RunState,
    segment: MonitorReport,
    ctx: Arc<RwLock<CategorizeCtx>>,
    stage: LongLivedStage<Tweet, Option<CollectedTweet>>,
    segment_collected: u64,
    mid_hour: bool,
}

impl StreamMonitor {
    /// A monitor starting from hour 0 of a `total_hours` run.
    pub fn new(runner: Runner, total_hours: u64) -> Self {
        Self::resume(runner, total_hours, RunState::default())
    }

    /// Resumes from a checkpointed cursor: the restored membership
    /// re-arms categorization mid-switch-interval exactly as
    /// [`Runner::run_segment`] re-points the streaming filter.
    pub fn resume(runner: Runner, total_hours: u64, state: RunState) -> Self {
        let ctx = Arc::new(RwLock::new(CategorizeCtx {
            membership: state.membership.iter().copied().collect(),
            hour: 0,
        }));
        let worker_ctx = Arc::clone(&ctx);
        let stage = LongLivedStage::new(
            runner.exec(),
            "monitor.categorize",
            |tweet: &Tweet| u64::from(tweet.author.0),
            move |_worker| {
                let ctx = Arc::clone(&worker_ctx);
                move |tweet: Tweet| {
                    let ctx = ctx.read().expect("categorize context poisoned");
                    Runner::categorize(tweet, &ctx.membership, ctx.hour)
                }
            },
        );
        Self {
            runner,
            total_hours,
            state,
            segment: MonitorReport::default(),
            ctx,
            stage,
            segment_collected: 0,
            mid_hour: false,
        }
    }

    /// The run cursor (checkpointed by the sink at every hour boundary).
    pub fn state(&self) -> &RunState {
        &self.state
    }

    /// The report accumulated by this monitor instance (one segment).
    pub fn segment(&self) -> &MonitorReport {
        &self.segment
    }

    /// Whole-run hour count.
    pub fn total_hours(&self) -> u64 {
        self.total_hours
    }

    /// Whether every hour of the run has been processed.
    pub fn complete(&self) -> bool {
        self.state.next_hour >= self.total_hours
    }

    /// Opens the next hour on `engine`: [`Runner::open_hour`] (select if a
    /// switch is due, then step) followed by
    /// [`begin_hour_with`](StreamMonitor::begin_hour_with). Call exactly
    /// once before each [`finish_hour`](StreamMonitor::finish_hour); the
    /// window between the two is where the daemon re-labels evaluation
    /// sidecars from the freshly stepped replica.
    ///
    /// # Panics
    ///
    /// Panics if the run is already complete or an hour is already open.
    pub fn begin_hour(&mut self, engine: &mut Engine) {
        let (network, hour) = self
            .runner
            .open_hour(engine, self.state.next_hour, self.state.round);
        self.begin_hour_with(network, hour);
    }

    /// Opens the next hour from work done elsewhere: `network` is this
    /// hour's selection (present exactly when a switch round is due,
    /// selected for round [`RunState::round`]) and `hour` the absolute
    /// engine hour being collected. Applies the switch to the cursor —
    /// membership, `AttributeSwitch` journal event, node-hours — and arms
    /// categorization. The daemon runs [`Runner::open_hour`] on its
    /// replica's own thread, ahead of time, and calls this at the
    /// boundary, so the cursor only ever advances here.
    ///
    /// # Panics
    ///
    /// Panics if the run is already complete, an hour is already open, or
    /// `network` is present when no switch is due (or absent when one is).
    pub fn begin_hour_with(&mut self, network: Option<PseudoHoneypotNetwork>, hour: u64) {
        assert!(
            !self.mid_hour,
            "begin_hour called twice without finish_hour"
        );
        assert!(!self.complete(), "begin_hour past the end of the run");
        let hour_index = self.state.next_hour;
        assert_eq!(
            network.is_some(),
            self.runner.switch_due(hour_index),
            "a network must be supplied exactly when hour {hour_index} opens a switch round"
        );
        let mut ctx = self.ctx.write().expect("categorize context poisoned");
        if let Some(network) = network {
            ctx.membership = apply_switch(
                self.runner.config(),
                &mut self.state,
                &mut self.segment,
                &network,
                hour_index,
                self.total_hours,
            );
        }
        ctx.hour = hour;
        self.mid_hour = true;
    }

    /// Closes the hour opened by [`begin_hour`](StreamMonitor::begin_hour):
    /// categorizes the delivered tweets on the persistent worker pool,
    /// hands the batch and the advanced cursor to the sink, and accounts
    /// `shed` tweets dropped by the ingest queue this hour. Returns the
    /// categorized batch in delivery order (the classifier's input).
    ///
    /// # Errors
    ///
    /// Propagates sink I/O failures; a dead worker pool surfaces as an
    /// `io::Error` of kind `Other`.
    ///
    /// # Panics
    ///
    /// Panics if no hour is open.
    pub fn finish_hour<S: MonitorSink>(
        &mut self,
        delivered: Vec<Tweet>,
        shed: u64,
        sink: &mut S,
    ) -> std::io::Result<Vec<CollectedTweet>> {
        assert!(self.mid_hour, "finish_hour without begin_hour");
        self.mid_hour = false;
        let hour_index = self.state.next_hour;
        let batch: Vec<CollectedTweet> = self
            .stage
            .process_batch(delivered)
            .map_err(std::io::Error::other)?
            .into_iter()
            .flatten()
            .collect();
        sink.on_batch(&batch)?;
        let collected_this_hour = batch.len() as u64;
        if sink.retain_in_memory() {
            self.segment.collected.extend(batch.iter().cloned());
        }
        ph_telemetry::histogram("monitor.tweets_per_hour", &per_hour_volume_buckets())
            .record(collected_this_hour as f64);
        self.segment.hours += 1;
        self.segment.dropped += shed;
        self.segment_collected += collected_this_hour;
        record_hour_telemetry(
            hour_index,
            self.total_hours,
            collected_this_hour,
            shed,
            self.segment_collected,
            self.segment.dropped,
        );
        self.state.next_hour = hour_index + 1;
        sink.on_hour(&self.state, &self.segment)?;
        Ok(batch)
    }

    /// End-of-segment telemetry (total sheds, node-hour gauges). Call once
    /// when the daemon drains — whether the run completed or was stopped.
    pub fn finish(&mut self, queue_capacity: usize) {
        finish_segment_telemetry(&self.segment, queue_capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::ProfileAttribute;
    use ph_twitter_sim::engine::SimConfig;

    fn engine() -> Engine {
        Engine::new(SimConfig {
            seed: 5,
            num_organic: 800,
            num_campaigns: 3,
            accounts_per_campaign: 8,
            ..Default::default()
        })
    }

    fn small_runner(seed: u64) -> Runner {
        Runner::new(RunnerConfig {
            slots: vec![
                SampleAttribute::profile(ProfileAttribute::FriendsCount, 1_000.0),
                SampleAttribute::profile(ProfileAttribute::FollowersCount, 1_000.0),
                SampleAttribute::profile(ProfileAttribute::ListsPerDay, 1.0),
            ],
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn run_collects_tweets_crossing_nodes() {
        let mut e = engine();
        let report = small_runner(1).run(&mut e, 12);
        assert_eq!(report.hours, 12);
        assert!(!report.collected.is_empty(), "nothing collected");
        for c in &report.collected {
            match c.category {
                TweetCategory::NodeActivity => assert_eq!(c.tweet.author, c.node),
                TweetCategory::MentionOfNode => {
                    assert!(c.tweet.mentions_account(c.node));
                }
            }
        }
    }

    #[test]
    fn node_hours_accrue_per_slot() {
        let mut e = engine();
        let report = small_runner(2).run(&mut e, 6);
        // 3 slots × up to 10 nodes × 6 hours.
        let total: f64 = report.node_hours.values().sum();
        assert!(total > 0.0);
        assert!(total <= 3.0 * 10.0 * 6.0 + 1e-9);
    }

    #[test]
    fn switching_rotates_node_sets() {
        let mut e1 = engine();
        let hourly = Runner::new(RunnerConfig {
            switch_interval_hours: 1,
            ..small_runner(3).config().clone()
        });
        let r1 = hourly.run(&mut e1, 8);
        // Nodes observed across hours should include more distinct accounts
        // than a single selection round (rotation).
        let mut nodes: Vec<AccountId> = r1.collected.iter().map(|c| c.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert!(
            nodes.len() > 10,
            "hourly switching produced only {} distinct nodes",
            nodes.len()
        );
    }

    #[test]
    fn spam_is_collected() {
        let mut e = engine();
        let report = small_runner(4).run(&mut e, 20);
        let gt = e.ground_truth();
        let spam = report
            .collected
            .iter()
            .filter(|c| gt.is_spam(&c.tweet))
            .count();
        assert!(spam > 0, "honeypot caught no spam in 20 hours");
    }

    #[test]
    fn unique_authors_counts_distinct() {
        let mut e = engine();
        let report = small_runner(5).run(&mut e, 10);
        assert!(report.unique_authors() > 0);
        assert!(report.unique_authors() <= report.collected.len());
    }

    #[test]
    fn sharded_runner_report_equals_sequential() {
        let mut e1 = engine();
        let sequential = small_runner(7).run(&mut e1, 12);
        for threads in [2, 4] {
            let mut e2 = engine();
            let runner = Runner::with_exec(
                small_runner(7).config().clone(),
                ExecConfig::with_threads(threads),
            );
            assert_eq!(
                runner.run(&mut e2, 12),
                sequential,
                "{threads}-thread monitoring diverged"
            );
        }
    }

    #[test]
    fn default_capacity_sheds_nothing() {
        let mut e = engine();
        let report = small_runner(6).run(&mut e, 12);
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn tiny_buffer_sheds_and_accounts_drops() {
        let capacity = 2;
        let hours = 12;
        let mut e = engine();
        let runner = Runner::new(RunnerConfig {
            buffer_capacity: capacity,
            ..small_runner(6).config().clone()
        });
        let report = runner.run(&mut e, hours);
        // Identical engine + selection seed as `default_capacity_sheds_nothing`,
        // which collects far more than 2 tweets/hour — so a 2-slot buffer
        // must shed, and every shed tweet must be accounted in `dropped`.
        assert!(report.dropped > 0, "tiny buffer shed nothing");
        assert!(
            report.collected.len() <= capacity * hours as usize,
            "polled more than capacity per hour: {}",
            report.collected.len()
        );
        // Cross-check against the unshed run: delivered + dropped covers at
        // least everything the unshed run delivered.
        let mut e2 = engine();
        let full = small_runner(6).run(&mut e2, hours);
        assert!(
            report.collected.len() as u64 + report.dropped >= full.collected.len() as u64,
            "shed accounting lost tweets: {} delivered + {} dropped < {} total",
            report.collected.len(),
            report.dropped,
            full.collected.len()
        );
    }

    #[test]
    fn merged_report_accumulates_dropped_and_node_hours() {
        let slot_a = SampleAttribute::profile(ProfileAttribute::FriendsCount, 1_000.0);
        let slot_b = SampleAttribute::profile(ProfileAttribute::ListsPerDay, 1.0);
        let mut base = MonitorReport {
            node_hours: [(slot_a, 10.0), (slot_b, 4.0)].into_iter().collect(),
            hours: 5,
            dropped: 3,
            ..Default::default()
        };
        let later = MonitorReport {
            node_hours: [(slot_a, 2.5)].into_iter().collect(),
            hours: 7,
            dropped: 9,
            ..Default::default()
        };
        base.merge(&later);
        assert_eq!(base.hours, 12);
        assert_eq!(base.dropped, 12);
        assert_eq!(base.node_hours[&slot_a], 12.5);
        assert_eq!(base.node_hours[&slot_b], 4.0);
        assert!(base.collected.is_empty());
    }

    #[test]
    fn segmented_run_merges_to_uninterrupted_run() {
        let runner = small_runner(11);
        let mut full_engine = engine();
        let full = runner.run(&mut full_engine, 12);

        let mut seg_engine = engine();
        let mut state = RunState::default();
        let mut merged = runner
            .run_segment(
                &mut seg_engine,
                &mut state,
                12,
                5,
                runner.standard_networks(),
                &mut MemorySink,
            )
            .unwrap();
        assert_eq!(state.next_hour, 5);
        let tail = runner
            .run_segment(
                &mut seg_engine,
                &mut state,
                12,
                7,
                runner.standard_networks(),
                &mut MemorySink,
            )
            .unwrap();
        merged.merge(&tail);
        assert_eq!(merged, full);
    }

    #[test]
    fn crashed_run_resumes_on_a_fast_forwarded_engine() {
        // switch_interval 3 with a crash at hour 4 forces the resume to
        // restore the checkpointed membership (re-selecting at the
        // fast-forwarded engine state would pick a different node set).
        let runner = Runner::new(RunnerConfig {
            switch_interval_hours: 3,
            ..small_runner(12).config().clone()
        });
        let mut full_engine = engine();
        let full = runner.run(&mut full_engine, 10);

        // First 4 hours, then "crash": only the RunState and the segment
        // report survive.
        let mut first_engine = engine();
        let mut state = RunState::default();
        let mut merged = runner
            .run_segment(
                &mut first_engine,
                &mut state,
                10,
                4,
                runner.standard_networks(),
                &mut MemorySink,
            )
            .unwrap();
        drop(first_engine);

        // Resume: rebuild the engine deterministically and continue.
        let mut resumed_engine = engine();
        resumed_engine.run_hours(state.next_hour);
        let tail = runner
            .run_segment(
                &mut resumed_engine,
                &mut state,
                10,
                u64::MAX,
                runner.standard_networks(),
                &mut MemorySink,
            )
            .unwrap();
        merged.merge(&tail);
        assert_eq!(merged, full);
    }

    /// Drives a [`StreamMonitor`] the way the daemon does — firehose tap,
    /// explicit hour boundaries — and returns its segment report.
    fn stream_monitor_run(runner: Runner, hours: u64) -> (RunState, MonitorReport) {
        let mut e = engine();
        let streaming = e.streaming();
        let fh = streaming.firehose_with_capacity(ph_twitter_sim::api::DEFAULT_QUEUE_CAPACITY);
        let mut monitor = StreamMonitor::new(runner, hours);
        while !monitor.complete() {
            monitor.begin_hour(&mut e);
            let delivered = streaming.poll(fh).unwrap();
            monitor.finish_hour(delivered, 0, &mut MemorySink).unwrap();
        }
        monitor.finish(0);
        (monitor.state().clone(), monitor.segment().clone())
    }

    #[test]
    fn stream_monitor_matches_the_batch_runner() {
        let runner = small_runner(21);
        let mut batch_engine = engine();
        let full = runner.run(&mut batch_engine, 10);
        let (state, report) = stream_monitor_run(runner, 10);
        assert_eq!(state.next_hour, 10);
        assert_eq!(report, full);
    }

    #[test]
    fn stream_monitor_is_thread_count_invariant() {
        let sequential = stream_monitor_run(small_runner(22), 8).1;
        for threads in [2, 4] {
            let runner = Runner::with_exec(
                small_runner(22).config().clone(),
                ExecConfig::with_threads(threads),
            );
            assert_eq!(
                stream_monitor_run(runner, 8).1,
                sequential,
                "{threads}-thread stream monitor diverged"
            );
        }
    }

    #[test]
    fn stream_monitor_resumes_mid_switch_interval() {
        // switch_interval 3, stop at hour 4: the resumed monitor must
        // restore the checkpointed membership rather than re-selecting.
        let runner = Runner::new(RunnerConfig {
            switch_interval_hours: 3,
            ..small_runner(23).config().clone()
        });
        let mut full_engine = engine();
        let full = runner.run(&mut full_engine, 10);

        let mut e1 = engine();
        let s1 = e1.streaming();
        let fh1 = s1.firehose_with_capacity(ph_twitter_sim::api::DEFAULT_QUEUE_CAPACITY);
        let mut first = StreamMonitor::new(runner.clone(), 10);
        for _ in 0..4 {
            first.begin_hour(&mut e1);
            let delivered = s1.poll(fh1).unwrap();
            first.finish_hour(delivered, 0, &mut MemorySink).unwrap();
        }
        let state = first.state().clone();
        let mut merged = first.segment().clone();
        drop(first);
        drop(e1);

        // Resume on a fast-forwarded engine (firehose opened *after* the
        // fast-forward so replayed hours don't leak into the tap).
        let mut e2 = engine();
        e2.run_hours(state.next_hour);
        let s2 = e2.streaming();
        let fh2 = s2.firehose_with_capacity(ph_twitter_sim::api::DEFAULT_QUEUE_CAPACITY);
        let mut resumed = StreamMonitor::resume(runner, 10, state);
        while !resumed.complete() {
            resumed.begin_hour(&mut e2);
            let delivered = s2.poll(fh2).unwrap();
            resumed.finish_hour(delivered, 0, &mut MemorySink).unwrap();
        }
        merged.merge(resumed.segment());
        assert_eq!(merged, full);
    }

    #[test]
    fn stop_flag_halts_run_segment_at_an_hour_boundary() {
        let stop = Arc::new(AtomicBool::new(false));
        let runner = small_runner(24).with_stop_flag(Arc::clone(&stop));
        let mut e = engine();
        let mut state = RunState::default();

        struct StopAfter {
            stop: Arc<AtomicBool>,
            hours: u64,
        }
        impl MonitorSink for StopAfter {
            fn on_tweet(&mut self, _c: &CollectedTweet) -> std::io::Result<()> {
                Ok(())
            }
            fn on_hour(&mut self, state: &RunState, _s: &MonitorReport) -> std::io::Result<()> {
                if state.next_hour >= self.hours {
                    self.stop.store(true, Ordering::Relaxed);
                }
                Ok(())
            }
        }
        let mut sink = StopAfter {
            stop: Arc::clone(&stop),
            hours: 3,
        };
        let report = runner
            .run_segment(
                &mut e,
                &mut state,
                12,
                u64::MAX,
                runner.standard_networks(),
                &mut sink,
            )
            .unwrap();
        assert!(runner.stop_requested());
        assert_eq!(state.next_hour, 3, "did not stop at the flagged boundary");
        assert_eq!(report.hours, 3);

        // The stopped run resumes exactly like a crash-resumed one.
        let full = small_runner(24).run(&mut engine(), 12);
        let mut resumed_engine = engine();
        resumed_engine.run_hours(state.next_hour);
        let resumed = small_runner(24)
            .run_segment(
                &mut resumed_engine,
                &mut state,
                12,
                u64::MAX,
                small_runner(24).standard_networks(),
                &mut MemorySink,
            )
            .unwrap();
        let mut merged = report;
        merged.merge(&resumed);
        assert_eq!(merged, full);
    }

    #[test]
    fn run_with_external_networks_uses_them() {
        let mut e = engine();
        let fixed = crate::selection::select_random_network(&e, 50, 9);
        let runner = Runner::new(RunnerConfig {
            switch_interval_hours: 1_000, // never re-switch within the run
            ..RunnerConfig::default()
        });
        let report = runner.run_with_networks(&mut e, 6, |_, _| fixed.clone());
        let allowed: std::collections::HashSet<AccountId> =
            fixed.account_ids().into_iter().collect();
        for c in &report.collected {
            assert!(allowed.contains(&c.node));
        }
    }
}
