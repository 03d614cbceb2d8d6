//! Pseudo-honeypot monitoring (§III-E): hourly-switched streaming
//! collection of the tweets crossing the node set.
//!
//! Every `switch_interval` hours the node set is re-selected
//! (portability, §III-D); each hour the engine steps and every collected
//! tweet is tagged with the slot of the node it crossed — the key that all
//! per-attribute statistics (Tables V–VI, Figures 3–5) aggregate over.
//! [`StreamMonitor`] is the one place an hour is accounted for: the
//! batch [`Runner::run_segment`] drives it from a filtered subscription,
//! and [`crate::step::HourStep`] — the hour body of `sniff` and the
//! daemon — from whatever delivery its caller owns.

use std::collections::{HashMap, HashSet};

use ph_exec::ExecConfig;
use ph_twitter_sim::engine::Engine;
use ph_twitter_sim::{AccountId, Tweet};
use serde::{Deserialize, Serialize};

use crate::attributes::SampleAttribute;
use crate::network::PseudoHoneypotNetwork;
use crate::selection::{select_network, SelectorConfig};
use crate::step::EngineHours;

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
    /// and the segment's counters so far (their `collected` is empty: the
    /// tweets arrive through [`MonitorSink::on_batch`]).
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

/// The monitoring runner. See the module docs for the loop structure.
#[derive(Debug, Clone)]
pub struct Runner {
    config: RunnerConfig,
    exec: ExecConfig,
}

impl Runner {
    /// Creates a sequential runner.
    pub fn new(config: RunnerConfig) -> Self {
        Self::with_exec(config, ExecConfig::sequential())
    }

    /// Creates a runner carrying the run's execution configuration
    /// ([`Runner::exec`]). Per-hour categorization itself stays on the
    /// caller's thread at any thread count (see
    /// [`StreamMonitor::finish_hour`]), so collected output is the same
    /// as [`Runner::new`]'s.
    pub fn with_exec(config: RunnerConfig, exec: ExecConfig) -> Self {
        Self { config, exec }
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
    /// Each hour is one [`StreamMonitor`] step fed by an engine-side
    /// filtered subscription: the filter is re-pointed at every switch, so
    /// the monitor categorizes only tweets that crossed the node set.
    ///
    /// Returns the report of **this segment only**; accumulate across
    /// segments with [`MonitorReport::merge`]. When the sink declines
    /// in-memory retention the returned `collected` stays empty.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O errors; the segment stops at the failed hour,
    /// with the subscription closed and `state` left where that hour put
    /// it.
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
        let mut hours = EngineHours::new(engine, self.config.buffer_capacity, state);
        let end = total_hours.min(state.next_hour.saturating_add(segment_hours));
        let mut monitor = StreamMonitor::resume(self.clone(), total_hours, std::mem::take(state));
        let retain = sink.retain_in_memory();
        let mut collected = Vec::new();
        let mut run_hours = || -> std::io::Result<()> {
            while monitor.state.next_hour < end {
                let round = monitor.state.round;
                let (network, hour, polled, shed) =
                    hours.open_with(self, engine, monitor.state.next_hour, |e| {
                        make_network(e, round)
                    });
                monitor.begin_hour_with(network, hour);
                let batch = monitor.finish_hour(polled, shed, sink)?;
                if retain {
                    collected.extend(batch);
                }
            }
            Ok(())
        };
        let outcome = run_hours();
        monitor.finish(self.config.buffer_capacity);
        *state = monitor.state;
        outcome?;
        Ok(MonitorReport {
            collected,
            ..monitor.segment
        })
    }

    /// Whether run-relative hour `hour_index` opens a switch round.
    fn switch_due(&self, hour_index: u64) -> bool {
        hour_index.is_multiple_of(self.config.switch_interval_hours.max(1))
    }

    /// The engine side of opening run-relative hour `hour_index`: selects
    /// the network with `select` if a switch is due (on `engine` *before*
    /// stepping), then steps `engine` into the hour. Returns the network
    /// and the absolute hour stepped through — what
    /// [`StreamMonitor::begin_hour_with`] takes.
    ///
    /// Telemetry lands on the calling thread, wherever that is: the
    /// `switch` span, the `monitor.switch_latency_ms` histogram and the
    /// `monitor.switch` / `sim.step_hour` trace phases, which are flushed
    /// to the trace sink before returning so a dedicated thread needs no
    /// teardown of its own.
    pub(crate) fn open_hour_with(
        &self,
        engine: &mut Engine,
        hour_index: u64,
        select: impl FnOnce(&Engine) -> PseudoHoneypotNetwork,
    ) -> (Option<PseudoHoneypotNetwork>, u64) {
        let network = self.switch_due(hour_index).then(|| {
            let switch_span = ph_telemetry::span("switch");
            let _switch_phase = ph_trace::phase("monitor.switch");
            let network = select(engine);
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
    /// It is the selection [`crate::step::EngineHours::next`] makes, so a
    /// run driven either way re-selects exactly as the other would.
    pub fn standard_networks(&self) -> impl FnMut(&Engine, u64) -> PseudoHoneypotNetwork + '_ {
        move |engine, round| self.select(engine, round)
    }

    /// Switch round `round`'s standard selection on `engine`.
    pub(crate) fn select(&self, engine: &Engine, round: u64) -> PseudoHoneypotNetwork {
        select_network(
            engine,
            &self.config.slots,
            &self.config.selector,
            self.config.seed.wrapping_add(round),
        )
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

/// One monitoring hour at a time: the switch → categorize → account
/// cycle every monitoring run goes through, for whoever delivers the
/// hour's tweets. [`Runner::run_segment`] drives it from an engine-side
/// filtered subscription; [`crate::step::HourStep`] — `sniff`'s and the
/// daemon's hour body — drives it from a plan built wherever the engine
/// runs and a delivery its caller owns.
///
/// [`begin_hour`](StreamMonitor::begin_hour) selects on and steps an
/// engine in place; [`begin_hour_with`](StreamMonitor::begin_hour_with)
/// applies work done elsewhere — for the daemon, on its *replica*'s
/// thread, a deterministic re-simulation stepped once per wire-marked
/// hour so that network selection and REST lookups see exactly the state
/// the producer's engine had. Either way the journal, series, and
/// checkpoint stream come from this one cycle, so `inspect` works on a
/// serve store unchanged.
///
/// Categorization drops tweets from outside the node set — the same
/// predicate the filtered subscription applies engine-side — so a
/// firehose delivery and a filtered one collect the identical set.
pub struct StreamMonitor {
    runner: Runner,
    total_hours: u64,
    state: RunState,
    /// Counters of this segment; `collected` stays empty, because
    /// [`finish_hour`](StreamMonitor::finish_hour) hands each batch back.
    segment: MonitorReport,
    /// Node set of the current switch round.
    membership: HashMap<AccountId, SampleAttribute>,
    /// Absolute engine hour of the open hour.
    hour: u64,
    segment_collected: u64,
    mid_hour: bool,
}

impl StreamMonitor {
    /// A monitor starting from hour 0 of a `total_hours` run.
    pub fn new(runner: Runner, total_hours: u64) -> Self {
        Self::resume(runner, total_hours, RunState::default())
    }

    /// Resumes from a checkpointed cursor: the restored membership
    /// re-arms categorization mid-switch-interval, as
    /// [`Runner::run_segment`] re-points its streaming filter.
    pub fn resume(runner: Runner, total_hours: u64, state: RunState) -> Self {
        Self {
            runner,
            total_hours,
            membership: state.membership.iter().copied().collect(),
            state,
            segment: MonitorReport::default(),
            hour: 0,
            segment_collected: 0,
            mid_hour: false,
        }
    }

    /// The run cursor (checkpointed by the sink at every hour boundary).
    pub fn state(&self) -> &RunState {
        &self.state
    }

    /// The counters accumulated by this monitor instance (one segment).
    /// Its `collected` is always empty: every batch goes to the sink and
    /// back to the caller of [`finish_hour`](StreamMonitor::finish_hour).
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

    /// Opens the next hour on `engine` — selects if a switch is due, then
    /// steps — followed by
    /// [`begin_hour_with`](StreamMonitor::begin_hour_with). Call exactly
    /// once before each [`finish_hour`](StreamMonitor::finish_hour).
    ///
    /// # Panics
    ///
    /// Panics if the run is already complete or an hour is already open.
    pub fn begin_hour(&mut self, engine: &mut Engine) {
        let (runner, round) = (&self.runner, self.state.round);
        let (network, hour) =
            runner.open_hour_with(engine, self.state.next_hour, |e| runner.select(e, round));
        self.begin_hour_with(network, hour);
    }

    /// Opens the next hour from work done elsewhere: `network` is this
    /// hour's selection (present exactly when a switch round is due,
    /// selected for round [`RunState::round`]) and `hour` the absolute
    /// engine hour being collected. Applies the switch to the cursor —
    /// membership (sorted into the checkpointable cursor),
    /// `AttributeSwitch` journal event, node-hours for the coming
    /// interval — and arms categorization. The cursor only ever advances
    /// here and in [`finish_hour`](StreamMonitor::finish_hour).
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
        if let Some(network) = network {
            let state = &mut self.state;
            state.round += 1;
            self.membership = network.membership();
            state.membership = self.membership.iter().map(|(&a, &s)| (a, s)).collect();
            state.membership.sort_by_key(|&(a, _)| a.0);
            ph_telemetry::journal_emit(ph_telemetry::TelemetryEvent::AttributeSwitch {
                hour: hour_index,
                round: state.round - 1,
                nodes: self.membership.len() as u64,
            });
            let interval = self
                .runner
                .config
                .switch_interval_hours
                .max(1)
                .min(self.total_hours - hour_index) as f64;
            for (slot, count) in network.slot_sizes() {
                *self.segment.node_hours.entry(slot).or_insert(0.0) += count as f64 * interval;
            }
        }
        self.hour = hour;
        self.mid_hour = true;
    }

    /// Closes the hour opened by [`begin_hour`](StreamMonitor::begin_hour):
    /// categorizes the delivered tweets (through [`ph_exec::map`] on the
    /// caller's thread — one hash lookup a tweet costs less than a
    /// worker spawn, so the `monitor.categorize` stage never fans out),
    /// hands the batch and the advanced cursor to the sink,
    /// and accounts `shed` tweets dropped upstream this hour. Returns the
    /// categorized batch (the classifier's input).
    ///
    /// # Errors
    ///
    /// Propagates sink I/O failures.
    ///
    /// # Panics
    ///
    /// Panics if no hour is open.
    pub fn finish_hour<S: MonitorSink + ?Sized>(
        &mut self,
        delivered: Vec<Tweet>,
        shed: u64,
        sink: &mut S,
    ) -> std::io::Result<Vec<CollectedTweet>> {
        assert!(self.mid_hour, "finish_hour without begin_hour");
        self.mid_hour = false;
        let hour_index = self.state.next_hour;
        let (members, hour) = (&self.membership, self.hour);
        let batch: Vec<CollectedTweet> = ph_exec::map(
            &ExecConfig::sequential(),
            "monitor.categorize",
            delivered,
            |tweet: Tweet| Runner::categorize(tweet, members, hour),
        )
        .into_iter()
        .flatten()
        .collect();
        sink.on_batch(&batch)?;
        let collected = batch.len() as u64;
        ph_telemetry::histogram("monitor.tweets_per_hour", &per_hour_volume_buckets())
            .record(collected as f64);
        self.segment.hours += 1;
        self.segment.dropped += shed;
        self.segment_collected += collected;
        ph_telemetry::cached_counter!("monitor.tweets_collected").add(collected);
        ph_telemetry::series("monitor.collected").add(hour_index, collected as f64);
        ph_telemetry::series("monitor.dropped").add(hour_index, shed as f64);
        ph_telemetry::journal_emit(ph_telemetry::TelemetryEvent::HourTick {
            hour: hour_index,
            collected,
            dropped: shed,
        });
        if ph_telemetry::progress_enabled() {
            ph_telemetry::progress_update(&format!(
                "{} hour {}/{} · {} tweets · {} shed",
                ph_telemetry::progress_bar(hour_index + 1, self.total_hours, 24),
                hour_index + 1,
                self.total_hours,
                self.segment_collected,
                self.segment.dropped
            ));
        }
        self.state.next_hour = hour_index + 1;
        sink.on_hour(&self.state, &self.segment)?;
        Ok(batch)
    }

    /// End-of-segment telemetry: total-dropped counter, shed warning,
    /// per-slot node-hour gauges. Call once when the segment ends —
    /// whether the run completed, was stopped, or failed.
    pub fn finish(&mut self, queue_capacity: usize) {
        ph_telemetry::progress_done();
        ph_telemetry::cached_counter!("monitor.tweets_dropped").add(self.segment.dropped);
        if self.segment.dropped > 0 {
            ph_telemetry::log_warn!(
                "streaming buffer shed {} tweets (capacity {})",
                self.segment.dropped,
                queue_capacity
            );
        }
        for (slot, node_hours) in &self.segment.node_hours {
            ph_telemetry::gauge(&format!("monitor.node_hours.{slot}")).set(*node_hours);
        }
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

    /// Steps `monitor` through up to `hours` hours the way the daemon
    /// does — firehose tap, explicit hour boundaries — and returns its
    /// segment report with the returned batches as `collected`.
    fn stream_monitor_hours(
        monitor: &mut StreamMonitor,
        e: &mut Engine,
        tap: (
            &ph_twitter_sim::api::StreamingApi,
            ph_twitter_sim::api::SubscriptionId,
        ),
        hours: u64,
    ) -> MonitorReport {
        let mut collected = Vec::new();
        for _ in 0..hours {
            if monitor.complete() {
                break;
            }
            monitor.begin_hour(e);
            let delivered = tap.0.poll(tap.1).unwrap();
            collected.extend(monitor.finish_hour(delivered, 0, &mut MemorySink).unwrap());
        }
        MonitorReport {
            collected,
            ..monitor.segment().clone()
        }
    }

    /// Drives a [`StreamMonitor`] over a whole run and returns its cursor
    /// and segment report.
    fn stream_monitor_run(runner: Runner, hours: u64) -> (RunState, MonitorReport) {
        let mut e = engine();
        let streaming = e.streaming();
        let fh = streaming.firehose_with_capacity(ph_twitter_sim::api::DEFAULT_QUEUE_CAPACITY);
        let mut monitor = StreamMonitor::new(runner, hours);
        let report = stream_monitor_hours(&mut monitor, &mut e, (&streaming, fh), hours);
        monitor.finish(0);
        (monitor.state().clone(), report)
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
        let mut merged = stream_monitor_hours(&mut first, &mut e1, (&s1, fh1), 4);
        let state = first.state().clone();
        drop(first);
        drop(e1);

        // Resume on a fast-forwarded engine (firehose opened *after* the
        // fast-forward so replayed hours don't leak into the tap).
        let mut e2 = engine();
        e2.run_hours(state.next_hour);
        let s2 = e2.streaming();
        let fh2 = s2.firehose_with_capacity(ph_twitter_sim::api::DEFAULT_QUEUE_CAPACITY);
        let mut resumed = StreamMonitor::resume(runner, 10, state);
        merged.merge(&stream_monitor_hours(&mut resumed, &mut e2, (&s2, fh2), 10));
        assert_eq!(merged, full);
    }

    #[test]
    fn a_sink_error_closes_the_subscription() {
        struct FailAt(u64);
        impl MonitorSink for FailAt {
            fn on_tweet(&mut self, _c: &CollectedTweet) -> std::io::Result<()> {
                Ok(())
            }
            fn on_hour(&mut self, state: &RunState, _s: &MonitorReport) -> std::io::Result<()> {
                if state.next_hour == self.0 {
                    return Err(std::io::Error::other("disk full"));
                }
                Ok(())
            }
        }
        let runner = small_runner(25);
        let mut e = engine();
        let before = e.streaming().subscription_count();
        let mut state = RunState::default();
        let err = runner
            .run_segment(
                &mut e,
                &mut state,
                12,
                u64::MAX,
                runner.standard_networks(),
                &mut FailAt(2),
            )
            .expect_err("the sink failed at hour 2");
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(e.streaming().subscription_count(), before);
        // The cursor reads as the failed hour left it: advanced past it,
        // the switch round of hour 1 applied.
        assert_eq!(state.next_hour, 2);
        assert_eq!(state.round, 2);
        assert!(!state.membership.is_empty());
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
