//! The paper's hourly cycle (§III–IV) — re-select the network, collect
//! what crossed it, classify that hour's tweets — written once:
//!
//! - [`EngineHours`]: the engine side of an hour (select when due, step,
//!   truth, new profiles) as an [`HourPlan`]. Its subscription is
//!   `sniff`'s delivery; the daemon's replica reads only the truth;
//! - [`HourStep::close`]: the I/O-free hour body. Each caller owns its
//!   delivery (a subscription, a socket queue), threads and clocks;
//! - [`replay_stored`]: the stored hours a resumed daemon or `sniff`, and
//!   `replay`, classify again to rebuild the classifier's stream state.

use std::collections::HashMap;
use std::io;

use ph_exec::ExecConfig;
use ph_twitter_sim::api::SubscriptionId;
use ph_twitter_sim::engine::Engine;
use ph_twitter_sim::tweet::{Tweet, TweetId};
use ph_twitter_sim::{Profile, StreamingApi};

use crate::detector::{StreamClassifier, Verdict};
use crate::monitor::{CollectedTweet, MonitorSink, RunState, Runner, StreamMonitor};
use crate::network::PseudoHoneypotNetwork;

/// One hour of engine work, done wherever the engine lives.
#[derive(Debug)]
pub struct HourPlan {
    /// Absolute engine hour stepped through.
    pub hour: u64,
    /// The switch round's network, when this hour opens one.
    pub network: Option<PseudoHoneypotNetwork>,
    /// Ground truth of every tweet the engine-side tap saw this hour.
    pub truth: HashMap<TweetId, bool>,
    /// Profiles of the accounts created this hour, in id order.
    pub new_profiles: Vec<Profile>,
}

/// The engine side of each monitored hour, over a subscription to the
/// tweets that cross the node set. Dropping it closes the subscription.
#[derive(Debug)]
pub struct EngineHours {
    streaming: StreamingApi,
    tap: SubscriptionId,
    /// The tap's cumulative shed count at the last poll.
    dropped: u64,
    /// Accounts whose profiles earlier plans carried.
    known_accounts: usize,
}

impl EngineHours {
    /// Opens a subscription of `capacity` tweets where `engine` stands,
    /// pointed at `state`'s membership (a run resumed mid-switch-interval)
    /// until the next switch re-points it.
    pub fn new(engine: &Engine, capacity: usize, state: &RunState) -> Self {
        let streaming = engine.streaming();
        let members = state.membership.iter().map(|&(a, _)| a);
        Self {
            tap: streaming.track_mentions_with_capacity(members, capacity),
            streaming,
            dropped: 0,
            known_accounts: engine.rest().num_accounts(),
        }
    }

    /// [`Runner::open_hour_with`], re-pointing the subscription at the
    /// selected network before the step, then polls it: the hour's tweets
    /// and how many it shed this hour.
    pub(crate) fn open_with(
        &mut self,
        runner: &Runner,
        engine: &mut Engine,
        hour_index: u64,
        select: impl FnOnce(&Engine) -> PseudoHoneypotNetwork,
    ) -> (Option<PseudoHoneypotNetwork>, u64, Vec<Tweet>, u64) {
        let (network, hour) = runner.open_hour_with(engine, hour_index, |e| {
            let network = select(e);
            self.streaming
                .set_filter(self.tap, network.account_ids())
                .expect("subscription is open");
            network
        });
        let tweets = self.streaming.poll(self.tap).expect("subscription is open");
        let dropped = self
            .streaming
            .dropped(self.tap)
            .expect("subscription is open");
        let shed = dropped - std::mem::replace(&mut self.dropped, dropped);
        (network, hour, tweets, shed)
    }

    /// The plan of run-relative hour `hour_index` under switch round
    /// `round`'s standard selection, with the tap's tweets of that hour
    /// and its shed count.
    pub fn next(
        &mut self,
        runner: &Runner,
        engine: &mut Engine,
        hour_index: u64,
        round: u64,
    ) -> (HourPlan, Vec<Tweet>, u64) {
        let (network, hour, tweets, shed) =
            self.open_with(runner, engine, hour_index, |e| runner.select(e, round));
        let oracle = engine.ground_truth();
        let truth = tweets.iter().map(|t| (t.id, oracle.is_spam(t))).collect();
        let new_profiles: Vec<Profile> = engine
            .rest()
            .profiles()
            .skip(self.known_accounts)
            .cloned()
            .collect();
        self.known_accounts += new_profiles.len();
        (
            HourPlan {
                hour,
                network,
                truth,
                new_profiles,
            },
            tweets,
            shed,
        )
    }
}

impl Drop for EngineHours {
    fn drop(&mut self) {
        self.streaming.close(self.tap);
    }
}

/// The hour loop's state: monitor, classifier and a copy of the engine's
/// profile directory. Profiles never change and accounts are only
/// appended, so extending the copy from each plan keeps it exact.
pub struct HourStep {
    /// The run cursor and this segment's counters.
    pub monitor: StreamMonitor,
    /// The stream classifier (and its decision log, when it explains).
    pub classifier: StreamClassifier,
    profiles: Vec<Profile>,
    exec: ExecConfig,
}

impl HourStep {
    /// The profile copy is taken from `engine`, which must stand where
    /// the first plan starts.
    pub fn new(
        monitor: StreamMonitor,
        classifier: StreamClassifier,
        engine: &Engine,
        exec: ExecConfig,
    ) -> Self {
        Self {
            monitor,
            classifier,
            profiles: engine.rest().profiles().cloned().collect(),
            exec,
        }
    }

    /// Closes one hour: applies `plan` ([`StreamMonitor::begin_hour_with`]),
    /// re-stamps the evaluation sidecars of `delivered` from its truth,
    /// extends the profile copy, accounts the hour into `sink`
    /// ([`StreamMonitor::finish_hour`]) and classifies the batch from the
    /// copy. Returns the batch and its verdicts.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O failures.
    pub fn close<S: MonitorSink + ?Sized>(
        &mut self,
        plan: HourPlan,
        mut delivered: Vec<Tweet>,
        shed: u64,
        sink: &mut S,
    ) -> io::Result<(Vec<CollectedTweet>, Vec<Verdict>)> {
        self.monitor.begin_hour_with(plan.network, plan.hour);
        for tweet in &mut delivered {
            let spam = plan.truth.get(&tweet.id).copied().unwrap_or(false);
            tweet.set_evaluation_sidecar_spam(spam);
        }
        self.profiles.extend(plan.new_profiles);
        let batch = self.monitor.finish_hour(delivered, shed, sink)?;
        let verdicts = self
            .classifier
            .classify_hour(&batch, self.profiles.as_slice(), &self.exec);
        Ok((batch, verdicts))
    }
}

/// Steps `engine` across `hours` stored hours, classifying each hour's
/// `records` (grouped by engine hour) to rebuild the classifier's
/// stream-order-dependent state. Returns the records those hours cover —
/// any past them are reported and dropped — and their verdicts.
pub fn replay_stored(
    engine: &mut Engine,
    classifier: &mut StreamClassifier,
    exec: &ExecConfig,
    mut records: Vec<CollectedTweet>,
    hours: u64,
) -> (Vec<CollectedTweet>, Vec<Verdict>) {
    let mut verdicts = Vec::with_capacity(records.len());
    for _ in 0..hours {
        let hour = engine.now().whole_hours();
        engine.step_hour();
        let base = verdicts.len();
        let end = base
            + records[base..]
                .iter()
                .take_while(|record| record.hour == hour)
                .count();
        verdicts.extend(classifier.classify_hour(&records[base..end], engine, exec));
    }
    if verdicts.len() != records.len() {
        ph_telemetry::log_warn!(
            "{} stored records fall outside the checkpointed hours",
            records.len() - verdicts.len()
        );
        records.truncate(verdicts.len());
    }
    (records, verdicts)
}
