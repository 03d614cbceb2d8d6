//! The four workloads and their frozen sizes.
//!
//! Sizes were tuned once on the 2-core reference box so that each
//! workload spends its time where its "why" says (the shares are in
//! README.md) and so that one run — reference pass, set-up repeats and
//! `--seconds` of measurement — fits the pipeline's per-run budget.
//! Changing a size changes what every stored result means: it is a
//! change to the benchmark, not a tuning knob.

use ph_core::monitor::RunnerConfig;
use ph_store::manifest::NO_TASTE_FLIP;
use ph_store::Manifest;
use ph_twitter_sim::api::DEFAULT_QUEUE_CAPACITY;
use ph_twitter_sim::engine::SimConfig;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GtTrain,
    SniffDurable,
    ServePaced,
    ServeFlood,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::GtTrain,
        Workload::SniffDurable,
        Workload::ServePaced,
        Workload::ServeFlood,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GtTrain => "gt_train",
            Workload::SniffDurable => "sniff_durable",
            Workload::ServePaced => "serve_paced",
            Workload::ServeFlood => "serve_flood",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The simulated world every run observes: `ExperimentScale::small()`'s
/// seed, the one the BENCH_* history was taken on. `--seed` does not
/// reseed the world; see [`Plan::sim_config`].
const WORLD_SEED: u64 = 42;

/// Open-loop rate of `serve_paced`, events per second: about a quarter
/// of the ~52 000 the reference box sustains unpaced (`serve_flood`).
/// The smoke population posts a tenth of the frames per hour, so its
/// rate is cut likewise to keep an hour longer than its processing.
const PACED_RATE: f64 = 13_000.0;
const SMOKE_PACED_RATE: f64 = 1_300.0;

/// Monitored hours fed per second of `--seconds`. `serve_paced` follows
/// from its rate (an hour of the full population is ~1 810 frames);
/// `serve_flood` is sized so the reference box drains it in about two
/// thirds of `--seconds` — generating and checking a longer stream
/// would not fit a run.
const PACED_HOURS_PER_SECOND: f64 = 7.2;
const FLOOD_HOURS_PER_SECOND: f64 = 20.0;

/// A traced serve run feeds a third of the hours: its socket session is
/// there only for what shows from outside (generator lag, backlog), and
/// the replay passes need the rest of the run.
const TRACED_SERVE_SHARE: f64 = 1.0 / 3.0;

/// Everything that fixes one run's inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub smoke: bool,
    pub organic: usize,
    pub campaigns: usize,
    pub per_campaign: usize,
    /// Ground-truth window the detector is trained on.
    pub gt_hours: u64,
    /// Monitored (sniffed) hours after it.
    pub hours: u64,
    /// Workers of every `ph-exec` stage: `min(nproc, 4)`.
    pub threads: usize,
    /// Events per second the generator sends at; `None` is unpaced.
    pub rate: Option<f64>,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, seconds: u64, trace: bool, smoke: bool) -> Self {
        // The population of `ph_bench::ExperimentScale::small()`, so
        // numbers stay comparable with the BENCH_* history; `--smoke`
        // uses `perf bench --quick`'s.
        let scale = ph_bench::ExperimentScale::small();
        let (organic, campaigns, per_campaign) = if smoke {
            (300, 2, 8)
        } else {
            (scale.organic, scale.campaigns, scale.per_campaign)
        };
        let share = if trace { TRACED_SERVE_SHARE } else { 1.0 };
        let per_second = |hours: f64| (hours * seconds as f64 * share).round().max(2.0) as u64;
        let (gt_hours, hours) = match (smoke, workload) {
            (true, _) => (4, 5),
            (false, Workload::GtTrain) => (18, 3),
            (false, Workload::SniffDurable) => (5, 90),
            (false, Workload::ServePaced) => (12, per_second(PACED_HOURS_PER_SECOND)),
            (false, Workload::ServeFlood) => (12, per_second(FLOOD_HOURS_PER_SECOND)),
        };
        Self {
            workload,
            seed,
            smoke,
            organic,
            campaigns,
            per_campaign,
            gt_hours,
            hours,
            threads: crate::sys::nproc().min(4),
            rate: (workload == Workload::ServePaced).then_some(if smoke {
                SMOKE_PACED_RATE
            } else {
                PACED_RATE
            }),
        }
    }

    /// The world is the benchmark's fixed data set; `--seed` picks which
    /// part of it the sniffer sees (the monitor's node-selection
    /// rotation, [`Plan::runner_config`]) and so every tweet that flows
    /// through labeling, training, classification and the store.
    /// Reseeding the eight-campaign world as well moves detection
    /// quality by several percent from seed to seed, which would force
    /// the quality bounds wider than any regression they are there to
    /// catch.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            seed: WORLD_SEED,
            num_organic: self.organic,
            num_campaigns: self.campaigns,
            accounts_per_campaign: self.per_campaign,
            ..Default::default()
        }
    }

    pub fn runner_config(&self) -> RunnerConfig {
        RunnerConfig {
            seed: self.seed,
            ..Default::default()
        }
    }

    /// The store manifest of this run, as `sniff --store` and `serve`
    /// pin it.
    pub fn manifest(&self) -> Manifest {
        Manifest {
            sim_seed: WORLD_SEED,
            organic: self.organic as u64,
            campaigns: self.campaigns as u64,
            per_campaign: self.per_campaign as u64,
            runner_seed: self.seed,
            gt_hours: self.gt_hours,
            hours: self.hours,
            buffer_capacity: DEFAULT_QUEUE_CAPACITY as u64,
            taste_flip: NO_TASTE_FLIP,
        }
    }
}
