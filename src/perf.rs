//! The `perf` subcommand: the continuous-benchmark harness and its
//! regression gate.
//!
//! `perf bench` runs a fixed matrix of sequential micro-scenarios — the
//! monitor hour loop, feature extraction (pure + finish), clustering
//! sketches and merge, Random-Forest train/classify, store append/read,
//! and the daemon's ingest path (wire decode + bounded-queue churn) —
//! each with warmup iterations followed by repeated timed samples, and
//! writes one
//! `BENCH_<scenario>.json` per scenario (schema documented in
//! `ph_prof::bench`). `perf diff OLD NEW` compares two such files with
//! the noise-aware thresholds in `ph_prof::diff` and exits 4 when the
//! candidate regressed, which is what lets `ci.sh` gate on performance.
//! End-to-end wall-clock, thread scaling and serve latency are the
//! benchmark's to measure (`benchmark/`), not this matrix's.
//!
//! `perf critical-path` analyzes a timeline recorded with `--trace`
//! (from a store's `trace.log` via `--store DIR`, or a standalone
//! `trace.log` path): per-stage busy/stall/idle wall-clock fractions,
//! overall parallel efficiency, and the ranked serialized-phase report
//! that answers why `--threads N` barely beats `--threads 1`.
//!
//! Scenario inputs are generated deterministically from `--seed`
//! (default 42), so two runs on the same machine measure identical
//! work. `--quick` shrinks every scenario to CI-smoke size; the default
//! "full" mode uses `ph_bench::ExperimentScale::small()` so a full
//! matrix still finishes in minutes.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ph_exec::ExecConfig;
use ph_prof::{bench_file_name, compare, BenchMeta, BenchReport, DiffConfig, Verdict};
use pseudo_honeypot::core::detector::{build_training_data_with, DetectorConfig, SpamDetector};
use pseudo_honeypot::core::features::{pure_batch_matrix, FeatureExtractor, DEFAULT_TAU};
use pseudo_honeypot::core::labeling::clustering::{
    apply_with, merge_candidate_pairs, ClusteringConfig,
};
use pseudo_honeypot::core::labeling::pipeline::{label_collection_with, PipelineConfig};
use pseudo_honeypot::core::labeling::LabeledCollection;
use pseudo_honeypot::core::monitor::{CollectedTweet, Runner, RunnerConfig};
use pseudo_honeypot::serve::IngestQueue;
use pseudo_honeypot::sim::engine::{Engine, SimConfig};
use pseudo_honeypot::sim::wire::{read_stream_frame, write_stream_frame, StreamFrame};
use pseudo_honeypot::store::{encode_collected, CollectedReader, SegmentLog};

use crate::cli::Args;
use crate::die;

/// Process exit code for a detected perf regression (distinct from
/// 1 = error, 2 = usage, 3 = simulated crash).
const EXIT_REGRESSION: i32 = 4;

/// Scenario input sizes, derived from the mode (`--quick` vs full).
struct Sizes {
    organic: usize,
    campaigns: usize,
    per_campaign: usize,
    gt_hours: u64,
    hours: u64,
    forest_trees: usize,
    seed: u64,
    mode: &'static str,
}

impl Sizes {
    fn quick(seed: u64) -> Self {
        Sizes {
            organic: 300,
            campaigns: 2,
            per_campaign: 8,
            gt_hours: 4,
            hours: 5,
            forest_trees: 5,
            seed,
            mode: "quick",
        }
    }

    fn full(seed: u64) -> Self {
        // Anchor the full mode to the bench crate's CI scale so `perf
        // bench` and the table/figure binaries measure the same work.
        let scale = ph_bench::ExperimentScale::small();
        Sizes {
            organic: scale.organic,
            campaigns: scale.campaigns,
            per_campaign: scale.per_campaign,
            gt_hours: scale.gt_hours,
            hours: scale.hours,
            forest_trees: scale.forest_trees,
            seed,
            mode: "full",
        }
    }

    fn sim_config(&self) -> SimConfig {
        SimConfig {
            seed: self.seed,
            num_organic: self.organic,
            num_campaigns: self.campaigns,
            accounts_per_campaign: self.per_campaign,
            ..Default::default()
        }
    }

    fn detector_config(&self) -> DetectorConfig {
        DetectorConfig {
            forest: ph_ml::forest::RandomForestConfig {
                num_trees: self.forest_trees,
                ..DetectorConfig::default().forest
            },
            ..Default::default()
        }
    }
}

/// Entry point for `perf <bench|diff|critical-path> …`.
pub fn run(args: &Args) {
    match args.positionals.first().map(String::as_str) {
        Some("bench") => bench(args),
        Some("diff") => diff(args),
        Some("critical-path") => critical_path(args),
        Some(other) => {
            eprintln!(
                "error: unknown perf subcommand '{other}' (expected 'bench', 'diff', or 'critical-path')"
            );
            std::process::exit(2);
        }
        None => {
            eprintln!("usage: pseudo-honeypot perf bench [--quick] [--only A,B] [--out-dir DIR]");
            eprintln!("       pseudo-honeypot perf diff OLD.json NEW.json");
            eprintln!("       pseudo-honeypot perf critical-path (--store DIR | TRACE.log)");
            std::process::exit(2);
        }
    }
}

// ---------------------------------------------------------------------------
// perf critical-path
// ---------------------------------------------------------------------------

/// Loads a recorded timeline — from a store directory's `trace.log`
/// (`--store DIR`) or an explicit `trace.log` path — and prints the
/// critical-path analysis. Exit 0 on success, 1 when the trace is
/// missing or empty, 2 on usage errors.
fn critical_path(args: &Args) {
    let log = match (args.options.get("store"), args.positionals.get(1)) {
        (Some(dir), _) => {
            let dir = Path::new(dir);
            let log = pseudo_honeypot::store::read_trace(dir)
                .unwrap_or_else(|e| die(&format!("cannot read trace in {}", dir.display()), e));
            if log.events.is_empty() {
                eprintln!(
                    "error: no timeline trace in {} — record one with: sniff --store {} --trace t.json",
                    dir.display(),
                    dir.display()
                );
                std::process::exit(1);
            }
            log
        }
        (None, Some(path)) => {
            let path = Path::new(path);
            pseudo_honeypot::store::read_trace_file(path)
                .unwrap_or_else(|e| die(&format!("cannot read {}", path.display()), e))
        }
        (None, None) => {
            eprintln!("usage: pseudo-honeypot perf critical-path (--store DIR | TRACE.log)");
            std::process::exit(2);
        }
    };
    print_timeline(&ph_trace::timeline::analyze(&log));
}

/// Renders a [`ph_trace::timeline::TimelineReport`]: the overall
/// parallel-efficiency figure, per-stage busy/idle fractions, the
/// ranked serialized-phase list, and the top-level chain bounding the
/// run. Shared by `perf critical-path` and `inspect --timeline`.
pub fn print_timeline(r: &ph_trace::timeline::TimelineReport) {
    let ms = |us: u64| us as f64 / 1_000.0;
    println!("\ntimeline ({} events dropped while recording):", r.dropped);
    println!(
        "  run wall {:.1} ms, max workers {}, worker busy {:.1} ms",
        ms(r.run_wall_us),
        r.max_workers,
        ms(r.total_busy_us)
    );
    println!(
        "  parallel efficiency {:.3}  =  {:.1} ms busy / ({:.1} ms wall x {} workers)",
        r.parallel_efficiency,
        ms(r.total_busy_us),
        ms(r.run_wall_us),
        r.max_workers
    );

    if !r.stages.is_empty() {
        println!("\nper-stage wall-clock split:");
        println!(
            "  {:<28} {:>5} {:>4} {:>10} {:>7} {:>7} {:>8}",
            "stage", "inv", "wrk", "wall ms", "busy", "idle", "eff.par"
        );
        for s in &r.stages {
            println!(
                "  {:<28} {:>5} {:>4} {:>10.1} {:>6.1}% {:>6.1}% {:>8.2}",
                s.name,
                s.invocations,
                s.workers,
                ms(s.wall_us),
                100.0 * s.busy_frac(),
                100.0 * s.idle_frac(),
                s.effective_parallelism()
            );
        }
    }

    if !r.phases.is_empty() {
        println!("\nwhy t0 \u{2248} t1 — phases ranked by exclusive serialized time:");
        println!(
            "  {:<28} {:>5} {:>10} {:>10} {:>8}  verdict",
            "phase", "inv", "wall ms", "excl ms", "par"
        );
        for p in &r.phases {
            println!(
                "  {:<28} {:>5} {:>10.1} {:>10.1} {:>8.2}  {}",
                p.name,
                p.invocations,
                ms(p.wall_us),
                ms(p.exclusive_us),
                p.parallelism(),
                if p.serialized() {
                    "serialized"
                } else {
                    "parallel"
                }
            );
        }
    }

    if !r.chain.is_empty() {
        println!("\ncritical chain (top-level phases in run order):");
        for link in &r.chain {
            println!(
                "  {:>10.1} ms  {:<28} (+{:.1} ms into the run)",
                ms(link.dur_us),
                link.name,
                ms(link.start_us)
            );
        }
        println!(
            "  {:>10.1} ms  (wall outside any phase)",
            ms(r.uncovered_us)
        );
    }
}

// ---------------------------------------------------------------------------
// perf diff
// ---------------------------------------------------------------------------

fn load_report(path: &str) -> BenchReport {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}"), e));
    BenchReport::from_json(&text).unwrap_or_else(|e| die(&format!("cannot parse {path}"), e))
}

fn diff(args: &Args) {
    let (Some(old_path), Some(new_path)) = (args.positionals.get(1), args.positionals.get(2))
    else {
        eprintln!("usage: pseudo-honeypot perf diff OLD.json NEW.json");
        std::process::exit(2);
    };
    let old = load_report(old_path);
    let new = load_report(new_path);
    let comparison = compare(&old, &new, &DiffConfig::default())
        .unwrap_or_else(|e| die("cannot compare bench reports", e));
    println!(
        "{}: {:.3} ms -> {:.3} ms  change {:+.1}%  threshold ±{:.1}%  [{}]",
        comparison.scenario,
        comparison.old_median,
        comparison.new_median,
        comparison.change_ratio * 100.0,
        comparison.threshold * 100.0,
        comparison.verdict
    );
    if comparison.verdict == Verdict::Regression {
        eprintln!(
            "error: perf regression in '{}' ({:+.1}% over a ±{:.1}% noise threshold)",
            comparison.scenario,
            comparison.change_ratio * 100.0,
            comparison.threshold * 100.0
        );
        std::process::exit(EXIT_REGRESSION);
    }
}

// ---------------------------------------------------------------------------
// perf bench
// ---------------------------------------------------------------------------

/// Warmup-then-sample measurement of one closure, in milliseconds.
fn measure<F: FnMut()>(warmup: u64, samples: u64, mut f: F) -> Vec<f64> {
    for _ in 0..warmup {
        f();
    }
    let mut out = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let start = Instant::now();
        f();
        out.push(start.elapsed().as_secs_f64() * 1_000.0);
    }
    out
}

/// Deterministic inputs shared by the component scenarios, built once,
/// sequentially,
/// outside any timed region: a ground-truth phase (training matrix +
/// detector) followed by a measurement-phase collection.
struct Fixture {
    engine: Engine,
    dataset: ph_ml::data::Dataset,
    detector: SpamDetector,
    collected: Vec<CollectedTweet>,
}

fn build_fixture(sizes: &Sizes) -> Fixture {
    let mut engine = Engine::new(sizes.sim_config());
    let runner = Runner::new(RunnerConfig {
        seed: sizes.seed,
        ..Default::default()
    });
    let train = runner.run(&mut engine, sizes.gt_hours);
    let exec = ExecConfig::sequential();
    let ground_truth =
        label_collection_with(&train.collected, &engine, &PipelineConfig::default(), &exec);
    let (dataset, _) = build_training_data_with(
        &train.collected,
        &ground_truth.labels,
        &engine,
        DEFAULT_TAU,
        &exec,
    );
    let detector = SpamDetector::train(&sizes.detector_config(), &dataset);
    let report = runner.run(&mut engine, sizes.hours);
    Fixture {
        engine,
        dataset,
        detector,
        collected: report.collected,
    }
}

/// The fixed scenario matrix. Every scenario name doubles as the
/// baseline file name via [`bench_file_name`].
const SCENARIOS: &[&str] = &[
    "monitor_hour_loop",
    "feature_extraction",
    "clustering_sketches",
    "rf_train",
    "rf_classify",
    "rf_classify_batch",
    "cluster_merge",
    "store_append",
    "store_read",
    "serve_ingest",
];

fn scratch_dir(label: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("ph-perf-{label}-{}-{seed}", std::process::id()))
}

fn run_scenario(
    name: &str,
    sizes: &Sizes,
    fixture: Option<&Fixture>,
    warmup: u64,
    samples: u64,
) -> Vec<f64> {
    let exec = ExecConfig::sequential();
    let fx = || fixture.expect("fixture prepared for fixture-backed scenarios");
    match name {
        "monitor_hour_loop" => measure(warmup, samples, || {
            // Fresh engine per iteration: the hour loop's cost includes
            // simulator advancement, exactly as a sniff run pays it.
            let mut engine = Engine::new(sizes.sim_config());
            let runner = Runner::with_exec(
                RunnerConfig {
                    seed: sizes.seed,
                    ..Default::default()
                },
                exec.clone(),
            );
            black_box(runner.run(&mut engine, sizes.gt_hours).collected.len());
        }),
        "feature_extraction" => {
            let fixture = fx();
            measure(warmup, samples, || {
                let mut matrix =
                    pure_batch_matrix(&fixture.collected, &fixture.engine.rest(), &exec);
                let mut extractor = FeatureExtractor::with_tau(DEFAULT_TAU);
                let mut acc = 0.0f64;
                for (i, collected) in fixture.collected.iter().enumerate() {
                    let row = matrix.row_mut(i);
                    extractor.finish_into(collected, row);
                    acc += row[0];
                }
                black_box(acc);
            })
        }
        "clustering_sketches" => {
            let fixture = fx();
            measure(warmup, samples, || {
                let mut labels = LabeledCollection {
                    tweet_labels: vec![None; fixture.collected.len()],
                    ..Default::default()
                };
                apply_with(
                    &fixture.collected,
                    &fixture.engine.rest(),
                    &ClusteringConfig::default(),
                    &exec,
                    &mut labels,
                );
                black_box(labels.num_spam());
            })
        }
        "rf_train" => {
            let fixture = fx();
            measure(warmup, samples, || {
                black_box(SpamDetector::train(
                    &sizes.detector_config(),
                    &fixture.dataset,
                ));
            })
        }
        "rf_classify" => {
            let fixture = fx();
            measure(warmup, samples, || {
                let outcome =
                    fixture
                        .detector
                        .classify_batch(&fixture.collected, &fixture.engine, &exec);
                black_box(outcome.predictions.len());
            })
        }
        "rf_classify_batch" => {
            // The flat-forest batch predict in isolation: train once
            // outside the timed region, then time `predict_batch` alone
            // over the dataset's own row-major matrix.
            let fixture = fx();
            let forest = ph_ml::forest::RandomForest::fit(
                &sizes.detector_config().forest,
                &fixture.dataset,
                sizes.seed,
            );
            let flat = ph_ml::flat::FlatForest::from_forest(&forest);
            let n_rows = fixture.dataset.len();
            measure(warmup, samples, || {
                let probs = flat.predict_batch(fixture.dataset.values(), n_rows);
                black_box(probs.len());
            })
        }
        "cluster_merge" => {
            // The parallel pairwise-verify + union-find merge in
            // isolation, over a deterministic synthetic candidate-pair
            // stream (ring plus seeded long-range chords) so the scenario
            // measures merge mechanics, not sketch construction.
            let universe = 4_096usize;
            let mut pairs = Vec::new();
            let mut x = sizes.seed | 1;
            for i in 0..universe {
                pairs.push((i, (i + 1) % universe));
                // xorshift64 chord endpoints.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                pairs.push((i, (x as usize) % universe));
            }
            measure(warmup, samples, || {
                let mut uf = ph_sketch::UnionFind::new(universe);
                merge_candidate_pairs(
                    &exec,
                    "clustering.bench_merge",
                    universe,
                    pairs.clone(),
                    |i, j| (i + j) % 3 != 0,
                    &mut uf,
                );
                black_box(uf.component_count());
            })
        }
        "store_append" => {
            let fixture = fx();
            let payloads: Vec<Vec<u8>> = fixture.collected.iter().map(encode_collected).collect();
            let dir = scratch_dir("append", sizes.seed);
            let result = measure(warmup, samples, || {
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir).expect("scratch dir");
                let mut log =
                    SegmentLog::create(&dir, 8 * 1024 * 1024).expect("segment log create");
                log.append_batch(&payloads).expect("append");
                log.sync().expect("sync");
            });
            let _ = std::fs::remove_dir_all(&dir);
            result
        }
        "store_read" => {
            let fixture = fx();
            let dir = scratch_dir("read", sizes.seed);
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("scratch dir");
            {
                let payloads: Vec<Vec<u8>> =
                    fixture.collected.iter().map(encode_collected).collect();
                let mut log =
                    SegmentLog::create(&dir, 8 * 1024 * 1024).expect("segment log create");
                log.append_batch(&payloads).expect("append");
                log.sync().expect("sync");
            }
            let result = measure(warmup, samples, || {
                let reader = CollectedReader::open(&dir).expect("reader");
                let mut count = 0usize;
                for record in reader {
                    black_box(record.expect("stored record readable"));
                    count += 1;
                }
                assert_eq!(count, fixture.collected.len(), "short read");
            });
            let _ = std::fs::remove_dir_all(&dir);
            result
        }
        "serve_ingest" => {
            let fixture = fx();
            // The daemon's ingest hot path, isolated from sockets: one
            // wire stream pre-encoded outside the timed region, then per
            // sample a full decode with every frame pushed through (and
            // popped back out of) the shedding bounded queue.
            let mut wire = Vec::new();
            for collected in &fixture.collected {
                write_stream_frame(&mut wire, &StreamFrame::Tweet(collected.tweet.clone()))
                    .expect("wire encode");
            }
            write_stream_frame(&mut wire, &StreamFrame::Shutdown).expect("wire encode");
            measure(warmup, samples, || {
                let queue = IngestQueue::new(pseudo_honeypot::sim::api::DEFAULT_QUEUE_CAPACITY);
                let mut reader = wire.as_slice();
                let mut frames = 0usize;
                while let Some(frame) = read_stream_frame(&mut reader).expect("wire decode") {
                    queue.push(frame);
                    black_box(queue.pop_timeout(std::time::Duration::ZERO));
                    frames += 1;
                }
                assert_eq!(frames, fixture.collected.len() + 1, "short stream");
            })
        }
        other => die("unknown scenario", format!("'{other}'")),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn bench(args: &Args) {
    let quick = args.has_flag("quick");
    let seed = args.get_u64("seed", 42);
    let sizes = if quick {
        Sizes::quick(seed)
    } else {
        Sizes::full(seed)
    };
    let warmup = args.get_u64("warmup", if quick { 1 } else { 2 });
    let samples = args.get_u64("samples", if quick { 3 } else { 5 }).max(1);
    let out_dir = PathBuf::from(args.get_str("out-dir", "."));

    let selected: Vec<&str> = match args.options.get("only") {
        Some(list) => {
            let wanted: Vec<&str> = list.split(',').map(str::trim).collect();
            for w in &wanted {
                if !SCENARIOS.contains(w) {
                    eprintln!(
                        "error: unknown scenario '{w}' (known: {})",
                        SCENARIOS.join(", ")
                    );
                    std::process::exit(2);
                }
            }
            SCENARIOS
                .iter()
                .copied()
                .filter(|s| wanted.contains(s))
                .collect()
        }
        None => SCENARIOS.to_vec(),
    };

    let rustc = rustc_version();
    println!(
        "perf bench: {} scenarios, mode {}, warmup {}, samples {}, seed {}",
        selected.len(),
        sizes.mode,
        warmup,
        samples,
        seed
    );

    // Every scenario but the monitor hour loop (which builds its own
    // engine per sample) shares one deterministic fixture, built outside
    // every timed region.
    let fixture = selected
        .iter()
        .any(|&s| s != "monitor_hour_loop")
        .then(|| build_fixture(&sizes));

    for name in selected {
        let samples_ms = run_scenario(name, &sizes, fixture.as_ref(), warmup, samples);
        let meta = BenchMeta {
            rustc: rustc.clone(),
            threads: 1,
            seed,
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            mode: sizes.mode.to_string(),
        };
        let report = BenchReport::from_samples(name, warmup, samples_ms, meta);
        let path = out_dir.join(bench_file_name(name));
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .unwrap_or_else(|e| die(&format!("cannot create {}", parent.display()), e));
            }
        }
        std::fs::write(&path, report.to_json())
            .unwrap_or_else(|e| die(&format!("cannot write {}", path.display()), e));
        println!(
            "  {:<22} median {:>10.3} ms  iqr {:>8.3} ms  ({} samples) -> {}",
            report.scenario,
            report.median,
            report.iqr,
            report.samples.len(),
            path.display()
        );
    }
}
