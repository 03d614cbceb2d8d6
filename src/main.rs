//! The `pseudo-honeypot` command-line interface.
//!
//! ```text
//! pseudo-honeypot attributes                      list the 24-attribute taxonomy
//! pseudo-honeypot simulate  [--hours H] [--organic N] [--seed S]
//! pseudo-honeypot sniff     [--hours H] [--gt-hours H] [--organic N] [--seed S]
//!                           [--store DIR] [--resume] [--crash-after H]
//! pseudo-honeypot serve     --store DIR [--listen ADDR] [--http ADDR]
//!                           [--resume] [--loadgen] [--rate R]
//!                           [--slo pQQ:MS] [--watchdog-ticks N]
//! pseudo-honeypot feed      --connect ADDR [--hours H] [--start-hour H] [--rate R]
//! pseudo-honeypot replay    --store DIR
//! pseudo-honeypot inspect   --store DIR [--top K] [--tail N] [--timeline] [--flight]
//! pseudo-honeypot showdown  [--hours H] [--nodes N] [--seed S]
//! pseudo-honeypot perf bench [--quick] [--only NAMES] [--out-dir DIR]
//! pseudo-honeypot perf diff OLD.json NEW.json
//! pseudo-honeypot perf critical-path (--store DIR | TRACE.log)
//! ```
//!
//! Global options (any subcommand):
//!
//! ```text
//! --metrics-out FILE       write a machine-readable run report (spans,
//!                          counters, gauges, histograms, series) on exit
//! --metrics-format FMT     json (default) | prom (Prometheus text 0.0.4)
//! --log-level LEVEL        error | warn | info (default) | debug
//! --quiet                  silence all progress logging
//! --progress               live one-line progress on stderr (stdout is
//!                          untouched — safe to pipe)
//! --profile                enable the counting allocator + per-stage
//!                          attribution; `prof.*` metrics land in the
//!                          `--metrics-out` report (stdout is unchanged)
//! --trace FILE             record the causal timeline (per-worker
//!                          batches, stalls, merge waits, queue depths,
//!                          pipeline phases) and export it as Chrome
//!                          trace-event JSON — load FILE in Perfetto.
//!                          Stdout is byte-identical to an untraced run
//! ```
//!
//! `sniff` runs the complete paper pipeline: deploy the Table I/II network
//! on a simulated Twitter, collect, build ground truth, train the RF
//! detector, and report what it caught. `serve` runs the same pipeline as
//! a long-lived daemon against a live socket feed (see `serve_cli`).
//!
//! Exit codes: 0 success, 1 runtime error, 2 usage error, 3 simulated
//! crash (`--crash-after`), 4 perf regression (`perf diff`), 5
//! interrupted-and-checkpointed (SIGINT/SIGTERM on `sniff --store` or
//! `serve`; the run continues with `--resume`).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use ph_exec::ExecConfig;
use ph_telemetry::{log_info, log_warn};
use pseudo_honeypot::core::attributes::{AttributeKind, ProfileAttribute, SampleAttribute};
use pseudo_honeypot::core::baselines::run_random_baseline;
use pseudo_honeypot::core::detector::{build_training_data_with, DetectorConfig, SpamDetector};
use pseudo_honeypot::core::labeling::pipeline::{
    format_table3, label_collection_with, PipelineConfig,
};
use pseudo_honeypot::core::monitor::{
    CollectedTweet, MonitorReport, RunState, Runner, RunnerConfig,
};
use pseudo_honeypot::core::pge::{
    overall_pge, per_hour_attribute_pge, per_hour_stats, pge_ranking_with_min,
};
use pseudo_honeypot::sim::engine::{Engine, SimConfig};
use pseudo_honeypot::store::{Manifest, ResumedStore, Store, StoreConfig};

mod cli;
mod perf;
mod serve_cli;
use cli::Args;

/// The whole binary runs under the counting allocator: until
/// `--profile` flips it on it costs one relaxed atomic load per
/// allocation, and with it on every pipeline stage's allocations are
/// attributed by the `ph_prof::scope` hooks inside `ph-exec`.
#[global_allocator]
static ALLOC: ph_prof::CountingAllocator = ph_prof::CountingAllocator::new();

/// Options/flags accepted by every subcommand.
const GLOBAL_OPTIONS: &[&str] = &["metrics-out", "metrics-format", "log-level", "trace"];
const GLOBAL_FLAGS: &[&str] = &["quiet", "progress", "profile"];

/// Simulator-shaping options shared by the engine-driving subcommands.
const SIM_OPTIONS: &[&str] = &["seed", "organic", "campaigns", "per-campaign"];

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    configure_logging(&args);
    // Subcommands that can stop early-but-resumable (SIGINT/SIGTERM on
    // `sniff --store` or `serve`) report it through this code so the
    // metrics/trace exports below still run before the process exits.
    let mut exit_code = 0;
    match args.command.as_deref() {
        Some("attributes") => {
            validate_options(&args, &[], &[]);
            attributes();
        }
        Some("simulate") => {
            validate_options(&args, &with_sim(&["hours"]), &[]);
            simulate(&args);
        }
        Some("sniff") => {
            validate_options(
                &args,
                &with_sim(&[
                    "hours",
                    "gt-hours",
                    "name",
                    "store",
                    "crash-after",
                    "threads",
                    "taste-flip",
                ]),
                &["verify", "resume", "explain"],
            );
            exit_code = sniff(&args);
        }
        Some("serve") => {
            validate_options(
                &args,
                &with_sim(&[
                    "hours",
                    "gt-hours",
                    "store",
                    "listen",
                    "http",
                    "verdicts",
                    "rate",
                    "stop-after",
                    "threads",
                    "taste-flip",
                    "slo",
                    "watchdog-ticks",
                    "throttle-ms",
                    "throttle-hours",
                ]),
                &["resume", "loadgen", "explain"],
            );
            exit_code = serve_cli::serve(&args);
        }
        Some("feed") => {
            validate_options(
                &args,
                &with_sim(&["hours", "gt-hours", "start-hour", "connect", "rate"]),
                &[],
            );
            exit_code = serve_cli::feed(&args);
        }
        Some("replay") => {
            validate_options(&args, &["store", "threads"], &["verify"]);
            replay(&args);
        }
        Some("inspect") => {
            validate_options(
                &args,
                &["store", "top", "tail", "window"],
                &["timeline", "drift", "flight"],
            );
            inspect(&args);
        }
        Some("explain") => {
            validate_options(&args, &["store", "seq", "top"], &[]);
            explain(&args);
        }
        Some("showdown") => {
            validate_options(&args, &with_sim(&["hours", "nodes", "threads"]), &[]);
            showdown(&args);
        }
        Some("perf") => {
            validate_options(
                &args,
                &[
                    "only", "samples", "warmup", "out-dir", "seed", "threads", "store",
                ],
                &["quick"],
            );
            perf::run(&args);
        }
        Some(other) => {
            eprintln!("unknown command '{other}'");
            usage();
            std::process::exit(2);
        }
        None => usage(),
    }
    if args.has_flag("profile") {
        // Flush the allocator/CPU/wall rollups into the registry so the
        // metrics report written next carries them.
        ph_prof::publish();
    }
    write_metrics(&args);
    write_trace_export(&args);
    if exit_code != 0 {
        std::process::exit(exit_code);
    }
}

/// Applies `--quiet` / `--log-level` / `--progress` / `--profile` before
/// anything can log or allocate meaningfully, and validates
/// `--metrics-format` up front so a typo fails before hours of
/// monitoring, not after.
fn configure_logging(args: &Args) {
    if args.has_flag("profile") {
        ph_prof::enable();
    }
    if args.flags.iter().any(|f| f == "trace") {
        eprintln!("error: --trace expects a file path for the Chrome trace-event JSON export");
        eprintln!("hint: pseudo-honeypot sniff --threads 0 --trace timeline.json");
        std::process::exit(2);
    }
    if args.options.contains_key("trace") {
        // Flip the recorder on before any stage can run; everything else
        // about tracing happens at exit (export) or in the store writer.
        ph_trace::enable();
    }
    if args.has_flag("quiet") {
        ph_telemetry::set_quiet();
    } else if let Some(level) = args.options.get("log-level") {
        match level.parse::<ph_telemetry::Level>() {
            Ok(level) => ph_telemetry::set_max_level(level),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    if args.has_flag("progress") {
        ph_telemetry::set_progress(true);
    }
    let _ = metrics_format(args);
}

/// Parses `--metrics-format` (default `json`); unknown values take the
/// usage-error exit.
fn metrics_format(args: &Args) -> ph_telemetry::ReportFormat {
    match args.options.get("metrics-format").map(String::as_str) {
        None | Some("json") => ph_telemetry::ReportFormat::Json,
        Some("prom") => ph_telemetry::ReportFormat::Prom,
        Some(other) => {
            eprintln!("error: --metrics-format expects 'json' or 'prom', got '{other}'");
            std::process::exit(2);
        }
    }
}

/// Rejects options/flags outside the subcommand's and the global
/// allow-lists — a typo like `--huors` should fail loudly, not silently
/// run with the default.
fn validate_options(args: &Args, options: &[&str], flags: &[&str]) {
    let mut known_options: Vec<&str> = GLOBAL_OPTIONS.to_vec();
    known_options.extend(options);
    let mut known_flags: Vec<&str> = GLOBAL_FLAGS.to_vec();
    known_flags.extend(flags);
    let unknown = args.unknown_options(&known_options, &known_flags);
    if !unknown.is_empty() {
        let command = args.command.as_deref().unwrap_or("");
        eprintln!(
            "error: unknown option(s) for '{command}': {}",
            unknown.join(", ")
        );
        std::process::exit(2);
    }
}

/// `SIM_OPTIONS` plus subcommand extras.
fn with_sim<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let mut v: Vec<&str> = SIM_OPTIONS.to_vec();
    v.extend(extra);
    v
}

/// Honors `--metrics-out FILE` (in the `--metrics-format` of choice) after
/// the subcommand finishes. Missing parent directories are created; an
/// unwritable destination is a usage error (exit 2), not a crash.
fn write_metrics(args: &Args) {
    let Some(path) = args.options.get("metrics-out") else {
        return;
    };
    let path = Path::new(path);
    match ph_telemetry::write_report(path, metrics_format(args)) {
        Ok(()) => log_info!("wrote metrics report to {}", path.display()),
        Err(e) => {
            eprintln!("error: cannot write metrics to {}: {e}", path.display());
            eprintln!(
                "hint: parent directories are created automatically — check the path is writable"
            );
            std::process::exit(2);
        }
    }
}

/// Honors `--trace FILE` after the subcommand finishes: snapshots the
/// recorded timeline and writes it as Chrome trace-event JSON (open the
/// file in Perfetto / `chrome://tracing`). Missing parent directories
/// are created; an unwritable destination is a usage error (exit 2).
/// Stdout is untouched, keeping traced runs byte-identical.
fn write_trace_export(args: &Args) {
    let Some(path) = args.options.get("trace") else {
        return;
    };
    let path = Path::new(path);
    let log = ph_trace::snapshot();
    let json = ph_trace::chrome::to_chrome_json(&log);
    let result = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => std::fs::create_dir_all(parent),
        _ => Ok(()),
    }
    .and_then(|()| std::fs::write(path, json));
    match result {
        Ok(()) => {
            log_info!(
                "wrote {} trace events to {} ({} dropped)",
                log.events.len(),
                path.display(),
                log.dropped
            );
        }
        Err(e) => {
            eprintln!("error: cannot write trace to {}: {e}", path.display());
            eprintln!(
                "hint: parent directories are created automatically — check the path is writable"
            );
            std::process::exit(2);
        }
    }
}

/// Pins the run configuration into the registry's metadata section so
/// `--metrics-out` reports (JSON `"meta"` object, Prometheus `ph_meta`
/// gauges) are comparable across machines and thread counts.
fn record_run_meta(threads: usize, seed: u64) {
    ph_telemetry::set_meta("crate_version", env!("CARGO_PKG_VERSION"));
    ph_telemetry::set_meta("threads", &threads.to_string());
    ph_telemetry::set_meta("seed", &seed.to_string());
}

fn usage() {
    println!("pseudo-honeypot — attribute-driven spam sniffing (DSN 2019 reproduction)");
    println!();
    println!("commands:");
    println!("  attributes                          list the 24-attribute taxonomy (Table I/II)");
    println!("  simulate  [--hours H] [--organic N] [--seed S]");
    println!(
        "                                      run the social-network simulator and print stats"
    );
    println!("  sniff     [--hours H] [--gt-hours H] [--organic N] [--seed S]");
    println!("                                      full pipeline: monitor, label, train, detect");
    println!(
        "            [--store DIR]             persist the collection to a durable segment log"
    );
    println!("            [--resume]                continue a crashed/stopped run from DIR's last checkpoint");
    println!("            [--crash-after H]         stop after H monitored hours with a torn tail (exit 3)");
    println!(
        "            [--explain]               record verdict explanations + per-feature drift"
    );
    println!(
        "                                      (explain.log/drift.log in the store; zero cost off)"
    );
    println!(
        "            [--taste-flip H]          flip spammer tastes at engine hour H (drift demo;"
    );
    println!(
        "                                      pinned in the manifest so resume/replay match)"
    );
    println!("  serve     --store DIR [--hours H] [--gt-hours H] [--seed S]");
    println!(
        "                                      long-lived sniffer daemon: ingest wire frames from"
    );
    println!("            [--listen ADDR]           a TCP host:port or Unix-socket path (default");
    println!(
        "                                      DIR/ingest.sock), classify each completed hour,"
    );
    println!(
        "                                      append live NDJSON verdicts to DIR/verdicts.ndjson"
    );
    println!(
        "            [--http ADDR|none]        /metrics + /healthz endpoint (default 127.0.0.1:0;"
    );
    println!("                                      bound addresses land in DIR/ENDPOINTS)");
    println!(
        "            [--loadgen [--rate R]]    built-in open-loop producer at R events/s (0 = max)"
    );
    println!(
        "            [--resume]                continue a drained run from its last checkpoint"
    );
    println!("            [--stop-after H]          drain after H hours this session (exit 5)");
    println!(
        "            [--slo pQQ:MS]            latency SLO: hourly pQQ ingest→verdict latency must"
    );
    println!(
        "                                      stay ≤ MS ms (QQ ∈ 50/95/99); breaches raise an"
    );
    println!(
        "                                      alert, degrade /healthz to 503, and recover when"
    );
    println!("                                      the quantile cools (serve.latency_ms metrics)");
    println!(
        "            [--watchdog-ticks N]      declare a busy stage stalled after N 250 ms samples"
    );
    println!(
        "                                      without progress (0 = off): journal event, degraded"
    );
    println!("                                      /healthz, flight-recorder dump into the store");
    println!("            [--throttle-ms MS [--throttle-hours H]]");
    println!(
        "                                      test-only: sleep MS inside each of the first H hour"
    );
    println!(
        "                                      boundaries to provoke an SLO breach + recovery"
    );
    println!("            [--explain]               NDJSON verdicts gain margin + top_features;");
    println!(
        "                                      explain.log/drift.log persisted beside the journal"
    );
    println!("            [--taste-flip H]          flip spammer tastes at engine hour H");
    println!("  feed      --connect ADDR [--hours H] [--start-hour H] [--rate R]");
    println!("                                      standalone producer: stream the deterministic");
    println!("                                      firehose to a daemon's ingest socket");
    println!("  replay    --store DIR               re-run labeling + classification from a stored log alone");
    println!("  inspect   --store DIR [--top K] [--tail N] [--timeline] [--drift]");
    println!("            [--flight [--window SECS]]");
    println!(
        "                                      render a stored run's per-hour PGE, top attributes,"
    );
    println!(
        "                                      stage throughput, span tree, and event journal —"
    );
    println!("                                      no re-execution; --timeline adds the stored");
    println!(
        "                                      trace's critical-path analysis; --drift adds the"
    );
    println!("                                      per-hour PSI drift table and alarm timeline;");
    println!(
        "                                      --flight renders the flight recorder's last-SECS"
    );
    println!("                                      timeline (dumped on SIGQUIT/watchdog/panic)");
    println!("  explain   --store DIR [--seq N] [--top K]");
    println!(
        "                                      render one stored verdict's provenance: identity,"
    );
    println!(
        "                                      ground-truth label, vote margin, and the top-K"
    );
    println!("                                      feature attributions (needs a --explain run)");
    println!("  showdown  [--hours H] [--nodes N] [--seed S]");
    println!("                                      pseudo-honeypot vs random accounts");
    println!("  perf bench [--quick] [--only A,B] [--samples N] [--warmup N] [--out-dir DIR]");
    println!(
        "                                      run the fixed benchmark matrix, write BENCH_*.json"
    );
    println!("  perf diff OLD.json NEW.json         noise-aware baseline comparison; exit 4 on a");
    println!("                                      perf regression");
    println!("  perf critical-path (--store DIR | TRACE.log)");
    println!("                                      analyze a recorded timeline: per-stage busy/");
    println!(
        "                                      stall/idle fractions, parallel efficiency, and"
    );
    println!("                                      the serialized chain bounding the run");
    println!();
    println!("global options:");
    println!(
        "  --metrics-out FILE                  write a run report (spans/counters/histograms/series)"
    );
    println!("  --metrics-format FMT                json (default) | prom (Prometheus text 0.0.4)");
    println!("  --log-level LEVEL                   error | warn | info (default) | debug");
    println!("  --quiet                             silence progress logging");
    println!(
        "  --progress                          live one-line progress on stderr (stdout untouched)"
    );
    println!("  --profile                           count allocations per pipeline stage (prof.* metrics");
    println!(
        "                                      in the --metrics-out report; stdout unchanged)"
    );
    println!("  --threads N                         (sniff/replay/showdown) shard pipeline stages across");
    println!("                                      N workers — 0 = all cores, 1 = sequential (default);");
    println!("                                      output is byte-identical at any thread count");
    println!("  --trace FILE                        record the causal timeline and write Chrome");
    println!(
        "                                      trace-event JSON to FILE (load it in Perfetto);"
    );
    println!(
        "                                      sniff --store runs also persist trace.log in the"
    );
    println!("                                      store; stdout stays byte-identical");
    println!();
    println!("exit codes: 0 ok, 1 error, 2 usage, 3 simulated crash, 4 perf regression,");
    println!("            5 interrupted-and-checkpointed (resume with --resume)");
}

/// `--threads N` → the dataflow configuration shared by every sharded
/// stage (1 = sequential, the default; 0 = all available cores). The
/// `ph-exec` determinism contract makes any value produce byte-identical
/// output, so this is purely a throughput knob.
fn exec_config(args: &Args) -> ExecConfig {
    ExecConfig::with_threads(args.get_u64("threads", 1) as usize)
}

fn sim_config(args: &Args) -> SimConfig {
    let flip = args.get_u64(
        "taste-flip",
        pseudo_honeypot::store::manifest::NO_TASTE_FLIP,
    );
    SimConfig {
        seed: args.get_u64("seed", 42),
        num_organic: args.get_u64("organic", 2_000) as usize,
        num_campaigns: args.get_u64("campaigns", 6) as usize,
        accounts_per_campaign: args.get_u64("per-campaign", 20) as usize,
        drift: (flip != pseudo_honeypot::store::manifest::NO_TASTE_FLIP).then(|| {
            pseudo_honeypot::sim::drift::DriftSchedule::flip_at(
                flip,
                pseudo_honeypot::sim::drift::inverted_tastes(),
            )
        }),
        ..Default::default()
    }
}

fn attributes() {
    println!("C1 — profile-based attributes and Table II sample values:");
    for (i, attr) in ProfileAttribute::ALL.iter().enumerate() {
        let values: Vec<String> = attr
            .sample_values()
            .iter()
            .map(|v| {
                if v.fract().abs() < 1e-9 {
                    format!("{}", *v as i64)
                } else {
                    format!("{v:.3}")
                }
            })
            .collect();
        println!("  {:>2}. {:<32} {}", i + 1, attr.label(), values.join(" "));
    }
    println!("\nC2/C3 — topical attributes:");
    for kind in AttributeKind::all()
        .into_iter()
        .filter(|k| !matches!(k, AttributeKind::Profile(_)))
    {
        println!("   - {kind}");
    }
    let slots = SampleAttribute::standard_slots();
    println!(
        "\nstandard network: {} slots × 10 accounts = up to {} nodes",
        slots.len(),
        slots.len() * 10
    );
}

fn simulate(args: &Args) {
    let hours = args.get_u64("hours", 24);
    let mut engine = Engine::new(sim_config(args));
    log_info!(
        "simulating {hours} h over {} accounts…",
        engine.rest().num_accounts()
    );
    engine.run_hours(hours);
    let stats = engine.stats();
    println!("tweets:            {}", stats.tweets);
    println!("  spam:            {}", stats.spam_tweets);
    println!("  with mentions:   {}", stats.mention_tweets);
    println!("suspended:         {}", stats.suspended_accounts);
    println!(
        "accounts now:      {} (campaign churn adds replacements)",
        engine.rest().num_accounts()
    );
}

fn sniff(args: &Args) -> i32 {
    if args.has_flag("explain") {
        pseudo_honeypot::core::observe::set_enabled(true);
    }
    match args.options.get("store") {
        Some(dir) => sniff_stored(args, &PathBuf::from(dir)),
        None => {
            if args.has_flag("resume") || args.options.contains_key("crash-after") {
                eprintln!("error: --resume and --crash-after require --store DIR");
                std::process::exit(2);
            }
            sniff_in_memory(args);
            0
        }
    }
}

fn sniff_in_memory(args: &Args) {
    let gt_hours = args.get_u64("gt-hours", 24);
    let hours = args.get_u64("hours", 24);
    let name = args.get_str("name", "sniffing campaign");
    println!("== {name} ==");
    let exec = exec_config(args);
    record_run_meta(exec.threads, args.get_u64("seed", 42));
    let mut engine = Engine::new(sim_config(args));
    let runner = Runner::with_exec(
        RunnerConfig {
            seed: args.get_u64("seed", 42),
            ..Default::default()
        },
        exec.clone(),
    );

    let (detector, _) = ground_truth_and_detector(&mut engine, &runner, gt_hours, true, &exec);

    log_info!("phase 3: sniffing for {hours} h…");
    let report = runner.run(&mut engine, hours);
    let outcome = detector.classify_batch(&report.collected, &engine, &exec);
    if report.dropped > 0 {
        log_warn!(
            "{} tweets were shed by the streaming buffer",
            report.dropped
        );
    }
    print_sniff_summary(&report, &outcome.predictions, &outcome, hours, gt_hours);
    if args.has_flag("verify") {
        let oracle = engine.ground_truth();
        let correct = report
            .collected
            .iter()
            .zip(&outcome.predictions)
            .filter(|(c, &p)| p == oracle.is_spam(&c.tweet))
            .count();
        println!(
            "\noracle check: {:.2}% of verdicts correct",
            100.0 * correct as f64 / report.collected.len().max(1) as f64
        );
    }
}

/// Phases 1–2 of the pipeline (shared by fresh, resumed, and replayed
/// runs — all three must rebuild the *identical* detector): ground-truth
/// collection over `gt_hours`, labeling, and Random-Forest training.
fn ground_truth_and_detector(
    engine: &mut Engine,
    runner: &Runner,
    gt_hours: u64,
    print_table: bool,
    exec: &ExecConfig,
) -> (SpamDetector, usize) {
    log_info!("phase 1: ground truth — standard network, {gt_hours} h…");
    let train_report = runner.run(engine, gt_hours);
    let ground_truth = label_collection_with(
        &train_report.collected,
        engine,
        &PipelineConfig::default(),
        exec,
    );
    if print_table {
        println!("{}", format_table3(&ground_truth.summary));
    }
    log_info!("phase 2: training the Random Forest detector…");
    let (data, _) = build_training_data_with(
        &train_report.collected,
        &ground_truth.labels,
        engine,
        pseudo_honeypot::core::features::DEFAULT_TAU,
        exec,
    );
    let detector = SpamDetector::train(&DetectorConfig::default(), &data);
    (detector, train_report.collected.len())
}

/// Feeds the per-attribute PGE time series (`pge.<attribute>`) into the
/// registry, so metrics exports and the store's series stream carry the
/// hour-by-hour efficiency trend alongside the final ranking.
fn emit_pge_series(report: &MonitorReport, predictions: &[bool], hours: u64, gt_hours: u64) {
    for (kind, values) in per_hour_attribute_pge(
        &report.collected,
        predictions,
        &report.node_hours,
        hours,
        gt_hours,
    ) {
        let series = ph_telemetry::series(&format!("pge.{kind}"));
        for (hour, value) in values.iter().enumerate() {
            series.add(hour as u64, *value);
        }
    }
}

/// The classification + PGE tail every sniff variant prints.
fn print_sniff_summary(
    report: &MonitorReport,
    predictions: &[bool],
    outcome: &pseudo_honeypot::core::detector::ClassificationOutcome,
    hours: u64,
    gt_hours: u64,
) {
    emit_pge_series(report, predictions, hours, gt_hours);
    println!(
        "collected {} tweets from {} accounts",
        report.collected.len(),
        report.unique_authors()
    );
    println!(
        "classified {} spams from {} spammer accounts",
        outcome.num_spam(),
        outcome.num_spammers()
    );
    let ranking = pge_ranking_with_min(report, predictions, hours as f64 * 2.0);
    println!("\ntop attributes by PGE:");
    for entry in ranking.iter().take(5) {
        println!(
            "  {:<44} PGE {:.4} ({} spammers)",
            entry.slot.describe(),
            entry.pge,
            entry.spammers
        );
    }
}

fn die(context: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("error: {context}: {e}");
    std::process::exit(1);
}

fn runner_for(manifest: &Manifest, exec: ExecConfig) -> Runner {
    Runner::with_exec(
        RunnerConfig {
            seed: manifest.runner_seed,
            buffer_capacity: manifest.buffer_capacity as usize,
            ..Default::default()
        },
        exec,
    )
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

/// Store-backed sniff: every collected tweet lands in the segment log,
/// the run checkpoints hourly, and `--resume` continues after a crash.
/// SIGINT/SIGTERM stop the run at the next hour boundary with a forced
/// checkpoint and exit code 5 — `--resume` continues it exactly.
fn sniff_stored(args: &Args, dir: &Path) -> i32 {
    let resume = args.has_flag("resume");
    let crash_after = args
        .options
        .contains_key("crash-after")
        .then(|| args.get_u64("crash-after", 0));
    let name = args.get_str("name", "sniffing campaign");
    println!("== {name} ==");

    // Fresh runs pin the CLI configuration into the manifest; resumed
    // runs take *everything* from the stored manifest (the store is the
    // source of truth — mixing a new seed into an old log would corrupt
    // the determinism the whole recovery story rests on).
    let resumed: Option<ResumedStore> = if resume {
        let r = Store::open_resume(dir, StoreConfig::default())
            .unwrap_or_else(|e| die(&format!("cannot resume {}", dir.display()), e));
        for key in [
            "seed",
            "organic",
            "campaigns",
            "per-campaign",
            "gt-hours",
            "hours",
        ] {
            if args.options.contains_key(key) {
                log_warn!("--{key} ignored on --resume: the store manifest pins it");
            }
        }
        log_info!(
            "resuming {}: {} of {} h done, {} records on log ({} bytes truncated in recovery)",
            dir.display(),
            r.state.next_hour,
            r.manifest.hours,
            r.store.record_count(),
            r.recovery.truncated_bytes
        );
        Some(r)
    } else {
        None
    };
    let manifest = match &resumed {
        Some(r) => r.manifest,
        None => Manifest {
            sim_seed: args.get_u64("seed", 42),
            organic: args.get_u64("organic", 2_000),
            campaigns: args.get_u64("campaigns", 6),
            per_campaign: args.get_u64("per-campaign", 20),
            runner_seed: args.get_u64("seed", 42),
            gt_hours: args.get_u64("gt-hours", 24),
            hours: args.get_u64("hours", 24),
            buffer_capacity: pseudo_honeypot::sim::api::DEFAULT_QUEUE_CAPACITY as u64,
            taste_flip: args.get_u64(
                "taste-flip",
                pseudo_honeypot::store::manifest::NO_TASTE_FLIP,
            ),
        },
    };

    let exec = exec_config(args);
    record_run_meta(exec.threads, manifest.sim_seed);
    let mut engine = engine_for(&manifest);
    // SIGINT/SIGTERM raise this flag; the runner then stops at the next
    // hour boundary with every completed hour on the log.
    let stop = pseudo_honeypot::serve::signal::install();
    let runner = runner_for(&manifest, exec.clone()).with_stop_flag(stop);
    let (detector, _) =
        ground_truth_and_detector(&mut engine, &runner, manifest.gt_hours, !resume, &exec);

    let (mut store, mut state, prior) = match resumed {
        Some(r) => {
            // Fast-forward a fresh engine over the already-monitored hours;
            // determinism makes this byte-equivalent to never crashing.
            engine.run_hours(r.state.next_hour);
            (r.store, r.state, r.report)
        }
        None => {
            let store = Store::create(dir, manifest, StoreConfig::default())
                .unwrap_or_else(|e| die(&format!("cannot create store {}", dir.display()), e));
            (store, RunState::default(), MonitorReport::default())
        }
    };

    let segment_hours = crash_after
        .map(|h| h.saturating_sub(state.next_hour))
        .unwrap_or(u64::MAX);
    log_info!(
        "phase 3: sniffing hours {}..{} into {}…",
        state.next_hour,
        manifest.hours,
        dir.display()
    );
    let mut writer = store.writer(&prior);
    let segment = runner
        .run_segment(
            &mut engine,
            &mut state,
            manifest.hours,
            segment_hours,
            runner.standard_networks(),
            &mut writer,
        )
        .unwrap_or_else(|e| die("store write failed", e));
    if runner.stop_requested() && state.next_hour < manifest.hours {
        // SIGINT/SIGTERM: the runner already drained at an hour boundary,
        // so force a checkpoint (the hourly interval may not have hit) and
        // leave classification to the run that completes the store.
        writer
            .checkpoint_now(&state, &segment)
            .unwrap_or_else(|e| die("interrupt checkpoint failed", e));
        drop(writer);
        store.sync().unwrap_or_else(|e| die("store sync failed", e));
        log_warn!(
            "interrupted after {} of {} h (checkpoint written); resume with --resume",
            state.next_hour,
            manifest.hours
        );
        return serve_cli::EXIT_INTERRUPTED;
    }
    drop(writer);
    let mut report = prior;
    report.merge(&segment);

    if crash_after.is_some() && state.next_hour < manifest.hours {
        // Simulated hard crash: die mid-append, leaving a torn half-frame
        // on the active segment for the next open to truncate.
        inject_torn_tail(dir);
        log_warn!(
            "simulated crash after {} of {} h (torn tail written); resume with --resume",
            state.next_hour,
            manifest.hours
        );
        std::process::exit(3);
    }
    store.sync().unwrap_or_else(|e| die("store sync failed", e));

    // Classify off the log — the durable sink kept nothing in memory, so
    // the segment reader supplies the collection (which the summary needs
    // materialized anyway, letting the classifier shard over it).
    report.collected = stored_records(&store).collect();
    let outcome = detector.classify_batch(&report.collected, &engine, &exec);
    if report.dropped > 0 {
        log_warn!(
            "{} tweets were shed by the streaming buffer",
            report.dropped
        );
    }
    print_sniff_summary(
        &report,
        &outcome.predictions,
        &outcome,
        manifest.hours,
        manifest.gt_hours,
    );
    println!(
        "\nstore: {} records in {} ({} h checkpointed)",
        store.record_count(),
        dir.display(),
        state.next_hour
    );

    // Persist the run's observability record next to the data it
    // describes: the deterministic event journal plus the flattened series
    // (per-hour metrics and run-level `stage.*`/`span.*`/`hist.*`
    // aggregates), so `inspect` can render the run later without
    // re-executing anything.
    if pseudo_honeypot::core::observe::is_enabled() {
        // Before the journal snapshot: finalizing the open drift window
        // may raise its last alarms.
        pseudo_honeypot::core::observe::drift_finalize();
    }
    let journal = ph_telemetry::journal_snapshot();
    let points = ph_telemetry::run_series_points(manifest.hours.saturating_sub(1));
    store
        .write_telemetry(&journal, &points)
        .unwrap_or_else(|e| die("telemetry write failed", e));
    log_info!(
        "telemetry: {} journal events, {} series points persisted to {}",
        journal.len(),
        points.len(),
        dir.display()
    );
    if ph_trace::is_enabled() {
        // The durable twin of the --trace JSON export: the framed+CRC'd
        // trace.log lands next to journal.log/series.log so
        // `inspect --timeline` and `perf critical-path --store` can
        // analyze the run later without the recording process.
        let trace = ph_trace::snapshot();
        pseudo_honeypot::store::write_trace(dir, &trace)
            .unwrap_or_else(|e| die("trace write failed", e));
        log_info!(
            "trace: {} timeline events persisted to {} ({} dropped)",
            trace.events.len(),
            dir.display(),
            trace.dropped
        );
    }
    if pseudo_honeypot::core::observe::is_enabled() {
        // The decision-observability twin of journal/series: one framed
        // explanation per stored record (join on seq) plus the per-hour
        // drift scores and alarm timeline — `explain` and
        // `inspect --drift` render both from the store alone.
        let explanations = pseudo_honeypot::core::observe::explanations();
        pseudo_honeypot::store::write_explain(dir, &explanations)
            .unwrap_or_else(|e| die("explain write failed", e));
        let (drift_hours, drift_alarms) = pseudo_honeypot::core::observe::drift_results();
        pseudo_honeypot::store::write_drift(dir, &drift_hours, &drift_alarms)
            .unwrap_or_else(|e| die("drift write failed", e));
        log_info!(
            "observe: {} explanations, {} drift windows, {} alarms persisted to {}",
            explanations.len(),
            drift_hours.len(),
            drift_alarms.len(),
            dir.display()
        );
    }
    if args.has_flag("verify") {
        sidecar_check(&report.collected, &outcome.predictions);
    }
    0
}

/// Infallible record stream over a store's log (I/O errors abort the CLI).
fn stored_records(store: &Store) -> impl Iterator<Item = CollectedTweet> {
    store
        .reader()
        .unwrap_or_else(|e| die("cannot read store", e))
        .map(|r| r.unwrap_or_else(|e| die("stored record unreadable", e)))
}

/// Scores predictions against the evaluation sidecar persisted in the log.
fn sidecar_check(collected: &[CollectedTweet], predictions: &[bool]) {
    let correct = collected
        .iter()
        .zip(predictions)
        .filter(|(c, &p)| p == c.tweet.evaluation_sidecar_spam())
        .count();
    println!(
        "\noracle check (stored sidecar): {:.2}% of verdicts correct",
        100.0 * correct as f64 / collected.len().max(1) as f64
    );
}

/// Appends half a record frame to the newest segment — what a power cut
/// mid-`write(2)` leaves behind. Recovery must truncate exactly this.
fn inject_torn_tail(dir: &Path) {
    let mut segments: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| {
                let path = e.ok()?.path();
                let name = path.file_name()?.to_str()?;
                (name.starts_with("segment-") && name.ends_with(".seg")).then_some(path)
            })
            .collect(),
        Err(e) => die("cannot list store", e),
    };
    segments.sort();
    let Some(last) = segments.pop() else { return };
    let result = std::fs::OpenOptions::new()
        .append(true)
        .open(&last)
        .and_then(|mut f| {
            // Length prefix promising 64 bytes, then only 3 delivered.
            f.write_all(&64u32.to_le_bytes())?;
            f.write_all(&0u32.to_le_bytes())?;
            f.write_all(&[0xAA, 0xBB, 0xCC])
        });
    if let Err(e) = result {
        die("cannot inject torn tail", e);
    }
}

/// Re-runs labeling and classification *from the stored log alone*: the
/// manifest rebuilds the deterministic engine and detector, the segment
/// log supplies the traffic, and the checkpoint log supplies node-hours —
/// no live monitoring anywhere.
fn replay(args: &Args) {
    let Some(dir) = args.options.get("store").map(PathBuf::from) else {
        eprintln!("error: replay requires --store DIR");
        std::process::exit(2);
    };
    let _span = ph_telemetry::span("replay");
    let resumed = Store::open_resume(&dir, StoreConfig::default())
        .unwrap_or_else(|e| die(&format!("cannot open store {}", dir.display()), e));
    let manifest = resumed.manifest;
    println!("== replay of {} ==", dir.display());
    println!(
        "manifest: seed {}, {} organic, {} campaigns × {}, gt {} h, sniff {} h",
        manifest.sim_seed,
        manifest.organic,
        manifest.campaigns,
        manifest.per_campaign,
        manifest.gt_hours,
        manifest.hours
    );
    println!(
        "log: {} records, {} of {} h completed",
        resumed.store.record_count(),
        resumed.state.next_hour,
        manifest.hours
    );

    let exec = exec_config(args);
    record_run_meta(exec.threads, manifest.sim_seed);
    let mut engine = engine_for(&manifest);
    let runner = runner_for(&manifest, exec.clone());
    let (detector, _) =
        ground_truth_and_detector(&mut engine, &runner, manifest.gt_hours, false, &exec);
    // Advance the engine to where the stored run left off, so REST-side
    // lookups (profiles, suspensions) see the same world state.
    engine.run_hours(resumed.state.next_hour);

    log_info!("labeling the stored collection…");
    let collected = resumed
        .store
        .reader()
        .unwrap_or_else(|e| die("cannot read store", e))
        .collect::<Result<Vec<_>, _>>()
        .unwrap_or_else(|e| die("stored record unreadable", e));
    let dataset = label_collection_with(&collected, &engine, &PipelineConfig::default(), &exec);
    println!("{}", format_table3(&dataset.summary));

    log_info!("classifying the stored collection…");
    let outcome = detector.classify_batch(&collected, &engine, &exec);
    let mut report = resumed.report.clone();
    report.collected = collected;
    print_sniff_summary(
        &report,
        &outcome.predictions,
        &outcome,
        manifest.hours,
        manifest.gt_hours,
    );
    if args.has_flag("verify") {
        sidecar_check(&report.collected, &outcome.predictions);
    }
}

/// Renders a stored run's observability record — manifest, per-hour PGE
/// (spam bit from the stored evaluation sidecar), top attributes, stage
/// throughput, span tree, and the tail of the event journal — without
/// re-running any part of the pipeline. The store is opened through the
/// same recovery path as `--resume`, so a torn tail is truncated first.
fn inspect(args: &Args) {
    let Some(dir) = args.options.get("store").map(PathBuf::from) else {
        eprintln!("error: inspect requires --store DIR");
        std::process::exit(2);
    };
    let top = args.get_u64("top", 5) as usize;
    let tail = args.get_u64("tail", 8) as usize;
    let resumed = Store::open_resume(&dir, StoreConfig::default())
        .unwrap_or_else(|e| die(&format!("cannot open store {}", dir.display()), e));
    let manifest = resumed.manifest;
    println!("== inspect of {} ==", dir.display());
    println!(
        "manifest: seed {}, {} organic, {} campaigns × {}, gt {} h, sniff {} h",
        manifest.sim_seed,
        manifest.organic,
        manifest.campaigns,
        manifest.per_campaign,
        manifest.gt_hours,
        manifest.hours
    );
    println!(
        "log: {} records, {} of {} h completed",
        resumed.store.record_count(),
        resumed.state.next_hour,
        manifest.hours
    );

    let mut report = resumed.report.clone();
    report.collected = stored_records(&resumed.store).collect();
    let flags: Vec<bool> = report
        .collected
        .iter()
        .map(|c| c.tweet.evaluation_sidecar_spam())
        .collect();
    let hours = resumed.state.next_hour;

    print_hourly_pge(&report, &flags, hours, manifest.gt_hours, top);
    print_top_slots(&report, &flags, hours, top);

    let series = pseudo_honeypot::store::read_series(&dir)
        .unwrap_or_else(|e| die("cannot read series stream", e));
    let journal = pseudo_honeypot::store::read_journal(&dir)
        .unwrap_or_else(|e| die("cannot read journal stream", e));
    if series.is_empty() && journal.is_empty() {
        println!(
            "\n(no telemetry recorded in this store — the journal/series streams are written when a sniff --store run completes)"
        );
    } else {
        print_stage_throughput(&series);
        print_stall_quantiles(&series);
        print_margin_quantiles(&series);
        print_span_tree(&series);
        print_journal_tail(&journal, tail);
    }
    if args.has_flag("drift") {
        print_drift(&dir, top);
    }
    if args.has_flag("flight") {
        print_flight(&dir, args.get_u64("window", 60));
    }
    if args.has_flag("timeline") {
        let trace = pseudo_honeypot::store::read_trace(&dir)
            .unwrap_or_else(|e| die("cannot read trace stream", e));
        if trace.events.is_empty() {
            println!(
                "\n(no timeline trace in this store — record one with sniff --store DIR --trace FILE)"
            );
        } else {
            perf::print_timeline(&ph_trace::timeline::analyze(&trace));
        }
    }
}

/// Backpressure-stall latency quantiles per stage, from the persisted
/// `hist.exec.<stage>.stall_ms.*` series points (interpolated p50/p95/p99
/// plus the stall count).
fn print_stall_quantiles(series: &[ph_telemetry::SeriesPoint]) {
    type StallRow = (Option<f64>, Option<f64>, Option<f64>, Option<f64>);
    let mut stages: BTreeMap<String, StallRow> = BTreeMap::new();
    for p in series {
        let Some(rest) = p.name.strip_prefix("hist.exec.") else {
            continue;
        };
        let Some((stage, metric)) = rest.rsplit_once('.') else {
            continue;
        };
        let Some(stage) = stage.strip_suffix(".stall_ms") else {
            continue;
        };
        let entry = stages.entry(stage.to_string()).or_default();
        match metric {
            "count" => entry.0 = Some(p.value),
            "p50" => entry.1 = Some(p.value),
            "p95" => entry.2 = Some(p.value),
            "p99" => entry.3 = Some(p.value),
            _ => {}
        }
    }
    stages.retain(|_, (count, ..)| count.is_some_and(|c| c > 0.0));
    if stages.is_empty() {
        return;
    }
    let cell = |v: Option<f64>, precision: usize| match v {
        Some(v) => format!("{v:.precision$}"),
        None => "-".to_string(),
    };
    println!("\nbackpressure stalls (ms):");
    println!(
        "{:<28} {:>8} {:>10} {:>10} {:>10}",
        "stage", "stalls", "p50", "p95", "p99"
    );
    for (stage, (count, p50, p95, p99)) in &stages {
        println!(
            "{:<28} {:>8} {:>10} {:>10} {:>10}",
            stage,
            cell(*count, 0),
            cell(*p50, 3),
            cell(*p95, 3),
            cell(*p99, 3)
        );
    }
}

/// Verdict-margin quantiles from the persisted `hist.verdict.margin.*`
/// series points — how decisive the classifier's calls were.
fn print_margin_quantiles(series: &[ph_telemetry::SeriesPoint]) {
    let value_of = |metric: &str| {
        series
            .iter()
            .find(|p| p.name == format!("hist.verdict.margin.{metric}"))
            .map(|p| p.value)
    };
    let Some(count) = value_of("count").filter(|&c| c > 0.0) else {
        return;
    };
    let cell = |v: Option<f64>| match v {
        Some(v) => format!("{v:.4}"),
        None => "-".to_string(),
    };
    println!(
        "\nverdict margin |2·score − 1| ({} verdicts):",
        count as u64
    );
    println!(
        "  mean {}  p50 {}  p95 {}  p99 {}",
        cell(value_of("mean")),
        cell(value_of("p50")),
        cell(value_of("p95")),
        cell(value_of("p99"))
    );
}

/// `inspect --drift`: the per-hour per-feature drift table, the most
/// drifted features, and the alarm timeline — all from `drift.log`.
fn print_drift(dir: &Path, top: usize) {
    use pseudo_honeypot::core::features::{feature_names, FEATURE_COUNT};
    use pseudo_honeypot::core::observe::PSI_ALARM_THRESHOLD;
    let (hours, alarms) = pseudo_honeypot::store::read_drift(dir)
        .unwrap_or_else(|e| die("cannot read drift stream", e));
    if hours.is_empty() {
        println!(
            "\n(no drift stream in this store — record the run with sniff --store DIR --explain)"
        );
        return;
    }
    let names = feature_names();
    println!("\nper-hour feature drift (PSI against the train-time reference):");
    println!(
        "{:>4} {:>8} {:>10} {:>10}  worst feature",
        "hour", "samples", "mean", "max"
    );
    for h in &hours {
        let mean = h.psi.iter().sum::<f64>() / FEATURE_COUNT as f64;
        let (worst, worst_psi) = h
            .psi
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or((0, 0.0));
        println!(
            "{:>4} {:>8} {:>10.4} {:>10.4}  {}",
            h.hour, h.samples, mean, worst_psi, names[worst]
        );
    }
    let mut per_feature: Vec<(usize, f64)> = (0..FEATURE_COUNT)
        .map(|f| (f, hours.iter().map(|h| h.psi[f]).fold(0.0, f64::max)))
        .collect();
    per_feature.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    println!("\nmost drifted features (max hourly PSI):");
    for (f, psi) in per_feature.into_iter().take(top) {
        println!("  {:<40} {psi:.4}", names[f]);
    }
    println!("\ndrift alarms (feature PSI > {PSI_ALARM_THRESHOLD}):");
    if alarms.is_empty() {
        println!("  (none)");
    }
    for a in &alarms {
        println!(
            "  hour {:>3}: {} (psi {:.3})",
            a.hour, names[a.feature as usize], a.psi
        );
    }
}

/// `inspect --flight [--window SECS]`: the flight recorder's timeline —
/// the ring of recent journal/trace notes the daemon dumped on SIGQUIT,
/// a watchdog trip, or a panic. Entries are shown relative to the
/// newest one (`t-0.000s`), windowed to the last SECS seconds, so the
/// moments before an incident read top-to-bottom from the store alone.
fn print_flight(dir: &Path, window_secs: u64) {
    let entries = pseudo_honeypot::store::read_flight(dir)
        .unwrap_or_else(|e| die("cannot read flight stream", e));
    if entries.is_empty() {
        println!(
            "\n(no flight recording in this store — the daemon dumps one on SIGQUIT, a stage-watchdog trip, or a panic)"
        );
        return;
    }
    let latest = entries.iter().map(|e| e.at_ms).max().unwrap_or(0);
    let cutoff = latest.saturating_sub(window_secs.saturating_mul(1000));
    let shown: Vec<_> = entries.iter().filter(|e| e.at_ms >= cutoff).collect();
    println!(
        "\nflight recorder: {} entries captured; showing the last {window_secs}s ({}):",
        entries.len(),
        shown.len()
    );
    for entry in shown {
        println!(
            "  t-{:>8.3}s  {:<16} {}",
            (latest - entry.at_ms) as f64 / 1000.0,
            entry.kind,
            entry.detail
        );
    }
}

/// `explain --store DIR [--seq N] [--top K]`: renders one stored
/// verdict's provenance — tweet identity and stored ground-truth label
/// from the segment log, score/margin/baseline and the top-K feature
/// attributions from `explain.log` — without re-executing anything.
fn explain(args: &Args) {
    let Some(dir) = args.options.get("store").map(PathBuf::from) else {
        eprintln!("error: explain requires --store DIR");
        std::process::exit(2);
    };
    let top = args.get_u64("top", 5) as usize;
    let explanations = pseudo_honeypot::store::read_explain(&dir).unwrap_or_else(|e| {
        die(
            &format!("cannot read explain stream in {}", dir.display()),
            e,
        )
    });
    if explanations.is_empty() {
        eprintln!(
            "error: no explanations in {} — record the run with sniff --store DIR --explain",
            dir.display()
        );
        std::process::exit(1);
    }
    let explanation = match args.options.get("seq") {
        Some(_) => {
            let seq = args.get_u64("seq", 0);
            explanations
                .iter()
                .find(|e| e.seq == seq)
                .unwrap_or_else(|| {
                    eprintln!(
                        "error: no explanation with seq {seq} — the store holds seqs 0..{}",
                        explanations.len()
                    );
                    std::process::exit(1);
                })
        }
        // Default: the first spam verdict (the interesting kind), or the
        // first record of an all-ham run.
        None => explanations
            .iter()
            .find(|e| e.spam)
            .unwrap_or(&explanations[0]),
    };

    let resumed = Store::open_resume(&dir, StoreConfig::default())
        .unwrap_or_else(|e| die(&format!("cannot open store {}", dir.display()), e));
    println!("== verdict {} of {} ==", explanation.seq, dir.display());
    if let Some(c) = stored_records(&resumed.store).nth(explanation.seq as usize) {
        println!(
            "tweet {} by account {}, hour {} ({:?} on {})",
            c.tweet.id.0,
            c.tweet.author.0,
            explanation.hour,
            c.category,
            c.slot.describe()
        );
        println!(
            "ground truth (stored sidecar): {}",
            if c.tweet.evaluation_sidecar_spam() {
                "spam"
            } else {
                "ham"
            }
        );
    }
    println!(
        "verdict: {} (score {:.4}, margin {:+.4}, forest baseline {:.4})",
        if explanation.spam { "SPAM" } else { "ham" },
        explanation.score,
        explanation.margin,
        explanation.baseline
    );
    let ranked = explanation.top_features(top);
    let names = pseudo_honeypot::core::features::feature_names();
    println!(
        "\ntop {} feature attributions (signed probability delta):",
        ranked.len()
    );
    for (f, delta) in ranked {
        let bar_len = (delta.abs() * 40.0).round().min(20.0) as usize;
        println!(
            "  {:<40} {delta:>+8.4}  {}",
            names[f],
            if delta >= 0.0 { "+" } else { "-" }.repeat(bar_len)
        );
    }
    println!(
        "\n(attributions telescope: baseline {:.4} + deltas = score {:.4})",
        explanation.baseline, explanation.score
    );
}

/// The per-hour PGE table: one row per monitored hour with overall
/// counts, amortized node-hours, and one PGE column per top attribute.
fn print_hourly_pge(report: &MonitorReport, flags: &[bool], hours: u64, gt_hours: u64, top: usize) {
    if hours == 0 {
        println!("\n(no monitored hours recorded)");
        return;
    }
    let stats = per_hour_stats(&report.collected, flags, hours, gt_hours);
    let by_attr = per_hour_attribute_pge(
        &report.collected,
        flags,
        &report.node_hours,
        hours,
        gt_hours,
    );
    // Rank attribute kinds by total per-hour PGE mass and keep the top few
    // as extra columns.
    let mut ranked: Vec<(AttributeKind, f64)> = by_attr
        .iter()
        .map(|(k, v)| (*k, v.iter().sum::<f64>()))
        .collect();
    ranked.sort_by(|a, b| {
        b.1.total_cmp(&a.1)
            .then_with(|| a.0.to_string().cmp(&b.0.to_string()))
    });
    let kinds: Vec<AttributeKind> = ranked.into_iter().take(top).map(|(k, _)| k).collect();
    let total_node_hours: f64 = report.node_hours.values().sum();
    let hourly_node_hours = total_node_hours / hours as f64;

    println!("\nper-hour PGE (spam bit from the stored evaluation sidecar; node-hours amortized):");
    let mut header = format!(
        "{:>4} {:>8} {:>7} {:>9} {:>9} {:>8}",
        "hour", "tweets", "spam", "spammers", "node-hrs", "PGE"
    );
    for kind in &kinds {
        header.push_str(&format!(" {:>18}", truncate_label(&kind.to_string(), 18)));
    }
    println!("{header}");
    for row in &stats {
        let pge = if hourly_node_hours > 0.0 {
            row.spammers as f64 / hourly_node_hours
        } else {
            0.0
        };
        let mut line = format!(
            "{:>4} {:>8} {:>7} {:>9} {:>9.1} {:>8.4}",
            row.hour, row.tweets, row.spams, row.spammers, hourly_node_hours, pge
        );
        for kind in &kinds {
            line.push_str(&format!(" {:>18.4}", by_attr[kind][row.hour as usize]));
        }
        println!("{line}");
    }
}

/// Clips an attribute label to `width` characters for a table header.
fn truncate_label(label: &str, width: usize) -> String {
    if label.chars().count() <= width {
        label.to_string()
    } else {
        let cut: String = label.chars().take(width.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

/// The whole-run slot ranking, scored off the stored sidecar.
fn print_top_slots(report: &MonitorReport, flags: &[bool], hours: u64, top: usize) {
    let ranking = pge_ranking_with_min(report, flags, hours as f64 * 2.0);
    println!("\ntop attributes by PGE (whole run):");
    if ranking.is_empty() {
        println!("  (none above the node-hour floor)");
        return;
    }
    for entry in ranking.iter().take(top) {
        println!(
            "  {:<44} PGE {:.4} ({} spammers over {:.0} node-hours)",
            entry.slot.describe(),
            entry.pge,
            entry.spammers,
            entry.node_hours
        );
    }
}

/// Per-stage throughput from the persisted `stage.*` series points.
fn print_stage_throughput(series: &[ph_telemetry::SeriesPoint]) {
    type StageRow = (Option<f64>, Option<f64>, Option<f64>);
    let mut stages: BTreeMap<String, StageRow> = BTreeMap::new();
    for p in series {
        let Some(rest) = p.name.strip_prefix("stage.") else {
            continue;
        };
        let Some((stage, metric)) = rest.rsplit_once('.') else {
            continue;
        };
        let entry = stages.entry(stage.to_string()).or_default();
        match metric {
            "items" => entry.0 = Some(p.value),
            "ms" => entry.1 = Some(p.value),
            "tweets_per_s" => entry.2 = Some(p.value),
            _ => {}
        }
    }
    if stages.is_empty() {
        return;
    }
    let cell = |v: Option<f64>, precision: usize| match v {
        Some(v) => format!("{v:.precision$}"),
        None => "-".to_string(),
    };
    println!("\nstage throughput:");
    println!(
        "{:<28} {:>12} {:>12} {:>12}",
        "stage", "items", "total ms", "tweets/s"
    );
    for (stage, (items, ms, tps)) in &stages {
        println!(
            "{:<28} {:>12} {:>12} {:>12}",
            stage,
            cell(*items, 0),
            cell(*ms, 1),
            cell(*tps, 0)
        );
    }
}

/// The span tree, reconstructed from the dotted `span.<path>.*` series
/// names: a path nests under every other recorded path that dot-prefixes
/// it.
fn print_span_tree(series: &[ph_telemetry::SeriesPoint]) {
    let mut spans: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for p in series {
        let Some(rest) = p.name.strip_prefix("span.") else {
            continue;
        };
        if let Some(path) = rest.strip_suffix(".count") {
            spans.entry(path.to_string()).or_default().0 = p.value;
        } else if let Some(path) = rest.strip_suffix(".total_ms") {
            spans.entry(path.to_string()).or_default().1 = p.value;
        }
    }
    if spans.is_empty() {
        return;
    }
    println!("\nspan tree:");
    let paths: Vec<String> = spans.keys().cloned().collect();
    for (path, (count, total_ms)) in &spans {
        let depth = paths
            .iter()
            .filter(|p| {
                path.len() > p.len()
                    && path.starts_with(p.as_str())
                    && path.as_bytes()[p.len()] == b'.'
            })
            .count();
        println!(
            "  {:indent$}{:<32} {:>8.0}× {:>12.1} ms",
            "",
            path,
            count,
            total_ms,
            indent = depth * 2
        );
    }
}

/// The last `tail` events of the persisted run journal.
fn print_journal_tail(journal: &[ph_telemetry::JournalEntry], tail: usize) {
    if journal.is_empty() {
        return;
    }
    println!(
        "\njournal: {} deterministic events; last {}:",
        journal.len(),
        tail.min(journal.len())
    );
    let skip = journal.len().saturating_sub(tail);
    for entry in &journal[skip..] {
        println!("  #{:<6} {}", entry.seq, entry.event.describe());
    }
}

fn showdown(args: &Args) {
    let hours = args.get_u64("hours", 36);
    let nodes = args.get_u64("nodes", 100) as usize;
    let seed = args.get_u64("seed", 42);
    record_run_meta(exec_config(args).threads, seed);

    let mut ph_engine = Engine::new(sim_config(args));
    let runner = Runner::with_exec(
        RunnerConfig {
            seed,
            ..Default::default()
        },
        exec_config(args),
    );
    let ph = runner.run(&mut ph_engine, hours);
    let ph_oracle = ph_engine.ground_truth();
    let ph_flags: Vec<bool> = ph
        .collected
        .iter()
        .map(|c| ph_oracle.is_spam(&c.tweet))
        .collect();

    let mut rnd_engine = Engine::new(sim_config(args));
    let rnd = run_random_baseline(&mut rnd_engine, nodes, hours, seed);
    let rnd_oracle = rnd_engine.ground_truth();
    let rnd_flags: Vec<bool> = rnd
        .collected
        .iter()
        .map(|c| rnd_oracle.is_spam(&c.tweet))
        .collect();

    let (ph_pge, rnd_pge) = (overall_pge(&ph, &ph_flags), overall_pge(&rnd, &rnd_flags));
    println!("{hours} h head-to-head (oracle-scored):");
    println!(
        "  pseudo-honeypot: {} tweets, PGE {:.4}",
        ph.collected.len(),
        ph_pge
    );
    println!(
        "  random accounts: {} tweets, PGE {:.4}",
        rnd.collected.len(),
        rnd_pge
    );
    if rnd_pge > 0.0 {
        println!("  advantage: {:.2}×", ph_pge / rnd_pge);
    }
}
