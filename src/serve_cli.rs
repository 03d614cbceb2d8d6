//! The `serve` and `feed` subcommands: the long-lived sniffer daemon and
//! its standalone wire-protocol producer.
//!
//! ```text
//! pseudo-honeypot serve --store DIR [--hours H] [--gt-hours H] [--seed S]
//!                       [--listen ADDR] [--http ADDR|none] [--verdicts FILE]
//!                       [--resume] [--loadgen] [--rate R] [--stop-after H]
//!                       [--slo pQQ:MS] [--watchdog-ticks N]
//!                       [--throttle-ms MS [--throttle-hours H]]
//! pseudo-honeypot feed  --connect ADDR [--hours H] [--start-hour H]
//!                       [--gt-hours H] [--seed S] [--rate R]
//! ```
//!
//! Service health: `--slo` arms the ingest→verdict latency SLO (per-hour
//! quantiles in `serve.latency_ms.*`, a breach degrades `/healthz` to
//! 503 and recovers when the quantile cools), `--watchdog-ticks` arms
//! the stage watchdog, SIGQUIT dumps the flight recorder into the store
//! without stopping, and a panic dumps the same ring before dying —
//! `inspect --flight` renders any of those dumps later. `feed` retries
//! its connect with bounded exponential backoff so it can race a daemon
//! that is still binding; exhausted retries exit 2 with a hint.
//!
//! `serve` binds an ingest socket (TCP `host:port` or, for anything
//! containing a `/`, a Unix-socket path), runs monitor → extract →
//! classify continuously against the frames it receives, appends live
//! NDJSON verdicts, checkpoints through `ph-store`, and drains cleanly
//! on SIGTERM/SIGINT — `--resume` then continues mid-run with a
//! byte-identical verdict stream. `feed` is the matching producer: it
//! rebuilds the deterministic engine and streams its firehose at an
//! open-loop `--rate` (events/second; 0 = unpaced).

use std::io;
use std::path::PathBuf;

use pseudo_honeypot::serve::daemon::{LoadgenConfig, ServeConfig, ThrottleConfig};
use pseudo_honeypot::serve::loadgen::FeedConfig;
use pseudo_honeypot::serve::slo::SloTarget;
use pseudo_honeypot::serve::{daemon, loadgen, signal, BindAddr};
use pseudo_honeypot::store::StoreConfig;

use crate::cli::Args;
use crate::{die, exec_config, manifest_from, record_run_meta, warn_ignored_on_resume};

/// A stopped-but-checkpointed run's exit code: the daemon (or a
/// `--store` sniff) received SIGTERM/SIGINT, drained at an hour
/// boundary, and wrote a checkpoint — `--resume` continues it.
pub const EXIT_INTERRUPTED: i32 = 5;

/// Parses `--rate R` (events/second, fractional allowed; 0 = unpaced).
fn rate_from(args: &Args) -> f64 {
    match args.options.get("rate") {
        None => 0.0,
        Some(raw) => match raw.parse::<f64>() {
            Ok(rate) if rate >= 0.0 && rate.is_finite() => rate,
            _ => {
                eprintln!("error: --rate expects a non-negative number, got '{raw}'");
                std::process::exit(2);
            }
        },
    }
}

/// `pseudo-honeypot serve` — returns the process exit code (0 done,
/// [`EXIT_INTERRUPTED`] stopped early but resumable).
pub fn serve(args: &Args) -> i32 {
    let Some(dir) = args.options.get("store").map(PathBuf::from) else {
        eprintln!("error: serve requires --store DIR");
        std::process::exit(2);
    };
    let resume = args.has_flag("resume");
    if resume {
        warn_ignored_on_resume(args);
    }
    let manifest = manifest_from(args);
    let exec = exec_config(args);
    record_run_meta(exec.threads, manifest.sim_seed);

    let listen = match args.options.get("listen") {
        Some(spec) => BindAddr::parse(spec),
        None => BindAddr::Unix(dir.join("ingest.sock")),
    };
    let http = match args.options.get("http").map(String::as_str) {
        Some("none") => None,
        Some(addr) => Some(addr.to_string()),
        None => Some("127.0.0.1:0".to_string()),
    };
    let slo = args.options.get("slo").map(|spec| {
        SloTarget::parse(spec).unwrap_or_else(|e| {
            eprintln!("error: --slo {e}");
            std::process::exit(2);
        })
    });
    let throttle = args
        .options
        .contains_key("throttle-ms")
        .then(|| ThrottleConfig {
            ms: args.get_u64("throttle-ms", 0),
            // Default: throttle every hour — pass --throttle-hours to
            // get the breach-then-recover shape.
            hours: args.get_u64("throttle-hours", u64::MAX),
        });

    // SIGQUIT is the operator's "what is the daemon doing right now":
    // it dumps the flight recorder into the store and keeps serving. A
    // panic dumps the same ring before dying, so the incident's last
    // moments survive the process.
    signal::install_dump();
    let panic_dir = dir.clone();
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let _ = pseudo_honeypot::store::write_flight(&panic_dir, &ph_telemetry::flight_snapshot());
        default_hook(info);
    }));

    let config = ServeConfig {
        dir: dir.clone(),
        manifest,
        resume,
        store: StoreConfig::default(),
        exec,
        listen,
        http,
        verdicts: args.options.get("verdicts").map(PathBuf::from),
        loadgen: args.has_flag("loadgen").then(|| LoadgenConfig {
            rate: rate_from(args),
        }),
        stop: signal::install(),
        stop_after_hours: args
            .options
            .contains_key("stop-after")
            .then(|| args.get_u64("stop-after", 0)),
        explain: args.has_flag("explain"),
        slo,
        watchdog_ticks: args.get_u64("watchdog-ticks", 0),
        throttle,
    };
    let outcome = daemon::run(config)
        .unwrap_or_else(|e| die(&format!("serve failed on {}", dir.display()), e));
    println!(
        "serve: {} of {} h monitored, {} records, {} verdicts, {} shed",
        outcome.hours_done, outcome.total_hours, outcome.records, outcome.verdicts, outcome.shed
    );
    if outcome.stopped_early {
        println!(
            "stopped early at a checkpointed hour boundary — continue with:\n  \
             pseudo-honeypot serve --store {} --resume",
            dir.display()
        );
        EXIT_INTERRUPTED
    } else {
        0
    }
}

/// `pseudo-honeypot feed` — always exits 0 on success (a vanished daemon
/// is an error: the producer is open-loop, it never waits for one).
pub fn feed(args: &Args) -> i32 {
    let Some(addr) = args.options.get("connect") else {
        eprintln!("error: feed requires --connect ADDR (the daemon's ingest socket)");
        std::process::exit(2);
    };
    let addr = BindAddr::parse(addr);
    let manifest = manifest_from(args);
    let start_hour = args.get_u64("start-hour", 0);
    if start_hour >= manifest.hours {
        eprintln!(
            "error: --start-hour {start_hour} is past the run's {} hours",
            manifest.hours
        );
        std::process::exit(2);
    }
    let config = FeedConfig {
        manifest,
        start_hour,
        end_hour: manifest.hours,
        rate: rate_from(args),
    };
    let summary = match loadgen::feed(&addr, &config) {
        Ok(summary) => summary,
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::ConnectionRefused
                    | io::ErrorKind::NotFound
                    | io::ErrorKind::AddrNotAvailable
            ) =>
        {
            // Retries are exhausted (connect_with_retry already backed
            // off for ~6 s) — the daemon simply isn't there. That's a
            // usage problem, not a runtime failure.
            eprintln!("error: no daemon listening at {addr} ({e})");
            eprintln!("hint: start one first — pseudo-honeypot serve --store DIR --listen {addr}");
            std::process::exit(2);
        }
        Err(e) => die(&format!("feed to {addr} failed"), e),
    };
    println!(
        "feed: delivered {} tweets over {} hours to {addr}",
        summary.tweets, summary.hours
    );
    0
}
