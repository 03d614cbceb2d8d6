//! Binary-level coverage of the observability surface: `--progress` and
//! metrics export must never touch stdout, `--metrics-out` creates parent
//! directories and fails politely, `--metrics-format prom` emits
//! well-formed exposition text, `--log-level` is plumbed through, and
//! `inspect` renders a stored run without re-executing it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Fresh scratch directory per test, collision-free across parallel runs.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ph-observability-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pseudo-honeypot"))
        .args(args)
        .output()
        .expect("failed to launch the pseudo-honeypot binary")
}

const QUICK_SNIFF: &[&str] = &[
    "sniff",
    "--organic",
    "300",
    "--campaigns",
    "2",
    "--per-campaign",
    "8",
    "--gt-hours",
    "4",
    "--hours",
    "5",
    "--quiet",
];

fn quick_sniff(extra: &[&str]) -> Output {
    let mut args: Vec<&str> = QUICK_SNIFF.to_vec();
    args.extend(extra);
    let out = run(&args);
    assert!(
        out.status.success(),
        "sniff {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// `--progress` writes to stderr only; stdout must stay byte-identical so
/// piped output is safe to diff or parse.
#[test]
fn progress_leaves_stdout_byte_identical() {
    let plain = quick_sniff(&[]);
    let progress = quick_sniff(&["--progress"]);
    assert_eq!(progress.stdout, plain.stdout, "stdout changed");
    let stderr = String::from_utf8_lossy(&progress.stderr);
    assert!(
        stderr.contains("tweets"),
        "no progress line on stderr: {stderr}"
    );
}

/// `--metrics-format prom` leaves stdout untouched and writes exposition
/// text where every non-comment line is `name{{labels}} value`.
#[test]
fn prom_metrics_parse_and_leave_stdout_unchanged() {
    let dir = scratch("prom");
    let path = dir.join("run.prom");
    let plain = quick_sniff(&[]);
    let exported = quick_sniff(&[
        "--metrics-out",
        path.to_str().unwrap(),
        "--metrics-format",
        "prom",
    ]);
    assert_eq!(exported.stdout, plain.stdout, "stdout changed");
    let body = std::fs::read_to_string(&path).expect("prom file written");
    assert!(body.contains("# TYPE"), "no TYPE comments: {body}");
    assert!(
        body.contains("ph_series{"),
        "series samples missing: {body}"
    );
    for line in body.lines().filter(|l| !l.is_empty()) {
        if line.starts_with("# HELP") || line.starts_with("# TYPE") {
            continue;
        }
        let (sample, value) = line.rsplit_once(' ').expect("sample has a value");
        let name_ok = sample.split('{').next().is_some_and(|n| {
            !n.is_empty() && n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        });
        assert!(name_ok, "malformed sample name: {line}");
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "-Inf" || value == "NaN",
            "malformed sample value: {line}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unknown `--metrics-format` is a usage error before any work runs.
#[test]
fn unknown_metrics_format_exits_2() {
    let out = run(&["sniff", "--hours", "2", "--metrics-format", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--metrics-format expects 'json' or 'prom', got 'bogus'"),
        "unexpected stderr: {stderr}"
    );
}

/// `--metrics-out` creates missing parent directories.
#[test]
fn metrics_out_creates_parent_dirs() {
    let dir = scratch("mkdirs");
    let path = dir.join("a").join("b").join("run.json");
    quick_sniff(&["--metrics-out", path.to_str().unwrap()]);
    let body = std::fs::read_to_string(&path).expect("metrics written");
    assert!(body.starts_with('{'), "not a JSON report: {body}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unwritable `--metrics-out` destination exits 2 with a friendly
/// message instead of panicking. `/dev/null/x` cannot exist on any Unix.
#[test]
fn unwritable_metrics_out_exits_2() {
    let out = run(&["attributes", "--metrics-out", "/dev/null/nope/run.json"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot write metrics to"),
        "unexpected stderr: {stderr}"
    );
    assert!(stderr.contains("hint:"), "no hint line: {stderr}");
}

/// `--log-level` is plumbed from the CLI into the logger: a bad level is
/// a usage error naming the accepted set, and `debug` actually lowers the
/// threshold (debug lines appear on stderr).
#[test]
fn log_level_cli_plumbing() {
    let bad = run(&["attributes", "--log-level", "verbose"]);
    assert_eq!(bad.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(
        stderr.contains("unknown log level 'verbose'"),
        "unexpected stderr: {stderr}"
    );
    assert!(
        stderr.contains("expected error, warn, info, or debug"),
        "no accepted-set hint: {stderr}"
    );

    let debug = run(&[
        "simulate",
        "--hours",
        "2",
        "--organic",
        "100",
        "--log-level",
        "debug",
    ]);
    assert!(debug.status.success());
}

/// `inspect` renders the per-hour PGE table, stage throughput, and
/// journal tail from the store alone — and a second invocation (nothing
/// re-runs, nothing mutates) prints the identical report.
#[test]
fn inspect_renders_a_stored_run() {
    let dir = scratch("inspect");
    let store = dir.join("run");
    quick_sniff(&["--store", store.to_str().unwrap(), "--seed", "11"]);
    for name in ["journal.log", "series.log"] {
        assert!(store.join(name).exists(), "{name} missing after sniff");
    }

    let inspect = |store: &Path| -> String {
        let out = run(&["inspect", "--store", store.to_str().unwrap(), "--quiet"]);
        assert!(
            out.status.success(),
            "inspect failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let text = inspect(&store);
    assert!(text.contains("per-hour PGE"), "no PGE table: {text}");
    // One dense row per monitored hour, each starting with its hour index.
    for hour in 0..5 {
        assert!(
            text.lines()
                .any(|l| l.trim_start().starts_with(&format!("{hour} "))),
            "no row for hour {hour}: {text}"
        );
    }
    assert!(text.contains("top attributes by PGE"), "no ranking: {text}");
    assert!(text.contains("stage throughput"), "no stage table: {text}");
    assert!(
        text.contains("monitor.categorize"),
        "no categorize stage row: {text}"
    );
    assert!(text.contains("span tree"), "no span tree: {text}");
    assert!(text.contains("journal:"), "no journal tail: {text}");
    assert_eq!(inspect(&store), text, "inspect is not idempotent");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store whose telemetry streams are missing (a run persisted before
/// the journal existed, or one whose streams were pruned) still inspects
/// cleanly: the PGE tables render from the manifest/segments and a notice
/// replaces the journal-backed sections instead of an error.
#[test]
fn inspect_degrades_gracefully_without_telemetry_streams() {
    let dir = scratch("inspect-nostreams");
    let store = dir.join("run");
    quick_sniff(&["--store", store.to_str().unwrap(), "--seed", "11"]);
    for name in ["journal.log", "series.log"] {
        let path = store.join(name);
        assert!(path.exists(), "{name} missing after sniff");
        std::fs::remove_file(&path).expect("prune telemetry stream");
    }

    let out = run(&["inspect", "--store", store.to_str().unwrap(), "--quiet"]);
    assert!(
        out.status.success(),
        "inspect failed on a pre-journal store: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        text.contains("per-hour PGE"),
        "PGE table should still render: {text}"
    );
    assert!(
        text.contains("no telemetry recorded in this store"),
        "missing degradation notice: {text}"
    );
    assert!(
        !text.contains("stage throughput"),
        "stage table should be skipped without series data: {text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// All verdict-segment bytes of a store, concatenated in segment order.
fn segment_bytes(dir: &Path) -> Vec<u8> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("store dir readable")
        .filter_map(|e| {
            let path = e.ok()?.path();
            let name = path.file_name()?.to_str()?;
            (name.starts_with("segment-") && name.ends_with(".seg")).then_some(path)
        })
        .collect();
    segments.sort();
    let mut bytes = Vec::new();
    for segment in segments {
        bytes.extend(std::fs::read(segment).expect("segment readable"));
    }
    bytes
}

/// `--explain` is strictly additive: with the flag off nothing changes
/// (no explain/drift streams appear), and turning it on leaves stdout
/// and the verdict segments byte-identical — explanations ride beside
/// the pipeline, never inside it.
#[test]
fn explain_off_is_the_pre_observability_run_and_on_is_additive() {
    let dir = scratch("explain-additive");
    let plain_store = dir.join("plain").join("run");
    let explained_store = dir.join("explained").join("run");
    // Relative --store from per-run parent dirs: the run summary prints
    // the store path, which must not differ between the two invocations.
    let sniff_in = |parent: &Path, extra: &[&str]| -> Output {
        std::fs::create_dir_all(parent).expect("create store parent");
        let mut args: Vec<&str> = QUICK_SNIFF.to_vec();
        args.extend(["--store", "run", "--seed", "11"]);
        args.extend(extra);
        let out = Command::new(env!("CARGO_BIN_EXE_pseudo-honeypot"))
            .args(&args)
            .current_dir(parent)
            .output()
            .expect("failed to launch the pseudo-honeypot binary");
        assert!(
            out.status.success(),
            "sniff {extra:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };
    let plain = sniff_in(&dir.join("plain"), &[]);
    let explained = sniff_in(&dir.join("explained"), &["--explain"]);
    assert_eq!(
        explained.stdout, plain.stdout,
        "--explain changed stdout bytes"
    );
    assert_eq!(
        segment_bytes(&explained_store),
        segment_bytes(&plain_store),
        "--explain changed the verdict segments"
    );
    for name in ["explain.log", "drift.log"] {
        assert!(
            !plain_store.join(name).exists(),
            "{name} written without --explain"
        );
        assert!(
            explained_store.join(name).exists(),
            "{name} missing with --explain"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Attributions and drift scores are deterministic across thread counts:
/// `--threads 1` and `--threads 0` (all cores) produce byte-identical
/// explain, drift, and journal streams.
#[test]
fn explain_and_drift_streams_are_thread_count_invariant() {
    let dir = scratch("explain-threads");
    let streams_for = |threads: &str| -> Vec<Vec<u8>> {
        let store = dir.join(format!("t{threads}"));
        quick_sniff(&[
            "--store",
            store.to_str().unwrap(),
            "--seed",
            "11",
            "--taste-flip",
            "4",
            "--explain",
            "--threads",
            threads,
        ]);
        ["explain.log", "drift.log", "journal.log"]
            .iter()
            .map(|name| {
                std::fs::read(store.join(name))
                    .unwrap_or_else(|e| panic!("{name} unreadable at --threads {threads}: {e}"))
            })
            .collect()
    };
    assert_eq!(
        streams_for("1"),
        streams_for("0"),
        "explain/drift/journal streams diverge across thread counts"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `explain` renders a stored verdict's provenance — identity, ground
/// truth, score/margin/baseline, named attributions — from the store
/// alone, and fails politely when the stream or seq is absent.
#[test]
fn explain_subcommand_renders_from_the_store_alone() {
    let dir = scratch("explain-cmd");
    let store = dir.join("run");
    quick_sniff(&[
        "--store",
        store.to_str().unwrap(),
        "--seed",
        "11",
        "--explain",
    ]);

    let out = run(&["explain", "--store", store.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "explain failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(text.contains("== verdict "), "no verdict header: {text}");
    assert!(text.contains("tweet "), "no tweet identity: {text}");
    assert!(
        text.contains("ground truth (stored sidecar):"),
        "no ground-truth line: {text}"
    );
    assert!(
        text.contains("score ") && text.contains("margin ") && text.contains("baseline"),
        "no score/margin/baseline line: {text}"
    );
    assert!(
        text.contains("feature attributions"),
        "no attribution table: {text}"
    );
    assert!(
        text.contains("attributions telescope"),
        "no telescoping footnote: {text}"
    );

    // A seq past the stream is an error naming the valid range.
    let missing = run(&[
        "explain",
        "--store",
        store.to_str().unwrap(),
        "--seq",
        "99999999",
    ]);
    assert_eq!(missing.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&missing.stderr).contains("no explanation with seq"),
        "unexpected stderr"
    );

    // A store recorded without --explain points at the flag.
    let plain_store = dir.join("plain");
    quick_sniff(&["--store", plain_store.to_str().unwrap(), "--seed", "11"]);
    let bare = run(&["explain", "--store", plain_store.to_str().unwrap()]);
    assert_eq!(bare.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&bare.stderr).contains("record the run with sniff"),
        "no --explain hint"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `inspect --drift` renders the per-hour PSI table, the most drifted
/// features, and the alarm timeline from `drift.log` — and degrades to a
/// notice on stores recorded without `--explain`.
#[test]
fn inspect_drift_renders_the_psi_table_and_alarms() {
    let dir = scratch("inspect-drift");
    let store = dir.join("run");
    quick_sniff(&[
        "--store",
        store.to_str().unwrap(),
        "--seed",
        "11",
        "--taste-flip",
        "4",
        "--explain",
    ]);
    let out = run(&[
        "inspect",
        "--store",
        store.to_str().unwrap(),
        "--drift",
        "--quiet",
    ]);
    assert!(
        out.status.success(),
        "inspect --drift failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        text.contains("per-hour feature drift"),
        "no drift table: {text}"
    );
    assert!(
        text.contains("most drifted features"),
        "no drifted-feature ranking: {text}"
    );
    assert!(text.contains("drift alarms"), "no alarm timeline: {text}");

    let plain_store = dir.join("plain");
    quick_sniff(&["--store", plain_store.to_str().unwrap(), "--seed", "11"]);
    let bare = run(&[
        "inspect",
        "--store",
        plain_store.to_str().unwrap(),
        "--drift",
        "--quiet",
    ]);
    assert!(
        bare.status.success(),
        "inspect --drift must degrade, not fail"
    );
    assert!(
        String::from_utf8_lossy(&bare.stdout).contains("no drift stream in this store"),
        "missing degradation notice"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `inspect` without `--store` is a usage error.
#[test]
fn inspect_requires_store() {
    let out = run(&["inspect"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("inspect requires --store"),
        "unexpected stderr"
    );
}

/// `sniff --explain` writes its explanations and drift windows into the
/// store, so without `--store` it is a usage error, not silently lost
/// work.
#[test]
fn sniff_explain_requires_store() {
    let out = run(&["sniff", "--explain", "--quiet"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--explain require --store DIR"),
        "no --store hint: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty(), "sniff ran before the usage check");
}

/// Forest training follows `--threads` like every other stage: the
/// run's metadata names the tree workers it used, and `--threads 1`
/// trains sequentially.
#[test]
fn forest_training_uses_the_requested_threads() {
    let dir = scratch("forest-threads");
    for threads in ["1", "2"] {
        let path = dir.join(format!("t{threads}.json"));
        quick_sniff(&[
            "--threads",
            threads,
            "--metrics-out",
            path.to_str().unwrap(),
        ]);
        let report = std::fs::read_to_string(&path).expect("metrics written");
        assert!(
            report.contains(&format!("\"ml.forest.workers\": \"{threads}\"")),
            "--threads {threads} trained on other worker counts: {report}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
