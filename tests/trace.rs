//! Binary-level coverage of the `--trace` timeline recorder and its two
//! consumers: the Chrome trace-event JSON export must parse strictly and
//! name every pipeline stage while leaving stdout byte-identical, the
//! store-backed run must persist `trace.log`, and
//! `perf critical-path` / `inspect --timeline` must render the analysis
//! from the store alone. Also pins the `inspect --tail N` contract.

use std::path::PathBuf;
use std::process::{Command, Output};

use ph_prof::jsonv::{self, Json};

/// Fresh scratch directory per test, collision-free across parallel runs.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ph-trace-{tag}-{}-{}",
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

/// Every sharded stage the sniff pipeline drives through ph-exec; the
/// exported trace must name them all.
const PIPELINE_STAGES: &[&str] = &[
    "monitor.categorize",
    "features.pure",
    "clustering.image_sketch",
    "clustering.name_sketch",
    "clustering.description_sketch",
    "clustering.tweet_sketch",
];

/// The acceptance contract in one test: tracing changes nothing on
/// stdout, and the emitted JSON parses under a strict parser, contains
/// every pipeline stage as a named process, per-worker thread tracks,
/// each batch slice on its worker's track, and the dropped-event count.
#[test]
fn trace_export_parses_and_keeps_stdout_byte_identical() {
    let dir = scratch("export");
    let path = dir.join("timeline.json");
    let plain = quick_sniff(&["--threads", "2"]);
    let traced = quick_sniff(&["--threads", "2", "--trace", path.to_str().unwrap()]);
    assert_eq!(traced.stdout, plain.stdout, "stdout changed under --trace");

    let body = std::fs::read_to_string(&path).expect("trace JSON written");
    let doc = jsonv::parse(&body).expect("trace JSON must parse strictly");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "no trace events recorded");

    let phase_of = |e: &Json| e.get("ph").and_then(Json::as_str).unwrap_or("").to_string();
    let mut process_names = Vec::new();
    let mut thread_names = Vec::new();
    for e in events {
        match (phase_of(e).as_str(), e.get("name").and_then(Json::as_str)) {
            ("M", Some("process_name")) => {
                let name = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .expect("process_name metadata has args.name");
                process_names.push(name.to_string());
            }
            ("M", Some("thread_name")) => {
                let name = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .expect("thread_name metadata has args.name");
                thread_names.push(name.to_string());
            }
            _ => {}
        }
    }
    for stage in PIPELINE_STAGES {
        assert!(
            process_names.iter().any(|n| n == stage),
            "stage {stage} missing from trace processes: {process_names:?}"
        );
    }
    // One track per stage worker: both workers of the 2-thread run.
    for worker in ["worker 0", "worker 1"] {
        assert!(
            thread_names.iter().any(|n| n == worker),
            "no {worker} track: {thread_names:?}"
        );
    }
    assert!(
        events.iter().any(|e| phase_of(e) == "X"),
        "no complete-slice events"
    );
    // The exporter puts worker `w` on tid `w` of its stage: every batch
    // slice sits on a tid below the worker count of its stage's
    // envelopes, on a track named after that worker. Which workers claim
    // chunks is the scheduler's choice, so only those that did are
    // checked; `ph-exec`'s own tests prove fan-out where it is forced,
    // and the "worker 1" track above fails a build that runs every chunk
    // on worker 0.
    fn num(e: &Json, key: &str) -> Option<u64> {
        e.get(key).and_then(Json::as_u64)
    }
    fn arg<'a>(e: &'a Json, key: &str) -> Option<&'a Json> {
        e.get("args")?.get(key)
    }
    for batch in events
        .iter()
        .filter(|e| phase_of(e) == "X" && e.get("name").and_then(Json::as_str) == Some("batch"))
    {
        let (pid, tid) = (num(batch, "pid"), num(batch, "tid"));
        let workers = events
            .iter()
            .filter(|e| {
                phase_of(e) == "X"
                    && e.get("name").and_then(Json::as_str) == Some("stage")
                    && num(e, "pid") == pid
            })
            .filter_map(|e| arg(e, "workers").and_then(Json::as_u64))
            .max()
            .expect("a batch slice's stage has an envelope");
        let tid = tid.expect("batch slice has a tid");
        assert!(
            tid < workers,
            "batch on tid {tid} of a {workers}-worker stage"
        );
        let label = format!("worker {tid}");
        assert!(
            events.iter().any(|e| phase_of(e) == "M"
                && e.get("name").and_then(Json::as_str) == Some("thread_name")
                && num(e, "pid") == pid
                && num(e, "tid") == Some(tid)
                && arg(e, "name").and_then(Json::as_str) == Some(label.as_str())),
            "batch on tid {tid} of pid {pid:?} has no \"{label}\" track"
        );
    }
    assert!(
        doc.get("otherData")
            .and_then(|o| o.get("dropped_events"))
            .and_then(Json::as_u64)
            .is_some(),
        "no dropped_events count"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A traced `sniff --store` run persists `trace.log`, and both analysis
/// front-ends render it: `perf critical-path --store` prints the
/// parallel-efficiency figure and per-stage fractions (exit 0), and
/// `inspect --timeline` appends the same analysis to the stored-run
/// report.
#[test]
fn stored_trace_feeds_critical_path_and_inspect_timeline() {
    let dir = scratch("store");
    let store = dir.join("run");
    let json = dir.join("t.json");
    quick_sniff(&[
        "--threads",
        "2",
        "--store",
        store.to_str().unwrap(),
        "--trace",
        json.to_str().unwrap(),
    ]);
    assert!(store.join("trace.log").exists(), "trace.log not persisted");

    let cp = run(&["perf", "critical-path", "--store", store.to_str().unwrap()]);
    assert!(
        cp.status.success(),
        "critical-path failed: {}",
        String::from_utf8_lossy(&cp.stderr)
    );
    let text = String::from_utf8(cp.stdout).expect("utf-8 stdout");
    assert!(
        text.contains("parallel efficiency 0."),
        "no parallel-efficiency figure: {text}"
    );
    assert!(
        text.contains("per-stage wall-clock split"),
        "no per-stage table: {text}"
    );
    for header in ["busy", "idle", "eff.par"] {
        assert!(text.contains(header), "no {header} column: {text}");
    }
    assert!(
        text.contains("ml.train") && text.contains("serialized"),
        "RF training not reported in the phase ranking: {text}"
    );
    assert!(text.contains("critical chain"), "no chain section: {text}");

    // The standalone-path variant reads the same file directly.
    let by_path = run(&[
        "perf",
        "critical-path",
        store.join("trace.log").to_str().unwrap(),
    ]);
    assert!(by_path.status.success());
    assert_eq!(
        String::from_utf8_lossy(&by_path.stdout),
        text,
        "path and --store variants diverged"
    );

    let inspect = run(&[
        "inspect",
        "--store",
        store.to_str().unwrap(),
        "--timeline",
        "--quiet",
    ]);
    assert!(
        inspect.status.success(),
        "inspect --timeline failed: {}",
        String::from_utf8_lossy(&inspect.stderr)
    );
    let inspected = String::from_utf8(inspect.stdout).expect("utf-8 stdout");
    assert!(
        inspected.contains("per-hour PGE"),
        "inspect lost its base report: {inspected}"
    );
    assert!(
        inspected.contains("parallel efficiency"),
        "no timeline section: {inspected}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The daemon categorizes through the same traced `ph_exec` driver as the
/// batch runner: a served run's `monitor.categorize` track holds one
/// stage envelope per ground-truth hour and one per served hour.
#[test]
fn served_categorize_stage_is_traced_every_hour() {
    const GT_HOURS: usize = 3;
    const HOURS: usize = 4;
    let dir = scratch("serve");
    let path = dir.join("t.json");
    let out = run(&[
        "serve",
        "--store",
        dir.join("run").to_str().unwrap(),
        "--organic",
        "200",
        "--campaigns",
        "2",
        "--per-campaign",
        "6",
        "--gt-hours",
        &GT_HOURS.to_string(),
        "--hours",
        &HOURS.to_string(),
        "--loadgen",
        "--http",
        "none",
        "--threads",
        "2",
        "--trace",
        path.to_str().unwrap(),
        "--quiet",
    ]);
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = jsonv::parse(&std::fs::read_to_string(&path).expect("trace JSON written"))
        .expect("trace JSON must parse strictly");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let str_of = |e: &Json, key: &str| e.get(key).and_then(Json::as_str).map(str::to_string);
    let pid = events
        .iter()
        .find(|e| {
            str_of(e, "name").as_deref() == Some("process_name")
                && e.get("args").and_then(|a| str_of(a, "name")).as_deref()
                    == Some("monitor.categorize")
        })
        .and_then(|e| e.get("pid").and_then(Json::as_u64))
        .expect("no monitor.categorize track");
    let stages = events
        .iter()
        .filter(|e| {
            str_of(e, "ph").as_deref() == Some("X")
                && str_of(e, "name").as_deref() == Some("stage")
                && e.get("pid").and_then(Json::as_u64) == Some(pid)
        })
        .count();
    assert_eq!(stages, GT_HOURS + HOURS, "one categorize stage per hour");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An untraced store inspects cleanly under `--timeline` (notice, not an
/// error), and `perf critical-path` on it exits 1 with guidance.
#[test]
fn untraced_store_degrades_gracefully() {
    let dir = scratch("untraced");
    let store = dir.join("run");
    quick_sniff(&["--store", store.to_str().unwrap()]);
    assert!(!store.join("trace.log").exists());

    let inspect = run(&[
        "inspect",
        "--store",
        store.to_str().unwrap(),
        "--timeline",
        "--quiet",
    ]);
    assert!(inspect.status.success());
    assert!(
        String::from_utf8_lossy(&inspect.stdout).contains("no timeline trace in this store"),
        "missing degradation notice"
    );

    let cp = run(&["perf", "critical-path", "--store", store.to_str().unwrap()]);
    assert_eq!(cp.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&cp.stderr).contains("no timeline trace"),
        "no guidance on stderr"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--trace` without a path (parsed as a bare flag) is a usage error,
/// and an unwritable destination exits 2 with a hint — after the run,
/// like `--metrics-out`.
#[test]
fn trace_usage_errors_exit_2() {
    let bare = run(&["attributes", "--trace"]);
    assert_eq!(bare.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&bare.stderr).contains("--trace expects a file path"),
        "unexpected stderr"
    );

    let unwritable = run(&["attributes", "--trace", "/dev/null/nope/t.json"]);
    assert_eq!(unwritable.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&unwritable.stderr);
    assert!(
        stderr.contains("cannot write trace to"),
        "unexpected stderr: {stderr}"
    );
    assert!(stderr.contains("hint:"), "no hint line: {stderr}");
}

/// `perf critical-path` with neither `--store` nor a path is a usage
/// error naming both forms.
#[test]
fn critical_path_requires_a_source() {
    let out = run(&["perf", "critical-path"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("(--store DIR | TRACE.log)"),
        "unexpected stderr"
    );
}

/// `inspect --tail N` controls how many journal events render, and a
/// non-numeric N is a usage error (exit 2) with a corrective hint.
#[test]
fn inspect_tail_is_configurable_and_validated() {
    let dir = scratch("tail");
    let store = dir.join("run");
    quick_sniff(&["--store", store.to_str().unwrap()]);

    let tail_of = |n: &str| -> String {
        let out = run(&["inspect", "--store", store.to_str().unwrap(), "--tail", n]);
        assert!(out.status.success(), "inspect --tail {n} failed");
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let three = tail_of("3");
    assert!(
        three.contains("last 3:"),
        "tail length not honored: {three}"
    );
    let journal_lines = |text: &str| text.lines().filter(|l| l.starts_with("  #")).count();
    assert_eq!(journal_lines(&three), 3);
    assert_eq!(journal_lines(&tail_of("5")), 5);

    let bad = run(&[
        "inspect",
        "--store",
        store.to_str().unwrap(),
        "--tail",
        "soon",
    ]);
    assert_eq!(bad.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(
        stderr.contains("--tail expects an integer, got 'soon'"),
        "unexpected stderr: {stderr}"
    );
    assert!(
        stderr.contains("hint: pass a non-negative integer"),
        "no hint line: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
