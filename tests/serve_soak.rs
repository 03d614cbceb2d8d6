//! Restart-equivalence soaks for the `serve` daemon and the interruptible
//! batch sniff.
//!
//! The central pin: a daemon stopped mid-run and continued with
//! `--resume` must produce a verdict stream (and segment log) that is
//! **byte-identical** to a never-interrupted run's — determinism survives
//! process death.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use ph_exec::ExecConfig;
use pseudo_honeypot::core::monitor::RunState;
use pseudo_honeypot::serve::daemon::{run, LoadgenConfig, ServeConfig, ENDPOINTS_FILE};
use pseudo_honeypot::serve::BindAddr;
use pseudo_honeypot::sim::wire::{write_stream_frame, StreamFrame};
use pseudo_honeypot::store::{CheckpointLog, Manifest, StoreConfig, CHECKPOINT_FILE};

fn manifest() -> Manifest {
    Manifest {
        sim_seed: 11,
        organic: 300,
        campaigns: 3,
        per_campaign: 10,
        runner_seed: 11,
        gt_hours: 3,
        hours: 6,
        buffer_capacity: pseudo_honeypot::sim::api::DEFAULT_QUEUE_CAPACITY as u64,
        taste_flip: pseudo_honeypot::store::manifest::NO_TASTE_FLIP,
    }
}

/// A self-contained daemon session: Unix-socket ingest inside the store
/// directory, built-in unpaced load generation, no HTTP endpoint.
fn config(dir: &Path, resume: bool, stop_after: Option<u64>) -> ServeConfig {
    ServeConfig {
        dir: dir.to_path_buf(),
        manifest: manifest(),
        resume,
        store: StoreConfig::default(),
        exec: ExecConfig::with_threads(1),
        listen: BindAddr::Unix(dir.join("ingest.sock")),
        http: None,
        verdicts: None,
        loadgen: Some(LoadgenConfig { rate: 0.0 }),
        stop: Arc::new(AtomicBool::new(false)),
        stop_after_hours: stop_after,
        explain: false,
        slo: None,
        watchdog_ticks: 0,
        throttle: None,
    }
}

/// All segment-log bytes of a store, concatenated in segment order.
fn segment_bytes(dir: &Path) -> Vec<u8> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let path = e.ok()?.path();
            let name = path.file_name()?.to_str()?;
            (name.starts_with("segment-") && name.ends_with(".seg")).then_some(path)
        })
        .collect();
    segments.sort();
    let mut bytes = Vec::new();
    for segment in segments {
        bytes.extend(std::fs::read(segment).unwrap());
    }
    bytes
}

/// Run once plain and once with `explain: true`; the explained pair
/// also compares the decision streams, which a resumed session rebuilds
/// in its own decision log while it replays the stored hours.
#[test]
fn drained_and_resumed_serve_matches_an_uninterrupted_run_byte_for_byte() {
    let base = std::env::temp_dir().join(format!("ph-serve-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    for explain in [false, true] {
        let session = |dir: &Path, resume: bool, stop_after: Option<u64>| ServeConfig {
            explain,
            ..config(dir, resume, stop_after)
        };
        let interrupted = base.join(format!("interrupted-{explain}"));
        let uninterrupted = base.join(format!("uninterrupted-{explain}"));

        // Session 1: drain after 3 of 6 hours — the deterministic stand-in
        // for SIGTERM (the signal path flips the same stop flag).
        let first = run(session(&interrupted, false, Some(3))).unwrap();
        assert!(first.stopped_early, "stop-after must report an early stop");
        assert_eq!(first.hours_done, 3);
        // Each hour's verdicts wait for its checkpoint, and the drain waits
        // for the store's writer thread: the stream holds one line per
        // durable record, no more and no fewer.
        assert_eq!(verdict_lines(&interrupted), first.records);

        // Session 2: resume to completion, in the same process.
        let second = run(session(&interrupted, true, None)).unwrap();
        assert!(!second.stopped_early);
        assert_eq!(second.hours_done, 6);
        assert_eq!(verdict_lines(&interrupted), second.records);

        // The control: one uninterrupted daemon over the same manifest.
        let full = run(session(&uninterrupted, false, None)).unwrap();
        assert!(!full.stopped_early);
        assert_eq!(full.hours_done, 6);
        assert!(full.verdicts > 0, "the soak must classify something");
        assert_eq!(second.records, full.records);
        assert_eq!(second.verdicts, full.verdicts);

        let mut compared = vec!["verdicts.ndjson"];
        if explain {
            compared.extend(["explain.log", "drift.log"]);
        }
        for name in compared {
            let resumed = std::fs::read(interrupted.join(name)).unwrap();
            let control = std::fs::read(uninterrupted.join(name)).unwrap();
            assert!(
                resumed == control,
                "explain={explain}: restart broke the byte identity of {name} \
                 ({} vs {} bytes)",
                resumed.len(),
                control.len()
            );
        }
        assert_eq!(
            segment_bytes(&interrupted),
            segment_bytes(&uninterrupted),
            "explain={explain}: restart broke segment-log byte identity"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Lines in a store's verdict stream.
fn verdict_lines(dir: &Path) -> u64 {
    let stream = std::fs::read(dir.join("verdicts.ndjson")).unwrap();
    stream.iter().filter(|&&b| b == b'\n').count() as u64
}

/// The run cursor of every checkpoint in a store, in append order.
fn checkpointed_states(dir: &Path) -> Vec<RunState> {
    let (_, checkpoints) = CheckpointLog::open(&dir.join(CHECKPOINT_FILE)).unwrap();
    checkpoints.into_iter().map(|c| c.state).collect()
}

/// The daemon's replica runs up to two hours ahead of the run cursor, so
/// a drain after `k` of `hours` hours lands with the replica 0, 1 or 2
/// hours past the cursor. Whatever it had done ahead must be invisible:
/// for every `k`, the restored cursor equals the uninterrupted run's at
/// hour `k`, and drain + resume reproduces the uninterrupted verdict
/// stream, segment log and checkpoint log byte for byte.
#[test]
fn draining_at_every_hour_resumes_to_an_uninterrupted_run() {
    let base = std::env::temp_dir().join(format!("ph-serve-lookahead-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let hours = manifest().hours;
    let control = base.join("uninterrupted");
    run(config(&control, false, None)).unwrap();
    let control_states = checkpointed_states(&control);
    assert_eq!(
        control_states.len() as u64,
        hours,
        "one checkpoint per hour"
    );

    for k in 1..hours {
        let dir = base.join(format!("drained-{k}"));
        let first = run(config(&dir, false, Some(k))).unwrap();
        assert!(first.stopped_early);
        assert_eq!(first.hours_done, k);
        let restored = checkpointed_states(&dir).pop().unwrap();
        let expected = &control_states[k as usize - 1];
        assert_eq!(restored.next_hour, k);
        assert_eq!(
            restored.round, expected.round,
            "round after a drain at hour {k}"
        );
        assert_eq!(
            restored.membership, expected.membership,
            "membership after a drain at hour {k}"
        );

        let second = run(config(&dir, true, None)).unwrap();
        assert!(!second.stopped_early);
        assert_eq!(second.hours_done, hours);
        for file in ["verdicts.ndjson", CHECKPOINT_FILE] {
            assert!(
                std::fs::read(dir.join(file)).unwrap()
                    == std::fs::read(control.join(file)).unwrap(),
                "a drain at hour {k} broke {file} byte identity"
            );
        }
        assert!(
            segment_bytes(&dir) == segment_bytes(&control),
            "a drain at hour {k} broke segment-log byte identity"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// A producer that skips an hour marker violates the protocol: the
/// session must fail with `InvalidData` and return — the replica thread,
/// possibly blocked on a full plan channel, must not keep it alive.
#[test]
fn an_hour_marker_gap_fails_the_session_and_returns() {
    let dir = std::env::temp_dir().join(format!("ph-serve-gap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = ServeConfig {
        loadgen: None,
        ..config(&dir, false, None)
    };
    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || done.send(run(session)));

    let deadline = Instant::now() + Duration::from_secs(120);
    while !dir.join(ENDPOINTS_FILE).exists() {
        assert!(
            Instant::now() < deadline,
            "the daemon never started accepting"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut producer = UnixStream::connect(dir.join("ingest.sock")).unwrap();
    write_stream_frame(&mut producer, &StreamFrame::HourBoundary { hour: 1 }).unwrap();

    let result = outcome
        .recv_timeout(Duration::from_secs(120))
        .expect("the daemon hung after an hour-marker gap");
    let err = result.expect_err("an hour-marker gap must fail the session");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    drop(producer);
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGINT on `sniff --store`, then `--resume`: the store completes, and
/// its checkpoint log equals an uninterrupted run's byte for byte — the
/// drain adds no checkpoint at a cursor the hourly cadence already wrote.
#[test]
fn sigint_on_batch_sniff_checkpoints_exits_5_and_resumes_cleanly() {
    let dir = std::env::temp_dir().join(format!("ph-sniff-sigint-{}", std::process::id()));
    let control =
        std::env::temp_dir().join(format!("ph-sniff-sigint-control-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&control);
    let exe = env!("CARGO_BIN_EXE_pseudo-honeypot");
    let sim_args = [
        "--seed",
        "9",
        "--organic",
        "300",
        "--campaigns",
        "2",
        "--gt-hours",
        "2",
        "--hours",
        "60",
    ];
    let mut child = std::process::Command::new(exe)
        .arg("sniff")
        .args(["--store", dir.to_str().unwrap()])
        .args(sim_args)
        .arg("--quiet")
        .stdout(std::process::Stdio::null())
        .spawn()
        .unwrap();

    // Interrupt as soon as the first monitored hour is checkpointed — a
    // stop before any checkpoint would be indistinguishable from never
    // having started.
    let checkpoints = dir.join(CHECKPOINT_FILE);
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if checkpoints.exists()
            && std::fs::metadata(&checkpoints)
                .map(|m| m.len())
                .unwrap_or(0)
                > 0
        {
            break;
        }
        if let Some(status) = child.try_wait().unwrap() {
            panic!("sniff finished before it could be interrupted: {status}");
        }
        assert!(Instant::now() < deadline, "no checkpoint within 120 s");
        std::thread::sleep(Duration::from_millis(5));
    }
    let killed = std::process::Command::new("kill")
        .args(["-s", "INT", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(killed.success(), "kill -s INT failed");
    let status = child.wait().unwrap();
    assert_eq!(
        status.code(),
        Some(5),
        "an interrupted sniff must exit with the documented code 5"
    );

    // The checkpoint it wrote makes the store resumable to completion.
    let resumed = std::process::Command::new(exe)
        .arg("sniff")
        .args(["--store", dir.to_str().unwrap(), "--resume", "--quiet"])
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap();
    assert_eq!(resumed.code(), Some(0), "resume after SIGINT must finish");

    let uninterrupted = std::process::Command::new(exe)
        .arg("sniff")
        .args(["--store", control.to_str().unwrap()])
        .args(sim_args)
        .arg("--quiet")
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap();
    assert_eq!(uninterrupted.code(), Some(0));
    let resumed_log = std::fs::read(&checkpoints).unwrap();
    let control_log = std::fs::read(control.join(CHECKPOINT_FILE)).unwrap();
    assert!(
        resumed_log == control_log,
        "interrupted + resumed checkpoints.log ({} bytes) differs from an uninterrupted run's ({} bytes)",
        resumed_log.len(),
        control_log.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&control);
}
