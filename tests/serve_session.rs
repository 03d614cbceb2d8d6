//! A daemon session's run record is its own: sessions that share one
//! process must not leak events into each other's `journal.log`.
//!
//! This file holds a single test on purpose — the event journal is
//! process-global, so a daemon session running on a parallel test thread
//! would write into the journal this test compares.

use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use ph_exec::ExecConfig;
use pseudo_honeypot::serve::daemon::{run, LoadgenConfig, ServeConfig};
use pseudo_honeypot::serve::BindAddr;
use pseudo_honeypot::store::{Manifest, StoreConfig};

/// A fresh, small, self-fed daemon session in `dir`.
fn session(dir: &Path) -> ServeConfig {
    ServeConfig {
        dir: dir.to_path_buf(),
        manifest: Manifest {
            sim_seed: 13,
            organic: 200,
            campaigns: 2,
            per_campaign: 6,
            runner_seed: 13,
            gt_hours: 2,
            hours: 3,
            buffer_capacity: pseudo_honeypot::sim::api::DEFAULT_QUEUE_CAPACITY as u64,
            taste_flip: pseudo_honeypot::store::manifest::NO_TASTE_FLIP,
        },
        resume: false,
        store: StoreConfig::default(),
        exec: ExecConfig::with_threads(1),
        listen: BindAddr::Unix(dir.join("ingest.sock")),
        http: None,
        verdicts: None,
        loadgen: Some(LoadgenConfig { rate: 0.0 }),
        stop: Arc::new(AtomicBool::new(false)),
        stop_after_hours: None,
        explain: false,
        slo: None,
        watchdog_ticks: 0,
        throttle: None,
    }
}

#[test]
fn each_daemon_session_starts_with_an_empty_journal() {
    let base = std::env::temp_dir().join(format!("ph-serve-session-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (first, second) = (base.join("first"), base.join("second"));
    for dir in [&first, &second] {
        std::fs::create_dir_all(dir).unwrap();
        let outcome = run(session(dir)).unwrap();
        assert_eq!(outcome.hours_done, 3);
    }
    let journal = |dir: &Path| std::fs::read(dir.join("journal.log")).unwrap();
    let (a, b) = (journal(&first), journal(&second));
    assert!(
        a == b,
        "the second session's journal.log ({} bytes) differs from the first's ({} bytes)",
        b.len(),
        a.len()
    );
    let _ = std::fs::remove_dir_all(&base);
}
