//! Run–crash–resume equivalence through the durable store: a run killed
//! mid-flight and resumed from disk must produce a byte-identical segment
//! log, the same merged monitor report, and identical downstream labeling
//! and Random Forest verdicts as a run that never crashed.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use pseudo_honeypot::core::detector::{build_training_data, DetectorConfig, SpamDetector};
use pseudo_honeypot::core::labeling::pipeline::{label_collection, PipelineConfig};
use pseudo_honeypot::core::monitor::{
    CollectedTweet, MonitorReport, RunState, Runner, RunnerConfig,
};
use pseudo_honeypot::ml::forest::RandomForestConfig;
use pseudo_honeypot::sim::engine::{Engine, SimConfig};
use pseudo_honeypot::store::{Manifest, Store, StoreConfig};

const HOURS: u64 = 12;
const CRASH_AFTER: u64 = 5;

fn manifest() -> Manifest {
    Manifest {
        sim_seed: 23,
        organic: 650,
        campaigns: 4,
        per_campaign: 9,
        runner_seed: 7,
        gt_hours: 0,
        hours: HOURS,
        buffer_capacity: pseudo_honeypot::sim::api::DEFAULT_QUEUE_CAPACITY as u64,
        taste_flip: pseudo_honeypot::store::manifest::NO_TASTE_FLIP,
    }
}

fn engine(m: &Manifest) -> Engine {
    Engine::new(SimConfig {
        seed: m.sim_seed,
        num_organic: m.organic as usize,
        num_campaigns: m.campaigns as usize,
        accounts_per_campaign: m.per_campaign as usize,
        suspension_rate_per_hour: 0.02,
        ..Default::default()
    })
}

fn runner(m: &Manifest) -> Runner {
    Runner::new(RunnerConfig {
        seed: m.runner_seed,
        switch_interval_hours: 4, // crash at hour 5 lands mid-interval
        buffer_capacity: m.buffer_capacity as usize,
        ..Default::default()
    })
}

fn store_config() -> StoreConfig {
    StoreConfig {
        max_segment_bytes: 24 * 1024, // several segment rolls per run
        ..Default::default()
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ph-store-resume-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Runs the whole monitored window into a fresh store without crashing.
fn uninterrupted_stored_run(dir: &Path) -> (Store, MonitorReport) {
    let m = manifest();
    let mut store = Store::create(dir, m, store_config()).unwrap();
    let mut eng = engine(&m);
    let mut state = RunState::default();
    let r = runner(&m);
    let report = r
        .run_segment(
            &mut eng,
            &mut state,
            m.hours,
            u64::MAX,
            r.standard_networks(),
            &mut store.writer(&MonitorReport::default()),
        )
        .unwrap();
    store.sync().unwrap();
    (store, report)
}

/// Runs `CRASH_AFTER` hours, drops everything (the crash), then resumes
/// from disk alone and finishes the window. Returns the merged report.
fn crashed_then_resumed_run(dir: &Path) -> (Store, MonitorReport) {
    let m = manifest();
    let mut store = Store::create(dir, m, store_config()).unwrap();
    let mut eng = engine(&m);
    let mut state = RunState::default();
    let r = runner(&m);
    r.run_segment(
        &mut eng,
        &mut state,
        m.hours,
        CRASH_AFTER,
        r.standard_networks(),
        &mut store.writer(&MonitorReport::default()),
    )
    .unwrap();
    drop(store);
    drop(eng);
    drop(state); // the crash: nothing survives but the store directory

    let mut resumed = Store::open_resume(dir, store_config()).unwrap();
    assert_eq!(resumed.state.next_hour, CRASH_AFTER);
    assert_eq!(resumed.recovery.truncated_bytes, 0, "clean log got cut");
    let r = runner(&resumed.manifest);
    let mut eng = engine(&resumed.manifest);
    eng.run_hours(resumed.state.next_hour);
    let mut merged = resumed.report.clone();
    let tail = r
        .run_segment(
            &mut eng,
            &mut resumed.state,
            resumed.manifest.hours,
            u64::MAX,
            r.standard_networks(),
            &mut resumed.store.writer(&resumed.report),
        )
        .unwrap();
    merged.merge(&tail);
    resumed.store.sync().unwrap();
    (resumed.store, merged)
}

fn read_all(store: &Store) -> Vec<CollectedTweet> {
    store
        .reader()
        .unwrap()
        .collect::<io::Result<Vec<_>>>()
        .unwrap()
}

fn segment_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().starts_with("segment-"))
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

#[test]
fn crashed_run_resumes_to_a_byte_identical_log() {
    let full_dir = temp_dir("full");
    let crash_dir = temp_dir("crash");
    let (full_store, full_report) = uninterrupted_stored_run(&full_dir);
    let (resumed_store, resumed_report) = crashed_then_resumed_run(&crash_dir);

    // Same counters, same records, and the segment files match byte for
    // byte — the resumed run continued the exact log the crash left.
    assert_eq!(resumed_report.hours, full_report.hours);
    assert_eq!(resumed_report.dropped, full_report.dropped);
    assert_eq!(resumed_report.node_hours, full_report.node_hours);
    assert_eq!(resumed_store.record_count(), full_store.record_count());
    assert_eq!(read_all(&resumed_store), read_all(&full_store));

    let full_files = segment_files(&full_dir);
    let crash_files = segment_files(&crash_dir);
    assert!(full_files.len() > 1, "run too small to roll a segment");
    assert_eq!(crash_files, full_files);

    let _ = fs::remove_dir_all(&full_dir);
    let _ = fs::remove_dir_all(&crash_dir);
}

#[test]
fn downstream_pipeline_from_the_log_matches_in_memory() {
    let m = manifest();

    // Reference: the classic in-memory pipeline on an uninterrupted run.
    let mut eng = engine(&m);
    let full = runner(&m).run(&mut eng, m.hours);
    let dataset = label_collection(&full.collected, &eng, &PipelineConfig::default());
    let config = DetectorConfig {
        forest: RandomForestConfig {
            num_trees: 12, // small forest keeps the test quick
            ..DetectorConfig::default().forest
        },
        ..Default::default()
    };
    let (data, _) = build_training_data(&full.collected, &dataset.labels, &eng, config.tau);
    let detector = SpamDetector::train(&config, &data);
    let batch = detector.classify_collection(&full.collected, &eng);

    // Candidate: the same window run through a crash + resume, with every
    // downstream stage reading the recovered segment log.
    let dir = temp_dir("pipeline");
    let (store, _) = crashed_then_resumed_run(&dir);
    let stored_collection = read_all(&store);
    assert_eq!(stored_collection, full.collected);
    let stored_dataset = label_collection(&stored_collection, &eng, &PipelineConfig::default());
    assert_eq!(stored_dataset, dataset);
    let stored = detector.classify_collection(&stored_collection, &eng);
    assert_eq!(stored, batch);

    // The sidecar ground-truth bit survived the log round-trip.
    let gt = eng.ground_truth();
    for c in &stored_collection {
        assert_eq!(c.tweet.evaluation_sidecar_spam(), gt.is_spam(&c.tweet));
    }

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_is_truncated_and_the_rest_survives() {
    use std::io::Write as _;

    let dir = temp_dir("torn");
    let (store, _) = uninterrupted_stored_run(&dir);
    let intact = read_all(&store);
    let records = store.record_count();
    drop(store);

    // Tear the tail: a half-written frame at the end of the last segment.
    let last = segment_files(&dir).last().unwrap().0.clone();
    let mut file = fs::OpenOptions::new()
        .append(true)
        .open(dir.join(last))
        .unwrap();
    file.write_all(&[0x40, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF, 0x01])
        .unwrap();
    drop(file);

    let resumed = Store::open_resume(&dir, store_config()).unwrap();
    assert!(resumed.recovery.truncated_bytes > 0, "tear went unnoticed");
    assert_eq!(resumed.store.record_count(), records);
    assert_eq!(resumed.state.next_hour, HOURS, "rollback past a checkpoint");
    assert!(resumed.is_complete());
    assert_eq!(read_all(&resumed.store), intact);

    let _ = fs::remove_dir_all(&dir);
}
