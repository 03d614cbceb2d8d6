//! Pins the on-disk format. Every other store test round-trips through
//! the same encoder and decoder, so a change that alters both sides alike
//! (a reordered header field, a different checksum input) would pass
//! them all and still leave older stores unreadable. This test writes a
//! tiny fixed store — two segments, two checkpoints, one frame of each
//! sidecar stream and the manifest — and checks each file's CRC-32
//! against a recorded constant.

use std::fs;
use std::path::{Path, PathBuf};

use ph_core::attributes::{ProfileAttribute, SampleAttribute};
use ph_core::features::FEATURE_COUNT;
use ph_core::monitor::{CollectedTweet, RunState, TweetCategory};
use ph_core::observe::{DriftHourScores, VerdictExplanation};
use ph_store::crc::crc32;
use ph_store::{encode_collected, Checkpoint, CheckpointLog, Manifest, SegmentLog};
use ph_telemetry::{FlightEntry, JournalEntry, SeriesPoint, TelemetryEvent};
use ph_trace::TraceLog;
use ph_twitter_sim::time::SimTime;
use ph_twitter_sim::tweet::{Tweet, TweetId, TweetKind, TweetSource};
use ph_twitter_sim::AccountId;

/// Segment capacity small enough that the four records span two segments.
const MAX_SEGMENT_BYTES: u64 = 320;

/// CRC-32 of each file the fixed store holds, in file-name order.
const GOLDEN: &[(&str, u32)] = &[
    ("MANIFEST", 0x77CD_D3C6),
    ("checkpoints.log", 0xEEFD_5A98),
    ("drift.log", 0x8D1A_1821),
    ("explain.log", 0x0B16_CA1D),
    ("flight.log", 0xE1B3_D314),
    ("journal.log", 0x14C5_59DD),
    ("segment-00000000.seg", 0x827E_FA14),
    ("segment-00000001.seg", 0x6896_9FA1),
    ("series.log", 0x82C3_DBBD),
    ("trace.log", 0x3474_7657),
];

fn collected(i: u64) -> CollectedTweet {
    let mut tweet = Tweet::observed(
        TweetId(1_000 + i),
        AccountId(40 + i as u32),
        SimTime::from_minutes(60 * 30 + 7 * i),
        TweetKind::ALL[i as usize % TweetKind::ALL.len()],
        TweetSource::ALL[i as usize % TweetSource::ALL.len()],
        format!("golden tweet {i} http://x.example/{i}"),
        vec![format!("tag{i}")],
        vec![AccountId(7)],
        vec![format!("http://x.example/{i}")],
        (i % 2 == 1).then(|| SimTime::from_minutes(60 * 29)),
    );
    tweet.set_evaluation_sidecar_spam(i.is_multiple_of(2));
    CollectedTweet {
        tweet,
        category: if i.is_multiple_of(2) {
            TweetCategory::NodeActivity
        } else {
            TweetCategory::MentionOfNode
        },
        node: AccountId(3),
        slot: SampleAttribute::profile(ProfileAttribute::FriendsCount, 1_000.0),
        hour: 30 + i / 2,
    }
}

fn checkpoint(records: u64) -> Checkpoint {
    let slot_a = SampleAttribute::profile(ProfileAttribute::FriendsCount, 1_000.0);
    let slot_b = SampleAttribute::hashtag(None);
    Checkpoint {
        records,
        engine_hours: 30 + records / 2,
        state: RunState {
            next_hour: records / 2,
            round: records / 2,
            membership: vec![(AccountId(3), slot_a), (AccountId(9), slot_b)],
        },
        hours: records / 2,
        dropped: records % 3,
        node_hours: [(slot_a, 10.0 * records as f64), (slot_b, 2.5)]
            .into_iter()
            .collect(),
    }
}

fn write_fixed_store(dir: &Path) {
    let manifest = Manifest {
        sim_seed: 7,
        organic: 300,
        campaigns: 2,
        per_campaign: 5,
        runner_seed: 7,
        gt_hours: 30,
        hours: 2,
        buffer_capacity: 4096,
        taste_flip: 31,
    };
    manifest.save(&dir.join("MANIFEST")).unwrap();

    let mut log = SegmentLog::create(dir, MAX_SEGMENT_BYTES).unwrap();
    let mut checkpoints = CheckpointLog::create(&dir.join("checkpoints.log")).unwrap();
    for hour in 0..2u64 {
        let payloads: Vec<Vec<u8>> = (2 * hour..2 * hour + 2)
            .map(|i| encode_collected(&collected(i)))
            .collect();
        log.append_batch(&payloads).unwrap();
        log.sync().unwrap();
        checkpoints.append(&checkpoint(log.record_count())).unwrap();
    }

    ph_store::write_journal(
        dir,
        &[JournalEntry {
            seq: 0,
            event: TelemetryEvent::CheckpointWritten {
                hour: 1,
                records: 2,
            },
        }],
    )
    .unwrap();
    ph_store::write_series(
        dir,
        &[SeriesPoint {
            name: "monitor.collected".to_string(),
            hour: 1,
            value: 2.0,
        }],
    )
    .unwrap();
    let mut attributions = [0.0; FEATURE_COUNT];
    for (i, a) in attributions.iter_mut().enumerate() {
        *a = (i as f64 - 29.0) / 1024.0;
    }
    ph_store::write_explain(
        dir,
        &[VerdictExplanation {
            seq: 0,
            hour: 30,
            spam: true,
            score: 0.75,
            margin: 0.5,
            baseline: 0.25,
            attributions,
        }],
    )
    .unwrap();
    let mut psi = [0.0; FEATURE_COUNT];
    psi[17] = 0.3125;
    ph_store::write_drift(
        dir,
        &[DriftHourScores {
            hour: 30,
            samples: 2,
            psi,
        }],
        &[],
    )
    .unwrap();
    ph_store::write_flight(
        dir,
        &[FlightEntry {
            at_ms: 1_700_000_000_000,
            kind: "checkpoint".to_string(),
            detail: "hour 1, 2 records".to_string(),
        }],
    )
    .unwrap();
    ph_store::write_trace(dir, &TraceLog::from_events(Vec::new(), 0)).unwrap();
}

#[test]
fn a_fixed_store_has_the_recorded_bytes() {
    let dir: PathBuf = std::env::temp_dir().join(format!("ph-store-golden-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    write_fixed_store(&dir);

    let mut files: Vec<(String, u32)> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, crc32(&fs::read(e.path()).unwrap()))
        })
        .collect();
    files.sort();
    let listing: Vec<String> = files
        .iter()
        .map(|(name, crc)| format!("(\"{name}\", 0x{crc:08X}),"))
        .collect();
    let golden: Vec<(String, u32)> = GOLDEN
        .iter()
        .map(|&(name, crc)| (name.to_string(), crc))
        .collect();
    assert_eq!(files, golden, "store bytes moved:\n{}", listing.join("\n"));
    fs::remove_dir_all(&dir).unwrap();
}
