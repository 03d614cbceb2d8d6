//! Property coverage of the store codecs and the recovery rule:
//! round-trips hold for arbitrary records, the decoders never panic on
//! arbitrary bytes, and a segment file cut at *any* byte offset recovers
//! to exactly its longest valid frame prefix.

use std::sync::atomic::{AtomicUsize, Ordering};

use ph_core::attributes::{ProfileAttribute, SampleAttribute, TrendAttribute};
use ph_core::monitor::{CollectedTweet, TweetCategory};
use ph_store::log::{FRAME_OVERHEAD, SEGMENT_HEADER_LEN};
use ph_store::{decode_collected, encode_collected, LogReader};
use ph_store::{Checkpoint, SegmentLog};
use ph_twitter_sim::time::SimTime;
use ph_twitter_sim::tweet::{Tweet, TweetId, TweetKind, TweetSource};
use ph_twitter_sim::{AccountId, TopicCategory};
use proptest::prelude::*;

fn ascii() -> impl Strategy<Value = String> {
    collection::vec(32u8..127u8, 0..50)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ASCII"))
}

fn slot() -> impl Strategy<Value = SampleAttribute> {
    prop_oneof![
        (0..ProfileAttribute::ALL.len(), any::<bool>(), any::<f64>()).prop_map(|(i, some, v)| {
            SampleAttribute {
                kind: ph_core::attributes::AttributeKind::Profile(ProfileAttribute::ALL[i]),
                sample_value: some.then_some(v),
            }
        }),
        (0..TopicCategory::ALL.len())
            .prop_map(|i| SampleAttribute::hashtag(Some(TopicCategory::ALL[i]))),
        Just(SampleAttribute::hashtag(None)),
        (0..TrendAttribute::ALL.len())
            .prop_map(|i| SampleAttribute::trending(TrendAttribute::ALL[i])),
    ]
}

#[allow(clippy::too_many_arguments)]
fn build_collected(
    id: u64,
    author: u32,
    minutes: u64,
    kind: usize,
    source: usize,
    text: String,
    hashtags: Vec<String>,
    mentions: Vec<u32>,
    urls: Vec<String>,
    reacted: Option<u64>,
    sidecar: bool,
    category: bool,
    node: u32,
    slot: SampleAttribute,
    hour: u64,
) -> CollectedTweet {
    let mut tweet = Tweet::observed(
        TweetId(id),
        AccountId(author),
        SimTime::from_minutes(minutes),
        TweetKind::ALL[kind % TweetKind::ALL.len()],
        TweetSource::ALL[source % TweetSource::ALL.len()],
        text,
        hashtags,
        mentions.into_iter().map(AccountId).collect(),
        urls,
        reacted.map(SimTime::from_minutes),
    );
    tweet.set_evaluation_sidecar_spam(sidecar);
    CollectedTweet {
        tweet,
        category: if category {
            TweetCategory::MentionOfNode
        } else {
            TweetCategory::NodeActivity
        },
        node: AccountId(node),
        slot,
        hour,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn collected_record_roundtrips(
        id: u64,
        author: u32,
        minutes in 0u64..1_000_000_000,
        kind in 0usize..3,
        source in 0usize..4,
        text in ascii(),
        hashtags in collection::vec(ascii(), 0..4),
        mentions in collection::vec(any::<u32>(), 0..4),
        urls in collection::vec(ascii(), 0..3),
        reacted in prop_oneof![Just(None), (0u64..1_000_000_000).prop_map(Some)],
        sidecar: bool,
        category: bool,
        node: u32,
        slot in slot(),
        hour: u64,
    ) {
        let collected = build_collected(
            id, author, minutes, kind, source, text, hashtags, mentions,
            urls, reacted, sidecar, category, node, slot, hour,
        );
        let payload = encode_collected(&collected);
        let decoded = decode_collected(&payload);
        prop_assert_eq!(decoded.as_ref().ok(), Some(&collected));
        // Sidecar survives independently of everything else.
        prop_assert_eq!(
            decoded.unwrap().tweet.evaluation_sidecar_spam(),
            sidecar
        );
    }

    #[test]
    fn record_decoder_never_panics_on_arbitrary_bytes(
        bytes in collection::vec(any::<u8>(), 0..300),
    ) {
        // Any outcome is fine; reaching the next case without a panic is
        // the property.
        let _ = decode_collected(&bytes);
    }

    #[test]
    fn record_decoder_never_panics_on_corrupted_records(
        seed_text in ascii(),
        slot in slot(),
        flip_at in any::<usize>(),
        flip_mask in 1u8..=255,
        cut in any::<usize>(),
    ) {
        let collected = build_collected(
            7, 9, 100, 0, 1, seed_text, vec![], vec![3], vec![],
            None, true, true, 9, slot, 5,
        );
        let mut payload = encode_collected(&collected);
        let index = flip_at % payload.len();
        payload[index] ^= flip_mask;
        let _ = decode_collected(&payload);
        let _ = decode_collected(&payload[..cut % (payload.len() + 1)]);
    }

    #[test]
    fn checkpoint_decoder_never_panics_on_arbitrary_bytes(
        bytes in collection::vec(any::<u8>(), 0..300),
    ) {
        let _ = Checkpoint::decode(&bytes);
    }

    #[test]
    fn segment_cut_anywhere_recovers_the_frame_prefix(
        payloads in collection::vec(collection::vec(any::<u8>(), 1..40), 1..12),
        cut_frac in 0.0f64..=1.0,
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ph-store-prop-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // One segment holding every record, then cut the file at an
        // arbitrary byte offset at or past the header.
        let mut log = SegmentLog::create(&dir, u64::MAX).unwrap();
        let mut frame_ends = vec![SEGMENT_HEADER_LEN];
        for p in &payloads {
            log.append_batch(&[p]).unwrap();
            frame_ends.push(frame_ends.last().unwrap() + FRAME_OVERHEAD + p.len() as u64);
        }
        log.sync().unwrap();
        drop(log);

        let path = dir.join("segment-00000000.seg");
        let full_len = std::fs::metadata(&path).unwrap().len();
        prop_assert_eq!(full_len, *frame_ends.last().unwrap());
        let cut = SEGMENT_HEADER_LEN
            + ((full_len - SEGMENT_HEADER_LEN) as f64 * cut_frac) as u64;
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        // The longest frame prefix fitting inside the cut.
        let expect = frame_ends.iter().filter(|&&end| end <= cut).count() - 1;
        let (log, report) = SegmentLog::open(&dir, u64::MAX).unwrap();
        prop_assert_eq!(log.record_count(), expect as u64);
        prop_assert_eq!(report.records, expect as u64);
        drop(log);
        let read: Vec<Vec<u8>> = LogReader::open(&dir)
            .unwrap()
            .collect::<std::io::Result<_>>()
            .unwrap();
        prop_assert_eq!(&read[..], &payloads[..expect]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
