//! The simulator's byte identity, pinned: a CRC-32 over every tweet the
//! firehose delivers in 24 hours of the `small()` world, and over each
//! hour's pseudo-honeypot network. Any change to the engine's RNG draw
//! order, to what a tweet carries, or to which accounts selection picks
//! moves one of the two digests.

use ph_bench::ExperimentScale;
use pseudo_honeypot::core::attributes::SampleAttribute;
use pseudo_honeypot::core::selection::{select_network, SelectorConfig};
use pseudo_honeypot::sim::tweet::Tweet;
use pseudo_honeypot::store::crc::crc32;

const HOURS: u64 = 24;
/// The digest of all delivered tweets, computed before the engine kept
/// hashtags as topic indices.
const TWEETS_CRC: u32 = 0x0b82_3ba9;
/// The digest of the 24 hourly selections.
const SELECTION_CRC: u32 = 0x3c25_51fc;

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn encode(buf: &mut Vec<u8>, tweet: &Tweet) {
    buf.extend_from_slice(&tweet.id.0.to_le_bytes());
    buf.extend_from_slice(&tweet.author.0.to_le_bytes());
    buf.extend_from_slice(&tweet.created_at.as_minutes().to_le_bytes());
    buf.push(tweet.kind as u8);
    buf.push(tweet.source as u8);
    put_str(buf, &tweet.text);
    buf.push(tweet.hashtags.len() as u8);
    for h in &tweet.hashtags {
        put_str(buf, h);
    }
    buf.push(tweet.mentions.len() as u8);
    for m in &tweet.mentions {
        buf.extend_from_slice(&m.0.to_le_bytes());
    }
    buf.push(tweet.urls.len() as u8);
    for u in &tweet.urls {
        put_str(buf, u);
    }
    match tweet.reacted_to_post_at {
        Some(t) => {
            buf.push(1);
            buf.extend_from_slice(&t.as_minutes().to_le_bytes());
        }
        None => buf.push(0),
    }
    buf.push(u8::from(tweet.evaluation_sidecar_spam()));
}

#[test]
fn small_world_tweets_and_selections_keep_their_digest() {
    let mut engine = ExperimentScale::small().build_engine();
    let streaming = engine.streaming();
    let firehose = streaming.firehose_with_capacity(usize::MAX);
    let slots = SampleAttribute::standard_slots();
    let config = SelectorConfig::default();
    let (mut tweet_bytes, mut selection_bytes) = (Vec::new(), Vec::new());
    let mut tweets = 0;
    for hour in 0..HOURS {
        let network = select_network(&engine, &slots, &config, hour);
        for node in network.nodes() {
            let slot = slots.iter().position(|s| *s == node.slot).unwrap();
            selection_bytes.extend_from_slice(&node.account.0.to_le_bytes());
            selection_bytes.extend_from_slice(&(slot as u32).to_le_bytes());
        }
        for (slot, missing) in network.shortfalls() {
            let slot = slots.iter().position(|s| s == slot).unwrap();
            selection_bytes.extend_from_slice(&(slot as u32).to_le_bytes());
            selection_bytes.extend_from_slice(&(*missing as u32).to_le_bytes());
        }
        engine.step_hour();
        for tweet in streaming.poll(firehose).unwrap() {
            encode(&mut tweet_bytes, &tweet);
            tweets += 1;
        }
    }
    assert_eq!(tweets, engine.stats().tweets, "the firehose dropped tweets");
    assert_eq!(
        (crc32(&tweet_bytes), crc32(&selection_bytes)),
        (TWEETS_CRC, SELECTION_CRC),
        "{tweets} tweets ({} bytes)",
        tweet_bytes.len()
    );
}
