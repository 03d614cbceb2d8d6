//! Property coverage of the trace-stream codec, mirroring
//! `proptest_telemetry.rs`: every event kind round-trips exactly for
//! arbitrary field values (including non-ASCII names), and the decoder
//! never panics — it returns errors — on truncated, bit-flipped, or
//! arbitrary byte soup.

use ph_store::{decode_trace_event, encode_trace_event};
use ph_trace::TraceEvent;
use proptest::collection;
use proptest::prelude::*;

fn name() -> impl Strategy<Value = String> {
    // Hostile-name palette, including quotes/backslashes/newlines/NUL
    // and multi-byte unicode — the codec stores names length-prefixed,
    // so nothing needs escaping.
    const PALETTE: &[char] = &[
        'a', 'Z', '0', '.', ' ', '"', '\\', '\n', '\t', '\u{0}', 'é', '漢', '🦀',
    ];
    collection::vec(0usize..PALETTE.len(), 0..40)
        .prop_map(|ixs| ixs.into_iter().map(|i| PALETTE[i]).collect())
}

fn event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (
            name(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u64>()
        )
            .prop_map(
                |(name, start_us, dur_us, workers, items)| TraceEvent::Stage {
                    name,
                    start_us,
                    dur_us,
                    workers,
                    items,
                }
            ),
        (
            name(),
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>()
        )
            .prop_map(
                |(name, worker, start_us, dur_us, items)| TraceEvent::Batch {
                    name,
                    worker,
                    start_us,
                    dur_us,
                    items,
                }
            ),
        (name(), any::<u64>(), any::<u64>()).prop_map(|(name, start_us, dur_us)| {
            TraceEvent::Phase {
                name,
                start_us,
                dur_us,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn trace_events_roundtrip_exactly(event in event()) {
        let bytes = encode_trace_event(&event);
        let decoded = decode_trace_event(&bytes).expect("roundtrip");
        prop_assert_eq!(decoded, event);
    }

    #[test]
    fn truncated_payloads_error_not_panic(event in event()) {
        let bytes = encode_trace_event(&event);
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_trace_event(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded as a full event"
            );
        }
    }

    #[test]
    fn bit_flips_never_panic(event in event(), flip in any::<u64>()) {
        // A single corrupted bit may still decode (e.g. a timestamp
        // bit); the contract is only that the decoder returns instead
        // of panicking, whatever the corruption hits.
        let mut bytes = encode_trace_event(&event);
        let i = (flip % (bytes.len() as u64 * 8)) as usize;
        bytes[i / 8] ^= 1 << (i % 8);
        let _ = decode_trace_event(&bytes);
    }

    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = decode_trace_event(&bytes);
    }
}
