//! Property coverage of the telemetry stream codecs, mirroring
//! `proptest_store.rs`: journal entries and series points round-trip for
//! arbitrary field values, and the decoders never panic — they return
//! errors — on truncated or arbitrary byte soup.

use ph_store::{
    decode_journal_entry, decode_series_point, encode_journal_entry, encode_series_point,
};
use ph_telemetry::{JournalEntry, SeriesPoint, TelemetryEvent};
use proptest::prelude::*;

fn ascii() -> impl Strategy<Value = String> {
    collection::vec(32u8..127u8, 0..40)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ASCII"))
}

fn event() -> impl Strategy<Value = TelemetryEvent> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(hour, collected, dropped)| {
            TelemetryEvent::HourTick {
                hour,
                collected,
                dropped,
            }
        }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(hour, round, nodes)| {
            TelemetryEvent::AttributeSwitch { hour, round, nodes }
        }),
        (ascii(), any::<u64>())
            .prop_map(|(pass, labeled)| TelemetryEvent::LabelingPass { pass, labeled }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(hour, records)| TelemetryEvent::CheckpointWritten { hour, records }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(segment, records)| TelemetryEvent::SegmentRoll { segment, records }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn journal_entries_roundtrip(seq: u64, event in event()) {
        let entry = JournalEntry { seq, event };
        let bytes = encode_journal_entry(&entry);
        let decoded = decode_journal_entry(&bytes).expect("roundtrip");
        prop_assert_eq!(decoded, entry);
    }

    #[test]
    fn series_points_roundtrip(name in ascii(), hour: u64, value: f64) {
        let point = SeriesPoint { name, hour, value };
        let bytes = encode_series_point(&point);
        let decoded = decode_series_point(&bytes).expect("roundtrip");
        prop_assert_eq!(decoded.name, point.name);
        prop_assert_eq!(decoded.hour, point.hour);
        prop_assert_eq!(decoded.value.to_bits(), point.value.to_bits());
    }

    #[test]
    fn truncated_journal_entries_error_not_panic(seq: u64, event in event()) {
        let bytes = encode_journal_entry(&JournalEntry { seq, event });
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_journal_entry(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded as a full entry"
            );
        }
    }

    #[test]
    fn truncated_series_points_error_not_panic(name in ascii(), hour: u64, value: f64) {
        let bytes = encode_series_point(&SeriesPoint { name, hour, value });
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_series_point(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded as a full point"
            );
        }
    }

    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(bytes in collection::vec(any::<u8>(), 0..200)) {
        // Success is fine (some byte soup is a valid encoding); what the
        // contract rules out is a panic.
        let _ = decode_journal_entry(&bytes);
        let _ = decode_series_point(&bytes);
    }
}
