//! `ph-store` — durable segment log + checkpoint/replay for crash-safe,
//! resumable sniffing runs.
//!
//! The paper's monitor is a long-lived streaming collector (hourly node-set
//! switches over a 2,400-node network, §III-E); a crash must not lose a
//! multi-day collection, and historical traffic must stay queryable for
//! periodic retraining. This crate persists a monitoring run as:
//!
//! - an **append-only segment log** ([`log::SegmentLog`]) of collected
//!   tweets — fixed-size segment files, one record per frame (the record
//!   encoding extends [`ph_twitter_sim::wire`] with the monitoring
//!   context: category, node, slot, hour — see [`record`]),
//! - a **checkpoint log** ([`checkpoint::CheckpointLog`]) of hourly
//!   [`ph_core::monitor::RunState`] snapshots (node-hours per slot, current
//!   network membership, run cursor, dropped count, engine clock),
//! - a **run record** ([`Store::write_run_record`]): the deterministic
//!   event journal (`journal.log`, byte-stable across thread counts),
//!   flattened time-series points (`series.log`, [`telemetry`]) and, with
//!   decision observability on, explained verdicts and drift windows
//!   ([`decision`]) — written when a run finishes, read back by the
//!   CLI's `inspect` and `explain` subcommands,
//! - a **manifest** ([`manifest::Manifest`]) pinning the simulation and
//!   runner configuration (the engine's full RNG state is implied: the
//!   simulation is deterministic in its seed, so "engine state at hour
//!   `h`" is reconstructed by replaying `h` hours from the seed).
//!
//! Every file but the manifest shares one format: a magic + version
//! header, then `u32 length · u32 CRC-32 · payload` frames. The private
//! `frame.rs` module describes it, and its recovery rule, once; every
//! reader and writer goes through it.
//!
//! **Crash recovery** is truncation-based: on reopen, torn frames at the
//! tail of the segment log (and of the checkpoint log) are cut off, the
//! log is rolled back to the newest checkpoint it still covers, and the
//! monitor resumes from that hour. Because the simulation, selection, and
//! classification are all deterministic, `run(N)` and
//! `run(k) → crash → resume → run(N−k)` produce byte-for-byte identical
//! segment files and identical final reports.
//!
//! Everything is instrumented with `ph-telemetry`: bytes written/read,
//! fsync and segment-roll latency histograms, recovery-truncation
//! counters, and replay timing, all landing in the JSON run report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod codec;
pub mod crc;
pub mod decision;
pub mod flight;
mod frame;
pub mod log;
pub mod manifest;
pub mod record;
pub mod store;
pub mod telemetry;
pub mod trace;

pub use checkpoint::{Checkpoint, CheckpointLog};
pub use decision::{
    decode_drift_frame, decode_explanation, encode_drift_frame, encode_explanation, read_drift,
    read_explain, write_drift, write_explain, DriftFrame, DRIFT_FILE, EXPLAIN_FILE,
};
pub use flight::{
    decode_flight_entry, encode_flight_entry, read_flight, write_flight, FLIGHT_FILE, FLIGHT_MAGIC,
};
pub use log::{CollectedReader, LogReader, RecoveryReport, SegmentLog};
pub use manifest::Manifest;
pub use record::{decode_collected, encode_collected, StoreDecodeError};
pub use store::{
    ResumedStore, Store, StoreConfig, StoreWriter, SyncPolicy, CHECKPOINT_FILE, MANIFEST_FILE,
};
pub use telemetry::{
    decode_journal_entry, decode_series_point, encode_journal_entry, encode_series_point,
    read_journal, read_series, write_journal, write_series, JOURNAL_FILE, SERIES_FILE,
};
pub use trace::{
    decode_trace_event, encode_trace_event, read_trace, read_trace_file, write_trace, TRACE_FILE,
};
