//! `ph-serve` — the long-lived sniffer daemon.
//!
//! Everything else in the workspace runs the pipeline as a *batch*: an
//! engine is driven for N hours, the collection is classified, and the
//! process exits. This crate turns the same monitor → extract → classify
//! dataflow into a *service* fed by a live event source:
//!
//! - [`listener`] accepts line-of-frames connections (TCP or Unix
//!   socket) carrying the [`ph_twitter_sim::wire`] stream-frame
//!   protocol: tweets interleaved with hour-boundary markers.
//! - [`queue`] is the bounded ingest queue between the socket readers
//!   and the pipeline; when the daemon falls behind, the oldest buffered
//!   tweets are shed (and accounted) — control frames never are.
//! - [`daemon`] owns the deterministic *replica* engine: the same
//!   simulation the producer runs, stepped once per wire-marked hour, so
//!   network selection, REST lookups, and ground-truth sidecars see
//!   exactly the producer's world without any labels crossing the wire.
//!   The replica selects and steps on its own thread, an hour ahead, so
//!   an hour boundary only categorizes, stores and classifies.
//! - [`verdict`] streams one NDJSON verdict line per stored tweet with a
//!   monotone sequence number that survives restarts.
//! - [`http`] serves the existing Prometheus registry at `/metrics`
//!   (text format 0.0.4) plus a `/healthz` liveness probe.
//! - [`loadgen`] is the built-in open-loop producer: a deterministic
//!   engine paced at a configurable events/second, feeding the daemon's
//!   own socket — one binary soaks itself.
//! - [`signal`] converts SIGINT/SIGTERM into a cooperative stop flag;
//!   the daemon drains at the next hour boundary, forces a checkpoint,
//!   and a later `--resume` continues mid-run with a byte-identical
//!   verdict stream. SIGQUIT is separate: it requests a flight-recorder
//!   dump and the daemon keeps running.
//! - [`slo`] is the ingest→verdict latency SLO: `--slo p99:250` makes
//!   the daemon build a stamping queue, whose frames carry a monotonic
//!   tick, folds per-hour latency quantiles into gauges/series, and
//!   checks the targeted quantile against the limit each hour. Off, the
//!   queue is built unstamped.
//! - [`health`] is the keyed degradation set behind `/healthz`, one
//!   value per daemon session: the watchdog and the SLO check raise and
//!   clear named reasons, and the probe flips 200 ⇄ 503 accordingly.
//! - [`watchdog`] samples the hour loop's heartbeat on a wall-clock
//!   cadence and declares a busy-but-flatlined hour stalled: journal
//!   event, degraded health, and a flight-recorder dump into the store.
//!
//! The crate-level invariant is the workspace's usual one, extended to
//! service lifetimes: *stop anywhere, resume, and the concatenated
//! outputs are byte-identical to never having stopped* — enforced by
//! `tests/serve_soak.rs` in the workspace root.

#![warn(missing_docs)]
// `signal` registers real signal(2) handlers, which needs one `extern
// "C"` block; everything else in the crate is forbidden from unsafe.
#![deny(unsafe_code)]

pub mod daemon;
pub mod health;
pub mod http;
pub mod listener;
pub mod loadgen;
pub mod queue;
pub mod signal;
pub mod slo;
pub mod verdict;
pub mod watchdog;

pub use daemon::{run, LoadgenConfig, ServeConfig, ServeOutcome, ThrottleConfig};
pub use http::MetricsServer;
pub use listener::BindAddr;
pub use queue::IngestQueue;
pub use slo::SloTarget;
pub use watchdog::{Watchdog, WatchdogConfig};
