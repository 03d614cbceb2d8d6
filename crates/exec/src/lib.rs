//! `ph-exec` — the deterministic sharded dataflow engine under the
//! pseudo-honeypot pipeline.
//!
//! The paper's pitch is *efficiency and scalability*: a 2,400-node
//! pseudo-honeypot network streaming mention traffic at Twitter scale.
//! This crate is the execution layer that lets every stage of the
//! reproduction — categorization, 58-feature extraction, similarity
//! sketching, classification — fan out across worker threads **without
//! changing a single output byte**. Zero dependencies beyond `std` and the
//! workspace's own telemetry crate.
//!
//! Building blocks:
//!
//! - [`channel`]: bounded MPSC channels whose `send` blocks when full —
//!   backpressure instead of unbounded buffering — with depth probes for
//!   the queue-depth histograms.
//! - [`shard`]: pure shard-by-key partitioning (SplitMix64-finalized), so
//!   record routing is a function of the data, never of scheduling.
//! - [`merge`]: monotone sequence tags ([`Seq`]) and the reorder buffer
//!   ([`Reorder`]) that put sharded output back into exact input order.
//! - [`stage`]: the [`Stage`] trait and the [`run`] driver tying the above
//!   into a scoped worker pool (no detached threads, no `'static` bounds —
//!   stages may borrow the caller's data).
//!
//! The determinism contract — parallel output identical to sequential
//! output — is what makes `--threads N` safe to flip on for any run: see
//! [`stage`] for the argument and `tests/threads_equivalence.rs` in the
//! workspace root for the end-to-end enforcement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod merge;
pub mod shard;
pub mod stage;

pub use merge::{merge_shards, Reorder, Seq};
pub use shard::{mix64, shard_of};
pub use stage::{run, run_weighted, ExecConfig, Stage, StageWeight};
