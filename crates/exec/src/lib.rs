//! `ph-exec` — the ordered parallel map under the pseudo-honeypot
//! pipeline.
//!
//! The paper's pitch is *efficiency and scalability*: a 2,400-node
//! pseudo-honeypot network streaming mention traffic at Twitter scale.
//! This crate is what lets the reproduction's data-parallel stages —
//! categorization, 58-feature extraction, similarity sketching, the
//! clustering merges, forest training — fan out across worker threads
//! **without changing a single output byte**.
//!
//! It is one function, [`map`]: a `Vec` in, a `Vec` out in input order,
//! with a stateless `Fn` applied to every item. Workers claim fixed-size
//! chunks from one atomic counter and write each chunk's outputs into
//! that chunk's place in the output, so order holds by construction at
//! any thread count and uneven work balances itself. See [`map`] for the
//! details and `tests/threads_equivalence.rs` in the workspace root for
//! the end-to-end enforcement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod map;

pub use map::map;

/// How many threads a [`map`] may use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads per stage. `1` is the sequential path (no threads
    /// spawned); `0` resolves to the machine's available parallelism.
    pub threads: usize,
}

impl ExecConfig {
    /// Single-threaded execution (the default).
    #[must_use]
    pub fn sequential() -> Self {
        Self::with_threads(1)
    }

    /// Execution across `threads` workers (`0` = all cores).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self { threads }
    }

    /// The concrete worker count (`0` resolved to available parallelism).
    #[must_use]
    pub fn resolve_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        }
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self::sequential()
    }
}
