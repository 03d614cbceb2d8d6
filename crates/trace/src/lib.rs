//! `ph-trace` — opt-in causal timeline tracing for the pseudo-honeypot
//! dataflow.
//!
//! The journal and series streams (PR 4) and the allocation profiler
//! (PR 5) answer "how much" per stage; this crate answers **when** and
//! **which worker was busy**. `ph_exec::map` feeds it one stage
//! envelope per call and one per-worker batch interval per claimed
//! chunk; the pipeline adds coarse [`phase`] spans (RF training,
//! labeling passes, per-hour monitoring). The result exports two ways:
//! Chrome trace-event JSON loadable in Perfetto ([`chrome`]) and a
//! framed+CRC'd `trace.log` persisted by ph-store, from which
//! [`timeline::analyze`] computes busy/idle fractions, parallel
//! efficiency, and the serialized chain bounding the run.
//!
//! # Overhead discipline
//!
//! Identical to `ph_prof`: a process-global relaxed [`AtomicBool`] gate.
//! Disabled, every hook is one relaxed load (`ph_exec::map` checks once
//! per call, not per record). Enabled, events are
//! `Copy` structs pushed into **thread-local fixed-capacity buffers** —
//! no locks, no allocation after the buffer's one-time reservation, and
//! never a block: a full buffer drops the event and bumps a shared
//! counter ([`dropped`]), because a tracer that perturbs the schedule it
//! records is worse than one that loses tail events. Buffers are drained
//! into the global sink at stage teardown ([`flush_thread`]), off the
//! hot path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod timeline;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Events each thread can buffer before drop-and-count kicks in
/// (~1 MiB per recording thread at 32 bytes per compact event).
pub const THREAD_BUFFER_CAPACITY: usize = 32_768;

static ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Turns event recording on. The first call also pins the trace epoch —
/// all timestamps are microseconds since that instant.
pub fn enable() {
    let _ = epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns event recording off (already-buffered events are kept).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether tracing is currently enabled. One relaxed atomic load;
/// `ph_exec::map` calls this once per call and skips every other hook
/// when it returns false.
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the trace epoch (pinned at first [`enable`]).
#[must_use]
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// An interned stage (or phase) name: a small copyable handle recorded
/// into compact events instead of the string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageId(u16);

fn names() -> &'static Mutex<Vec<String>> {
    static NAMES: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Interns `name`, returning its handle. Called once per stage
/// *invocation* (not per event), so the mutex + linear scan are off the
/// hot path. If the table ever saturates `u16` (65 535 distinct names),
/// later names collapse onto slot 0 rather than failing.
#[must_use]
pub fn stage_id(name: &str) -> StageId {
    let mut names = names().lock().expect("trace names lock poisoned");
    if let Some(i) = names.iter().position(|n| n == name) {
        return StageId(i as u16);
    }
    if names.len() >= usize::from(u16::MAX) {
        return StageId(0);
    }
    names.push(name.to_string());
    StageId((names.len() - 1) as u16)
}

/// Compact event kinds (also the `trace.log` discriminants — keep in
/// sync with `ph-store`'s trace codec).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Stage,
    Batch,
    Phase,
}

/// The fixed-size `Copy` record that lands in thread-local buffers.
/// Field meaning varies by kind; see [`TraceEvent`] for the resolved
/// public model.
#[derive(Debug, Clone, Copy)]
struct Compact {
    kind: Kind,
    stage: StageId,
    /// worker | workers | (unused)
    lane: u32,
    /// items | (unused)
    extra: u64,
    start_us: u64,
    dur_us: u64,
}

std::thread_local! {
    // `const` init: touching the buffer never runs lazy initialization
    // on the recording path.
    static BUFFER: RefCell<Vec<Compact>> = const { RefCell::new(Vec::new()) };
}

fn sink() -> &'static Mutex<Vec<Compact>> {
    static SINK: OnceLock<Mutex<Vec<Compact>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

fn push(event: Compact) {
    let ok = BUFFER.try_with(|b| {
        let mut b = b.borrow_mut();
        if b.capacity() == 0 {
            b.reserve_exact(THREAD_BUFFER_CAPACITY);
        }
        if b.len() < THREAD_BUFFER_CAPACITY {
            b.push(event);
            true
        } else {
            false // full: drop, never block or reallocate
        }
    });
    if !ok.unwrap_or(false) {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Moves the current thread's buffered events into the global sink.
/// `ph_exec::map` calls this at the end of each call (every worker, and
/// the caller after stitching); it is cheap when the buffer is empty.
pub fn flush_thread() {
    let drained = BUFFER.try_with(|b| std::mem::take(&mut *b.borrow_mut()));
    if let Ok(drained) = drained {
        if !drained.is_empty() {
            sink()
                .lock()
                .expect("trace sink lock poisoned")
                .extend(drained);
        }
    }
}

/// Events dropped so far to full thread buffers.
#[must_use]
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Clears the sink, the current thread's buffer, and the drop counter
/// (interned names are kept). For tests and for multi-run processes
/// that want per-run traces.
pub fn reset() {
    let _ = BUFFER.try_with(|b| b.borrow_mut().clear());
    sink().lock().expect("trace sink lock poisoned").clear();
    DROPPED.store(0, Ordering::Relaxed);
}

/// Records one processed batch: `worker` ran `items` records in
/// `[start_us, start_us + dur_us)`.
pub fn record_batch(stage: StageId, worker: u32, start_us: u64, dur_us: u64, items: u32) {
    push(Compact {
        kind: Kind::Batch,
        stage,
        lane: worker,
        extra: u64::from(items),
        start_us,
        dur_us,
    });
}

/// Records the whole-stage envelope: one `ph_exec::map` call covering
/// `items` records across `workers` workers.
pub fn record_stage(stage: StageId, start_us: u64, dur_us: u64, workers: u32, items: u64) {
    push(Compact {
        kind: Kind::Stage,
        stage,
        lane: workers,
        extra: items,
        start_us,
        dur_us,
    });
}

/// RAII guard for a pipeline phase span (see [`phase`]).
#[derive(Debug)]
pub struct PhaseGuard {
    /// `None` when tracing was off at open time (inert guard).
    open: Option<(StageId, u64)>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some((stage, start_us)) = self.open.take() {
            push(Compact {
                kind: Kind::Phase,
                stage,
                lane: 0,
                extra: 0,
                start_us,
                dur_us: now_us().saturating_sub(start_us),
            });
        }
    }
}

/// Opens a coarse pipeline-phase span (`ml.train`, `label.clustering`,
/// per-hour `monitor.hour` …) closed when the guard drops. Phases are
/// what makes the serialized portions of the run — code that never
/// enters `ph_exec::map` — visible on the timeline. No-op (one
/// relaxed load) when tracing is off.
#[must_use]
pub fn phase(name: &str) -> PhaseGuard {
    if !is_enabled() {
        return PhaseGuard { open: None };
    }
    PhaseGuard {
        open: Some((stage_id(name), now_us())),
    }
}

/// One resolved trace event, ready for export or analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A whole-stage envelope: one `ph_exec::map` call.
    Stage {
        /// Stage name.
        name: String,
        /// Start, µs since trace epoch.
        start_us: u64,
        /// Duration, µs.
        dur_us: u64,
        /// Worker-thread count for the invocation (1 = sequential).
        workers: u32,
        /// Records processed.
        items: u64,
    },
    /// One worker batch (a chunk of records processed back to back).
    Batch {
        /// Stage name.
        name: String,
        /// Worker index (0-based; the sequential path is worker 0).
        worker: u32,
        /// Start, µs since trace epoch.
        start_us: u64,
        /// Duration, µs.
        dur_us: u64,
        /// Records in the batch.
        items: u32,
    },
    /// A coarse pipeline phase ([`phase`]).
    Phase {
        /// Phase name.
        name: String,
        /// Start, µs since trace epoch.
        start_us: u64,
        /// Duration, µs.
        dur_us: u64,
    },
}

impl TraceEvent {
    /// The stage/phase name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            TraceEvent::Stage { name, .. }
            | TraceEvent::Batch { name, .. }
            | TraceEvent::Phase { name, .. } => name,
        }
    }

    /// Event start time, µs since epoch.
    #[must_use]
    pub fn start_us(&self) -> u64 {
        match self {
            TraceEvent::Stage { start_us, .. }
            | TraceEvent::Batch { start_us, .. }
            | TraceEvent::Phase { start_us, .. } => *start_us,
        }
    }

    /// Event end time, µs since epoch.
    #[must_use]
    pub fn end_us(&self) -> u64 {
        match self {
            TraceEvent::Stage {
                start_us, dur_us, ..
            }
            | TraceEvent::Batch {
                start_us, dur_us, ..
            }
            | TraceEvent::Phase {
                start_us, dur_us, ..
            } => start_us.saturating_add(*dur_us),
        }
    }
}

/// A captured timeline: resolved events (sorted by start time) plus the
/// count of events lost to full thread buffers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceLog {
    /// Events, sorted by start time.
    pub events: Vec<TraceEvent>,
    /// Events dropped to the fixed-capacity buffers (overflow policy:
    /// drop-and-count, never block).
    pub dropped: u64,
}

impl TraceLog {
    /// Wraps pre-resolved events (sorting them by start time), e.g.
    /// events read back from a store's `trace.log`.
    #[must_use]
    pub fn from_events(mut events: Vec<TraceEvent>, dropped: u64) -> Self {
        events.sort_by_key(TraceEvent::start_us);
        TraceLog { events, dropped }
    }
}

fn resolve(compact: &[Compact]) -> Vec<TraceEvent> {
    let names: Vec<String> = names().lock().expect("trace names lock poisoned").clone();
    let name_of = |id: StageId| {
        names
            .get(usize::from(id.0))
            .cloned()
            .unwrap_or_else(|| format!("stage#{}", id.0))
    };
    compact
        .iter()
        .map(|c| match c.kind {
            Kind::Stage => TraceEvent::Stage {
                name: name_of(c.stage),
                start_us: c.start_us,
                dur_us: c.dur_us,
                workers: c.lane,
                items: c.extra,
            },
            Kind::Batch => TraceEvent::Batch {
                name: name_of(c.stage),
                worker: c.lane,
                start_us: c.start_us,
                dur_us: c.dur_us,
                items: c.extra as u32,
            },
            Kind::Phase => TraceEvent::Phase {
                name: name_of(c.stage),
                start_us: c.start_us,
                dur_us: c.dur_us,
            },
        })
        .collect()
}

/// A point-in-time copy of everything recorded so far (the current
/// thread's buffer is flushed first; other threads' unflushed buffers
/// are not visible until their stage teardown flushes them).
#[must_use]
pub fn snapshot() -> TraceLog {
    flush_thread();
    let compact = sink().lock().expect("trace sink lock poisoned").clone();
    TraceLog::from_events(resolve(&compact), dropped())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracing state is process-global and tests run concurrently, so
    // each test uses unique stage names and asserts on its own events
    // only (never on global counts another test may move).

    fn events_named(log: &TraceLog, name: &str) -> Vec<TraceEvent> {
        log.events
            .iter()
            .filter(|e| e.name() == name)
            .cloned()
            .collect()
    }

    #[test]
    fn disabled_phase_records_nothing() {
        disable();
        {
            let _p = phase("test.trace.off");
        }
        enable();
        assert!(events_named(&snapshot(), "test.trace.off").is_empty());
    }

    #[test]
    fn batch_events_roundtrip_through_snapshot() {
        enable();
        let id = stage_id("test.trace.batch");
        record_batch(id, 3, 100, 50, 32);
        let got = events_named(&snapshot(), "test.trace.batch");
        assert_eq!(
            got,
            vec![TraceEvent::Batch {
                name: "test.trace.batch".to_string(),
                worker: 3,
                start_us: 100,
                dur_us: 50,
                items: 32,
            }]
        );
    }

    #[test]
    fn phases_measure_their_scope() {
        enable();
        let before = now_us();
        {
            let _p = phase("test.trace.phase");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let got = events_named(&snapshot(), "test.trace.phase");
        assert_eq!(got.len(), 1);
        let TraceEvent::Phase {
            start_us, dur_us, ..
        } = &got[0]
        else {
            panic!("not a phase: {:?}", got[0]);
        };
        assert!(*start_us >= before);
        assert!(*dur_us >= 1_000, "phase dur {dur_us}µs < slept 2ms");
    }

    #[test]
    fn worker_thread_events_arrive_after_flush() {
        enable();
        let id = stage_id("test.trace.thread");
        std::thread::scope(|s| {
            s.spawn(|| {
                record_batch(id, 0, 1, 2, 3);
                flush_thread();
            });
        });
        assert_eq!(events_named(&snapshot(), "test.trace.thread").len(), 1);
    }

    #[test]
    fn interning_is_stable_per_name() {
        let a = stage_id("test.trace.intern.a");
        let b = stage_id("test.trace.intern.b");
        assert_ne!(a, b);
        assert_eq!(a, stage_id("test.trace.intern.a"));
    }

    #[test]
    fn snapshot_sorts_by_start_time() {
        enable();
        let id = stage_id("test.trace.sorted");
        record_batch(id, 0, 900_000_000, 10, 1);
        record_batch(id, 0, 800_000_000, 10, 1);
        let got = events_named(&snapshot(), "test.trace.sorted");
        let starts: Vec<u64> = got.iter().map(TraceEvent::start_us).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }
}
