//! The counting global allocator and scoped per-stage attribution.
//!
//! # Design
//!
//! The process installs [`CountingAllocator`] as its
//! `#[global_allocator]`. Until [`enable`] is called, every allocation
//! pays exactly one relaxed atomic load on top of the system allocator —
//! profiling must be free to ship enabled-capable. Once enabled, each
//! allocation/free bumps a fixed table of atomic counters indexed by the
//! thread's *current scope*: a thread-local small integer set by
//! [`scope`] guards. There are no locks, no heap use, and no
//! `thread_local!` lazy initialization on the allocation path (the
//! scope cell is `const`-initialized), so the allocator can never
//! recurse into itself.
//!
//! Attribution is capped at [`MAX_STAGES`] distinct stage names per
//! process; later names fall back to the `unattributed` slot (slot 0)
//! and are tallied in `prof.scope_overflow`. Frees are charged to the
//! scope active where the free happens, which for cross-stage handoffs
//! means "bytes freed" is attribution-approximate while the global
//! live/peak numbers stay exact.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Maximum distinct stage names attributable per process (slot 0 is the
/// implicit `unattributed` scope).
pub const MAX_STAGES: usize = 64;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SCOPE_OVERFLOW: AtomicU64 = AtomicU64::new(0);
/// Live heap bytes (signed: frees of allocations made before `enable`
/// legitimately drive it negative; publish clamps at 0).
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

struct SlotCounters {
    allocs: AtomicU64,
    bytes: AtomicU64,
    frees: AtomicU64,
    freed_bytes: AtomicU64,
}

// `const` item so the static array below gets per-element fresh atomics.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_SLOT: SlotCounters = SlotCounters {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
    frees: AtomicU64::new(0),
    freed_bytes: AtomicU64::new(0),
};
static SLOTS: [SlotCounters; MAX_STAGES] = [ZERO_SLOT; MAX_STAGES];

std::thread_local! {
    // `const` init: reading this inside the allocator never allocates.
    static CURRENT_SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn names() -> &'static Mutex<Vec<String>> {
    static NAMES: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(Vec::new()))
}

fn started() -> &'static Mutex<Option<Instant>> {
    static STARTED: OnceLock<Mutex<Option<Instant>>> = OnceLock::new();
    STARTED.get_or_init(|| Mutex::new(None))
}

/// Turns allocation counting (and scope attribution) on. Also starts
/// the wall-clock used for the `prof.wall_ms` rollup.
pub fn enable() {
    let mut started = started().lock().expect("prof start lock poisoned");
    started.get_or_insert_with(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns allocation counting back off (existing tallies are kept).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether profiling is currently enabled.
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Interns `name`, returning its 1-based slot, or 0 when the stage
/// table is full.
fn intern(name: &str) -> usize {
    let mut names = names().lock().expect("prof names lock poisoned");
    if let Some(i) = names.iter().position(|n| n == name) {
        return i + 1;
    }
    if names.len() + 1 >= MAX_STAGES {
        SCOPE_OVERFLOW.fetch_add(1, Ordering::Relaxed);
        return 0;
    }
    names.push(name.to_string());
    names.len()
}

/// RAII guard restoring the previous attribution scope on drop.
#[derive(Debug)]
pub struct ScopeGuard {
    /// Previous slot, or `usize::MAX` for the disabled no-op guard.
    prev: usize,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.prev != usize::MAX {
            let _ = CURRENT_SLOT.try_with(|c| c.set(self.prev));
        }
    }
}

/// Opens a per-stage attribution scope on the current thread: until the
/// returned guard drops, allocations (and frees) on this thread are
/// charged to `stage`. Scopes nest — the innermost wins — and are
/// per-thread, so sharded workers attribute independently. When
/// profiling is disabled this is a no-op costing one atomic load.
pub fn scope(stage: &str) -> ScopeGuard {
    if !is_enabled() {
        return ScopeGuard { prev: usize::MAX };
    }
    let slot = intern(stage);
    let prev = CURRENT_SLOT
        .try_with(|c| c.replace(slot))
        .unwrap_or(usize::MAX);
    ScopeGuard { prev }
}

/// Point-in-time allocation tallies for one stage (or for the
/// `unattributed` remainder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Allocations charged to the stage.
    pub allocs: u64,
    /// Bytes allocated.
    pub bytes: u64,
    /// Frees charged to the stage.
    pub frees: u64,
    /// Bytes freed.
    pub freed_bytes: u64,
}

fn slot_stats(slot: usize) -> AllocStats {
    let s = &SLOTS[slot];
    AllocStats {
        allocs: s.allocs.load(Ordering::Relaxed),
        bytes: s.bytes.load(Ordering::Relaxed),
        frees: s.frees.load(Ordering::Relaxed),
        freed_bytes: s.freed_bytes.load(Ordering::Relaxed),
    }
}

/// Current tallies for `stage`, or `None` if no scope ever opened it.
#[must_use]
pub fn stage_stats(stage: &str) -> Option<AllocStats> {
    let names = names().lock().expect("prof names lock poisoned");
    let i = names.iter().position(|n| n == stage)?;
    Some(slot_stats(i + 1))
}

/// Flushes the profiling state into the `ph-telemetry` registry as
/// `prof.*` gauges, where the JSON report and Prometheus exporter pick
/// it up: per-stage `prof.alloc.<stage>.{allocs,bytes,frees,freed_bytes}`,
/// the heap rollups `prof.heap.{live_bytes,peak_bytes}`, totals under
/// `prof.alloc.total.*`, and the process rollups `prof.cpu_ms` /
/// `prof.wall_ms`. Idempotent (gauges are set, not added), so calling
/// it again just refreshes the values.
pub fn publish() {
    let names: Vec<String> = names().lock().expect("prof names lock poisoned").clone();
    let mut total = AllocStats::default();
    let emit = |label: &str, s: AllocStats| {
        if s.allocs == 0 && s.frees == 0 {
            return;
        }
        ph_telemetry::gauge(&format!("prof.alloc.{label}.allocs")).set(s.allocs as f64);
        ph_telemetry::gauge(&format!("prof.alloc.{label}.bytes")).set(s.bytes as f64);
        ph_telemetry::gauge(&format!("prof.alloc.{label}.frees")).set(s.frees as f64);
        ph_telemetry::gauge(&format!("prof.alloc.{label}.freed_bytes")).set(s.freed_bytes as f64);
    };
    for (i, name) in names.iter().enumerate() {
        let s = slot_stats(i + 1);
        total.allocs += s.allocs;
        total.bytes += s.bytes;
        total.frees += s.frees;
        total.freed_bytes += s.freed_bytes;
        emit(name, s);
    }
    let unattributed = slot_stats(0);
    total.allocs += unattributed.allocs;
    total.bytes += unattributed.bytes;
    total.frees += unattributed.frees;
    total.freed_bytes += unattributed.freed_bytes;
    emit("unattributed", unattributed);
    if total.allocs > 0 || total.frees > 0 {
        ph_telemetry::gauge("prof.alloc.total.allocs").set(total.allocs as f64);
        ph_telemetry::gauge("prof.alloc.total.bytes").set(total.bytes as f64);
        ph_telemetry::gauge("prof.heap.live_bytes")
            .set(LIVE_BYTES.load(Ordering::Relaxed).max(0) as f64);
        ph_telemetry::gauge("prof.heap.peak_bytes")
            .set(PEAK_BYTES.load(Ordering::Relaxed).max(0) as f64);
    }
    let overflow = SCOPE_OVERFLOW.load(Ordering::Relaxed);
    if overflow > 0 {
        ph_telemetry::gauge("prof.scope_overflow").set(overflow as f64);
    }
    if let Some(cpu_ms) = crate::sysstat::process_cpu_ms() {
        ph_telemetry::gauge("prof.cpu_ms").set(cpu_ms);
    }
    if let Some(start) = *started().lock().expect("prof start lock poisoned") {
        ph_telemetry::gauge("prof.wall_ms").set(start.elapsed().as_secs_f64() * 1000.0);
    }
}

fn note_alloc(size: usize) {
    let slot = CURRENT_SLOT.try_with(std::cell::Cell::get).unwrap_or(0);
    SLOTS[slot].allocs.fetch_add(1, Ordering::Relaxed);
    SLOTS[slot].bytes.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn note_dealloc(size: usize) {
    let slot = CURRENT_SLOT.try_with(std::cell::Cell::get).unwrap_or(0);
    SLOTS[slot].frees.fetch_add(1, Ordering::Relaxed);
    SLOTS[slot]
        .freed_bytes
        .fetch_add(size as u64, Ordering::Relaxed);
    LIVE_BYTES.fetch_sub(size as i64, Ordering::Relaxed);
}

/// A counting wrapper around [`std::alloc::System`], suitable as a
/// `#[global_allocator]`:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: ph_prof::CountingAllocator = ph_prof::CountingAllocator::new();
/// ```
///
/// All counting is gated on [`enable`]; an installed-but-disabled
/// allocator adds one relaxed atomic load per call.
#[derive(Debug, Default)]
pub struct CountingAllocator;

impl CountingAllocator {
    /// A new allocator shim (stateless — all state is process-global).
    #[must_use]
    pub const fn new() -> Self {
        CountingAllocator
    }
}

// The one unsafe block in the crate: pure delegation to `System`, with
// counting bolted on after the fact. No pointer arithmetic, no layout
// changes — the safety obligations are exactly `System`'s.
#[allow(unsafe_code)]
mod shim {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::Ordering;

    use super::{note_alloc, note_dealloc, CountingAllocator, ENABLED};

    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let ptr = System.alloc(layout);
            if ENABLED.load(Ordering::Relaxed) && !ptr.is_null() {
                note_alloc(layout.size());
            }
            ptr
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let ptr = System.alloc_zeroed(layout);
            if ENABLED.load(Ordering::Relaxed) && !ptr.is_null() {
                note_alloc(layout.size());
            }
            ptr
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            if ENABLED.load(Ordering::Relaxed) {
                note_dealloc(layout.size());
            }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let new_ptr = System.realloc(ptr, layout, new_size);
            if ENABLED.load(Ordering::Relaxed) && !new_ptr.is_null() {
                note_dealloc(layout.size());
                note_alloc(new_size);
            }
            new_ptr
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary installs the counting allocator (see lib.rs), so
    // these tests exercise real attribution. Counting is process-global;
    // tests use unique stage names and avoid asserting on globals other
    // tests also move.

    /// Serialises the tests that flip the global `ENABLED` switch: without
    /// it, `disable()` in one test can land inside another's enabled scope.
    static SWITCH: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn hold_switch() -> std::sync::MutexGuard<'static, ()> {
        SWITCH
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn disabled_scope_is_a_noop() {
        let _switch = hold_switch();
        disable();
        let before = stage_stats("test.alloc.noop");
        {
            let _g = scope("test.alloc.noop");
            let v: Vec<u8> = Vec::with_capacity(4096);
            drop(v);
        }
        assert_eq!(stage_stats("test.alloc.noop"), before, "counted while off");
    }

    #[test]
    fn enabled_scope_attributes_allocations() {
        let _switch = hold_switch();
        enable();
        let before = stage_stats("test.alloc.counted").unwrap_or_default();
        {
            let _g = scope("test.alloc.counted");
            let v: Vec<u8> = Vec::with_capacity(100_000);
            drop(v);
        }
        let after = stage_stats("test.alloc.counted").expect("stage interned");
        assert!(after.allocs > before.allocs, "no allocations attributed");
        assert!(
            after.bytes - before.bytes >= 100_000,
            "expected >= 100000 new bytes, got {}",
            after.bytes - before.bytes
        );
        assert!(after.frees > before.frees, "the drop was not attributed");
    }

    #[test]
    fn scopes_nest_and_restore() {
        let _switch = hold_switch();
        enable();
        let outer_before = stage_stats("test.alloc.outer").unwrap_or_default();
        {
            let _outer = scope("test.alloc.outer");
            {
                let _inner = scope("test.alloc.inner");
                let v: Vec<u8> = Vec::with_capacity(50_000);
                drop(v);
            }
            // Back in the outer scope after the inner guard dropped.
            let v: Vec<u8> = Vec::with_capacity(60_000);
            drop(v);
        }
        let inner = stage_stats("test.alloc.inner").expect("inner interned");
        let outer = stage_stats("test.alloc.outer").expect("outer interned");
        assert!(inner.bytes >= 50_000, "inner under-attributed: {inner:?}");
        assert!(
            outer.bytes - outer_before.bytes >= 60_000,
            "outer lost its post-inner allocation: {outer:?}"
        );
    }

    #[test]
    fn publish_exports_prof_gauges() {
        let _switch = hold_switch();
        enable();
        {
            let _g = scope("test.alloc.published");
            let v: Vec<u8> = Vec::with_capacity(10_000);
            drop(v);
        }
        publish();
        let report = ph_telemetry::snapshot();
        let gauge = |name: &str| {
            report
                .gauges
                .iter()
                .find(|g| g.name == name)
                .map(|g| g.value)
        };
        assert!(
            gauge("prof.alloc.test.alloc.published.bytes").is_some_and(|v| v >= 10_000.0),
            "per-stage bytes gauge missing or too small"
        );
        assert!(
            gauge("prof.alloc.total.allocs").is_some_and(|v| v > 0.0),
            "total allocs gauge missing"
        );
        assert!(
            gauge("prof.heap.peak_bytes").is_some_and(|v| v > 0.0),
            "peak gauge missing"
        );
    }

    #[test]
    fn stage_table_overflow_falls_back_to_unattributed() {
        let _switch = hold_switch();
        enable();
        // Drown the table; every name past MAX_STAGES-1 must yield slot 0
        // instead of panicking or growing without bound.
        for i in 0..(MAX_STAGES * 2) {
            let _g = scope(&format!("test.alloc.flood.{i}"));
        }
        assert!(SCOPE_OVERFLOW.load(Ordering::Relaxed) > 0);
    }
}
