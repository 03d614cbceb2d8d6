//! SIGINT/SIGTERM → a cooperative stop flag.
//!
//! The daemon and the `sniff --store` hour loop each poll an
//! `Arc<AtomicBool>` at hour boundaries; this module is the one place in
//! the workspace allowed to touch `signal(2)` to raise that flag. The
//! handler body is a pair of atomic stores on `'static` data —
//! async-signal-safe (no allocation, no locking; the `OnceLock` is
//! initialized by [`install`] before any handler can run, so the handler
//! side is a lock-free `get`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

const SIGINT: i32 = 2;
const SIGQUIT: i32 = 3;
const SIGTERM: i32 = 15;

/// The shared flag handed to pollers. Lives in a `OnceLock` because the
/// pollers want an `Arc` they can clone into worker structs.
static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

/// Raised by the handler in addition to the shared `Arc` — a plain
/// static so [`triggered`] never depends on initialization order.
static DELIVERED: AtomicBool = AtomicBool::new(false);

/// Raised by the SIGQUIT handler: a request to dump the flight
/// recorder, *not* to stop. The daemon polls [`take_dump_request`]
/// between frames, writes `flight.log`, and keeps running.
static DUMP_REQUESTED: AtomicBool = AtomicBool::new(false);

fn flag() -> &'static Arc<AtomicBool> {
    FLAG.get_or_init(|| Arc::new(AtomicBool::new(false)))
}

extern "C" fn handle(_signum: i32) {
    DELIVERED.store(true, Ordering::SeqCst);
    if let Some(stop) = FLAG.get() {
        stop.store(true, Ordering::SeqCst);
    }
}

extern "C" fn handle_quit(_signum: i32) {
    DUMP_REQUESTED.store(true, Ordering::SeqCst);
}

#[allow(unsafe_code)]
mod sys {
    pub type Handler = extern "C" fn(i32);
    extern "C" {
        fn signal(signum: i32, handler: Handler) -> usize;
    }
    pub fn install(signum: i32, handler: Handler) {
        // SAFETY: registering a handler whose body performs only atomic
        // stores on `'static` data — the textbook async-signal-safe
        // handler. The previous disposition is intentionally discarded.
        unsafe {
            signal(signum, handler);
        }
    }
}

/// Registers SIGINT and SIGTERM handlers and returns the shared stop
/// flag they raise. Idempotent; later calls return the same flag.
pub fn install() -> Arc<AtomicBool> {
    let stop = Arc::clone(flag());
    sys::install(SIGINT, handle);
    sys::install(SIGTERM, handle);
    stop
}

/// Whether a SIGINT/SIGTERM has been delivered since [`install`].
#[must_use]
pub fn triggered() -> bool {
    DELIVERED.load(Ordering::SeqCst) || flag().load(Ordering::SeqCst)
}

/// Registers the SIGQUIT handler that raises the flight-dump request
/// flag. Idempotent. Kept separate from [`install`] so the dump hook
/// can exist without hijacking SIGINT/SIGTERM (e.g. in tests).
pub fn install_dump() {
    sys::install(SIGQUIT, handle_quit);
}

/// Consumes a pending flight-dump request (SIGQUIT since the last
/// call), returning whether one was pending.
pub fn take_dump_request() -> bool {
    DUMP_REQUESTED.swap(false, Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_idempotent_and_flag_starts_lowered() {
        let a = install();
        let b = install();
        assert!(Arc::ptr_eq(&a, &b));
        // Can't safely raise a real signal inside the test harness
        // (other tests share the process), but the flag wiring is
        // observable: raising the Arc shows through `triggered`.
        a.store(true, Ordering::SeqCst);
        assert!(triggered());
        a.store(false, Ordering::SeqCst);
    }
}
