//! The ordered parallel map.
//!
//! ## Determinism
//!
//! [`map`] returns `f(items[0]), f(items[1]), …` in input order, always.
//! The input and a same-length output buffer are cut into the same
//! consecutive chunks; whichever worker claims chunk `i` reads chunk `i`
//! of the input and writes chunk `i` of the output. Scheduling decides
//! only *who* computes a chunk, never where its outputs land, so a pure
//! `f` gives identical output at every thread count.
//!
//! ## Topology
//!
//! ```text
//! input:  [chunk 0][chunk 1] … [chunk k]      next: AtomicUsize
//!              ▲ fetch_add claims the next unclaimed chunk
//!   caller (worker 0) ─┐
//!   worker 1 ──────────┼─▶ output: [chunk 0][chunk 1] … [chunk k] ─▶ Vec<Out>
//!   worker N-1 ────────┘
//! ```
//!
//! Input and output live in one `Vec<Option<_>>` each, and the output
//! becomes the result in place, so a call holds one copy of its output
//! however many chunks it has.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::ExecConfig;

/// Claims each worker gets on a large input. Fine-grained stages (one
/// tweet per item) then claim a few dozen items at a time, so the atomic
/// counter and the per-chunk lock are amortised; coarse ones (70 trees,
/// ≤ 8 merge chunks) claim one item at a time and balance their skew.
const CLAIMS_PER_WORKER: usize = 64;

/// Items per claim for `len` items across `threads` workers.
fn chunk_len(len: usize, threads: usize) -> usize {
    len.div_ceil(threads * CLAIMS_PER_WORKER).max(1)
}

/// Applies `f` to every item across `exec`'s workers and returns the
/// outputs **in input order**.
///
/// With one thread (or at most one item) this is a plain map on the
/// caller's thread, with no spawn. With more, the caller runs as worker
/// 0 next to `threads − 1` scoped workers; all of them claim chunks from
/// one atomic counter until none are left. A panic in `f` reaches the
/// caller once every worker has stopped.
///
/// Telemetry: `exec.<name>.ms` (wall clock) and `exec.<name>.items`
/// every call; per-worker `exec.<name>.worker.<i>.processed` gauges when
/// the call ran on more than one worker. The work runs under a `ph_prof`
/// allocation scope named after the stage on every worker. With
/// `ph_trace` enabled, each chunk is a batch slice on its worker and the
/// call is one stage envelope.
pub fn map<In, Out, F>(exec: &ExecConfig, name: &str, items: Vec<In>, f: F) -> Vec<Out>
where
    In: Send,
    Out: Send,
    F: Fn(In) -> Out + Sync,
{
    let total = items.len();
    let threads = exec.resolve_threads().min(total).max(1);
    // One relaxed load per call; untraced, every per-chunk hook is
    // skipped via `sid == None`.
    let sid = ph_trace::is_enabled().then(|| ph_trace::stage_id(name));
    let trace_start = sid.map(|_| ph_trace::now_us());
    let start = Instant::now();
    let outputs = if threads == 1 && sid.is_none() {
        let _prof = ph_prof::scope(name);
        items.into_iter().map(f).collect()
    } else {
        map_chunks(name, threads, items, &f, sid)
    };
    ph_telemetry::counter(&format!("exec.{name}.items")).add(total as u64);
    ph_telemetry::histogram(
        &format!("exec.{name}.ms"),
        &ph_telemetry::default_latency_buckets_ms(),
    )
    .record(start.elapsed().as_secs_f64() * 1_000.0);
    if let (Some(sid), Some(trace_start)) = (sid, trace_start) {
        ph_trace::record_stage(
            sid,
            trace_start,
            ph_trace::now_us().saturating_sub(trace_start),
            threads as u32,
            total as u64,
        );
        ph_trace::flush_thread();
    }
    outputs
}

/// The chunked path: the caller plus `threads − 1` scoped workers claim
/// chunks until none are left (at one thread, the caller claims them
/// all, which gives a traced sequential run its batch slices).
fn map_chunks<In, Out, F>(
    name: &str,
    threads: usize,
    items: Vec<In>,
    f: &F,
    sid: Option<ph_trace::StageId>,
) -> Vec<Out>
where
    In: Send,
    Out: Send,
    F: Fn(In) -> Out + Sync,
{
    let total = items.len();
    let chunk = chunk_len(total, threads);
    let mut inputs: Vec<Option<In>> = items.into_iter().map(Some).collect();
    let mut outputs: Vec<Option<Out>> = std::iter::repeat_with(|| None).take(total).collect();
    let slots: Vec<Mutex<_>> = inputs
        .chunks_mut(chunk)
        .zip(outputs.chunks_mut(chunk))
        .map(Mutex::new)
        .collect();
    // Relaxed: the counter only hands out indices; the chunks travel
    // under their mutexes and the outputs through the scope's joins.
    let next = AtomicUsize::new(0);
    let work = |worker: usize| {
        let _prof = ph_prof::scope(name);
        let mut processed = 0usize;
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(index) else { break };
            let mut slot = slot.lock().expect("chunk slot poisoned");
            let (ins, outs) = &mut *slot;
            let batch_start = sid.map(|_| ph_trace::now_us());
            for (item, out) in ins.iter_mut().zip(outs.iter_mut()) {
                *out = Some(f(item.take().expect("each chunk is claimed once")));
            }
            if let (Some(sid), Some(batch_start)) = (sid, batch_start) {
                ph_trace::record_batch(
                    sid,
                    worker as u32,
                    batch_start,
                    ph_trace::now_us().saturating_sub(batch_start),
                    ins.len() as u32,
                );
            }
            processed += ins.len();
        }
        if threads > 1 {
            ph_telemetry::gauge(&format!("exec.{name}.worker.{worker}.processed"))
                .set(processed as f64);
        }
        if sid.is_some() && worker > 0 {
            ph_trace::flush_thread();
        }
    };
    std::thread::scope(|scope| {
        let work = &work;
        let workers: Vec<_> = (1..threads)
            .map(|worker| scope.spawn(move || work(worker)))
            .collect();
        work(0);
        for handle in workers {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    drop(slots);
    outputs
        .into_iter()
        .map(|out| out.expect("every chunk was claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Condvar;
    use std::time::Duration;

    fn square(exec: &ExecConfig, n: u64) -> Vec<u64> {
        map(exec, "test.square", (0..n).collect(), |x: u64| x * x)
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let expected = square(&ExecConfig::sequential(), 500);
        for threads in [2, 3, 4, 8] {
            assert_eq!(
                square(&ExecConfig::with_threads(threads), 500),
                expected,
                "{threads} threads diverged from sequential"
            );
        }
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let exec = ExecConfig::with_threads(0);
        assert!(exec.resolve_threads() >= 1);
        assert_eq!(square(&exec, 100), square(&ExecConfig::sequential(), 100));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let exec = ExecConfig::with_threads(4);
        assert_eq!(square(&exec, 0), Vec::<u64>::new());
        assert_eq!(square(&exec, 1), vec![0]);
    }

    #[test]
    fn coarse_inputs_claim_one_item_and_fine_ones_a_few_dozen() {
        assert_eq!(chunk_len(70, 2), 1);
        assert_eq!(chunk_len(8, 4), 1);
        assert_eq!(chunk_len(0, 2), 1);
        assert_eq!(chunk_len(4_000, 2), 32);
    }

    /// Few coarse items, one per claim — the shape of a clustering merge
    /// (≤ 4 chunks per worker): every worker must get some, held there by
    /// `forced_fan_out`.
    #[test]
    fn every_worker_processes_coarse_items() {
        for (threads, n) in [(2usize, 8u64), (4, 16)] {
            let name = format!("test.fanout.{threads}");
            let out = forced_fan_out(threads, &name, n);
            assert_eq!(out, (1..=n).collect::<Vec<u64>>());
            let processed: Vec<f64> = (0..threads)
                .map(|w| ph_telemetry::gauge(&format!("exec.{name}.worker.{w}.processed")).get())
                .collect();
            assert!(
                processed.iter().all(|&p| p >= 1.0),
                "idle worker at {threads} threads: {processed:?}"
            );
            assert_eq!(processed.iter().sum::<f64>(), n as f64);
        }
    }

    /// Maps `x + 1` over `0..n` on `threads` workers, each of the first
    /// `threads` items waiting (bounded) until that many are in flight at
    /// once — which only happens when every worker holds one.
    fn forced_fan_out(threads: usize, name: &str, n: u64) -> Vec<u64> {
        let in_flight = (Mutex::new(0usize), Condvar::new());
        map(
            &ExecConfig::with_threads(threads),
            name,
            (0..n).collect(),
            |x: u64| {
                let (count, arrived) = &in_flight;
                let mut count = count.lock().expect("test counter poisoned");
                *count += 1;
                arrived.notify_all();
                let _ = arrived
                    .wait_timeout_while(count, Duration::from_secs(10), |c| *c < threads)
                    .expect("test counter poisoned");
                x + 1
            },
        )
    }

    #[test]
    fn tracing_keeps_outputs_identical_and_records_the_timeline() {
        let untraced = square(&ExecConfig::sequential(), 300);
        ph_trace::enable();
        assert_eq!(square(&ExecConfig::sequential(), 300), untraced);
        assert_eq!(square(&ExecConfig::with_threads(3), 300), untraced);
        forced_fan_out(2, "test.fanout.traced", 8);
        ph_trace::disable();
        let log = ph_trace::snapshot();
        // Forced fan-out: each worker's batches on its own lane.
        for worker in [0, 1] {
            assert!(
                log.events.iter().any(|e| matches!(e,
                    ph_trace::TraceEvent::Batch { name, worker: w, .. }
                        if name == "test.fanout.traced" && *w == worker)),
                "no traced batch on worker {worker}"
            );
        }
        let events: Vec<&ph_trace::TraceEvent> = log
            .events
            .iter()
            .filter(|e| e.name() == "test.square")
            .collect();
        let has = |pred: &dyn Fn(&ph_trace::TraceEvent) -> bool| events.iter().any(|e| pred(e));
        assert!(
            has(&|e| matches!(e, ph_trace::TraceEvent::Stage { workers: 1, .. })),
            "no sequential stage envelope"
        );
        assert!(
            has(&|e| matches!(e, ph_trace::TraceEvent::Stage { workers: 3, .. })),
            "no parallel stage envelope"
        );
        assert!(
            has(&|e| matches!(e, ph_trace::TraceEvent::Batch { .. })),
            "no batch events"
        );
        // Once disabled, a call records nothing new (checked under a
        // unique name: tracing state is process-global and other tests
        // run concurrently).
        let _ = map(
            &ExecConfig::with_threads(2),
            "test.square.untraced",
            (0..100u64).collect(),
            |x: u64| x,
        );
        assert!(
            !ph_trace::snapshot()
                .events
                .iter()
                .any(|e| e.name() == "test.square.untraced"),
            "events recorded while tracing was off"
        );
    }

    #[test]
    fn panicking_stage_propagates() {
        for threads in [1, 2, 4] {
            let result = std::panic::catch_unwind(|| {
                map(
                    &ExecConfig::with_threads(threads),
                    "test.panic",
                    (0..64u64).collect(),
                    |x: u64| {
                        assert!(x != 40, "boom");
                        x
                    },
                )
            });
            assert!(result.is_err(), "panic swallowed at {threads} threads");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn any_length_and_thread_count_matches_a_plain_map(
            items in proptest::collection::vec(any::<u32>(), 0..400),
            threads in 1usize..7,
        ) {
            let expected: Vec<u64> = items.iter().map(|&x| u64::from(x) * 7 + 1).collect();
            let got = map(
                &ExecConfig::with_threads(threads),
                "test.prop",
                items,
                |x: u32| u64::from(x) * 7 + 1,
            );
            prop_assert_eq!(got, expected);
        }
    }
}
