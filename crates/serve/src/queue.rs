//! The bounded ingest queue between socket readers and the pipeline.
//!
//! Mirrors the simulator's own streaming-buffer semantics
//! ([`ph_twitter_sim::api`]): when the daemon falls behind the wire, the
//! *oldest buffered tweet* is shed and counted — the freshest traffic
//! survives, exactly like the engine-side subscription queue. Control
//! frames (hour boundaries, shutdown) are never shed: losing a tweet
//! degrades the collection, losing a boundary would desynchronize the
//! replica engine from the producer.
//!
//! This is also where the latency SLO's clock starts: in a queue built
//! `stamped` — the daemon's, when it has an SLO target —
//! [`push`](IngestQueue::push) stamps each frame with a monotonic ingest
//! tick ([`crate::slo::tick_now_ns`]) that rides alongside it to
//! [`pop_timeout`](IngestQueue::pop_timeout), so ingest→verdict latency
//! covers queueing as well as classification. A queue built with
//! [`new`](IngestQueue::new) stamps a constant `0`.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use ph_telemetry::Gauge;
use ph_twitter_sim::wire::StreamFrame;

struct Inner {
    frames: VecDeque<(StreamFrame, u64)>,
    shed: u64,
    shed_unclaimed: u64,
}

/// A bounded MPSC frame queue with oldest-tweet shedding.
pub struct IngestQueue {
    capacity: usize,
    stamp: bool,
    inner: Mutex<Inner>,
    ready: Condvar,
    /// `serve.ingest.depth`, held: a registry lookup per frame would
    /// allocate and take the registry lock inside this queue's lock.
    /// `ph_telemetry::reset` zeroes it in place, so the handle stays live.
    depth: Arc<Gauge>,
}

impl IngestQueue {
    /// A queue holding at most `capacity` frames (floored at 1), whose
    /// frames carry no ingest tick.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            stamp: false,
            inner: Mutex::new(Inner {
                frames: VecDeque::new(),
                shed: 0,
                shed_unclaimed: 0,
            }),
            ready: Condvar::new(),
            depth: ph_telemetry::gauge("serve.ingest.depth"),
        }
    }

    /// [`new`](Self::new), but every pushed frame is stamped with its
    /// ingest tick for the latency SLO.
    #[must_use]
    pub(crate) fn stamped(capacity: usize) -> Self {
        Self {
            stamp: true,
            ..Self::new(capacity)
        }
    }

    /// Enqueues a frame without blocking. At capacity, the oldest
    /// buffered *tweet* frame is dropped to make room (and counted);
    /// control frames are always admitted even if that means running
    /// over capacity momentarily (there is at most one boundary per
    /// producer hour — they cannot accumulate unboundedly).
    pub fn push(&self, frame: StreamFrame) {
        let tick = if self.stamp {
            crate::slo::tick_now_ns()
        } else {
            0
        };
        let mut inner = self.inner.lock().expect("ingest queue poisoned");
        if inner.frames.len() >= self.capacity && matches!(frame, StreamFrame::Tweet(_)) {
            let oldest_tweet = inner
                .frames
                .iter()
                .position(|(f, _)| matches!(f, StreamFrame::Tweet(_)));
            // When only control frames are buffered, admit the tweet
            // anyway rather than shedding a boundary.
            if let Some(at) = oldest_tweet {
                inner.frames.remove(at);
                inner.shed += 1;
                inner.shed_unclaimed += 1;
            }
        }
        inner.frames.push_back((frame, tick));
        self.depth.set(inner.frames.len() as f64);
        drop(inner);
        self.ready.notify_one();
    }

    /// Dequeues the next frame and its ingest tick (0 unless the queue
    /// was built `stamped`), waiting up to `timeout` for one to arrive.
    /// `None` means the wait timed out — the caller polls its stop flag
    /// and comes back.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<(StreamFrame, u64)> {
        let mut inner = self.inner.lock().expect("ingest queue poisoned");
        if inner.frames.is_empty() {
            let (guard, _timeout_result) = self
                .ready
                .wait_timeout(inner, timeout)
                .expect("ingest queue poisoned");
            inner = guard;
        }
        let frame = inner.frames.pop_front();
        if frame.is_some() {
            self.depth.set(inner.frames.len() as f64);
        }
        frame
    }

    /// Total tweets shed since creation.
    #[must_use]
    pub fn shed_count(&self) -> u64 {
        self.inner.lock().expect("ingest queue poisoned").shed
    }

    /// Tweets shed since the last call — the per-hour accounting the
    /// monitor folds into its report.
    pub fn take_shed(&self) -> u64 {
        let mut inner = self.inner.lock().expect("ingest queue poisoned");
        std::mem::take(&mut inner.shed_unclaimed)
    }

    /// Frames currently buffered.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.inner
            .lock()
            .expect("ingest queue poisoned")
            .frames
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_twitter_sim::account::AccountId;
    use ph_twitter_sim::time::SimTime;
    use ph_twitter_sim::tweet::{Tweet, TweetId, TweetKind, TweetSource};

    fn tweet(id: u64) -> StreamFrame {
        StreamFrame::Tweet(Tweet::observed(
            TweetId(id),
            AccountId(1),
            SimTime::from_minutes(0),
            TweetKind::Original,
            TweetSource::Web,
            String::new(),
            vec![],
            vec![],
            vec![],
            None,
        ))
    }

    fn id_of(frame: &StreamFrame) -> u64 {
        match frame {
            StreamFrame::Tweet(t) => t.id.0,
            _ => panic!("not a tweet"),
        }
    }

    #[test]
    fn sheds_oldest_tweet_at_capacity_keeping_the_newest() {
        let q = IngestQueue::new(2);
        q.push(tweet(1));
        q.push(tweet(2));
        q.push(tweet(3));
        assert_eq!(q.shed_count(), 1);
        assert_eq!(q.take_shed(), 1);
        assert_eq!(q.take_shed(), 0);
        let (a, _) = q.pop_timeout(Duration::from_millis(10)).unwrap();
        let (b, _) = q.pop_timeout(Duration::from_millis(10)).unwrap();
        assert_eq!((id_of(&a), id_of(&b)), (2, 3));
    }

    #[test]
    fn control_frames_are_never_shed() {
        let q = IngestQueue::new(2);
        q.push(StreamFrame::HourBoundary { hour: 0 });
        q.push(tweet(1));
        q.push(tweet(2)); // sheds tweet 1, not the boundary
        assert_eq!(q.shed_count(), 1);
        assert!(matches!(
            q.pop_timeout(Duration::from_millis(10)),
            Some((StreamFrame::HourBoundary { hour: 0 }, _))
        ));
        let (frame, _) = q.pop_timeout(Duration::from_millis(10)).unwrap();
        assert_eq!(id_of(&frame), 2);
    }

    #[test]
    fn pop_times_out_on_an_empty_queue() {
        let q = IngestQueue::new(4);
        assert!(q.pop_timeout(Duration::from_millis(5)).is_none());
    }

    #[test]
    fn pop_wakes_on_a_concurrent_push() {
        let q = std::sync::Arc::new(IngestQueue::new(4));
        let q2 = std::sync::Arc::clone(&q);
        let pusher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            q2.push(StreamFrame::Shutdown);
        });
        let got = q.pop_timeout(Duration::from_secs(5));
        pusher.join().unwrap();
        assert!(matches!(got, Some((StreamFrame::Shutdown, _))));
    }

    #[test]
    fn ticks_are_zero_unstamped_and_monotone_stamped() {
        let q = IngestQueue::new(8);
        q.push(tweet(1));
        let (_, tick) = q.pop_timeout(Duration::from_millis(10)).unwrap();
        assert_eq!(tick, 0);
        let q = IngestQueue::stamped(8);
        q.push(tweet(2));
        q.push(tweet(3));
        let (_, a) = q.pop_timeout(Duration::from_millis(10)).unwrap();
        let (_, b) = q.pop_timeout(Duration::from_millis(10)).unwrap();
        assert!(a >= 1, "stamped tick must be nonzero");
        assert!(b >= a, "ticks are monotone in push order");
    }
}
