//! The open-loop load generator / feed client.
//!
//! A deterministic producer: rebuilds the manifest's engine, fast-forwards
//! over the ground-truth window (and any already-monitored hours), taps
//! the firehose, and streams every tweet of every remaining hour over a
//! socket as wire frames, closing each hour with an [`StreamFrame::HourBoundary`]
//! marker and the run with [`StreamFrame::Shutdown`].
//!
//! *Open-loop* means pacing is against the wall clock, not the consumer:
//! with `rate` events/second, event *n* is sent at `start + n/rate`
//! regardless of how far the daemon has fallen behind — the shedding
//! ingest queue, not producer backoff, absorbs overload (the
//! Pseudo-Honeypot paper's scalability claim is about surviving the
//! firehose, so the harness must not flow-control it away). `rate = 0`
//! streams as fast as the socket accepts.
//!
//! The hidden ground-truth labels never cross the wire: tweet frames are
//! encoded by [`ph_twitter_sim::wire`], which omits the label field
//! entirely — the daemon rebuilds evaluation sidecars from its own
//! replica engine.

use std::io::{self, Write};
use std::time::{Duration, Instant};

use ph_store::Manifest;
use ph_telemetry::{log_info, log_warn};
use ph_twitter_sim::engine::Engine;
use ph_twitter_sim::wire::{write_stream_frame, StreamFrame};

use crate::listener::{connect, BindAddr};

/// How often [`connect_with_retry`] tries before giving up.
pub const CONNECT_ATTEMPTS: u32 = 8;

/// First retry delay; doubles per attempt, capped at
/// [`CONNECT_BACKOFF_CAP`].
pub const CONNECT_BACKOFF: Duration = Duration::from_millis(50);

/// Ceiling on the exponential backoff between connect attempts.
pub const CONNECT_BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Whether a connect failure is worth retrying: the daemon may simply
/// not be listening *yet* (racing a fresh daemon's bind, or a Unix
/// socket path not created yet).
fn connect_retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::NotFound
            | io::ErrorKind::AddrNotAvailable
    )
}

/// [`connect`] with bounded exponential backoff: up to
/// [`CONNECT_ATTEMPTS`] tries, 50 ms doubling to a 2 s cap (≈6.3 s
/// total), retrying only the not-listening-yet error kinds. Anything
/// else — and the last attempt's failure — propagates unchanged.
///
/// # Errors
///
/// The final attempt's error once retries are exhausted, or the first
/// non-retryable connect failure.
pub fn connect_with_retry(addr: &BindAddr) -> io::Result<Box<dyn Write + Send>> {
    let mut delay = CONNECT_BACKOFF;
    for attempt in 1..=CONNECT_ATTEMPTS {
        match connect(addr) {
            Ok(out) => return Ok(out),
            Err(e) if attempt < CONNECT_ATTEMPTS && connect_retryable(&e) => {
                log_warn!(
                    "feed: connect to {addr} failed ({e}); retry {attempt}/{} in {:?}",
                    CONNECT_ATTEMPTS - 1,
                    delay
                );
                std::thread::sleep(delay);
                delay = (delay * 2).min(CONNECT_BACKOFF_CAP);
            }
            Err(e) => return Err(e),
        }
    }
    unreachable!("the final attempt either returned or propagated")
}

/// What to generate and how fast.
#[derive(Debug, Clone)]
pub struct FeedConfig {
    /// The run being produced (engine seeds, scale, hour counts).
    pub manifest: Manifest,
    /// First run-relative hour to send (a resumed daemon's `next_hour`).
    pub start_hour: u64,
    /// One past the last run-relative hour to send (usually
    /// `manifest.hours`).
    pub end_hour: u64,
    /// Target events/second; `0` = unpaced.
    pub rate: f64,
}

/// What a feed run delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedSummary {
    /// Tweet frames written.
    pub tweets: u64,
    /// Hour markers written.
    pub hours: u64,
}

/// Builds the producer engine and streams `config`'s hours to `addr`.
///
/// # Errors
///
/// Propagates connect/write failures (a daemon that goes away mid-feed
/// surfaces as a broken pipe).
pub fn feed(addr: &BindAddr, config: &FeedConfig) -> io::Result<FeedSummary> {
    let m = &config.manifest;
    let mut engine = Engine::new(m.sim_config());
    // Fast-forward over the ground-truth window plus already-delivered
    // hours; determinism makes the tap identical to never having
    // disconnected.
    engine.run_hours(m.gt_hours + config.start_hour);
    let streaming = engine.streaming();
    let tap = streaming.firehose_with_capacity(m.buffer_capacity as usize);

    let mut out = connect_with_retry(addr)?;
    log_info!(
        "loadgen: feeding hours {}..{} to {addr} at {}",
        config.start_hour,
        config.end_hour,
        if config.rate > 0.0 {
            format!("{} events/s", config.rate)
        } else {
            "full speed".to_string()
        }
    );
    let started = Instant::now();
    let mut sent = 0u64;
    let mut hours = 0u64;
    for hour in config.start_hour..config.end_hour {
        engine.step_hour();
        let tweets = streaming.poll(tap).map_err(io::Error::other)?;
        for tweet in tweets {
            if config.rate > 0.0 {
                let target = started + Duration::from_secs_f64(sent as f64 / config.rate);
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
            }
            write_stream_frame(&mut out, &StreamFrame::Tweet(tweet))?;
            sent += 1;
        }
        write_stream_frame(&mut out, &StreamFrame::HourBoundary { hour })?;
        out.flush()?;
        hours += 1;
        ph_telemetry::counter("serve.loadgen.hours").inc();
    }
    write_stream_frame(&mut out, &StreamFrame::Shutdown)?;
    out.flush()?;
    ph_telemetry::counter("serve.loadgen.tweets").add(sent);
    streaming.close(tap);
    Ok(FeedSummary {
        tweets: sent,
        hours,
    })
}

/// [`feed`] on a background thread, logging instead of propagating
/// errors — the in-daemon load generator must not take the daemon down
/// when the daemon itself closes the connection during a drain.
pub fn spawn_feed(addr: BindAddr, config: FeedConfig) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || match feed(&addr, &config) {
        Ok(summary) => log_info!(
            "loadgen: delivered {} tweets over {} hours",
            summary.tweets,
            summary.hours
        ),
        Err(e) => log_warn!("loadgen stopped: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_retries_until_a_late_binding_listener_appears() {
        let path = std::env::temp_dir().join(format!("ph-feed-retry-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let bind_path = path.clone();
        // The listener shows up only after the first attempts have
        // already failed with NotFound.
        let listener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(120));
            let listener = std::os::unix::net::UnixListener::bind(&bind_path).unwrap();
            let _conn = listener.accept().unwrap();
        });
        let addr = BindAddr::Unix(path.clone());
        let mut out = connect_with_retry(&addr).expect("retry should outlast the late bind");
        out.flush().unwrap();
        drop(out);
        listener.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn only_not_listening_yet_errors_are_retryable() {
        for kind in [
            io::ErrorKind::ConnectionRefused,
            io::ErrorKind::NotFound,
            io::ErrorKind::AddrNotAvailable,
        ] {
            assert!(connect_retryable(&io::Error::from(kind)), "{kind:?}");
        }
        assert!(!connect_retryable(&io::Error::from(
            io::ErrorKind::PermissionDenied
        )));
    }
}
