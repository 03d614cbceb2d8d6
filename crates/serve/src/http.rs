//! The daemon's HTTP observability endpoint.
//!
//! Two routes, zero dependencies:
//!
//! - `GET /metrics` — the live telemetry registry rendered by
//!   [`ph_telemetry::to_prometheus`], served with the exposition-format
//!   content type `text/plain; version=0.0.4` Prometheus expects.
//! - `GET /healthz` — `200 ok` while the daemon is healthy; while any
//!   degradation reason of the session's [`Health`] is raised (a stalled stage, a
//!   failing latency SLO) it answers `503 Service Unavailable` with the
//!   joined reasons, so probes and load balancers see the state without
//!   parsing `/metrics`.
//!
//! Every response closes its connection (`Connection: close`): a scrape
//! is one short-lived socket, so there is no keep-alive state machine.
//! The accept loop stays non-blocking and hands each connection to its
//! own short-lived thread — a slow, stalled, or half-open client
//! (bounded further by a per-read timeout *and* an overall request
//! deadline) can never block the listener or a concurrent scrape.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ph_telemetry::log_info;

use crate::health::Health;

/// The Prometheus text exposition format version served by `/metrics`.
pub const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// How often the accept loop re-checks the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Per-`read(2)` timeout on a request socket.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Overall deadline for receiving one request's head — bounds clients
/// that drip one byte per [`READ_TIMEOUT`].
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// A running metrics/health HTTP server.
pub struct MetricsServer {
    /// The bound `host:port` (port 0 in the request is resolved here).
    pub addr: String,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving, answering
    /// `/healthz` from `health`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn(addr: &str, health: Health) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?.to_string();
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let loop_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !loop_stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((conn, _)) => {
                        // One short-lived thread per connection: the
                        // deadline bounds its lifetime, and the accept
                        // loop goes straight back to listening even
                        // when a client stalls mid-request.
                        let health = health.clone();
                        std::thread::spawn(move || {
                            let _ = serve_one(conn, &health);
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                    Err(_) => std::thread::sleep(POLL_INTERVAL),
                }
            }
        });
        log_info!("metrics endpoint on http://{bound}/metrics");
        Ok(Self {
            addr: bound,
            stop,
            handle: Some(handle),
        })
    }

    /// Stops the accept loop and joins the server thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reads one request line (with a per-read timeout and an overall
/// deadline) and answers it.
fn serve_one(mut conn: TcpStream, health: &Health) -> io::Result<()> {
    conn.set_read_timeout(Some(READ_TIMEOUT))?;
    let deadline = Instant::now() + REQUEST_DEADLINE;
    // Read until the header terminator (or the buffer fills, or the
    // deadline passes) — only the request line matters, but draining
    // headers avoids a TCP RST race on clients that are still writing
    // when we respond.
    let mut buf = [0u8; 4096];
    let mut len = 0;
    while len < buf.len() && Instant::now() < deadline {
        let n = match conn.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::TimedOut => break,
            Err(e) => return Err(e),
        };
        len += n;
        if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let request = String::from_utf8_lossy(&buf[..len]);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1));
    ph_telemetry::counter("serve.http.requests").inc();
    match path {
        Some("/metrics") => {
            let body = ph_telemetry::to_prometheus(
                &ph_telemetry::snapshot(),
                &ph_telemetry::series_snapshot(),
            );
            respond(&mut conn, "200 OK", METRICS_CONTENT_TYPE, &body)
        }
        Some("/healthz") => match health.status() {
            None => respond(&mut conn, "200 OK", "text/plain", "ok\n"),
            Some(reasons) => respond(
                &mut conn,
                "503 Service Unavailable",
                "text/plain",
                &format!("degraded: {reasons}\n"),
            ),
        },
        Some(_) => respond(&mut conn, "404 Not Found", "text/plain", "not found\n"),
        // No parseable request line (empty read, a stalled client, or
        // line noise): answer 400 rather than inventing a path.
        None => respond(&mut conn, "400 Bad Request", "text/plain", "bad request\n"),
    }
}

fn respond(conn: &mut TcpStream, status: &str, content_type: &str, body: &str) -> io::Result<()> {
    write!(
        conn,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    conn.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: &str, path: &str) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        write!(conn, "GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_with_the_pinned_content_type() {
        ph_telemetry::counter("serve.test.http_metric").inc();
        let server = MetricsServer::spawn("127.0.0.1:0", Health::default()).unwrap();
        let response = get(&server.addr, "/metrics");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        // The exposition-format content type, pinned: Prometheus rejects
        // scrape targets that drop the version parameter.
        assert!(
            response.contains("Content-Type: text/plain; version=0.0.4\r\n"),
            "missing pinned content type in: {response}"
        );
        assert!(response.contains("ph_serve_test_http_metric"), "{response}");
    }

    #[test]
    fn healthz_answers_ok_and_unknown_paths_404() {
        let mut server = MetricsServer::spawn("127.0.0.1:0", Health::default()).unwrap();
        let health = get(&server.addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(health.ends_with("ok\n"));
        let missing = get(&server.addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404 Not Found\r\n"));
        server.shutdown();
        server.shutdown(); // idempotent
    }

    #[test]
    fn healthz_flips_to_503_while_degraded_and_recovers() {
        let health = Health::default();
        let server = MetricsServer::spawn("127.0.0.1:0", health.clone()).unwrap();
        health.degrade("slo.p99", "p99 612.0 ms > 250.0 ms limit");
        let degraded = get(&server.addr, "/healthz");
        assert!(
            degraded.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{degraded}"
        );
        assert!(
            degraded.ends_with("degraded: slo.p99: p99 612.0 ms > 250.0 ms limit\n"),
            "{degraded}"
        );
        health.clear("slo.p99");
        let recovered = get(&server.addr, "/healthz");
        assert!(recovered.starts_with("HTTP/1.1 200 OK\r\n"), "{recovered}");
    }

    #[test]
    fn an_unparseable_request_line_gets_a_400() {
        let server = MetricsServer::spawn("127.0.0.1:0", Health::default()).unwrap();
        let mut conn = TcpStream::connect(&server.addr).unwrap();
        conn.write_all(b"\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 400 Bad Request\r\n"),
            "{response}"
        );
    }

    #[test]
    fn a_stalled_client_does_not_block_a_concurrent_scrape() {
        let server = MetricsServer::spawn("127.0.0.1:0", Health::default()).unwrap();
        // Connect and send half a request line, then stall without
        // closing: the per-connection thread sits in its read timeout.
        let mut stalled = TcpStream::connect(&server.addr).unwrap();
        stalled.write_all(b"GET /met").unwrap();
        std::thread::sleep(Duration::from_millis(30));
        // A concurrent scrape must complete promptly regardless.
        let started = Instant::now();
        let response = get(&server.addr, "/metrics");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(
            started.elapsed() < READ_TIMEOUT,
            "scrape was serialized behind the stalled client"
        );
        drop(stalled);
    }

    #[test]
    fn a_client_closing_mid_request_is_answered_not_crashed() {
        let server = MetricsServer::spawn("127.0.0.1:0", Health::default()).unwrap();
        {
            let mut conn = TcpStream::connect(&server.addr).unwrap();
            conn.write_all(b"GET /healthz HTT").unwrap();
            // Dropped here: half a request line then an orderly close.
        }
        // The server thread must survive; prove it with a normal scrape.
        let response = get(&server.addr, "/metrics");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    }
}
