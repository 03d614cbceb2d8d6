//! Service-health soak for the `serve` daemon, end to end at the binary
//! level.
//!
//! One deterministic scenario exercises the whole observability chain:
//! a daemon with a tight latency SLO (`--slo p99:250`) and a test-only
//! throttle that inflates the first hours' ingest→verdict latency must
//!
//! 1. breach the SLO (a `slo_breach` journal event),
//! 2. degrade `/healthz` to `503` with the breach as the reason,
//! 3. dump the flight recorder into the store on SIGQUIT — and keep
//!    running,
//! 4. recover to `200` once the unthrottled hours cool the quantile,
//! 5. finish with exit code 0, and
//! 6. leave a store from which `inspect --flight` renders the breach
//!    timeline with no live process anywhere.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// One blocking HTTP GET against `addr`, returning the raw response.
fn http_get(addr: &str, path: &str) -> Option<String> {
    let mut conn = TcpStream::connect(addr).ok()?;
    conn.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    write!(conn, "GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n").ok()?;
    let mut response = String::new();
    conn.read_to_string(&mut response).ok()?;
    Some(response)
}

/// The `http=` address from the store's ENDPOINTS file, once present.
fn http_addr(dir: &Path) -> Option<String> {
    let endpoints = std::fs::read_to_string(dir.join("ENDPOINTS")).ok()?;
    endpoints
        .lines()
        .find_map(|line| line.strip_prefix("http="))
        .filter(|addr| *addr != "-")
        .map(str::to_string)
}

#[test]
fn slo_breach_degrades_healthz_dumps_flight_on_sigquit_and_recovers() {
    let dir = std::env::temp_dir().join(format!("ph-serve-health-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let exe = env!("CARGO_BIN_EXE_pseudo-honeypot");
    let mut child = std::process::Command::new(exe)
        .arg("serve")
        .args(["--store", dir.to_str().unwrap()])
        .args(["--seed", "9", "--organic", "300", "--campaigns", "2"])
        .args(["--gt-hours", "2", "--hours", "60"])
        // Pace the producer (~160 tweets/hour at 1000/s ⇒ ~0.16 s per
        // wire hour): the daemon keeps up outside the throttled window,
        // so steady-state p99 sits well under the target, and the long
        // healthy tail gives the recovered 200 seconds of visibility.
        .args(["--loadgen", "--rate", "1000"])
        .args(["--http", "127.0.0.1:0"])
        // 900 ms of injected latency per hour for the first 3 hours
        // against a 400 ms p99 target: breach, then recovery once the
        // backlog those hours piled up is drained.
        .args(["--slo", "p99:400"])
        .args(["--throttle-ms", "900", "--throttle-hours", "3"])
        .arg("--quiet")
        .stdout(std::process::Stdio::null())
        .spawn()
        .unwrap();

    // The HTTP endpoint appears only after detector training, so allow
    // a generous deadline before the health watch starts.
    let deadline = Instant::now() + Duration::from_secs(180);
    let addr = loop {
        if let Some(addr) = http_addr(&dir) {
            break addr;
        }
        if let Some(status) = child.try_wait().unwrap() {
            panic!("serve exited before binding its endpoints: {status}");
        }
        assert!(Instant::now() < deadline, "no ENDPOINTS file within 180 s");
        std::thread::sleep(Duration::from_millis(10));
    };

    // Watch /healthz through the run: it must degrade with the SLO
    // breach as the reason, and later recover.
    let mut saw_degraded = false;
    let mut saw_recovery = false;
    let mut saw_latency_gauges = false;
    let mut sent_quit = false;
    let flight_log = dir.join("flight.log");
    loop {
        if let Some(response) = http_get(&addr, "/healthz") {
            if response.starts_with("HTTP/1.1 503") {
                assert!(
                    response.contains("slo.p99"),
                    "degraded without the SLO rule as reason: {response}"
                );
                saw_degraded = true;
                if !sent_quit {
                    // Mid-incident SIGQUIT: dump the flight recorder
                    // without stopping the daemon.
                    let killed = std::process::Command::new("kill")
                        .args(["-s", "QUIT", &child.id().to_string()])
                        .status()
                        .unwrap();
                    assert!(killed.success(), "kill -s QUIT failed");
                    sent_quit = true;
                }
            } else if response.starts_with("HTTP/1.1 200") && saw_degraded {
                saw_recovery = true;
                // The armed SLO, and the recovered health gauge, must
                // be visible to scrapes too. A scrape can race the
                // daemon's exit, so retry until one lands rather than
                // asserting on a dead socket.
                if !saw_latency_gauges {
                    if let Some(metrics) = http_get(&addr, "/metrics") {
                        saw_latency_gauges = metrics.contains("ph_serve_latency_ms_p99")
                            && metrics.contains("\nph_serve_health_degraded 0\n");
                    }
                }
            }
        }
        if let Some(status) = child.try_wait().unwrap() {
            assert_eq!(status.code(), Some(0), "serve must finish cleanly");
            break;
        }
        assert!(Instant::now() < deadline, "serve still running at 180 s");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(saw_degraded, "the SLO breach never degraded /healthz");
    assert!(saw_recovery, "/healthz never recovered to 200");
    assert!(
        saw_latency_gauges,
        "no serve.latency_ms quantile gauges, or no healthy serve.health.degraded, in /metrics"
    );
    assert!(
        flight_log.exists(),
        "SIGQUIT did not dump flight.log into the store"
    );

    // Post-mortem from the store alone: the flight timeline renders and
    // carries the breach.
    let inspect = std::process::Command::new(exe)
        .arg("inspect")
        .args(["--store", dir.to_str().unwrap(), "--flight", "--quiet"])
        .output()
        .unwrap();
    assert!(inspect.status.success(), "inspect --flight failed");
    let rendered = String::from_utf8_lossy(&inspect.stdout);
    assert!(
        rendered.contains("flight recorder:"),
        "no flight section in inspect output: {rendered}"
    );
    assert!(
        rendered.contains("slo_breach"),
        "the breach is missing from the flight timeline: {rendered}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
