//! Chrome trace-event JSON export, loadable in Perfetto or
//! `about://tracing`.
//!
//! Mapping: every traced stage becomes one *process* (pid), with worker
//! `w` on tid `w` — so each stage renders as a block of per-worker
//! tracks. The stage envelope sits on tid 0, the caller's thread, which
//! is also worker 0, so worker 0's batches nest inside it. Coarse
//! pipeline phases live in a dedicated `pipeline` process (pid 0).
//! Timestamps are the trace's native microseconds, which is exactly the
//! unit the format expects.

use crate::{TraceEvent, TraceLog};

/// Escapes a string for a JSON string literal (quotes not included).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// pid for a stage name: phases are pid 0, stages 1.. in first-seen
/// order over `pids`.
fn pid_of(pids: &mut Vec<String>, name: &str) -> usize {
    if let Some(i) = pids.iter().position(|n| n == name) {
        return i + 1;
    }
    pids.push(name.to_string());
    pids.len()
}

/// Renders a trace as Chrome trace-event JSON (the `traceEvents` array
/// form). One complete (`"X"`) slice per batch / stage envelope / phase,
/// and metadata (`"M"`) records naming every process and thread.
#[must_use]
pub fn to_chrome_json(log: &TraceLog) -> String {
    let mut pids: Vec<String> = Vec::new();
    let mut tids: Vec<(usize, u32, String)> = Vec::new(); // (pid, tid, label)
    let note_tid = |tids: &mut Vec<(usize, u32, String)>, pid: usize, tid: u32, label: String| {
        if !tids.iter().any(|(p, t, _)| *p == pid && *t == tid) {
            tids.push((pid, tid, label));
        }
    };
    let mut slices: Vec<String> = Vec::new();
    for event in &log.events {
        match event {
            TraceEvent::Stage {
                name,
                start_us,
                dur_us,
                workers,
                items,
            } => {
                let pid = pid_of(&mut pids, name);
                note_tid(&mut tids, pid, 0, "worker 0".to_string());
                slices.push(format!(
                    r#"{{"name":"stage","cat":"stage","ph":"X","pid":{pid},"tid":0,"ts":{start_us},"dur":{dur_us},"args":{{"workers":{workers},"items":{items}}}}}"#
                ));
            }
            TraceEvent::Batch {
                name,
                worker,
                start_us,
                dur_us,
                items,
            } => {
                let pid = pid_of(&mut pids, name);
                note_tid(&mut tids, pid, *worker, format!("worker {worker}"));
                slices.push(format!(
                    r#"{{"name":"batch","cat":"batch","ph":"X","pid":{pid},"tid":{worker},"ts":{start_us},"dur":{dur_us},"args":{{"items":{items}}}}}"#
                ));
            }
            TraceEvent::Phase {
                name,
                start_us,
                dur_us,
            } => {
                slices.push(format!(
                    r#"{{"name":"{}","cat":"phase","ph":"X","pid":0,"tid":0,"ts":{start_us},"dur":{dur_us}}}"#,
                    esc(name)
                ));
            }
        }
    }

    let mut meta: Vec<String> = Vec::new();
    meta.push(r#"{"name":"process_name","ph":"M","pid":0,"args":{"name":"pipeline"}}"#.to_string());
    meta.push(
        r#"{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"phases"}}"#.to_string(),
    );
    for (i, name) in pids.iter().enumerate() {
        meta.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":{},"args":{{"name":"{}"}}}}"#,
            i + 1,
            esc(name)
        ));
    }
    for (pid, tid, label) in &tids {
        meta.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{tid},"args":{{"name":"{}"}}}}"#,
            esc(label)
        ));
    }

    let mut out = String::new();
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for piece in meta.iter().chain(slices.iter()) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(piece);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
    out.push_str(&format!("\"dropped_events\":{}", log.dropped));
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> TraceLog {
        TraceLog::from_events(
            vec![
                TraceEvent::Stage {
                    name: "features.pure".to_string(),
                    start_us: 10,
                    dur_us: 90,
                    workers: 2,
                    items: 64,
                },
                TraceEvent::Batch {
                    name: "features.pure".to_string(),
                    worker: 0,
                    start_us: 12,
                    dur_us: 30,
                    items: 32,
                },
                TraceEvent::Batch {
                    name: "features.pure".to_string(),
                    worker: 1,
                    start_us: 14,
                    dur_us: 35,
                    items: 32,
                },
                TraceEvent::Phase {
                    name: "ml.train".to_string(),
                    start_us: 100,
                    dur_us: 400,
                },
            ],
            2,
        )
    }

    #[test]
    fn export_names_every_process_and_worker_track() {
        let json = to_chrome_json(&sample_log());
        assert!(json.contains(r#""name":"features.pure""#), "{json}");
        assert!(json.contains(r#""name":"worker 0""#), "{json}");
        assert!(json.contains(r#""name":"worker 1""#), "{json}");
        // Worker w's batches sit on tid w, next to the stage envelope on
        // the caller's tid 0.
        assert!(
            json.contains(r#""name":"batch","cat":"batch","ph":"X","pid":1,"tid":1,"#),
            "{json}"
        );
        assert!(
            json.contains(r#""name":"stage","cat":"stage","ph":"X","pid":1,"tid":0,"#),
            "{json}"
        );
        assert!(json.contains(r#""name":"ml.train""#), "{json}");
        assert!(json.contains(r#""dropped_events":2"#), "{json}");
    }

    #[test]
    fn phases_live_on_pid_zero_and_stages_do_not() {
        let json = to_chrome_json(&sample_log());
        assert!(
            json.contains(r#""name":"ml.train","cat":"phase","ph":"X","pid":0"#),
            "{json}"
        );
        assert!(
            json.contains(r#""name":"batch","cat":"batch","ph":"X","pid":1"#),
            "{json}"
        );
    }

    #[test]
    fn hostile_names_are_escaped() {
        let log = TraceLog::from_events(
            vec![TraceEvent::Phase {
                name: "bad\"name\\with\nnewline".to_string(),
                start_us: 0,
                dur_us: 1,
            }],
            0,
        );
        let json = to_chrome_json(&log);
        assert!(json.contains(r#"bad\"name\\with\nnewline"#), "{json}");
        assert!(!json.contains("bad\"name"), "raw quote leaked: {json}");
    }

    #[test]
    fn empty_log_is_still_valid_json_shape() {
        let json = to_chrome_json(&TraceLog::default());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains(r#""dropped_events":0"#));
    }
}
