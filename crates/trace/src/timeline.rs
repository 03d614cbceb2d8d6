//! Critical-path analysis over a captured [`TraceLog`]: per-stage
//! busy/idle wall-clock fractions, overall parallel efficiency,
//! and the serialized phase chain that bounds the run — the automated
//! answer to "why does `--threads N` barely beat `--threads 1`".

use crate::{TraceEvent, TraceLog};

/// Aggregated accounting for one `ph_exec::map` stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage name.
    pub name: String,
    /// `map` calls observed.
    pub invocations: u64,
    /// Largest worker count across invocations.
    pub workers: u32,
    /// Total stage-envelope wall time, µs.
    pub wall_us: u64,
    /// Total worker busy time (Σ batch durations), µs.
    pub busy_us: u64,
    /// Records processed.
    pub items: u64,
}

impl StageReport {
    /// Fraction of the stage's worker-seconds spent busy:
    /// `busy / (wall × workers)`.
    #[must_use]
    pub fn busy_frac(&self) -> f64 {
        if self.wall_us == 0 || self.workers == 0 {
            return 0.0;
        }
        self.busy_us as f64 / (self.wall_us as f64 * f64::from(self.workers))
    }

    /// Fraction of worker-seconds not accounted busy (idle: spawning,
    /// waiting for the last chunk, or simply unused workers).
    #[must_use]
    pub fn idle_frac(&self) -> f64 {
        (1.0 - self.busy_frac()).max(0.0)
    }

    /// Effective parallelism: average concurrently-busy workers
    /// (`busy / wall`). A value near 1.0 means the stage ran serially
    /// no matter how many workers it had.
    #[must_use]
    pub fn effective_parallelism(&self) -> f64 {
        if self.wall_us == 0 {
            return 0.0;
        }
        self.busy_us as f64 / self.wall_us as f64
    }
}

/// Aggregated accounting for one pipeline phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Phase name.
    pub name: String,
    /// Phase spans observed.
    pub invocations: u64,
    /// Total phase wall time, µs.
    pub wall_us: u64,
    /// Wall time not covered by nested phases, µs (what this phase
    /// *itself* contributes to the serialized chain).
    pub exclusive_us: u64,
    /// Worker busy time overlapping the phase's spans, µs.
    pub busy_us: u64,
}

impl PhaseReport {
    /// Average concurrently-busy exec workers while the phase ran.
    #[must_use]
    pub fn parallelism(&self) -> f64 {
        if self.wall_us == 0 {
            return 0.0;
        }
        self.busy_us as f64 / self.wall_us as f64
    }

    /// Whether the phase is effectively serialized: during its wall
    /// time the exec workers averaged ≤ ~1.2 busy workers (1.0 is a
    /// pure sequential loop; 0.0 is non-exec code like RF training).
    #[must_use]
    pub fn serialized(&self) -> bool {
        self.parallelism() < 1.2
    }
}

/// One link of the top-level serialized chain: a phase span not nested
/// inside any other phase, in run order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLink {
    /// Phase name.
    pub name: String,
    /// Start, µs since trace epoch.
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
}

/// The full timeline analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineReport {
    /// End-to-end traced wall time (first event start → last end), µs.
    pub run_wall_us: u64,
    /// Largest worker count any stage invocation used (≥ 1).
    pub max_workers: u32,
    /// Total worker busy time across every stage, µs.
    pub total_busy_us: u64,
    /// `Σ busy / (run_wall × max_workers)` — 1.0 means every worker was
    /// busy for the whole run; the gap to 1.0 is the headroom
    /// parallelism is not exploiting.
    pub parallel_efficiency: f64,
    /// Per-stage accounting, widest wall time first.
    pub stages: Vec<StageReport>,
    /// Per-phase accounting, largest exclusive time first — the ranked
    /// "why t0 ≈ t1" list.
    pub phases: Vec<PhaseReport>,
    /// Top-level phase spans in run order (the serialized chain
    /// bounding the run).
    pub chain: Vec<ChainLink>,
    /// Wall time covered by no top-level phase, µs.
    pub uncovered_us: u64,
    /// Events lost to buffer overflow while recording.
    pub dropped: u64,
}

fn overlap(a_start: u64, a_end: u64, b_start: u64, b_end: u64) -> u64 {
    a_end.min(b_end).saturating_sub(a_start.max(b_start))
}

/// Total length of the union of `intervals` (merged, so overlaps count
/// once).
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cursor = 0u64;
    let mut open = false;
    for (start, end) in intervals {
        if !open || start > cursor {
            total += end.saturating_sub(start);
            cursor = end;
            open = true;
        } else if end > cursor {
            total += end - cursor;
            cursor = end;
        }
    }
    total
}

/// Analyzes a captured trace into the timeline report. Deterministic in
/// the input log; safe on empty logs (all-zero report).
#[must_use]
pub fn analyze(log: &TraceLog) -> TimelineReport {
    let mut min_start = u64::MAX;
    let mut max_end = 0u64;
    for e in &log.events {
        min_start = min_start.min(e.start_us());
        max_end = max_end.max(e.end_us());
    }
    let run_wall_us = if min_start == u64::MAX {
        0
    } else {
        max_end - min_start
    };

    // --- Per-stage aggregation -------------------------------------
    let mut stages: Vec<StageReport> = Vec::new();
    let stage_mut = |stages: &mut Vec<StageReport>, name: &str| -> usize {
        if let Some(i) = stages.iter().position(|s| s.name == name) {
            return i;
        }
        stages.push(StageReport {
            name: name.to_string(),
            invocations: 0,
            workers: 0,
            wall_us: 0,
            busy_us: 0,
            items: 0,
        });
        stages.len() - 1
    };
    let mut batches: Vec<(u64, u64)> = Vec::new(); // (start, end) of every batch
    let mut max_workers = 1u32;
    for e in &log.events {
        match e {
            TraceEvent::Stage {
                name,
                dur_us,
                workers,
                items,
                ..
            } => {
                let i = stage_mut(&mut stages, name);
                stages[i].invocations += 1;
                stages[i].workers = stages[i].workers.max(*workers);
                stages[i].wall_us += dur_us;
                stages[i].items += items;
                max_workers = max_workers.max(*workers);
            }
            TraceEvent::Batch {
                name,
                start_us,
                dur_us,
                ..
            } => {
                let i = stage_mut(&mut stages, name);
                stages[i].busy_us += dur_us;
                batches.push((*start_us, start_us.saturating_add(*dur_us)));
            }
            TraceEvent::Phase { .. } => {}
        }
    }
    let total_busy_us: u64 = stages.iter().map(|s| s.busy_us).sum();
    stages.sort_by(|a, b| b.wall_us.cmp(&a.wall_us).then(a.name.cmp(&b.name)));

    // --- Phase spans: nesting, exclusivity, chain ------------------
    struct Span {
        name: String,
        start: u64,
        end: u64,
    }
    let spans: Vec<Span> = log
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Phase {
                name,
                start_us,
                dur_us,
            } => Some(Span {
                name: name.clone(),
                start: *start_us,
                end: start_us.saturating_add(*dur_us),
            }),
            _ => None,
        })
        .collect();
    // A span is nested when some *other* span properly contains it
    // (ties broken by index so identical intervals don't hide each
    // other).
    let contained_in = |i: usize| -> Option<usize> {
        let s = &spans[i];
        spans.iter().enumerate().position(|(j, o)| {
            j != i
                && o.start <= s.start
                && s.end <= o.end
                && (o.end - o.start > s.end - s.start || j < i)
        })
    };
    let mut phases: Vec<PhaseReport> = Vec::new();
    let phase_mut = |phases: &mut Vec<PhaseReport>, name: &str| -> usize {
        if let Some(i) = phases.iter().position(|p| p.name == name) {
            return i;
        }
        phases.push(PhaseReport {
            name: name.to_string(),
            invocations: 0,
            wall_us: 0,
            exclusive_us: 0,
            busy_us: 0,
        });
        phases.len() - 1
    };
    let mut chain: Vec<ChainLink> = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        let nested: Vec<(u64, u64)> = spans
            .iter()
            .enumerate()
            .filter(|&(j, o)| j != i && contained_in(j) == Some(i) && o.end > o.start)
            .map(|(_, o)| (o.start, o.end))
            .collect();
        let wall = span.end - span.start;
        let exclusive = wall.saturating_sub(union_len(nested));
        let busy: u64 = batches
            .iter()
            .map(|&(bs, be)| overlap(span.start, span.end, bs, be))
            .sum();
        let p = phase_mut(&mut phases, &span.name);
        phases[p].invocations += 1;
        phases[p].wall_us += wall;
        phases[p].exclusive_us += exclusive;
        phases[p].busy_us += busy;
        if contained_in(i).is_none() {
            chain.push(ChainLink {
                name: span.name.clone(),
                start_us: span.start,
                dur_us: wall,
            });
        }
    }
    chain.sort_by_key(|l| l.start_us);
    phases.sort_by(|a, b| {
        b.exclusive_us
            .cmp(&a.exclusive_us)
            .then(a.name.cmp(&b.name))
    });
    let covered = union_len(
        chain
            .iter()
            .map(|l| (l.start_us, l.start_us.saturating_add(l.dur_us)))
            .collect(),
    );
    let uncovered_us = run_wall_us.saturating_sub(covered);

    let parallel_efficiency = if run_wall_us == 0 {
        0.0
    } else {
        (total_busy_us as f64 / (run_wall_us as f64 * f64::from(max_workers))).min(1.0)
    };

    TimelineReport {
        run_wall_us,
        max_workers,
        total_busy_us,
        parallel_efficiency,
        stages,
        phases,
        chain,
        uncovered_us,
        dropped: log.dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(events: Vec<TraceEvent>) -> TraceLog {
        TraceLog::from_events(events, 0)
    }

    #[test]
    fn empty_log_analyzes_to_zeroes() {
        let r = analyze(&log(vec![]));
        assert_eq!(r.run_wall_us, 0);
        assert_eq!(r.parallel_efficiency, 0.0);
        assert!(r.stages.is_empty());
        assert!(r.chain.is_empty());
    }

    #[test]
    fn busy_and_idle_fractions_add_up() {
        // One stage, 2 workers, 100µs wall; workers busy 60+40µs.
        let r = analyze(&log(vec![
            TraceEvent::Stage {
                name: "s".to_string(),
                start_us: 0,
                dur_us: 100,
                workers: 2,
                items: 10,
            },
            TraceEvent::Batch {
                name: "s".to_string(),
                worker: 0,
                start_us: 0,
                dur_us: 60,
                items: 5,
            },
            TraceEvent::Batch {
                name: "s".to_string(),
                worker: 1,
                start_us: 0,
                dur_us: 40,
                items: 5,
            },
        ]));
        let s = &r.stages[0];
        assert_eq!(s.wall_us, 100);
        assert_eq!(s.busy_us, 100);
        assert!((s.busy_frac() - 0.5).abs() < 1e-9, "{}", s.busy_frac());
        assert!((s.idle_frac() - 0.5).abs() < 1e-9);
        assert!((s.effective_parallelism() - 1.0).abs() < 1e-9);
        // Whole run: 100µs wall, 2 workers, 100µs busy → 0.5.
        assert!((r.parallel_efficiency - 0.5).abs() < 1e-9);
    }

    #[test]
    fn serialized_phase_is_flagged_and_parallel_phase_is_not() {
        let r = analyze(&log(vec![
            // A phase with zero exec batch coverage: RF training.
            TraceEvent::Phase {
                name: "ml.train".to_string(),
                start_us: 0,
                dur_us: 1_000,
            },
            // A phase fully covered by 2 concurrent workers.
            TraceEvent::Phase {
                name: "classify".to_string(),
                start_us: 1_000,
                dur_us: 500,
            },
            TraceEvent::Batch {
                name: "s".to_string(),
                worker: 0,
                start_us: 1_000,
                dur_us: 500,
                items: 1,
            },
            TraceEvent::Batch {
                name: "s".to_string(),
                worker: 1,
                start_us: 1_000,
                dur_us: 500,
                items: 1,
            },
        ]));
        let train = r.phases.iter().find(|p| p.name == "ml.train").unwrap();
        let classify = r.phases.iter().find(|p| p.name == "classify").unwrap();
        assert!(train.serialized(), "{train:?}");
        assert!((train.parallelism() - 0.0).abs() < 1e-9);
        assert!(!classify.serialized(), "{classify:?}");
        assert!((classify.parallelism() - 2.0).abs() < 1e-9);
        // ml.train dominates the ranked list.
        assert_eq!(r.phases[0].name, "ml.train");
    }

    #[test]
    fn nested_phases_yield_exclusive_time_and_a_top_level_chain() {
        let r = analyze(&log(vec![
            TraceEvent::Phase {
                name: "label".to_string(),
                start_us: 0,
                dur_us: 100,
            },
            TraceEvent::Phase {
                name: "label.suspended".to_string(),
                start_us: 10,
                dur_us: 30,
            },
            TraceEvent::Phase {
                name: "label.clustering".to_string(),
                start_us: 40,
                dur_us: 50,
            },
            TraceEvent::Phase {
                name: "train".to_string(),
                start_us: 100,
                dur_us: 40,
            },
        ]));
        let label = r.phases.iter().find(|p| p.name == "label").unwrap();
        assert_eq!(label.wall_us, 100);
        assert_eq!(label.exclusive_us, 20); // 100 − (30 + 50)
        let chain: Vec<&str> = r.chain.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(chain, vec!["label", "train"]);
        assert_eq!(r.uncovered_us, 0);
    }

    #[test]
    fn uncovered_time_is_reported() {
        let r = analyze(&log(vec![
            TraceEvent::Phase {
                name: "a".to_string(),
                start_us: 0,
                dur_us: 10,
            },
            TraceEvent::Batch {
                name: "s".to_string(),
                worker: 0,
                start_us: 90,
                dur_us: 10,
                items: 1,
            },
        ]));
        assert_eq!(r.run_wall_us, 100);
        assert_eq!(r.uncovered_us, 90);
    }

    #[test]
    fn identical_twin_spans_do_not_hide_each_other() {
        // Two phases with the exact same interval: exactly one is
        // top-level; the other nests under it (no double chain entry,
        // no infinite mutual containment).
        let r = analyze(&log(vec![
            TraceEvent::Phase {
                name: "outer".to_string(),
                start_us: 0,
                dur_us: 50,
            },
            TraceEvent::Phase {
                name: "inner".to_string(),
                start_us: 0,
                dur_us: 50,
            },
        ]));
        assert_eq!(r.chain.len(), 1);
        assert_eq!(r.uncovered_us, 0);
    }
}
