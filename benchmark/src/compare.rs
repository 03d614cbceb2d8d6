//! `compare A B`: holds two sets of end-to-end results (directories of
//! the `<workload>-<seed>.json` files runs write) to the bounds
//! `BENCHMARK.json` fixes — A the parent, B the change.
//!
//! Results measured under different conditions are not compared at all:
//! sets that differ in core count, thread count, run length, sizes or
//! seeds are refused. Within a comparable pair, a metric whose
//! run-to-run spread is wider than its bound is *unresolved*, not
//! unchanged: the runs cannot show a regression of the size the bound
//! forbids, so they cannot show its absence either.

use std::collections::BTreeMap;
use std::path::Path;

use ph_prof::jsonv::{self, Json};

use crate::stats::{median, quartile_spread};

/// What `BENCHMARK.json` says about one end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of A's median by which B's may be worse.
    pub bound: f64,
}

/// Reads the end-to-end metric bounds out of `BENCHMARK.json`'s text.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let json = jsonv::parse(text)?;
    let metrics = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .ok_or(format!("an end_to_end metric lacks '{key}'"))
            };
            Ok(Bound {
                name: text("name")?.to_string(),
                lower_is_better: match text("better")? {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("better must be lower or higher, got '{other}'")),
                },
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("an end_to_end metric lacks 'bound'")?,
            })
        })
        .collect()
}

/// The conditions a result was measured under, bar the seed. Two sets
/// compare only when these are equal.
#[derive(Debug, Clone, PartialEq)]
struct Conditions {
    nproc: u64,
    threads: u64,
    seconds: u64,
    smoke: bool,
    gt_hours: u64,
    hours: u64,
}

/// One result file's content, as far as `compare` needs it.
#[derive(Debug, Clone, PartialEq)]
struct RunFile {
    workload: String,
    seed: u64,
    conditions: Conditions,
    metrics: BTreeMap<String, f64>,
}

fn parse_run_file(text: &str) -> Result<Option<RunFile>, String> {
    let json = jsonv::parse(text)?;
    let meta = json.get("meta").ok_or("no meta")?;
    let number = |key: &str| {
        meta.get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("no meta.{key}"))
    };
    let flag = |key: &str| match meta.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("no meta.{key}")),
    };
    if flag("trace")? {
        // A traced run's file holds the layer ledger, which has no bounds.
        return Ok(None);
    }
    let Some(Json::Obj(fields)) = json.get("metrics") else {
        return Err("no metrics".to_string());
    };
    let metrics = fields
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(Some(RunFile {
        workload: json
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("no workload")?
            .to_string(),
        seed: number("seed")?,
        conditions: Conditions {
            nproc: number("nproc")?,
            threads: number("threads")?,
            seconds: number("seconds")?,
            smoke: flag("smoke")?,
            gt_hours: number("gt_hours")?,
            hours: number("hours")?,
        },
        metrics,
    }))
}

/// A result set: per workload, its runs ordered by seed.
type ResultSet = BTreeMap<String, BTreeMap<u64, RunFile>>;

fn load_set(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.extension().is_none_or(|ext| ext != "json") || !path.is_file() {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        // Span dumps and other JSON in the directory are not results.
        if let Ok(Some(run)) = parse_run_file(&text) {
            set.entry(run.workload.clone())
                .or_default()
                .insert(run.seed, run);
        }
    }
    if set.is_empty() {
        return Err(format!(
            "{} holds no end-to-end result files",
            dir.display()
        ));
    }
    Ok(set)
}

/// Why two sets cannot be compared, if they cannot.
fn refusal(a: &ResultSet, b: &ResultSet) -> Option<String> {
    if a.keys().ne(b.keys()) {
        return Some(format!(
            "the sets cover different workloads: {:?} vs {:?}",
            a.keys().collect::<Vec<_>>(),
            b.keys().collect::<Vec<_>>()
        ));
    }
    for (workload, runs_a) in a {
        let runs_b = &b[workload];
        if runs_a.keys().ne(runs_b.keys()) {
            return Some(format!(
                "{workload}: the sets were run on different seeds: {:?} vs {:?}",
                runs_a.keys().collect::<Vec<_>>(),
                runs_b.keys().collect::<Vec<_>>()
            ));
        }
        let first = &runs_a
            .values()
            .next()
            .expect("a workload has runs")
            .conditions;
        if let Some(odd) = runs_a
            .values()
            .chain(runs_b.values())
            .find(|r| r.conditions != *first)
        {
            return Some(format!(
                "{workload}: results measured under different conditions do not compare: {:?} vs {:?} (seed {})",
                first, odd.conditions, odd.seed
            ));
        }
    }
    None
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's, and the runs are steady
    /// enough to tell.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The spread between runs exceeds the bound, and B's runs do not
    /// all read better than A's.
    Unresolved,
}

/// One metric of one workload, judged.
#[derive(Debug, Clone, PartialEq)]
pub struct Judged {
    pub median_a: f64,
    pub median_b: f64,
    /// How much worse B's median is, as a share of A's (negative: better).
    pub worse_by: f64,
    /// The wider of the two sets' quartile spreads.
    pub spread: f64,
    pub verdict: Verdict,
}

pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> Judged {
    let (median_a, median_b) = (median(a), median(b));
    let sign = if bound.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = if median_a == 0.0 {
        0.0
    } else {
        sign * (median_b - median_a) / median_a.abs()
    };
    let spread = quartile_spread(a).max(quartile_spread(b));
    let all_better = a.iter().all(|&x| b.iter().all(|&y| sign * (y - x) < 0.0));
    let verdict = if worse_by > bound.bound {
        Verdict::Regressed
    } else if (spread > bound.bound || a.len() < 2 || b.len() < 2) && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Judged {
        median_a,
        median_b,
        worse_by,
        spread,
        verdict,
    }
}

/// Runs the comparison and prints its table. Exit code: 0 when every
/// metric of every workload is within its bound and resolved, 1 when
/// something regressed or is unresolved, 2 when the sets do not compare.
pub fn run(dir_a: &Path, dir_b: &Path, benchmark_json: &Path) -> i32 {
    let load = || -> Result<(Vec<Bound>, ResultSet, ResultSet), String> {
        let text = std::fs::read_to_string(benchmark_json)
            .map_err(|e| format!("cannot read {}: {e}", benchmark_json.display()))?;
        Ok((parse_bounds(&text)?, load_set(dir_a)?, load_set(dir_b)?))
    };
    let (bounds, a, b) = match load() {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if let Some(why) = refusal(&a, &b) {
        eprintln!("error: refusing to compare: {why}");
        return 2;
    }
    let mut bad = 0;
    for (workload, runs_a) in &a {
        let runs_b = &b[workload];
        println!(
            "{workload} ({} runs a side, seeds {:?})",
            runs_a.len(),
            runs_a.keys().collect::<Vec<_>>()
        );
        println!(
            "  {:<20} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
            "metric", "median A", "median B", "worse by", "spread", "bound"
        );
        for bound in &bounds {
            let values = |runs: &BTreeMap<u64, RunFile>| -> Vec<f64> {
                runs.values()
                    .filter_map(|r| r.metrics.get(&bound.name).copied())
                    .collect()
            };
            let judged = judge(&values(runs_a), &values(runs_b), bound);
            if judged.verdict != Verdict::Ok {
                bad += 1;
            }
            println!(
                "  {:<20} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>6.2}%  {}",
                bound.name,
                judged.median_a,
                judged.median_b,
                100.0 * judged.worse_by,
                100.0 * judged.spread,
                100.0 * bound.bound,
                match judged.verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if bad > 0 {
        println!("{bad} metric(s) regressed or unresolved");
        1
    } else {
        println!("every metric within its bound");
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "wall_s".to_string(),
            lower_is_better: true,
            bound,
        }
    }

    fn higher(bound: f64) -> Bound {
        Bound {
            name: "verdicts_per_s".to_string(),
            lower_is_better: false,
            bound,
        }
    }

    const STEADY: [f64; 5] = [10.0, 10.1, 9.9, 10.05, 9.95];

    #[test]
    fn a_steady_metric_within_its_bound_is_ok() {
        let b: Vec<f64> = STEADY.iter().map(|x| x * 1.05).collect();
        let judged = judge(&STEADY, &b, &lower(0.10));
        assert_eq!(judged.verdict, Verdict::Ok);
        assert!((judged.worse_by - 0.05).abs() < 1e-9);
    }

    #[test]
    fn a_median_past_the_bound_regresses_in_the_metrics_own_direction() {
        let slower: Vec<f64> = STEADY.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            judge(&STEADY, &slower, &lower(0.10)).verdict,
            Verdict::Regressed
        );
        // The same numbers are an improvement where higher is better…
        assert_eq!(judge(&STEADY, &slower, &higher(0.10)).verdict, Verdict::Ok);
        // …and a drop is the regression there.
        let fewer: Vec<f64> = STEADY.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            judge(&STEADY, &fewer, &higher(0.10)).verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        let judged = judge(&noisy, &noisy, &lower(0.10));
        assert!(judged.spread > 0.10);
        assert_eq!(judged.verdict, Verdict::Unresolved);
        // Unless every run of B reads better than every run of A.
        let clearly_better = [5.0, 7.0, 6.0, 7.5, 5.5];
        assert_eq!(
            judge(&noisy, &clearly_better, &lower(0.10)).verdict,
            Verdict::Ok
        );
    }

    #[test]
    fn a_single_run_a_side_cannot_resolve_anything() {
        assert_eq!(
            judge(&[10.0], &[10.0], &lower(0.10)).verdict,
            Verdict::Unresolved
        );
    }

    fn run_file(workload: &str, seed: u64, nproc: u64) -> RunFile {
        RunFile {
            workload: workload.to_string(),
            seed,
            conditions: Conditions {
                nproc,
                threads: nproc.min(4),
                seconds: 15,
                smoke: false,
                gt_hours: 18,
                hours: 3,
            },
            metrics: BTreeMap::new(),
        }
    }

    fn set_of(runs: &[RunFile]) -> ResultSet {
        let mut set = ResultSet::new();
        for run in runs {
            set.entry(run.workload.clone())
                .or_default()
                .insert(run.seed, run.clone());
        }
        set
    }

    #[test]
    fn sets_from_different_core_counts_seeds_or_workloads_are_refused() {
        let a = set_of(&[run_file("gt_train", 1, 2), run_file("gt_train", 2, 2)]);
        assert_eq!(refusal(&a, &a), None);
        let other_cores = set_of(&[run_file("gt_train", 1, 8), run_file("gt_train", 2, 8)]);
        assert!(refusal(&a, &other_cores)
            .expect("refused")
            .contains("different conditions"));
        let other_seeds = set_of(&[run_file("gt_train", 1, 2), run_file("gt_train", 3, 2)]);
        assert!(refusal(&a, &other_seeds)
            .expect("refused")
            .contains("different seeds"));
        let other_workload = set_of(&[run_file("serve_flood", 1, 2)]);
        assert!(refusal(&a, &other_workload)
            .expect("refused")
            .contains("different workloads"));
        let mut longer = run_file("gt_train", 2, 2);
        longer.conditions.seconds = 30;
        let other_length = set_of(&[run_file("gt_train", 1, 2), longer]);
        assert!(refusal(&a, &other_length).is_some());
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let bounds = parse_bounds(include_str!("../../BENCHMARK.json")).expect("parses");
        assert_eq!(bounds.len(), crate::report::END_TO_END.len());
        let setup = bounds
            .iter()
            .find(|b| b.name == "setup_s")
            .expect("setup_s");
        assert!(setup.lower_is_better);
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
        assert!(
            !bounds
                .iter()
                .find(|b| b.name == "precision")
                .expect("precision")
                .lower_is_better
        );
    }

    #[test]
    fn a_result_file_round_trips_through_the_parser() {
        use crate::report::{Measured, RunResult};
        use crate::verdicts::Reference;
        use crate::workload::{Plan, Workload};
        let measured = Measured {
            setup_s: vec![0.5],
            wall_s: vec![2.0],
            cpu_s: vec![3.0],
            hour_close_ms: vec![10.0],
            hours_attempted: 1,
            verdicts_per_pass: 100,
            attempted: 100,
            failed: 0,
            quality: Default::default(),
        };
        let result = RunResult::new(
            measured,
            None,
            Vec::new(),
            Vec::new(),
            &Reference::default(),
        );
        let plan = Plan::new(Workload::GtTrain, 7, 15, false, false);
        let text = result.to_file_json(&plan, 15, false, Path::new("."));
        let run = parse_run_file(&text)
            .expect("parses")
            .expect("an end-to-end file");
        assert_eq!((run.workload.as_str(), run.seed), ("gt_train", 7));
        assert_eq!(run.conditions.seconds, 15);
        assert_eq!(run.metrics["wall_s"], 2.0);
        assert_eq!(run.metrics.len(), crate::report::END_TO_END.len());
        // A traced run's file is skipped, not mistaken for a result.
        let traced = result.to_file_json(&plan, 15, true, Path::new("."));
        assert_eq!(parse_run_file(&traced), Ok(None));
    }
}
