//! Regenerates the paper's tables, figures and ablations from one process.
//!
//! Writes `DIR/<table>.txt` for each named table (every table in
//! [`ph_bench::TABLES`] when none is named), the series CSVs of Figures 2
//! and 6 beside them, and one run report, `DIR/paper.metrics.json`.
//! `--hours`, `--gt-hours` and `--seed` override the scale's values in any
//! order. Bad input exits 2 with the usage line before any table runs.

use std::path::PathBuf;
use std::time::Instant;

use ph_bench::{ExperimentScale, Fixtures, Render, Report, TABLES};

const USAGE: &str = "usage: paper [--scale small|default|paper] [--hours N] [--gt-hours N] \
                     [--seed N] [--out DIR] [TABLE...]";

/// A validated command line.
struct Run {
    scale: ExperimentScale,
    out: PathBuf,
    tables: Vec<(&'static str, Render)>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Run, String> {
    let mut scale = ExperimentScale::small();
    let (mut hours, mut gt_hours, mut seed) = (None, None, None);
    let mut out = PathBuf::from("results");
    let mut tables = Vec::new();
    while let Some(arg) = args.next() {
        let Some(key) = arg.strip_prefix("--") else {
            match TABLES.iter().find(|(name, _)| *name == arg) {
                Some(&table) => tables.push(table),
                None => return Err(format!("unknown table '{arg}'")),
            }
            continue;
        };
        if !["scale", "hours", "gt-hours", "seed", "out"].contains(&key) {
            return Err(format!("unknown option '{arg}'"));
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{arg} expects a value"))?;
        let number = || {
            let bad = format!("{arg} expects an integer, got '{value}'");
            value.parse::<u64>().map(Some).map_err(|_| bad)
        };
        match key {
            "scale" => {
                scale = match value.as_str() {
                    "small" => ExperimentScale::small(),
                    "default" => ExperimentScale::default_scale(),
                    "paper" => ExperimentScale::paper(),
                    _ => return Err(format!("unknown scale '{value}' (small, default or paper)")),
                }
            }
            "hours" => hours = number()?,
            "gt-hours" => gt_hours = number()?,
            "seed" => seed = number()?,
            _ => out = PathBuf::from(value),
        }
    }
    scale.hours = hours.unwrap_or(scale.hours);
    scale.gt_hours = gt_hours.unwrap_or(scale.gt_hours);
    scale.seed = seed.unwrap_or(scale.seed);
    if tables.is_empty() {
        tables = TABLES.to_vec();
    }
    Ok(Run { scale, out, tables })
}

fn main() {
    let run = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        let names: Vec<&str> = TABLES.iter().map(|(name, _)| *name).collect();
        eprintln!("error: {e}\n{USAGE}\ntables: {}", names.join(" "));
        std::process::exit(2);
    });
    if let Err(e) = regenerate(&run) {
        eprintln!("error: cannot write to {}: {e}", run.out.display());
        std::process::exit(1);
    }
}

/// Renders the selected tables over one set of fixtures into `run.out`.
fn regenerate(run: &Run) -> std::io::Result<()> {
    let write = |file: &str, contents: &str| std::fs::write(run.out.join(file), contents);
    std::fs::create_dir_all(&run.out)?;
    let fixtures = Fixtures::new(run.scale.clone());
    for &(name, render) in &run.tables {
        let start = Instant::now();
        let mut report = Report::default();
        render(&fixtures, &mut report).expect("a String takes every write");
        write(&format!("{name}.txt"), &report.text)?;
        for (file, csv) in &report.csvs {
            write(file, csv)?;
        }
        eprintln!("{name}: {:.1} s", start.elapsed().as_secs_f64());
    }
    let metrics = run.out.join("paper.metrics.json");
    ph_telemetry::write_report(&metrics, ph_telemetry::ReportFormat::Json)?;
    eprintln!("stage timings written to {}", metrics.display());
    Ok(())
}
