//! The repo benchmark driver: four sniffer workloads measured end to
//! end, and layer by layer from outside. See README.md.
//!
//! ```text
//! ph-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! ph-benchmark check [--workload NAME] [--seed N] [--seconds S] [--smoke]
//! ph-benchmark compare DIR_A DIR_B
//! ```

mod batch;
mod compare;
mod report;
mod serve;
mod span;
mod stats;
mod sys;
mod verdicts;
mod workload;

use std::path::{Path, PathBuf};

use batch::Mode;
use report::RunResult;
use workload::{Plan, Workload};

/// The whole binary runs under the counting allocator, as the
/// `pseudo-honeypot` binary does (one relaxed atomic load per allocation
/// while profiling is off), so allocation cost is the program's.
#[global_allocator]
static ALLOC: ph_prof::CountingAllocator = ph_prof::CountingAllocator::new();

/// `--seconds` when not given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 15;

const USAGE: &str = "usage: ph-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
       ph-benchmark check [--workload NAME] [--seed N] [--seconds S] [--smoke]
       ph-benchmark compare DIR_A DIR_B
workloads: gt_train, sniff_durable, serve_paced, serve_flood";

fn usage_error(why: &str) -> ! {
    eprintln!("error: {why}\n{USAGE}");
    std::process::exit(2);
}

/// Parsed command line of the run and check modes.
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Options {
    let mut options = Options {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{arg} expects a value")))
        };
        let number = |text: &String| {
            text.parse::<u64>().unwrap_or_else(|_| {
                usage_error(&format!("{arg} expects a whole number, got '{text}'"))
            })
        };
        match arg.as_str() {
            "--workload" => {
                let name = value();
                options.workload = Some(
                    Workload::parse(name)
                        .unwrap_or_else(|| usage_error(&format!("unknown workload '{name}'"))),
                );
            }
            "--seed" => options.seed = number(value()),
            "--seconds" => options.seconds = number(value()).max(1),
            "--trace" => {
                options.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    other => usage_error(&format!("--trace expects 0 or 1, got '{other}'")),
                }
            }
            "--smoke" => options.smoke = true,
            "--out" => options.out = Some(PathBuf::from(value())),
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }
    options
}

/// Runs one workload in a scratch directory of its own under `out/`,
/// which is removed again: what a run leaves behind is its result files.
fn run_workload(plan: &Plan, seconds: u64, mode: Mode) -> RunResult {
    let scratch = Path::new("out").join("scratch").join(plan.workload.name());
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("cannot create the scratch directory");
    let result = match plan.workload {
        Workload::GtTrain | Workload::SniffDurable => batch::run(plan, seconds, mode, &scratch),
        Workload::ServePaced | Workload::ServeFlood => serve::run(plan, seconds, mode, &scratch),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn write_file(path: &Path, content: &str) {
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

fn run(options: &Options, out: &Path) -> i32 {
    let workload = options
        .workload
        .unwrap_or_else(|| usage_error("--workload is required"));
    let plan = Plan::new(
        workload,
        options.seed,
        options.seconds,
        options.trace,
        options.smoke,
    );
    let mode = if options.trace {
        Mode::Traced
    } else {
        Mode::Timed
    };
    let result = run_workload(&plan, options.seconds, mode);

    let name = workload.name();
    let suffix = if options.trace { ".ledger" } else { "" };
    let file = out.join(format!("{name}-{}{suffix}.json", options.seed));
    let scratch = Path::new("out");
    write_file(
        &file,
        &result.to_file_json(&plan, options.seconds, options.trace, scratch),
    );
    if options.trace {
        write_file(
            &out.join(format!("trace-{name}.json")),
            &report::spans_json(&result.spans),
        );
    }

    println!(
        "{name}  seed {}  {} s  threads {} of {} cores  reference {} verdicts, digest {:08x}",
        options.seed,
        options.seconds,
        plan.threads,
        sys::nproc(),
        result.reference_verdicts,
        result.reference_digest
    );
    print!("{}", result.table());
    for problem in &result.problems {
        println!("PROBLEM: {problem}");
    }
    println!("result file: {}", file.display());
    println!("{}", result.result_line());
    i32::from(!result.correct)
}

fn check(options: &Options) -> i32 {
    let workloads = options.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut failed = 0;
    for workload in workloads {
        let plan = Plan::new(
            workload,
            options.seed,
            options.seconds,
            false,
            options.smoke,
        );
        let result = run_workload(&plan, options.seconds, Mode::Check);
        println!(
            "check {:<14} seed {}  {} verdicts  digest {:08x}  {}",
            workload.name(),
            options.seed,
            result.reference_verdicts,
            result.reference_digest,
            if result.correct { "ok" } else { "FAILED" }
        );
        for problem in &result.problems {
            println!("  PROBLEM: {problem}");
        }
        failed += i32::from(!result.correct);
    }
    i32::from(failed > 0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Paths on the command line are the caller's; everything else is
    // relative to the benchmark's own directory, which also keeps the
    // daemon's Unix-socket path short however deep the checkout lies.
    let caller_dir = std::env::current_dir().expect("no current directory");
    let home = Path::new(env!("CARGO_MANIFEST_DIR"));
    std::env::set_current_dir(home).expect("the benchmark's directory is gone");
    ph_telemetry::set_quiet();

    let code = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(
                &caller_dir.join(a),
                &caller_dir.join(b),
                &home.join("..").join("BENCHMARK.json"),
            ),
            _ => usage_error("compare expects two result directories"),
        },
        Some("check") => check(&parse_options(&args[1..])),
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            0
        }
        _ => {
            let options = parse_options(&args);
            let out = options
                .out
                .as_ref()
                .map_or(home.join("out"), |dir| caller_dir.join(dir));
            if let Err(e) = std::fs::create_dir_all(&out) {
                eprintln!("error: cannot create {}: {e}", out.display());
                std::process::exit(1);
            }
            run(&options, &out)
        }
    };
    std::process::exit(code);
}
