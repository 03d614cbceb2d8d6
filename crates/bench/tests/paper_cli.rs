//! The `paper` driver rejects bad input with exit 2 and its usage line
//! before any table runs.

use std::process::Command;

/// Runs `paper` with `args` after a valid `--out` and table, and requires
/// a usage error naming `message` that wrote nothing.
fn rejects(args: &[&str], message: &str) {
    let out = std::env::temp_dir().join(format!("ph-bench-paper-cli-{}", args.join("_")));
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_paper"))
        .arg("--out")
        .arg(&out)
        .arg("table2_selection")
        .args(args)
        .output()
        .expect("run paper");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: paper"), "{args:?}: {stderr}");
    assert!(!out.exists(), "{args:?} wrote {}", out.display());
}

#[test]
fn unknown_option_is_rejected() {
    rejects(&["--csv", "fig2.csv"], "unknown option '--csv'");
}

#[test]
fn unknown_scale_is_rejected() {
    rejects(&["--scale", "defualt"], "unknown scale 'defualt'");
}

#[test]
fn unknown_table_is_rejected() {
    rejects(&["table8_missing"], "unknown table 'table8_missing'");
}

#[test]
fn bad_numbers_are_rejected() {
    rejects(
        &["--hours", "soon"],
        "--hours expects an integer, got 'soon'",
    );
    rejects(
        &["--gt-hours", "-1"],
        "--gt-hours expects an integer, got '-1'",
    );
    rejects(&["--seed", "4.2"], "--seed expects an integer, got '4.2'");
}

#[test]
fn missing_value_is_rejected() {
    rejects(&["--seed"], "--seed expects a value");
}
