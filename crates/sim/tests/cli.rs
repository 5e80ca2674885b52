//! `garibaldi-cli` usage errors: every malformed invocation exits 2 with a
//! one-line `error:` on stderr, before any simulation starts.

use std::process::Command;

/// Runs the CLI with `args`, returning its exit code and stderr.
fn cli(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_garibaldi-cli"))
        .args(args)
        .output()
        .expect("garibaldi-cli runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn zero_epoch_is_a_usage_error_naming_the_flag() {
    let (code, stderr) = cli(&["--workers", "2", "--epoch", "0"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.starts_with("error:") && stderr.contains("--epoch"), "stderr: {stderr}");
}

#[test]
fn removed_shards_flag_is_an_unknown_flag() {
    let (code, stderr) = cli(&["--shards", "4"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.starts_with("error:") && stderr.contains("unknown flag"), "stderr: {stderr}");
}
