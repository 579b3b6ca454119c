//! `inflessctl` reports unwritable output paths as `error: …` with a
//! non-zero exit that names the path — never as a scenario read error
//! and never as a mid-run panic.

use std::path::PathBuf;
use std::process::{Command, Output};

fn missing_dir(name: &str) -> PathBuf {
    std::env::temp_dir()
        .join(format!("infless-cli-{name}-{}", std::process::id()))
        .join("no-such-dir")
}

fn inflessctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_inflessctl"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(args)
        .output()
        .expect("inflessctl starts")
}

fn assert_output_error(out: &Output, path: &std::path::Path) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.starts_with(&format!("error: failed to write {}", path.display())),
        "unexpected stderr: {stderr}"
    );
    assert!(!stderr.contains("scenario"), "mislabelled: {stderr}");
}

#[test]
fn unwritable_decisions_out_names_the_output_path() {
    let path = missing_dir("decisions").join("d.jsonl");
    let out = inflessctl(&[
        "scenarios/swap_sweep.json",
        "--decisions-out",
        path.to_str().unwrap(),
    ]);
    assert_output_error(&out, &path);
}

#[test]
fn unwritable_trace_out_names_the_output_path() {
    let path = missing_dir("trace").join("t.jsonl");
    let out = inflessctl(&["scenarios/osvt.json", "--trace-out", path.to_str().unwrap()]);
    assert_output_error(&out, &path);
}

#[test]
fn unwritable_flight_out_is_an_error_not_a_panic() {
    let path = missing_dir("flight").join("f.jsonl");
    let out = inflessctl(&[
        "scenarios/swap_sweep.json",
        "--flight-out",
        path.to_str().unwrap(),
    ]);
    assert_output_error(&out, &path);
}
