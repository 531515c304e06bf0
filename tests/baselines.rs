//! The default round-robin policy stays byte-identical to the committed
//! baselines, which predate the scheduling-policy layer. Each test runs
//! the `lotus` binary with the exact arguments of CI's `policy-smoke`
//! job and compares the output byte for byte.

use std::path::{Path, PathBuf};
use std::process::Command;

fn baseline(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("baselines")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn run_lotus(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_lotus"))
        .args(args)
        .output()
        .expect("the lotus binary runs");
    assert!(
        out.status.success(),
        "lotus {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Asserts byte identity, naming the first differing line on failure.
fn assert_identical(actual: &[u8], expected: &[u8], what: &str) {
    if actual == expected {
        return;
    }
    let (a, e) = (
        String::from_utf8_lossy(actual),
        String::from_utf8_lossy(expected),
    );
    let line = a.lines().zip(e.lines()).position(|(x, y)| x != y);
    panic!(
        "{what} drifted from its baseline ({} vs {} bytes); first differing line: {line:?}",
        actual.len(),
        expected.len()
    );
}

#[test]
fn round_robin_tune_json_matches_its_baseline() {
    let json = run_lotus(&[
        "tune",
        "--pipeline",
        "ic",
        "--items",
        "256",
        "--no-cache",
        "--json",
    ]);
    assert_identical(&json, &baseline("TUNE_ic_roundrobin.json"), "tune JSON");
}

#[test]
fn round_robin_trace_log_matches_its_baseline() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("baselines");
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("policy_trace_rr.log");
    let log_arg = log.to_str().unwrap();
    run_lotus(&[
        "trace",
        "--pipeline",
        "ic",
        "--items",
        "256",
        "--log",
        log_arg,
    ]);
    let written = std::fs::read(&log).unwrap();
    assert_identical(&written, &baseline("TRACE_ic_roundrobin.log"), "trace log");
}
