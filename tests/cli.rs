//! Command-line parsing, driven through the `lotus` binary.

use std::path::PathBuf;
use std::process::Command;

/// A path-valued flag given without a value used to write a file named
/// `true`; it must be rejected before any work starts.
#[test]
fn path_flags_without_a_value_are_rejected() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_path_flags");
    std::fs::create_dir_all(&dir).unwrap();
    let cases: [(&[&str], &str); 10] = [
        (
            &["run", "--backend", "sim", "--items", "32", "--log"],
            "log",
        ),
        (
            &["run", "--items", "32", "--profile", "--attribution"],
            "attribution",
        ),
        (&["run", "--backend", "sim", "--storage-out"], "storage-out"),
        (&["trace", "--items", "32", "--out"], "out"),
        (&["bench", "--check-against"], "check-against"),
        (
            &["top", "--items", "32", "--prom", "--csv", "m.csv"],
            "prom",
        ),
        (&["top", "--json"], "json"),
        (&["tune", "--out"], "out"),
        (&["map", "--out"], "out"),
        (&["check", "--trace"], "trace"),
    ];
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_lotus"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("the lotus binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "lotus {args:?} must fail");
        assert!(
            stderr.contains(&format!("--{flag} needs a FILE")),
            "lotus {args:?}: {stderr}"
        );
    }
    assert!(
        !dir.join("true").exists(),
        "no file named `true` is written"
    );
    assert!(
        !dir.join("m.csv").exists(),
        "the error comes before any output"
    );
}

fn lotus(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lotus"))
        .args(args)
        .output()
        .expect("the lotus binary runs")
}

/// Bad argv and values the loader would panic on, or silently run a
/// configuration nobody asked for, exit 1 with an `error:` line before
/// any work starts.
#[test]
fn bad_argv_and_values_are_errors_not_panics() {
    let cases: &[(&[&str], &str)] = &[
        (&["run", "--polcy", "ws"], "did you mean --policy?"),
        (
            &["run", "--items", "32", "--items", "64"],
            "--items is given more than once",
        ),
        (
            &["run", "--backend", "sim", "--layout", "packed"],
            "--layout only makes sense together with --storage",
        ),
        (
            &["run", "--error-op", "Loader"],
            "--error-op only makes sense together with --error-rate",
        ),
        (
            &["bench", "--tolerance", "0.1"],
            "--tolerance only makes sense together with --check-against",
        ),
        (&["tune", "--json", "extra"], "unexpected argument 'extra'"),
        (&["audit", "--replay"], "--replay needs a"),
        (&["run", "--items", "0"], "--items 0 is less than one batch"),
        (
            &["trace", "--items", "0"],
            "--items 0 is less than one batch",
        ),
        (&["top", "--items", "0"], "--items 0 is less than one batch"),
        (
            &["tune", "--items", "0"],
            "--items 0 is less than one batch",
        ),
        (
            &["bench", "--items", "0"],
            "--items 0 is less than one batch",
        ),
        (
            &["check", "--items", "0"],
            "--items 0 is less than one batch",
        ),
        (&["audit", "--items", "0"], "--items must be at least 1"),
        (
            &["audit", "--items", "3"],
            "--items 3 is less than one batch of 4",
        ),
        (&["trace", "--batch", "0"], "batch_size must be at least 1"),
        (&["check", "--batch", "0"], "batch_size must be at least 1"),
        (
            &["run", "--backend", "sim", "--error-rate", "2"],
            "--error-rate must be a probability",
        ),
        (
            &["run", "--backend", "sim", "--error-rate", "NaN"],
            "--error-rate must be a probability",
        ),
        (
            &["run", "--backend", "sim", "--slow-rate", "1.5"],
            "--slow-rate must be a probability",
        ),
        (
            &[
                "run",
                "--backend",
                "sim",
                "--slow-rate",
                "0.1",
                "--slow-factor",
                "-3",
            ],
            "--slow-factor must be at least 1",
        ),
        (
            &["audit", "--model", "--workers", "0"],
            "num_workers must be at least 1",
        ),
        (
            &["audit", "--model", "--cap", "0"],
            "data_queue_cap must be at least 1",
        ),
        (
            &["run", "--workers", "2", "--kill-worker", "9"],
            "--kill-worker 9 names no worker",
        ),
        (
            &[
                "run",
                "--kill-worker",
                "0",
                "--kill-at-ms",
                "18446744073709551615",
            ],
            "--kill-at-ms 18446744073709551615 is out of range",
        ),
        (
            &["tune", "--workers", "1,2", "--kill-worker", "2"],
            "--kill-worker 2 names no worker",
        ),
        (
            &[
                "run",
                "--backend",
                "native",
                "--pipeline",
                "ic",
                "--items",
                "64",
            ],
            "--items 64 is less than one batch of 128",
        ),
        (
            &["run", "--storage", "lukewarm", "--backend", "sim"],
            "expected cold|warm",
        ),
    ];
    for (args, fragment) in cases {
        let out = lotus(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "lotus {args:?}: {stderr}");
        assert!(stderr.contains(fragment), "lotus {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "lotus {args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "lotus {args:?} did work before failing"
        );
    }
}

/// `--help` prints the command's section of the flag table and runs
/// nothing.
#[test]
fn command_help_prints_the_synopsis_and_runs_nothing() {
    let out = lotus(&["run", "--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(
        stdout.contains("lotus run") && stdout.contains("[--policy POLICY]"),
        "{stdout}"
    );
    assert!(!stdout.contains("batches /"), "{stdout}");
}

/// `std::env::args` would panic on an argument that is not UTF-8.
#[cfg(unix)]
#[test]
fn non_utf8_argv_is_an_error_not_a_panic() {
    use std::ffi::OsStr;
    use std::os::unix::ffi::OsStrExt;

    let out = Command::new(env!("CARGO_BIN_EXE_lotus"))
        .args([OsStr::new("run"), OsStr::from_bytes(b"--items\xff")])
        .output()
        .expect("the lotus binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("is not UTF-8"), "{stderr}");
}
