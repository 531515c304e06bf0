//! Command-line parsing, driven through the `lotus` binary.

use std::path::PathBuf;
use std::process::Command;

/// A path-valued flag given without a value used to write a file named
/// `true`; it must be rejected before any work starts.
#[test]
fn path_flags_without_a_value_are_rejected() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_path_flags");
    std::fs::create_dir_all(&dir).unwrap();
    let cases: [(&[&str], &str); 6] = [
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
