//! The command's exit status follows its oracles: a clean `shard` run
//! exits 0 with `correct: true`, and the same run against a tampered
//! expected document exits nonzero with every job counted as failed.
//!
//! `shard` runs entirely in process, so these tests need no `btrd`. They
//! are slow in a debug build; run them with `cargo test --release`.

use std::process::Command;

fn run_shard(tamper: bool) -> (Option<i32>, String) {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(if tamper {
        "oracle-gate-tampered"
    } else {
        "oracle-gate-clean"
    });
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_e2ebench"));
    cmd.args(["--workload", "shard", "--seed", "11", "--seconds", "0.5"])
        .args(["--trace", "0", "--out"])
        .arg(&out_dir);
    if tamper {
        cmd.arg("--tamper-oracle");
    }
    let output = cmd.output().expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (output.status.code(), last)
}

fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let start = line.find(&format!("\"{key}\":")).expect("key present") + key.len() + 3;
    let rest = &line[start..];
    &rest[..rest.find([',', '}']).expect("value ends")]
}

#[test]
fn a_clean_run_verifies_and_exits_zero() {
    let (code, last) = run_shard(false);
    assert_eq!(code, Some(0), "{last}");
    assert_eq!(field(&last, "correct"), "true");
    assert_eq!(field(&last, "failed"), "0");
}

#[test]
fn a_tampered_expected_document_fails_every_job_and_exits_nonzero() {
    let (code, last) = run_shard(true);
    assert_eq!(code, Some(1), "{last}");
    assert_eq!(field(&last, "correct"), "false");
    assert_eq!(field(&last, "failed"), field(&last, "attempted"));
}
