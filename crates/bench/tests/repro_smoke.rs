//! Smoke tests: every `repro` subcommand runs and prints its header.

use std::process::Command;

fn run(arg: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg(arg)
        .output()
        .expect("repro binary runs");
    assert!(
        output.status.success(),
        "repro {arg} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}

#[test]
fn fast_subcommands_print_their_sections() {
    for (arg, expected) in [
        ("fig1", "iBeacon packet structure"),
        ("fig3", "application behaviour"),
        ("sampling", "Android vs iOS samples"),
        ("calibration", "TX-power field calibration"),
    ] {
        let out = run(arg);
        assert!(
            out.contains(expected),
            "repro {arg} output missing {expected:?}:\n{out}"
        );
    }
}

#[test]
fn fig9_reports_both_headline_accuracies() {
    let out = run("fig9");
    assert!(out.contains("svm (scene analysis, rbf):"));
    assert!(out.contains("proximity baseline:"));
    assert!(out.contains("confusion matrix"));
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fig99")
        .output()
        .expect("repro binary runs");
    assert!(!output.status.success());
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("usage:"), "stderr: {err}");
}

#[test]
fn a_second_argument_fails_with_usage() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig1", "out"])
        .output()
        .expect("repro binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(
        output.stdout.is_empty(),
        "nothing runs before the usage check"
    );
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("usage:"), "stderr: {err}");
}
