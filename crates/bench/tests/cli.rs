//! Argument and failure handling of the `table1`, `soc2rsn` and
//! `rsn-lint` binaries: every outcome is a documented exit code, never
//! a panic.

use std::process::{Command, Output};

fn table1(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(args)
        .output()
        .expect("table1 runs")
}

#[test]
fn table1_bad_arguments_print_usage_and_exit_2() {
    for args in [&["--nosuch"][..], &["--json"], &["--bench", "nosuch"]] {
        let out = table1(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: table1"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
    }
}

#[test]
fn table1_help_prints_usage_and_exits_0() {
    let out = table1(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: table1"));
}

fn soc2rsn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_soc2rsn"))
        .args(args)
        .output()
        .expect("soc2rsn runs")
}

#[test]
fn soc2rsn_bad_arguments_print_usage_and_exit_2() {
    for args in [
        &[][..],
        &["--ft"],
        &["u226", "--nosuch"],
        &["u226", "--out"],
        &["u226", "--alpha", "x"],
        &["u226", "--solver", "nosuch"],
    ] {
        let out = soc2rsn(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: soc2rsn"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
    }
}

#[test]
fn soc2rsn_help_prints_usage_and_exits_0() {
    let out = soc2rsn(&["--help"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("usage: soc2rsn"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing ran");
}

#[test]
fn rsn_lint_reports_injected_sat_errors_as_incomplete() {
    // Every SAT query is cancelled: the SAT-backed families of each
    // example network are unproven, so the run exits 1 (not a panic).
    let out = Command::new(env!("CARGO_BIN_EXE_rsn-lint"))
        .args(["examples", "--json"])
        .env("RSN_FAIL", "sat.solve=err")
        .output()
        .expect("rsn-lint runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stdout}\n{stderr}");
    assert_eq!(stdout.matches("\"incomplete\"").count(), 3, "{stdout}");
    assert!(stdout.contains("\"selects\""), "{stdout}");
}
