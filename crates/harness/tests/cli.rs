//! CLI contract tests for the harness binaries, which read flags through
//! one `harness::cli` reader: misspelled or malformed flags must be
//! rejected with a usage message and exit 2, never silently ignored (the
//! old `repro` exited 0 having done nothing on `--tabel2`), and `--help`
//! prints the usage on stdout and exits 0 in every binary.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"));
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const REPRO: &str = env!("CARGO_BIN_EXE_repro");
const CCMC: &str = env!("CARGO_BIN_EXE_ccmc");
const PROBE: &str = env!("CARGO_BIN_EXE_probe");

#[test]
fn repro_rejects_bad_arguments() {
    for (args, want) in [
        (&["--tabel2"][..], "unknown argument `--tabel2`"),
        (&["--seed", "0"][..], "--seed only applies to --fuzz"),
        (&["--seed", "5"][..], "--seed only applies to --fuzz"),
    ] {
        let (code, _, err) = run(REPRO, args);
        assert_eq!(code, 2, "{args:?} must exit 2");
        assert!(err.contains(want), "{args:?} stderr: {err}");
        assert!(err.contains("usage:"), "{args:?} stderr: {err}");
    }
}

#[test]
fn repro_with_no_args_prints_usage_and_fails() {
    let (code, out, err) = run(REPRO, &[]);
    assert_eq!(code, 2);
    assert!(out.is_empty());
    assert!(err.contains("usage:"));
}

#[test]
fn bad_jobs_values_are_rejected() {
    for bin in [REPRO, PROBE] {
        for args in [
            &["--jobs", "0"][..],
            &["--jobs", "many"][..],
            &["--jobs"][..],
            &["--jobs=2"][..],
        ] {
            let (code, _, err) = run(bin, args);
            assert_eq!(code, 2, "{bin} {args:?} must exit 2");
            assert!(err.contains("--jobs"), "{bin} {args:?} stderr: {err}");
        }
    }
}

#[test]
fn help_prints_usage_on_stdout_and_exits_zero() {
    for (bin, takes_jobs) in [(REPRO, true), (PROBE, true), (CCMC, false)] {
        let (code, out, err) = run(bin, &["--help"]);
        assert_eq!(code, 0, "{bin}");
        assert!(out.starts_with("usage:"), "{bin} stdout: {out}");
        assert!(err.is_empty(), "{bin} stderr: {err}");
        assert_eq!(out.contains("--jobs"), takes_jobs, "{bin} stdout: {out}");
    }
}

#[test]
fn repro_stage_lines_report_the_jobs_value() {
    let (code, _, err) = run(REPRO, &["--fuzz", "1", "--jobs", "3"]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(
        err.lines()
            .any(|l| l.starts_with("repro: fuzz: ") && l.ends_with("(jobs=3)")),
        "stderr: {err}"
    );
}

#[test]
fn probe_rejects_unknown_flags() {
    let (code, _, err) = run(PROBE, &["--bogus"]);
    assert_eq!(code, 2);
    assert!(err.contains("unknown argument"), "stderr: {err}");
}

#[test]
fn ccmc_rejects_unknown_flags_and_bad_operands() {
    let input = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets/dotprod.iloc");
    for (args, want) in [
        (&["--bogus"][..], "unknown argument"),
        (&["--jobs", "0"][..], "unknown argument `--jobs`"),
        (
            &[input, "--unroll", "0", "--run"][..],
            "--unroll must be at least 2",
        ),
        (
            &[input, "--unroll", "1", "--run"][..],
            "--unroll must be at least 2",
        ),
    ] {
        let (code, _, err) = run(CCMC, args);
        assert_eq!(code, 2, "{args:?} must exit 2; stderr: {err}");
        assert!(err.contains(want), "{args:?} stderr: {err}");
    }
}
