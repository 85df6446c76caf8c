//! Self-tests of the benchmark worker: its deterministic outputs repeat
//! across fresh processes, and its output checks are not vacuous.
//!
//! Each test runs whole workloads; run them with
//! `cargo test --release --manifest-path pipebench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

/// Runs one worker process and parses its flat JSON line into
/// key -> raw value text.
fn worker(args: &[&str]) -> BTreeMap<String, String> {
    let out = Command::new(env!("CARGO_BIN_EXE_pipebench"))
        .args(args)
        .args(["--jobs", "2"])
        .output()
        .expect("worker runs");
    assert!(out.status.success(), "worker {args:?} failed: {out:?}");
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = text.lines().last().expect("one JSON line");
    line.trim_start_matches('{')
        .trim_end_matches('}')
        .split(", ")
        .map(|field| {
            let (k, v) = field.split_once(": ").expect("key: value");
            (k.trim_matches('"').to_string(), v.to_string())
        })
        .collect()
}

/// The fields that are measured rather than computed: times and memory.
fn measured(key: &str) -> bool {
    key.ends_with("_s") || key.ends_with("_ms") || key == "peak_rss_mb"
}

fn deterministic(fields: BTreeMap<String, String>) -> BTreeMap<String, String> {
    fields.into_iter().filter(|(k, _)| !measured(k)).collect()
}

fn assert_repeats(args: &[&str], expect: &[&str]) {
    let a = deterministic(worker(args));
    let b = deterministic(worker(args));
    for key in expect {
        assert!(
            a.contains_key(*key),
            "{args:?} does not report {key}: {a:?}"
        );
    }
    assert_eq!(a, b, "{args:?} differs between two processes");
    assert_eq!(a["failed"], "0", "{args:?} failed: {a:?}");
}

#[test]
fn table2_outputs_repeat_across_processes() {
    assert_repeats(
        &["timed", "table2-kernels"],
        &[
            "cycle_cut_pct.postpass",
            "cycle_cut_pct.postpass-cg",
            "cycle_cut_pct.integrated",
            "mem_cycle_cut_pct.postpass",
            "mem_cycle_cut_pct.postpass-cg",
            "mem_cycle_cut_pct.integrated",
            "attempted",
        ],
    );
}

#[test]
fn sweep_outputs_repeat_across_processes() {
    assert_repeats(
        &["timed", "ccm-sweep"],
        &[
            "cycle_cut_pct.postpass-cg",
            "mem_cycle_cut_pct.postpass-cg",
            "attempted",
        ],
    );
}

#[test]
fn traced_counts_repeat_across_processes() {
    assert_repeats(
        &["traced", "fuzz-oracle", "--seed", "7"],
        &[
            "regalloc.spilled",
            "sim.instrs",
            "opt.ir_instrs",
            "ccm.promoted",
            "attempted",
        ],
    );
}

/// Runs `workload` with one kernel's reference checksum corrupted and
/// checks that exactly `expect_failed` configurations fail.
fn assert_wrong_reference_fails(workload: &str, expect_failed: &str) {
    let honest = worker(&["timed", workload]);
    let wrong = worker(&["timed", workload, "--wrong-reference"]);
    assert_eq!(honest["failed"], "0");
    assert_eq!(wrong["attempted"], honest["attempted"]);
    assert_eq!(wrong["failed"], expect_failed, "{wrong:?}");
}

#[test]
fn wrong_reference_checksum_counts_as_failed() {
    // One kernel's reference is off, so all four of its variants fail.
    assert_wrong_reference_fails("table2-kernels", "4");
}

#[test]
fn wrong_reference_checksum_counts_as_failed_on_sweep() {
    // One kernel's reference is off, so it fails at all seven sizes.
    assert_wrong_reference_fails("ccm-sweep", "7");
}
