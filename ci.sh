#!/usr/bin/env bash
# Local CI: formatting, lints, then the tier-1 build-and-test gate.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, rustdoc warnings are errors)"
# Broken intra-doc links fail the build, so a renamed or deleted item
# cannot leave a dangling [`link`] behind in the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== tier-1: cargo build --release"
cargo build --release

echo "== benchmark worker: cargo build --release --manifest-path pipebench/Cargo.toml"
# pipebench/ is its own cargo workspace, so the steps above never build
# it, yet it calls harness, cache, ccm, fuzz, regalloc and checker
# functions by name: an API change there must fail CI, not the next
# benchmark run.
cargo build --release --manifest-path pipebench/Cargo.toml

echo "== tier-1: cargo test -q"
cargo test -q

echo "== release smoke: repro --table1 --check --jobs 2"
# Exercises the parallel engine end to end in release mode (the unit
# tests above run debug-mode): a table over the memoized build cache,
# the full 616-config checker sweep through par_map, and the strict
# argument parser, all under a small worker count.
cargo run --release -q -p harness --bin repro -- --table1 --check --jobs 2 > /dev/null

echo "== fuzz smoke: repro --fuzz 64 --seed 1 --jobs 2"
# Fixed-seed differential fuzzing campaign: every generated module must
# produce bit-identical checksums under all allocation variants, pass
# the post-allocation checker, and never run slower than baseline. The
# fixed seed keeps CI deterministic; exit 1 means a minimized
# reproducer was printed — file it under tests/corpus/.
cargo run --release -q -p harness --bin repro -- --fuzz 64 --seed 1 --jobs 2

echo "== inject smoke: repro --inject-sweep --jobs 2"
# Fault-injection sweep in release mode: arm each registered fault
# point in turn and assert the pipeline survives with the expected
# structured failure (degradation with identical output, contained
# panics, detected-and-evicted cache corruption, ...). Exit 1 means a
# failure path regressed.
cargo run --release -q -p harness --bin repro -- --inject-sweep --jobs 2

echo "== workspace tests (release): cargo test --workspace --release -q"
# Every crate's unit tests plus every integration test, release-built.
# The root-package step above runs only the root tests. This step also
# covers the release runs of tests/fault_injection.rs (including the
# fixed-seed exec containment test, byte-identical at jobs=1, 4 and 9)
# and tests/corpus_replay.rs.
cargo test --workspace --release -q

echo "CI green."
