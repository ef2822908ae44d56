#!/usr/bin/env bash
# Offline CI: formatting, lints, and the tier-1 gate.
# No network access is required — all dependencies are vendored.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check, bash -n pairs.sh"
cargo fmt --check
# pairs.sh (alternating parent / change benchmark pairs for results/runs/)
# takes an hour of idle host, so CI only checks that it parses.
bash -n pairs.sh

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tier-1: cargo build --release && cargo test -q"
# `default-members` (root Cargo.toml) makes these cover every workspace
# member but `hermes-bench`: the root package's integration suites and
# doctests, and every crate's and vendored shim's unit tests, in a debug
# build. `hermes-bench` waits for solver budgets counted in work, not wall
# time: its sweep test does not finish its solves within their budgets in
# a debug build.
cargo build --release
cargo test -q

echo "==> deploy-request benchmark self-test (bench/check.sh)"
# bench/ is a workspace of its own, so nothing above compiles it: a `pub`
# item it imports could be removed here and go unnoticed until the
# benchmark run. The self-test builds it against this checkout, runs every
# workload twice on a fixed seed, and checks the per-layer metric names.
# Its two timed sets must also agree within the benchmark's bounds, which a
# slow phase of a shared host trips with every count exact; what this stage
# guards (the build, the counts, the names) fails every attempt alike, so a
# failure is retried twice.
bench/check.sh || bench/check.sh || bench/check.sh

echo "==> cargo test -q --release --workspace --no-fail-fast"
# Every crate's unit tests (`hermes-bench`'s among them), every integration
# suite and every doctest, in release mode: the solver, hot-path, merge, migration, target, durability
# and state-access equivalence suites, the vendored shims' own tests, and
# the journal, transactions and runtime-paths goldens (tests/event_schema.rs:
# journal_golden.txt, transactions_golden.txt, runtime_paths_golden.txt —
# every rollout, heal, gate, migration, undo, restore and recovery path on
# fixed seeds; `REGEN_GOLDEN=1 cargo test --release --test event_schema`
# rewrites them), and the serialization golden (tests/serialization_golden.rs:
# serialization_golden.txt, the compact and pretty bytes of every shape the
# JSON writer emits; `REGEN_GOLDEN=1 cargo test --release --test
# serialization_golden` rewrites it; it runs in tier-1 too), and the CLI
# golden (tests/cli_golden.rs: cli_golden.txt, every command's output, error
# and exit code, in process; its entries also hold the `--threads 1` vs `4`
# deploy byte-diff, the `chaos --threads 4` smoke, and the audit and
# state-report goldens; `REGEN_GOLDEN=1 cargo test --test cli_golden`
# rewrites cli_golden.txt and stateaccess_golden.json; tier-1 too).
# The paper's evaluation and its five extension experiments
# (tests/reproduce.rs: every artifact of the `reproduce` bin recomputed and
# held to results/*.md, host-dependent `*` cells aside; the sweeps and
# `targets` spend seconds of solver budget per point, so they run only here:
# 67 s of this stage on a 2-thread Xeon, the whole `reproduce` run 2 min 11 s).
# The one place the whole greedy-side scale golden runs
# (tests/greedy_scale.rs: 1 119 lines, ≈5 s here, minutes in a debug build,
# so tier-1 above checks only its head; `REGEN_GOLDEN=1 cargo test
# --release --test greedy_scale` rewrites it).
# `--no-fail-fast`: one failing suite (a golden that drifted) must not hide
# what every suite after it would report; the stage still fails.
cargo test -q --release --workspace --no-fail-fast

echo "CI OK"
