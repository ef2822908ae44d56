#!/usr/bin/env bash
# Offline CI: formatting, lints, and the tier-1 gate.
# No network access is required — all dependencies are vendored.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tier-1: cargo build --release && cargo test -q"
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

echo "==> solver property suite"
cargo test -q --release --test solver_portfolio

echo "==> hot-path equivalence suite"
cargo test -q --release --test eval_equivalence

echo "==> merge equivalence suite (accumulator vs the pairwise reference, all three analysis modes)"
cargo test -q --release -p hermes-tdg merge_equivalence

echo "==> migration property suite + mid-migration chaos soak"
cargo test -q --release --test migration --test migration_chaos

echo "==> target-model equivalence suite (default byte-identity + mixed topology + serde golden)"
cargo test -q --release --test target_equivalence

echo "==> durability suites: journal fuzz, event-schema round trip, recovery soak"
cargo test -q --release --test journal_fuzz --test event_schema --test recovery_chaos

echo "==> state-access soundness suite (fast-pass/oracle equivalence, relaxed-plan verification)"
cargo test -q --release --test stateaccess_soundness

echo "==> hot-path evaluator + parallel-search smoke (double run, byte-diff)"
# The smoke probe solves the library workload at 1/2/4/8 workers and
# prints only deterministic fields; two runs must be byte-identical.
hot_a="$(cargo run -q --release -p hermes-bench --bin hotpath -- --smoke)"
hot_b="$(cargo run -q --release -p hermes-bench --bin hotpath -- --smoke)"
if [[ "$hot_a" != "$hot_b" ]]; then
  echo "hotpath smoke is nondeterministic:" >&2
  diff <(printf '%s\n' "$hot_a") <(printf '%s\n' "$hot_b") >&2 || true
  exit 1
fi
echo "smoke output stable: $hot_a"

echo "==> parallel deploy determinism smoke (--threads 4 vs --threads 1, byte-diff)"
# A 4-worker deploy must emit byte-identical artifacts to a single-worker
# deploy of the same workload — the CLI face of the determinism guarantee.
dep_1="$(cargo run -q --release -p hermes-cli --bin hermes -- \
  deploy tests/fixtures/audit_workload.p4dsl --topology linear:3 \
  --solver exact --threads 1 --json)"
dep_4a="$(cargo run -q --release -p hermes-cli --bin hermes -- \
  deploy tests/fixtures/audit_workload.p4dsl --topology linear:3 \
  --solver exact --threads 4 --json)"
dep_4b="$(cargo run -q --release -p hermes-cli --bin hermes -- \
  deploy tests/fixtures/audit_workload.p4dsl --topology linear:3 \
  --solver exact --threads 4 --json)"
if [[ "$dep_1" != "$dep_4a" || "$dep_4a" != "$dep_4b" ]]; then
  echo "deploy --threads output diverges across worker counts or runs:" >&2
  diff <(printf '%s\n' "$dep_1") <(printf '%s\n' "$dep_4a") >&2 || true
  diff <(printf '%s\n' "$dep_4a") <(printf '%s\n' "$dep_4b") >&2 || true
  exit 1
fi
echo "deploy --threads 4 matches --threads 1 byte-for-byte"

echo "==> chaos rollout smoke under --threads 4 (fixed seed)"
cargo run -q --release -p hermes-cli --bin hermes -- \
  chaos tests/fixtures/audit_workload.p4dsl --topology linear:3 \
  --solver exact --threads 4 --seed 7 > /dev/null
echo "chaos rollout with a 4-worker solver completed"

echo "==> audit-engine smoke (oracle equivalence + certificate fast-path)"
cargo run -q --release -p hermes-bench --bin audit -- --smoke

echo "==> workload audit golden diff (library + fixture, fat-tree k=4)"
# The CLI itself exits nonzero if any error-severity diagnostic fires;
# the diff additionally catches drift in warning/info findings so new
# diagnostics land with a reviewed golden update.
audit_out="$(cargo run -q --release -p hermes-cli --bin hermes -- \
  audit tests/fixtures/audit_workload.p4dsl --library --topology fattree:4 --json)"
if ! diff <(printf '%s\n' "$audit_out") tests/fixtures/audit_golden.json; then
  echo "audit output drifted from tests/fixtures/audit_golden.json" >&2
  echo "re-generate the golden if the new diagnostics are intentional" >&2
  exit 1
fi
echo "audit golden matches"

echo "==> state-access report golden diff (aggregation fixture, linear:3, relaxed mode)"
# Pins the classifier verdicts, the HS5xx diagnostics, the HC310
# certificate, and the relaxed-edge accounting in one artifact.
# REGEN_GOLDEN=1 ./ci.sh rewrites the fixture instead of failing.
state_out="$(cargo run -q --release -p hermes-cli --bin hermes -- \
  audit tests/fixtures/stateaccess_workload.p4dsl \
  --state-report --relax-state --topology linear:3 --json)"
if [[ "${REGEN_GOLDEN:-0}" == "1" ]]; then
  printf '%s\n' "$state_out" > tests/fixtures/stateaccess_golden.json
  echo "state-access golden regenerated"
elif ! diff <(printf '%s\n' "$state_out") tests/fixtures/stateaccess_golden.json; then
  echo "state report drifted from tests/fixtures/stateaccess_golden.json" >&2
  echo "re-generate with REGEN_GOLDEN=1 if the new verdicts are intentional" >&2
  exit 1
else
  echo "state-access golden matches"
fi

echo "==> portfolio determinism smoke (fixed seed, 2 threads, 2 s budget)"
smoke_a="$(cargo run -q --release -p hermes-bench --bin portfolio -- --smoke)"
smoke_b="$(cargo run -q --release -p hermes-bench --bin portfolio -- --smoke)"
if [[ "$smoke_a" != "$smoke_b" ]]; then
  echo "portfolio smoke is nondeterministic:" >&2
  diff <(printf '%s\n' "$smoke_a") <(printf '%s\n' "$smoke_b") >&2 || true
  exit 1
fi
echo "smoke output stable: $smoke_a"

echo "==> migration determinism smoke (staged vs all-at-once, virtual clock)"
mig_a="$(cargo run -q --release -p hermes-bench --bin migration -- --smoke)"
mig_b="$(cargo run -q --release -p hermes-bench --bin migration -- --smoke)"
if [[ "$mig_a" != "$mig_b" ]]; then
  echo "migration smoke is nondeterministic:" >&2
  diff <(printf '%s\n' "$mig_a") <(printf '%s\n' "$mig_b") >&2 || true
  exit 1
fi
echo "smoke output stable: $mig_a"

echo "==> target frontier determinism smoke (per-target greedy plans, fixed workload)"
tgt_a="$(cargo run -q --release -p hermes-bench --bin targets -- --smoke)"
tgt_b="$(cargo run -q --release -p hermes-bench --bin targets -- --smoke)"
if [[ "$tgt_a" != "$tgt_b" ]]; then
  echo "targets smoke is nondeterministic:" >&2
  diff <(printf '%s\n' "$tgt_a") <(printf '%s\n' "$tgt_b") >&2 || true
  exit 1
fi
echo "smoke output stable: ${tgt_a:0:120}..."

echo "==> recovery determinism smoke (crash at every boundary, virtual clock)"
rec_a="$(cargo run -q --release -p hermes-bench --bin recovery -- --smoke)"
rec_b="$(cargo run -q --release -p hermes-bench --bin recovery -- --smoke)"
if [[ "$rec_a" != "$rec_b" ]]; then
  echo "recovery smoke is nondeterministic:" >&2
  diff <(printf '%s\n' "$rec_a") <(printf '%s\n' "$rec_b") >&2 || true
  exit 1
fi
echo "smoke output stable: ${rec_a:0:120}..."

echo "==> golden journal + schema gate"
# The journal of a clean deploy is byte-exact per format version; the
# dump also pins JOURNAL_FORMAT_VERSION and EVENT_SCHEMA_VERSION, so any
# wire or schema change lands with a reviewed fixture update.
if ! diff <(cargo run -q --release -p hermes-bench --bin recovery -- --golden) \
          tests/fixtures/journal_golden.txt; then
  echo "journal bytes or schema versions drifted from tests/fixtures/journal_golden.txt" >&2
  echo "re-generate with: cargo run --release -p hermes-bench --bin recovery -- --golden" >&2
  exit 1
fi
echo "journal golden matches"

echo "CI OK"
