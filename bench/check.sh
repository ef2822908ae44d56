#!/bin/sh
# Quick self-test of the benchmark itself, on a seed other than the default:
# every workload twice for a few seconds each (a run is always at least one
# whole round), the two sets agreeing within the bounds of BENCHMARK.json and
# on every count exactly; then one traced run, whose metric names must be the
# per-layer names BENCHMARK.json declares. Six seconds give `tight-exact`,
# whose parallel search varies most from run to run, three rounds to pool.
set -eu
cd "$(dirname "$0")/.."
run() {
    cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- "$@"
}
run --check-repeat --seed 2 --seconds 6
run --workload churn-ft4 --seed 2 --seconds 1 --trace 1 | tail -n 1 | python3 -c '
import json, sys
printed = list(json.load(sys.stdin)["metrics"])
declared = [m["name"] for m in json.load(open("BENCHMARK.json"))["per_layer"]]
sys.exit(0 if printed == declared else "per-layer names differ from BENCHMARK.json: %s" % (set(printed) ^ set(declared)))
'
echo "bench/check.sh: ok"
