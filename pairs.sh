#!/usr/bin/env bash
# Alternating parent / change pairs of the deploy-request benchmark: the
# table a perf claim in results/runs/PR-N.md rests on.
#
#   ./pairs.sh [-n PAIRS] [-s FIRST_SEED] [-w WORKLOAD]... PARENT_REF
#
# Exports PARENT_REF with `git archive` into target/pairs/parent, builds
# bench/ once there and once in this checkout (the change is the working
# tree as it stands), then runs the BENCHMARK.json command on both, pair
# after pair on consecutive seeds, the side that goes first alternating,
# two seconds of pause between runs. Prints, per workload, one markdown row
# per pair, then each side's median and quartiles and how many pairs the
# change won, per end-to-end metric. Defaults: 10 pairs from seed 1 on every
# workload of BENCHMARK.json. Needs bash, awk, git and tar; runs nothing
# else, so keep the host idle.
set -euo pipefail
cd "$(dirname "$0")"

usage() {
  echo "usage: $0 [-n PAIRS] [-s FIRST_SEED] [-w WORKLOAD]... PARENT_REF" >&2
  exit 2
}

pairs=10
first_seed=1
workloads=()
while getopts "n:s:w:" opt; do
  case "$opt" in
    n) pairs=$OPTARG ;;
    s) first_seed=$OPTARG ;;
    w) workloads+=("$OPTARG") ;;
    *) usage ;;
  esac
done
shift $((OPTIND - 1))
[[ $# -eq 1 && $pairs =~ ^[1-9][0-9]*$ && $first_seed =~ ^[0-9]+$ ]] || usage
parent_ref=$1
parent_commit=$(git rev-parse --verify --quiet "$parent_ref^{commit}") || {
  echo "$0: \`$parent_ref\` names no commit" >&2
  exit 2
}

# Workloads, run length and the end-to-end metrics (with the direction in
# which each is better) are BENCHMARK.json's, so the table cannot drift
# from what the driver measures.
field() { sed -n "s/.*\"$1\": *\"\{0,1\}\([^\",}]*\).*/\1/p"; }
if [[ ${#workloads[@]} -eq 0 ]]; then
  mapfile -t workloads < <(grep '"why"' BENCHMARK.json | field name)
fi
seconds=$(grep '"run_seconds"' BENCHMARK.json | field run_seconds)
metrics=$(grep '"bound"' BENCHMARK.json | while read -r line; do
  printf '%s:%s ' "$(field name <<<"$line")" "$(field better <<<"$line")"
done)

parent_dir=target/pairs/parent
rm -rf "$parent_dir"
mkdir -p "$parent_dir"
git archive "$parent_commit" | tar -x -C "$parent_dir"
bench() { # bench DIR ARGS...: the BENCHMARK.json command, run from DIR
  (cd "$1" && shift &&
    cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- "$@")
}
echo "building bench/ at ${parent_commit:0:7} and in the checkout" >&2
(cd "$parent_dir" && cargo build --release --offline --quiet --manifest-path bench/Cargo.toml)
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
for workload in "${workloads[@]}"; do
  for ((pair = 0; pair < pairs; pair++)); do
    seed=$((first_seed + pair))
    if ((pair % 2 == 0)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
      if [[ $side == parent ]]; then dir=$parent_dir; else dir=.; fi
      echo "$workload pair $pair seed $seed: $side" >&2
      # The last two lines of a run: its context (outcome histogram), then
      # its result (failed, metrics).
      out=$(bench "$dir" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
        tail -n 2 | tr '\n' ' ')
      echo "$workload $pair $seed ${order[0]} $side $out" >>"$runs"
      sleep 2
    done
  done
done

echo "Parent \`${parent_commit:0:7}\` against the working tree of $(git rev-parse --short HEAD);" \
  "$pairs alternating ${seconds} s pairs per workload from seed $first_seed."
awk -v metrics="$metrics" '
function value(json, name,    at, rest) {
  at = index(json, "\"" name "\":{\"value\":")
  if (!at) return "nan"
  rest = substr(json, at + length(name) + 12)
  match(rest, /^[-+0-9.eE]+/)
  return substr(rest, 1, RLENGTH) + 0
}
function object(json, name,    at, rest) { # a flat {...} member, verbatim
  at = index(json, "\"" name "\":{")
  if (!at) return ""
  rest = substr(json, at + length(name) + 3)
  return substr(rest, 1, index(rest, "}"))
}
function count(json, name,    at, rest) {
  at = index(json, "\"" name "\":")
  rest = substr(json, at + length(name) + 3)
  match(rest, /^[0-9]+/)
  return substr(rest, 1, RLENGTH) + 0
}
function quantile(side, m, n, q,    i, j, v, pos, lo) { # linear interpolation
  for (i = 0; i < n; i++) sorted[i] = val[side, m, i]
  for (i = 1; i < n; i++) {
    v = sorted[i]
    for (j = i - 1; j >= 0 && sorted[j] > v; j--) sorted[j + 1] = sorted[j]
    sorted[j + 1] = v
  }
  pos = (n - 1) * q
  lo = int(pos)
  return lo + 1 < n ? sorted[lo] + (pos - lo) * (sorted[lo + 1] - sorted[lo]) : sorted[lo]
}
function summary(workload, n,    m, k, wins, ties, p, c) {
  printf "\n| `%s` | parent median [q1, q3] | change median [q1, q3] | change / parent | change ahead |\n|---|---|---|---|---|\n", workload
  for (m = 1; m <= nm; m++) {
    wins = ties = 0
    for (k = 0; k < n; k++) {
      p = val["parent", m, k]; c = val["change", m, k]
      if (p == c) ties++
      else if ((better[m] == "higher") == (c > p)) wins++
    }
    p = quantile("parent", m, n, 0.5); c = quantile("change", m, n, 0.5)
    printf "| `%s` | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %s | %d of %d%s |\n", name[m], \
      p, quantile("parent", m, n, 0.25), quantile("parent", m, n, 0.75), \
      c, quantile("change", m, n, 0.25), quantile("change", m, n, 0.75), \
      p ? sprintf("×%.3f", c / p) : "-", wins, n, ties ? sprintf(", %d tied", ties) : ""
  }
}
BEGIN {
  nm = split(metrics, spec, " ")
  for (m = 1; m <= nm; m++) { split(spec[m], part, ":"); name[m] = part[1]; better[m] = part[2] }
}
{
  workload = $1; pair = $2; side = $5
  at = index($0, "{\"correct\"")
  context = substr($0, 1, at - 1); json = substr($0, at)
  if (workload != current) {
    if (current != "") summary(current, done)
    current = workload
    printf "\n### `%s`\n\n| pair | seed | first |", workload
    for (m = 1; m <= nm; m++) printf " `%s` parent → change |", name[m]
    printf " failed / attempted | outcomes |\n|---|---|---|"
    for (m = 1; m <= nm; m++) printf "---|"
    printf "---|---|\n"
  }
  for (m = 1; m <= nm; m++) val[side, m, pair] = value(json, name[m])
  failed[side] = count(json, "failed") "/" count(json, "attempted")
  outcomes[side] = object(context, "outcomes")
  if (side != $4) { # the second run of the pair
    printf "| %d | %d | %s |", pair, $3, $4
    for (m = 1; m <= nm; m++) printf " %.6g → %.6g |", val["parent", m, pair], val["change", m, pair]
    printf " %s → %s | %s |\n", failed["parent"], failed["change"], \
      outcomes["parent"] == outcomes["change"] ? "same" : outcomes["parent"] " → " outcomes["change"]
    done = pair + 1
  }
}
END { if (current != "") summary(current, done) }
' "$runs"
