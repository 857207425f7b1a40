#!/usr/bin/env bash
# swiftbench: builds the served-join benchmark and runs its workloads, each
# in its own process.
#
#   bench/swiftbench/run.sh                      # all four workloads, seed 0
#   bench/swiftbench/run.sh --workload warm_uniform --seed 1 --seconds 20 --trace 0
#   bench/swiftbench/run.sh --trace              # per-layer metrics, trace-<workload>.json
#   bench/swiftbench/run.sh --smoke              # 1/20 scale, 1 s windows
#   bench/swiftbench/run.sh --repeat=5           # run-to-run spread of every metric
#   bench/swiftbench/run.sh --out=DIR            # also append each result line to DIR/<workload>.jsonl
#
# Flags take --name=value or --name value. The build goes to
# $CARGO_TARGET_DIR/swiftbench (default .bench_build/swiftbench) and logs to
# stderr. Every run ends its stdout with one JSON result line and exits
# non-zero when a correctness check failed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/../.."

workload="" seed=0 seconds="" trace=0 smoke=0 repeat=1 out=""
while [ $# -gt 0 ]; do
  arg="$1"
  shift
  case "$arg" in
    --*=*) name="${arg%%=*}" value="${arg#*=}" ;;
    --trace | --smoke)
      name="$arg" value=1
      if [ $# -gt 0 ] && [[ "$1" != --* ]]; then value="$1" && shift; fi
      ;;
    --*)
      [ $# -gt 0 ] || { echo "missing value for $arg" >&2; exit 2; }
      name="$arg" value="$1"
      shift
      ;;
    *) echo "unexpected argument: $arg" >&2; exit 2 ;;
  esac
  case "$name" in
    --workload) workload="$value" ;;
    --seed) seed="$value" ;;
    --seconds) seconds="$value" ;;
    --trace) trace="$value" ;;
    --smoke) smoke="$value" ;;
    --repeat) repeat="$value" ;;
    --out) out="$value" ;;
    *) echo "unknown flag: $name" >&2; exit 2 ;;
  esac
done
case "$trace" in 1 | true) trace=1 ;; *) trace=0 ;; esac
case "$smoke" in 1 | true) smoke=1 ;; *) smoke=0 ;; esac
if [ -z "$seconds" ]; then
  seconds=20
  [ "$smoke" = 0 ] || seconds=1
fi

build="${CARGO_TARGET_DIR:-.bench_build}/swiftbench"
generator=()
if [ ! -f "$build/CMakeCache.txt" ] && command -v ninja > /dev/null; then
  generator=(-G Ninja)
fi
cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target swiftbench -j 4 >&2

run_one() {
  "$build/swiftbench" --workload="$1" --seed="$seed" --seconds="$seconds" \
    --trace="$trace" --smoke="$smoke" --trace-file="$build/trace-$1.json"
}

if [ -n "$workload" ] && [ "$repeat" = 1 ] && [ -z "$out" ]; then
  run_one "$workload"
  exit
fi

workloads=(warm_uniform update_osm rtree_points refine_osm)
[ -z "$workload" ] || workloads=("$workload")
if [ -z "$out" ] && [ "$repeat" != 1 ]; then
  out="$build/runs/$(date +%Y%m%d-%H%M%S)"
fi
[ -z "$out" ] || mkdir -p "$out"

status=0
for ((round = 1; round <= repeat; round++)); do
  for w in "${workloads[@]}"; do
    echo "== $w (seed $seed, run $round of $repeat)"
    log="$(mktemp "$build/run.XXXXXX")"
    if ! run_one "$w" | tee "$log"; then status=1; fi
    [ -z "$out" ] || tail -n 1 "$log" >> "$out/$w.jsonl"
    rm -f "$log"
  done
done
if [ "$repeat" != 1 ]; then
  python3 "$here/compare.py" --spread "$out" || status=1
fi
exit "$status"
