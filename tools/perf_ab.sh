#!/usr/bin/env bash
# A/B timing of the served-join benchmark (bench/swiftbench/) between an
# earlier revision and this checkout's working tree, on one host.
#
#   tools/perf_ab.sh BASE [--workload W] [--pairs N] [--seed S]
#
# Exports BASE's committed files (`git archive`) into a temporary directory
# and runs BASE's and this checkout's bench/swiftbench/run.sh alternately: N
# pairs (default 10) of each workload (default all four), BASE first on odd
# pairs and the working tree first on even ones, so host drift lands on
# both sides alike. Every run has run.sh's own window length, the
# benchmark's. Each run's JSON result line is appended to
# RESULTS/base/<workload>.jsonl or RESULTS/new/<workload>.jsonl, and
# compare.py then prints its verdicts over the pairs (10 pairs are the
# least that can read `better`). RESULTS is .bench_build/perf_ab/<time>;
# each side's build and run log goes to RESULTS/<side>.log.
#
# Each side builds into its own directory under the temporary directory,
# which is removed on exit. Flags take --name=value or --name value. Exits
# with compare.py's status, or 1 when a run reported incorrect output.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo"

base="" workload="" pairs=10 seed=0
while [ $# -gt 0 ]; do
  arg="$1"
  shift
  case "$arg" in
    --*=*) name="${arg%%=*}" value="${arg#*=}" ;;
    --*)
      [ $# -gt 0 ] || { echo "missing value for $arg" >&2; exit 2; }
      name="$arg" value="$1"
      shift
      ;;
    *)
      [ -z "$base" ] || { echo "unexpected argument: $arg" >&2; exit 2; }
      base="$arg"
      continue
      ;;
  esac
  case "$name" in
    --workload) workload="$value" ;;
    --pairs) pairs="$value" ;;
    --seed) seed="$value" ;;
    *) echo "unknown flag: $name" >&2; exit 2 ;;
  esac
done
[ -n "$base" ] || { sed -n '2,20p' "$0" >&2; exit 2; }
base_sha="$(git rev-parse --verify "$base^{commit}")"

workdir="$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")"
trap 'rm -rf "$workdir"' EXIT
base_tree="$workdir/base"
mkdir "$base_tree"
git archive "$base_sha" | tar -x -C "$base_tree"

results="$repo/.bench_build/perf_ab/$(date +%Y%m%d-%H%M%S)"
mkdir -p "$results/base" "$results/new"
workloads=(warm_uniform update_osm rtree_points refine_osm)
[ -z "$workload" ] || workloads=("$workload")

# run_side SIDE WORKLOAD: one run of SIDE's run.sh, built in its own dir.
status=0
run_side() {
  local tree="$repo"
  [ "$1" = new ] || tree="$base_tree"
  echo "== pair $pair/$pairs: $1 $2" >&2
  if ! CARGO_TARGET_DIR="$workdir/build-$1" bash "$tree/bench/swiftbench/run.sh" \
      --workload "$2" --seed "$seed" --out "$results/$1" \
      > /dev/null 2>> "$results/$1.log"; then
    status=1
  fi
}

for ((pair = 1; pair <= pairs; pair++)); do
  for w in "${workloads[@]}"; do
    if ((pair % 2 == 1)); then
      run_side base "$w"
      run_side new "$w"
    else
      run_side new "$w"
      run_side base "$w"
    fi
  done
done

echo "base $base_sha vs working tree; results in $results"
python3 bench/swiftbench/compare.py "$results/base" "$results/new" || status=1
exit "$status"
