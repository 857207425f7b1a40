#!/usr/bin/env python3
"""Compares two sets of swiftbench results, or reports the spread of one.

A result set is a directory holding <workload>.jsonl files, one JSON result
line per run, as `run.sh --out=DIR` writes them.

    compare.py BASE NEW      # base (parent) against new (change)
    compare.py --spread DIR  # run-to-run spread of every metric

Two sets are compared metric by metric with the bounds and directions in
BENCHMARK.json. Run i of BASE is paired with run i of NEW; run the pairs
alternately (base first on odd pairs, new first on even ones). For each
end-to-end metric the verdict is:

  unresolved  the spread of either side, (q3 - q1) / median, exceeds the
              bound, and not every NEW run beats every BASE run;
  worse       NEW's median is worse than BASE's by more than the bound;
  better      at least 10 pairs, NEW wins at least 9 in 10 of them (ties
              count for neither side), and the medians differ by more than
              BASE's quartile distance;
  same        otherwise: within the bound.

The exit code is 1 when a metric is worse or a run reported incorrect
output, else 0. With --spread it is 1 when a run reported incorrect output
or an end-to-end metric other than setup_s spreads, (q3 - q1) / median,
beyond its bound.
"""
import json
import pathlib
import statistics
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS_FOR_GAIN = 10
WIN_FRACTION_FOR_GAIN = 0.9


def load(directory):
    """{workload: [result, ...]} from every <workload>.jsonl in directory."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.jsonl")):
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        runs[path.stem] = [json.loads(l) for l in lines]
    if not runs:
        sys.exit(f"no <workload>.jsonl results in {directory}")
    return runs


def values(results, metric):
    return [r["metrics"][metric]["value"] for r in results
            if metric in r["metrics"]]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def rel_spread(xs):
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base, new, bound, lower_better):
    """Applies the rule in the module docstring to one metric."""
    def better(a, b):  # a reads better than b
        return a < b if lower_better else a > b

    pairs = list(zip(base, new))
    b_q1, b_med, b_q3 = quartiles(base)
    _, n_med, _ = quartiles(new)
    worse_by = (n_med - b_med) / abs(b_med) if b_med else 0.0
    if not lower_better:
        worse_by = -worse_by
    wins = sum(better(n, b) for b, n in pairs)
    all_better = all(better(n, b) for n in new for b in base)
    if max(rel_spread(base), rel_spread(new)) > bound and not all_better:
        return "unresolved", worse_by, wins
    if worse_by > bound:
        return "worse", worse_by, wins
    if (len(pairs) >= MIN_PAIRS_FOR_GAIN
            and wins >= WIN_FRACTION_FOR_GAIN * len(pairs)
            and better(n_med, b_med) and abs(n_med - b_med) > b_q3 - b_q1):
        return "better", worse_by, wins
    return "same", worse_by, wins


def fmt(x):
    return f"{x:.4g}"


def compare(base_dir, new_dir, spec):
    base_runs, new_runs = load(base_dir), load(new_dir)
    failed = False
    rows = []
    for workload in sorted(set(base_runs) | set(new_runs)):
        base, new = base_runs.get(workload, []), new_runs.get(workload, [])
        if not base or not new:
            print(f"{workload}: results on one side only")
            failed = True
            continue
        n = min(len(base), len(new))
        base, new = base[:n], new[:n]
        incorrect = sum(not r["correct"] for r in base + new)
        print(f"\n{workload}: {n} pairs"
              + ("" if n >= MIN_PAIRS_FOR_GAIN else
                 f" (fewer than {MIN_PAIRS_FOR_GAIN}: no gain can be claimed)"))
        print(f"  {'metric':<20} {'base median [q1, q3]':<34} "
              f"{'new median [q1, q3]':<34} {'worse by':>9} {'wins':>6}  "
              f"{'bound':>5}  verdict")
        verdicts = {}
        for m in spec["end_to_end"]:
            b, v = values(base, m["name"]), values(new, m["name"])
            if len(b) != n or len(v) != n:
                print(f"  {m['name']:<20} missing in some runs")
                verdicts[m["name"]] = "missing"
                continue
            result, worse_by, wins = verdict(b, v, m["bound"],
                                             m["better"] == "lower")
            verdicts[m["name"]] = result
            bq, nq = quartiles(b), quartiles(v)
            print(f"  {m['name']:<20} "
                  f"{fmt(bq[1]) + ' [' + fmt(bq[0]) + ', ' + fmt(bq[2]) + ']':<34} "
                  f"{fmt(nq[1]) + ' [' + fmt(nq[0]) + ', ' + fmt(nq[2]) + ']':<34} "
                  f"{worse_by:>+9.2%} {wins:>3}/{n:<2}  {m['bound']:>5}  {result}")
        if incorrect:
            print(f"  {incorrect} run(s) reported incorrect output")
        failed |= incorrect > 0 or "worse" in verdicts.values()
        rows.append((workload, n, incorrect, verdicts))

    print("\nworkload        pairs  incorrect  " +
          "  ".join(m["name"] for m in spec["end_to_end"]))
    for workload, n, incorrect, verdicts in rows:
        print(f"{workload:<15} {n:>5}  {incorrect:>9}  " + "  ".join(
            f"{verdicts[m['name']]:<{len(m['name'])}}"
            for m in spec["end_to_end"]))
    return 1 if failed else 0


def spread(directory, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    over = False
    for workload, results in load(directory).items():
        incorrect = sum(not r["correct"] for r in results)
        print(f"\n{workload}: {len(results)} runs, {incorrect} incorrect")
        print(f"  {'metric':<34} {'median':>12} {'min':>12} {'max':>12} "
              f"{'max/min-1':>10} {'iqr/median':>10}  bound")
        metrics = results[0]["metrics"]
        for name, first in metrics.items():
            xs = values(results, name)
            lo, hi = min(xs), max(xs)
            ratio = f"{hi / lo - 1:>10.2%}" if lo > 0 else f"{'-':>10}"
            iqr = rel_spread(xs)
            note = ""
            if name in bounds:
                note = f"{bounds[name]}"
                if iqr > bounds[name]:
                    note += "  (iqr/median above the bound)"
                    over |= name != "setup_s"
                elif iqr > bounds[name] / 3:
                    note += "  (iqr/median above a third of the bound)"
            print(f"  {name + ' [' + first['unit'] + ']':<34} "
                  f"{statistics.median(xs):>12.5g} {lo:>12.5g} {hi:>12.5g} "
                  f"{ratio} {iqr:>10.2%}  {note}")
        over |= incorrect > 0
    return 1 if over else 0


def main(argv):
    spec = json.loads(BENCHMARK.read_text())
    if len(argv) == 3 and argv[1] == "--spread":
        return spread(argv[2], spec)
    if len(argv) == 3:
        return compare(argv[1], argv[2], spec)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
