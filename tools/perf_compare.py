#!/usr/bin/env python3
"""Compare two directories of BENCH_<name>.json telemetry (schema_version 1).

Usage:
  tools/perf_compare.py BASELINE_DIR CANDIDATE_DIR [options]

Every bench harness emits machine-readable telemetry with --json-out=DIR
(see bench/bench_util.h, JsonReporter). This script diffs a candidate run
against a committed or archived baseline and exits non-zero on regression,
so CI can gate on it. Three metric classes, gated differently:

  *_seconds       Wall/CPU timings: lower is better, noisy. A row regresses
                  only if candidate > baseline * (1 + --threshold) +
                  --abs-floor-seconds. The absolute floor keeps micro-
                  second-level jitter on tiny smoke runs from failing the
                  build; the relative threshold absorbs shared-runner noise.
                  Cross-machine comparisons (committed baseline from a
                  different host) should pass a generous --threshold: the
                  committed baseline then pins schema, coverage, and the
                  deterministic counts tightly while still catching
                  order-of-magnitude timing cliffs.

  integral counts Result/candidate/cycle/message counts and counted work
                  (e.g. fig_accel_engine's exact_rechecks, the boxes a
                  grid execute re-reads by id): the simulators and
                  join engines are deterministic, so a metric that is
                  integral on both sides must match exactly (allow slack
                  with --count-drift). A drifted count is a correctness
                  signal, not noise.

  other floats    Ratios, utilizations, watts: reported for information,
                  never gated (cpu_utilization in particular is pure noise
                  at smoke scales).

Structural checks always gate: a baseline bench/row/metric missing from the
candidate is a telemetry regression (a harness stopped emitting data);
candidate-only benches/rows are reported but pass, so adding coverage never
requires touching the baseline first.
"""

import argparse
import glob
import json
import math
import os
import sys

SCHEMA_VERSION = 1

# Floats that look integral but are not deterministic counts.
NEVER_COUNT = {"cpu_utilization"}


def load_dir(path):
    """Return {bench_name: parsed_json} for every BENCH_*.json under path."""
    out = {}
    for file in sorted(glob.glob(os.path.join(path, "BENCH_*.json"))):
        with open(file, "r", encoding="utf-8") as f:
            doc = json.load(f)
        problems = validate(doc)
        if problems:
            raise SystemExit(
                "%s: schema violation(s):\n  %s" % (file, "\n  ".join(problems))
            )
        out[doc["name"]] = doc
    return out


def validate(doc):
    problems = []
    if doc.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            "schema_version %r != %d" % (doc.get("schema_version"), SCHEMA_VERSION)
        )
    if not isinstance(doc.get("name"), str) or not doc["name"]:
        problems.append("missing or empty name")
    if not isinstance(doc.get("context"), dict):
        problems.append("missing context object")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append("rows must be a non-empty list")
        return problems
    seen = set()
    for i, row in enumerate(rows):
        if not isinstance(row.get("label"), str) or not row["label"]:
            problems.append("rows[%d]: missing label" % i)
            continue
        if row["label"] in seen:
            problems.append("rows[%d]: duplicate label %r" % (i, row["label"]))
        seen.add(row["label"])
        metrics = row.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            problems.append("rows[%d] (%s): empty metrics" % (i, row["label"]))
            continue
        for key, value in metrics.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(
                    "rows[%d] (%s): metric %s is not a number" % (i, row["label"], key)
                )
    return problems


def is_count(name, base, cand):
    if name in NEVER_COUNT or name.endswith("_seconds"):
        return False
    return float(base).is_integer() and float(cand).is_integer()


def compare(baselines, candidates, opts):
    failures = []
    notes = []
    timing_checked = 0
    counts_checked = 0

    for name in sorted(candidates):
        if name not in baselines:
            notes.append("%s: no baseline; skipping (new bench?)" % name)
            continue
        base_rows = {r["label"]: r["metrics"] for r in baselines[name]["rows"]}
        cand_rows = {r["label"]: r["metrics"] for r in candidates[name]["rows"]}

        for label in sorted(base_rows):
            if label not in cand_rows:
                failures.append("%s: row %r vanished from the candidate" % (name, label))
                continue
            base_m, cand_m = base_rows[label], cand_rows[label]
            for metric in sorted(base_m):
                if metric not in cand_m:
                    failures.append(
                        "%s [%s]: metric %s vanished from the candidate"
                        % (name, label, metric)
                    )
                    continue
                b, c = float(base_m[metric]), float(cand_m[metric])
                if metric.endswith("_seconds"):
                    timing_checked += 1
                    limit = b * (1.0 + opts.threshold) + opts.abs_floor_seconds
                    if c > limit:
                        failures.append(
                            "%s [%s]: %s regressed %.6gs -> %.6gs "
                            "(limit %.6gs = baseline +%d%% +%.3gs)"
                            % (
                                name,
                                label,
                                metric,
                                b,
                                c,
                                limit,
                                round(opts.threshold * 100),
                                opts.abs_floor_seconds,
                            )
                        )
                elif is_count(metric, b, c):
                    counts_checked += 1
                    drift = abs(c - b) / b if b != 0 else (0.0 if c == 0 else math.inf)
                    if drift > opts.count_drift:
                        failures.append(
                            "%s [%s]: count %s drifted %g -> %g "
                            "(deterministic metric; allowed drift %g)"
                            % (name, label, metric, b, c, opts.count_drift)
                        )
        extra_rows = sorted(set(cand_rows) - set(base_rows))
        if extra_rows:
            notes.append(
                "%s: %d candidate-only row(s), e.g. %r"
                % (name, len(extra_rows), extra_rows[0])
            )

    for name in sorted(set(baselines) - set(candidates)):
        failures.append(
            "bench %s present in the baseline but missing from the candidate" % name
        )
    return failures, notes, timing_checked, counts_checked


def main(argv):
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_*.json telemetry directories; "
        "exit 1 on regression."
    )
    parser.add_argument("baseline_dir")
    parser.add_argument("candidate_dir")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.35,
        help="relative slowdown allowed on *_seconds metrics (default 0.35; "
        "raise it, e.g. 2.0, when baseline and candidate ran on different "
        "hosts)",
    )
    parser.add_argument(
        "--abs-floor-seconds",
        type=float,
        default=0.010,
        help="absolute jitter floor added to every timing limit (default 0.010)",
    )
    parser.add_argument(
        "--count-drift",
        type=float,
        default=0.0,
        help="relative drift allowed on deterministic integral metrics "
        "(default 0: exact match)",
    )
    opts = parser.parse_args(argv)

    for d in (opts.baseline_dir, opts.candidate_dir):
        if not os.path.isdir(d):
            raise SystemExit("not a directory: %s" % d)
    baselines = load_dir(opts.baseline_dir)
    candidates = load_dir(opts.candidate_dir)
    if not candidates:
        raise SystemExit("no BENCH_*.json files in %s" % opts.candidate_dir)
    if not baselines:
        print(
            "perf_compare: no baseline files in %s; nothing to gate (PASS)"
            % opts.baseline_dir
        )
        return 0

    failures, notes, timings, counts = compare(baselines, candidates, opts)
    for note in notes:
        print("note: %s" % note)
    if failures:
        print(
            "perf_compare: FAIL -- %d regression(s) across %d bench(es):"
            % (len(failures), len(candidates))
        )
        for failure in failures:
            print("  " + failure)
        return 1
    print(
        "perf_compare: PASS -- %d bench(es), %d timing metric(s) within "
        "+%d%%+%.3gs, %d deterministic count(s) exact"
        % (
            len(candidates),
            timings,
            round(opts.threshold * 100),
            opts.abs_floor_seconds,
            counts,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
