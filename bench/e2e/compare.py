#!/usr/bin/env python3
"""Agreement check between two run sets of the end-to-end benchmark.

A and B are each a report written by `run.py --out FILE` or a directory
of such reports.  For every (end-to-end metric, workload) pair it prints
both sets' sample count, median and quartiles, the spread (q3 - q1) /
median of each set, and the move of B's median against A's.  A pair is
flagged when the medians differ by more than the metric's bound in
BENCHMARK.json; exits 1 if any pair is flagged.  A pair is marked
unresolved, without failing, when a set's spread exceeds the bound, or
for `solve_p90_s.*` when a run had fewer than 10 batches beyond the p90.

  python3 bench/e2e/compare.py runs-a/ runs-b/
"""

import argparse
import json
import os
import sys

from run import load_spec, quartiles

MIN_BEYOND_P90 = 10


def load_runs(path):
    files = [path] if os.path.isfile(path) else sorted(
        os.path.join(path, f) for f in os.listdir(path) if f.endswith(".json"))
    runs = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            runs += json.load(fh)["runs"]
    return [r for r in runs if not r["traced"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="run set A (report file or directory)")
    ap.add_argument("b", help="run set B (report file or directory)")
    args = ap.parse_args()

    spec = load_spec()
    sets = {"A": load_runs(args.a), "B": load_runs(args.b)}
    workloads = [w["name"] for w in spec["workloads"]]

    flagged = unresolved = 0
    print(f"{'workload':<11} {'metric':<20} {'set':<3} {'n':>2} "
          f"{'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} "
          f"{'B/A-1':>7} {'bound':>6}")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {}
            for label, runs in sets.items():
                runs = [r for r in runs if r["workload"] == workload]
                if runs:
                    values = [r["metrics"][name]["value"] for r in runs]
                    tail = min(r["samples"]["beyond_p90"] for r in runs)
                    stats[label] = (len(values),) + quartiles(values) + (tail,)
            if len(stats) < 2:
                continue
            move = stats["B"][2] / stats["A"][2] - 1.0
            notes = []
            for label, (n, q1, med, q3, tail) in stats.items():
                spread = (q3 - q1) / med
                if spread > bound:
                    notes.append(f"{label} spread above bound")
                if name.startswith("solve_p90_s") and tail < MIN_BEYOND_P90:
                    notes.append(f"{label} has {tail} batches beyond p90")
                print(f"{workload:<11} {name:<20} {label:<3} {n:>2} "
                      f"{med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                      f"{spread:>7.1%} "
                      + (f"{move:>+7.1%} {bound:>6.0%}" if label == "B"
                         else ""))
            if abs(move) > bound:
                flagged += 1
                print("  ^ flagged: medians differ by more than the bound")
            if notes:
                unresolved += 1
                print(f"  ^ unresolved: {', '.join(dict.fromkeys(notes))}")
    print(f"{flagged} pair(s) flagged, {unresolved} unresolved")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
