#!/usr/bin/env python3
"""Benchmark regression gate: compare fresh BENCH_*.json runs against the
baselines committed under results/.

Each gated bench has a small schema here: which array holds the rows, which
fields identify a row, and which metric fields to compare (with a
direction — some metrics are better high, some better low).  A metric that
moved more than --warn percent in the bad direction is reported as a
warning; more than --fail percent fails the gate (exit 1).  Improvements
never fail.  Metrics declared with an absolute ceiling ({"max": N}) skip
the relative comparison and fail only when the fresh value exceeds N.

Wall-clock metrics are noisy, which is exactly why the thresholds are
percentages with headroom (10/25 by default) rather than exact matches;
ratio metrics (speedups, flop rates) are the stable signal.

Usage:
  tools/bench_gate.py                         # compare ./BENCH_*.json vs results/
  tools/bench_gate.py --current DIR           # fresh runs live in DIR
  tools/bench_gate.py --baseline DIR          # baselines live in DIR
  tools/bench_gate.py kernels taskdag         # gate a subset
  tools/bench_gate.py --warn 10 --fail 25     # thresholds in percent

A missing current file is skipped with a note (the gate only judges what
was re-run); a missing baseline is a warning (the baseline should be
committed).  Exit status: 0 ok / warnings only, 1 any failure, 2 usage.
No dependencies beyond the standard library.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# (rows key, identity fields, metrics: name -> direction)
# direction "high" = bigger is better, "low" = smaller is better.
# A metric value may also be a dict {"max": N}: an *absolute* ceiling in
# the metric's own units, replacing the relative drift check.  Used where
# the claim is a hard bound (e.g. tracing overhead stays under 5%) and
# the measurement hovers near zero, where a percentage-of-baseline
# comparison is meaningless (a 0.5% -> 1.5% move is a 200% "regression"
# yet still three times under the bound).
SCHEMAS = {
    "kernels": {
        "file": "BENCH_kernels.json",
        "rows": "flop_rates",
        "key": ("kernel", "n"),
        "metrics": {"reference": "high", "tiled": "high"},
    },
    "faults": {
        "file": "BENCH_faults.json",
        "rows": "rows",
        "key": ("scenario", "n", "p"),
        "metrics": {"wall_seconds": "low"},
    },
    "taskdag": {
        "file": "BENCH_taskdag.json",
        "rows": "rows",
        "key": ("workload", "p"),
        "metrics": {
            "factor_tasks_speedup": "high",
            "solve_tasks_speedup": "high",
        },
    },
    # Wall latencies are noisy on shared hosts; gate the stable signal:
    # the copied-bytes counter (exact — any nonzero value means the
    # zero-copy lane regressed to copying).
    "msgpath": {
        "file": "BENCH_msgpath.json",
        "rows": "rows",
        "key": ("kind", "bytes"),
        "metrics": {
            "copied_kib_owned": "low",
        },
    },
    # Observability cost: recording must stay cheap enough to leave on in
    # anger.  The absolute 5% ceiling is the claim docs/observability.md
    # makes; measured overhead hovers around 1% with a few percent of
    # one-sided scheduler noise, so only the ceiling is gated.  The cp_*
    # analyzer row carries no wall metrics (structure only), so it is
    # identity-matched but not compared.
    "obs": {
        "file": "BENCH_obs.json",
        "rows": "rows",
        "key": ("workload", "p", "nrhs"),
        "metrics": {
            "trace_overhead_pct": {"max": 5.0},
        },
    },
    # Process backend: solve_ok = 1 means the forked TCP cohort's solution
    # matched the single-process simulator bit for bit (and, on the chaos
    # row, that the envelope recovered exactly from frame corruption) —
    # pinned hard, since any drop is a correctness break, not noise.  The
    # localhost wire latencies only get generous absolute ceilings: wall
    # clocks through the kernel's TCP stack on a shared host are far too
    # noisy for a relative gate.
    "proc": {
        "file": "BENCH_proc.json",
        "rows": "rows",
        "key": ("kind", "p", "bytes"),
        "metrics": {
            "solve_ok": "high",
            "lat_us": {"max": 5000.0},
            "wall_seconds": {"max": 120.0},
        },
    },
}


def load_rows(path: Path, schema: dict) -> dict[tuple, dict] | None:
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        return None
    except json.JSONDecodeError as e:
        sys.exit(f"bench_gate: {path} is not valid JSON: {e}")
    rows = {}
    for row in doc.get(schema["rows"], []):
        rows[tuple(row.get(k) for k in schema["key"])] = row
    return rows


def regression_pct(direction: str, base: float, cur: float) -> float:
    """How much worse `cur` is than `base`, in percent (negative = better)."""
    if base == 0:
        return 0.0
    if direction == "high":
        return (base - cur) / base * 100.0
    return (cur - base) / base * 100.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("benches", nargs="*", default=[],
                    help="subset of benches to gate (default: all)")
    ap.add_argument("--baseline", default="results",
                    help="directory of committed baseline JSONs")
    ap.add_argument("--current", default=".",
                    help="directory of freshly produced JSONs")
    ap.add_argument("--warn", type=float, default=10.0,
                    help="warn when a metric regresses more than this %%")
    ap.add_argument("--fail", type=float, default=25.0,
                    help="fail when a metric regresses more than this %%")
    args = ap.parse_args()

    names = args.benches or sorted(SCHEMAS)
    unknown = [n for n in names if n not in SCHEMAS]
    if unknown:
        ap.error(f"unknown bench(es): {', '.join(unknown)} "
                 f"(known: {', '.join(sorted(SCHEMAS))})")

    warnings = failures = compared = 0
    for name in names:
        schema = SCHEMAS[name]
        cur = load_rows(Path(args.current) / schema["file"], schema)
        if cur is None:
            print(f"[skip] {name}: no fresh {schema['file']} in "
                  f"{args.current} (not re-run)")
            continue
        base = load_rows(Path(args.baseline) / schema["file"], schema)
        if base is None:
            print(f"[warn] {name}: no baseline {schema['file']} in "
                  f"{args.baseline} — commit one")
            warnings += 1
            continue
        for key, base_row in sorted(base.items(), key=str):
            cur_row = cur.get(key)
            ident = ", ".join(f"{k}={v}" for k, v in
                              zip(schema["key"], key))
            if cur_row is None:
                print(f"[warn] {name}: row ({ident}) missing from "
                      f"fresh run")
                warnings += 1
                continue
            for metric, spec in schema["metrics"].items():
                if metric not in base_row or metric not in cur_row:
                    continue
                compared += 1
                base_v = float(base_row[metric])
                cur_v = float(cur_row[metric])
                if isinstance(spec, dict):
                    # Absolute ceiling: the fresh value alone decides.
                    ceiling = float(spec["max"])
                    if cur_v > ceiling:
                        print(f"[FAIL] {name}: {metric} ({ident}) "
                              f"{cur_v:.4g} exceeds ceiling {ceiling:g}")
                        failures += 1
                    continue
                pct = regression_pct(spec, base_v, cur_v)
                line = (f"{name}: {metric} ({ident}) "
                        f"{base_v:.4g} -> {cur_v:.4g} "
                        f"({pct:+.1f}% regression)")
                if pct > args.fail:
                    print(f"[FAIL] {line}")
                    failures += 1
                elif pct > args.warn:
                    print(f"[warn] {line}")
                    warnings += 1
    print(f"bench_gate: {compared} metric(s) compared, "
          f"{warnings} warning(s), {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
