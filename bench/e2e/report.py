#!/usr/bin/env python3
"""Per-layer ledger of the end-to-end benchmark, as Markdown.

Reads a traced run set (`run.py --trace 1 --out FILE`): the per-layer
metrics of every workload, and from each run's Chrome trace the self time
of every layer span (its duration minus the part its child spans cover),
summed per (span, backend).  An untraced run set (`--untraced FILE`) adds
the end-to-end medians.

  python3 bench/e2e/report.py traced.json --untraced untraced.json \\
      -o bench/e2e/LEDGER.md
"""

import argparse
import fnmatch
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

# Which end-to-end metric each per-layer metric should move, and where
# (first matching pattern wins).
MOVES = [
    ("ordering.s", "setup_s on grid2d-*, bcsstk31"),
    ("symbolic.s", "setup_s on grid2d-*, bcsstk31"),
    ("mapping.s", "setup_s on grid2d-*, bcsstk31"),
    ("mapping.solve_imbalance", "solve_p50_s on grid2d-*, bcsstk31"),
    ("parfact.*", "factor_s on bcsstk31"),
    ("redist.*", "factor_s on chain, bcsstk31"),
    ("partrisolve.*.compute_frac", "solve_p50_s on grid2d-m30"),
    ("partrisolve.*.other_frac", "solve_p50_s on grid2d-m1"),
    ("partrisolve.*.p1_over_seq", "solve_p50_s on grid2d-m1"),
    ("partrisolve.*.idle_frac", "solve_p50_s on chain"),
    ("partrisolve.*.msgs_per_batch", "solve_p50_s on chain"),
    ("partrisolve.*", "solve_p50_s on all"),
    ("seq_solve_p50_s", "nothing: the single-thread baseline"),
    ("trisolve.gflops", "seq_solve_p50_s on all"),
    ("dense.gflops.wide", "solve_p50_s on grid2d-m30"),
    ("dense.gflops.w8", "solve_p50_s on grid2d-m1"),
    ("dense.*", "solve_p50_s on grid2d-*; nothing on chain"),
    ("exec.*", "solve_p50_s on chain, grid2d-m1"),
    ("simpar.*", "explanatory only"),
    ("model.*", "explanatory only"),
    ("host.*", "host drift; should move nothing"),
    ("backward_error", "correctness: at most 1e-12"),
    ("trace_overhead_pct", "cost of the benchmark's spans"),
]


def moves(name):
    for pattern, target in MOVES:
        if fnmatch.fnmatchcase(name, pattern):
            return target
    return ""


def fmt(value):
    return f"{value:.4g}"


def self_times(trace_path):
    """{(span, backend): [calls, self seconds]} and the root duration."""
    with open(trace_path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    totals = defaultdict(lambda: [0, 0.0])
    stack = []  # [name, backend, begin_us, children_us]
    root_us = 0.0
    for ev in events:
        if ev["ph"] == "B":
            stack.append([ev["name"], ev["args"]["backend"], ev["ts"], 0.0])
        elif ev["ph"] == "E":
            name, backend, begin, children = stack.pop()
            dur = ev["ts"] - begin
            entry = totals[(name, backend)]
            entry[0] += 1
            entry[1] += (dur - children) / 1e6
            if stack:
                stack[-1][3] += dur
            else:
                root_us += dur
    return totals, root_us / 1e6


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("traced", help="report of run.py --trace 1 --out")
    ap.add_argument("--untraced", help="report of run.py --trace 0 --out")
    ap.add_argument("-o", "--output", help="Markdown file (default: stdout)")
    args = ap.parse_args()

    spec = load(os.path.join(ROOT, "BENCHMARK.json"))
    traced = load(args.traced)
    runs = [r for r in traced["runs"] if r["traced"]]
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    by_workload = {w: [r for r in runs if r["workload"] == w]
                   for w in workloads}
    host = runs[0]["host"]
    lines = [
        "# bench_e2e ledger",
        "",
        f"Host: {host['nproc']} cores, ISA {host['isa']}, "
        f"{host['build_type']} build, {host['kernels']} kernels.  "
        f"Timed loop {traced['seconds']:g} s per run; "
        f"{len(runs) // max(len(workloads), 1)} traced run(s) per workload, "
        f"seeds {sorted({r['seed'] for r in runs})}; the median across runs "
        "is shown.  Written by `bench/e2e/report.py`; definitions in "
        "`bench/e2e/README.md`.",
        "",
    ]

    def table(title, metrics, sets, with_moves):
        columns = ["metric", "unit"] + workloads
        if with_moves:
            columns.append("should move")
        lines.extend([f"## {title}", "", "| " + " | ".join(columns) + " |",
                      "|" + "---|" * len(columns)])
        for metric in metrics:
            name = metric["name"]
            cells = []
            for w in workloads:
                values = [r["metrics"][name]["value"] for r in sets[w]
                          if name in r["metrics"]]
                cells.append(fmt(statistics.median(values)) if values
                             else "")
            lines.append(f"| `{name}` | {metric['unit']} | " +
                         " | ".join(cells) + " |" +
                         (f" {moves(name)} |" if with_moves else ""))
        lines.append("")

    if args.untraced:
        untraced = [r for r in load(args.untraced)["runs"]
                    if not r["traced"]]
        e2e_sets = {w: [r for r in untraced if r["workload"] == w]
                    for w in workloads}
        counts = "/".join(str(n) for n in sorted(
            {len(v) for v in e2e_sets.values()}))
        batches = ", ".join(
            f"{w} " + fmt(statistics.median(
                r["samples"]["batches"] for r in e2e_sets[w]))
            for w in workloads)
        table(f"End-to-end (untraced, median of {counts} runs; batches per "
              f"run: {batches})", spec["end_to_end"], e2e_sets, False)

    table("Per-layer metrics (traced runs)", spec["per_layer"], by_workload,
          True)

    lines.extend([
        "## Self time by layer (first traced run of each workload)", "",
        "Spans cover every other batch of the timed loop (the others are the "
        "untraced half of `trace_overhead_pct`) and all of set-up, factor "
        "and the probes, so the root `workload` span's self time is mostly "
        "the untraced batches.  `share` is self time over the root span.",
        ""])
    for w in workloads:
        totals, root = self_times(by_workload[w][0]["trace_file"])
        lines.extend([f"### {w}", "",
                      "| span | backend | calls | self s | self ms/call | "
                      "share |", "|---|---|---|---|---|---|"])
        for (name, backend), (calls, self_s) in sorted(
                totals.items(), key=lambda kv: -kv[1][1]):
            lines.append(f"| `{name}` | {backend or '-'} | {calls} | "
                         f"{self_s:.4f} | {1e3 * self_s / calls:.3f} | "
                         f"{self_s / root:.1%} |")
        lines.append("")

    text = "\n".join(lines)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
