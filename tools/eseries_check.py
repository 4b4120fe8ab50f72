#!/usr/bin/env python3
"""Check that the deterministic default-scale E-series benches still print
exactly what results/ holds.

Usage: tools/eseries_check.py BUILD_DIR

Runs each bench below from BUILD_DIR/bench at the default scale
(SPARTS_BENCH_SCALE=0.35, SPARTS_BENCH_MAXP=64) and compares its stdout
byte for byte with results/<bench>.txt.  These benches print simulated
times only, so any difference means the simulated program changed.  Exit
status: 0 when every output matches, 1 otherwise (the first differing
lines of each mismatch are printed), 2 on a usage error.
"""

import difflib
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHES = (
    "bench_fig1_example",
    "bench_fig3_pipeline",
    "bench_fig4_pipeline_back",
    "bench_ablation_pipeline",
    "bench_1d_vs_2d_solve",
    "bench_fig5_table",
    "bench_eq12_model_fit",
    "bench_dense_vs_sparse",
    "bench_isoefficiency",
)
ENV = {"SPARTS_BENCH_SCALE": "0.35", "SPARTS_BENCH_MAXP": "64"}
MAX_DIFF_LINES = 20


def check(build_dir, bench):
    """Run one bench; returns a list of problems (empty when it matches)."""
    binary = os.path.join(build_dir, "bench", bench)
    if not os.access(binary, os.X_OK):
        return [f"{binary}: not built"]
    with open(os.path.join(ROOT, "results", bench + ".txt"),
              encoding="utf-8") as f:
        expected = f.read()
    proc = subprocess.run([binary], env={**os.environ, **ENV},
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        return [f"{bench} exited {proc.returncode}: {proc.stderr.strip()}"]
    if proc.stdout == expected:
        return []
    diff = difflib.unified_diff(expected.splitlines(), proc.stdout.splitlines(),
                                f"results/{bench}.txt", "output", lineterm="")
    return [f"{bench}: output differs from results/{bench}.txt"] + [
        "  " + line for line in list(diff)[:MAX_DIFF_LINES]]


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = 0
    for bench in BENCHES:
        t0 = time.monotonic()
        problems = check(argv[1], bench)
        status = "differs" if problems else "identical"
        print(f"{bench:28s} {status} ({time.monotonic() - t0:.1f} s)",
              flush=True)
        for line in problems:
            print(line)
        failed += bool(problems)
    print(f"{len(BENCHES) - failed}/{len(BENCHES)} E-series outputs identical "
          "to results/")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
