#!/usr/bin/env python3
"""Command-line legs for sparts_solve.

Usage: solve_cli_test.py <sparts_solve> flags|counts

  flags   -- --condest, --refine and --report print their sections and
             the solve exits 0, on the host (--procs 0) and on the
             distributed pipeline (--procs 4, sim and tasks): one output
             path serves both.  --check and --faults exit 1 at
             --procs 0, where no message layer runs.
  counts  -- a negative --procs or --nrhs exits 1 with an error naming
             the flag, instead of a host solve or an allocation failure.
"""

import subprocess
import sys

SOLVE = None
FAILURES = []


def run(args):
    proc = subprocess.run([SOLVE] + args, timeout=120, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    print(f"--- {' '.join(args)}: exit {proc.returncode}")
    sys.stdout.write(proc.stdout)
    sys.stdout.write(proc.stderr)
    return proc


def check(name, cond, detail=""):
    print(f"PASS {name}" if cond else f"FAIL {name} {detail}")
    if not cond:
        FAILURES.append(name)


def leg_flags():
    for procs, backend in (("0", "sim"), ("4", "sim"), ("4", "tasks")):
        name = f"flags.p{procs}.{backend}"
        p = run(["--grid2d", "20", "--procs", procs, "--backend", backend,
                 "--condest", "--refine", "2", "--report"])
        check(f"{name}.exit", p.returncode == 0, f"exit={p.returncode}")
        for want in ("=== SPARTS analysis report ===", "refinement: ",
                     "condition estimate: cond_1(A) ~ ", "forward solve",
                     "relative residual: "):
            check(f"{name}.prints '{want.strip()}'", want in p.stdout)
    for layer in (["--check"], ["--faults", "seed=1"]):
        name = f"flags.p0{layer[0]}"
        p = run(["--grid2d", "8"] + layer)
        check(f"{name}.exit", p.returncode == 1, f"exit={p.returncode}")
        check(f"{name}.names_host",
              "not the host solve (p = 0)" in p.stderr, p.stderr)


def leg_counts():
    for flag in ("--procs", "--nrhs"):
        p = run(["--grid2d", "8", flag, "-3"])
        check(f"counts{flag}.exit", p.returncode == 1, f"exit={p.returncode}")
        check(f"counts{flag}.names_flag",
              f"error: {flag} expects a count >= 0" in p.stderr, p.stderr)


def main():
    global SOLVE
    if len(sys.argv) != 3 or sys.argv[2] not in ("flags", "counts"):
        print("usage: solve_cli_test.py <sparts_solve> flags|counts")
        return 2
    SOLVE = sys.argv[1]
    {"flags": leg_flags, "counts": leg_counts}[sys.argv[2]]()
    if FAILURES:
        print("FAILED:", ", ".join(FAILURES))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
