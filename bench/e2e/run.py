#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (bench_e2e); see README.md here.

Each workload runs in its own bench_e2e process.  Every metric is printed
as `name value unit`; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the `end_to_end` set of BENCHMARK.json, with --trace 1 the `per_layer`
set (from a traced run).  The exit status is non-zero when an op failed,
threads and tasks disagreed, or a backward error exceeded 1e-12.

  # one run (the form BENCHMARK.json's command takes)
  python3 bench/e2e/run.py --workload chain --seed 1 --seconds 24 --trace 0
  # every workload, 5 seeds each; medians and quartiles, BENCH_e2e.json
  python3 bench/e2e/run.py --reps 5 --seed 100 --out BENCH_e2e.json
  # tiny sizes: metric names, failures, bit-identity, trace validity
  python3 bench/e2e/run.py --smoke
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
MAX_BACKWARD_ERROR = 1e-12
# A single run, build included, must end within 180 s; the bench_e2e
# process is killed when this much has passed since run.py started.
DEADLINE_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configure and build bench_e2e from the checkout; returns its path."""
    os.makedirs(BUILD, exist_ok=True)
    with open(BUILD + ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise SystemExit("bench_e2e: cmake configure failed")
        jobs = str(os.cpu_count() or 1)
        if subprocess.run(["cmake", "--build", BUILD, "--target", "bench_e2e",
                           "-j", jobs], stdout=sys.stderr).returncode != 0:
            raise SystemExit("bench_e2e: build failed")
    return os.path.join(BUILD, "bench_e2e")


def run_once(binary, workload, seed, seconds, traced, timeout=None):
    """One bench_e2e process; returns its parsed JSON report."""
    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, f"{workload}-{seed}{'-trace' if traced else ''}")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--json", stem + ".json"]
    if traced:
        cmd += ["--trace", stem + ".trace.json"]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"bench_e2e: {workload} seed {seed} timed out")
    if proc.returncode != 0:
        raise SystemExit(f"bench_e2e: {workload} seed {seed} exited "
                         f"{proc.returncode}")
    with open(stem + ".json", encoding="utf-8") as f:
        report = json.load(f)
    if traced:
        report["trace_file"] = stem + ".trace.json"
    return report


def problems(report, names):
    """Why a report fails the correctness checks (empty when it passes)."""
    out = []
    if report["failed"]:
        out.append(f"{report['failed']} of {report['attempted']} ops failed")
    if not report["identical"]:
        out.append("threads and tasks returned different bits")
    berr = report["metrics"].get("backward_error", {}).get("value")
    if berr is None or not berr <= MAX_BACKWARD_ERROR:
        out.append(f"backward error {berr} above {MAX_BACKWARD_ERROR}")
    for name in names:
        value = report["metrics"].get(name, {}).get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            out.append(f"metric {name} missing or not finite")
    return out


def metric_names(spec, traced):
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def print_report(report, names):
    p, s = report["problem"], report["samples"]
    print(f"# {report['workload']} seed {report['seed']}: n={p['n']} "
          f"nnz(L)={p['nnz_l']} m={p['m']} p={p['p']}  samples: "
          f"setup={s['setup']} factor={s['factor']} batches={s['batches']} "
          f"(beyond p90: {s['beyond_p90']})")
    for name in names:
        m = report["metrics"][name]
        print(f"{name} {m['value']:.6g} {m['unit']}")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def smoke(binary):
    """Tiny sizes: every metric present, no failure, trace_check passes."""
    spec = load_spec()
    names = metric_names(spec, False) + metric_names(spec, True)
    bad = []
    for workload in ("smoke-grid", "smoke-chain"):
        report = run_once(binary, workload, 1, 1, True)
        bad += [f"{workload}: {p}" for p in problems(report, names)]
        check = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "trace_check.py"),
             "--quiet", report["trace_file"]], stdout=sys.stderr)
        if check.returncode != 0:
            bad.append(f"{workload}: trace_check.py rejected the trace")
    for b in bad:
        log("FAIL:", b)
    print("smoke: " + ("FAIL" if bad else "OK"))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="workload name (repeatable; default: all in "
                         "BENCHMARK.json)")
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of the first rep (rep k uses seed + k)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed solve loop (default: "
                         "run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run, report the per-layer metrics")
    ap.add_argument("--reps", type=int, default=1,
                    help="runs per workload, one process each")
    ap.add_argument("--out", help="write every run's report to this JSON file")
    ap.add_argument("--smoke", action="store_true",
                    help="smoke test at tiny sizes")
    ap.add_argument("--binary", help="use this bench_e2e instead of building")
    args = ap.parse_args()

    started = time.monotonic()
    spec = load_spec()
    binary = args.binary or build()
    if args.smoke:
        return smoke(binary)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    traced = bool(args.trace)
    names = metric_names(spec, traced)
    single = len(workloads) == 1 and args.reps == 1

    reports, bad = [], []
    for workload in workloads:
        for rep in range(args.reps):
            timeout = DEADLINE_S - (time.monotonic() - started) if single \
                else None
            report = run_once(binary, workload, args.seed + rep, seconds,
                              traced, timeout=timeout)
            reports.append(report)
            print_report(report, names)
            bad += [f"{workload} seed {report['seed']}: {p}"
                    for p in problems(report, names)]

    metrics = {}
    if single:
        metrics = {n: reports[0]["metrics"][n] for n in names}
    else:
        print(f"# host: {json.dumps(reports[0]['host'])}")
        print("# median over reps [q1 q3] (n = reps) per workload")
        for workload in workloads:
            runs = [r for r in reports if r["workload"] == workload]
            for name in names:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                unit = runs[0]["metrics"][name]["unit"]
                print(f"{workload} {name} {med:.6g} {unit} "
                      f"[{q1:.6g} {q3:.6g}] n={len(values)}")
                metrics[f"{workload}:{name}"] = {"value": med, "unit": unit}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"bench": "e2e", "seconds": seconds, "trace": args.trace,
                       "runs": reports}, f, indent=1)
            f.write("\n")
    for b in bad:
        log("FAIL:", b)
    print(json.dumps({
        "correct": not bad,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
