#!/usr/bin/env python3
"""End-to-end cohort legs for the process backend.

Drives the REAL binaries the way a user (or CI) would:

    sparts_launch --procs P -- sparts_solve --grid2d N --backend proc ...

Every leg passes the launcher a --logdir that the script removes itself,
so a leg leaves nothing in /tmp whatever its outcome.

Legs:

  1. clean        -- p=4 solve exits 0 on every rank, launcher aggregate 0,
                     and the launcher removed its rendezvous directory.
  2. crash        -- SPARTS_TEST_KILL SIGKILLs rank 1 two sends into the
                     forward sweep; the killed rank must show 137, every
                     SURVIVOR must exit 3 by itself (structured SolveError
                     naming the suspected rank) -- no hangs, no launcher
                     grace-kill.
  3. recovery     -- a crash run with --checkpoint leaves factor.bin +
                     factor.meta behind; the rerun loads the cached factor
                     (skipping factorization) and exits 0.
  4. chaos-corrupt / chaos-delay -- lossy-wire legs must still exit 0:
                     the reliability envelope retransmits below the solver.
  5. chaos-partition -- a partition held from t=0 past the suspicion
                     threshold must surface as exit 3 on every rank within
                     the launcher timeout (abort, not a hang).
  6. logdir-created -- a --logdir naming a missing nested directory is
                     created: rank 1's residual line lands in rank-1.log,
                     and the launcher's own output holds rank 0's alone.
  7. logdir-unusable -- a --logdir naming a regular file fails the launch
                     with a message naming the path, before any rank runs.

Usage: proc_launch_test.py <sparts_launch> <sparts_solve>
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile

LAUNCH = None
SOLVE = None
FAILURES = []


def run(name, launch_args, solve_args, env_extra=None, timeout=240):
    env = dict(os.environ)
    env.pop("SPARTS_CHAOS", None)
    env.pop("SPARTS_TEST_KILL", None)
    if env_extra:
        env.update(env_extra)
    logdir = tempfile.mkdtemp(prefix="sparts_logs.")
    try:
        cmd = ([LAUNCH, "--logdir", logdir] + launch_args + ["--", SOLVE]
               + solve_args)
        proc = subprocess.run(
            cmd, env=env, timeout=timeout,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        print(f"--- {name}: exit {proc.returncode}")
        sys.stdout.write(proc.stdout)
        for log in sorted(os.listdir(logdir)):
            with open(os.path.join(logdir, log)) as f:
                print(f"--- {name}: {log}")
                sys.stdout.write(f.read())
    finally:
        shutil.rmtree(logdir, ignore_errors=True)
    return proc


def launch(name, launch_args, solve_args, timeout=120):
    """Run the launcher with exactly `launch_args` (no --logdir added)."""
    env = dict(os.environ)
    env.pop("SPARTS_CHAOS", None)
    env.pop("SPARTS_TEST_KILL", None)
    proc = subprocess.run(
        [LAUNCH] + launch_args + ["--", SOLVE] + solve_args, env=env,
        timeout=timeout, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    print(f"--- {name}: exit {proc.returncode}")
    sys.stdout.write(proc.stdout)
    return proc


def rank_codes(output):
    """Parse 'sparts_launch: rank R exited C' lines -> {rank: code}."""
    codes = {}
    for m in re.finditer(r"rank (\d+) exited (\d+)", output):
        codes[int(m.group(1))] = int(m.group(2))
    return codes


def check(name, cond, detail=""):
    if cond:
        print(f"PASS {name}")
    else:
        print(f"FAIL {name} {detail}")
        FAILURES.append(name)


def leg_clean():
    p = run("clean", ["--procs", "4", "--timeout", "120"],
            ["--grid2d", "12", "--nrhs", "2"])
    codes = rank_codes(p.stdout)
    check("clean.aggregate", p.returncode == 0, f"exit={p.returncode}")
    check("clean.ranks", codes == {0: 0, 1: 0, 2: 0, 3: 0}, f"codes={codes}")
    m = re.search(r"rendezvous (\S+),", p.stdout)
    rendezvous = m.group(1) if m else None
    check("clean.rendezvous_removed",
          rendezvous is not None and not os.path.exists(rendezvous),
          f"rendezvous={rendezvous}")


def leg_crash():
    p = run("crash", ["--procs", "4", "--timeout", "120", "--grace", "60"],
            ["--grid2d", "12", "--nrhs", "2"],
            env_extra={"SPARTS_TEST_KILL": "1@forward+2"})
    codes = rank_codes(p.stdout)
    check("crash.killed_rank", codes.get(1) == 137, f"codes={codes}")
    survivors = {r: c for r, c in codes.items() if r != 1}
    # Every survivor must have aborted ITSELF with the structured error
    # (exit 3); a grace-window SIGKILL (137) would mean a hang.
    check("crash.survivors_exit_3",
          survivors == {0: 3, 2: 3, 3: 3}, f"codes={codes}")
    check("crash.names_suspect", "suspected rank 1" in p.stdout)
    check("crash.aggregate", p.returncode == 3, f"exit={p.returncode}")


def leg_recovery():
    ckpt = tempfile.mkdtemp(prefix="sparts_ckpt.")
    try:
        p1 = run("recovery.crash",
                 ["--procs", "4", "--timeout", "120", "--grace", "60"],
                 ["--grid2d", "12", "--nrhs", "2", "--checkpoint", ckpt],
                 env_extra={"SPARTS_TEST_KILL": "1@forward+2"})
        check("recovery.crash_exit", p1.returncode == 3,
              f"exit={p1.returncode}")
        check("recovery.factor_cached",
              os.path.exists(os.path.join(ckpt, "factor.bin"))
              and os.path.exists(os.path.join(ckpt, "factor.meta")))
        p2 = run("recovery.rerun", ["--procs", "4", "--timeout", "120"],
                 ["--grid2d", "12", "--nrhs", "2", "--checkpoint", ckpt])
        check("recovery.rerun_exit", p2.returncode == 0,
              f"exit={p2.returncode}")
        check("recovery.skipped_factorization",
              "loaded from checkpoint" in p2.stdout)
    finally:
        shutil.rmtree(ckpt, ignore_errors=True)


def leg_chaos(name, spec, want_exit):
    p = run(f"chaos-{name}",
            ["--procs", "4", "--timeout", "120", "--grace", "60"],
            ["--grid2d", "12", "--nrhs", "2"],
            env_extra={"SPARTS_CHAOS": spec})
    if want_exit == 0:
        check(f"chaos-{name}.exit", p.returncode == 0, f"exit={p.returncode}")
    else:
        # Structured abort on EVERY rank: no zero exits, no 137 grace
        # kills (a 137 would mean a survivor hung instead of aborting).
        codes = rank_codes(p.stdout)
        check(f"chaos-{name}.exit", p.returncode == want_exit,
              f"exit={p.returncode}")
        check(f"chaos-{name}.all_abort",
              len(codes) == 4 and all(c == want_exit for c in codes.values()),
              f"codes={codes}")


def leg_logdir_created():
    scratch = tempfile.mkdtemp(prefix="sparts_logs.")
    try:
        logdir = os.path.join(scratch, "nested", "deeper")
        p = launch("logdir-created",
                   ["--procs", "2", "--timeout", "120", "--logdir", logdir],
                   ["--grid2d", "12", "--nrhs", "2"])
        check("logdir-created.exit", p.returncode == 0, f"exit={p.returncode}")
        check("logdir-created.dir", os.path.isdir(logdir))
        log = os.path.join(logdir, "rank-1.log")
        rank1 = open(log).read() if os.path.exists(log) else ""
        check("logdir-created.rank1_log", "relative residual" in rank1,
              f"rank-1.log={rank1!r}")
        check("logdir-created.stdout_rank0_only",
              p.stdout.count("relative residual") == 1,
              f"residual lines={p.stdout.count('relative residual')}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def leg_logdir_unusable():
    fd, path = tempfile.mkstemp(prefix="sparts_logdir_file.")
    os.close(fd)
    try:
        p = launch("logdir-unusable",
                   ["--procs", "2", "--timeout", "120", "--logdir", path],
                   ["--grid2d", "12", "--nrhs", "2"])
        check("logdir-unusable.exit", p.returncode != 0,
              f"exit={p.returncode}")
        check("logdir-unusable.names_path",
              f"cannot create log directory {path}" in p.stdout)
        check("logdir-unusable.no_rank_ran",
              not rank_codes(p.stdout) and "relative residual" not in p.stdout,
              f"codes={rank_codes(p.stdout)}")
    finally:
        os.unlink(path)


def main():
    global LAUNCH, SOLVE
    if len(sys.argv) != 3:
        print("usage: proc_launch_test.py <sparts_launch> <sparts_solve>")
        return 2
    LAUNCH, SOLVE = sys.argv[1], sys.argv[2]

    leg_clean()
    leg_crash()
    leg_recovery()
    # Below-the-envelope losses must be invisible to the solver.
    leg_chaos("corrupt", "seed=7,corrupt=0.05", 0)
    leg_chaos("delay", "seed=8,delay=0.2:0.002", 0)
    # A hard partition from t=0, held far longer than the suspicion
    # threshold, must abort (not hang) on all ranks.
    leg_chaos("partition", "seed=9,partition=0-2@0:60", 3)
    leg_logdir_created()
    leg_logdir_unusable()

    if FAILURES:
        print(f"{len(FAILURES)} leg check(s) FAILED: {FAILURES}")
        return 1
    print("all proc launch legs passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
