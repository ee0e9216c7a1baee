#!/usr/bin/env python3
"""Benchmark entry point for the bap reproduction.

    python3 perfbench/run.py --workload sweep|scale|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. It builds the measuring program
(perfbench/bench.exe) and the serve daemon from source with dune, runs
one workload in a fresh process, and prints that process's JSON result
as the last line of stdout. Build output, the host-speed reading, oracle
findings and the traced run's per-layer table go to stderr. dune builds
into _build/; everything the run writes stays under .perfbench/.

--self-test runs every workload with a seeded sabotage (a flipped serve
response byte, a perturbed scale count, an altered sweep row) and exits
0 only if each oracle counted the damage as failed operations.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading

WORKLOADS = ["sweep", "scale", "serve"]
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
SERVE = os.path.join("_build", "default", "bin", "bap_serve.exe")
RUN_TIMEOUT_S = 170
SWITCH_S = 0.1


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def environment(work):
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(DUNE_CACHE="disabled", TMPDIR=tmp, XDG_CACHE_HOME=os.path.join(work, "cache"))
    return env


def build(env):
    cmd = ["dune", "build", "--root", ".", "-j", "2", "--display", "quiet",
           "./perfbench/bench.exe", "./bin/bap_serve.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        log("run.py: dune not found")
        return False
    if done.returncode != 0:
        log("run.py: build failed")
        return False
    return True


def alternate(pid, stop):
    """Until [stop], every SWITCH_S move process [pid]'s main thread and
    each of its child processes one CPU on, each on a CPU of its own."""
    cpus = sorted(os.sched_getaffinity(0))
    k = 0
    while not stop.wait(SWITCH_S):
        try:
            with open(f"/proc/{pid}/task/{pid}/children") as f:
                kids = [int(c) for c in f.read().split()]
        except OSError:
            return
        for i, p in enumerate([pid] + kids):
            try:
                os.sched_setaffinity(p, {cpus[(k + i) % len(cpus)]})
            except OSError:
                pass
        k += 1


def measure(args, work, env, sabotage=False):
    """Run one workload; the parsed JSON result, or None."""
    cmd = [os.path.join(".", BENCH), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work,
           "--serve-exe", os.path.join(".", SERVE)]
    if sabotage:
        cmd.append("--sabotage")
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, start_new_session=True)
    # On a shared host each CPU slows down in phases of its own, seconds
    # long, as its neighbours contend for cache and memory. Left to the
    # scheduler, a busy process settles on one CPU and reads that CPU's
    # phases for the whole run; moved from CPU to CPU every SWITCH_S, it
    # reads their mix. serve's client and daemon stay on different CPUs.
    stop = threading.Event()
    threading.Thread(target=alternate, args=(proc.pid, stop), daemon=True).start()
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
        out = b""
    finally:
        stop.set()
        # The workload's daemons share its session: stop whatever is left.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"run.py: {args.workload} exited with {proc.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("run.py: the last line is not a JSON result")
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("run.py: malformed result")
        return None
    return result


def self_test(work, env):
    fired = True
    for workload in WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=7, seconds=1, trace=0)
        result = measure(args, work, env, sabotage=True)
        ok = result is not None and not result["correct"] and result["failed"] >= 1
        log(f"self-test {workload}: "
            + (f"oracle counted {result['failed']} failed of {result['attempted']}" if result else "no result")
            + (" -- ok" if ok else " -- SABOTAGE NOT DETECTED"))
        fired = fired and ok
    return 0 if fired else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    work = os.path.abspath(".perfbench")
    env = environment(work)
    if not build(env):
        return 1
    if args.self_test:
        return self_test(work, env)
    result = measure(args, work, env)
    if result is None:
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
