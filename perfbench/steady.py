#!/usr/bin/env python3
"""Steadiness report: run one workload on several seeds and show, per
end-to-end metric, the median and the spread between the first and the
third quartile as a share of the median, beside the bound BENCHMARK.json
fixes for it. The host-speed reading each run took before measuring is
listed too, so a slow host can be told apart from a slow program.

    python3 perfbench/steady.py --workload serve --runs 10 [--first-seed 1]

Run from the root of a checkout; each run is one `perfbench/run.py`.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.monotonic() - t0
        host = re.search(r"host_loop_ms=([0-9.]+)", done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            print(f"seed {seed}: run failed\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append((seed, float(host.group(1)) if host else float("nan"), result, values))
        print(f"seed {seed}: run_wall_s={wall:.1f} host_loop_ms={runs[-1][1]:.1f} correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
    print(f"\n{args.workload}: {len(runs)} runs of {seconds} s")
    print(f"{'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
    steady = True
    for name in runs[0][3]:
        vals = [r[3][name] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  above a third of the bound"
            steady = False
        print(f"{name:<14}{med:>14.5g}{q1:>14.5g}{q3:>14.5g}{spread:>9.3f}{bound if bound else '':>7}{flag}")
    hosts = [r[1] for r in runs]
    print(f"host_loop_ms  median {statistics.median(hosts):.1f}, min {min(hosts):.1f}, max {max(hosts):.1f}")
    return 0 if steady and all(r[2]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
