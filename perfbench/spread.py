#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median, quartiles and spread (quartile distance over the median) against
its bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --seeds 10 [--workloads repro_full,...]
        [--first-seed 1] [--out perfbench/baseline/set1.json]

A spread at or under a third of the bound is steady; over the bound, the
metric cannot resolve a regression of that size. Every metric is flagged
that way, `setup_s` too, but the summary line leaves `setup_s` out: the
spread rule exempts it (its medians must agree between sets instead).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} reported incorrect output:\n{proc.stderr[-2000:]}")
    return result, elapsed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"nproc": os.cpu_count(), "cpu": cpu_model(), "seeds": args.seeds,
              "first_seed": args.first_seed, "run_seconds": bench["run_seconds"],
              "workloads": {}}
    worst = 0.0
    for w in workloads:
        values = {name: [] for name in bounds}
        elapsed = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, secs = run_once(bench["command"], w, seed, bench["run_seconds"])
            elapsed.append(secs)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        print(f"{w}: {args.seeds} runs, {min(elapsed):.1f}-{max(elapsed):.1f} s each")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            share = spread / bounds[name]
            if name != "setup_s":
                worst = max(worst, share)
            flag = "" if share <= 1 / 3 else "  <-- over a third of the bound"
            if share > 1:
                flag = "  <-- OVER the bound" + (" (exempt)" if name == "setup_s" else "")
            print(f"  {name:16s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  bound {bounds[name]:.2f}{flag}")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": vals}
        report["workloads"][w] = {"metrics": rows, "run_s": elapsed}
    print(f"largest spread over bound (setup_s exempt): {worst:.3f}")
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
