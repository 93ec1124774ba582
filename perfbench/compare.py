#!/usr/bin/env python3
"""Compare two sets of runs written by `spread.py --out` and print a
markdown table per workload: each end-to-end metric's median and
quartiles in both sets, its spread, and the second median as a share of
the first, checked against the metric's bound in the worse direction.

    python3 perfbench/compare.py perfbench/baseline/set1.json perfbench/baseline/set2.json

Exits 1 when a spread exceeds its bound or the second median is worse
than the first by more than the bound. A setup_s spread over its bound is
exempt from the exit status (its medians must still agree) but is shown
as such, never as "ok".
"""

import json
import sys


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        first = json.load(f)
    with open(sys.argv[2]) as f:
        second = json.load(f)
    with open("BENCHMARK.json") as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

    print(f"nproc {first['nproc']}, CPU {first['cpu']}, "
          f"{first['seeds']} seeds per workload per set, run_seconds {first['run_seconds']}\n")
    ok = True
    for workload, a in first["workloads"].items():
        b = second["workloads"][workload]
        print(f"### {workload}\n")
        print("| metric | median 1 | q1–q3 1 | spread 1 | median 2 | q1–q3 2 | spread 2 "
              "| 2 / 1 | bound | verdict |")
        print("|---|---|---|---|---|---|---|---|---|---|")
        for name, m1 in a["metrics"].items():
            m2 = b["metrics"][name]
            bound = m1["bound"]
            ratio = m2["median"] / m1["median"] if m1["median"] else float("nan")
            worse = ratio - 1 if better[name] == "lower" else 1 - ratio
            spread_ok = max(m1["spread"], m2["spread"]) <= bound
            if worse > bound or not (spread_ok or name == "setup_s"):
                verdict = "FAIL"
                ok = False
            elif spread_ok:
                verdict = "ok"
            else:
                verdict = "spread over bound (exempt)"
            print(f"| {name} | {m1['median']:.5g} | {m1['q1']:.4g}–{m1['q3']:.4g} "
                  f"| {m1['spread']:.3f} | {m2['median']:.5g} | {m2['q1']:.4g}–{m2['q3']:.4g} "
                  f"| {m2['spread']:.3f} | {ratio:.3f} | {bound} | {verdict} |")
        print()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
