"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --runs 10 [--first-seed 1] [WORKLOAD ...]

Runs ``run.py`` once per seed on each workload (seeds first-seed ..
first-seed + runs - 1, run length from ``BENCHMARK.json``) and prints, per
workload and metric, the median, the first and third quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(Q3 - Q1) / median. The values go to
``.perfbench_out/steadiness-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: not correct", file=sys.stderr)
                return 1
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
        raw[workload] = values
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print(f"{workload:14s} {name:12s} median {med:12.6g}  "
                  f"Q1 {q1:12.6g}  Q3 {q3:12.6g}  spread "
                  f"{(q3 - q1) / med:7.2%}  (bound {bounds[name]:.0%})",
                  flush=True)
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(ROOT, ".perfbench_out",
                           f"steadiness-{stamp}.json"), "w") as handle:
        json.dump(raw, handle, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
