"""renewalopt benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload energy-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root. The workload's configs are made from
``--seed``; the run then repeats whole rounds of them, each round in a fresh
interpreter (``child.py``) with numpy's BLAS on one thread, until
``--seconds`` are used up. After every round the outputs are checked
(``checks.py``); a cell fails if its round raised or a check on it failed.
The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` cells, and the medians over rounds of the
end-to-end metrics (``--trace 0``) or of the per-layer metrics
(``--trace 1``, which alternates untraced and traced rounds and also writes
the per-layer figures to ``.perfbench_out/trace-<workload>-s<seed>.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    METRICS = json.load(_handle)
# name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {m["name"]: m["unit"] for m in METRICS["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in METRICS["per_layer"]}
# one thread for numpy's BLAS, so an oracle solve's time does not depend on
# what else holds the machine's second core; a fixed hash seed, so every
# round's interpreter lays out its dicts and sets alike
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
# sweep keys each kind crosses, for the cell count of a config
SWEEPS = {"coupled-energy": ("v_values",), "bandit": ("v_values",),
          "datacenter": ("v_values",), "ocmdp": ("v_values", "alpha_values")}


def cell_count(config: dict) -> int:
    count = config["replications"]
    for key in SWEEPS[config["kind"]]:
        count *= len(config[key])
    return count


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = WORKLOADS[workload]
        self.work = os.path.join(OUT, f"{workload}-s{seed}-{os.getpid()}")
        os.makedirs(self.work)
        self.configs = self.workload.configs(seed, self.work)
        self.paths = []
        self.out_dirs = {}
        for name, config in self.configs.items():
            config = dict(config, out_dir=os.path.join(self.work, "out", name))
            self.out_dirs[name] = config["out_dir"]
            path = os.path.join(self.work, f"{name}.json")
            with open(path, "w") as handle:
                json.dump(config, handle, indent=2)
            self.paths.append(path)
        self.cells = sum(cell_count(c) for c in self.configs.values())
        self.env = dict(os.environ, **PINNED)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def spawn(self, trace: bool, setup_only: bool = False):
        """Run one round in a fresh interpreter; its report, or None."""
        round_path = os.path.join(self.work, "round.json")
        for out_dir in self.out_dirs.values():
            shutil.rmtree(out_dir, ignore_errors=True)
        with open(round_path, "w") as handle:
            json.dump({"configs": self.paths, "trace": trace,
                       "setup_only": setup_only,
                       "spawned_at": time.monotonic()}, handle)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), round_path],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=150)
        except subprocess.TimeoutExpired:
            self.problems.append("round ran past 150 s")
            return None
        if proc.returncode != 0:
            self.problems.append(" ".join(proc.stderr.strip().splitlines()[-1:]))
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def round(self, trace: bool):
        """One checked round: its report, or None if any cell failed."""
        report = self.spawn(trace)
        self.attempted += self.cells
        if report is None:
            self.failed += self.cells
            return None
        try:
            results = self.workload.check(self.out_dirs, self.work)
        except (OSError, ValueError, KeyError, StopIteration) as err:
            results = None
            self.problems.append(f"outputs unreadable: {err!r}")
        if results is None:
            self.failed += self.cells
            return None
        bad = set()  # (experiment, row) of every cell a failed check covers
        for check in results:
            if not check.passed:
                self.problems.append(f"{check.name}: {check.detail}")
                bad.update((check.name.rsplit(".", 1)[0], i) for i in check.rows)
        self.failed += min(len(bad), self.cells)
        return report if not bad else None


def median_metrics(reports, keys):
    return {key: statistics.median(r[key] for r in reports) for key in keys}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "renewalopt")):
        print(f"error: no renewalopt sources under {ROOT}/src", file=sys.stderr)
        return 2
    # on SIGTERM, unwind: subprocess.run kills and waits for the round
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    os.makedirs(OUT, exist_ok=True)
    bench = Bench(args.workload, args.seed)
    try:
        # first interpreter start compiles the sources; keep it out of setup_s
        bench.spawn(trace=False, setup_only=True)
        deadline = time.monotonic() + args.seconds
        kinds = [False, True] if args.trace else [False]
        plain, traced, lasted = [], [], []
        while True:
            t0 = time.monotonic()
            for trace in kinds:
                report = bench.round(trace)
                if report is not None:
                    (traced if trace else plain).append(report)
            lasted.append(time.monotonic() - t0)
            if time.monotonic() + statistics.median(lasted) > deadline:
                break
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    correct = bench.failed == 0 and bool(plain) and (bool(traced) or not args.trace)
    metrics = {}
    if correct and not args.trace:
        for r in plain:
            r["slots_per_s"] = r["slots"] / r["cell_s"]
        med = median_metrics(plain, END_TO_END)
        metrics = {name: {"value": med[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    elif correct:
        med = median_metrics([r["layers"] for r in traced],
                             traced[0]["layers"])
        med["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain))
        metrics = {name: {"value": med[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        with open(os.path.join(
                OUT, f"trace-{args.workload}-s{args.seed}.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "traced_rounds": len(traced), "metrics": med}, fh,
                      indent=2)
    for problem in bench.problems[:20]:
        print(f"FAIL {problem}")
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced rounds, {bench.attempted} cells attempted, "
          f"{bench.failed} failed")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
