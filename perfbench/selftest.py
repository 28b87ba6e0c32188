"""Show that every correctness check can fail.

    python3 perfbench/selftest.py

Runs one round of each workload (seed 0), checks that every check passes
on the real outputs, then moves each checked value just past its limit and
checks that the named check fails. Exits 1 if any check passes when it
should not, or fails when it should not.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
from workloads import FARM_R_MAX, farm_trace_path  # noqa: E402


def _set(col, idx, value):
    def edit(summary, rows):
        rows[col][idx] = value(rows, summary) if callable(value) else value
    return edit


def _set_oracle(delta):
    def edit(summary, rows):
        summary["aggregates"][0]["means"]["oracle_value"] += delta
    return edit


def _rows_at_v(rows, v):
    return rows["v"].index(v)


def energy_cases(rows):
    top = _rows_at_v(rows, 100.0)
    mid = _rows_at_v(rows, 10.0)
    low = _rows_at_v(rows, 1.0)
    exact = checks.energy_closed_form(5)
    return [
        ("energy.oracle", "oracle off by 1e-8", _set_oracle(1e-8)),
        ("energy.gap", "V=100 energy 5.1% above the optimum",
         _set("penalty_avg", top, exact * 1.051)),
        ("energy.monotone", "V=10 energy 1.1% above V=1",
         _set("penalty_avg", mid, lambda r, s: r["penalty_avg"][low] * 1.011)),
        ("energy.service", "class 2 served 0.051 below its rate",
         _set("metric_avg_1", top, -(checks.ENERGY_LAMBDA[1] - 0.051))),
    ]


def ocmdp_cases(rows, horizon):
    tol_f, tol_g = checks.ocmdp_tolerances(horizon)
    exact = checks.stationary_lp_by_vertices()
    return [
        ("ocmdp.oracle", "oracle off by 1e-8", _set_oracle(1e-8)),
        ("ocmdp.penalty", "penalty just past its tolerance below the oracle",
         _set("penalty_avg", 0, exact - tol_f * 1.001)),
        ("ocmdp.violation", "violation just past its tolerance",
         _set("violation_avg_0", 3, tol_g * 1.001)),
    ]


def bandit_cases(rows, horizon):
    ref = checks.bandit_reference()
    noise = checks.bandit_noise(horizon)
    bound = checks.bandit_queue_bound(rows["v"][0])
    return [
        ("bandit.oracle", "oracle off by 1e-7", _set_oracle(1e-7)),
        ("bandit.gap", "throughput 2.01% short",
         _set("throughput_avg", 0, ref * (1 - 0.0201))),
        ("bandit.gap", "throughput above the optimum beyond sampling noise",
         _set("throughput_avg", 0, ref + noise * 1.001)),
        ("bandit.power", "power 5.051", _set("power_avg", 0, 5.051)),
        ("bandit.queue", "queue max just above its bound",
         _set("queue_max", 0, bound + 1e-6)),
    ]


def farm_cases(rows, c_max):
    top = _rows_at_v(rows, 500.0)
    mid = _rows_at_v(rows, 50.0)
    return [
        ("queue", "V=500 queue max just above V*c_max + r_max",
         _set("queue_max", top, 500.0 * c_max + FARM_R_MAX + 1e-6)),
        ("power", "V=500 power 1e-9 above V=50",
         _set("power_avg", top, lambda r, s: r["power_avg"][mid] + 1e-9)),
    ]


def main() -> int:
    bad = 0
    for name in ("energy-sweep", "ocmdp-learn", "bandit-oracle", "farm-trace"):
        bench = run.Bench(name, seed=0)
        try:
            if bench.spawn(trace=False) is None:
                print(f"FAIL {name}: the round raised: {bench.problems}")
                bad += 1
                continue
            outputs = {exp: checks.read_outputs(out)
                       for exp, out in bench.out_dirs.items()}
            c_max = checks.trace_cost_max(farm_trace_path(bench.work)) \
                if name == "farm-trace" else None
        finally:
            shutil.rmtree(bench.work, ignore_errors=True)

        suites = []  # (check function, summary, rows, cases)
        for exp, (summary, rows) in outputs.items():
            horizon = int(summary["experiment"]["horizon"])
            if name == "energy-sweep":
                suites.append((checks.energy, summary, rows, energy_cases(rows)))
            elif name == "ocmdp-learn":
                suites.append((checks.ocmdp, summary, rows,
                               ocmdp_cases(rows, horizon)))
            elif name == "bandit-oracle":
                suites.append((checks.bandit, summary, rows,
                               bandit_cases(rows, horizon)))
            else:
                def fn(s, r, mode=exp):
                    return checks.farm(mode, s, r, c_max=c_max, r_max=FARM_R_MAX)
                cases = [(f"farm.{exp}.{tag}", what, edit)
                         for tag, what, edit in farm_cases(rows, c_max)]
                suites.append((fn, summary, rows, cases))

        for fn, summary, rows, cases in suites:
            failing = [c.name for c in fn(summary, rows) if not c.passed]
            if failing:
                print(f"FAIL {name}: unperturbed outputs fail {failing}")
                bad += 1
            for target, what, edit in cases:
                s, r = copy.deepcopy(summary), copy.deepcopy(rows)
                edit(s, r)
                caught = any(c.name == target and not c.passed for c in fn(s, r))
                print(f"{'ok  ' if caught else 'FAIL'} {target} fails when "
                      f"{what}")
                bad += not caught
    print("all checks can fail" if not bad else f"{bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
