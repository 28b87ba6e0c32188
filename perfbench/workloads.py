"""The four benchmark workloads: the experiment configs each one runs, made
from the benchmark seed, and the correctness checks on what they write.

A workload is a list of experiments. Each experiment is one JSON config
that the user's path (``harness.load_config`` then ``harness.run_experiment``)
runs with ``jobs`` 1; together they make one round. Every round of a run
repeats the same configs, so its cells, and the work in them, repeat exactly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

import checks

# servers of the farm: (active power, service per slot, setup power, mean
# setup slots), all with one zero-power sleep mode and router cap 40
FARM_SERVERS = [
    (4.0, 4.0, 2.0, 5.893),
    (2.0, 3.0, 3.0, 4.342),
    (3.0, 3.0, 3.0, 27.397),
    (4.0, 2.0, 2.0, 5.817),
    (2.0, 3.0, 4.0, 6.211),
]
FARM_R_MAX = 40.0

ENERGY_HORIZON = 100_000
OCMDP_HORIZON = 1_000
BANDIT_HORIZON = 200_000
FARM_HORIZON = 10_000


@dataclass
class Workload:
    name: str
    # (seed, work directory) -> {experiment name: config mapping}
    configs: Callable[[int, str], Dict[str, dict]]
    # (experiment name -> output directory, work directory) -> check results
    check: Callable[[Dict[str, str], str], List[checks.Check]]


def _energy_configs(seed: int, work: str) -> Dict[str, dict]:
    return {"energy": {
        "kind": "coupled-energy", "instance": {"n_servers": 5},
        "v_values": [1, 10, 100], "horizon": ENERGY_HORIZON,
        "replications": 1, "seed": seed, "oracle": True, "jobs": 1}}


def _ocmdp_configs(seed: int, work: str) -> Dict[str, dict]:
    t = OCMDP_HORIZON
    # alpha = T is the acceptance criterion's step; alpha = T/10 takes ten
    # times longer steps, so the points it projects land farther out
    return {"ocmdp": {
        "kind": "ocmdp", "instance": {"example": "two-mdp"},
        "v_values": [math.sqrt(t)], "alpha_values": [t, t / 10],
        "horizon": t, "replications": 2, "seed": seed, "oracle": True,
        "jobs": 1}}


def _bandit_configs(seed: int, work: str) -> Dict[str, dict]:
    return {"bandit": {
        "kind": "bandit",
        "instance": {"users": "table-one", "m_servers": 4, "beta": 5},
        "v_values": [70], "horizon": BANDIT_HORIZON, "replications": 1,
        "seed": seed, "oracle": True, "jobs": 1}}


def farm_trace_path(work: str) -> str:
    return os.path.join(work, "farm_trace.csv")


def write_farm_trace(seed: int, path: str, horizon: int = FARM_HORIZON) -> None:
    """Poisson arrivals whose rate climbs linearly from 6 to 18 per slot
    between the first and the last quarter of the trace, and integer
    rejection costs drawn uniformly from 1..6."""
    rng = np.random.default_rng([seed, 2718])
    slots = np.arange(horizon)
    frac = np.clip((slots - horizon / 4) / (horizon / 2), 0.0, 1.0)
    arrivals = rng.poisson(6.0 + 12.0 * frac)
    costs = rng.integers(1, 7, size=horizon)
    with open(path, "w") as handle:
        handle.write("slot,arrivals,cost\n")
        for t in range(horizon):
            handle.write(f"{t},{arrivals[t]},{float(costs[t])!r}\n")


def _farm_configs(seed: int, work: str) -> Dict[str, dict]:
    path = farm_trace_path(work)
    write_farm_trace(seed, path)
    servers = [{"active_power": e, "mu": ["constant", mu],
                "sleep_modes": [[0.0, w, m]], "i_max": 1000,
                "r_max": FARM_R_MAX} for e, mu, w, m in FARM_SERVERS]
    out = {}
    for mode in ("n-queue", "virtualized"):
        # V <= 50 keeps every server on; V = 500 lets some of them sleep
        out[mode] = {
            "kind": "datacenter",
            "instance": {"servers": servers, "mode": mode,
                         "trace": {"path": os.path.abspath(path)}},
            "v_values": [5, 50, 500], "horizon": FARM_HORIZON,
            "replications": 1, "seed": seed, "jobs": 1}
    return out


def _energy_check(out_dirs, work):
    return checks.energy(*checks.read_outputs(out_dirs["energy"]))


def _ocmdp_check(out_dirs, work):
    return checks.ocmdp(*checks.read_outputs(out_dirs["ocmdp"]))


def _bandit_check(out_dirs, work):
    return checks.bandit(*checks.read_outputs(out_dirs["bandit"]))


def _farm_check(out_dirs, work):
    c_max = checks.trace_cost_max(farm_trace_path(work))
    results = []
    for mode in ("n-queue", "virtualized"):
        results += checks.farm(mode, *checks.read_outputs(out_dirs[mode]),
                               c_max=c_max, r_max=FARM_R_MAX)
    return results


WORKLOADS = {w.name: w for w in (
    Workload("energy-sweep", _energy_configs, _energy_check),
    Workload("ocmdp-learn", _ocmdp_configs, _ocmdp_check),
    Workload("bandit-oracle", _bandit_configs, _bandit_check),
    Workload("farm-trace", _farm_configs, _farm_check),
)}
