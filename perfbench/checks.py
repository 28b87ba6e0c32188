"""Correctness checks on what each workload writes.

Every check compares the program's ``summary.json`` and ``rows.csv`` with a
value computed here, apart from the program (closed forms, a vertex
enumeration, a stored independent solve, bounds recomputed from the
instance tables below), or with a property the method must have. The
instance tables are restated here from the paper's instances rather than
read from the package, so a change to the package's copy shows as a
failing check. ``selftest.py`` shows that every check fails when its input
is perturbed.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from typing import Dict, List, NamedTuple, Sequence

import numpy as np


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str
    rows: Sequence[int]  # the cells (row indices) the check speaks for


def read_outputs(out_dir: str):
    """(summary mapping, rows as named float columns) of one experiment."""
    with open(os.path.join(out_dir, "summary.json")) as handle:
        summary = json.load(handle)
    return summary, read_rows(os.path.join(out_dir, "rows.csv"))


def read_rows(path: str) -> Dict[str, List[float]]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        cols: Dict[str, List[float]] = {name: [] for name in header}
        for row in reader:
            for name, cell in zip(header, row):
                cols[name].append(float(cell))
    return cols


def _oracle(summary: dict) -> float:
    return float(summary["aggregates"][0]["means"]["oracle_value"])


def _all(rows: Dict[str, List[float]]) -> List[int]:
    return list(range(len(next(iter(rows.values())))))


# ---------------------------------------------------------------------------
# energy-sweep: five servers, three job classes
# ---------------------------------------------------------------------------

ENERGY_LAMBDA = (2.0, 3.0, 4.0)            # class arrival rates per slot
ENERGY_JOBS = (15.0, 21.0, 17.0)           # mean jobs served per busy period
ENERGY_BUSY = (5.5, 4.6, 3.8)              # mean busy-period slots
ENERGY_BUSY_ENERGY = (16.0, 20.0, 13.0)    # energy of one busy period
ENERGY_IDLE = (2.5, 4.3, 3.7)              # mean vacation slots
ENERGY_IDLE_POWER = 3.0


def energy_closed_form(n_servers: int = 5) -> float:
    """n * [sum_i q_i y_i + (1 - sum_i q_i T_i) * min_i y_i / T_i] with
    q_i = lambda_i / (n * jobs_i): serve each class exactly at its rate and
    spend the rest of the time in the cheapest class per slot."""
    y = [e + ENERGY_IDLE_POWER * i for e, i in zip(ENERGY_BUSY_ENERGY, ENERGY_IDLE)]
    t = [b + i for b, i in zip(ENERGY_BUSY, ENERGY_IDLE)]
    q = [lam / (n_servers * j) for lam, j in zip(ENERGY_LAMBDA, ENERGY_JOBS)]
    used = sum(qi * ti for qi, ti in zip(q, t))
    return n_servers * (sum(qi * yi for qi, yi in zip(q, y))
                        + (1.0 - used) * min(yi / ti for yi, ti in zip(y, t)))


def energy(summary: dict, rows: Dict[str, List[float]]) -> List[Check]:
    out = []
    oracle = _oracle(summary)
    exact = energy_closed_form(5)
    out.append(Check("energy.oracle", abs(oracle - exact) <= 1e-9,
                     f"oracle {oracle!r} vs closed form {exact!r}", _all(rows)))
    by_rep: Dict[float, List[int]] = {}
    for i, rep in enumerate(rows["replication"]):
        by_rep.setdefault(rep, []).append(i)
    for rep, idx in by_rep.items():
        idx = sorted(idx, key=lambda i: rows["v"][i])
        top = idx[-1]
        gap = abs(rows["penalty_avg"][top] - exact) / exact
        out.append(Check("energy.gap", rows["v"][top] == 100.0 and gap <= 0.05,
                         f"V={rows['v'][top]:g} gap {gap:.4%} <= 5%", [top]))
        energies = [rows["penalty_avg"][i] for i in idx]
        mono = all(hi <= lo * 1.01 for lo, hi in zip(energies, energies[1:]))
        out.append(Check("energy.monotone", mono,
                         f"energy over V {energies} non-increasing (1% slack)",
                         idx))
    for i in _all(rows):
        service = [-rows[f"metric_avg_{l}"][i] for l in range(3)]
        ok = all(s >= lam - 0.05 for s, lam in zip(service, ENERGY_LAMBDA))
        out.append(Check("energy.service", ok,
                         f"service {service} >= lambda - 0.05", [i]))
    return out


# ---------------------------------------------------------------------------
# ocmdp-learn: the two-MDP example
# ---------------------------------------------------------------------------

# transitions[a][s][s'], f_mean[s][a], g_mean[s][a] (one coupling row)
OCMDP_SYSTEMS = (
    {"transitions": [[[0.9, 0.1], [0.5, 0.5]], [[0.2, 0.8], [0.1, 0.9]]],
     "f_mean": [[0.2, 1.0], [0.1, 0.8]],
     "g_mean": [[0.9, -0.35], [0.8, -0.5]]},
    {"transitions": [[[0.7, 0.3], [0.4, 0.6]], [[0.3, 0.7], [0.2, 0.8]]],
     "f_mean": [[0.1, 0.9], [0.3, 1.1]],
     "g_mean": [[0.8, -0.4], [1.0, -0.25]]},
)
OCMDP_NOISE = 0.25


def stationary_lp_by_vertices(systems=OCMDP_SYSTEMS) -> float:
    """min sum_k <f_k, theta_k> over occupation measures theta_k (flow
    balance per state, total mass one, theta >= 0) with sum_k <g_k, theta_k>
    <= 0, by enumerating every basic solution of the standard form."""
    blocks_a, blocks_b, costs, couple = [], [], [], []
    for sys_ in systems:
        p = np.asarray(sys_["transitions"], dtype=float)
        n_a, n_s, _ = p.shape
        a = np.zeros((n_s + 1, n_s * n_a))
        for s in range(n_s):
            for act in range(n_a):
                col = s * n_a + act
                a[:n_s, col] += p[act, s]      # flow into each next state
                a[s, col] -= 1.0               # flow out of s
        a[n_s] = 1.0
        b = np.zeros(n_s + 1)
        b[n_s] = 1.0
        blocks_a.append(a)
        blocks_b.append(b)
        costs.append(np.ravel(sys_["f_mean"]))
        couple.append(np.ravel(sys_["g_mean"]))
    rows = sum(a.shape[0] for a in blocks_a) + 1
    cols = sum(a.shape[1] for a in blocks_a) + 1   # + coupling slack
    big = np.zeros((rows, cols))
    rhs = np.zeros(rows)
    r = c = 0
    for a, b, g in zip(blocks_a, blocks_b, couple):
        big[r:r + a.shape[0], c:c + a.shape[1]] = a
        rhs[r:r + a.shape[0]] = b
        big[-1, c:c + a.shape[1]] = g
        r += a.shape[0]
        c += a.shape[1]
    big[-1, -1] = 1.0
    cost = np.concatenate(costs + [np.zeros(1)])
    rank = np.linalg.matrix_rank(big)
    best = math.inf
    for basis in itertools.combinations(range(cols), rank):
        sub = big[:, basis]
        if np.linalg.matrix_rank(sub) < rank:
            continue
        xb, *_ = np.linalg.lstsq(sub, rhs, rcond=None)
        if np.abs(sub @ xb - rhs).max() > 1e-9 or xb.min() < -1e-12:
            continue
        best = min(best, float(cost[list(basis)] @ xb))
    return best


def _mixing_slots(systems=OCMDP_SYSTEMS) -> float:
    """Largest 1 / (1 - |lambda_2|) over every system's pure stationary
    policies: how many slots a chain takes to forget its state."""
    worst = 1.0
    for sys_ in systems:
        p = np.asarray(sys_["transitions"], dtype=float)
        n_a, n_s, _ = p.shape
        for policy in itertools.product(range(n_a), repeat=n_s):
            chain = np.array([p[policy[s], s] for s in range(n_s)])
            mods = sorted(np.abs(np.linalg.eigvals(chain)))
            worst = max(worst, 1.0 / (1.0 - mods[-2]))
    return worst


def ocmdp_tolerances(horizon: int, systems=OCMDP_SYSTEMS,
                     noise: float = OCMDP_NOISE):
    """(penalty, violation) tolerances on time averages of the form
    (1 + mixing slots) * per-slot range / sqrt(T).

    With V = sqrt(T) and alpha = T the method's regret and cumulative
    violation grow as O(sqrt(T)), so their time averages shrink as
    O(1/sqrt(T)); the constant is the per-slot range of the summed table
    values (mean bound plus noise, summed over systems) stretched by how
    long the chains take to mix, which also bounds the sampling error of a
    T-slot average of a mixing chain.
    """
    scale = (1.0 + _mixing_slots(systems)) / math.sqrt(horizon)
    f_range = sum(np.abs(s["f_mean"]).max() + noise for s in systems)
    g_range = sum(np.abs(s["g_mean"]).max() + noise for s in systems)
    return scale * f_range, scale * g_range


def ocmdp(summary: dict, rows: Dict[str, List[float]]) -> List[Check]:
    out = []
    oracle = _oracle(summary)
    exact = stationary_lp_by_vertices()
    out.append(Check("ocmdp.oracle", abs(oracle - exact) <= 1e-9,
                     f"oracle {oracle!r} vs vertex enumeration {exact!r}",
                     _all(rows)))
    horizon = int(summary["experiment"]["horizon"])
    tol_f, tol_g = ocmdp_tolerances(horizon)
    for i in _all(rows):
        gap = abs(rows["penalty_avg"][i] - exact)
        out.append(Check("ocmdp.penalty", gap <= tol_f,
                         f"|penalty - oracle| {gap:.4g} <= {tol_f:.4g}", [i]))
        viol = rows["violation_avg_0"][i]
        out.append(Check("ocmdp.violation", viol <= tol_g,
                         f"violation {viol:.4g} <= {tol_g:.4g}", [i]))
    return out


# ---------------------------------------------------------------------------
# bandit-oracle: the eight table-one users, M = 4, beta = 5
# ---------------------------------------------------------------------------

# lam, mu (file completion rate, mean file 1/mu), phi, weight c, power p
TABLE_ONE = (
    (0.0028, 0.5380, 0.4842, 4.7527, 3.9504),
    (0.4176, 0.5453, 0.4908, 2.0681, 3.7391),
    (0.0888, 0.5044, 0.4540, 2.8656, 3.5753),
    (0.3181, 0.6103, 0.5493, 2.4605, 2.1828),
    (0.4151, 0.9839, 0.8855, 4.5554, 3.1982),
    (0.2546, 0.5975, 0.5377, 3.9647, 3.5290),
    (0.1705, 0.5517, 0.4966, 1.5159, 2.5226),
    (0.2109, 0.7597, 0.6837, 3.6364, 2.5376),
)
BANDIT_M = 4
BANDIT_BETA = 5.0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def bandit_reference() -> float:
    """The stored independent optimum (``reference.py`` regenerates it)."""
    with open(REFERENCE_PATH) as handle:
        return float(json.load(handle)["bandit_table_one_m4_beta5"])


def bandit_queue_bound(v: float) -> float:
    """V * max(c * b) / p_min + sum p_max - beta."""
    cb = max(c / mu for _, mu, _, c, _ in TABLE_ONE)
    p_min = min(p for *_, p in TABLE_ONE)
    return v * cb / p_min + sum(p for *_, p in TABLE_ONE) - BANDIT_BETA


def bandit_noise(horizon: int) -> float:
    """Three standard errors of a time average of a per-slot throughput that
    lies in [0, R], R the M largest c * b * phi summed (std at most R/2)."""
    per_user = sorted((c / mu * phi for _, mu, phi, c, _ in TABLE_ONE),
                      reverse=True)
    r_max = sum(per_user[:BANDIT_M])
    return 3.0 * (r_max / 2.0) / math.sqrt(horizon)


def bandit(summary: dict, rows: Dict[str, List[float]]) -> List[Check]:
    out = []
    oracle = _oracle(summary)
    ref = bandit_reference()
    out.append(Check("bandit.oracle", abs(oracle - ref) <= 1e-8,
                     f"oracle {oracle!r} vs Howard/Lagrangian {ref!r}",
                     _all(rows)))
    noise = bandit_noise(int(summary["experiment"]["horizon"]))
    for i in _all(rows):
        tput = rows["throughput_avg"][i]
        rel = (ref - tput) / ref
        out.append(Check("bandit.gap", rel <= 0.02 and tput <= ref + noise,
                         f"throughput {tput:.5f}: shortfall {rel:.4%} <= 2%, "
                         f"excess <= {noise:.4f}", [i]))
        power = rows["power_avg"][i]
        out.append(Check("bandit.power", power <= 5.05,
                         f"power {power:.5f} <= 5.05", [i]))
        bound = bandit_queue_bound(rows["v"][i])
        q = rows["queue_max"][i]
        out.append(Check("bandit.queue", q <= bound + 1e-9,
                         f"queue max {q:.4f} <= {bound:.4f}", [i]))
    return out


# ---------------------------------------------------------------------------
# farm-trace: five servers reading the benchmark's own trace
# ---------------------------------------------------------------------------


def trace_cost_max(path: str) -> float:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        return max(float(row[2]) for row in reader if row)


def farm(mode: str, summary: dict, rows: Dict[str, List[float]],
         c_max: float, r_max: float) -> List[Check]:
    out = []
    idx = sorted(_all(rows), key=lambda i: rows["v"][i])
    for i in idx:
        bound = rows["v"][i] * c_max + r_max
        q = rows["queue_max"][i]
        out.append(Check(f"farm.{mode}.queue", q <= bound + 1e-9,
                         f"V={rows['v'][i]:g}: queue max {q:g} <= {bound:g}",
                         [i]))
    power = [rows["power_avg"][i] for i in idx]
    mono = all(hi <= lo + 1e-12 for lo, hi in zip(power, power[1:]))
    out.append(Check(f"farm.{mode}.power", mono,
                     f"power over V {power} non-increasing", idx))
    return out
