"""End-to-end acceptance battery shared by the test suite and the CLI.

Each criterion runs a self-contained experiment against an independent
reference computation (exact chain solves, stationary LP optima, brute-force
enumeration) and reports one pass/fail line with the measured numbers. The
two reference routines that exist only for checking, basic-feasible-solution
enumeration (:func:`lp_by_enumeration`) and the grid-plus-face projection
minimizer (:func:`grid_project`), live here so the battery runs from an
installed package alone; the test suite imports them from here too.

Tolerances and horizons are fixed; a failing criterion reports its measured
values rather than loosening them.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from renewalopt import bandit, coupled, datacenter, lp, ocmdp, online


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.name} ({self.seconds:.1f}s): {self.detail}"


def _finish(name: str, started: float, checks: Sequence[bool],
            detail: str, budget: Optional[float] = None) -> CriterionResult:
    elapsed = time.perf_counter() - started
    passed = all(checks)
    if budget is not None:
        if elapsed >= budget:
            passed = False
        detail += f"; wall {elapsed:.1f}s of {budget:.0f}s"
    return CriterionResult(name, passed, detail, elapsed)


# ---------------------------------------------------------------------------
# 1. two-queue priority service: exact chain values and simulation
# ---------------------------------------------------------------------------


def two_queue_throughput() -> CriterionResult:
    """Exact two-queue chain solve against its known values, plus a
    million-slot simulation of the serve-larger-rate policy."""
    started = time.perf_counter()
    high = bandit.two_queue_markov_throughput(0.5, 0.25, priority=1)
    low = bandit.two_queue_markov_throughput(0.5, 0.25, priority=2)
    sim = bandit.maxlambda_run([0.5, 0.25], m_servers=1, horizon=10**6, seed=0)
    checks = [
        abs(high - 0.700) <= 1e-9,
        abs(low - 0.6786) <= 5e-4,
        abs(sim - 0.700) <= 5e-3,
    ]
    detail = (f"priority-to-larger exact {high:.10f} (target 0.700 +- 1e-9), "
              f"priority-to-smaller {low:.6f} (target 0.6786 +- 5e-4), "
              f"simulated {sim:.5f} (+- 0.005)")
    return _finish("two-queue-throughput", started, checks, detail, budget=10.0)


# ---------------------------------------------------------------------------
# 2. eight-user download scheduling near its composite-chain optimum
# ---------------------------------------------------------------------------


def bandit_near_optimality() -> CriterionResult:
    """Ten 2e5-slot replications of the eight-user index policy at V=70
    against the composite-chain LP optimum, power budget 5."""
    started = time.perf_counter()
    users = bandit.table_one_users()
    optimum = float(lp.coupled_mdp_optimal(
        [u.lam for u in users], [u.weight for u in users],
        [u.mean_file for u in users], [u.actions for u in users],
        served_limit=4, power_budget=5.0).value)
    oracle_s = time.perf_counter() - started
    tputs, powers = [], []
    for rep in range(10):
        out = bandit.multi_user_run(users, 70.0, 4, 5.0, 200000, seed=rep)
        tputs.append(out["throughput_avg"])
        powers.append(out["power_avg"])
    mean_tput = float(np.mean(tputs))
    mean_power = float(np.mean(powers))
    rel_gap = abs(mean_tput - optimum) / optimum
    checks = [rel_gap <= 0.02, mean_power <= 5.05]
    detail = (f"mean throughput {mean_tput:.4f} vs optimum {optimum:.4f} "
              f"(rel gap {rel_gap:.4%} <= 2%), mean power {mean_power:.4f} "
              f"<= 5.05; oracle {oracle_s:.1f}s")
    return _finish("bandit-near-optimality", started, checks, detail,
                   budget=120.0)


# ---------------------------------------------------------------------------
# 3. deterministic queue bounds, recomputed from the logs
# ---------------------------------------------------------------------------


def _bound_farm() -> List[datacenter.ServerConfig]:
    rows = [
        (4.0, 4.0, 2.0, 5.893),
        (2.0, 3.0, 3.0, 4.342),
        (3.0, 3.0, 3.0, 27.397),
        (4.0, 2.0, 2.0, 5.817),
        (2.0, 3.0, 4.0, 6.211),
    ]
    return [datacenter.ServerConfig(
        active_power=e, mu_dist=("constant", mu),
        sleep_modes=[datacenter.SleepMode(0.0, w, m)],
        i_max=1000, r_max=40.0) for e, mu, w, m in rows]


def queue_bound_battery() -> CriterionResult:
    """Deterministic queue bounds as hard facts on every logged slot.

    Every runner already raises the moment a bound breaks; this battery
    additionally recomputes each bound from the returned logs over sweeps of
    V and seeds, so a silently disabled in-run check would still fail here.
    """
    started = time.perf_counter()
    peaks = []  # (largest logged queue, its recomputed bound), one per check

    # a budget below the user's one power option 3.95, so the queue moves
    user = bandit.table_one_users()[0]
    for v in (5.0, 20.0, 70.0):
        for seed in range(5):
            out = bandit.single_user_run(user, v, beta=1.0, n_frames=3000,
                                         seed=seed)
            peaks.append((out["queues"].max(),
                          bandit.single_user_queue_bound(user, v, beta=1.0)))

    users = bandit.table_one_users()
    for v in (20.0, 70.0):
        for seed in range(3):
            out = bandit.multi_user_run(users, v, 4, 5.0, 20000, seed=seed)
            peaks.append((out["queue"].max(),
                          bandit.multi_user_queue_bound(users, v, beta=5.0)))

    cfgs = _bound_farm()
    r_max = cfgs[0].r_max
    for v in (10.0, 50.0):
        for seed in range(3):
            trace = datacenter.uniform_trace(5000, seed=1000 + seed)
            per_server = v * max(trace.costs) + r_max
            log_n = datacenter.run_datacenter(cfgs, trace, v, mode="n-queue",
                                              seed=seed)
            peaks.append((log_n.max_queue.max(), per_server))
            log_v = datacenter.run_datacenter(cfgs, trace, v,
                                              mode="virtualized", seed=seed)
            peaks.append((log_v.queue_total.max(), len(cfgs) * per_server))

    violations = sum(peak > limit + 1e-9 for peak, limit in peaks)
    checks = [violations == 0]
    detail = (f"{len(peaks)} runs, {len(peaks)} recomputed bounds, "
              f"{violations} violations (runners also assert per slot); "
              f"highest queue {max(p / limit for p, limit in peaks):.0%} of its bound")
    return _finish("deterministic-queue-bounds", started, checks, detail)


# ---------------------------------------------------------------------------
# 4. energy scheduling sweep against the fractional LP
# ---------------------------------------------------------------------------


def energy_sweep() -> CriterionResult:
    """Five-seed V sweep of the server energy instance: optimality gap at
    V=100, service covering the arrival rates, energy monotone in V."""
    started = time.perf_counter()
    spec = coupled.energy_scheduling_spec(5)
    optimum = coupled.energy_oracle_value(5)
    lam = coupled.ENERGY_CLASSES["arrival_rate"]
    v_grid = (1.0, 10.0, 100.0)
    checks = []
    gaps = []
    service_slack = math.inf
    for seed in range(5):
        energies = []
        for v in v_grid:
            log = coupled.run(spec, v, 200000, seed)
            energies.append(log.final_penalty_avg)
            service = -log.final_metrics_avg
            service_slack = min(service_slack, float((service - lam).min()))
            checks.append(bool((service >= lam - 0.05).all()))
        for lo, hi in zip(energies, energies[1:]):
            checks.append(hi <= lo * 1.01)
        gap = abs(energies[-1] - optimum) / optimum
        gaps.append(gap)
        checks.append(gap <= 0.05)
    detail = (f"V=100 gap vs LP {optimum:.4f}: worst {max(gaps):.4%} <= 5%, "
              f"service slack min {service_slack:+.4f} >= -0.05, "
              f"energy non-increasing over V={v_grid} per seed (1% slack)")
    return _finish("coupled-energy-sweep", started, checks, detail, budget=60.0)


# ---------------------------------------------------------------------------
# 5. online renewal file download against the event-conditioned optimum
# ---------------------------------------------------------------------------


def online_download() -> CriterionResult:
    """2e5 frames of the statistics-free downloader at delta=0.6, V=300
    against the stationary event-conditioned LP optimum."""
    started = time.perf_counter()
    model = online.file_download_example()
    optimum = float(lp.conditional_ratio_optimal(
        model.event_probs, model.exp_penalty, model.exp_frame_len,
        model.exp_metrics, model.budgets))
    log = online.run(model, v=300.0, delta=0.6, n_frames=200000, seed=0)
    resource = float(log.metrics_time_avg[0])
    penalty = log.penalty_time_avg
    if optimum > 1e-12:
        penalty_ok = abs(penalty - optimum) / optimum <= 0.10
        penalty_note = f"penalty {penalty:.5f} within 10% of {optimum:.5f}"
    else:
        penalty_ok = abs(penalty) <= 1e-12
        penalty_note = (f"optimum is {optimum:.1e}, simulated penalty "
                        f"{penalty:.1e} matches it exactly")
    checks = [resource <= 1.05, penalty_ok]
    detail = f"resource avg {resource:.5f} <= 1.05, {penalty_note}"
    return _finish("online-renewal-download", started, checks, detail,
                   budget=60.0)


# ---------------------------------------------------------------------------
# 6. projected-update scaling on the two-MDP instance
# ---------------------------------------------------------------------------


def ocmdp_scaling() -> CriterionResult:
    """Regret and violation growth when the horizon quadruples, with the
    step size alpha=T and weight V=sqrt(T), against sqrt(T) scaling.

    Ratios are of five-seed means; occupation vectors are re-verified
    against their polytopes at every logged slot.
    """
    started = time.perf_counter()
    instance = ocmdp.two_mdp_example()
    baseline = ocmdp.solve_baseline(instance)
    horizons = (2500, 10000, 40000)
    seeds = range(5)
    mean_regret = {}
    mean_viol = {}
    worst_membership = 0.0
    for horizon in horizons:
        regrets = []
        viols = []
        for seed in seeds:
            log = ocmdp.run_ocmdp(instance, horizon, v=math.sqrt(horizon),
                                  alpha=float(horizon), seed=seed)
            regret, violations = ocmdp.measure_regret(instance, log, baseline)
            regrets.append(regret)
            viols.append(violations)
            for poly, thetas in zip(instance.polys, log.thetas):
                affine = np.abs(thetas @ poly.aff_a.T - poly.aff_b).max()
                # np.max, unlike max, carries a NaN through to the check
                worst_membership = float(np.max(
                    [worst_membership, affine, -thetas.min()]))
        mean_regret[horizon] = float(np.mean(regrets))
        mean_viol[horizon] = np.mean(viols, axis=0)
    checks = [worst_membership <= 1e-8]
    ratio_lines = []
    for t_small, t_big in zip(horizons, horizons[1:]):
        r_ratio = mean_regret[t_big] / mean_regret[t_small]
        checks.append(mean_regret[t_small] > 0 and r_ratio <= 2.5)
        v_ratio = mean_viol[t_big] / mean_viol[t_small]
        checks.append(bool((mean_viol[t_small] > 0).all()
                           and (v_ratio <= 2.5).all()))
        ratio_lines.append(f"{t_big}/{t_small}: regret {r_ratio:.3f}, "
                           f"violation {np.max(v_ratio):.3f}")
    detail = ("mean-over-5-seed growth ratios <= 2.5 (sqrt(T) predicts 2.0): "
              + "; ".join(ratio_lines)
              + f"; worst membership residual {worst_membership:.2e} <= 1e-8")
    return _finish("ocmdp-scaling", started, checks, detail, budget=300.0)


# ---------------------------------------------------------------------------
# 7. projection against a grid-plus-face reference minimizer
# ---------------------------------------------------------------------------


# grid_project's points per null-space axis, at most 1e6 points in all, and
# the half-width it starts its grid at, doubled until a point is feasible
_GRID_MESH = 501
_GRID_SPAN = 2.5


def grid_project(aff_a, aff_b, x):
    """Minimize ||theta - x|| over {aff_a theta = aff_b, theta >= 0}
    with no active set.

    A dense grid in null-space coordinates around the minimum-norm
    particular solution covers the whole feasible set (occupation polytopes
    sit inside the unit ball of those coordinates) and gives an incumbent.
    Near a boundary minimizer the squared distance is flat along the active
    face, so the incumbent can sit up to sqrt(2*sqrt(2)*h*dist) along it at
    grid spacing h, which bounds the coordinates that can be active at the
    true minimizer. Every subset of those candidates is finished in closed
    form as an equality-constrained projection, and the closest feasible one
    wins. The face holding the true minimizer in its relative interior is
    always among them, so the result is exact to least-squares precision.
    """
    aff_a = np.asarray(aff_a, dtype=float)
    aff_b = np.asarray(aff_b, dtype=float)
    x = np.asarray(x, dtype=float)
    n = x.size
    part, *_ = np.linalg.lstsq(aff_a, aff_b, rcond=None)
    _, s, vt = np.linalg.svd(aff_a)
    rank = int(np.sum(s > 1e-10))
    null = vt[rank:].T
    d = null.shape[1]
    if d == 0:
        return part
    cap = 1_000_000
    mesh_eff = _GRID_MESH if _GRID_MESH**d <= cap else max(5, int(cap ** (1.0 / d)))
    width = _GRID_SPAN
    while True:
        axes = [np.linspace(-width, width, mesh_eff) for _ in range(d)]
        grids = np.meshgrid(*axes, indexing="ij")
        coeffs = np.stack([g.ravel() for g in grids], axis=1)
        thetas = part[None, :] + coeffs @ null.T
        feasible = np.all(thetas >= -1e-9, axis=1)
        if np.any(feasible):
            break
        width *= 2.0
    dist2 = np.sum((thetas - x[None, :]) ** 2, axis=1)
    dist2[~feasible] = np.inf
    k_best = int(np.argmin(dist2))
    incumbent = thetas[k_best]
    dist_best = float(np.sqrt(dist2[k_best]))
    h = np.sqrt(d) * 2.0 * width / (mesh_eff - 1)
    radius = np.sqrt(2.0 * np.sqrt(2.0) * h * dist_best + 2.0 * h * h) + h
    pool = [i for i in range(n) if incumbent[i] <= radius]
    best, best_d = incumbent, dist_best**2
    for r in range(len(pool) + 1):
        for active in itertools.combinations(pool, r):
            rows = [aff_a]
            for i in active:
                e = np.zeros(n)
                e[i] = 1.0
                rows.append(e[None, :])
            a_face = np.vstack(rows)
            b_face = np.concatenate([aff_b, np.zeros(len(active))])
            z = x - np.linalg.pinv(a_face) @ (a_face @ x - b_face)
            if np.abs(a_face @ z - b_face).max() > 1e-9 or z.min() < -1e-9:
                continue
            dd = float(np.sum((z - x) ** 2))
            if dd < best_d - 1e-15:
                best_d, best = dd, z
    return best


def projection_equivalence() -> CriterionResult:
    """One hundred random two-state two-action polytopes: the active-set
    projection matches the reference minimizer to 1e-4 and re-projecting is
    a 1e-9 fixed point."""
    started = time.perf_counter()
    rng = np.random.default_rng(170)
    worst_gap = 0.0
    worst_idem = 0.0
    for _ in range(100):
        transitions = rng.uniform(0.05, 1.0, size=(2, 2, 2))
        transitions /= transitions.sum(axis=2, keepdims=True)
        spec = ocmdp.MdpSpec(transitions=transitions,
                             f_mean=np.zeros((2, 2)),
                             g_means=np.zeros((1, 2, 2)))
        poly = ocmdp.build_polyhedron(spec)
        x = poly.uniform_theta + rng.normal(scale=1.5, size=poly.dim)
        z = ocmdp.project_onto_theta(poly, x)
        reference = grid_project(poly.aff_a, poly.aff_b, x)
        worst_gap = max(worst_gap, float(np.abs(z - reference).max()))
        again = ocmdp.project_onto_theta(poly, z)
        worst_idem = max(worst_idem, float(np.abs(again - z).max()))
    checks = [worst_gap <= 1e-4, worst_idem <= 1e-9]
    detail = (f"worst reference gap {worst_gap:.2e} <= 1e-4, worst "
              f"re-projection drift {worst_idem:.2e} <= 1e-9 over 100 "
              f"instances")
    return _finish("projection-equivalence", started, checks, detail)


# ---------------------------------------------------------------------------
# 8. simplex against basic-feasible-solution enumeration
# ---------------------------------------------------------------------------


def _independent_rows(a, tol=1e-9):
    """Indices of a maximal set of linearly independent rows, greedily."""
    keep = []
    for i in range(a.shape[0]):
        trial = keep + [i]
        if np.linalg.matrix_rank(a[trial], tol=tol) == len(trial):
            keep.append(i)
    return keep


def lp_by_enumeration(c, a_eq, b_eq, g_ub, h_ub):
    """Solve min c.x, a_eq x = b_eq, g_ub x <= h_ub, x >= 0 by enumerating
    the basic solutions of the slack-extended standard form.

    Returns (status, x, value) with status "optimal" or "infeasible" (x and
    value None). Assumes a feasible region, if nonempty, with at least one
    vertex and an attained optimum, as for bounded instances.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    n_slack = 0 if g_ub is None or not len(g_ub) \
        else np.asarray(g_ub).reshape(-1, n).shape[0]
    full = []
    rhs: List[float] = []
    if a_eq is not None and len(a_eq):
        a_eq = np.asarray(a_eq, dtype=float).reshape(-1, n)
        b_eq = np.asarray(b_eq, dtype=float).ravel()
        for i in range(a_eq.shape[0]):
            full.append(np.concatenate([a_eq[i], np.zeros(n_slack)]))
            rhs.append(b_eq[i])
    if n_slack:
        g_ub = np.asarray(g_ub, dtype=float).reshape(-1, n)
        h_ub = np.asarray(h_ub, dtype=float).ravel()
        for i in range(n_slack):
            e = np.zeros(n_slack)
            e[i] = 1.0
            full.append(np.concatenate([g_ub[i], e]))
            rhs.append(h_ub[i])
    mat = np.array(full, dtype=float)
    vec = np.array(rhs, dtype=float)
    keep = _independent_rows(mat)
    # the dropped dependent rows must still hold at every candidate
    red = [i for i in range(mat.shape[0]) if i not in keep]
    mat_i, vec_i = mat[keep], vec[keep]
    m = len(keep)
    ntot = n + n_slack
    cost = np.concatenate([c, np.zeros(n_slack)])
    best_x, best_val = None, math.inf
    for cols in itertools.combinations(range(ntot), m):
        basis = mat_i[:, cols]
        try:
            xb = np.linalg.solve(basis, vec_i)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(xb)) or np.min(xb) < -1e-8:
            continue
        x = np.zeros(ntot)
        x[list(cols)] = xb
        if red and np.max(np.abs(mat[red] @ x - vec[red])) > 1e-7:
            continue
        val = float(cost @ x)
        if val < best_val:
            best_x, best_val = x[:n].copy(), val
    if best_x is None:
        return "infeasible", None, None
    return "optimal", best_x, best_val


def _random_bounded_lp(rng):
    """The suite's random LP family: a known feasible point builds
    consistent rows and a simplex-bounding cap keeps the region a polytope."""
    n = int(rng.integers(2, 9))
    m_eq = int(rng.integers(0, 3))
    m_ub = int(rng.integers(1, 4))
    x0 = rng.uniform(0, 2, size=n)
    a_eq = rng.normal(size=(m_eq, n)) if m_eq else None
    b_eq = a_eq @ x0 if m_eq else None
    g = rng.normal(size=(m_ub, n))
    h = g @ x0 + rng.uniform(0.1, 2.0, size=m_ub)
    g = np.vstack([g, np.ones(n)])
    h = np.append(h, x0.sum() + 5.0)
    c = rng.normal(size=n)
    return lp.LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, g_ub=g, h_ub=h)


def random_composite_chain(rng):
    """Keyword arguments of one random composite download chain: 1-6 users,
    each with 1-3 (phi, power) actions after the idle one, a power budget,
    and 1 or 2 users served per slot."""
    n_users = int(rng.integers(1, 7))
    lam = rng.uniform(0.02, 0.9, n_users)
    action_sets = [[(0.0, 0.0)] + [(float(rng.uniform(0, 1)), float(rng.uniform(0.5, 4)))
                                   for _ in range(int(rng.integers(1, 4)))]
                   for _ in range(n_users)]
    # keyword arguments are drawn in this order, left to right
    return dict(arrival_probs=lam, action_sets=action_sets,
                weights=rng.uniform(0.5, 4, n_users),
                mean_files=rng.uniform(0.5, 4, n_users),
                served_limit=int(rng.integers(1, 3)),
                power_budget=float(rng.uniform(0.3, 4)))


def composite_chain_lp(arrival_probs, weights, mean_files, action_sets,
                       served_limit, power_budget) -> lp.LpProblem:
    """The composite download chain's occupation-measure LP, one variable per
    state-action pair of ``lp._composite_chain``: minimize minus the weighted
    throughput subject to one balance row per state, the normalization row and
    the expected power row. Its optimum is minus ``lp.coupled_mdp_optimal``'s
    value, which that function finds through the LP's Lagrangian dual."""
    state_of, rows, rewards, powers = lp._composite_chain(
        *(np.asarray(v, dtype=float) for v in (arrival_probs, weights, mean_files)),
        action_sets, served_limit)
    a_eq = np.vstack([rows.T, np.ones(rows.shape[0])])
    a_eq[state_of, np.arange(rows.shape[0])] -= 1.0
    b_eq = np.append(np.zeros(rows.shape[1]), 1.0)
    return lp.LpProblem(c=-rewards, a_eq=a_eq, b_eq=b_eq,
                        g_ub=powers.reshape(1, -1), h_ub=[float(power_budget)])


def simplex_equivalence() -> CriterionResult:
    """The random bounded LPs of the suite (all of them have at most 12
    variables), solved by the simplex and by vertex enumeration; then the
    first 200 seeded composite download-chain LPs with 100 to 2,000
    variables, slack included, against the chain's Lagrangian dual."""
    started = time.perf_counter()
    worst = 0.0
    count = 0
    status_ok = True
    for seed in (42, 7):
        rng = np.random.default_rng(seed)
        for _ in range(30 if seed == 42 else 10):
            prob = _random_bounded_lp(rng)
            if prob.c.size > 12:
                continue
            count += 1
            sol = lp.solve_lp(prob)
            status, _, value = lp_by_enumeration(prob.c, prob.a_eq, prob.b_eq,
                                                 prob.g_ub, prob.h_ub)
            if sol.status != "optimal" or status != "optimal":
                status_ok = False
                continue
            worst = max(worst, abs(float(sol.objective_value) - value))
    chains, chain_worst = 0, 0.0
    rng = np.random.default_rng(12345)
    while chains < 200:
        args = random_composite_chain(rng)
        prob = composite_chain_lp(**args)
        if 100 <= prob.c.size + 1 <= 2000:
            chains += 1
            sol = lp.solve_lp(prob)
            status_ok &= sol.status == "optimal"
            gap = (sol.objective_value or 0.0) + lp.coupled_mdp_optimal(**args).value
            chain_worst = max(chain_worst, abs(gap))
    checks = [status_ok, worst <= 1e-8, count == 40, chain_worst <= 1e-8]
    detail = (f"{count} random LPs (<= 12 variables) against enumeration, worst gap "
              f"{worst:.2e}; {chains} composite-chain LPs (100-2,000 variables) against "
              f"the Lagrangian dual, worst gap {chain_worst:.2e}; all optimal, gaps <= 1e-8")
    return _finish("simplex-equivalence", started, checks, detail)


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------


CRITERIA: List[Callable[[], CriterionResult]] = [
    two_queue_throughput,
    bandit_near_optimality,
    queue_bound_battery,
    energy_sweep,
    online_download,
    ocmdp_scaling,
    projection_equivalence,
    simplex_equivalence,
]


def run_suite(echo: Optional[Callable[[str], None]] = print) -> List[CriterionResult]:
    """Run every criterion in order, emitting one pass/fail line per
    criterion through ``echo`` as it completes."""
    results = []
    for criterion in CRITERIA:
        result = criterion()
        if echo is not None:
            echo(result.line())
        results.append(result)
    return results
