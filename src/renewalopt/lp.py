"""Dense two-phase simplex, the renewal benchmark LPs, and the composite
download chain's optimum.

The solver is intentionally self-contained: a tableau simplex with a
lexicographic ratio test and Bland's entering rule as a degeneracy fallback,
artificial variables in phase one, and explicit verification of any reported
optimum: residuals, and an optimality certificate computed from the original
data. ``fractional_to_lp`` and ``conditional_ratio_optimal`` turn renewal
action sets and event-conditioned policies into LpProblem instances solved by
it. The composite download chain's occupation LP is solved through its
Lagrangian dual instead (policy iteration plus bisection on the power
multiplier). The LPs over products of occupation polytopes live in ``ocmdp``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

PIVOT_TOL = 1e-9
# a reported optimum's residual bound, and its certificate's reduced-cost
# bound, -_COST_TOL * (1 + max|c|); also the pricing threshold
_FEAS_TOL = 1e-8
_COST_TOL = 1e-9
_MAX_ITERATIONS = 100_000
# composite download chains are refused above this many states
_STATE_CAP = 8192


@dataclass
class LpProblem:
    """min c.x subject to a_eq x = b_eq, g_ub x <= h_ub, x >= 0."""

    c: np.ndarray
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    g_ub: Optional[np.ndarray] = None
    h_ub: Optional[np.ndarray] = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        n = self.c.size
        if self.a_eq is None or np.size(self.a_eq) == 0:
            self.a_eq = np.zeros((0, n))
            self.b_eq = np.zeros(0)
        else:
            self.a_eq = np.asarray(self.a_eq, dtype=float).reshape(-1, n)
            self.b_eq = np.asarray(self.b_eq, dtype=float).ravel()
            if self.b_eq.size != self.a_eq.shape[0]:
                raise ValueError("b_eq length does not match a_eq rows")
        if self.g_ub is None or np.size(self.g_ub) == 0:
            self.g_ub = np.zeros((0, n))
            self.h_ub = np.zeros(0)
        else:
            self.g_ub = np.asarray(self.g_ub, dtype=float).reshape(-1, n)
            self.h_ub = np.asarray(self.h_ub, dtype=float).ravel()
            if self.h_ub.size != self.g_ub.shape[0]:
                raise ValueError("h_ub length does not match g_ub rows")


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded | failed
    x: Optional[np.ndarray] = None
    objective_value: Optional[float] = None
    iterations: int = 0


# After this many consecutive degenerate pivots the entering rule switches
# from Dantzig pricing to Bland's rule until a pivot makes progress again,
# which rules out cycling while keeping the iteration count practical.
_DEGENERATE_STREAK = 16


def _entering(reduced, bland):
    if bland:
        eligible = np.flatnonzero(reduced < -_COST_TOL)
        return int(eligible[0]) if eligible.size else -1
    j = int(np.argmin(reduced))
    return j if reduced[j] < -_COST_TOL else -1


def _leaving(a, b, n_real, col):
    """Lexicographic minimum-ratio row.

    Ratio ties are refined by comparing the scaled basis-inverse rows kept in
    the tableau columns past ``n_real``; those rows are always linearly
    independent, so the refinement singles out one row. Tie comparisons are
    exact on purpose: the anti-cycling guarantee needs the true lexicographic
    minimum, not a toleranced neighborhood of it.
    """
    colv = a[:, col]
    rows = np.flatnonzero(colv > PIVOT_TOL)
    if not rows.size:
        return -1, 0.0
    ratios = b[rows] / colv[rows]
    rmin = ratios.min()
    tied = rows[ratios == rmin]
    if tied.size > 1:
        for j in range(n_real, a.shape[1]):
            vals = a[tied, j] / colv[tied]
            tied = tied[vals == vals.min()]
            if tied.size == 1:
                break
    return int(tied[0]), float(rmin)


def _apply_pivot(a, b, reduced, basis, row, col):
    piv = a[row, col]
    a[row] /= piv
    b[row] /= piv
    colvals = a[:, col].copy()
    colvals[row] = 0.0
    nz = np.abs(colvals) > 0.0
    if np.any(nz):
        a[nz] -= np.outer(colvals[nz], a[row])
        b[nz] -= colvals[nz] * b[row]
    r = reduced[col]
    if r != 0.0:
        reduced -= r * a[row, : reduced.size]
    basis[row] = col


def _pivot_until_optimal(a, b, reduced, basis, n_real, iterations):
    """Pivot until no reduced cost is negative.

    Pricing is Dantzig's most-negative rule, switching to Bland's rule after
    a streak of degenerate pivots and back once progress resumes; the leaving
    row follows the lexicographic ratio test, so no basis ever repeats even
    on fully degenerate plateaus. Returns (outcome, iterations) with outcome
    "optimal", "no_pivot" for an entering column with no positive entry, or
    "iteration_limit".
    """
    streak = 0
    bland = False
    while True:
        col = _entering(reduced, bland)
        if col < 0:
            return "optimal", iterations
        row, rmin = _leaving(a, b, n_real, col)
        if row < 0:
            return "no_pivot", iterations
        _apply_pivot(a, b, reduced, basis, row, col)
        iterations += 1
        if iterations > _MAX_ITERATIONS:
            return "iteration_limit", iterations
        if rmin <= 1e-12:
            streak += 1
            bland = bland or streak >= _DEGENERATE_STREAK
        else:
            streak = 0
            bland = False


def solve_lp(problem: LpProblem) -> LpSolution:
    """Two-phase dense simplex with anti-cycling safeguards.

    Leaving rows follow the lexicographic ratio test; entering columns use
    Dantzig pricing with Bland's rule engaged on long degenerate streaks.
    Reported optima satisfy equality residuals within 1e-8, inequality
    overshoot within 1e-8, and componentwise x >= -1e-12, and their basis
    certifies optimality on the original data: every reduced cost, slack
    columns included, is at least -1e-9 * (1 + max|c|). A final basis failing
    either check is reported as status "failed", never trusted. More than
    100,000 pivots also end "failed".
    """
    n = problem.c.size
    m_eq = problem.a_eq.shape[0]
    m_ub = problem.g_ub.shape[0]
    m = m_eq + m_ub
    n_real = n + m_ub

    a = np.zeros((m, n_real))
    b = np.zeros(m)
    if m_eq:
        a[:m_eq, :n] = problem.a_eq
        b[:m_eq] = problem.b_eq
    if m_ub:
        a[m_eq:, :n] = problem.g_ub
        a[m_eq:, n:] = np.eye(m_ub)
        b[m_eq:] = problem.h_ub
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0
    # append the artificial identity: those columns carry the running basis
    # inverse, which the lexicographic ratio test in _leaving compares
    a = np.hstack([a, np.eye(m)])

    basis = [n_real + i for i in range(m)]  # artificial variables
    reduced = -a[:, :n_real].sum(axis=0)  # phase-one reduced costs

    outcome, iterations = _pivot_until_optimal(a, b, reduced, basis, n_real, 0)
    if outcome != "optimal":
        # the phase-one objective is bounded below by zero, so a missing
        # pivot row here is numeric trouble, not unboundedness
        return LpSolution(status="failed", iterations=iterations)

    phase1 = sum(b[i] for i in range(m) if basis[i] >= n_real)
    if phase1 > _FEAS_TOL:
        return LpSolution(status="infeasible", iterations=iterations)

    # drive leftover zero-level artificials out of the basis; a row with no
    # usable pivot is a redundant constraint and is dropped
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] < n_real:
            continue
        piv_col = -1
        for j in range(n_real):
            if abs(a[i, j]) > PIVOT_TOL:
                piv_col = j
                break
        if piv_col < 0:
            keep[i] = False
        else:
            _apply_pivot(a, b, reduced, basis, i, piv_col)
    if not np.all(keep):
        a = a[keep]
        b = b[keep]
        basis = [bv for bv, k in zip(basis, keep) if k]
    m = a.shape[0]

    cost_full = np.concatenate([problem.c, np.zeros(m_ub)])
    c_basis = cost_full[np.array(basis, dtype=int)] if m else np.zeros(0)
    reduced = cost_full - (c_basis @ a[:, :n_real] if m else 0.0)

    outcome, iterations = _pivot_until_optimal(a, b, reduced, basis, n_real, iterations)
    if outcome == "no_pivot":
        return LpSolution(status="unbounded", iterations=iterations)
    if outcome == "iteration_limit":
        return LpSolution(status="failed", iterations=iterations)

    x_full = np.zeros(n_real)
    for i, bv in enumerate(basis):
        if bv < n_real:
            x_full[bv] = b[i]

    # basis repair: the final basis is combinatorial and survives roundoff,
    # the tableau arithmetic does not. Recompute the basic values against the
    # original data and keep whichever candidate passes verification. The
    # same basis must certify optimality: multipliers y with B^T y = c_B on
    # the original data leave no reduced cost below -tol, slacks included.
    basic = [bv for bv in basis if bv < n_real]
    full = np.zeros((m_eq + m_ub, n_real))
    full[:m_eq, :n] = problem.a_eq
    full[m_eq:, :n] = problem.g_ub
    full[m_eq:, n:] = np.eye(m_ub)
    y = np.zeros(m_eq + m_ub)
    x_repaired = None
    if basic:
        rhs = np.concatenate([problem.b_eq, problem.h_ub])
        vals, *_ = np.linalg.lstsq(full[:, basic], rhs, rcond=None)
        x_repaired = np.zeros(n_real)
        x_repaired[basic] = vals
        y, *_ = np.linalg.lstsq(full[:, basic].T, cost_full[basic], rcond=None)
    tol = _COST_TOL * (1.0 + np.abs(problem.c).max(initial=0.0))
    if np.min(cost_full - y @ full, initial=0.0) < -tol:
        return LpSolution(status="failed", iterations=iterations)

    for cand in (x_repaired, x_full):
        if cand is None:
            continue
        x = cand[:n]
        if not np.all(np.isfinite(x)):
            continue
        if m_eq and np.max(np.abs(problem.a_eq @ x - problem.b_eq)) > _FEAS_TOL:
            continue
        if m_ub and np.max(problem.g_ub @ x - problem.h_ub) > _FEAS_TOL:
            continue
        if np.min(x, initial=0.0) < -1e-12:
            continue
        return LpSolution(
            status="optimal",
            x=x.copy(),
            objective_value=float(problem.c @ x),
            iterations=iterations,
        )
    return LpSolution(status="failed", iterations=iterations)


# ---------------------------------------------------------------------------
# fractional (renewal ratio) benchmark
# ---------------------------------------------------------------------------

def fractional_to_lp(action_triples: Sequence[Tuple[float, Sequence[float], float]],
                     d_rates: Sequence[float]) -> LpProblem:
    """Stationary benchmark for one renewal system as an LP.

    Each triple is (expected penalty y, expected metric vector z, expected
    frame length T >= 1); d_rates are the allowed drift rates. Variables q_i
    are frame frequencies after the standard change of variable: minimize
    sum q_i y_i subject to sum q_i (z_il - d_l T_i) <= 0 for every l and
    sum q_i T_i = 1, q >= 0. The optimal value is the best achievable
    time-average penalty over stationary mixes of the given actions.
    """
    if not action_triples:
        raise ValueError("need at least one action triple")
    d = np.asarray(d_rates, dtype=float).ravel()
    ys = np.array([float(t[0]) for t in action_triples])
    zs = np.array([np.asarray(t[1], dtype=float).ravel() for t in action_triples])
    ts = np.array([float(t[2]) for t in action_triples])
    if np.any(ts < 1.0):
        raise ValueError("expected frame lengths must be at least 1")
    if zs.shape[1] != d.size:
        raise ValueError("metric dimension does not match d_rates")
    g = (zs - ts[:, None] * d[None, :]).T  # one row per constraint
    return LpProblem(
        c=ys,
        a_eq=ts.reshape(1, -1),
        b_eq=np.array([1.0]),
        g_ub=g,
        h_ub=np.zeros(d.size),
    )


def conditional_ratio_optimal(
    event_probs: Sequence[float],
    exp_penalty: np.ndarray,
    exp_frame_len: np.ndarray,
    exp_metrics: np.ndarray,
    budgets: Sequence[float],
) -> float:
    """Best stationary event-conditioned policy for a renewal system.

    The controller observes an i.i.d. event e (probabilities ``event_probs``)
    at each frame start and randomizes over actions given e. Inputs are per
    (event, action) expectations: penalty (E,A), frame length (E,A) with every
    entry >= 1, metrics (E,A,L); ``budgets`` has length L. Solves the ratio
    problem min E[y]/E[T] s.t. E[z_l]/E[T] <= budget_l via the change of
    variable w_{e,a} proportional to P(e) pi(a|e), with one scale variable
    tying per-event mass to P(e).
    """
    p = np.asarray(event_probs, dtype=float).ravel()
    y = np.asarray(exp_penalty, dtype=float)
    t = np.asarray(exp_frame_len, dtype=float)
    z = np.asarray(exp_metrics, dtype=float)
    c = np.asarray(budgets, dtype=float).ravel()
    n_e, n_a = y.shape
    if p.size != n_e or t.shape != (n_e, n_a) or z.shape[:2] != (n_e, n_a):
        raise ValueError("inconsistent event/action table shapes")
    if abs(p.sum() - 1.0) > 1e-9 or np.any(p < 0):
        raise ValueError("event probabilities must be a distribution")
    if np.any(t < 1.0):
        raise ValueError("expected frame lengths must be at least 1")
    n_w = n_e * n_a
    a_eq = np.zeros((n_e + 1, n_w + 1))
    b_eq = np.zeros(n_e + 1)
    for e in range(n_e):
        a_eq[e, e * n_a : (e + 1) * n_a] = 1.0
        a_eq[e, n_w] = -p[e]
    a_eq[n_e, :n_w] = t.ravel()
    b_eq[n_e] = 1.0
    ell = c.size
    g_ub = np.zeros((ell, n_w + 1))
    for l in range(ell):
        g_ub[l, :n_w] = (z[:, :, l] - c[l] * t).ravel()
    cost = np.concatenate([y.ravel(), [0.0]])
    sol = solve_lp(LpProblem(c=cost, a_eq=a_eq, b_eq=b_eq, g_ub=g_ub, h_ub=np.zeros(ell)))
    if sol.status != "optimal":
        raise RuntimeError(f"conditional ratio benchmark LP ended {sol.status}")
    return float(sol.objective_value)


# ---------------------------------------------------------------------------
# coupled download chains: the composite occupation LP through its dual
# ---------------------------------------------------------------------------

@dataclass
class CoupledMdpResult:
    value: float
    n_variables: int
    n_constraints: int


def _policy_gain(p_rows, rewards, policy):
    """Bias h and gain g of ``policy``: (I - P) h + g 1 = r, pinned by h[0] = 0.

    Nonsingular for unichain policies, which are all a composite chain has:
    with lam in (0, 1) and done = phi (1 - lam) < 1 every user's bit is 1 next
    slot with positive probability, so the all-active state is reachable in
    one step from every state. With powers as rewards, g is the policy's
    stationary expected power.
    """
    n = policy.size
    m = np.zeros((n + 1, n + 1))
    m[:n, :n] = np.eye(n) - p_rows[policy]
    m[:n, n] = 1.0
    m[n, 0] = 1.0
    sol = np.linalg.solve(m, np.append(rewards[policy], 0.0))
    return sol[:n], float(sol[n])


def _chain_policy_gain(p_rows, rewards, starts, policy):
    """Best average reward of a finite unichain MDP, by policy iteration.

    p_rows stacks one transition row per state-action pair, grouped by state
    with state s owning rows starts[s] up to starts[s + 1]. Iteration starts
    from ``policy`` (one row index per state, left unchanged). Returns
    (gain, policy) with policy[s] the selected row index for state s.
    """
    n_rows = rewards.size
    group = np.repeat(np.arange(starts.size), np.diff(starts, append=n_rows))
    policy = policy.copy()
    for _ in range(500):
        h, gain = _policy_gain(p_rows, rewards, policy)
        q = rewards + p_rows @ h
        best = np.maximum.reduceat(q, starts)
        # the first row of each state attaining its maximum, as argmax picks
        first = np.minimum.reduceat(
            np.where(q == best[group], np.arange(n_rows), n_rows), starts)
        improved = best > q[policy] + 1e-10
        if not improved.any():
            return gain, policy
        policy[improved] = first[improved]
    raise RuntimeError("policy iteration did not converge")


def _constrained_chain_value(p_rows, rewards, powers, starts, power_budget):
    """Optimal budget-constrained average reward via the Lagrangian dual.

    With a single budget row the dual d(nu) = gain(reward - nu power) +
    nu * budget is convex piecewise linear with no duality gap; its minimum
    is bracketed where the optimal policy's power crosses the budget and
    located by bisection. Policy iteration at each multiplier starts from
    the previous multiplier's optimal policy.
    """
    policy = starts
    if power_budget is None:
        gain, _ = _chain_policy_gain(p_rows, rewards, starts, policy)
        return gain

    def best(nu):
        nonlocal policy
        gain, policy = _chain_policy_gain(
            p_rows, rewards - nu * powers, starts, policy
        )
        return gain + nu * power_budget, _policy_gain(p_rows, powers, policy)[1]

    value, power = best(0.0)
    if power <= power_budget + 1e-12:
        return value
    lo, hi = 0.0, 1.0
    while best(hi)[1] > power_budget:
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("power multiplier bracket diverged")
    while hi - lo > 1e-11:
        mid = 0.5 * (lo + hi)
        if best(mid)[1] > power_budget:
            lo = mid
        else:
            hi = mid
    return min(best(lo)[0], best(hi)[0])


def coupled_mdp_optimal(
    arrival_probs: Sequence[float],
    weights: Sequence[float],
    mean_files: Sequence[float],
    action_sets: Sequence[Sequence[Tuple[float, float]]],
    served_limit: int,
    power_budget: Optional[float] = None,
) -> CoupledMdpResult:
    """Optimal stationary weighted throughput of coupled download chains.

    User n alternates between holding a file (active) and idle: an idle user
    turns active with probability ``arrival_probs[n]`` each slot; serving an
    active user with action (phi, power) completes the file with probability
    phi, and a fresh file may arrive at the end of the completing slot. Each
    slot at most ``served_limit`` users are served; expected served power is
    capped by ``power_budget`` when given. The value is that of the
    occupation-measure LP on the composite state space (all active/idle
    patterns, joint actions enumerated directly) maximizing the sum of
    weight * mean_file * phi over served users. It is computed through the
    LP's Lagrangian dual (see :func:`_constrained_chain_value`), which needs
    the transition rows but not the LP's equality matrix.

    action_sets[n] lists (phi, power) pairs; the first entry must be the do
    nothing action (0, 0).
    """
    lam = np.asarray(arrival_probs, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    bf = np.asarray(mean_files, dtype=float).ravel()
    n_users = lam.size
    if not (w.size == bf.size == n_users and len(action_sets) == n_users):
        raise ValueError("per-user parameter lengths disagree")
    if np.any(lam <= 0) or np.any(lam >= 1):
        raise ValueError("arrival probabilities must lie strictly inside (0, 1)")
    if 2 ** n_users > _STATE_CAP:
        raise ValueError(
            f"composite state space 2^{n_users} exceeds capacity {_STATE_CAP}"
        )
    if not (isinstance(served_limit, (int, np.integer)) and served_limit >= 1):
        raise ValueError(f"served_limit must be an integer >= 1, got {served_limit!r}")
    if power_budget is not None and not 0.0 <= float(power_budget) < np.inf:
        raise ValueError(f"power_budget must be finite and nonnegative, got {power_budget!r}")
    for acts in action_sets:
        if not acts or acts[0][0] != 0.0 or acts[0][1] != 0.0:
            raise ValueError("each action set must start with the (0, 0) idle action")
        for phi, power in acts:
            if not (0.0 <= phi <= 1.0) or power < 0:
                raise ValueError("action success must be in [0,1], power nonnegative")

    state_of, rows, rewards, powers = _composite_chain(
        lam, w, bf, action_sets, served_limit
    )
    n_vars, n_states = rows.shape
    has_budget = power_budget is not None
    value = _constrained_chain_value(
        rows, rewards, powers, np.searchsorted(state_of, np.arange(n_states)),
        float(power_budget) if has_budget else None,
    )
    return CoupledMdpResult(
        value=value,
        n_variables=n_vars + has_budget,
        n_constraints=n_states + 1 + has_budget,
    )


def _composite_chain(lam, w, bf, action_sets, served_limit):
    """State-action pairs of the composite download chain, grouped by state.

    Pairs are enumerated state by state, then by number of served users,
    served subset and action picks. Returns (state_of, rows, rewards,
    powers): rows[j] is pair j's transition row over next states, indexed
    with user 0 in the least significant bit.
    """
    n_users = lam.size
    state_of = []
    assign = []  # assign[j][u] = action index of user u in pair j
    for s in range(2 ** n_users):
        active = [u for u in range(n_users) if (s >> u) & 1]
        for k in range(0, min(served_limit, len(active)) + 1):
            for subset in itertools.combinations(active, k):
                choice_pools = [range(1, len(action_sets[u])) for u in subset]
                for picks in itertools.product(*choice_pools):
                    row = [0] * n_users
                    for u, a_idx in zip(subset, picks):
                        row[u] = a_idx
                    state_of.append(s)
                    assign.append(row)
    state_of = np.array(state_of)
    assign = np.array(assign).reshape(-1, n_users)
    n_vars = state_of.size
    # (phi, power) of each user's action in every pair; the idle action
    # (0, 0) adds nothing to the sums, as leaving the user out would
    picked = [np.array(acts, dtype=float)[assign[:, u]].T
              for u, acts in enumerate(action_sets)]
    rewards = np.zeros(n_vars)
    powers = np.zeros(n_vars)
    for u, (phi, pw) in enumerate(picked):
        rewards = rewards + w[u] * bf[u] * phi
        powers = powers + pw
    # outer products of the per-user next-bit laws from user n - 1 down to
    # user 0, in np.kron's order: an active user stays active unless served
    # and done with no fresh arrival, an idle one turns active w.p. lam
    rows = None
    for u in reversed(range(n_users)):
        active = ((state_of >> u) & 1).astype(bool)
        done = picked[u][0] * (1.0 - lam[u])
        factor = np.stack([np.where(active, done, 1.0 - lam[u]),
                           np.where(active, 1.0 - done, lam[u])], axis=1)
        rows = factor if rows is None else (
            rows[:, :, None] * factor[:, None, :]).reshape(n_vars, -1)
    return state_of, rows, rewards, powers
