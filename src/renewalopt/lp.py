"""Two-phase revised simplex, the renewal benchmark LPs, and the composite
download chain's optimum.

The solver is intentionally self-contained. It drops dependent equality rows,
then runs phase one from artificial variables and phase two on the original
costs with one pivot loop: every pivot inverts the basis columns of the
original data afresh, prices by Dantzig's rule, and picks the leaving row by a
Harris ratio test, a pivot-size threshold and the lexicographic rule. Any
reported optimum is checked on the original data: residuals, and an
optimality certificate. ``fractional_to_lp`` and ``conditional_ratio_optimal``
turn renewal action sets and event-conditioned policies into LpProblem
instances solved by it. The composite download chain's occupation LP is
solved through its Lagrangian dual instead (policy iteration plus bisection on
the power multiplier). The LPs over products of occupation polytopes live in
``ocmdp``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

PIVOT_TOL = 1e-9
# a reported optimum's residual bound, also the Harris ratio slack and the
# consistency bound of a dropped row; its certificate's reduced-cost bound is
# -_COST_TOL * (1 + max|c|), and _COST_TOL is also the pricing threshold
_FEAS_TOL = 1e-8
_COST_TOL = 1e-9
_MAX_ITERATIONS = 100_000
# composite download chains are refused above this many states
_STATE_CAP = 8192


@dataclass
class LpProblem:
    """min c.x subject to a_eq x = b_eq, g_ub x <= h_ub, x >= 0.

    Each row block is given with its right-hand side or left out whole, and
    every entry is finite; anything else raises ``ValueError`` naming the
    field.
    """

    c: np.ndarray
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    g_ub: Optional[np.ndarray] = None
    h_ub: Optional[np.ndarray] = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        for mat, vec in (("a_eq", "b_eq"), ("g_ub", "h_ub")):
            rows, rhs = getattr(self, mat), getattr(self, vec)
            if (rows is None) != (rhs is None):
                raise ValueError(f"{mat} and {vec} must be given together")
            if rows is None or np.size(rows) == 0:
                rows = np.zeros((0, self.c.size))
            rows = np.asarray(rows, dtype=float).reshape(-1, self.c.size)
            rhs = np.asarray(() if rhs is None else rhs, dtype=float).ravel()
            if rhs.size != rows.shape[0]:
                raise ValueError(f"{vec} length does not match {mat} rows")
            setattr(self, mat, rows)
            setattr(self, vec, rhs)
        for name in ("c", "a_eq", "b_eq", "g_ub", "h_ub"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded | failed
    x: Optional[np.ndarray] = None
    objective_value: Optional[float] = None
    iterations: int = 0


def _independent_rows(a, b):
    """Indices of the rows of a x = b kept by a greedy pass in row order.

    Gram-Schmidt with one reorthogonalisation: a row whose residual, after the
    kept rows are projected out, is at most PIVOT_TOL times its norm is
    dropped. Returns None when a dropped row's right-hand side misses the
    combination of the kept rows' by more than _FEAS_TOL, so no x solves it.
    """
    q = np.zeros((0, a.shape[1]))  # orthonormal rows spanning the kept rows
    qb = np.zeros(0)  # q x = qb for every x solving the kept rows
    keep = []
    for i, row in enumerate(a):
        t = q @ row
        r = row - t @ q
        t2 = q @ r
        r -= t2 @ q
        rb = b[i] - (t + t2) @ qb
        norm = np.linalg.norm(r)
        if norm <= PIVOT_TOL * np.linalg.norm(row):
            if abs(rb) > _FEAS_TOL:
                return None
            continue
        keep.append(i)
        q = np.vstack([q, r / norm])
        qb = np.append(qb, rb / norm)
    return keep


def _pivot_until_optimal(a, b, cost, basis, n_real, iterations):
    """Revised simplex on the columns of ``a``, from ``basis`` (modified).

    Every pivot inverts the basis columns of ``a`` afresh, so no error carries
    from one pivot to the next. Only the first ``n_real`` columns may enter,
    by Dantzig's rule. With x_B clipped at zero, the leaving row passes three
    filters: Harris's ratio bound with _FEAS_TOL slack, then pivots of at
    least a tenth of the largest left, then the lexicographic minimum of
    [x_B, B^-1] / d. The size filter keeps bases well conditioned but can
    cycle on a degenerate vertex, so a basis visited before in this call
    skips it: the lexicographic rule alone cannot cycle in exact arithmetic.
    Returns (outcome, x_B, iterations) with outcome "optimal", "unbounded" for
    an entering column with no positive entry, or "failed" for a singular
    basis or after _MAX_ITERATIONS pivots.
    """
    seen = set()
    while True:
        try:
            b_inv = np.linalg.inv(a[:, basis])
        except np.linalg.LinAlgError:
            return "failed", None, iterations
        x_b = b_inv @ b
        reduced = cost[:n_real] - (cost[basis] @ b_inv) @ a[:, :n_real]
        reduced[[j for j in basis if j < n_real]] = 0.0
        col = int(np.argmin(reduced))
        if reduced[col] >= -_COST_TOL:
            return "optimal", x_b, iterations
        if iterations >= _MAX_ITERATIONS:
            return "failed", None, iterations
        d = b_inv @ a[:, col]
        rows = np.flatnonzero(d > PIVOT_TOL)
        if not rows.size:
            return "unbounded", None, iterations
        x_pos = np.maximum(x_b, 0.0)
        rows = rows[x_pos[rows] / d[rows] <= np.min((x_pos[rows] + _FEAS_TOL) / d[rows])]
        if tuple(basis) not in seen:
            seen.add(tuple(basis))
            rows = rows[d[rows] >= 0.1 * d[rows].max()]
        lex = np.column_stack([x_pos[rows], b_inv[rows]]) / d[rows, None]
        basis[rows[np.lexsort(lex.T[::-1])[0]]] = col
        iterations += 1


def solve_lp(problem: LpProblem) -> LpSolution:
    """Two-phase revised simplex, checked on the original data.

    Dependent equality rows are dropped first; one whose right-hand side
    disagrees with the rows kept makes the LP "infeasible". Phase one starts
    from an artificial identity, and each artificial left basic at zero level
    is swapped out on its row's largest real entry before phase two. Reported
    optima satisfy equality residuals within 1e-8, inequality overshoot
    within 1e-8, and componentwise x >= -1e-12, and their basis certifies
    optimality on the original data: every reduced cost, slack columns
    included, is at least -1e-9 * (1 + max|c|). A final basis failing either
    check is reported as status "failed", never trusted. More than 100,000
    pivots also end "failed".
    """
    n = problem.c.size
    m_eq, m_ub = problem.a_eq.shape[0], problem.g_ub.shape[0]
    n_real = n + m_ub
    keep = _independent_rows(problem.a_eq, problem.b_eq)
    if keep is None:
        return LpSolution(status="infeasible")

    full = np.block([[problem.a_eq, np.zeros((m_eq, m_ub))],
                     [problem.g_ub, np.eye(m_ub)]])
    rhs = np.concatenate([problem.b_eq, problem.h_ub])
    rows = keep + list(range(m_eq, m_eq + m_ub))
    m = len(rows)
    sign = np.where(rhs[rows] < 0, -1.0, 1.0)
    a = np.hstack([sign[:, None] * full[rows], np.eye(m)])
    b = sign * rhs[rows]
    basis = list(range(n_real, n_real + m))  # artificial variables

    cost = np.concatenate([np.zeros(n_real), np.ones(m)])
    outcome, x_b, iterations = _pivot_until_optimal(a, b, cost, basis, n_real, 0)
    if outcome != "optimal":
        # the phase-one objective is bounded below by zero, so a missing
        # pivot row here is numeric trouble, not unboundedness
        return LpSolution(status="failed", iterations=iterations)
    if cost[basis] @ x_b > _FEAS_TOL:
        return LpSolution(status="infeasible", iterations=iterations)
    for i in [i for i in range(m) if basis[i] >= n_real]:
        entries = np.abs(np.linalg.inv(a[:, basis])[i] @ a[:, :n_real])
        basis[i] = int(np.argmax(entries))
        if entries[basis[i]] <= PIVOT_TOL:
            return LpSolution(status="failed", iterations=iterations)

    cost_full = np.concatenate([problem.c, np.zeros(m_ub)])
    cost[:n_real] = cost_full
    outcome, x_b, iterations = _pivot_until_optimal(a, b, cost, basis, n_real, iterations)
    if outcome != "optimal":
        return LpSolution(status=outcome, iterations=iterations)

    # the final basis is combinatorial and survives roundoff: on the original
    # data, every row and slack included, its multipliers y (B^T y = c_B)
    # leave no reduced cost below -tol, and its values come from least squares
    # or else the last pivot's B^-1 b, whichever first passes the residuals
    x_lstsq, *_ = np.linalg.lstsq(full[:, basis], rhs, rcond=None)
    y, *_ = np.linalg.lstsq(full[:, basis].T, cost_full[basis], rcond=None)
    tol = _COST_TOL * (1.0 + np.abs(problem.c).max(initial=0.0))
    if np.min(cost_full - y @ full, initial=0.0) < -tol:
        return LpSolution(status="failed", iterations=iterations)

    for vals in (x_lstsq, x_b):
        x_full = np.zeros(n_real)
        x_full[basis] = vals
        x = x_full[:n]
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
