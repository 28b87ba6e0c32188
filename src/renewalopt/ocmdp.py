"""Online constrained control of several weakly coupled Markov decision
processes.

Each system runs on its own finite state space and is steered through a
state-action occupation vector theta rather than through an explicit policy:
theta[s * n_actions + a] is the stationary probability of sitting in state s
and playing action a, and the feasible set is the polyhedron cut out by the
balance equations together with the probability simplex. Every slot runs
the same way (:func:`run_ocmdp`): each system plays its current theta on its
true chain, the slot's penalty and constraint tables are revealed, and then
every system takes a projected gradient step (:func:`ocmdp_step`)

    w = V * f + sum_i Q_i * g_i
    theta_{t+1} = project(theta_t - w / (2 * alpha))

and the shared virtual queues absorb the expected constraint usage of the new
occupation vectors. Projections are exact: an active-set method walks the
faces of the polyhedron and stops, after finitely many, when the bound
multipliers certify optimality. Membership is enforced there, once per
update: the projection clamps theta at zero and raises unless its affine
residual is within 1e-8; the ocmdp-scaling acceptance criterion re-checks
every logged theta against the same bound. Play draws from the visited
state's row of theta: actions and next states are drawn by inverting the
same CDFs, on the same uniform draws, as ``Generator.choice``, and realized
penalties feed the regret accounting against the best stationary baseline.

The module also owns the LPs over products of occupation polyhedra: the
stationary baseline (:func:`stationary_baseline`) and the Slater margin
(:func:`slater_margin`) share one builder for the polyhedra's rows and the
coupling rows, and are solved by ``lp.solve_lp``.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from renewalopt import lp

_MEMBERSHIP_TOL = 1e-8
_ROW_SUM_TOL = 1e-12
# run_ocmdp refuses a constrained instance whose Slater margin is not above this
_SLATER_TOL = 1e-6
# Generator.choice rejects p whose sum misses 1 by more than this
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)


@dataclass
class MdpSpec:
    """One system: transition tensor plus penalty/constraint generators.

    ``transitions[a, s, :]`` is the next-state distribution under action a,
    row-stochastic to within 1e-12. ``f_mean`` (states, actions) and
    ``g_means`` (constraints, states, actions) are the means of the revealed
    tables; each slot the generator adds independent uniform noise of
    half-width ``noise`` and clips to [-psi, psi]. ``psi`` defaults to the
    smallest bound consistent with the means and the noise. ``f_drift``
    optionally makes the penalty mean wander: a pair (direction, period)
    adds sin(2*pi*t/period) * direction to ``f_mean`` at slot t. The
    constraint tables stay i.i.d.; only f may drift. Every array and number
    must be finite. This is the instance's one validation gate: the
    polyhedron, the sampler and the LPs trust what it admits.
    """

    transitions: np.ndarray
    f_mean: np.ndarray
    g_means: np.ndarray
    noise: float = 0.0
    psi: Optional[float] = None
    f_drift: Optional[Tuple[np.ndarray, float]] = None

    def __post_init__(self) -> None:
        self.transitions = np.asarray(self.transitions, dtype=float)
        self.f_mean = np.asarray(self.f_mean, dtype=float)
        self.g_means = np.asarray(self.g_means, dtype=float)
        if self.transitions.ndim != 3 or self.transitions.shape[1] != self.transitions.shape[2]:
            raise ValueError("transitions must be shaped (actions, states, states)")
        n_a, n_s, _ = self.transitions.shape
        if n_a < 1 or n_s < 1:
            raise ValueError("need at least one state and one action")
        for name in ("transitions", "f_mean", "g_means"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if (self.transitions < 0.0).any():
            raise ValueError("transition probabilities must be nonnegative")
        row_err = np.abs(self.transitions.sum(axis=2) - 1.0).max()
        if row_err > _ROW_SUM_TOL:
            raise ValueError(f"transition rows must sum to 1 (off by {row_err:.3e})")
        if self.f_mean.shape != (n_s, n_a):
            raise ValueError("f_mean must be shaped (states, actions)")
        self.g_means = self.g_means.reshape(-1, n_s, n_a)
        self.noise = float(self.noise)
        if not 0.0 <= self.noise < math.inf:
            raise ValueError("noise must be finite and nonnegative")
        if self.f_drift is not None:
            direction, period = self.f_drift
            direction = np.asarray(direction, dtype=float)
            if direction.shape != (n_s, n_a):
                raise ValueError("drift direction must be shaped (states, actions)")
            if not np.isfinite(direction).all():
                raise ValueError("drift direction must be finite")
            if not 0.0 < float(period) < math.inf:
                raise ValueError("drift period must be finite and positive")
            self.f_drift = (direction, float(period))
        needed = self._tightest_bound() + self.noise
        if self.psi is None:
            self.psi = needed
        else:
            self.psi = float(self.psi)
            if not math.isfinite(self.psi):
                raise ValueError("psi must be finite")
            if self.psi + 1e-12 < needed:
                raise ValueError(
                    f"psi={self.psi} cannot bound tables reaching {needed}"
                )

    def _tightest_bound(self) -> float:
        peak = float(np.abs(self.f_mean).max())
        if self.g_means.size:
            peak = max(peak, float(np.abs(self.g_means).max()))
        if self.f_drift is not None:
            direction, _ = self.f_drift
            peak = max(peak, float((np.abs(self.f_mean) + np.abs(direction)).max()))
        return peak

    @property
    def n_states(self) -> int:
        return self.transitions.shape[1]

    @property
    def n_actions(self) -> int:
        return self.transitions.shape[0]

    @property
    def n_constraints(self) -> int:
        return self.g_means.shape[0]

    @property
    def dim(self) -> int:
        return self.n_states * self.n_actions

    def mean_f_at(self, slot: int) -> np.ndarray:
        """Penalty mean table for one slot, drift included."""
        if self.f_drift is None:
            return self.f_mean
        direction, period = self.f_drift
        return self.f_mean + math.sin(2.0 * math.pi * slot / period) * direction

    def sample_tables(self, slot: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """Realized (f, g) tables for one slot: mean + uniform noise, clipped.

        f and g are views of one buffer, noised by one uniform draw over f
        then g: the same stream as one draw for f followed by one for g.
        """
        f_mean = self.mean_f_at(slot)
        tables = np.concatenate((f_mean.ravel(), self.g_means.ravel()))
        if self.noise > 0.0:
            tables += rng.uniform(-self.noise, self.noise, size=tables.size)
        np.maximum(tables, -self.psi, out=tables)
        np.minimum(tables, self.psi, out=tables)
        split = f_mean.size
        return tables[:split].reshape(f_mean.shape), tables[split:].reshape(self.g_means.shape)


def _stationary_distribution(p: np.ndarray) -> np.ndarray:
    """Stationary distribution of one row-stochastic matrix via least squares."""
    n = p.shape[0]
    a = np.vstack([p.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    d, *_ = np.linalg.lstsq(a, b, rcond=None)
    return d


@dataclass
class PolyhedronTheta:
    """Occupation polyhedron of one system in halfspace form.

    ``aff_a theta = aff_b`` stacks the balance equations (one redundant row
    dropped) and the simplex normalization; the orthant theta >= 0 completes
    the set. ``uniform_theta`` is the uniform policy's stationary occupation
    vector: membership witness and the projection's start.
    ``next_state_cdfs[a][s]`` is the inverse CDF of the next state after
    action a in state s (see :func:`_choice_cdf`). ``faces`` memoises
    :meth:`face` on the object itself, so no memo outlives its polyhedron.
    """

    aff_a: np.ndarray
    aff_b: np.ndarray
    dim: int
    n_states: int
    n_actions: int
    uniform_theta: np.ndarray = field(repr=False)
    next_state_cdfs: List[List[List[float]]] = field(repr=False)
    faces: dict = field(default_factory=dict, repr=False, compare=False)

    def membership_residual(self, theta: np.ndarray) -> float:
        """How far a vector sits outside the polyhedron, in infinity norm;
        infinite for a vector that is not finite."""
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.size != self.dim:
            raise ValueError("vector length does not match the polyhedron")
        if not np.isfinite(theta).all():
            return math.inf
        affine = float(np.abs(self.aff_a @ theta - self.aff_b).max())
        negative = float(max(0.0, -theta.min()))
        return max(affine, negative)

    def face(self, free: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Null-space projector of M = [aff_a; identity rows off ``free``],
        and pinv(M)^T's bound rows, which map z - x to bound multipliers."""
        key = free.tobytes()
        if key not in self.faces:
            rows = np.vstack([self.aff_a, np.eye(self.dim)[~free]])
            back = np.linalg.pinv(rows)
            self.faces[key] = (np.eye(self.dim) - back @ rows,
                               back.T[self.aff_a.shape[0]:])
        return self.faces[key]


def build_polyhedron(spec: MdpSpec) -> PolyhedronTheta:
    """Assemble the occupation polyhedron of one system.

    Balance rows (one per destination state, coefficient P_a(s, s') minus the
    indicator of s = s') sum to the zero functional, so the last one is
    dropped before the simplex row is appended. The transitions are those
    :class:`MdpSpec` admitted. The uniform policy's stationary occupation
    vector is computed and checked for membership within 1e-9; failure means
    the transition tensor is numerically broken and raises. Each transition
    row's inverse CDF is built here, once.
    """
    p = spec.transitions
    n_a, n_s, _ = p.shape
    dim = n_s * n_a
    balance = np.zeros((n_s, dim))
    for s_next in range(n_s):
        balance[s_next] = p[:, :, s_next].T.ravel()
        balance[s_next, s_next * n_a : (s_next + 1) * n_a] -= 1.0
    aff_a = np.vstack([balance[: n_s - 1], np.ones((1, dim))])
    aff_b = np.zeros(n_s)
    aff_b[-1] = 1.0

    d = _stationary_distribution(p.mean(axis=0))
    uniform_theta = np.repeat(d, n_a) / n_a
    poly = PolyhedronTheta(
        aff_a=aff_a,
        aff_b=aff_b,
        dim=dim,
        n_states=n_s,
        n_actions=n_a,
        uniform_theta=uniform_theta,
        next_state_cdfs=[[_choice_cdf(row) for row in p[a]] for a in range(n_a)],
    )
    witness = poly.membership_residual(uniform_theta)
    if not witness <= 1e-9:
        raise RuntimeError(
            f"uniform stationary vector misses the polyhedron by {witness:.3e}"
        )
    return poly


def project_onto_theta(poly: PolyhedronTheta, x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the occupation polyhedron.

    Primal active-set method on the bounds theta >= 0 (Nocedal & Wright,
    Algorithm 16.3) from ``poly.uniform_theta``, its zero entries bound. Each
    step projects x - z onto the face and goes as far as the free entries stay
    nonnegative, binding the one that blocks; after a full step the bound with
    the most negative multiplier is freed, until none is negative beyond
    rounding. The result is exactly nonnegative, with affine residual <= 1e-8.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size != poly.dim:
        raise ValueError("vector length does not match the polyhedron")
    if not np.isfinite(x).all():
        raise ValueError("projection input must be finite")
    z = np.maximum(poly.uniform_theta, 0.0)
    free = z > 0.0
    # freeing a bound whose multiplier is only rounding below zero can re-bind
    # it at once with a zero-length step, and so on without end
    rounding = 1e-12 * (1.0 + float(np.abs(x).max()))
    while True:
        null_proj, multipliers = poly.face(free)
        p = np.where(free, null_proj @ (x - z), 0.0)
        shrinking = (free & (p < 0.0)).nonzero()[0]
        ratios = z[shrinking] / -p[shrinking]
        if ratios.size and ratios.min() < 1.0:
            k = int(ratios.argmin())
            z = np.maximum(z + ratios[k] * p, 0.0)
            z[shrinking[k]] = 0.0
            free[shrinking[k]] = False
            continue
        z = z + p
        mu = multipliers @ (z - x)
        if not mu.size or mu.min() >= -rounding:
            break
        free[(~free).nonzero()[0][mu.argmin()]] = True
    z = np.maximum(z, 0.0)
    affine = float(np.abs(poly.aff_a @ z - poly.aff_b).max())
    if not affine <= _MEMBERSHIP_TOL:
        raise RuntimeError(
            f"projection affine residual {affine:.3e} exceeds {_MEMBERSHIP_TOL}"
        )
    return z


def _choice_cdf(p: np.ndarray) -> List[float]:
    """The inverse CDF that ``Generator.choice(p.size, p=p)`` searches.

    Raises unless p passes choice's own check: nonnegative, with a Kahan sum
    within sqrt(eps) of 1. ``bisect_right(cdf, rng.random())`` then draws
    the index choice would draw, from the same uniform.
    """
    values = p.tolist()
    total, carry = values[0], 0.0
    for value in values[1:]:
        y = value - carry
        t = total + y
        carry = (t - total) - y
        total = t
    if not abs(total - 1.0) <= _CHOICE_ATOL or min(values) < 0.0:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _play(poly: PolyhedronTheta, theta: np.ndarray, s: int,
          rng: np.random.Generator) -> Tuple[int, int]:
    """Draw an action at state s under the policy theta encodes, then the
    next state.

    The action distribution is theta(s, .) over its marginal, renormalised;
    a state with no positive marginal carries no mass under theta, so any
    distribution works there and the uniform one is used.
    """
    n_a = poly.n_actions
    row = theta[s * n_a : (s + 1) * n_a]
    marginal = row.sum()
    row = row / marginal if marginal > 0.0 else np.full(n_a, 1.0 / n_a)
    a = bisect.bisect_right(_choice_cdf(row / row.sum()), rng.random())
    return a, bisect.bisect_right(poly.next_state_cdfs[a][s], rng.random())


def ocmdp_step(
    polys: Sequence[PolyhedronTheta],
    thetas: Sequence[np.ndarray],
    queues: np.ndarray,
    f_prev: Sequence[np.ndarray],
    g_prev: Sequence[np.ndarray],
    v: float,
    alpha: float,
) -> Tuple[List[np.ndarray], np.ndarray]:
    """The projected update, from one slot's revealed tables.

    Per system: fold the tables into w = v*f + sum_i Q_i * g_i and project
    theta - w/(2*alpha) back onto the polyhedron. The virtual queues then
    absorb the expected constraint usage of the new occupation vectors.
    Returns (next slot's thetas, next slot's queues). Membership of each new
    theta is enforced by :func:`project_onto_theta`, which clamps it at zero
    and raises if its affine residual exceeds 1e-8, and re-checked per logged
    slot by the ocmdp-scaling acceptance criterion.
    """
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    step = 2.0 * alpha
    new_thetas: List[np.ndarray] = []
    drift = np.zeros(queues.shape)
    for poly, theta, f, g in zip(polys, thetas, f_prev, g_prev):
        g_flat = g.reshape(queues.size, poly.dim)
        w = v * f.ravel()
        if queues.size:
            w = w + queues @ g_flat
        theta = project_onto_theta(poly, theta - w / step)
        if queues.size:
            drift += g_flat @ theta
        new_thetas.append(theta)
    return new_thetas, np.maximum(queues + drift, 0.0)


def _spec_record(spec: MdpSpec) -> dict:
    """One system's fields as plain JSON values: what :func:`save_instance`
    writes, :func:`load_instance` reads back and
    :func:`instance_fingerprint` hashes."""
    record = {
        "transitions": spec.transitions.tolist(),
        "f_mean": spec.f_mean.tolist(),
        "g_means": spec.g_means.tolist(),
        "noise": spec.noise,
        "psi": spec.psi,
    }
    if spec.f_drift is not None:
        direction, period = spec.f_drift
        record["f_drift"] = {"direction": direction.tolist(), "period": period}
    return record


def instance_fingerprint(specs: Sequence[MdpSpec]) -> str:
    """Order-sensitive content hash of an instance: sha256 of its records
    as JSON, whose float reprs round-trip exactly."""
    text = json.dumps([_spec_record(spec) for spec in specs])
    return hashlib.sha256(text.encode()).hexdigest()


def _coupled_polytope_rows(polys, g_means, extra=0):
    """Rows of an LP over (theta_1, ..., theta_K, ``extra`` more columns).

    Returns (a_eq, b_eq, g_ub, offs): the polyhedra's ``aff_a theta_k =
    aff_b`` blocks down the diagonal of a_eq, and in g_ub one coupling row
    sum_k <g_means[k][i], theta_k> per constraint i; theta_k occupies
    columns offs[k] up to offs[k + 1], the extra columns are left zero.
    """
    dims = [int(p.dim) for p in polys]
    offs = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    n_cols = int(offs[-1]) + extra
    blocks = [(np.asarray(p.aff_a, dtype=float), np.asarray(p.aff_b, dtype=float))
              for p in polys]
    a_eq = np.zeros((sum(aa.shape[0] for aa, _ in blocks), n_cols))
    b_eq = np.zeros(a_eq.shape[0])
    r = 0
    for k, (aa, bb) in enumerate(blocks):
        a_eq[r : r + aa.shape[0], offs[k] : offs[k + 1]] = aa
        b_eq[r : r + aa.shape[0]] = bb
        r += aa.shape[0]
    g_rows = [np.asarray(gk, dtype=float).reshape(-1, dims[k])
              for k, gk in enumerate(g_means)]
    m = g_rows[0].shape[0] if g_rows else 0
    g_ub = np.zeros((m, n_cols))
    for k, gk in enumerate(g_rows):
        if gk.shape[0] != m:
            raise ValueError("constraint counts differ between systems")
        g_ub[:, offs[k] : offs[k + 1]] = gk
    return a_eq, b_eq, g_ub, offs


def stationary_baseline(
    polyhedra: Sequence[object],
    mean_f: Sequence[np.ndarray],
    mean_g: Sequence[np.ndarray],
) -> Tuple[List[np.ndarray], float]:
    """Best stationary occupation vectors for parallel MDPs under coupling.

    Minimizes sum_k <mean_f[k], theta_k> over theta_k in each polytope subject
    to sum_k <mean_g[k][i], theta_k> <= 0 for every constraint row i. Each
    polytope must expose ``aff_a``, ``aff_b`` and ``dim`` (see
    :func:`build_polyhedron`). Returns (occupation vectors, optimal value).
    """
    a_eq, b_eq, g_ub, offs = _coupled_polytope_rows(polyhedra, mean_g)
    f_vec = np.concatenate([np.asarray(f, dtype=float).ravel() for f in mean_f])
    if f_vec.size != offs[-1]:
        raise ValueError("mean_f dimensions do not match the polytopes")
    sol = lp.solve_lp(lp.LpProblem(c=f_vec, a_eq=a_eq, b_eq=b_eq, g_ub=g_ub,
                                   h_ub=np.zeros(g_ub.shape[0])))
    if sol.status != "optimal":
        raise RuntimeError(f"stationary baseline LP ended {sol.status}")
    thetas = [sol.x[offs[k] : offs[k + 1]].copy() for k in range(len(polyhedra))]
    return thetas, float(sol.objective_value)


def slater_margin(
    polys: Sequence[PolyhedronTheta],
    g_means: Sequence[np.ndarray],
) -> float:
    """Largest s with sum_k <g_i, theta_k> <= -s feasible for every i.

    A positive margin certifies strict feasibility of the coupling
    constraints under some product of randomized stationary policies.
    Returns -inf when even weak feasibility fails.
    """
    a_eq, b_eq, g_ub, _ = _coupled_polytope_rows(polys, g_means, extra=1)
    if not g_ub.shape[0]:
        return math.inf
    g_ub[:, -1] = 1.0
    cost = np.zeros(g_ub.shape[1])
    cost[-1] = -1.0
    sol = lp.solve_lp(lp.LpProblem(c=cost, a_eq=a_eq, b_eq=b_eq, g_ub=g_ub,
                                   h_ub=np.zeros(g_ub.shape[0])))
    if sol.status != "optimal":
        return -math.inf
    return float(sol.x[-1])


@dataclass
class StationaryBaseline:
    """Best stationary occupation vectors and their per-slot penalty rate."""

    thetas: List[np.ndarray]
    value: float
    fingerprint: str


def solve_baseline(specs: Sequence[MdpSpec]) -> StationaryBaseline:
    """Solve the coupled stationary benchmark on the instance's true means."""
    polys = [build_polyhedron(spec) for spec in specs]
    thetas, value = stationary_baseline(
        polys,
        [spec.f_mean for spec in specs],
        [spec.g_means for spec in specs],
    )
    return StationaryBaseline(
        thetas=thetas, value=value, fingerprint=instance_fingerprint(specs)
    )


@dataclass
class OcmdpLog:
    """Trajectory record of one simulated run.

    ``queues[t]`` is Q(t) (rows 0 and 1 are exactly zero), ``realized_f[t]``
    and ``realized_g[t]`` sum the revealed table entries at the visited
    state-action pairs over all systems, and ``thetas[k][t]`` is system k's
    occupation vector during slot t.
    """

    horizon: int
    fingerprint: str
    queues: np.ndarray
    realized_f: np.ndarray
    realized_g: np.ndarray
    states: np.ndarray
    actions: np.ndarray
    thetas: List[np.ndarray]

    @property
    def n_constraints(self) -> int:
        return self.queues.shape[1]


def _spawn_rngs(seed: int, count: int) -> List[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.default_rng(child) for child in children]


def _common_constraint_count(specs: Sequence[MdpSpec]) -> int:
    counts = {spec.n_constraints for spec in specs}
    if len(counts) != 1:
        raise ValueError("all systems must share the same constraint count")
    return counts.pop()


def run_ocmdp(
    specs: Sequence[MdpSpec],
    horizon: int,
    v: float,
    alpha: float,
    seed: int = 0,
    theta0: Optional[Sequence[np.ndarray]] = None,
    initial_states: Optional[Sequence[int]] = None,
    check_slater: bool = True,
) -> OcmdpLog:
    """Simulate the projected-update controller on its true chains.

    Every slot runs the same way: each system plays its current theta at its
    true state, the slot's tables are revealed and logged, and then, unless
    this is the last slot, :func:`ocmdp_step` turns those tables into the
    next slot's thetas and queues. Slot 0 plays ``theta0`` (default: each
    system's uniform-policy stationary occupation vector), and Q(0) = Q(1) =
    0 exactly. Each system draws all its randomness from its own spawned
    stream, per slot its action and next state and then its table noise, so
    a run is reproducible for a fixed seed no matter how the per-system work
    is scheduled. Constrained instances are rejected unless the strict
    feasibility margin exceeds 1e-6.
    """
    if not specs:
        raise ValueError("need at least one system")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not v >= 0.0:
        raise ValueError("v must be nonnegative")
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    v, alpha = float(v), float(alpha)
    m = _common_constraint_count(specs)
    polys = [build_polyhedron(spec) for spec in specs]
    if check_slater and m:
        margin = slater_margin(polys, [spec.g_means for spec in specs])
        if not margin > _SLATER_TOL:
            raise ValueError(
                f"instance fails the Slater check (margin {margin:.3e} <= {_SLATER_TOL})"
            )
    n_sys = len(specs)
    if theta0 is None:
        thetas = [poly.uniform_theta.copy() for poly in polys]
    else:
        if len(theta0) != n_sys:
            raise ValueError("theta0 must give one vector per system")
        thetas = [np.asarray(t, dtype=float).ravel().copy() for t in theta0]
        for poly, theta in zip(polys, thetas):
            residual = poly.membership_residual(theta)
            if not residual <= _MEMBERSHIP_TOL:
                raise ValueError(
                    f"theta0 lies outside its polyhedron (residual {residual:.3e})"
                )
    if initial_states is None:
        states = [0] * n_sys
    else:
        states = np.asarray(initial_states, dtype=int)
        if states.shape != (n_sys,):
            raise ValueError("initial_states must give one state per system")
        for spec, s in zip(specs, states):
            if not 0 <= s < spec.n_states:
                raise ValueError("initial state out of range")
        states = states.tolist()
    rngs = _spawn_rngs(seed, n_sys)
    queues = np.zeros(m)

    queues_log = np.zeros((horizon + 1, m))
    realized_f = np.zeros(horizon)
    realized_g = np.zeros((horizon, m))
    states_log = np.zeros((horizon, n_sys), dtype=int)
    actions_log = np.zeros((horizon, n_sys), dtype=int)
    thetas_log = [np.zeros((horizon, spec.dim)) for spec in specs]

    for t in range(horizon):
        visited, acts, states = states, [], []
        for poly, theta, s, rng in zip(polys, thetas, visited, rngs):
            a, s_next = _play(poly, theta, s, rng)
            acts.append(a)
            states.append(s_next)
        f_tabs, g_tabs = zip(*[spec.sample_tables(t, rng) for spec, rng in zip(specs, rngs)])
        queues_log[t + 1] = queues
        states_log[t] = visited
        actions_log[t] = acts
        penalty = 0.0
        for k in range(n_sys):
            s, a = visited[k], acts[k]
            thetas_log[k][t] = thetas[k]
            penalty += f_tabs[k][s, a]
            if m:
                realized_g[t] += g_tabs[k][:, s, a]
        realized_f[t] = penalty
        if t + 1 < horizon:
            thetas, queues = ocmdp_step(polys, thetas, queues, f_tabs, g_tabs, v, alpha)

    return OcmdpLog(
        horizon=horizon,
        fingerprint=instance_fingerprint(specs),
        queues=queues_log,
        realized_f=realized_f,
        realized_g=realized_g,
        states=states_log,
        actions=actions_log,
        thetas=thetas_log,
    )


def measure_regret(
    specs: Sequence[MdpSpec],
    log: OcmdpLog,
    baseline: StationaryBaseline,
) -> Tuple[float, np.ndarray]:
    """Realized regret against a stationary benchmark, plus violations.

    Regret is the run's summed realized penalty minus the benchmark's
    expected cumulative penalty (per-slot means, drift included, dotted
    with the benchmark occupation vectors). Violations are the signed sums
    of realized constraint values per constraint row. Both sides must hash
    to the same instance.
    """
    stamp = instance_fingerprint(specs)
    if log.fingerprint != stamp or baseline.fingerprint != stamp:
        raise ValueError("log, baseline and specs describe different instances")
    bench = 0.0
    for spec, theta in zip(specs, baseline.thetas):
        flat = np.asarray(theta, dtype=float).ravel()
        bench += log.horizon * float(spec.f_mean.ravel() @ flat)
        if spec.f_drift is not None:
            direction, period = spec.f_drift
            wave = np.sin(2.0 * math.pi * np.arange(log.horizon) / period).sum()
            bench += wave * float(direction.ravel() @ flat)
    regret = float(log.realized_f.sum() - bench)
    violations = log.realized_g.sum(axis=0).astype(float)
    return regret, violations


def save_instance(specs: Sequence[MdpSpec], path: str) -> None:
    """Write an instance as a JSON document (arrays as nested lists)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"systems": [_spec_record(spec) for spec in specs]}, handle, indent=2)


def load_instance(path: str) -> List[MdpSpec]:
    """Read an instance written by :func:`save_instance`; :class:`MdpSpec`
    checks every field."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    specs = []
    for entry in doc["systems"]:
        entry = dict(entry)
        if "f_drift" in entry:
            drift = entry["f_drift"]
            entry["f_drift"] = (drift["direction"], drift["period"])
        specs.append(MdpSpec(**entry))
    return specs


def two_mdp_example(noise: float = 0.25) -> List[MdpSpec]:
    """Fixed two-system instance with one binding coupling constraint.

    Action 1 is the expensive one in both systems: it raises the penalty
    mean but drives the shared constraint negative, so the unconstrained
    penalty minimizer violates the constraint while the all-action-1
    product policy strictly satisfies it. The uniform starting point sits
    on the infeasible side, which makes both regret and cumulative
    violation grow through the transient.
    """
    first = MdpSpec(
        transitions=np.array(
            [
                [[0.9, 0.1], [0.5, 0.5]],
                [[0.2, 0.8], [0.1, 0.9]],
            ]
        ),
        f_mean=np.array([[0.2, 1.0], [0.1, 0.8]]),
        g_means=np.array([[[0.9, -0.35], [0.8, -0.5]]]),
        noise=noise,
        psi=1.5,
    )
    second = MdpSpec(
        transitions=np.array(
            [
                [[0.7, 0.3], [0.4, 0.6]],
                [[0.3, 0.7], [0.2, 0.8]],
            ]
        ),
        f_mean=np.array([[0.1, 0.9], [0.3, 1.1]]),
        g_means=np.array([[[0.8, -0.4], [1.0, -0.25]]]),
        noise=noise,
        psi=1.5,
    )
    return [first, second]
