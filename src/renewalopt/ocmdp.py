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
faces of the polyhedron, warm-started from the system's previous theta, and
stops when the bound multipliers certify optimality. It computes each face
point from the input alone, so warm and cold starts that end on the same
face agree bit for bit. It clamps theta at zero and raises unless the affine
residual is within 1e-8; the ocmdp-scaling acceptance criterion re-checks
every logged theta against the same bound. The slot loop runs on Python
floats; numpy holds the logs and each system's uniforms, drawn in chunks of
slots. Play inverts the same CDFs, on the same uniforms, as
``Generator.choice``, and realized penalties feed the regret accounting
against the best stationary baseline.

An :class:`Instance` is a set of frozen systems checked together once,
when made: one constraint count for all, each system's polyhedron, a Slater
margin above 1e-6 when constrained, and a content fingerprint. The run, the
baseline and the regret accounting all take it, and rebuild nothing.

The module also owns the LPs over products of occupation polyhedra: the
stationary baseline (:func:`stationary_baseline`) and the Slater margin
(:func:`slater_margin`) share one builder for the polyhedra's rows and the
coupling rows, and are solved by ``lp.solve_lp``.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from renewalopt import lp

_MEMBERSHIP_TOL = 1e-8
_ROW_SUM_TOL = 1e-12
# Instance refuses a constrained instance whose Slater margin is not above this
_SLATER_TOL = 1e-6
# Generator.choice rejects p whose sum misses 1 by more than this
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)
# slots of uniforms each system draws at once; a larger chunk's Python lists
# raise the run's peak memory for little time
_CHUNK = 256


def _read_only(value) -> np.ndarray:
    out = np.array(value, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
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
    polyhedron, the sampler and the LPs trust what it admits. A spec is
    frozen and holds read-only copies of its arrays, so nothing built from
    it can go stale.
    """

    transitions: np.ndarray
    f_mean: np.ndarray
    g_means: np.ndarray
    noise: float = 0.0
    psi: Optional[float] = None
    f_drift: Optional[Tuple[np.ndarray, float]] = None

    def __post_init__(self) -> None:
        p, f_mean, g_means = map(_read_only, (self.transitions, self.f_mean, self.g_means))
        if p.ndim != 3 or p.shape[1] != p.shape[2]:
            raise ValueError("transitions must be shaped (actions, states, states)")
        n_a, n_s, _ = p.shape
        if n_a < 1 or n_s < 1:
            raise ValueError("need at least one state and one action")
        for name, value in (("transitions", p), ("f_mean", f_mean), ("g_means", g_means)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        if (p < 0.0).any():
            raise ValueError("transition probabilities must be nonnegative")
        row_err = np.abs(p.sum(axis=2) - 1.0).max()
        if row_err > _ROW_SUM_TOL:
            raise ValueError(f"transition rows must sum to 1 (off by {row_err:.3e})")
        if f_mean.shape != (n_s, n_a):
            raise ValueError("f_mean must be shaped (states, actions)")
        noise = float(self.noise)
        if not 0.0 <= noise < math.inf:
            raise ValueError("noise must be finite and nonnegative")
        f_drift = self.f_drift
        if f_drift is not None:
            direction, period = _read_only(f_drift[0]), float(f_drift[1])
            if direction.shape != (n_s, n_a):
                raise ValueError("drift direction must be shaped (states, actions)")
            if not np.isfinite(direction).all():
                raise ValueError("drift direction must be finite")
            if not 0.0 < period < math.inf:
                raise ValueError("drift period must be finite and positive")
            f_drift = (direction, period)
        for name, value in (("transitions", p), ("f_mean", f_mean), ("noise", noise),
                            ("g_means", g_means.reshape(-1, n_s, n_a)), ("f_drift", f_drift)):
            object.__setattr__(self, name, value)
        needed = self._tightest_bound() + noise
        psi = needed if self.psi is None else float(self.psi)
        if not math.isfinite(psi):
            raise ValueError("psi must be finite")
        if psi + 1e-12 < needed:
            raise ValueError(f"psi={psi} cannot bound tables reaching {needed}")
        object.__setattr__(self, "psi", psi)

    def __reduce__(self):
        # made anew when unpickled, so a worker's copy is read-only too
        return MdpSpec, (self.transitions, self.f_mean, self.g_means, self.noise, self.psi,
                         self.f_drift)

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

    def sample_tables(self, slot: int, uniforms: Sequence[float] = ()) -> List[float]:
        """Realized tables for one slot, flat: f's entries, then each g's,
        row-major. Each is its mean plus uniform noise, clipped to [-psi, psi].

        ``uniforms`` holds one draw on [0, 1) per entry, unread when noise
        is 0. An entry's noise is -noise + 2 * noise * u, what
        ``Generator.uniform(-noise, noise)`` makes of the same u.
        """
        tables = self.mean_f_at(slot).ravel().tolist() + self.g_means.ravel().tolist()
        if self.noise > 0.0:
            if len(uniforms) != len(tables):
                raise ValueError(f"need {len(tables)} uniforms, got {len(uniforms)}")
            low = -self.noise
            span = self.noise - low
            tables = [x + (low + span * u) for x, u in zip(tables, uniforms)]
        bottom, top = -self.psi, self.psi
        tables = [x if x > bottom else bottom for x in tables]
        return [x if x < top else top for x in tables]


@dataclass
class PolyhedronTheta:
    """Occupation polyhedron of one system in halfspace form.

    ``aff_a theta = aff_b`` stacks the balance equations (one redundant row
    dropped) and the simplex normalization; the orthant theta >= 0 completes
    the set. ``uniform_theta`` is the uniform policy's stationary occupation
    vector: membership witness and the projection's cold start.
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

    def face(self, free: Tuple[bool, ...]) -> Tuple[list, List[float], list]:
        """The face whose entries off ``free`` are zero, as Python lists: the
        null-space projector N of M = [aff_a; identity rows off ``free``],
        the offset c = pinv(M)[:, :m] aff_b, so that N x + c is the face
        point nearest x, and pinv(M)^T's bound rows, which map that point
        minus x to the bound multipliers."""
        if free not in self.faces:
            rows = np.vstack([self.aff_a, np.eye(self.dim)[~np.array(free)]])
            back = np.linalg.pinv(rows)
            m = self.aff_a.shape[0]
            self.faces[free] = ((np.eye(self.dim) - back @ rows).tolist(),
                                (back[:, :m] @ self.aff_b).tolist(),
                                back.T[m:].tolist())
        return self.faces[free]


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

    # the uniform policy's chain, stationary by least squares
    chain = p.mean(axis=0)
    d = np.linalg.lstsq(np.vstack([chain.T - np.eye(n_s), np.ones((1, n_s))]),
                        np.eye(n_s + 1)[-1], rcond=None)[0]
    uniform_theta = np.repeat(d, n_a) / n_a
    poly = PolyhedronTheta(
        aff_a=aff_a, aff_b=aff_b, dim=dim, n_states=n_s, n_actions=n_a,
        uniform_theta=uniform_theta,
        next_state_cdfs=[[_choice_cdf(row) for row in p[a].tolist()] for a in range(n_a)],
    )
    witness = poly.membership_residual(uniform_theta)
    if not witness <= 1e-9:
        raise RuntimeError(
            f"uniform stationary vector misses the polyhedron by {witness:.3e}"
        )
    return poly


def _dot(row: Sequence[float], vec: Sequence[float]) -> float:
    """The products' exact sum, rounded once: the same on every Python,
    where ``sum``'s rounding changed in 3.12."""
    return math.fsum(map(operator.mul, row, vec))


def project_onto_theta(poly: PolyhedronTheta, x: Sequence[float],
                       start: Optional[Sequence[float]] = None) -> np.ndarray:
    """Euclidean projection onto the occupation polyhedron.

    Primal active-set method on the bounds theta >= 0 (Nocedal & Wright,
    Algorithm 16.3), from ``start``, a member such as the previous slot's
    theta (a warm start, their section 16.5), or else ``poly.uniform_theta``;
    the start's zero entries are bound. Each iteration takes the current
    face's point nearest x, N_F x + c_F (see :meth:`PolyhedronTheta.face`),
    and goes from z towards it as far as the free entries stay nonnegative,
    binding the one that blocks; after a full step the bound with the most
    negative multiplier is freed, until none is negative beyond rounding.
    The result, N_F x + c_F of the last face clamped at zero, depends on the
    start only through that face, and no residual carries over from a warm
    start. It is exactly nonnegative, with affine residual <= 1e-8.
    """
    x = np.asarray(x, dtype=float).ravel().tolist()
    z = poly.uniform_theta.tolist() if start is None else [float(v) for v in start]
    if len(x) != poly.dim or len(z) != poly.dim:
        raise ValueError("vector length does not match the polyhedron")
    if not all(map(math.isfinite, x)) or not all(map(math.isfinite, z)):
        raise ValueError("projection input must be finite")
    z = [v if v > 0.0 else 0.0 for v in z]
    free = [v > 0.0 for v in z]
    # freeing a bound whose multiplier is only rounding below zero can re-bind
    # it at once with a zero-length step, and so on without end
    rounding = 1e-12 * (1.0 + max(map(abs, x)))
    while True:
        null_proj, offset, multipliers = poly.face(tuple(free))
        y = [_dot(row, x) + c if f else 0.0 for row, c, f in zip(null_proj, offset, free)]
        ratio, block = 1.0, -1
        for j, (yj, zj) in enumerate(zip(y, z)):
            if yj < zj and zj / (zj - yj) < ratio:
                ratio, block = zj / (zj - yj), j
        if block >= 0:
            z = [0.0 if v <= 0.0 else v for v in (zj + ratio * (yj - zj) for yj, zj in zip(y, z))]
            z[block] = 0.0
            free[block] = False
            continue
        z = y
        gap = [zj - xj for zj, xj in zip(z, x)]
        lowest, release = -rounding, -1
        for j, row in zip([j for j, f in enumerate(free) if not f], multipliers):
            mu = _dot(row, gap)
            if mu < lowest:
                lowest, release = mu, j
        if release < 0:
            break
        free[release] = True
    z = [0.0 if v <= 0.0 else v for v in z]
    residuals = [abs(_dot(row, z) - b) for row, b in zip(poly.aff_a.tolist(), poly.aff_b.tolist())]
    affine = math.nan if any(r != r for r in residuals) else max(residuals)
    if not affine <= _MEMBERSHIP_TOL:
        raise RuntimeError(
            f"projection affine residual {affine:.3e} exceeds {_MEMBERSHIP_TOL}"
        )
    return np.array(z)


def _row_sum(values: List[float]) -> float:
    """``np.sum`` of a list, bit for bit: under 8 entries numpy adds them in
    order from 0.0, from 8 on it sums pairwise, so it is left to numpy."""
    if len(values) >= 8:
        return float(np.sum(values))
    return functools.reduce(operator.add, values, 0.0)


def _choice_cdf(p: List[float]) -> List[float]:
    """The inverse CDF that ``Generator.choice(len(p), p=p)`` searches.

    Raises unless p passes choice's own check: nonnegative, with a Kahan sum
    within sqrt(eps) of 1. The CDF is p's running sum over its last entry,
    and ``bisect_right(cdf, u)`` draws the index choice draws from u.
    """
    total, carry = p[0], 0.0
    for value in p[1:]:
        y = value - carry
        t = total + y
        carry = (t - total) - y
        total = t
    if not abs(total - 1.0) <= _CHOICE_ATOL or min(p) < 0.0:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    cdf = list(itertools.accumulate(p))
    last = cdf[-1]
    return [c / last for c in cdf]


def _play(poly: PolyhedronTheta, theta: List[float], s: int,
          u_action: float, u_next: float) -> Tuple[int, int]:
    """Draw an action at state s under the policy theta encodes, then the
    next state, from two uniforms on [0, 1).

    The action distribution is theta(s, .) over its marginal, renormalised
    as ``Generator.choice`` is given it; a state with no positive marginal
    carries no mass under theta, so any distribution works there and the
    uniform one is used.
    """
    n_a = poly.n_actions
    row = theta[s * n_a : (s + 1) * n_a]
    marginal = _row_sum(row)
    row = [v / marginal for v in row] if marginal > 0.0 else [1.0 / n_a] * n_a
    total = _row_sum(row)
    a = bisect.bisect_right(_choice_cdf([v / total for v in row]), u_action)
    return a, bisect.bisect_right(poly.next_state_cdfs[a][s], u_next)


def _check_weights(v: float, alpha: float) -> None:
    if not 0.0 <= v < math.inf:
        raise ValueError(f"v must be finite and nonnegative, got {v}")
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")


def ocmdp_step(polys: Sequence[PolyhedronTheta], thetas: Sequence[List[float]],
               queues: List[float], tables: Sequence[List[float]],
               v: float, alpha: float) -> Tuple[List[List[float]], List[float]]:
    """The projected update, from one slot's revealed tables, on Python floats.

    Per system: fold its flat tables (see :meth:`MdpSpec.sample_tables`)
    into w = v*f + sum_i Q_i * g_i and project theta - w/(2*alpha) back onto
    the polyhedron, warm-started from theta. The virtual queues then absorb
    the expected constraint usage of the new occupation vectors. Returns
    (next slot's thetas, next slot's queues). :func:`project_onto_theta`
    enforces each new theta's membership.
    """
    _check_weights(v, alpha)
    step = 2.0 * alpha
    new_thetas: List[List[float]] = []
    drift = [0.0] * len(queues)
    for poly, theta, table in zip(polys, thetas, tables):
        dim = poly.dim
        x = []
        for j in range(dim):
            w = v * table[j]
            for i, q in enumerate(queues, 1):
                w += q * table[i * dim + j]
            x.append(theta[j] - w / step)
        theta = project_onto_theta(poly, x, start=theta).tolist()
        for i in range(len(queues)):
            drift[i] += _dot(table[(i + 1) * dim : (i + 2) * dim], theta)
        new_thetas.append(theta)
    return new_thetas, [0.0 if q + d <= 0.0 else q + d for q, d in zip(queues, drift)]


def _spec_record(spec: MdpSpec) -> dict:
    """One system's fields as plain JSON values: what :func:`save_instance`
    writes, :func:`load_instance` reads back and :class:`Instance` hashes."""
    record = {"transitions": spec.transitions.tolist(), "f_mean": spec.f_mean.tolist(),
              "g_means": spec.g_means.tolist(), "noise": spec.noise, "psi": spec.psi}
    if spec.f_drift is not None:
        direction, period = spec.f_drift
        record["f_drift"] = {"direction": direction.tolist(), "period": period}
    return record


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


def stationary_baseline(polyhedra: Sequence[object], mean_f: Sequence[np.ndarray],
                        mean_g: Sequence[np.ndarray]) -> Tuple[List[np.ndarray], float]:
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


def slater_margin(polys: Sequence[PolyhedronTheta], g_means: Sequence[np.ndarray]) -> float:
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


@dataclass(frozen=True, eq=False)
class Instance:
    """A set of weakly coupled systems, checked together once, when made.

    It needs at least one system and one constraint count for all of them,
    builds each system's polyhedron (:func:`build_polyhedron`), and refuses
    a constrained instance unless its Slater margin (:func:`slater_margin`)
    is above 1e-6: the strict feasibility the learner's analysis assumes.
    ``fingerprint`` is the order-sensitive sha256 of the systems' records as
    JSON, whose float reprs round-trip exactly. The specs are frozen, so
    neither the polyhedra nor the fingerprint can go stale.
    """

    specs: Tuple[MdpSpec, ...]
    polys: Tuple[PolyhedronTheta, ...] = field(init=False, repr=False)
    n_constraints: int = field(init=False)
    fingerprint: str = field(init=False)

    def __post_init__(self) -> None:
        specs = tuple(self.specs)
        if not specs:
            raise ValueError("need at least one system")
        counts = {spec.n_constraints for spec in specs}
        if len(counts) != 1:
            raise ValueError("all systems must share the same constraint count")
        polys = tuple(build_polyhedron(spec) for spec in specs)
        m = counts.pop()
        if m:
            margin = slater_margin(polys, [spec.g_means for spec in specs])
            if not margin > _SLATER_TOL:
                raise ValueError(
                    f"instance fails the Slater check (margin {margin:.3e} <= {_SLATER_TOL})")
        text = json.dumps([_spec_record(spec) for spec in specs])
        for name, value in (("specs", specs), ("polys", polys), ("n_constraints", m),
                            ("fingerprint", hashlib.sha256(text.encode()).hexdigest())):
            object.__setattr__(self, name, value)


def solve_baseline(instance: Instance) -> StationaryBaseline:
    """Solve the coupled stationary benchmark on the instance's true means."""
    thetas, value = stationary_baseline(instance.polys, [s.f_mean for s in instance.specs],
                                        [s.g_means for s in instance.specs])
    return StationaryBaseline(thetas=thetas, value=value, fingerprint=instance.fingerprint)


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


def run_ocmdp(instance: Instance, horizon: int, v: float, alpha: float,
              seed: int = 0) -> OcmdpLog:
    """Simulate the projected-update controller on its true chains.

    Every slot runs the same way: each system plays its current theta at its
    true state, the slot's tables are revealed and logged, and then, unless
    this is the last slot, :func:`ocmdp_step` turns those tables into the
    next slot's thetas and queues. Slot 0 starts every system in state 0 on
    its uniform-policy stationary occupation vector, and Q(0) = Q(1) = 0
    exactly. Each system draws all its randomness from its own spawned
    stream, per slot its action and next state and then its table noise, so
    a run is reproducible for a fixed seed no matter how the per-system work
    is scheduled.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    _check_weights(v, alpha)
    v, alpha = float(v), float(alpha)
    specs, polys, m = instance.specs, instance.polys, instance.n_constraints
    n_sys = len(specs)
    thetas = [poly.uniform_theta.tolist() for poly in polys]
    states = [0] * n_sys
    rngs = _spawn_rngs(seed, n_sys)
    # per slot, each system's stream gives its action and next-state
    # uniforms, then, if it is noisy, one per table entry
    widths = [2 + spec.dim * (1 + m) if spec.noise > 0.0 else 2 for spec in specs]
    queues = [0.0] * m

    queues_log = np.zeros((horizon + 1, m))
    realized_f = np.zeros(horizon)
    realized_g = np.zeros((horizon, m))
    states_log = np.zeros((horizon, n_sys), dtype=int)
    actions_log = np.zeros((horizon, n_sys), dtype=int)
    thetas_log = [np.zeros((horizon, spec.dim)) for spec in specs]

    for t in range(horizon):
        row = t % _CHUNK
        if not row:
            draws = [rng.random((min(_CHUNK, horizon - t), width)).tolist()
                     for rng, width in zip(rngs, widths)]
        visited, acts, states, tables = states, [], [], []
        penalty, usage = 0.0, [0.0] * m
        for k, (spec, poly, theta, s) in enumerate(zip(specs, polys, thetas, visited)):
            u = draws[k][row]
            a, s_next = _play(poly, theta, s, u[0], u[1])
            table = spec.sample_tables(t, u[2:])
            entry = s * poly.n_actions + a
            penalty += table[entry]
            for i in range(m):
                usage[i] += table[(i + 1) * poly.dim + entry]
            acts.append(a)
            states.append(s_next)
            tables.append(table)
            thetas_log[k][t] = theta
        queues_log[t + 1] = queues
        states_log[t] = visited
        actions_log[t] = acts
        realized_f[t] = penalty
        realized_g[t] = usage
        if t + 1 < horizon:
            thetas, queues = ocmdp_step(polys, thetas, queues, tables, v, alpha)

    return OcmdpLog(horizon=horizon, fingerprint=instance.fingerprint, queues=queues_log,
                    realized_f=realized_f, realized_g=realized_g, states=states_log,
                    actions=actions_log, thetas=thetas_log)


def measure_regret(instance: Instance, log: OcmdpLog,
                   baseline: StationaryBaseline) -> Tuple[float, np.ndarray]:
    """Realized regret against a stationary benchmark, plus violations.

    Regret is the run's summed realized penalty minus the benchmark's
    expected cumulative penalty (per-slot means, drift included, dotted
    with the benchmark occupation vectors). Violations are the signed sums
    of realized constraint values per constraint row. Both sides must hash
    to the same instance.
    """
    stamp = instance.fingerprint
    if log.fingerprint != stamp or baseline.fingerprint != stamp:
        raise ValueError("log, baseline and instance describe different instances")
    bench = 0.0
    for spec, theta in zip(instance.specs, baseline.thetas):
        flat = np.asarray(theta, dtype=float).ravel()
        bench += log.horizon * float(spec.f_mean.ravel() @ flat)
        if spec.f_drift is not None:
            direction, period = spec.f_drift
            wave = np.sin(2.0 * math.pi * np.arange(log.horizon) / period).sum()
            bench += wave * float(direction.ravel() @ flat)
    regret = float(log.realized_f.sum() - bench)
    violations = log.realized_g.sum(axis=0).astype(float)
    return regret, violations


def save_instance(instance: Instance, path: str) -> None:
    """Write an instance as a JSON document (arrays as nested lists)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"systems": [_spec_record(spec) for spec in instance.specs]}, handle,
                  indent=2)


def load_instance(path: str) -> Instance:
    """Read an instance written by :func:`save_instance`; :class:`MdpSpec`
    checks every field and :class:`Instance` the systems together."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    specs = []
    for entry in doc["systems"]:
        if "f_drift" in entry:
            drift = entry["f_drift"]
            entry = dict(entry, f_drift=(drift["direction"], drift["period"]))
        specs.append(MdpSpec(**entry))
    return Instance(tuple(specs))


def two_mdp_example(noise: float = 0.25) -> Instance:
    """Fixed two-system instance with one binding coupling constraint.

    Action 1 is the expensive one in both systems: it raises the penalty
    mean but drives the shared constraint negative, so the unconstrained
    penalty minimizer violates the constraint while the all-action-1
    product policy strictly satisfies it. The uniform starting point sits
    on the infeasible side, which makes both regret and cumulative
    violation grow through the transient.
    """
    first = MdpSpec(transitions=[[[0.9, 0.1], [0.5, 0.5]], [[0.2, 0.8], [0.1, 0.9]]],
                    f_mean=[[0.2, 1.0], [0.1, 0.8]],
                    g_means=[[[0.9, -0.35], [0.8, -0.5]]], noise=noise, psi=1.5)
    second = MdpSpec(transitions=[[[0.7, 0.3], [0.4, 0.6]], [[0.3, 0.7], [0.2, 0.8]]],
                     f_mean=[[0.1, 0.9], [0.3, 1.1]],
                     g_means=[[[0.8, -0.4], [1.0, -0.25]]], noise=noise, psi=1.5)
    return Instance((first, second))
