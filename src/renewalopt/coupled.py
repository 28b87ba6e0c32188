"""Slot-level simulation of several renewal systems sharing virtual queues.

Each system runs its own frames: at a frame start it picks an action by the
rate-normalized drift-plus-penalty rule against the shared queues, samples the
frame, and emits penalty and metrics slot by slot while the frame plays out.
Queues update every slot from the summed emissions minus a fresh draw of the
external process. The energy scheduling instance (several servers working
three job classes) is built here as well, together with its stationary LP
oracle.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from renewalopt.core import ActionModel, FrameOutcome, FrameProfile, dpp_linear_select
from renewalopt import lp as lp_mod


@dataclass(frozen=True)
class CoupledSystemSpec:
    """Systems (one action list each), an external per-slot process, and the
    number of shared constraints. ``external(rng, count)`` must return the
    ``(count, n_constraints)`` drift allowances of ``count`` consecutive
    slots; :func:`run` draws the whole horizon in one call.

    Building the spec checks every action once: it needs a sampler, an id no
    other action of its system has, ``n_constraints`` expected metrics, and a
    probe frame (drawn from a private generator) whose slots add up to its
    totals with ``n_constraints`` metrics. :func:`run` then checks only each
    frame's layout: the spec is frozen, with its systems held as tuples.
    """

    systems: Tuple[Tuple[ActionModel, ...], ...]
    external: Callable[[np.random.Generator, int], np.ndarray]
    n_constraints: int

    def __post_init__(self):
        object.__setattr__(self, "systems", tuple(map(tuple, self.systems)))
        probe = np.random.default_rng(0)
        for actions in self.systems:
            if not actions:
                raise ValueError("every system needs at least one action")
            if len({a.action_id for a in actions}) != len(actions):
                raise ValueError("action ids must be distinct within a system")
            for a in actions:
                if a.exp_metrics.shape != (self.n_constraints,):
                    raise ValueError("exp_metrics length must equal n_constraints")
                if a.sampler is None:
                    raise ValueError(f"action {a.action_id!r} has no sampler")
                _check_totals(_as_profile(a.sampler(probe)), self.n_constraints)


@dataclass
class MetricsLog:
    """Per-slot trajectories of one run plus derived time averages."""

    penalty: np.ndarray  # (horizon, n_systems)
    metrics: np.ndarray  # (horizon, n_constraints) summed over systems
    external: np.ndarray  # (horizon, n_constraints)
    queues: np.ndarray  # (horizon, n_constraints), value after the slot update
    frame_log: List[Tuple[int, int, int, object]]  # (system, start, length, action)

    @property
    def horizon(self) -> int:
        return self.penalty.shape[0]

    @property
    def final_penalty_avg(self) -> float:
        return float(self.penalty.sum() / self.horizon)

    @property
    def final_metrics_avg(self) -> np.ndarray:
        return self.metrics.sum(axis=0) / self.horizon


def _as_profile(out) -> FrameProfile:
    """A sampler's frame as a FrameProfile; totals alone lump on the final slot."""
    if isinstance(out, FrameProfile):
        return out
    if not isinstance(out, FrameOutcome):
        raise ValueError("sampler must return a FrameOutcome or FrameProfile")
    t = out.frame_len
    lump = ((t - 1, out.penalty_total, out.metrics_total.tolist()),)
    return FrameProfile(t, out.penalty_total, out.metrics_total, lump, t)


def _check_totals(frame: FrameProfile, n_constraints: int) -> None:
    """Raise ValueError unless the frame's layout fits and its slots add up
    to its ``n_constraints`` totals."""
    t = frame.check(n_constraints)
    totals = np.asarray(frame.metrics_total, dtype=float)
    if totals.shape != (n_constraints,):
        raise ValueError("sampled metrics length must equal n_constraints")
    penalty = frame.tail_penalty * (t - frame.tail_start)
    metrics = np.zeros(n_constraints)
    for _, y, z in frame.impulses:
        penalty += y
        metrics += z
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN, refused below
        gap = np.abs(metrics - totals).max(initial=0.0)
    # written so that a NaN or infinite difference fails too
    if not (abs(penalty - frame.penalty_total) <= 1e-9 and gap <= 1e-9):
        raise ValueError("frame slots do not add up to its totals")


def run(spec: CoupledSystemSpec, v: float, horizon: int, seed: int) -> MetricsLog:
    """Simulate ``horizon`` slots from zero queues, deterministically in seed.

    The master seed is split into one stream for frame sampling (consumed in
    system index order at frame starts) and one for the external process
    (drawn for the whole horizon in one call).

    Time advances from one decision slot to the next. At a decision slot
    every system whose frame ends decides against the queues left by the
    previous slot and writes its whole frame's emissions ahead, so each
    slot's metrics add up in frame-start order; the queues then step slot by
    slot, ``max((q + metrics) - external, 0)``, up to the next decision.
    Every per-slot log is a packed ``array("d")`` column until the horizon
    is done, when the columns become the log's C-ordered float64 arrays.
    A non-finite external draw is refused before the first slot, and a
    non-finite penalty, metric or queue once the horizon is done.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not 0.0 < v < math.inf:
        raise ValueError(f"penalty weight v must be finite and positive, got {v!r}")
    frames_rng, external_rng = [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
    ]
    systems = spec.systems
    n_sys = len(systems)
    ell = spec.n_constraints
    external = np.asarray(spec.external(external_rng, horizon), dtype=float)
    if external.shape != (horizon, ell):
        raise ValueError("external returned the wrong shape")
    if not np.isfinite(external).all():
        raise ValueError("external returned a non-finite value")
    by_id = [{a.action_id: a for a in actions} for actions in systems]
    # systems holding the same action objects choose alike within a slot
    kinds = [tuple(map(id, actions)) for actions in systems]
    kind = [kinds.index(k) for k in kinds]
    # one packed-double array per system / constraint, indexed by slot
    penalty = [array("d", bytes(8 * horizon)) for _ in range(n_sys)]
    metrics = [array("d", bytes(8 * horizon)) for _ in range(ell)]
    external_cols = [array("d", col.tobytes()) for col in external.T]
    queues = [array("d") for _ in range(ell)]
    frame_log: List[Tuple[int, int, int, object]] = []
    # (next frame start, system): pops at one slot come in system order
    starts = [(0, n) for n in range(n_sys)]
    columns = list(zip(metrics, external_cols, queues))
    q = [0.0] * ell
    t = 0
    while t < horizon:
        chosen = [None] * n_sys
        while starts and starts[0][0] == t:
            n = heapq.heappop(starts)[1]
            model = chosen[kind[n]]
            if model is None:
                model = by_id[n][dpp_linear_select(systems[n], q, v)]
                chosen[kind[n]] = model
            frame = _as_profile(model.sampler(frames_rng))
            length = frame.check(ell)
            emitted = penalty[n]
            for off, y, z in frame.impulses:
                s = t + off
                if s >= horizon:
                    break
                emitted[s] = y
                for m_l, z_l in zip(metrics, z):
                    m_l[s] += z_l
            start, end = t + frame.tail_start, min(t + length, horizon)
            emitted[start:end] = array("d", (frame.tail_penalty,)) * (end - start)
            frame_log.append((n, t, length, model.action_id))
            heapq.heappush(starts, (t + length, n))
        stop = starts[0][0] if starts else horizon
        if stop > horizon:
            stop = horizon
        for l, (m_l, e_l, q_l) in enumerate(columns):
            x = q[l]
            for s in range(t, stop):
                x = x + m_l[s] - e_l[s]
                # max(x, 0.0) as np.maximum takes it: NaN passes through
                x = 0.0 if x <= 0.0 else x
                q_l.append(x)
            q[l] = x
        t = stop
    # (horizon, len(cols)) C-ordered arrays whose column k is cols[k], even for none
    penalty, metrics, queues = (
        np.column_stack([np.frombuffer(c) for c in cols] or [np.empty((horizon, 0))])
        for cols in (penalty, metrics, queues))
    # a non-finite queue stays so to the horizon, so this also covers every
    # decision taken against one
    if not all(np.isfinite(a).all() for a in (penalty, metrics, queues)):
        raise ValueError("run emitted a non-finite penalty, metric or queue")
    return MetricsLog(penalty, metrics, external, queues, frame_log)


# ---------------------------------------------------------------------------
# energy scheduling instance: five servers, three job classes
# ---------------------------------------------------------------------------

ENERGY_CLASSES = {
    "arrival_rate": np.array([2.0, 3.0, 4.0]),
    "service_mean_len": np.array([5.5, 4.6, 3.8]),  # busy period slots, geometric
    "jobs_low": np.array([9, 15, 11]),
    "jobs_high": np.array([21, 27, 23]),
    "jobs_mean": np.array([15.0, 21.0, 17.0]),
    "service_energy": np.array([16.0, 20.0, 13.0]),
    "idle_mean_len": np.array([2.5, 4.3, 3.7]),  # vacation slots, geometric
    "idle_power": 3.0,
}


def _energy_action(class_idx: int) -> ActionModel:
    c = ENERGY_CLASSES
    h_mean = float(c["service_mean_len"][class_idx])
    i_mean = float(c["idle_mean_len"][class_idx])
    energy = float(c["service_energy"][class_idx])
    jobs_mean = float(c["jobs_mean"][class_idx])
    lo = int(c["jobs_low"][class_idx])
    hi = int(c["jobs_high"][class_idx])
    p_idle = float(c["idle_power"])
    t_mean = h_mean + i_mean
    exp_metrics = np.zeros(3)
    exp_metrics[class_idx] = -jobs_mean / t_mean

    p_busy_end = 1.0 / h_mean
    p_idle_end = 1.0 / i_mean

    def sampler(rng: np.random.Generator) -> FrameProfile:
        h = rng.geometric(p_busy_end)
        i = rng.geometric(p_idle_end)
        jobs = rng.integers(lo, hi + 1)
        served = [0.0, 0.0, 0.0]
        served[class_idx] = float(-jobs)
        # frame_len, penalty_total, metrics_total, impulses, tail_start, tail_penalty
        return FrameProfile(
            h + i, energy + p_idle * i, served, ((h - 1, energy, served),), h, p_idle
        )

    return ActionModel(
        action_id=class_idx,
        exp_penalty=(energy + p_idle * i_mean) / t_mean,
        exp_metrics=exp_metrics,
        exp_frame_len=t_mean,
        sampler=sampler,
    )


def energy_scheduling_spec(n_servers: int = 5) -> CoupledSystemSpec:
    """Servers choosing which job class to work next.

    A frame is one busy period (geometric length, jobs done in a lump on its
    last slot, fixed energy) followed by a geometric vacation drawing idle
    power every slot. Queue l tracks the backlog of class l: metrics are the
    negated jobs served and the external process is the negated Poisson
    arrival count (truncated at ten times its rate), so the slot update adds
    arrivals and subtracts service.
    """
    c = ENERGY_CLASSES
    lam = c["arrival_rate"]
    cap = 10.0 * lam

    def external(rng: np.random.Generator, count: int) -> np.ndarray:
        return -np.minimum(rng.poisson(lam, size=(count, 3)), cap)

    actions = [_energy_action(i) for i in range(3)]
    systems = [list(actions) for _ in range(n_servers)]
    return CoupledSystemSpec(systems=systems, external=external, n_constraints=3)


def energy_load(n_servers: int) -> float:
    """Offered load of the scheduling instance per server, sum over classes
    of lambda_i * (busy + idle mean) / (n_servers * mean jobs). No stationary
    policy keeps the queues stable unless it is below 1."""
    c = ENERGY_CLASSES
    cycle = c["service_mean_len"] + c["idle_mean_len"]
    return float((c["arrival_rate"] * cycle / c["jobs_mean"]).sum()) / n_servers


def energy_oracle_value(n_servers: int = 5) -> float:
    """Optimal stationary energy rate for the scheduling instance.

    The servers are identical, so the aggregate achievable region is the
    single-server region scaled by their count and the optimum is n times the
    single-server fractional LP run at per-server arrival rates lambda / n.
    """
    c = ENERGY_CLASSES
    triples = []
    for i in range(3):
        t_mean = float(c["service_mean_len"][i] + c["idle_mean_len"][i])
        y = float(c["service_energy"][i] + c["idle_power"] * c["idle_mean_len"][i])
        z = np.zeros(3)
        z[i] = -float(c["jobs_mean"][i])
        triples.append((y, z, t_mean))
    d = -c["arrival_rate"] / n_servers
    sol = lp_mod.solve_lp(lp_mod.fractional_to_lp(triples, d))
    if sol.status != "optimal":
        raise RuntimeError(f"energy oracle LP ended {sol.status}")
    return n_servers * float(sol.objective_value)
