"""Statistics-free ratio optimization over one renewal system with observed
random events.

At each frame start the controller sees an i.i.d. event, scores every action
by V*(yhat - theta*That) + sum_l Q_l*(zhat_l - c_l*That) using only the
model's conditional expectations, and plays the argmin. The feedback value
theta is a truncated pseudo average: raw drift-plus-penalty increments are
accumulated into a running sum that is divided by (n+1)**delta and clipped to
[0, theta_max] after every frame. Virtual queues close the loop on the
per-frame resource constraints. :func:`run` is one frame loop on Python
floats over tables built once per run. A single-user file downloading
instance ships as a ready-made model.
"""

from __future__ import annotations

import bisect
import functools
import math
import warnings
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from renewalopt.core import FrameOutcome


@dataclass
class EventModel:
    """Finite-event renewal model.

    Expectation tables are indexed (event, action): ``exp_penalty`` holds
    yhat, ``exp_frame_len`` holds That (every entry at least 1), and
    ``exp_metrics`` has one trailing axis per constraint. Every table is
    finite. ``sampler(event, action, rng)`` realizes one frame as a
    :class:`FrameOutcome`.
    """

    event_probs: np.ndarray
    exp_penalty: np.ndarray
    exp_frame_len: np.ndarray
    exp_metrics: np.ndarray
    budgets: np.ndarray
    sampler: Callable[[int, int, np.random.Generator], FrameOutcome]

    def __post_init__(self) -> None:
        for name in ("event_probs", "exp_penalty", "exp_frame_len",
                     "exp_metrics", "budgets"):
            table = np.asarray(getattr(self, name), dtype=float)
            # a NaN score would lose every comparison, so no argmin is defined
            if not np.isfinite(table).all():
                raise ValueError(f"{name} must be finite")
            setattr(self, name, table)
        n_e, n_a = self.exp_penalty.shape
        if self.event_probs.shape != (n_e,):
            raise ValueError("event_probs must give one probability per event")
        if abs(self.event_probs.sum() - 1.0) > 1e-9 or (self.event_probs < 0).any():
            raise ValueError("event_probs must form a distribution")
        if self.exp_frame_len.shape != (n_e, n_a):
            raise ValueError("exp_frame_len must match exp_penalty's shape")
        if (self.exp_frame_len < 1.0).any():
            raise ValueError("expected frame lengths must be at least 1")
        if self.exp_metrics.shape[:2] != (n_e, n_a) or self.exp_metrics.ndim != 3:
            raise ValueError("exp_metrics must be shaped (events, actions, constraints)")
        if self.budgets.shape != (self.exp_metrics.shape[2],):
            raise ValueError("budgets must give one value per constraint")

    @property
    def n_events(self) -> int:
        return self.exp_penalty.shape[0]

    @property
    def n_actions(self) -> int:
        return self.exp_penalty.shape[1]

    @property
    def n_constraints(self) -> int:
        return self.budgets.size


def default_theta_max(model: EventModel) -> float:
    """Double a trivial penalty-rate bound (largest yhat over the shortest
    possible frame); the truncation only needs to sit above the optimum."""
    top = max(float(model.exp_penalty.max()), 0.0)
    return 2.0 * top / float(model.exp_frame_len.min())


@dataclass
class OnlineLog:
    """Per-frame trajectories of one run."""

    theta_max: float
    events: np.ndarray
    actions: np.ndarray
    penalty: np.ndarray
    frame_len: np.ndarray
    metrics: np.ndarray  # (frames, n_constraints)
    increments: np.ndarray  # raw pseudo-average increments, for replay checks
    theta: np.ndarray  # (frames + 1,), theta[0] = 0
    queues: np.ndarray  # (frames, n_constraints), value after the frame update

    @property
    def n_frames(self) -> int:
        return self.penalty.size

    @property
    def total_slots(self) -> float:
        return float(self.frame_len.sum())

    @property
    def penalty_time_avg(self) -> float:
        return float(self.penalty.sum() / self.frame_len.sum())

    @property
    def metrics_time_avg(self) -> np.ndarray:
        return self.metrics.sum(axis=0) / self.frame_len.sum()


def run(model: EventModel, v: float, delta: float, n_frames: int,
        seed: int = 0, theta_max: Optional[float] = None) -> OnlineLog:
    """Simulate ``n_frames`` renewal frames.

    Per frame: draw the event, play the argmin score (ties go to the lowest
    action index) and sample the outcome. Then add the increment
    y - theta*T + (1/V)*sum_l Q_l*(z_l - c_l*T), at the theta and queues the
    frame was played with, to the running sum, and finally set
    Q_l = max(Q_l + z_l - c_l*T, 0). ``v`` must be positive and finite,
    ``delta`` finite and ``theta_max`` finite and nonnegative. The guarantee
    behind the pseudo average needs delta strictly inside (1/3, 1); anything
    else still runs but emits a warning. A sampler's non-finite penalty or
    metric is refused after the last frame.
    """
    if not 0.0 < v < math.inf:
        raise ValueError("v must be positive and finite")
    if n_frames < 1:
        raise ValueError("need at least one frame")
    if not math.isfinite(delta):
        raise ValueError("delta must be finite")
    if not 1.0 / 3.0 < delta < 1.0:
        warnings.warn(
            f"delta={delta} sits outside (1/3, 1); the run proceeds but the "
            "pseudo average has no convergence guarantee there", stacklevel=2)
    if theta_max is None:
        theta_max = default_theta_max(model)
    if not 0.0 <= theta_max < math.inf:
        raise ValueError("theta_max must be finite and nonnegative")
    v, delta, theta_max = float(v), float(delta), float(theta_max)
    ell = model.n_constraints
    budgets = model.budgets.tolist()
    # per event, per action: (yhat, That, [zhat_l - c_l*That for each l])
    rows = [[(y, t, [z_l - c_l * t for z_l, c_l in zip(z, budgets)])
             for y, t, z in zip(*tables)]
            for tables in zip(model.exp_penalty.tolist(),
                              model.exp_frame_len.tolist(),
                              model.exp_metrics.tolist())]
    event_cdf = np.cumsum(model.event_probs).tolist()
    event_cdf[-1] = 1.0
    rng = np.random.default_rng(seed)

    q = [0.0] * ell
    theta = running = 0.0
    # packed doubles that numpy takes without a copy; a list holds objects
    events, actions = [], []
    penalty, frame_len, metrics, increments, thetas, queues = (
        array("d") for _ in range(6))
    thetas.append(0.0)
    for n in range(n_frames):
        event = bisect.bisect_right(event_cdf, rng.random())
        action = best = None
        for a, (y, t, d) in enumerate(rows[event]):
            # a left fold, as numpy sums a row of under 8 terms
            drift = 0.0
            for q_l, d_l in zip(q, d):
                drift += q_l * d_l
            score = v * (y - theta * t) + drift
            if best is None or score < best:
                action, best = a, score
        outcome = model.sampler(event, action, rng)
        length, z = outcome.frame_len, outcome.metrics_total
        if z.shape != (ell,):
            raise ValueError("queue, metric, and rate vectors must share one length")
        z = z.tolist()
        # np.dot, not a Python fold: BLAS ddot may round two or more terms
        # differently, and every seeded trajectory follows its rounding
        drift = float(np.dot(q, [z_l - c_l * length for z_l, c_l in zip(z, budgets)]))
        increment = outcome.penalty_total - theta * length + drift / v
        running += increment
        theta = min(max(running / (n + 1) ** delta, 0.0), theta_max)
        q = [max(q_l + z_l - c_l * length, 0.0)
             for q_l, z_l, c_l in zip(q, z, budgets)]

        events.append(event)
        actions.append(action)
        penalty.append(outcome.penalty_total)
        frame_len.append(length)
        metrics.extend(z)
        increments.append(increment)
        thetas.append(theta)
        queues.extend(q)

    penalty, frame_len, metrics, increments, thetas, queues = (
        np.frombuffer(log) for log in (penalty, frame_len, metrics,
                                       increments, thetas, queues))
    metrics, queues = metrics.reshape(n_frames, ell), queues.reshape(n_frames, ell)
    if not all(np.isfinite(a).all() for a in (penalty, metrics, queues, thetas)):
        raise ValueError("run emitted a non-finite penalty, metric, queue or theta")
    return OnlineLog(theta_max=theta_max,
                     events=np.array(events, dtype=int),
                     actions=np.array(actions, dtype=int), penalty=penalty,
                     frame_len=frame_len, metrics=metrics,
                     increments=increments, theta=thetas, queues=queues)


# ---------------------------------------------------------------------------
# file downloading instance
# ---------------------------------------------------------------------------

def _download_frame(events, alphas, powers, event, action, rng) -> FrameOutcome:
    """One frame of :func:`file_download_example`, bound there with partial:
    a finished download idles Geometric(1/2) slots, mean 2 as in its E[T]."""
    w, s = events[event]
    alpha = alphas[action]
    frame = 1
    if rng.random() < alpha * w:
        frame += int(rng.geometric(0.5))
    return FrameOutcome(frame_len=frame, penalty_total=alpha * s,
                        metrics_total=np.array([powers[action]]))


def file_download_example() -> EventModel:
    """Single-user file downloading over a two-state renewal chain.

    At a frame start the user holds a file and observes a channel state omega
    in {0.2, 0.5, 0.8} and a delay penalty s in {1, 3, 5}, both uniform and
    independent (nine composite events). The service level alpha in {0, 0.3,
    0.6, 0.9} costs resource p = 0/1/2/4 and finishes the download with
    probability alpha*omega, after which the system idles geometrically with
    mean 2 before the next file arrives, so E[T] = 1 + 2*alpha*omega. The
    frame penalty is alpha*s and the resource budget is 1 per slot.
    """
    omegas = [0.2, 0.5, 0.8]
    delays = [1.0, 3.0, 5.0]
    alphas = [0.0, 0.3, 0.6, 0.9]
    powers = [0.0, 1.0, 2.0, 4.0]

    events = [(w, s) for w in omegas for s in delays]
    n_e, n_a = len(events), len(alphas)
    y = np.zeros((n_e, n_a))
    t = np.zeros((n_e, n_a))
    z = np.zeros((n_e, n_a, 1))
    for e, (w, s) in enumerate(events):
        for a, alpha in enumerate(alphas):
            y[e, a] = alpha * s
            t[e, a] = 1.0 + 2.0 * alpha * w
            z[e, a, 0] = powers[a]

    return EventModel(event_probs=np.full(n_e, 1.0 / n_e), exp_penalty=y,
                      exp_frame_len=t, exp_metrics=z, budgets=np.array([1.0]),
                      sampler=functools.partial(_download_frame, events, alphas, powers))
