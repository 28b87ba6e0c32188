"""Statistics-free ratio optimization over one renewal system with observed
random events.

At each frame start the controller sees an i.i.d. event, scores every action
by V*(yhat - theta*That) + sum_l Q_l*(zhat_l - c_l*That) using only the
model's conditional expectations, and plays the argmin. The feedback value
theta is a truncated pseudo average: raw drift-plus-penalty increments are
accumulated into a running sum that is divided by (n+1)**delta and clipped to
[0, theta_max] after every frame. Virtual queues close the loop on the
per-frame resource constraints. A single-user file downloading instance ships
as a ready-made model.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from renewalopt.core import FrameOutcome, queue_update_frame


@dataclass
class EventModel:
    """Finite-event renewal model.

    Expectation tables are indexed (event, action): ``exp_penalty`` holds
    yhat, ``exp_frame_len`` holds That (every entry at least 1), and
    ``exp_metrics`` has one trailing axis per constraint. ``sampler(event,
    action, rng)`` realizes one frame as a :class:`FrameOutcome`.
    """

    event_probs: np.ndarray
    exp_penalty: np.ndarray
    exp_frame_len: np.ndarray
    exp_metrics: np.ndarray
    budgets: np.ndarray
    sampler: Callable[[int, int, np.random.Generator], FrameOutcome]

    def __post_init__(self) -> None:
        self.event_probs = np.asarray(self.event_probs, dtype=float)
        self.exp_penalty = np.asarray(self.exp_penalty, dtype=float)
        self.exp_frame_len = np.asarray(self.exp_frame_len, dtype=float)
        self.exp_metrics = np.asarray(self.exp_metrics, dtype=float)
        self.budgets = np.asarray(self.budgets, dtype=float)
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


@dataclass
class PseudoAverageState:
    """Truncated pseudo average: theta is always the clipped value of the
    running increment sum divided by (frames completed)**delta."""

    v: float
    delta: float
    theta_max: float
    theta: float = 0.0
    running_sum: float = 0.0
    frames_done: int = 0
    last_increment: float = 0.0


def select_action(model: EventModel, event: int, queues: np.ndarray,
                  theta: float, v: float) -> int:
    """Argmin over actions of V*(yhat - theta*That) + sum_l Q_l*(zhat_l -
    c_l*That) for the observed event; ties go to the lowest action index."""
    y = model.exp_penalty[event]
    t = model.exp_frame_len[event]
    z = model.exp_metrics[event]
    scores = v * (y - theta * t) + (np.asarray(queues) * (z - model.budgets * t[:, None])).sum(axis=1)
    return int(np.argmin(scores))


def theta_update(state: PseudoAverageState, outcome: FrameOutcome,
                 queues: np.ndarray, budgets: np.ndarray) -> PseudoAverageState:
    """Fold one realized frame into the pseudo average.

    The increment is y - theta*T + (1/V)*sum_l Q_l*(z_l - c_l*T), evaluated at
    the theta and the queue values the frame was played with; the new theta is
    the clipped running sum over (n+1)**delta.
    """
    drift = float(np.dot(queues, outcome.metrics_total - budgets * outcome.frame_len))
    increment = (outcome.penalty_total - state.theta * outcome.frame_len
                 + drift / state.v)
    running = state.running_sum + increment
    raw = running / (state.frames_done + 1) ** state.delta
    theta = min(max(raw, 0.0), state.theta_max)
    return replace(state, theta=theta, running_sum=running,
                   frames_done=state.frames_done + 1, last_increment=increment)


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

    Per frame: draw the event, select the action against the current queues
    and theta, sample the outcome, then update theta (against the pre-update
    queues) and finally the queues. The optimality guarantee behind the
    pseudo average needs delta strictly inside (1/3, 1); anything else still
    runs but emits a warning.
    """
    if not v > 0:
        raise ValueError("v must be positive")
    if n_frames < 1:
        raise ValueError("need at least one frame")
    if not 1.0 / 3.0 < delta < 1.0:
        warnings.warn(
            f"delta={delta} sits outside (1/3, 1); the run proceeds but the "
            "pseudo average has no convergence guarantee there", stacklevel=2)
    if theta_max is None:
        theta_max = default_theta_max(model)
    rng = np.random.default_rng(seed)
    state = PseudoAverageState(v=float(v), delta=float(delta),
                               theta_max=float(theta_max))
    queues = np.zeros(model.n_constraints)
    ell = model.n_constraints

    events = np.zeros(n_frames, dtype=int)
    actions = np.zeros(n_frames, dtype=int)
    penalty = np.zeros(n_frames)
    frame_len = np.zeros(n_frames)
    metrics = np.zeros((n_frames, ell))
    increments = np.zeros(n_frames)
    thetas = np.zeros(n_frames + 1)
    queue_log = np.zeros((n_frames, ell))

    event_cdf = np.cumsum(model.event_probs)
    event_cdf[-1] = 1.0
    for n in range(n_frames):
        event = int(np.searchsorted(event_cdf, rng.random(), side="right"))
        action = select_action(model, event, queues, state.theta, state.v)
        outcome = model.sampler(event, action, rng)
        state = theta_update(state, outcome, queues, model.budgets)
        queues = queue_update_frame(queues, outcome, model.budgets)

        events[n] = event
        actions[n] = action
        penalty[n] = outcome.penalty_total
        frame_len[n] = outcome.frame_len
        metrics[n] = outcome.metrics_total
        increments[n] = state.last_increment
        thetas[n + 1] = state.theta
        queue_log[n] = queues

    return OnlineLog(theta_max=float(theta_max),
                     events=events, actions=actions, penalty=penalty,
                     frame_len=frame_len, metrics=metrics, increments=increments,
                     theta=thetas, queues=queue_log)


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
