"""Frame outcomes, virtual queues, and per-frame action selection.

A renewal system runs in frames: at each frame start a controller picks an
action, the frame plays out for a random number of slots, and the frame yields
a penalty and one metric per tracked constraint. Virtual queues integrate the
metric overshoot against allowed rates; the selectors below minimize the
standard drift-plus-penalty trade-off between queue pressure and penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

_FRAME_DIST_KINDS = ("deterministic", "geometric", "uniform_int")


@dataclass(frozen=True)
class Dist:
    """Declarative scalar distribution.

    kind
        "deterministic" (fixed ``value``), "geometric" (support 1, 2, ... with
        success probability 1/``mean``), or "uniform_int" (integers in
        [``low``, ``high``] inclusive).
    """

    kind: str
    value: float = 0.0
    mean: float = 1.0
    low: int = 0
    high: int = 0

    def __post_init__(self):
        if self.kind not in _FRAME_DIST_KINDS:
            raise ValueError(f"unsupported distribution kind: {self.kind!r}")
        if self.kind == "geometric" and self.mean < 1.0:
            raise ValueError("geometric mean must be at least 1")
        if self.kind == "uniform_int" and self.high < self.low:
            raise ValueError("uniform_int range is empty")

    @property
    def expectation(self) -> float:
        if self.kind == "deterministic":
            return float(self.value)
        if self.kind == "geometric":
            return float(self.mean)
        return 0.5 * (self.low + self.high)

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "deterministic":
            return float(self.value)
        if self.kind == "geometric":
            return float(rng.geometric(1.0 / self.mean))
        return float(rng.integers(self.low, self.high + 1))


def deterministic(value: float) -> Dist:
    return Dist("deterministic", value=value)


def geometric_min1(mean: float) -> Dist:
    return Dist("geometric", mean=mean)


def uniform_int(low: int, high: int) -> Dist:
    return Dist("uniform_int", low=int(low), high=int(high))


@dataclass(frozen=True, eq=False)
class FrameOutcome:
    """Realized result of one frame.

    ``penalty_slots`` and ``metrics_slots`` optionally spread the totals over
    the frame's slots for slot-level simulators; when absent, consumers lump
    everything on the final slot. Totals and per-slot profiles must agree.
    """

    frame_len: int
    penalty_total: float
    metrics_total: np.ndarray
    penalty_slots: Optional[np.ndarray] = None
    metrics_slots: Optional[np.ndarray] = None

    def __post_init__(self):
        if int(self.frame_len) != self.frame_len or self.frame_len < 1:
            raise ValueError("frame_len must be a positive integer")
        object.__setattr__(self, "frame_len", int(self.frame_len))
        object.__setattr__(
            self, "metrics_total", np.asarray(self.metrics_total, dtype=float)
        )
        if self.penalty_slots is not None:
            ps = np.asarray(self.penalty_slots, dtype=float)
            if ps.shape != (self.frame_len,):
                raise ValueError("penalty_slots length must equal frame_len")
            if abs(float(ps.sum()) - float(self.penalty_total)) > 1e-9:
                raise ValueError("penalty_slots do not sum to penalty_total")
            object.__setattr__(self, "penalty_slots", ps)
        if self.metrics_slots is not None:
            ms = np.asarray(self.metrics_slots, dtype=float)
            if ms.shape != (self.frame_len, self.metrics_total.size):
                raise ValueError("metrics_slots shape must be (frame_len, n_metrics)")
            if np.max(np.abs(ms.sum(axis=0) - self.metrics_total)) > 1e-9:
                raise ValueError("metrics_slots do not sum to metrics_total")
            object.__setattr__(self, "metrics_slots", ms)


class FrameProfile(NamedTuple):
    """Sparse per-slot form of one frame, for slot-level simulators.

    Slot ``k`` of the frame emits ``(penalty, metrics)`` from the impulse at
    offset ``k`` if there is one, ``tail_penalty`` and no metrics if
    ``k >= tail_start``, and nothing otherwise. Impulse offsets increase
    strictly and lie below ``tail_start``, so a slot never gets two emissions.
    ``penalty_total`` and ``metrics_total`` are what the slots add up to;
    :meth:`outcome` checks that, while :meth:`check` only checks the layout.
    """

    frame_len: int
    penalty_total: float
    metrics_total: Sequence[float]
    impulses: Tuple[Tuple[int, float, Sequence[float]], ...]
    tail_start: int
    tail_penalty: float = 0.0

    def check(self, n_metrics: int) -> int:
        """Raise ValueError unless the layout fits the frame; return its length."""
        t = int(self.frame_len)
        if t != self.frame_len or t < 1:
            raise ValueError("frame_len must be a positive integer")
        end = self.tail_start
        if int(end) != end or not 0 <= end <= t:
            raise ValueError("tail_start must be an integer in [0, frame_len]")
        prev = -1
        for off, _, z in self.impulses:
            if int(off) != off or not prev < off < end:
                raise ValueError("impulse offsets must increase and precede the tail")
            if len(z) != n_metrics:
                raise ValueError("impulse metrics length must equal n_metrics")
            prev = off
        return t

    def outcome(self) -> FrameOutcome:
        """The same frame with dense per-slot arrays, validated by FrameOutcome."""
        metrics_total = np.asarray(self.metrics_total, dtype=float)
        t = self.check(metrics_total.size)
        pslots = np.zeros(t)
        pslots[int(self.tail_start):] = self.tail_penalty
        mslots = np.zeros((t, metrics_total.size))
        for off, y, z in self.impulses:
            pslots[int(off)] = y
            mslots[int(off)] = z
        return FrameOutcome(t, self.penalty_total, metrics_total, pslots, mslots)


@dataclass(frozen=True, eq=False)
class ActionModel:
    """One action available at a frame start.

    ``exp_penalty`` and ``exp_metrics`` hold per-frame expected totals when the
    model is used with :func:`dpp_ratio_select`, or per-slot expected rates when
    used with :func:`dpp_linear_select`; ``exp_frame_len`` is the expected frame
    length (at least 1) in both cases. ``sampler`` generates a realized
    :class:`FrameOutcome`, or its sparse :class:`FrameProfile`, from a seeded
    generator.
    """

    action_id: object
    exp_penalty: float
    exp_metrics: np.ndarray
    exp_frame_len: float
    sampler: Optional[
        Callable[[np.random.Generator], Union[FrameOutcome, FrameProfile]]
    ] = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "exp_metrics", np.asarray(self.exp_metrics, dtype=float)
        )
        if not self.exp_frame_len >= 1.0:
            raise ValueError("exp_frame_len must be at least 1")


def zero_queues(n_constraints: int) -> np.ndarray:
    """Fresh virtual queue vector, one nonnegative entry per constraint."""
    return np.zeros(int(n_constraints), dtype=float)


def queue_update_slot(q: np.ndarray, z_sum: np.ndarray, d: np.ndarray) -> np.ndarray:
    """One-slot queue update: q' = max(q + z_sum - d, 0) componentwise."""
    q = np.asarray(q, dtype=float)
    z_sum = np.asarray(z_sum, dtype=float)
    d = np.asarray(d, dtype=float)
    if q.shape != z_sum.shape or q.shape != d.shape:
        raise ValueError("queue, metric, and rate vectors must share one length")
    return np.maximum(q + z_sum - d, 0.0)


def queue_update_frame(
    q: np.ndarray, outcome: FrameOutcome, d_rates: np.ndarray
) -> np.ndarray:
    """Whole-frame queue update: q' = max(q + z_total - d * T, 0)."""
    q = np.asarray(q, dtype=float)
    d_rates = np.asarray(d_rates, dtype=float)
    if q.shape != outcome.metrics_total.shape or q.shape != d_rates.shape:
        raise ValueError("queue, metric, and rate vectors must share one length")
    return np.maximum(q + outcome.metrics_total - d_rates * outcome.frame_len, 0.0)


def _select(actions: Sequence[ActionModel], q, v: float, divide: bool):
    if not actions:
        raise ValueError("action list is empty")
    if not v > 0.0:
        raise ValueError("penalty weight must be positive")
    q = np.asarray(q, dtype=float)
    best_id = None
    best_val = None
    for a in actions:
        # ndarray.dot is the kernel ``@`` calls for two vectors, without the
        # operator dispatch that costs more than the product at this size.
        val = v * float(a.exp_penalty) + float(q.dot(a.exp_metrics))
        if divide:
            val /= float(a.exp_frame_len)
        if best_val is None or val < best_val:
            best_val = val
            best_id = a.action_id
    return best_id


def dpp_ratio_select(actions: Sequence[ActionModel], q, v: float):
    """Pick the action minimizing (v*penalty + q.metrics) / frame_len.

    Expected per-frame totals are divided by the expected frame length, the
    frame-based drift-plus-penalty rule. Ties keep the lowest list index.
    """
    return _select(actions, q, v, divide=True)


def dpp_linear_select(actions: Sequence[ActionModel], q, v: float):
    """Pick the action minimizing v*penalty + q.metrics (rate normalized).

    Use with models whose exp_penalty / exp_metrics are already per-slot rates.
    Ties keep the lowest list index.
    """
    return _select(actions, q, v, divide=False)


def sample_outcome(model: ActionModel, rng: np.random.Generator) -> FrameOutcome:
    """Draw a realized frame for the model using its configured sampler.

    A sparse :class:`FrameProfile` comes back as its dense, validated
    :class:`FrameOutcome`.
    """
    if model.sampler is None:
        raise ValueError(f"action {model.action_id!r} has no outcome sampler")
    out = model.sampler(rng)
    if isinstance(out, FrameProfile):
        out = out.outcome()
    if not isinstance(out, FrameOutcome):
        raise ValueError("sampler must return a FrameOutcome or FrameProfile")
    return out
