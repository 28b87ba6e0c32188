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


@dataclass(frozen=True, eq=False)
class FrameOutcome:
    """Realized totals of one frame.

    Slot-level simulators lump them on the frame's final slot; a sampler that
    spreads a frame over its slots returns a :class:`FrameProfile` instead.
    """

    frame_len: int
    penalty_total: float
    metrics_total: np.ndarray

    def __post_init__(self):
        if int(self.frame_len) != self.frame_len or self.frame_len < 1:
            raise ValueError("frame_len must be a positive integer")
        object.__setattr__(self, "frame_len", int(self.frame_len))
        object.__setattr__(
            self, "metrics_total", np.asarray(self.metrics_total, dtype=float)
        )


class FrameProfile(NamedTuple):
    """Sparse per-slot form of one frame, for slot-level simulators.

    Slot ``k`` of the frame emits ``(penalty, metrics)`` from the impulse at
    offset ``k`` if there is one, ``tail_penalty`` and no metrics if
    ``k >= tail_start``, and nothing otherwise. Impulse offsets increase
    strictly and lie below ``tail_start``, so a slot never gets two emissions.
    ``penalty_total`` and ``metrics_total`` are what the slots add up to;
    :meth:`check` checks only the layout.
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


@dataclass(frozen=True, eq=False)
class ActionModel:
    """One action available at a frame start.

    ``exp_penalty`` and ``exp_metrics`` hold per-frame expected totals when the
    model is used with :func:`dpp_ratio_select`, or per-slot expected rates when
    used with :func:`dpp_linear_select`; ``exp_frame_len`` is the expected frame
    length (at least 1) in both cases; all three must be finite. ``sampler``
    draws a realized frame from a seeded generator: its totals as a
    :class:`FrameOutcome`, or its slot layout as a :class:`FrameProfile`.
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
        # a NaN would lose every comparison in the selectors and so win them
        if not (np.isfinite(self.exp_penalty) and np.isfinite(self.exp_frame_len)
                and np.isfinite(self.exp_metrics).all()):
            raise ValueError("expected penalty, metrics and frame length must be finite")
        if not self.exp_frame_len >= 1.0:
            raise ValueError("exp_frame_len must be at least 1")


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
