"""Frame outcomes, slot layouts, and per-frame action selection.

A renewal system runs in frames: at each frame start a controller picks an
action, the frame plays out for a random number of slots, and the frame yields
a penalty and one metric per tracked constraint. Virtual queues integrate the
metric overshoot against allowed rates; the selector below minimizes the
standard drift-plus-penalty trade-off between queue pressure and penalty.
"""

from __future__ import annotations

import math
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

    ``exp_penalty`` and ``exp_metrics`` hold per-slot expected rates and
    ``exp_frame_len`` the expected frame length (at least 1), all finite.
    ``sampler`` draws a realized frame from a seeded generator: its totals as
    a :class:`FrameOutcome`, or its slot layout as a :class:`FrameProfile`.
    ``exp_metrics`` is kept as a read-only copy, so ``sparse_metrics``, the
    nonzero metrics as ``(index, value)`` pairs if there is at most one, else
    None, cannot fall out of step with it.
    """

    action_id: object
    exp_penalty: float
    exp_metrics: np.ndarray
    exp_frame_len: float
    sampler: Optional[
        Callable[[np.random.Generator], Union[FrameOutcome, FrameProfile]]
    ] = field(default=None, repr=False)
    sparse_metrics: Optional[tuple] = field(init=False, repr=False)

    def __post_init__(self):
        metrics = np.array(self.exp_metrics, dtype=float)
        metrics.flags.writeable = False
        if metrics.ndim != 1:
            raise ValueError("exp_metrics must be a vector")
        penalty, frame_len = float(self.exp_penalty), float(self.exp_frame_len)
        # a NaN would lose every comparison in the selector and so win it
        if not (math.isfinite(penalty) and math.isfinite(frame_len)
                and np.isfinite(metrics).all()):
            raise ValueError("expected penalty, metrics and frame length must be finite")
        if not frame_len >= 1.0:
            raise ValueError("exp_frame_len must be at least 1")
        sparse = tuple((l, float(metrics[l])) for l in np.flatnonzero(metrics).tolist())
        object.__setattr__(self, "exp_penalty", penalty)
        object.__setattr__(self, "exp_metrics", metrics)
        object.__setattr__(self, "exp_frame_len", frame_len)
        object.__setattr__(self, "sparse_metrics", sparse if len(sparse) <= 1 else None)


def dpp_linear_select(actions: Sequence[ActionModel], q: Sequence[float], v: float):
    """Pick the action minimizing v*penalty + q.metrics (rate normalized).

    ``q`` is any float sequence, one entry per metric. Ties keep the lowest
    list index. For finite ``q``, ``q[l]*m`` is the float ``ndarray.dot``
    makes of one nonzero product among zeros; an action with more nonzero
    metrics keeps ``ndarray.dot``, which may fuse or reorder its terms.
    """
    if not actions:
        raise ValueError("action list is empty")
    if not v > 0.0:
        raise ValueError("penalty weight must be positive")
    ell = len(q)
    dense = best_id = best_val = None
    for a in actions:
        if len(a.exp_metrics) != ell:
            raise ValueError("queue and metric vectors must share one length")
        sparse = a.sparse_metrics
        if sparse is None:
            if dense is None:
                dense = np.asarray(q, dtype=float)
            dot = float(dense.dot(a.exp_metrics))
        elif sparse:
            l, m = sparse[0]
            dot = q[l] * m
        else:
            dot = 0.0
        val = v * a.exp_penalty + dot
        if best_val is None or val < best_val:
            best_val = val
            best_id = a.action_id
    return best_id
