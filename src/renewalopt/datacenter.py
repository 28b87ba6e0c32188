"""Data-center power control on slotted time.

A threshold front end rejects or routes incoming requests, and every server
runs renewal frames of its own: at a frame start it either serves for one slot
or commits to a sleep window (a chosen idle length, then a geometric setup,
then one closing service slot). The frame decision compares the one-slot
active cost against a frame-length-normalized window cost with a quadratic
length correction, which collapses to checking the two integers around a real
stationary point. The module also carries the virtualized single-queue
variant, the always-on and reactive baselines, and the per-slot arrivals and
costs every server runs on: a frozen :class:`Trace`, checked once when made.

All decisions read only queue values and model constants; the service drawn
in the current slot is never observed before it is used. Within a run the
constants are fixed, so a server's frame decision is a pure function of its
queue value: the run memoises it per server, keyed by that value, and asks
``server_frame_decide`` only about values it has not seen, so the memo
returns exactly the decision the call would.

Each run loop takes its own queue steps, ``max(q + in - out, 0)``, and the
reactive baseline its own server target. The two decision rules,
``admission_decide`` and ``server_frame_decide``, stay public, and the
algorithm loop looks both up in this module on every call, so they can be
wrapped from outside. A run refuses a ``v`` that is not finite and positive
before its first slot, in every mode.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import math
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

Decision = Union[str, Tuple[int, int]]


@dataclass
class SleepMode:
    """One sleep option: per-slot idle and setup power draws plus the mean of
    the geometric setup time (support 1, 2, ...)."""

    idle_power: float
    setup_power: float
    setup_mean: float

    def __post_init__(self) -> None:
        for name, value in (("idle_power", self.idle_power), ("setup_power", self.setup_power)):
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if not 1 <= self.setup_mean < math.inf:
            raise ValueError(f"setup_mean must be finite and at least 1, got {self.setup_mean}")

    @property
    def setup_var(self) -> float:
        return self.setup_mean * self.setup_mean - self.setup_mean


@dataclass
class ServerConfig:
    """Per-server model.

    ``mu_dist`` is ``("constant", value)`` or ``("zipf", k, p)``; the mean and
    the largest possible draw are derived from it so the decision rule and the
    sampler can never disagree. ``r_max`` is the router cap shared by every
    server in a run; it enters the quadratic coefficient of the frame rule.
    """

    active_power: float
    mu_dist: Tuple
    sleep_modes: Sequence[SleepMode]
    i_max: int
    r_max: float

    def __post_init__(self) -> None:
        for name, value in (("active_power", self.active_power), ("r_max", self.r_max)):
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if self.i_max < 1:
            raise ValueError("i_max must be at least 1")
        if not self.sleep_modes:
            raise ValueError("at least one sleep mode is required")
        self.sleep_modes = list(self.sleep_modes)
        tag = self.mu_dist[0] if self.mu_dist else None
        if tag == "constant":
            if len(self.mu_dist) != 2 or not 0 < self.mu_dist[1] < math.inf:
                raise ValueError(f"constant service needs one finite positive mu, "
                                 f"got {self.mu_dist!r}")
        elif tag == "zipf":
            if len(self.mu_dist) != 3 or int(self.mu_dist[1]) < 1 \
                    or not math.isfinite(self.mu_dist[2]):
                raise ValueError("zipf service needs support size >= 1 and a finite exponent")
        else:
            raise ValueError(f"unknown service distribution {self.mu_dist!r}")

    @property
    def mu_mean(self) -> float:
        if self.mu_dist[0] == "constant":
            return float(self.mu_dist[1])
        return zipf_mean(int(self.mu_dist[1]), float(self.mu_dist[2]))

    @property
    def mu_max(self) -> float:
        if self.mu_dist[0] == "constant":
            return float(self.mu_dist[1])
        return float(int(self.mu_dist[1]))


def zipf_mean(k: int, p: float) -> float:
    """Mean of the Zipf(k, p) law on 1..k: sum(i**(1-p)) / sum(i**(-p))."""
    idx = np.arange(1, k + 1, dtype=float)
    weights = idx ** (-p)
    return float((idx * weights).sum() / weights.sum())


class _ZipfSampler:
    """Inverse-CDF draws from Zipf(k, p) on the integers 1..k."""

    def __init__(self, k: int, p: float) -> None:
        weights = np.arange(1, k + 1, dtype=float) ** (-p)
        cdf = np.cumsum(weights / weights.sum())
        cdf[-1] = 1.0
        self.cdf = cdf.tolist()

    def __call__(self, rng: np.random.Generator) -> float:
        return float(bisect.bisect_right(self.cdf, rng.random()) + 1)


def _service_sampler(mu_dist):
    if mu_dist[0] == "constant":
        value = float(mu_dist[1])
        return lambda rng: value
    return _ZipfSampler(int(mu_dist[1]), float(mu_dist[2]))


# ---------------------------------------------------------------------------
# trace handling
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Trace:
    """Per-slot arrivals and rejection costs, two equal-length tuples checked
    once, when made: arrivals nonnegative integers, costs finite and positive
    (an infinite cost would lift the queue bound v*c_max + r_max away)."""

    arrivals: Tuple[int, ...]
    costs: Tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "arrivals", tuple(self.arrivals))
        object.__setattr__(self, "costs", tuple(map(float, self.costs)))
        for row, (a, c) in enumerate(zip(self.arrivals, self.costs, strict=True)):
            if not (isinstance(a, int) and a >= 0):
                raise ValueError(f"arrivals must be nonnegative integers, got {a!r} at row {row}")
            if not 0 < c < math.inf:
                raise ValueError(f"rejection cost must be finite and positive, "
                                 f"got {c!r} at row {row}")

    def __len__(self) -> int:
        return len(self.arrivals)


def load_trace(path) -> Trace:
    """Read a ``slot,arrivals,cost`` CSV (header row required) whose slots
    run 0, 1, ... An empty file is rejected outright."""
    if os.path.getsize(path) == 0:
        raise ValueError(f"{path}: trace file is empty")
    arrivals, costs = [], []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [col.strip() for col in header] != ["slot", "arrivals", "cost"]:
            raise ValueError("trace file must start with a 'slot,arrivals,cost' header")
        for pos, row in enumerate(filter(None, reader)):
            if int(row[0]) != pos:
                raise ValueError(f"trace slots must run 0,1,..., got {row[0]} at row {pos}")
            arrivals.append(int(row[1]))
            costs.append(float(row[2]))
    return Trace(arrivals, costs)


def uniform_trace(horizon: int, arrival_range=(10, 30), cost_range=(1, 6),
                  seed: int = 0) -> Trace:
    """I.i.d. trace: integer arrivals and rejection costs drawn uniformly from
    the two closed ranges, each a pair of integers low <= high, with low >= 0
    for arrivals and low >= 1 for costs."""
    for name, pair, floor in (("arrival_range", arrival_range, 0), ("cost_range", cost_range, 1)):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(type(x) is int for x in pair) and floor <= pair[0] <= pair[1]):
            raise ValueError(f"{name} must be two integers with {floor} <= low <= high, "
                             f"got {pair!r}")
    rng = np.random.default_rng(seed)
    arrivals = rng.integers(arrival_range[0], arrival_range[1] + 1, size=horizon)
    costs = rng.integers(cost_range[0], cost_range[1] + 1, size=horizon)
    return Trace(arrivals.tolist(), costs.tolist())


def ramp_trace(horizon: int, base_rate: float, peak_rate: float,
               ramp_start: int, ramp_end: int, cost: float = 1.0,
               seed: int = 0) -> Trace:
    """Synthetic load curve with the measured-trace shape: a steady stretch, a
    linear climb between the two marker slots, then steady at the peak.
    Arrivals are Poisson around the phase rate; the cost column is constant.
    Both rates must be finite and nonnegative, the cost finite and positive."""
    if not (0.0 <= base_rate < math.inf and 0.0 <= peak_rate < math.inf):
        raise ValueError(f"base_rate and peak_rate must be finite and nonnegative, "
                         f"got {base_rate!r} and {peak_rate!r}")
    if not 0.0 < cost < math.inf:
        raise ValueError(f"cost must be finite and positive, got {cost!r}")
    if not 0 <= ramp_start < ramp_end <= horizon:
        raise ValueError("need 0 <= ramp_start < ramp_end <= horizon")
    rng = np.random.default_rng(seed)
    slots = np.arange(horizon, dtype=float)
    frac = np.clip((slots - ramp_start) / (ramp_end - ramp_start), 0.0, 1.0)
    rates = base_rate + (peak_rate - base_rate) * frac
    return Trace(rng.poisson(rates).tolist(), (cost,) * horizon)


# ---------------------------------------------------------------------------
# decision rules
# ---------------------------------------------------------------------------

def admission_decide(arrivals, cost, queues, v, r_max):
    """Threshold front end for one slot.

    If some queue sits at or below v*cost, send min(arrivals, r_max) to the
    shortest such queue (lowest index on ties) and reject the overflow;
    otherwise reject everything. Returns ``(rejected, routed)``, ``routed``
    a list of one float per queue, with ``rejected + sum(routed) ==
    arrivals``.
    """
    routed = [0.0] * len(queues)
    threshold = v * cost
    target = -1
    for n, q in enumerate(queues):
        if q <= threshold and (target < 0 or q < queues[target]):
            target = n
    if target < 0:
        return float(arrivals), routed
    admitted = min(float(arrivals), float(r_max))
    routed[target] = admitted
    return float(arrivals) - admitted, routed


def server_frame_decide(cfg: ServerConfig, queue: float, v: float) -> Decision:
    """Frame-start rule for one server: serve now, or sleep and for how long.

    Serving for one slot costs v*e - q*mu_mean. A window with sleep mode alpha
    and idle length I costs

        [v*W*m + v*e - q*mu_mean + (b0/2)*var + v*g*I] / (I + m + 1)
        + (b0/2)*(I + m + 1)

    with b0 = (r_max + mu_max)*mu_max/2 and (g, W, m, var) the mode's idle
    power, setup power, setup mean and setup variance. Substituting
    x = I + m + 1 turns the window cost into v*g + c/x + (b0/2)*x with c
    independent of I, so per mode only the two integers bracketing the real
    stationary point sqrt(2c/b0) need checking; when c <= 0 the cost is
    increasing in I and the window of length 1 stands in. Candidates are
    clipped to [1, i_max]. Returns ``"active"`` or ``(mode_index, idle_len)``;
    exact ties keep the server active, then prefer the lower mode index and
    the shorter window.
    """
    mu_hat = cfg.mu_mean
    b0 = 0.5 * (cfg.r_max + cfg.mu_max) * cfg.mu_max
    best: Decision = "active"
    best_val = v * cfg.active_power - queue * mu_hat
    for k, mode in enumerate(cfg.sleep_modes):
        m = mode.setup_mean
        head = (v * mode.setup_power * m + v * cfg.active_power
                - queue * mu_hat + 0.5 * b0 * mode.setup_var)
        c = head - v * mode.idle_power * (m + 1.0)
        if c > 0 and b0 > 0:
            i_real = math.sqrt(2.0 * c / b0) - m - 1.0
            lo = min(max(int(math.floor(i_real)), 1), cfg.i_max)
            hi = min(max(int(math.ceil(i_real)), 1), cfg.i_max)
            candidates = (lo,) if hi == lo else (lo, hi)
        else:
            candidates = (1,)
        for i in candidates:
            x = i + m + 1.0
            val = v * mode.idle_power + c / x + 0.5 * b0 * x
            if val < best_val:
                best = (k, i)
                best_val = val
    return best


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

@dataclass
class DatacenterLog:
    """Per-slot trajectories of one run.

    ``backlog`` is the work physically waiting after each slot (sum of the
    real queues, or the single queue elsewhere); ``queue_total`` sums the
    queues the decisions read, so in virtualized mode it tracks the virtual
    copies and otherwise equals ``backlog``.
    """

    power: np.ndarray
    reject_cost: np.ndarray
    backlog: np.ndarray
    queue_total: np.ndarray
    active_servers: np.ndarray
    rejected: np.ndarray
    arrivals: np.ndarray
    max_queue: np.ndarray

    @property
    def horizon(self) -> int:
        return self.power.shape[0]

    @property
    def final_power_avg(self) -> float:
        return float(self.power.mean())

    @property
    def final_cost_avg(self) -> float:
        return float((self.power + self.reject_cost).mean())

    @property
    def final_backlog_avg(self) -> float:
        return float(self.backlog.mean())


# Hard-assertion slack: every queue quantity is a small sum of integers and
# router caps, so violations of the deterministic bounds show up at order one,
# never at order float-epsilon.
_BOUND_SLACK = 1e-9


def run_datacenter(cfgs: Sequence[ServerConfig], trace: Trace,
                   v: float, mode="n-queue", seed: int = 0,
                   horizon: Optional[int] = None, min_active: int = 0,
                   initial_queues: Optional[Sequence[float]] = None) -> DatacenterLog:
    """Drive the slotted simulation for the first ``horizon`` slots of
    ``trace`` (default: all of them).

    Modes:

    - ``"n-queue"``: threshold admission with one real queue per server.
    - ``"virtualized"``: the same per-server queues kept as software
      multipliers while every admitted request waits in one physical queue
      served by whichever servers are active.
    - ``("always-on", k)``: servers 0..k-1 serve every slot, the rest sit in
      their first sleep mode's idle state; all arrivals accepted.
    - ``("reactive", extra)``: targets ceil((mean arrivals over the latest 10
      slots + extra) / mean service rate) committed servers, switching on
      through the setup state (lowest index first) and off instantly (pending
      setups first, then active servers, highest index first); all arrivals
      accepted.

    The two algorithm modes enforce the deterministic queue bounds every slot
    (each decision queue at most v*c_max + r_max, and in virtualized mode the
    physical backlog at most the sum of the virtual queues and at most N times
    the per-queue bound) and raise RuntimeError on any violation.
    ``min_active`` pins servers 0..min_active-1 to the active choice at their
    frame starts in the algorithm modes and is ignored by the baselines.
    ``initial_queues`` seeds the decision queues; the physical backlog always
    starts empty. A non-finite power, cost or queue in the log is refused
    with ValueError once the run ends.
    """
    if not isinstance(trace, Trace):
        raise TypeError(f"trace must be a datacenter.Trace, got {type(trace).__name__}")
    if horizon is None:
        horizon = len(trace)
    if len(trace) < horizon:
        raise ValueError(f"trace has {len(trace)} slots, horizon wants {horizon}")
    if not cfgs:
        raise ValueError("need at least one server")
    if not 0.0 < v < math.inf:
        raise ValueError(f"penalty weight v must be finite and positive, got {v!r}")

    if mode in ("n-queue", "virtualized"):
        log = _run_algorithm(list(cfgs), trace, horizon, float(v), mode, seed,
                             min_active, initial_queues)
    elif isinstance(mode, tuple) and len(mode) == 2 and mode[0] in ("always-on", "reactive"):
        log = _run_baseline(list(cfgs), trace.arrivals, horizon, mode, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if not all(np.isfinite(a).all() for a in (log.power, log.reject_cost, log.backlog,
                                               log.queue_total, log.max_queue)):
        raise ValueError("run emitted a non-finite power, cost or queue")
    return log


def _run_algorithm(cfgs, trace, horizon, v, mode, seed, min_active, initial_queues):
    n = len(cfgs)
    virtualized = mode == "virtualized"
    rng = np.random.default_rng(seed)
    samplers = [_service_sampler(cfg.mu_dist) for cfg in cfgs]
    r_maxes = {float(cfg.r_max) for cfg in cfgs}
    if len(r_maxes) != 1:
        raise ValueError("all servers must share one router cap r_max")
    r_max = r_maxes.pop()
    cost_max = max(itertools.islice(trace.costs, horizon))
    per_queue_bound = v * cost_max + r_max
    limit = per_queue_bound + _BOUND_SLACK

    start = np.zeros(n) if initial_queues is None else np.asarray(initial_queues, dtype=float)
    if start.shape != (n,) or not (start >= 0).all():
        raise ValueError("initial_queues must give one nonnegative value per server")
    # the slot loop runs on Python floats and takes each step below as the
    # IEEE operation np.maximum or np.sum takes, in index order
    queues = start.tolist()
    max_queue = list(queues)
    backlog = 0.0
    # each server's phase ("start" at a frame start, "active", "idle" or
    # "setup"), its sleep mode, the slots left in an idle or setup phase and
    # its frame decisions by queue value
    phase = ["start"] * n
    sleep = [None] * n
    remaining = [0] * n
    decisions = [{} for _ in range(n)]
    power = np.zeros(horizon)
    reject_cost = np.zeros(horizon)
    backlog_log = np.zeros(horizon)
    queue_total = np.zeros(horizon)
    active_servers = np.zeros(horizon, dtype=int)
    rejected_log = np.zeros(horizon)
    arrivals_log = np.zeros(horizon, dtype=int)

    for t, arrivals, cost in zip(range(horizon), trace.arrivals, trace.costs):
        rejected, routed = admission_decide(arrivals, cost, queues, v, r_max)
        slot_power = 0.0
        drained = [0.0] * n
        drained_total = 0.0
        n_active = 0
        for s, cfg in enumerate(cfgs):
            if phase[s] == "start":
                q = queues[s]
                decision = "active" if s < min_active else decisions[s].get(q)
                if decision is None:
                    decision = decisions[s][q] = server_frame_decide(cfg, q, v)
                if decision == "active":
                    phase[s] = "active"
                else:
                    sleep[s] = cfg.sleep_modes[decision[0]]
                    remaining[s] = decision[1]
                    phase[s] = "idle"
            if phase[s] == "active":
                slot_power += cfg.active_power
                drained[s] = served = samplers[s](rng)
                drained_total += served
                n_active += 1
                phase[s] = "start"
            elif phase[s] == "idle":
                slot_power += sleep[s].idle_power
                remaining[s] -= 1
                if remaining[s] == 0:
                    phase[s] = "setup"
                    remaining[s] = int(rng.geometric(1.0 / sleep[s].setup_mean))
            else:
                slot_power += sleep[s].setup_power
                remaining[s] -= 1
                if remaining[s] == 0:
                    phase[s] = "active"

        total = 0.0
        breached = False
        for s in range(n):
            x = (queues[s] + routed[s]) - drained[s]
            # the floor and the running maximum as np.maximum takes them: NaN
            # passes through, and a tie returns the second argument
            x = x if x > 0.0 or x != x else 0.0
            queues[s] = x
            total += x
            breached = breached or x > limit
            top = max_queue[s]
            max_queue[s] = top if top > x or top != top else x
        if breached:
            worst = int(np.argmax(queues))
            raise RuntimeError(
                f"queue bound violated at slot {t}: Q_{worst}={queues[worst]:.6g} "
                f"> {per_queue_bound:.6g}")
        if virtualized:
            backlog = max(backlog + (arrivals - rejected) - drained_total, 0.0)
            if backlog > total + _BOUND_SLACK:
                raise RuntimeError(
                    f"physical backlog {backlog:.6g} exceeded the virtual total "
                    f"{total:.6g} at slot {t}")
            if backlog > n * per_queue_bound + _BOUND_SLACK:
                raise RuntimeError(
                    f"physical backlog bound violated at slot {t}: {backlog:.6g} "
                    f"> {n * per_queue_bound:.6g}")

        power[t] = slot_power
        reject_cost[t] = rejected * cost
        queue_total[t] = total
        backlog_log[t] = backlog if virtualized else total
        active_servers[t] = n_active
        rejected_log[t] = rejected
        arrivals_log[t] = arrivals

    return DatacenterLog(power=power, reject_cost=reject_cost,
                         backlog=backlog_log, queue_total=queue_total,
                         active_servers=active_servers, rejected=rejected_log,
                         arrivals=arrivals_log, max_queue=np.array(max_queue))


def _run_baseline(cfgs, arrival_column, horizon, mode, seed):
    n = len(cfgs)
    kind, param = mode
    rng = np.random.default_rng(seed)
    samplers = [_service_sampler(cfg.mu_dist) for cfg in cfgs]
    if kind == "always-on":
        k_on = int(param)
        if not 0 <= k_on <= n:
            raise ValueError(f"always-on count must lie in [0, {n}]")
        status = ["on" if s < k_on else "off" for s in range(n)]
    else:
        status = ["off"] * n
    remaining = [0] * n
    mu_bar = float(np.mean([cfg.mu_mean for cfg in cfgs]))

    power = np.zeros(horizon)
    backlog_log = np.zeros(horizon)
    active_servers = np.zeros(horizon, dtype=int)
    arrivals_log = np.zeros(horizon, dtype=int)
    backlog = 0.0
    window: List[int] = []

    for t, arrivals in zip(range(horizon), arrival_column):
        if kind == "reactive":
            window.append(arrivals)
            if len(window) > 10:
                window.pop(0)
            target = math.ceil((sum(window) / len(window) + param) / mu_bar)
            target = min(max(target, 0), n)
            committed = [s for s in range(n) if status[s] != "off"]
            if len(committed) < target:
                for s in range(n):
                    if len(committed) >= target:
                        break
                    if status[s] == "off":
                        status[s] = "setup"
                        remaining[s] = int(rng.geometric(1.0 / cfgs[s].sleep_modes[0].setup_mean))
                        committed.append(s)
            elif len(committed) > target:
                surplus = len(committed) - target
                for phase_name in ("setup", "on"):
                    for s in reversed(range(n)):
                        if surplus == 0:
                            break
                        if status[s] == phase_name:
                            status[s] = "off"
                            surplus -= 1

        slot_power = 0.0
        drained_total = 0.0
        n_active = 0
        for s in range(n):
            cfg = cfgs[s]
            if status[s] == "on":
                slot_power += cfg.active_power
                drained_total += samplers[s](rng)
                n_active += 1
            elif status[s] == "setup":
                slot_power += cfg.sleep_modes[0].setup_power
                remaining[s] -= 1
                if remaining[s] == 0:
                    status[s] = "on"
            else:
                slot_power += cfg.sleep_modes[0].idle_power

        backlog = max(backlog + float(arrivals) - drained_total, 0.0)
        power[t] = slot_power
        backlog_log[t] = backlog
        active_servers[t] = n_active
        arrivals_log[t] = arrivals

    return DatacenterLog(power=power, reject_cost=np.zeros(horizon),
                         backlog=backlog_log, queue_total=backlog_log.copy(),
                         active_servers=active_servers, rejected=np.zeros(horizon),
                         arrivals=arrivals_log, max_queue=np.zeros(n))
