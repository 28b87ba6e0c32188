"""Power-constrained multi-user file downloading by ratio indexing.

Users flip between idle and active (file present). Serving an active user
with a rate option completes the file with that option's success probability
and spends its power; a shared virtual queue tracks the average power budget
and the scheduler serves the users with the largest ratio indices. One
multi-user loop runs it under either file model the users carry: memoryless
files, or files with integer lengths from a sampler (the robustness test).
Includes the single-user frame algorithm, one loop that prices each action
once and takes its own argmax and queue step every frame, the fixed-rate
special case where the highest-arrival-rate policy is optimal, and its
two-queue Markov chain oracle. Both index runs check their deterministic
power-queue bound, which scales with each user's weight, on every step.

Timing convention: a file that completes in a slot can be replaced by a new
arrival at the end of that same slot, so an active user served with success
probability phi goes idle with probability phi * (1 - lambda). The single
user frame accounting instead counts a full idle period after each download,
giving the expected frame length 1 + phi / lambda used by the index.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

_CHUNK = 4096
_NEG_INF = -math.inf


@dataclass(frozen=True)
class UserSpec:
    """One user: arrival probability, mean file size, rate options, weight.

    ``actions`` holds (success probability, power) pairs and must start with
    the designated zero action (0, 0); every other option needs positive
    power. ``file_length_sampler`` optionally draws integer file lengths; it
    picks the file model :func:`multi_user_run` simulates, while the index
    itself is priced on phi and the mean file size in both models.
    """

    lam: float
    mean_file: float
    actions: Tuple[Tuple[float, float], ...]
    weight: float = 1.0
    file_length_sampler: Optional[Callable[[np.random.Generator], int]] = field(
        default=None, repr=False
    )

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError("arrival probability must be strictly inside (0, 1)")
        if not 0 < self.mean_file < math.inf:
            raise ValueError(f"mean_file must be finite and positive, got {self.mean_file}")
        if not 0 < self.weight < math.inf:
            raise ValueError(f"weight must be finite and positive, got {self.weight}")
        acts = tuple((float(phi), float(p)) for phi, p in self.actions)
        if not acts or acts[0] != (0.0, 0.0):
            raise ValueError("first action must be the zero action (0, 0)")
        for phi, p in acts:
            if not 0.0 <= phi <= 1.0:
                raise ValueError("success probability must lie in [0, 1]")
            if not 0 <= p < math.inf:
                raise ValueError(f"power must be finite and nonnegative, got {p}")
        for phi, p in acts[1:]:
            if not p > 0:
                raise ValueError("nonzero actions must have positive power")
        object.__setattr__(self, "actions", acts)

    @property
    def p_min(self) -> float:
        return min(p for _, p in self.actions[1:]) if len(self.actions) > 1 else np.inf

    @property
    def p_max(self) -> float:
        return max(p for _, p in self.actions)


def _index_terms(user: UserSpec, v: float):
    """Index of action a is gain[a] - Q * cost[a]; both lists share order."""
    gain, cost = [], []
    for phi, p in user.actions:
        denom = 1.0 + phi / user.lam
        gain.append(v * user.weight * user.mean_file * phi / denom)
        cost.append(p / denom)
    return gain, cost


def single_user_queue_bound(user: UserSpec, v: float, beta: float) -> float:
    """The index takes a costly action only while q < v * weight * mean_file
    * phi / p, and a frame adds at most p_max - beta to the queue."""
    return max(v * user.weight * user.mean_file / user.p_min + user.p_max - beta, 0.0)


def _check_v_beta(v: float, beta: float) -> None:
    """Reject a penalty weight or budget that would void the queue bound: a
    NaN or infinite one turns the per-slot bound check off."""
    if not 0.0 < v < math.inf:
        raise ValueError(f"penalty weight v must be finite and positive, got {v!r}")
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"power budget beta must be finite and nonnegative, got {beta!r}")


def single_user_run(
    user: UserSpec, v: float, beta: float, n_frames: int, seed: int
) -> dict:
    """Simulate frames of the single-user algorithm from an empty queue.

    A frame is one service slot plus, when the file completes, the idle slots
    until the next arrival. Each frame plays the action of greatest index
    ``gain - q * cost`` (ties go to the lowest action), then steps the power
    queue to ``max(q + p - beta * frame_len, 0)``. The power-queue bound is
    enforced as a hard check on every frame.
    """
    if n_frames < 1:
        raise ValueError("need at least one frame")
    _check_v_beta(v, beta)
    rng = np.random.default_rng(seed)
    bound = single_user_queue_bound(user, v, beta) + 1e-9
    gain, cost = _index_terms(user, v)
    options = list(zip(gain, cost))
    actions = np.empty(n_frames, dtype=int)
    frame_lens = np.empty(n_frames, dtype=int)
    powers = np.empty(n_frames)
    queues = np.empty(n_frames)
    q = 0.0
    for k in range(n_frames):
        a, best_val = 0, _NEG_INF
        for i, (g, c) in enumerate(options):
            val = g - q * c
            if val > best_val:
                a, best_val = i, val
        phi, p = user.actions[a]
        t_k = 1
        if rng.random() < phi:
            t_k += int(rng.geometric(user.lam))
        q = max(q + p - beta * t_k, 0.0)
        if q > bound:
            raise RuntimeError(
                f"power queue {q:.6f} exceeded its deterministic bound {bound:.6f}"
            )
        actions[k] = a
        frame_lens[k] = t_k
        powers[k] = p
        queues[k] = q
    return {
        "actions": actions,
        "frame_lens": frame_lens,
        "powers": powers,
        "queues": queues,
    }


# ---------------------------------------------------------------------------
# multi-user scheduling
# ---------------------------------------------------------------------------


def multi_user_queue_bound(users: Sequence[UserSpec], v: float, beta: float) -> float:
    p_min = min(u.p_min for u in users)
    c_b_max = max(u.weight * u.mean_file for u in users)
    return max(v * c_b_max / p_min + sum(u.p_max for u in users) - beta, 0.0)


def _option_table(users: Sequence[UserSpec], v: float):
    """Per-user rows, one per action, built once per run.

    Row ``a`` of user ``n`` is ``(gain, cost, phi, power, weight * mean_file
    * phi, a)`` with gain and cost from :func:`_index_terms`, so the index of
    action ``a`` at queue ``q`` is ``gain - q * cost``.
    """
    table = []
    for u in users:
        gain, cost = _index_terms(u, v)
        table.append(tuple(
            (gain[a], cost[a], phi, p, u.weight * u.mean_file * phi, a)
            for a, (phi, p) in enumerate(u.actions)
        ))
    return table


def _schedule(options, active, q, m_servers):
    """Serve up to m_servers active users with the greatest indices.

    ``options`` is an :func:`_option_table`; ``active[n]`` is truthy while
    user ``n`` holds a file. Each active user takes its best row (action
    ties go to the lower action number); index ties between users go to the
    lower user number. Returns the served ``(-index, n, row)`` entries in
    service order with the slot's power draw and expected weighted bits,
    both summed in that order.
    """
    ranked = []
    neg_inf = _NEG_INF
    n = 0  # a plain counter: enumerate's pairs cost more in this loop
    for opts in options:
        if active[n]:
            best = opts[0]
            best_val = neg_inf
            for row in opts:
                val = row[0] - q * row[1]
                if val > best_val:
                    best = row
                    best_val = val
            ranked.append((-best_val, n, best))
        n += 1
    if len(ranked) > m_servers:
        ranked.sort()
        del ranked[m_servers:]
    power = 0.0
    tput = 0.0
    for _, _, row in ranked:
        power += row[3]
        tput += row[4]
    return ranked, power, tput


def multi_user_run(
    users: Sequence[UserSpec],
    v: float,
    m_servers: int,
    beta: float,
    horizon: int,
    seed: int,
) -> dict:
    """Simulate the multi-user scheduler for ``horizon`` slots, idle start.

    The users' ``file_length_sampler`` picks the file model. Without one,
    files are memoryless: a served file completes when its completion
    uniform is below phi, and throughput is the expected weighted bits of
    the served options. When every user has one, files have integer lengths
    drawn at arrival: a served file loses one packet with success
    probability phi * mean_file, and throughput counts the weighted packets
    delivered. Each slot draws two uniforms per user, completion then
    arrival, whether or not they are used; an idle user (or one that just
    completed) gets a new file when its arrival uniform is below lambda.
    Memoryless runs draw the uniforms in (4096, 2, N) chunks, packet runs
    one (1, 2, N) block per slot, since lengths come from the same
    generator. The deterministic queue bound, which holds on every sample
    path whatever the file model, is enforced as a hard check on every slot.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not 0 < m_servers < len(users):
        raise ValueError("server count must satisfy 0 < M < N")
    _check_v_beta(v, beta)
    samplers = [u.file_length_sampler for u in users]
    packets = samplers[0] is not None
    if any((s is not None) != packets for s in samplers):
        raise ValueError("give every user a file_length_sampler, or none")
    if packets and any(phi * u.mean_file > 1.0 + 1e-12
                       for u in users for phi, _ in u.actions):
        raise ValueError(
            "phi * mean_file must stay within [0, 1] to be a packet "
            "success probability"
        )
    n_users = len(users)
    rng = np.random.default_rng(seed)
    options = _option_table(users, v)
    lams = [u.lam for u in users]
    weights = [u.weight for u in users]
    means = [u.mean_file for u in users]
    bound = multi_user_queue_bound(users, v, beta) + 1e-9
    tput_arr = np.empty(horizon)
    power_arr = np.empty(horizon)
    q_arr = np.empty(horizon)
    # packets left in each user's file; 1 while a memoryless file is held
    residual = [0] * n_users
    q = 0.0
    chunk = 1 if packets else _CHUNK
    pos = chunk
    block = None
    for t in range(horizon):
        if pos == chunk:
            block = rng.random((chunk, 2, n_users)).tolist()
            pos = 0
        comp_u, arr_u = block[pos]
        pos += 1
        served, power, tput = _schedule(options, residual, q, m_servers)
        if packets:
            success = [0.0] * n_users
            for _, n, row in served:
                success[n] = row[2] * means[n]
            tput = 0.0
            for n in range(n_users):
                if residual[n]:
                    if comp_u[n] < success[n]:
                        residual[n] -= 1
                        tput += weights[n]
                        if residual[n] == 0 and arr_u[n] < lams[n]:
                            residual[n] = samplers[n](rng)
                elif arr_u[n] < lams[n]:
                    residual[n] = samplers[n](rng)
        else:
            for _, n, row in served:
                if comp_u[n] < row[2]:
                    residual[n] = 0
            for n in range(n_users):
                if not residual[n] and arr_u[n] < lams[n]:
                    residual[n] = 1
        q = q + power - beta
        if q < 0.0:
            q = 0.0
        elif q > bound:
            raise RuntimeError(
                f"power queue {q:.6f} exceeded its deterministic bound {bound:.6f}"
            )
        tput_arr[t] = tput
        power_arr[t] = power
        q_arr[t] = q
    return {
        "throughput": tput_arr,
        "power": power_arr,
        "queue": q_arr,
        "throughput_avg": float(tput_arr.mean()),
        "power_avg": float(power_arr.mean()),
    }


# ---------------------------------------------------------------------------
# fixed-rate special case and its Markov chain oracle
# ---------------------------------------------------------------------------


def maxlambda_run(
    lambdas: Sequence[float],
    m_servers: int,
    horizon: int,
    seed: int,
    prefer_small: bool = False,
) -> float:
    """Time-average packets per slot over ``horizon`` slots, empty start."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    for lam in lambdas:
        if not 0.0 < lam < 1.0:
            raise ValueError("arrival probabilities must be strictly inside (0, 1)")
    n_q = len(lambdas)
    order = sorted(
        range(n_q), key=lambda n: (lambdas[n] if prefer_small else -lambdas[n], n)
    )
    rng = np.random.default_rng(seed)
    states = [0] * n_q
    delivered = 0
    pos = _CHUNK
    block = None
    for _ in range(horizon):
        if pos == _CHUNK:
            block = rng.random((_CHUNK, n_q)).tolist()
            pos = 0
        arr_u = block[pos]
        pos += 1
        served = 0
        for n in order:
            if served == m_servers:
                break
            if states[n]:
                states[n] = 0
                served += 1
        delivered += served
        for n in range(n_q):
            if states[n] == 0 and arr_u[n] < lambdas[n]:
                states[n] = 1
    return delivered / horizon


def two_queue_markov_throughput(lam1: float, lam2: float, priority: int) -> float:
    """Exact stationary throughput of two single-buffer queues, one server.

    The four occupancy states form a Markov chain under strict priority to
    the given queue (1 or 2); a slot delivers a packet unless both buffers
    are empty, so the throughput is one minus the both-empty probability.
    """
    if priority not in (1, 2):
        raise ValueError("priority must be 1 or 2")
    for lam in (lam1, lam2):
        if not 0.0 < lam < 1.0:
            raise ValueError("arrival probabilities must be strictly inside (0, 1)")
    lams = (lam1, lam2)
    p = np.zeros((4, 4))
    for s in range(4):
        occ = [s >> 1 & 1, s & 1]
        post = list(occ)
        serve = None
        if occ[priority - 1]:
            serve = priority - 1
        elif occ[2 - priority]:
            serve = 2 - priority
        if serve is not None:
            post[serve] = 0
        for s_next in range(4):
            nxt = [s_next >> 1 & 1, s_next & 1]
            prob = 1.0
            for i in range(2):
                if post[i]:
                    prob *= 1.0 if nxt[i] else 0.0
                else:
                    prob *= lams[i] if nxt[i] else 1.0 - lams[i]
            p[s, s_next] = prob
    a = np.vstack([p.T - np.eye(4), np.ones(4)])
    b = np.zeros(5)
    b[4] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return float(1.0 - pi[0])


# ---------------------------------------------------------------------------
# file length samplers for the packet model
# ---------------------------------------------------------------------------


def _geometric_draw(mean: float, rng: np.random.Generator) -> int:
    return int(rng.geometric(1.0 / mean))


def _uniform_draw(low: int, high: int, rng: np.random.Generator) -> int:
    return int(rng.integers(low, high + 1))


def _poisson_draw(mean: float, rng: np.random.Generator) -> int:
    return 1 + int(rng.poisson(mean - 1.0))


def geometric_file_sampler(mean: float) -> Callable[[np.random.Generator], int]:
    if not mean >= 1:
        raise ValueError("mean file length must be at least 1")
    return functools.partial(_geometric_draw, mean)


def uniform_file_sampler(low: int, high: int) -> Callable[[np.random.Generator], int]:
    if not 1 <= low <= high:
        raise ValueError("need 1 <= low <= high")
    return functools.partial(_uniform_draw, low, high)


def poisson_file_sampler(mean: float) -> Callable[[np.random.Generator], int]:
    """Shifted Poisson: 1 + Poisson(mean - 1), so lengths stay positive while
    keeping the requested mean."""
    if not mean >= 1:
        raise ValueError("mean file length must be at least 1")
    return functools.partial(_poisson_draw, mean)


# ---------------------------------------------------------------------------
# benchmark instances
# ---------------------------------------------------------------------------

_TABLE_ONE = [
    # lam, mu, phi(1), c, p(1)
    (0.0028, 0.5380, 0.4842, 4.7527, 3.9504),
    (0.4176, 0.5453, 0.4908, 2.0681, 3.7391),
    (0.0888, 0.5044, 0.4540, 2.8656, 3.5753),
    (0.3181, 0.6103, 0.5493, 2.4605, 2.1828),
    (0.4151, 0.9839, 0.8855, 4.5554, 3.1982),
    (0.2546, 0.5975, 0.5377, 3.9647, 3.5290),
    (0.1705, 0.5517, 0.4966, 1.5159, 2.5226),
    (0.2109, 0.7597, 0.6837, 3.6364, 2.5376),
]

_TABLE_TWO = [
    # mu, uniform (low, high), poisson mean, lam, phi(1), c, p(1)
    (1 / 3, (1, 5), 3.0, 0.4955, 0.1832, 4.3261, 2.8763),
    (1 / 2, (1, 3), 2.0, 0.1181, 0.4187, 1.6827, 2.0549),
    (1 / 2, (1, 3), 2.0, 0.1298, 0.4491, 1.9483, 2.1469),
    (1 / 7, (1, 13), 7.0, 0.4660, 0.0984, 2.7495, 3.4472),
    (1 / 4, (1, 7), 4.0, 0.1661, 0.1742, 1.5535, 3.2801),
    (1 / 3, (1, 5), 3.0, 0.2124, 0.3101, 4.3151, 3.5648),
    (1 / 2, (1, 3), 2.0, 0.5295, 0.4980, 3.6701, 2.4680),
    (1 / 5, (1, 9), 5.0, 0.2228, 0.1971, 4.0185, 2.2984),
    (1 / 4, (1, 7), 4.0, 0.0332, 0.1986, 3.0411, 2.5747),
]

EIGHT_USER_BUDGET = 5.0
EIGHT_USER_SERVERS = 4


def table_one_users() -> List[UserSpec]:
    """The eight-user two-action benchmark (geometric files, M=4, beta=5)."""
    return [
        UserSpec(
            lam=lam,
            mean_file=1.0 / mu,
            actions=((0.0, 0.0), (phi, p)),
            weight=c,
        )
        for lam, mu, phi, c, p in _TABLE_ONE
    ]


def table_two_users(file_dist: str = "geometric") -> List[UserSpec]:
    """The nine-user robustness benchmark with a choice of file length law.

    ``file_dist`` is "geometric", "uniform", or "poisson"; all three match
    the per-user mean file length 1/mu.
    """
    users = []
    for mu, unif, pmean, lam, phi, c, p in _TABLE_TWO:
        mean = 1.0 / mu
        if file_dist == "geometric":
            sampler = geometric_file_sampler(mean)
        elif file_dist == "uniform":
            sampler = uniform_file_sampler(*unif)
        elif file_dist == "poisson":
            sampler = poisson_file_sampler(pmean)
        else:
            raise ValueError("file_dist must be geometric, uniform, or poisson")
        users.append(
            UserSpec(
                lam=lam,
                mean_file=mean,
                actions=((0.0, 0.0), (phi, p)),
                weight=c,
                file_length_sampler=sampler,
            )
        )
    return users
