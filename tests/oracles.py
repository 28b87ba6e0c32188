"""Independent oracles used by the test suite.

Everything in this file is deliberately written from first principles (exhaustive
enumeration, grid search, direct linear solves) and must not call into the package
implementations it is used to check. Slow is fine here; these run on small instances.
Vertex enumeration of LPs and the grid-plus-face projection minimizer are not here:
the acceptance battery needs them in the installed package, so the tests import
``acceptance.lp_by_enumeration`` and ``acceptance.grid_project``. So is the composite
download-chain LP and its seeded family (``acceptance.composite_chain_lp`` and
``acceptance.random_composite_chain``); the Kronecker-product reference for that
chain's rows stays here.

The exceptions are the reference-version sections, earlier and plainer versions of
package code kept so the tests can require the package to reproduce them bit for
bit, and the last section, helpers that only the tests use. The single-system
frame rule ``dpp_ratio_select``, which no package code uses, sits beside the
brute-force argmin that checks it.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from renewalopt import bandit, ocmdp
from renewalopt.core import (
    ActionModel,
    FrameOutcome,
    FrameProfile,
    dpp_linear_select,
)


# ---------------------------------------------------------------------------
# selection oracles
# ---------------------------------------------------------------------------

def dpp_ratio_select(actions, q, v):
    """Pick the action minimizing (v*penalty + q.metrics) / frame_len.

    The single-system frame rule on expected per-frame totals: the reference
    that ``ratio_select_bruteforce`` checks. Ties keep the lowest list index.
    """
    if not actions:
        raise ValueError("action list is empty")
    if not v > 0.0:
        raise ValueError("penalty weight must be positive")
    q = np.asarray(q, dtype=float)
    best_id = None
    best_val = None
    for a in actions:
        val = (v * a.exp_penalty + float(q.dot(a.exp_metrics))) / a.exp_frame_len
        if best_val is None or val < best_val:
            best_val = val
            best_id = a.action_id
    return best_id


def ratio_select_bruteforce(actions, q, v):
    """Exhaustive argmin of (v*y + q.z) / T with lowest-index tie-breaking."""
    best_i = None
    best_val = None
    for i, a in enumerate(actions):
        terms = [v * float(a.exp_penalty)]
        terms.extend(float(qq) * float(zz) for qq, zz in zip(q, a.exp_metrics))
        val = math.fsum(terms) / float(a.exp_frame_len)
        if best_val is None or val < best_val:
            best_val = val
            best_i = i
    return best_i


def linear_select_bruteforce(actions, q, v):
    best_i = None
    best_val = None
    for i, a in enumerate(actions):
        terms = [v * float(a.exp_penalty)]
        terms.extend(float(qq) * float(zz) for qq, zz in zip(q, a.exp_metrics))
        val = math.fsum(terms)
        if best_val is None or val < best_val:
            best_val = val
            best_i = i
    return best_i


# ---------------------------------------------------------------------------
# Markov chain helpers and the two-queue chain, derived from scratch
# ---------------------------------------------------------------------------

def stationary_distribution(p):
    """Stationary row vector of a transition matrix, by least squares."""
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    a = np.vstack([p.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    d, *_ = np.linalg.lstsq(a, b, rcond=None)
    return d


def two_queue_chain_bruteforce(lam1, lam2, priority):
    """Throughput of two single-packet buffers, one server, strict priority.

    Independent re-derivation: build the 4-state chain (states ordered
    (0,0),(1,0),(0,1),(1,1)) directly from the slot mechanics: serve the
    priority queue if it holds a packet, else the other nonempty queue; a
    served or empty buffer accepts a Bernoulli arrival at the end of the slot,
    a full unserved buffer drops it.
    """
    lams = (lam1, lam2)
    states = [(0, 0), (1, 0), (0, 1), (1, 1)]
    p = np.zeros((4, 4))
    served = np.zeros(4)
    for si, (q1, q2) in enumerate(states):
        occ = [q1, q2]
        serve = None
        order = (0, 1) if priority == 1 else (1, 0)
        for cand in order:
            if occ[cand]:
                serve = cand
                break
        after = list(occ)
        if serve is not None:
            after[serve] = 0
            served[si] = 1.0
        # arrivals land only in buffers empty after service
        for a1 in (0, 1):
            for a2 in (0, 1):
                prob = (lams[0] if a1 else 1 - lams[0]) * (lams[1] if a2 else 1 - lams[1])
                n1 = after[0] if after[0] else a1
                n2 = after[1] if after[1] else a2
                p[si, states.index((n1, n2))] += prob
    pi = stationary_distribution(p)
    return float(pi @ served)


def single_user_download_value(mean_file, mu, lam):
    """Closed-form optimal weighted throughput for one user, no power budget.

    Two-state balance with completion probability mu on served slots and a
    fresh arrival allowed at the end of the completing slot.
    """
    return mean_file * mu * lam / (mu + lam - mu * lam)


def _howard_average_reward(p_rows, rewards, state_of, n_states, max_sweeps=200):
    """Gain of an average-reward MDP by policy iteration.

    p_rows[j] is the transition row of state-action pair j, rewards[j] its
    one-step reward, state_of[j] its state. The chain must be unichain under
    every policy. Returns (gain, bias vector, policy).
    """
    by_state = [[] for _ in range(n_states)]
    for j, s in enumerate(state_of):
        by_state[s].append(j)
    policy = [pairs[0] for pairs in by_state]
    p_rows = np.asarray(p_rows, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    for _ in range(max_sweeps):
        # evaluate: (I - P) h + g 1 = r with h[0] = 0
        p_pi = p_rows[policy]
        r_pi = rewards[policy]
        a = np.zeros((n_states + 1, n_states + 1))
        a[:n_states, :n_states] = np.eye(n_states) - p_pi
        a[:n_states, n_states] = 1.0
        a[n_states, 0] = 1.0
        rhs = np.concatenate([r_pi, [0.0]])
        sol, *_ = np.linalg.lstsq(a, rhs, rcond=None)
        h, gain = sol[:n_states], sol[n_states]
        # improve greedily, keeping the incumbent on near-ties
        q_vals = rewards + p_rows @ h
        new_policy = []
        stable = True
        for s, pairs in enumerate(by_state):
            best = max(pairs, key=lambda j: q_vals[j])
            if q_vals[best] > q_vals[policy[s]] + 1e-10:
                stable = False
                new_policy.append(best)
            else:
                new_policy.append(policy[s])
        policy = new_policy
        if stable:
            return float(gain), h, policy
    raise RuntimeError("policy iteration did not stabilize")


def coupled_chain_lagrangian(arrival_probs, weights, mean_files, action_sets,
                             served_limit, power_budget, tol=1e-11):
    """Optimal constrained weighted throughput of coupled download chains.

    Independent of the LP route: enumerates the composite chain's state-action
    pairs directly, then minimizes the Lagrangian dual
    g(nu) + nu * power_budget over nu >= 0, with the unconstrained gain g(nu)
    computed by Howard policy iteration on reward - nu * power. Constrained
    average-reward problems with one budget have no duality gap, so the dual
    minimum equals the LP optimum.
    """
    lams = [float(l) for l in arrival_probs]
    n_users = len(lams)
    n_states = 2 ** n_users
    p_rows, rewards, powers, state_of = [], [], [], []
    for s in range(n_states):
        active = [u for u in range(n_users) if (s >> u) & 1]
        for k in range(min(served_limit, len(active)) + 1):
            for subset in itertools.combinations(active, k):
                pools = [range(1, len(action_sets[u])) for u in subset]
                for picks in itertools.product(*pools):
                    chosen = dict(zip(subset, picks))
                    reward = 0.0
                    power = 0.0
                    per_user = []  # P(next bit = 0), P(next bit = 1)
                    for u in range(n_users):
                        if u in chosen:
                            phi, pw = action_sets[u][chosen[u]]
                            done = phi * (1.0 - lams[u])
                            per_user.append((done, 1.0 - done))
                            reward += weights[u] * mean_files[u] * phi
                            power += pw
                        elif (s >> u) & 1:
                            per_user.append((0.0, 1.0))
                        else:
                            per_user.append((1.0 - lams[u], lams[u]))
                    row = np.zeros(n_states)
                    for nxt in range(n_states):
                        pr = 1.0
                        for u in range(n_users):
                            pr *= per_user[u][(nxt >> u) & 1]
                        row[nxt] = pr
                    p_rows.append(row)
                    rewards.append(reward)
                    powers.append(power)
                    state_of.append(s)
    rewards = np.asarray(rewards)
    powers = np.asarray(powers)

    def dual(nu):
        gain, _, policy = _howard_average_reward(
            p_rows, rewards - nu * powers, state_of, n_states
        )
        return gain + nu * power_budget

    # the dual is convex piecewise linear in nu with slope budget - power(nu);
    # bracket the kink where expected power crosses the budget, then bisect
    def power_at(nu):
        _, _, policy = _howard_average_reward(
            p_rows, rewards - nu * powers, state_of, n_states
        )
        p_pi = np.asarray(p_rows)[policy]
        pi = stationary_distribution(p_pi)
        return float(pi @ powers[policy])

    if power_at(0.0) <= power_budget + 1e-12:
        return dual(0.0)
    lo, hi = 0.0, 1.0
    while power_at(hi) > power_budget:
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("could not bracket the dual minimizer")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if power_at(mid) > power_budget:
            lo = mid
        else:
            hi = mid
    return min(dual(lo), dual(hi))


def composite_chain_by_kron(arrival_probs, weights, mean_files, action_sets,
                            served_limit):
    """State-action pairs of the coupled download chain, one pair at a time.

    Same enumeration order as the package's composite chain (state, number
    served, served subset, action picks). Each transition row is the Kronecker
    product of the per-user next-bit laws, user n-1 outermost so that user 0
    sits in the least significant bit; rewards and powers add up user by user.
    Returns (state_of, rows, rewards, powers) as arrays.
    """
    lams = [float(l) for l in arrival_probs]
    n_users = len(lams)
    state_of, rows, rewards, powers = [], [], [], []
    for s in range(2 ** n_users):
        active = [u for u in range(n_users) if (s >> u) & 1]
        for k in range(min(served_limit, len(active)) + 1):
            for subset in itertools.combinations(active, k):
                pools = [range(1, len(action_sets[u])) for u in subset]
                for picks in itertools.product(*pools):
                    chosen = dict(zip(subset, picks))
                    reward = 0.0
                    power = 0.0
                    factors = []
                    for u in range(n_users):
                        if u in chosen:
                            phi, pw = action_sets[u][chosen[u]]
                            done = phi * (1.0 - lams[u])
                            factors.append(np.array([done, 1.0 - done]))
                            reward += weights[u] * mean_files[u] * phi
                            power += pw
                        elif (s >> u) & 1:
                            factors.append(np.array([0.0, 1.0]))
                        else:
                            factors.append(np.array([1.0 - lams[u], lams[u]]))
                    row = factors[-1]
                    for f in reversed(factors[:-1]):
                        row = np.kron(row, f)
                    state_of.append(s)
                    rows.append(row)
                    rewards.append(reward)
                    powers.append(power)
    return (np.array(state_of), np.array(rows), np.array(rewards),
            np.array(powers))


# ---------------------------------------------------------------------------
# stationary-policy baseline oracle (K MDPs, one coupling constraint)
# ---------------------------------------------------------------------------

def pure_policy_vertices(transitions):
    """Occupation vectors of all pure policies of one MDP.

    transitions: array (n_actions, n_states, n_states). Returns a list of
    occupation vectors theta with layout theta[s * n_actions + a].
    """
    transitions = np.asarray(transitions, dtype=float)
    n_a, n_s, _ = transitions.shape
    verts = []
    for choice in itertools.product(range(n_a), repeat=n_s):
        p_pi = np.array([transitions[choice[s], s] for s in range(n_s)])
        dist = stationary_distribution(p_pi)
        theta = np.zeros(n_s * n_a)
        for s in range(n_s):
            theta[s * n_a + choice[s]] = dist[s]
        verts.append(theta)
    return verts


def coupled_baseline_dual_scan(transitions_list, f_means, g_means, mu_max=60.0, step=2e-4):
    """Lower bound on min sum_k <f_k, theta_k> subject to sum_k <g_k, theta_k> <= 0
    with theta_k in each MDP's occupation polytope, by scanning the Lagrange dual
    over a fine grid. Exact LP duality makes the scan maximum approach the LP
    value from below; with a fine grid the gap is below 1e-3 for the bounded
    instances used in the tests. Only a single coupling constraint is supported.
    """
    f_proj = []
    g_proj = []
    for trans, f_m, g_m in zip(transitions_list, f_means, g_means):
        verts = pure_policy_vertices(trans)
        f_proj.append(np.array([float(np.dot(f_m.ravel(), v)) for v in verts]))
        g_proj.append(np.array([float(np.dot(g_m.ravel(), v)) for v in verts]))
    mus = np.arange(0.0, mu_max + step, step)
    total = np.zeros_like(mus)
    for fk, gk in zip(f_proj, g_proj):
        vals = fk[None, :] + mus[:, None] * gk[None, :]
        total += vals.min(axis=1)
    return float(total.max())


# ---------------------------------------------------------------------------
# pseudo-average replay
# ---------------------------------------------------------------------------

def replay_truncated_average(increments, decay, cap):
    """Recompute the truncated pseudo-average trajectory from raw increments.

    increments[i] is the frame-i term; returns the list of theta values with
    theta[0] = 0 and theta[n+1] = clip(sum(increments[:n+1]) / (n+1)**decay).
    Summation runs left to right so a correct incremental implementation matches
    bit for bit.
    """
    thetas = [0.0]
    running = 0.0
    for n, inc in enumerate(increments):
        running = running + inc
        val = running / (n + 1) ** decay
        thetas.append(min(max(val, 0.0), cap))
    return thetas


# ---------------------------------------------------------------------------
# datacenter frame decision, queue steps and the reactive target
# ---------------------------------------------------------------------------

def datacenter_decide_bruteforce(active_power, mu_mean, mu_max, r_max,
                                 sleep_modes, i_max, queue, v):
    """Exhaustive minimization over {active} and every (sleep mode, I) pair.

    sleep_modes is a list of (idle_power, setup_power, setup_mean) triples
    with geometrically distributed setup, so the setup variance is m**2 - m.
    The idle branch is evaluated straight from its definition term by term,
    not through the substitution the library uses. Ties keep the server
    active, then prefer the lower mode index, then the shorter idle window.
    """
    b0 = 0.5 * (r_max + mu_max) * mu_max
    best_choice = "active"
    best_val = v * active_power - queue * mu_mean
    for k, (idle_power, setup_power, setup_mean) in enumerate(sleep_modes):
        var = setup_mean * setup_mean - setup_mean
        head = (v * setup_power * setup_mean + v * active_power
                - queue * mu_mean + 0.5 * b0 * var)
        for i in range(1, i_max + 1):
            x = i + setup_mean + 1.0
            val = (head + v * idle_power * i) / x + 0.5 * b0 * x
            if val < best_val:
                best_choice = (k, i)
                best_val = val
    return best_choice


def queue_update(queues, routed, drained) -> np.ndarray:
    """Per-queue backlog recursion max(q + in - out, 0), elementwise: the
    numpy form of the step ``datacenter.run_datacenter`` takes on floats."""
    return np.maximum(np.asarray(queues, dtype=float) + routed - drained, 0.0)


def actual_queue_update(backlog: float, admitted: float, drained: float) -> float:
    """Single physical queue: admitted work in, the active servers' total
    service out, floored at zero."""
    return max(backlog + admitted - drained, 0.0)


def reactive_target(recent_arrivals, extra: float, mu_mean: float) -> int:
    """Server count the reactive baseline wants on: ceil((lambda_bar + extra)
    / mu_mean), with lambda_bar numpy's mean of the supplied window."""
    lam_bar = float(np.mean(recent_arrivals)) if len(recent_arrivals) else 0.0
    return int(math.ceil((lam_bar + extra) / mu_mean))


def zipf_draw_searchsorted(cdf, rng) -> float:
    """One Zipf draw as ``datacenter`` took it before its CDF became a list:
    numpy's right-sided search of one uniform in the CDF array."""
    return float(np.searchsorted(np.asarray(cdf), rng.random(), side="right") + 1)


# ---------------------------------------------------------------------------
# event-conditioned action scoring
# ---------------------------------------------------------------------------

def online_select_bruteforce(y_row, t_row, z_rows, budgets, queues, theta, v):
    """Exhaustive argmin of v*(y - theta*T) + sum_l Q_l*(z_l - c_l*T) over the
    action axis; first minimum wins."""
    best, best_val = 0, None
    for a in range(len(y_row)):
        val = v * (y_row[a] - theta * t_row[a])
        for l, q in enumerate(queues):
            val += q * (z_rows[a][l] - budgets[l] * t_row[a])
        if best_val is None or val < best_val:
            best, best_val = a, val
    return best


# ---------------------------------------------------------------------------
# ocmdp reference versions: numpy's Generator.choice and a two-draw table sampler
# ---------------------------------------------------------------------------

def sample_tables_two_draws(spec, slot, rng):
    """Realized (f, g) tables of ``spec`` for one slot, noising f and g with
    one uniform draw each."""
    f = spec.mean_f_at(slot).copy()
    g = spec.g_means.copy()
    if spec.noise > 0.0:
        f += rng.uniform(-spec.noise, spec.noise, size=f.shape)
        if g.size:
            g += rng.uniform(-spec.noise, spec.noise, size=g.shape)
    np.clip(f, -spec.psi, spec.psi, out=f)
    if g.size:
        np.clip(g, -spec.psi, spec.psi, out=g)
    return f, g


def recover_policy(theta, n_states, n_actions):
    """Conditional action distribution encoded by an occupation vector.

    Rows are theta(s, .) divided by the state marginal. A state with zero
    marginal carries no probability mass under theta, so any distribution
    works there; the uniform one is substituted to keep every row a
    distribution for the simulator.
    """
    table = np.asarray(theta, dtype=float).reshape(n_states, n_actions)
    marginals = table.sum(axis=1)
    policy = np.full((n_states, n_actions), 1.0 / n_actions)
    positive = marginals > 0.0
    policy[positive] = table[positive] / marginals[positive, None]
    return policy


def run_fixed_policy(instance, thetas, horizon, seed=0):
    """Play fixed occupation vectors on the true chains, no adaptation,
    every system starting in state 0.

    Used to replay a stationary benchmark in the real system; the log has
    all-zero queues and constant theta rows so it can feed the same
    measurement code as an adaptive run.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    specs, m = instance.specs, instance.n_constraints
    n_sys = len(specs)
    if len(thetas) != n_sys:
        raise ValueError("need one occupation vector per system")
    fixed = [np.asarray(t, dtype=float).ravel() for t in thetas]
    for poly, theta in zip(instance.polys, fixed):
        residual = poly.membership_residual(theta)
        if not residual <= ocmdp._MEMBERSHIP_TOL:
            raise ValueError(
                f"occupation vector outside its polyhedron (residual {residual:.3e})"
            )
    policies = [
        recover_policy(theta, spec.n_states, spec.n_actions)
        for spec, theta in zip(specs, fixed)
    ]
    states = np.zeros(n_sys, dtype=int)
    rngs = ocmdp._spawn_rngs(seed, n_sys)

    realized_f = np.zeros(horizon)
    realized_g = np.zeros((horizon, m))
    states_log = np.zeros((horizon, n_sys), dtype=int)
    actions_log = np.zeros((horizon, n_sys), dtype=int)
    for t in range(horizon):
        for k, (spec, rng) in enumerate(zip(specs, rngs)):
            s_now = int(states[k])
            row = policies[k][s_now]
            a = int(rng.choice(spec.n_actions, p=row / row.sum()))
            states[k] = int(rng.choice(spec.n_states, p=spec.transitions[a, s_now]))
            size = spec.dim * (1 + m)
            tables = spec.sample_tables(t, rng.random(size).tolist() if spec.noise else [])
            states_log[t, k] = s_now
            actions_log[t, k] = a
            entry = s_now * spec.n_actions + a
            realized_f[t] += tables[entry]
            if m:
                realized_g[t] += tables[spec.dim + entry :: spec.dim]
    return ocmdp.OcmdpLog(
        horizon=horizon,
        fingerprint=instance.fingerprint,
        queues=np.zeros((horizon + 1, m)),
        realized_f=realized_f,
        realized_g=realized_g,
        states=states_log,
        actions=actions_log,
        thetas=[np.tile(theta, (horizon, 1)) for theta in fixed],
    )


# ---------------------------------------------------------------------------
# bandit reference versions: the single-user frame rule and queue step, and
# the multi-user scheduler one slot at a time
# ---------------------------------------------------------------------------

@dataclass
class BanditState:
    file_states: List[int]
    q: float
    slot: int


@dataclass
class SlotStats:
    served: List[Tuple[int, int]]  # (user index, action index)
    throughput: float  # expected weighted bits, sum of c * mean_file * phi
    power: float


def bandit_schedule(users, gains, costs, file_states, q, m_servers):
    """Pick up to m_servers active users with the greatest indices.

    Index ties break toward the lower user number, action ties toward the
    lower action number. Returns the served (user, action) pairs with the
    slot's power draw and expected weighted bits.
    """
    ranked = []
    for n, f in enumerate(file_states):
        if not f:
            continue
        g, c = gains[n], costs[n]
        best, best_val = 0, -np.inf
        for a in range(len(g)):
            val = g[a] - q * c[a]
            if val > best_val:
                best, best_val = a, val
        ranked.append((-best_val, n, best))
    if len(ranked) > m_servers:
        ranked.sort()
        ranked = ranked[:m_servers]
    served = [(n, a) for _, n, a in ranked]
    power = 0.0
    tput = 0.0
    for n, a in served:
        phi, p = users[n].actions[a]
        power += p
        tput += users[n].weight * users[n].mean_file * phi
    return served, power, tput


def single_user_select(user, q, v):
    """Best action index at a frame start: the greatest gain - q * cost, with
    gain = v * weight * mean_file * phi / d and cost = p / d for
    d = 1 + phi / lambda; ties go to the lowest index."""
    best, best_val = 0, -np.inf
    for a, (phi, p) in enumerate(user.actions):
        denom = 1.0 + phi / user.lam
        val = v * user.weight * user.mean_file * phi / denom - q * (p / denom)
        if val > best_val:
            best, best_val = a, val
    return best


def single_user_queue_update(q, power, frame_len, beta):
    """Power queue over one frame: max(q + power - beta * frame_len, 0)."""
    if frame_len < 1:
        raise ValueError("frame length must be at least 1")
    return max(q + power - beta * frame_len, 0.0)


def multi_user_step(users, state, v, m_servers, beta, rng):
    """One slot of the ratio indexing scheduler.

    Consumes two uniform vectors per slot (completion then arrival), one
    entry per user, regardless of which entries end up used; this keeps the
    draw layout identical to the chunked generation in
    ``bandit.multi_user_run``.
    """
    if not 0 < m_servers < len(users):
        raise ValueError("server count must satisfy 0 < M < N")
    gains, costs = zip(*(bandit._index_terms(u, v) for u in users))
    comp_u = rng.random(len(users))
    arr_u = rng.random(len(users))
    served, power, tput = bandit_schedule(
        users, gains, costs, state.file_states, state.q, m_servers
    )
    new_states = list(state.file_states)
    served_phi = {n: users[n].actions[a][0] for n, a in served}
    for n, user in enumerate(users):
        if new_states[n]:
            phi = served_phi.get(n, 0.0)
            if phi and comp_u[n] < phi:
                new_states[n] = 1 if arr_u[n] < user.lam else 0
        else:
            new_states[n] = 1 if arr_u[n] < user.lam else 0
    q_new = max(state.q + power - beta, 0.0)
    return (
        BanditState(file_states=new_states, q=q_new, slot=state.slot + 1),
        SlotStats(served=served, throughput=tput, power=power),
    )


def maxlambda_step(file_states, lambdas, m_servers, rng, prefer_small=False):
    """One slot of strict-priority service over single-buffer queues.

    Serves up to ``m_servers`` nonempty buffers, ordered by arrival rate
    (largest first, or smallest first with ``prefer_small``; rate ties go to
    the lower queue number). A served buffer always delivers its packet.
    Bernoulli arrivals then fill every buffer that is empty after service.
    Returns the new states and the number of packets delivered.
    """
    for lam in lambdas:
        if not 0.0 < lam < 1.0:
            raise ValueError("arrival probabilities must be strictly inside (0, 1)")
    order = sorted(
        range(len(lambdas)),
        key=lambda n: (lambdas[n] if prefer_small else -lambdas[n], n),
    )
    new_states = list(file_states)
    served = 0
    for n in order:
        if served == m_servers:
            break
        if new_states[n]:
            new_states[n] = 0
            served += 1
    arr_u = rng.random(len(lambdas))
    for n, lam in enumerate(lambdas):
        if new_states[n] == 0 and arr_u[n] < lam:
            new_states[n] = 1
    return new_states, served


# ---------------------------------------------------------------------------
# queue updates, and the coupled reference version: one slot at a time, from
# dense frame profiles
# ---------------------------------------------------------------------------

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


def dense_slots(frame, n_metrics: int) -> Tuple[np.ndarray, np.ndarray]:
    """(penalty per slot, (frame_len, n_metrics) metrics per slot) of a
    sampled frame.

    A ``core.FrameProfile`` is written out slot by slot and must add up to
    its totals; a totals-only ``core.FrameOutcome`` lumps on its final slot.
    Anything else, or a layout that does not fit the frame, raises
    ValueError.
    """
    if not isinstance(frame, (FrameOutcome, FrameProfile)):
        raise ValueError("a sampler must return a FrameOutcome or FrameProfile")
    t = frame.frame_len
    if int(t) != t or t < 1:
        raise ValueError("frame_len must be a positive integer")
    totals = np.asarray(frame.metrics_total, dtype=float)
    if totals.shape != (n_metrics,):
        raise ValueError("metrics_total length must equal n_metrics")
    pslots = np.zeros(int(t))
    mslots = np.zeros((int(t), n_metrics))
    if isinstance(frame, FrameOutcome):
        pslots[-1] = frame.penalty_total
        mslots[-1] = totals
        return pslots, mslots
    end = frame.tail_start
    if int(end) != end or not 0 <= end <= t:
        raise ValueError("tail_start must be an integer in [0, frame_len]")
    pslots[int(end):] = frame.tail_penalty
    offsets = [off for off, _, _ in frame.impulses]
    if offsets != sorted(set(offsets)) \
            or any(int(off) != off or not 0 <= off < end for off in offsets):
        raise ValueError("impulse offsets must increase and precede the tail")
    for off, y, z in frame.impulses:
        if len(z) != n_metrics:
            raise ValueError("impulse metrics length must equal n_metrics")
        pslots[int(off)] = y
        mslots[int(off)] = z
    if abs(float(pslots.sum()) - float(frame.penalty_total)) > 1e-9:
        raise ValueError("penalty slots do not sum to penalty_total")
    if n_metrics and np.max(np.abs(mslots.sum(axis=0) - totals)) > 1e-9:
        raise ValueError("metrics slots do not sum to metrics_total")
    return pslots, mslots

@dataclass
class SystemFrameState:
    action_id: object
    frame_start: int
    frame_len: int
    slot_index: int
    penalty_slots: np.ndarray
    metrics_slots: np.ndarray

    @property
    def remaining(self) -> int:
        return self.frame_len - self.slot_index


@dataclass
class SlotRecord:
    slot: int
    penalty_by_system: np.ndarray
    metrics_sum: np.ndarray
    external: np.ndarray
    queues: np.ndarray


def _start_frame(spec, n, q, v, t, rng) -> SystemFrameState:
    actions = spec.systems[n]
    chosen = dpp_linear_select(actions, q, v)
    model = next(a for a in actions if a.action_id == chosen)
    pslots, mslots = dense_slots(model.sampler(rng), spec.n_constraints)
    return SystemFrameState(
        action_id=chosen,
        frame_start=t,
        frame_len=pslots.size,
        slot_index=0,
        penalty_slots=pslots,
        metrics_slots=mslots,
    )


def step(spec, states, q, v, rng, t, external_rng=None):
    """Advance a ``coupled.CoupledSystemSpec`` one slot.

    Systems at frame boundaries decide (in index order) before the slot's
    emissions, which add up in frame-start order as in ``coupled.run``; the
    external process is drawn last, after all decisions, from
    ``external_rng`` (or ``rng`` when not given). Returns (states, q', record).
    """
    if external_rng is None:
        external_rng = rng
    n_sys = len(spec.systems)
    penalty_row = np.zeros(n_sys)
    metrics_row = np.zeros(spec.n_constraints)
    new_states: List[Optional[SystemFrameState]] = list(states)
    for n in range(n_sys):
        if new_states[n] is None or new_states[n].remaining == 0:
            new_states[n] = _start_frame(spec, n, q, v, t, rng)
    for n in sorted(range(n_sys), key=lambda n: (new_states[n].frame_start, n)):
        st = new_states[n]
        penalty_row[n] = st.penalty_slots[st.slot_index]
        metrics_row += st.metrics_slots[st.slot_index]
        st.slot_index += 1
    d = np.asarray(spec.external(external_rng, 1)[0], dtype=float)
    q_new = queue_update_slot(q, metrics_row, d)
    rec = SlotRecord(
        slot=t,
        penalty_by_system=penalty_row,
        metrics_sum=metrics_row,
        external=d,
        queues=q_new,
    )
    return new_states, q_new, rec


# ---------------------------------------------------------------------------
# helpers only the tests use
# ---------------------------------------------------------------------------

_FRAME_DIST_KINDS = ("deterministic", "geometric", "uniform_int")
_VALUE_DIST_KINDS = ("deterministic", "uniform_int")


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


def outcome_sampler(frame_len, penalty, metrics):
    """Build a FrameOutcome sampler from declarative ``Dist`` laws.

    Frame lengths may be deterministic, geometric (minimum 1), or uniform
    integer; penalties and metrics may be deterministic or uniform integer.
    Any other kind raises a configuration error.
    """
    if frame_len.kind not in _FRAME_DIST_KINDS:
        raise ValueError(f"unsupported frame length distribution: {frame_len.kind!r}")
    if penalty.kind not in _VALUE_DIST_KINDS:
        raise ValueError(f"unsupported penalty distribution: {penalty.kind!r}")
    metrics = list(metrics)
    for m in metrics:
        if m.kind not in _VALUE_DIST_KINDS:
            raise ValueError(f"unsupported metric distribution: {m.kind!r}")

    def draw(rng: np.random.Generator) -> FrameOutcome:
        t = frame_len.sample(rng)
        if t < 1:
            raise ValueError("sampled frame length below 1")
        y = penalty.sample(rng)
        z = np.array([m.sample(rng) for m in metrics], dtype=float)
        return FrameOutcome(frame_len=int(t), penalty_total=y, metrics_total=z)

    return draw


def action_from_dists(action_id, frame_len, penalty, metrics) -> ActionModel:
    """ActionModel whose expectations and sampler come from one declaration."""
    metrics = list(metrics)
    return ActionModel(
        action_id=action_id,
        exp_penalty=penalty.expectation,
        exp_metrics=np.array([m.expectation for m in metrics]),
        exp_frame_len=frame_len.expectation,
        sampler=outcome_sampler(frame_len, penalty, metrics),
    )


def energy_table(log, stride=1) -> Tuple[List[str], np.ndarray]:
    """Rows (slot, energy_avg, service_avg_1..L, q_1..L) of a
    ``coupled.MetricsLog``: running averages and queues, every ``stride``
    slots."""
    ell = log.metrics.shape[1]
    cols = (
        ["slot", "energy_avg"]
        + [f"service_avg_{l + 1}" for l in range(ell)]
        + [f"q_{l + 1}" for l in range(ell)]
    )
    steps = np.arange(1, log.horizon + 1, dtype=float)
    energy = np.cumsum(log.penalty.sum(axis=1)) / steps
    service = -np.cumsum(log.metrics, axis=0) / steps[:, None]
    rows = np.column_stack([np.arange(log.horizon), energy, service, log.queues])
    return cols, rows[::stride]


def coupled_chain_lp_shape(n_users, nonzero_actions, served_limit,
                           has_power_budget) -> Tuple[int, int]:
    """(variables, constraints) of the composite download-chain LP of
    ``lp.coupled_mdp_optimal``, without building it.

    Variables count one occupation entry per (state, joint action) plus one
    slack when the power row is present; joint actions pick at most
    ``served_limit`` active users and one nonzero action for each.
    """
    counts = list(nonzero_actions)
    if len(counts) != n_users:
        raise ValueError("nonzero_actions must list one count per user")
    n_vars = 0
    for s in range(2 ** n_users):
        active = [u for u in range(n_users) if (s >> u) & 1]
        # coefficient generating polynomial, truncated at served_limit
        poly = [1.0] + [0.0] * served_limit
        for u in active:
            nxt = poly[:]
            for deg in range(served_limit):
                nxt[deg + 1] += poly[deg] * counts[u]
            poly = nxt
        n_vars += int(round(sum(poly)))
    n_rows = 2 ** n_users + 1 + (1 if has_power_budget else 0)
    return n_vars + (1 if has_power_budget else 0), n_rows


def write_trace(path, trace: Trace) -> None:
    """Write ``trace`` as the CSV ``datacenter.load_trace`` reads, slots 0, 1, ..."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["slot", "arrivals", "cost"])
        writer.writerows(zip(range(len(trace)), trace.arrivals, map(repr, trace.costs)))


_INT_ONLY = frozenset("-0123456789")


def read_metrics(path, format: Optional[str] = None) -> Dict[str, np.ndarray]:
    """Read a metrics file back into ordered named arrays.

    ``format`` defaults to the file extension. Columns whose cells are all
    integer literals come back as int64, everything else as float64.
    """
    if format is None:
        format = "json" if str(path).endswith(".json") else "csv"
    if format == "json":
        with open(path) as handle:
            payload = json.load(handle)
        out = {}
        for name in payload["columns"]:
            raw = payload["values"][name]
            integral = bool(raw) and all(
                isinstance(x, int) and not isinstance(x, bool) for x in raw)
            out[name] = np.asarray(raw, dtype=np.int64 if integral else float)
        return out
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: metrics file is empty")
        rows = [row for row in reader if row]
    out = {}
    for j, name in enumerate(header):
        cells = [row[j] for row in rows]
        integral = bool(cells) and all(
            cell and set(cell) <= _INT_ONLY for cell in cells)
        out[name] = np.asarray(
            [int(c) for c in cells] if integral else [float(c) for c in cells],
            dtype=np.int64 if integral else float)
    return out
