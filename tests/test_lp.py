from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from renewalopt.acceptance import (
    _random_bounded_lp,
    composite_chain_lp,
    lp_by_enumeration,
    random_composite_chain,
)
from renewalopt.bandit import table_one_users
from renewalopt.lp import (
    CoupledMdpResult,
    LpProblem,
    conditional_ratio_optimal,
    coupled_mdp_optimal,
    fractional_to_lp,
    solve_lp,
)
from renewalopt.ocmdp import stationary_baseline
from oracles import coupled_chain_lp_shape


class SimplePoly:
    """Duck-typed polytope for stationary_baseline tests."""

    def __init__(self, aff_a, aff_b):
        self.aff_a = np.asarray(aff_a, float)
        self.aff_b = np.asarray(aff_b, float)
        self.dim = self.aff_a.shape[1]


def test_simplex_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(30):
        prob = _random_bounded_lp(rng)
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        status, _, value = lp_by_enumeration(
            prob.c, prob.a_eq, prob.b_eq, prob.g_ub, prob.h_ub
        )
        assert status == "optimal"
        assert sol.objective_value == pytest.approx(value, abs=1e-8)


def test_simplex_residuals_within_tolerance():
    rng = np.random.default_rng(7)
    for _ in range(10):
        prob = _random_bounded_lp(rng)
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        if prob.a_eq.shape[0]:
            assert np.max(np.abs(prob.a_eq @ sol.x - prob.b_eq)) <= 1e-8
        assert np.max(prob.g_ub @ sol.x - prob.h_ub) <= 1e-8
        assert np.min(sol.x) >= -1e-12


def test_simplex_detects_infeasible():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    prob = LpProblem(
        c=[1.0, 1.0],
        a_eq=[[1.0, 1.0], [1.0, 1.0]],
        b_eq=[1.0, 2.0],
    )
    assert solve_lp(prob).status == "infeasible"
    # negative requirement with nonnegative variables
    prob = LpProblem(c=[1.0], a_eq=[[1.0]], b_eq=[-3.0])
    assert solve_lp(prob).status == "infeasible"


def test_simplex_detects_unbounded():
    prob = LpProblem(c=[-1.0, 0.0], g_ub=[[0.0, 1.0]], h_ub=[1.0])
    assert solve_lp(prob).status == "unbounded"


def test_simplex_drops_redundant_equalities():
    prob = LpProblem(
        c=[1.0, 2.0],
        a_eq=[[1.0, 1.0], [2.0, 2.0]],
        b_eq=[1.0, 2.0],
    )
    sol = solve_lp(prob)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0)


def test_simplex_solves_beales_cycling_example():
    # Beale (1955): Dantzig pricing with the lowest-index ratio tie-break
    # cycles through six degenerate bases at the origin; the optimum is
    # x = (1, 0, 1, 0) with value -5/4
    prob = LpProblem(
        c=[-0.75, 20.0, -0.5, 6.0],
        g_ub=[[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
        h_ub=[0.0, 0.0, 1.0],
    )
    sol = solve_lp(prob)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(-1.25, abs=1e-12)
    assert sol.x == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-12)


def test_simplex_leaves_a_cycle_of_the_pivot_size_filter():
    # on this badly scaled, degenerate LP, preferring the larger pivots among
    # the ratio-test candidates cycles; a revisited basis takes the
    # lexicographic rule alone and leaves the cycle. The optimum is
    # x = (0, 0, 1, 2, 0) with value -10
    prob = LpProblem(
        c=[3.0, 4.0, -4.0, -3.0, 0.0],
        g_ub=[[-0.9, -0.8, 0.9, 0.2, -0.3], [-800.0, 900.0, -600.0, -900.0, -200.0],
              [-20.0, -80.0, -30.0, -60.0, -20.0], [5.0, 2.0, 2.0, -1.0, 2.0],
              [90.0, 20.0, 20.0, -50.0, 60.0], [1.0, 1.0, 1.0, 1.0, 1.0]],
        h_ub=[2.0, 0.0, 0.0, 0.0, 0.0, 3.0],
    )
    sol = solve_lp(prob)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(-10.0, abs=1e-9)
    assert sol.x == pytest.approx([0.0, 0.0, 1.0, 2.0, 0.0], abs=1e-9)


def test_simplex_zero_rows_edge_cases():
    assert solve_lp(LpProblem(c=[1.0, 1.0])).status == "optimal"
    assert solve_lp(LpProblem(c=[-1.0])).status == "unbounded"


_BAD_PROBLEMS = {
    "a_eq-without-b_eq": (dict(c=[1, 2], a_eq=[[1, 1]]), "a_eq and b_eq"),
    "b_eq-without-a_eq": (dict(c=[1, 2], b_eq=[1]), "a_eq and b_eq"),
    "g_ub-without-h_ub": (dict(c=[1, 1], g_ub=[[1, 1]]), "g_ub and h_ub"),
    "h_ub-without-g_ub": (dict(c=[1, 1], h_ub=[1]), "g_ub and h_ub"),
    "c-nan": (dict(c=[1, math.nan]), "^c must be finite"),
    "a_eq-inf": (dict(c=[1, 1], a_eq=[[1, math.inf]], b_eq=[1]), "a_eq must be finite"),
    "b_eq-nan": (dict(c=[1, 1], a_eq=[[1, 1]], b_eq=[math.nan]), "b_eq must be finite"),
    "g_ub-nan": (dict(c=[1, 1], g_ub=[[math.nan, 1]], h_ub=[1]), "g_ub must be finite"),
    "h_ub-inf": (dict(c=[1, 1], g_ub=[[1, 1]], h_ub=[math.inf]), "h_ub must be finite"),
}


@pytest.mark.parametrize("name", list(_BAD_PROBLEMS))
def test_problem_refuses_missing_or_nonfinite_data(name):
    kwargs, message = _BAD_PROBLEMS[name]
    with pytest.raises(ValueError, match=message):
        LpProblem(**kwargs)


def test_fractional_single_action_example():
    prob = fractional_to_lp([(2.0, [0.0], 2.0)], [1.0])
    sol = solve_lp(prob)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0, abs=1e-10)


def test_fractional_two_action_hand_solved():
    # actions: (y=0, z=2, T=1) and (y=3, z=0, T=1), drift rate 1
    # feasibility forces q1 <= 1/2 of the mix, optimum 1.5
    prob = fractional_to_lp([(0.0, [2.0], 1.0), (3.0, [0.0], 1.0)], [1.0])
    sol = solve_lp(prob)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.5, abs=1e-9)


def test_fractional_invariant_to_duplicated_actions():
    rng = np.random.default_rng(11)
    for _ in range(10):
        k = int(rng.integers(2, 5))
        trips = [
            (float(rng.uniform(0, 5)), [float(rng.uniform(-2, 2))], float(rng.uniform(1, 6)))
            for _ in range(k)
        ]
        d = [float(rng.uniform(0.2, 1.5))]
        base = solve_lp(fractional_to_lp(trips, d))
        dup = solve_lp(fractional_to_lp(trips + trips, d))
        if base.status == "optimal":
            assert dup.status == "optimal"
            assert dup.objective_value == pytest.approx(base.objective_value, abs=1e-9)


def test_fractional_validation():
    with pytest.raises(ValueError):
        fractional_to_lp([], [1.0])
    with pytest.raises(ValueError):
        fractional_to_lp([(1.0, [0.0], 0.5)], [1.0])


def test_conditional_ratio_single_event_reduces_to_fractional():
    trips = [(1.0, [2.0], 2.0), (4.0, [0.0], 1.0), (2.0, [1.0], 3.0)]
    d = [0.7]
    frac = solve_lp(fractional_to_lp(trips, d))
    cond = conditional_ratio_optimal(
        [1.0],
        np.array([[t[0] for t in trips]]),
        np.array([[t[2] for t in trips]]),
        np.array([[[t[1][0]] for t in trips]]).reshape(1, 3, 1),
        d,
    )
    assert frac.status == "optimal"
    assert cond == pytest.approx(frac.objective_value, abs=1e-9)


def test_conditional_ratio_unconstrained_matches_policy_enumeration():
    # with a slack budget, the optimum over randomized event-conditioned
    # policies is attained at a deterministic policy (ratio of linear forms),
    # so exhaustive enumeration over A^E is an exact oracle
    rng = np.random.default_rng(3)
    probs = np.array([0.5, 0.3, 0.2])
    n_e, n_a = 3, 3
    y = rng.uniform(0, 5, size=(n_e, n_a))
    t = rng.uniform(1, 4, size=(n_e, n_a))
    z = rng.uniform(0, 1, size=(n_e, n_a, 1))
    budget = [1e6]
    best = np.inf
    import itertools

    for pol in itertools.product(range(n_a), repeat=n_e):
        num = sum(probs[e] * y[e, pol[e]] for e in range(n_e))
        den = sum(probs[e] * t[e, pol[e]] for e in range(n_e))
        best = min(best, num / den)
    val = conditional_ratio_optimal(probs, y, t, z, budget)
    assert val == pytest.approx(best, abs=1e-8)


def test_conditional_ratio_validation():
    with pytest.raises(ValueError):
        conditional_ratio_optimal([0.5, 0.6], np.ones((2, 2)), np.ones((2, 2)),
                                  np.ones((2, 2, 1)), [1.0])
    with pytest.raises(ValueError):
        conditional_ratio_optimal([1.0], np.ones((1, 2)), 0.5 * np.ones((1, 2)),
                                  np.ones((1, 2, 1)), [1.0])


def test_coupled_single_user_closed_form():
    rng = np.random.default_rng(19)
    for _ in range(5):
        lam = float(rng.uniform(0.05, 0.9))
        mu = float(rng.uniform(0.1, 0.95))
        mean_file = float(rng.uniform(0.5, 4.0))
        res = coupled_mdp_optimal(
            [lam], [1.0], [mean_file], [[(0.0, 0.0), (mu, 1.0)]],
            served_limit=1, power_budget=None,
        )
        expect = oracles.single_user_download_value(mean_file, mu, lam)
        assert res.value == pytest.approx(expect, abs=1e-9)


def test_coupled_zero_budget_forbids_serving():
    res = coupled_mdp_optimal(
        [0.4], [1.0], [2.0], [[(0.0, 0.0), (0.5, 1.0)]],
        served_limit=1, power_budget=0.0,
    )
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_coupled_two_queue_instance_dominates_priority_rule():
    res = coupled_mdp_optimal(
        [0.5, 0.25], [1.0, 1.0], [2.0, 4.0 / 3.0],
        [[(0.0, 0.0), (0.5, 1.0)], [(0.0, 0.0), (0.75, 1.0)]],
        served_limit=1, power_budget=None,
    )
    assert res.value >= 0.7 - 1e-9
    assert res.value <= 1.0 + 1e-9


def test_coupled_small_instance_matches_enumeration():
    import renewalopt.lp as lp_mod

    lam = [0.3, 0.6]
    acts = [[(0.0, 0.0), (0.5, 2.0)], [(0.0, 0.0), (0.8, 1.0)]]
    res = coupled_mdp_optimal(lam, [1.5, 1.0], [2.0, 1.25], acts,
                              served_limit=1, power_budget=0.8)
    # rebuild the same LP by hand and enumerate its vertices
    # (8 occupation variables + 1 slack keeps enumeration cheap)
    states = range(4)
    variables = []
    for s in states:
        active = [u for u in range(2) if (s >> u) & 1]
        variables.append((s, (0, 0)))
        for u in active:
            a = [0, 0]
            a[u] = 1
            variables.append((s, tuple(a)))
    rewards = []
    powers = []
    cols = []
    bfs = [2.0, 1.25]
    ws = [1.5, 1.0]
    for s, assign in variables:
        reward = 0.0
        power = 0.0
        factors = []
        for u in range(2):
            if (s >> u) & 1:
                if assign[u]:
                    phi, pw = acts[u][1]
                    done = phi * (1 - lam[u])
                    factors.append(np.array([done, 1 - done]))
                    reward += ws[u] * bfs[u] * phi
                    power += pw
                else:
                    factors.append(np.array([0.0, 1.0]))
            else:
                factors.append(np.array([1 - lam[u], lam[u]]))
        probs = np.kron(factors[1], factors[0])
        rewards.append(reward)
        powers.append(power)
        cols.append(probs)
    a_eq = np.zeros((5, len(variables)))
    for j, ((s, _), pr) in enumerate(zip(variables, cols)):
        a_eq[:4, j] = pr
        a_eq[s, j] -= 1.0
    a_eq[4] = 1.0
    b_eq = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    status, _, value = lp_by_enumeration(
        -np.array(rewards), a_eq, b_eq, np.array(powers).reshape(1, -1), [0.8]
    )
    assert status == "optimal"
    assert res.value == pytest.approx(-value, abs=1e-8)


def test_coupled_chain_lp_shape_matches_reported_size():
    n_vars, n_rows = coupled_chain_lp_shape(8, [1] * 8, served_limit=4,
                                            has_power_budget=True)
    assert (n_vars, n_rows) == (5985, 258)
    # small instance cross-check against the built problem
    res = coupled_mdp_optimal(
        [0.3, 0.6], [1.0, 1.0], [2.0, 1.25],
        [[(0.0, 0.0), (0.5, 2.0)], [(0.0, 0.0), (0.8, 1.0)]],
        served_limit=1, power_budget=0.8,
    )
    sv, sr = coupled_chain_lp_shape(2, [1, 1], 1, True)
    assert (res.n_variables, res.n_constraints) == (sv, sr)


def test_coupled_dual_route_matches_simplex_route():
    lam = [0.2546, 0.1705, 0.2109, 0.4151]
    acts = [
        [(0.0, 0.0), (0.5377, 3.529)],
        [(0.0, 0.0), (0.4966, 2.5226)],
        [(0.0, 0.0), (0.6837, 2.5376)],
        [(0.0, 0.0), (0.8855, 3.1982)],
    ]
    args = dict(
        arrival_probs=lam,
        weights=[3.9647, 1.5159, 3.6364, 4.5554],
        mean_files=[1.0 / 0.5975, 1.0 / 0.5517, 1.0 / 0.7597, 1.0 / 0.9839],
        action_sets=acts,
        served_limit=2,
        power_budget=3.0,
    )
    problem = composite_chain_lp(**args)
    via_simplex = solve_lp(problem)
    via_dual = coupled_mdp_optimal(**args)
    assert via_simplex.status == "optimal"
    assert via_dual.value == pytest.approx(-via_simplex.objective_value, abs=1e-8)
    n_budget = problem.g_ub.shape[0]
    assert (via_dual.n_variables, via_dual.n_constraints) == (
        problem.c.size + n_budget, problem.a_eq.shape[0] + n_budget
    )
    # unbudgeted branch of the dual route against the single-user closed form
    solo = coupled_mdp_optimal(
        [0.37], [2.0], [1.6], [[(0.0, 0.0), (0.62, 1.0)]],
        served_limit=1, power_budget=None,
    )
    expect = oracles.single_user_download_value(1.6, 0.62, 0.37) * 2.0
    assert solo.value == pytest.approx(expect, abs=1e-9)


def test_coupled_matches_lagrangian_oracle():
    lam = [0.3181, 0.0888, 0.4176]
    acts = [
        [(0.0, 0.0), (0.5493, 2.1828)],
        [(0.0, 0.0), (0.4540, 3.5753)],
        [(0.0, 0.0), (0.4908, 3.7391)],
    ]
    args = dict(
        arrival_probs=lam,
        weights=[2.4605, 2.8656, 2.0681],
        mean_files=[1.0 / 0.6103, 1.0 / 0.5044, 1.0 / 0.5453],
        action_sets=acts,
        served_limit=2,
        power_budget=2.5,
    )
    res = coupled_mdp_optimal(**args)
    lag = oracles.coupled_chain_lagrangian(**args)
    assert res.value == pytest.approx(lag, abs=1e-8)


def _random_chains(count):
    """The first ``count`` instances of the seeded random composite chains."""
    rng = np.random.default_rng(12345)
    return [random_composite_chain(rng) for _ in range(count)]


def test_coupled_dual_route_agrees_on_random_small_chains():
    small = [args for args in _random_chains(120)
             if coupled_chain_lp_shape(
                 len(args["action_sets"]), [len(a) - 1 for a in args["action_sets"]],
                 args["served_limit"], True)[0] <= 700][:30]
    assert len(small) == 30
    for args in small:
        lag = oracles.coupled_chain_lagrangian(**args)
        assert coupled_mdp_optimal(**args).value == pytest.approx(lag, abs=1e-9)


@pytest.mark.parametrize("index", [33, 68, 148, 188])
def test_solve_lp_never_reports_a_wrong_optimum(index):
    # each chain has a dependent balance row and, pivoted on roundoff-sized
    # entries, near-singular bases; the solve must still end optimal at the
    # dual route's value
    args = _random_chains(index + 1)[index]
    exact = coupled_mdp_optimal(**args).value
    assert exact == pytest.approx(oracles.coupled_chain_lagrangian(**args), abs=1e-8)
    sol = solve_lp(composite_chain_lp(**args))
    assert sol.status == "optimal"
    assert -sol.objective_value == pytest.approx(exact, abs=1e-8)


@pytest.mark.parametrize("bad", [
    dict(power_budget=float("nan")), dict(power_budget=float("inf")),
    dict(power_budget=-1.0), dict(served_limit=-1), dict(served_limit=0),
    dict(served_limit=1.5),
])
def test_coupled_rejects_bad_budget_and_served_limit(bad):
    args = dict(arrival_probs=[0.4, 0.3], weights=[1.0, 2.0], mean_files=[2.0, 1.5],
                action_sets=[[(0.0, 0.0), (0.5, 1.0)], [(0.0, 0.0), (0.7, 2.0)]],
                served_limit=1, power_budget=1.0)
    args.update(bad)
    with pytest.raises(ValueError):
        coupled_mdp_optimal(**args)


# Howard/Lagrangian optimum of the table-one instance (M=4, beta=5), from
# oracles.coupled_chain_lagrangian
TABLE_ONE_OPTIMUM = 5.508943966602235


def test_coupled_table_one_matches_stored_lagrangian_optimum():
    users = table_one_users()
    res = coupled_mdp_optimal(
        [u.lam for u in users], [u.weight for u in users],
        [u.mean_file for u in users], [u.actions for u in users],
        served_limit=4, power_budget=5.0,
    )
    assert res.value == pytest.approx(TABLE_ONE_OPTIMUM, abs=1e-9)
    assert (res.n_variables, res.n_constraints) == (5985, 258)


@pytest.mark.parametrize("served_limit", [1, 2, 3])
def test_composite_rows_match_kron_reference(served_limit):
    import renewalopt.lp as lp_mod

    lam = [0.23, 0.61, 0.07]
    weights = [1.7, 0.9, 3.1]
    mean_files = [2.5, 1.3, 4.0]
    acts = [
        [(0.0, 0.0), (0.37, 1.1)],
        [(0.0, 0.0), (0.29, 0.7), (0.83, 2.9)],
        [(0.0, 0.0), (0.0, 0.4), (0.51, 1.9)],
    ]
    built = lp_mod._composite_chain(
        np.array(lam), np.array(weights), np.array(mean_files), acts, served_limit
    )
    reference = oracles.composite_chain_by_kron(lam, weights, mean_files, acts,
                                                served_limit)
    for got, want in zip(built, reference):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(4))
def test_policy_iteration_gain_does_not_depend_on_the_start(seed):
    import renewalopt.lp as lp_mod

    rng = np.random.default_rng(seed)
    n_states = int(rng.integers(3, 12))
    counts = rng.integers(1, 4, size=n_states)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    n_rows = int(counts.sum())
    # every row reaches every state, so each policy's chain is unichain
    p_rows = rng.dirichlet(np.ones(n_states), size=n_rows)
    rewards = rng.normal(size=n_rows)
    gain, policy = lp_mod._chain_policy_gain(p_rows, rewards, starts, starts)
    for _ in range(3):
        random_start = starts + rng.integers(0, counts)
        warm, _ = lp_mod._chain_policy_gain(p_rows, rewards, starts, random_start)
        assert warm == pytest.approx(gain, abs=1e-10)
    # the answer is stable: starting from it changes nothing
    again, same = lp_mod._chain_policy_gain(p_rows, rewards, starts, policy)
    assert np.array_equal(same, policy)
    assert again == pytest.approx(gain, abs=1e-10)


def test_coupled_validation():
    with pytest.raises(ValueError):
        coupled_mdp_optimal([1.0], [1.0], [1.0], [[(0.0, 0.0), (0.5, 1.0)]], 1)
    with pytest.raises(ValueError):
        coupled_mdp_optimal([0.5], [1.0], [1.0], [[(0.5, 1.0)]], 1)
    with pytest.raises(ValueError):
        coupled_mdp_optimal(
            [0.5] * 14, [1.0] * 14, [1.0] * 14,
            [[(0.0, 0.0), (0.5, 1.0)]] * 14, 1,
        )


def test_stationary_baseline_uncoupled_takes_independent_optima():
    p1 = SimplePoly([[1.0, 1.0]], [1.0])
    p2 = SimplePoly([[1.0, 1.0]], [1.0])
    thetas, value = stationary_baseline(
        [p1, p2], [np.array([1.0, 3.0]), np.array([2.0, 0.0])], [np.zeros((0, 2)), np.zeros((0, 2))]
    )
    assert value == pytest.approx(1.0, abs=1e-9)
    assert thetas[0] == pytest.approx([1.0, 0.0], abs=1e-9)
    assert thetas[1] == pytest.approx([0.0, 1.0], abs=1e-9)


def test_stationary_baseline_symmetric_instance_symmetric_solution():
    # per-system constraint theta(0) - theta(1) <= 0 makes the symmetric
    # split the unique optimum of min (1 - theta(0)) per system
    p = SimplePoly([[1.0, 1.0]], [1.0])
    f = np.array([0.0, 1.0])
    g1 = np.array([[1.0, -1.0], [0.0, 0.0]])
    g2 = np.array([[0.0, 0.0], [1.0, -1.0]])
    thetas, value = stationary_baseline([p, p], [f, f], [g1, g2])
    assert value == pytest.approx(1.0, abs=1e-9)
    assert thetas[0] == pytest.approx(thetas[1], abs=1e-9)
    assert thetas[0] == pytest.approx([0.5, 0.5], abs=1e-9)
