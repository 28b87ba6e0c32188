import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import BanditState, maxlambda_step, multi_user_step
from renewalopt import bandit
from renewalopt.bandit import (
    UserSpec,
    geometric_file_sampler,
    maxlambda_run,
    multi_user_queue_bound,
    multi_user_run,
    poisson_file_sampler,
    single_user_queue_bound,
    single_user_run,
    table_one_users,
    table_two_users,
    two_queue_markov_throughput,
    uniform_file_sampler,
)


def _user(lam=0.3, mean_file=2.5, actions=((0.0, 0.0), (0.6, 2.0)), weight=1.0):
    return UserSpec(lam=lam, mean_file=mean_file, actions=actions, weight=weight)


def _tied_users():
    """Three users, three actions each: users 0 and 1 are identical, so their
    indices tie exactly, and each of them repeats one (phi, p) pair, so two
    of its actions tie exactly. User 2 has a zero-success action."""
    twin = dict(lam=0.35, mean_file=2.0, actions=((0.0, 0.0), (0.5, 2.0), (0.5, 2.0)),
                weight=1.5)
    return [
        UserSpec(**twin),
        UserSpec(**twin),
        UserSpec(lam=0.25, mean_file=3.0, actions=((0.0, 0.0), (0.0, 0.5), (0.8, 3.0))),
    ]


def _index_value(user, a, q, v):
    phi, p = user.actions[a]
    return (v * user.weight * user.mean_file * phi - q * p) / (1.0 + phi / user.lam)


class TestUserSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            _user(lam=0.0)
        with pytest.raises(ValueError):
            _user(lam=1.0)
        with pytest.raises(ValueError):
            _user(mean_file=0.0)
        with pytest.raises(ValueError):
            _user(actions=((0.1, 0.0), (0.6, 2.0)))  # missing zero action
        with pytest.raises(ValueError):
            _user(actions=((0.0, 0.0), (0.6, 0.0)))  # free nonzero action
        with pytest.raises(ValueError):
            _user(actions=((0.0, 0.0), (1.2, 2.0)))  # phi out of range

    @pytest.mark.parametrize("field", ["mean_file", "weight", "power"])
    def test_rejects_infinite_fields(self, field):
        # each used to make multi_user_queue_bound infinite, voiding the
        # hard per-slot bound; an infinite mean_file also gave inf throughput
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            if field == "power":
                _user(actions=((0.0, 0.0), (0.6, math.inf)))
            else:
                _user(**{field: math.inf})

    def test_power_extremes(self):
        u = _user(actions=((0.0, 0.0), (0.4, 2.0), (0.9, 3.5)))
        assert u.p_min == 2.0
        assert u.p_max == 3.5


def _decision_queues(out):
    """The queue each frame of a single-user run decided against: empty at
    the first frame, then the queue the frame before left."""
    return [0.0] + out["queues"][:-1].tolist()


class TestSingleUser:
    def test_huge_queue_selects_zero_action(self):
        # with no budget the queue only grows, so once it passes the costly
        # action's threshold v*weight*mean_file*phi/p = 7.5 the run idles
        u = _user()
        out = single_user_run(u, v=10.0, beta=0.0, n_frames=200, seed=0)
        assert out["actions"].tolist() == [1] * 4 + [0] * 196
        assert _decision_queues(out)[4] == 8.0 > 7.5
        assert oracles.single_user_select(u, q=1e9, v=10.0) == 0

    def test_zero_queue_selects_highest_phi(self):
        u = _user(actions=((0.0, 0.0), (0.3, 1.0), (0.8, 5.0), (0.5, 2.0)))
        out = single_user_run(u, v=7.0, beta=1.0, n_frames=50, seed=0)
        assert out["actions"][0] == 2
        assert oracles.single_user_select(u, q=0.0, v=7.0) == 2

    def test_exact_tie_prefers_lowest_index(self):
        # two copies of the same nonzero action tie exactly at every queue
        u = _user(actions=((0.0, 0.0), (0.6, 2.0), (0.6, 2.0)))
        out = single_user_run(u, v=5.0, beta=0.8, n_frames=3000, seed=1)
        assert set(out["actions"].tolist()) == {0, 1}
        assert oracles.single_user_select(u, q=3.0, v=5.0) == 1

    def test_matches_bruteforce_argmax(self):
        # every frame of a run plays the reference's action at the queue it
        # decided against, and that is the brute-force argmax of the index
        rng = np.random.default_rng(42)
        for _ in range(300):
            n_actions = int(rng.integers(2, 6))
            actions = [(0.0, 0.0)] + [
                (float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.5, 4.0)))
                for _ in range(n_actions - 1)
            ]
            u = _user(
                lam=float(rng.uniform(0.05, 0.95)),
                mean_file=float(rng.uniform(1.0, 6.0)),
                actions=tuple(actions),
            )
            v = float(rng.uniform(0.5, 50.0))
            beta = float(rng.uniform(0.0, 2.0))
            out = single_user_run(u, v, beta, n_frames=40, seed=int(rng.integers(1000)))
            for q, a in zip(_decision_queues(out), out["actions"].tolist()):
                assert a == oracles.single_user_select(u, q, v)
                vals = [_index_value(u, b, q, v) for b in range(n_actions)]
                assert a == max(range(n_actions), key=lambda b: (vals[b], -b))

    def test_weight_equals_rescaled_v(self):
        base = _user(actions=((0.0, 0.0), (0.3, 1.0), (0.7, 2.5)))
        weighted = _user(
            actions=((0.0, 0.0), (0.3, 1.0), (0.7, 2.5)), weight=3.0
        )
        a = single_user_run(weighted, v=4.0, beta=1.0, n_frames=3000, seed=9)
        b = single_user_run(base, v=12.0, beta=1.0, n_frames=3000, seed=9)
        for key in ("actions", "frame_lens", "powers", "queues"):
            assert np.array_equal(a[key], b[key])
        assert len(set(a["actions"].tolist())) >= 2
        assert single_user_queue_bound(weighted, 4.0, 1.0) == \
            single_user_queue_bound(base, 12.0, 1.0)

    def test_queue_update_trivia(self):
        assert oracles.single_user_queue_update(5.0, power=2.0, frame_len=1, beta=2.0) == 5.0
        assert oracles.single_user_queue_update(5.0, power=0.0, frame_len=3, beta=2.0) == 0.0
        # a run's queues replay through the reference step bit for bit
        u = _user(lam=0.4, mean_file=3.0, actions=((0.0, 0.0), (0.4, 1.5), (0.7, 4.0)))
        out = single_user_run(u, v=25.0, beta=1.0, n_frames=4000, seed=7)
        q, replay = 0.0, []
        for p, t in zip(out["powers"].tolist(), out["frame_lens"].tolist()):
            q = oracles.single_user_queue_update(q, p, t, 1.0)
            replay.append(q)
        assert out["queues"].tolist() == replay
        assert out["frame_lens"].min() >= 1
        assert 0.0 in replay and max(replay) > 0.0

    def test_run_respects_queue_bound(self):
        u = _user(lam=0.4, mean_file=3.0, actions=((0.0, 0.0), (0.7, 4.0)))
        out = single_user_run(u, v=25.0, beta=1.0, n_frames=4000, seed=7)
        bound = single_user_queue_bound(u, v=25.0, beta=1.0)
        assert np.all(out["queues"] <= bound + 1e-9)
        assert np.all(out["frame_lens"] >= 1)
        again = single_user_run(u, v=25.0, beta=1.0, n_frames=4000, seed=7)
        assert np.array_equal(out["queues"], again["queues"])

    def test_queue_bound_counts_the_weight(self):
        u = _user(mean_file=2.0, actions=((0.0, 0.0), (0.5, 1.0)), weight=3.0)
        # v * weight * mean_file / p_min + p_max - beta
        assert single_user_queue_bound(u, v=10.0, beta=2.0) == 10.0 * 6.0 + 1.0 - 2.0
        # the first table-one user (weight 4.75) goes past the bound that
        # leaves the weight out, v * mean_file / p_min + p_max - beta
        user = table_one_users()[0]
        out = single_user_run(user, 5.0, beta=1.0, n_frames=3000, seed=0)
        peak = out["queues"].max()
        assert peak <= single_user_queue_bound(user, 5.0, beta=1.0)
        assert peak > 5.0 * user.mean_file / user.p_min + user.p_max - 1.0


def _served_pairs(users, file_states, q, v, m_servers):
    """(user, action) pairs the package scheduler serves, in service order."""
    served, _, _ = bandit._schedule(
        bandit._option_table(users, v), file_states, q, m_servers
    )
    return [(n, row[5]) for _, n, row in served]


class TestMultiUser:
    def test_all_active_served_when_servers_suffice(self):
        users = [_user(lam=0.3) for _ in range(4)]
        state = BanditState(file_states=[1, 0, 1, 0], q=0.0, slot=0)
        _, stats = multi_user_step(
            users, state, v=10.0, m_servers=3, beta=5.0, rng=np.random.default_rng(0)
        )
        assert sorted(n for n, _ in stats.served) == [0, 2]
        assert _served_pairs(users, state.file_states, 0.0, 10.0, 3) == stats.served

    def test_huge_queue_spends_no_power(self):
        users = [_user() for _ in range(3)]
        state = BanditState(file_states=[1, 1, 1], q=1e9, slot=0)
        new_state, stats = multi_user_step(
            users, state, v=10.0, m_servers=2, beta=5.0, rng=np.random.default_rng(0)
        )
        assert stats.power == 0.0
        assert all(a == 0 for _, a in stats.served)
        assert new_state.q == 1e9 - 5.0
        _, power, tput = bandit._schedule(
            bandit._option_table(users, 10.0), state.file_states, 1e9, 2
        )
        assert (power, tput) == (0.0, 0.0)

    def test_served_are_top_indices_with_low_user_ties(self):
        # identical users tie exactly; the two lowest numbers win
        users = [_user() for _ in range(5)]
        state = BanditState(file_states=[1, 1, 1, 1, 1], q=1.0, slot=0)
        _, stats = multi_user_step(
            users, state, v=10.0, m_servers=2, beta=5.0, rng=np.random.default_rng(0)
        )
        assert sorted(n for n, _ in stats.served) == [0, 1]
        assert _served_pairs(users, state.file_states, 1.0, 10.0, 2) == stats.served

    def test_rejects_bad_server_count(self):
        users = [_user() for _ in range(3)]
        state = BanditState(file_states=[0, 0, 0], q=0.0, slot=0)
        for m in (0, 3):
            with pytest.raises(ValueError):
                multi_user_step(
                    users, state, v=1.0, m_servers=m, beta=5.0,
                    rng=np.random.default_rng(0),
                )
            with pytest.raises(ValueError):
                multi_user_run(users, 1.0, m, 5.0, horizon=10, seed=0)
        for m in (0, 9):
            with pytest.raises(ValueError):
                multi_user_run(table_two_users(), 1.0, m, 5.0, horizon=10, seed=0)

    def test_run_matches_step_composition(self):
        # (users, v, m_servers, beta, seed): the benchmark, then three users
        # with exact action ties and exact user ties
        cases = [
            (table_one_users(), 70.0, 4, 5.0, 99),
            (_tied_users(), 10.0, 1, 0.6, 98),
        ]
        horizon = 5000
        for users, v, m_servers, beta, seed in cases:
            out = multi_user_run(
                users, v=v, m_servers=m_servers, beta=beta, horizon=horizon, seed=seed
            )
            rng = np.random.default_rng(seed)
            state = BanditState(file_states=[0] * len(users), q=0.0, slot=0)
            for t in range(horizon):
                state, stats = multi_user_step(
                    users, state, v=v, m_servers=m_servers, beta=beta, rng=rng
                )
                assert stats.throughput == out["throughput"][t]
                assert stats.power == out["power"][t]
                assert state.q == out["queue"][t]

    def test_benchmark_run_is_bounded_and_stable(self):
        users = table_one_users()
        out = multi_user_run(
            users, v=70.0, m_servers=4, beta=5.0, horizon=30_000, seed=5
        )
        bound = multi_user_queue_bound(users, v=70.0, beta=5.0)
        assert np.all(out["queue"] <= bound + 1e-9)
        assert out["throughput_avg"] > 0.0
        # the power budget is approached from below over long runs
        assert out["power_avg"] < 5.5

    def test_queue_bound_formula(self):
        users = [
            _user(mean_file=2.0, actions=((0.0, 0.0), (0.5, 1.0)), weight=3.0),
            _user(mean_file=4.0, actions=((0.0, 0.0), (0.5, 2.0)), weight=1.0),
        ]
        # c_max * B_max = max(3*2, 1*4) = 6, p_min = 1, sum p_max = 3
        assert multi_user_queue_bound(users, v=10.0, beta=2.0) == 10.0 * 6.0 + 3.0 - 2.0


# a small pool of rate options, so that users repeat (phi, p) pairs (exact
# action ties); (0.0, 0.7) and (0.0, 2.0) never succeed
_OPTION_POOL = [(0.0, 0.7), (0.0, 2.0), (0.25, 1.0), (0.5, 2.0), (0.5, 2.5), (1.0, 4.0)]

_user_specs = st.builds(
    lambda lam, mean_file, weight, picks: UserSpec(
        lam=lam, mean_file=mean_file, weight=weight,
        actions=((0.0, 0.0),) + tuple(_OPTION_POOL[k] for k in picks),
    ),
    lam=st.sampled_from([0.1, 0.35, 0.6]),
    mean_file=st.sampled_from([1.0, 2.0, 3.5]),
    weight=st.sampled_from([0.5, 1.0, 2.5]),
    picks=st.lists(st.integers(0, len(_OPTION_POOL) - 1), max_size=3),
)


@st.composite
def _schedule_cases(draw):
    """Users with 1-4 actions; a repeated user makes exact index ties."""
    users = draw(st.lists(_user_specs, min_size=2, max_size=6))
    if draw(st.booleans()):
        users.append(users[draw(st.integers(0, len(users) - 1))])
    mask = draw(st.lists(st.booleans(), min_size=len(users), max_size=len(users)))
    q = draw(st.one_of(
        st.sampled_from([0.0, 1.0, 4.0]),
        st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False),
    ))
    v = draw(st.sampled_from([0.5, 10.0, 70.0]))
    m_servers = draw(st.integers(1, len(users) - 1))
    return users, mask, q, v, m_servers


@settings(max_examples=400, deadline=None)
@given(case=_schedule_cases())
def test_schedule_matches_reference_bit_for_bit(case):
    users, mask, q, v, m_servers = case
    served, power, tput = bandit._schedule(
        bandit._option_table(users, v), mask, q, m_servers
    )
    gains, costs = zip(*(bandit._index_terms(u, v) for u in users))
    ref_served, ref_power, ref_tput = oracles.bandit_schedule(
        users, gains, costs, mask, q, m_servers
    )
    assert [(n, row[5]) for _, n, row in served] == ref_served
    assert power.hex() == ref_power.hex()
    assert tput.hex() == ref_tput.hex()


_BAD_V_BETA = [
    (math.nan, 5.0), (math.inf, 5.0), (-1.0, 5.0), (0.0, 5.0),
    (70.0, math.nan), (70.0, math.inf), (70.0, -1.0),
]


@pytest.mark.parametrize("v, beta", _BAD_V_BETA)
@pytest.mark.parametrize("runner", ["single", "multi", "nonmemoryless"])
def test_runners_reject_bad_v_and_beta(runner, v, beta):
    with pytest.raises(ValueError, match="must be finite"):
        if runner == "single":
            single_user_run(_user(), v, beta, n_frames=2000, seed=0)
        elif runner == "multi":
            multi_user_run(table_one_users(), v, 4, beta, horizon=2000, seed=0)
        else:
            multi_user_run(table_two_users(), v, 4, beta, horizon=2000, seed=0)


def test_zero_budget_is_allowed():
    out = multi_user_run(table_one_users(), 70.0, 4, 0.0, horizon=200, seed=0)
    assert out["power_avg"] > 0.0


class TestMaxLambda:
    def test_step_serves_largest_rate_first(self):
        rng = np.random.default_rng(1)
        states, served = maxlambda_step(
            [1, 1, 1], lambdas=[0.2, 0.5, 0.4], m_servers=2, rng=rng
        )
        # queues 1 and 2 (rates 0.5 and 0.4) are drained; queue 0 still holds
        assert served == 2
        assert states[0] == 1

    def test_step_on_empty_system_only_arrivals(self):
        rng = np.random.default_rng(0)
        states, served = maxlambda_step(
            [0, 0], lambdas=[0.9, 0.9], m_servers=1, rng=rng
        )
        assert served == 0
        assert set(states) <= {0, 1}

    def test_run_matches_step_composition(self):
        lambdas = [0.2, 0.5, 0.4, 0.5]
        for prefer_small in (False, True):
            rng = np.random.default_rng(6)
            states, delivered = [0] * 4, 0
            for _ in range(5000):
                states, served = maxlambda_step(
                    states, lambdas, m_servers=2, rng=rng, prefer_small=prefer_small
                )
                delivered += served
            assert maxlambda_run(
                lambdas, m_servers=2, horizon=5000, seed=6, prefer_small=prefer_small
            ) == delivered / 5000

    def test_two_queue_chain_known_values(self):
        assert two_queue_markov_throughput(0.5, 0.25, priority=1) == pytest.approx(
            0.7, abs=1e-12
        )
        assert two_queue_markov_throughput(0.5, 0.25, priority=2) == pytest.approx(
            float(Fraction(19, 28)), abs=1e-12
        )

    def test_two_queue_chain_symmetric_rates(self):
        a = two_queue_markov_throughput(0.35, 0.35, priority=1)
        b = two_queue_markov_throughput(0.35, 0.35, priority=2)
        assert a == pytest.approx(b, abs=1e-12)

    def test_two_queue_chain_rejects_degenerate_rates(self):
        with pytest.raises(ValueError):
            two_queue_markov_throughput(0.0, 0.5, priority=1)
        with pytest.raises(ValueError):
            two_queue_markov_throughput(0.5, 1.0, priority=2)
        with pytest.raises(ValueError):
            two_queue_markov_throughput(0.5, 0.5, priority=3)

    def test_two_queue_chain_matches_bruteforce(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            lam1 = float(rng.uniform(0.05, 0.95))
            lam2 = float(rng.uniform(0.05, 0.95))
            for priority in (1, 2):
                assert two_queue_markov_throughput(
                    lam1, lam2, priority
                ) == pytest.approx(
                    oracles.two_queue_chain_bruteforce(lam1, lam2, priority),
                    abs=1e-9,
                )

    def test_simulation_agrees_with_chain(self):
        horizon = 200_000
        sim = maxlambda_run([0.5, 0.25], m_servers=1, horizon=horizon, seed=12)
        exact = two_queue_markov_throughput(0.5, 0.25, priority=1)
        # three standard errors with the crude bound se <= 0.5 / sqrt(T)
        assert abs(sim - exact) <= 3 * 0.5 / np.sqrt(horizon)
        sim_small = maxlambda_run(
            [0.5, 0.25], m_servers=1, horizon=horizon, seed=12, prefer_small=True
        )
        exact_small = two_queue_markov_throughput(0.5, 0.25, priority=2)
        assert abs(sim_small - exact_small) <= 3 * 0.5 / np.sqrt(horizon)
        assert sim > sim_small


class TestNonMemoryless:
    def test_samplers_hit_their_means(self):
        rng = np.random.default_rng(3)
        geo = [geometric_file_sampler(4.0)(rng) for _ in range(20_000)]
        uni = [uniform_file_sampler(1, 7)(rng) for _ in range(20_000)]
        poi = [poisson_file_sampler(4.0)(rng) for _ in range(20_000)]
        assert np.mean(geo) == pytest.approx(4.0, rel=0.03)
        assert np.mean(uni) == pytest.approx(4.0, rel=0.03)
        assert np.mean(poi) == pytest.approx(4.0, rel=0.03)
        assert min(geo) >= 1 and min(uni) >= 1 and min(poi) >= 1

    @pytest.mark.parametrize("dist", ["uniform", "poisson"])
    def test_benchmark_runs_within_queue_bound(self, dist):
        users = table_two_users(dist)
        out = multi_user_run(
            users, v=70.0, m_servers=4, beta=5.0, horizon=20_000, seed=21
        )
        bound = multi_user_queue_bound(users, v=70.0, beta=5.0)
        assert np.all(out["queue"] <= bound + 1e-9)
        assert out["throughput_avg"] > 0.0

    def test_geometric_packets_match_memoryless_model(self):
        users = table_two_users("geometric")
        packet = multi_user_run(
            users, v=70.0, m_servers=4, beta=5.0, horizon=120_000, seed=4
        )
        memoryless = [dataclasses.replace(u, file_length_sampler=None) for u in users]
        model = multi_user_run(
            memoryless, v=70.0, m_servers=4, beta=5.0, horizon=120_000, seed=17
        )
        assert packet["throughput_avg"] == pytest.approx(
            model["throughput_avg"], rel=0.1
        )

    def test_missing_sampler_rejected(self):
        # a sampler picks the packet model, so users must all carry one or none
        for missing in (0, 8):
            users = table_two_users("uniform")
            users[missing] = dataclasses.replace(users[missing], file_length_sampler=None)
            with pytest.raises(ValueError, match="file_length_sampler"):
                multi_user_run(users, v=10.0, m_servers=4, beta=5.0, horizon=10, seed=0)

    def test_packet_success_must_be_a_probability(self):
        users = table_two_users("uniform")
        users[3] = dataclasses.replace(users[3], mean_file=20.0)
        with pytest.raises(ValueError, match="packet success probability"):
            multi_user_run(users, v=10.0, m_servers=4, beta=5.0, horizon=10, seed=0)


# ---------------------------------------------------------------------------
# seeded output, pinned
# ---------------------------------------------------------------------------

# (runner, users, v, m_servers, beta, horizon, seed)
_PIN_RUNS = {
    "table-one-seed-0": (multi_user_run, table_one_users, 70.0, 4, 5.0, 20_000, 0),
    "table-one-seed-1": (multi_user_run, table_one_users, 70.0, 4, 5.0, 20_000, 1),
    "tied-three-users": (multi_user_run, _tied_users, 10.0, 1, 0.6, 20_000, 2),
    "nonmemoryless-geometric": (multi_user_run,
                                lambda: table_two_users("geometric"), 70.0, 4, 5.0, 10_000, 3),
    "nonmemoryless-uniform": (multi_user_run,
                              lambda: table_two_users("uniform"), 70.0, 4, 5.0, 10_000, 3),
    "nonmemoryless-poisson": (multi_user_run,
                              lambda: table_two_users("poisson"), 70.0, 4, 5.0, 10_000, 3),
}

# sha256 over the throughput, power and queue arrays (name, dtype, shape,
# bytes), recorded before the scheduler moved to a per-user option table
_PINNED_DIGESTS = {
    "nonmemoryless-geometric": "16f0f14bdb5d907518c767c2de5c6c8fcb0cc2b91659ee8e0c2bc693777f32c7",
    "nonmemoryless-poisson": "92f9aed4a4f71065e2a79bd1c669412e0a05610484160855c1cdc99beda5a96d",
    "nonmemoryless-uniform": "8f4c6af46c3e4cbadba0c54033acaaeefc401d0a228f994126fd84bde262986c",
    "table-one-seed-0": "857219178c339439e17f03d55233c8993c3a345b10a501dc598e6a235e03d0db",
    "table-one-seed-1": "fd1efe71e9f70a6f3c153454458c565e3ced0d07f24d28ff6b312a12f92662df",
    "tied-three-users": "73b5cbb092a01896e4e322825ea655f60241c8690004cc428ba461a5f51b8cd0",
}


# (user, v, beta, n_frames, seed)
_SINGLE_PIN_RUNS = {
    "two-actions": (lambda: _user(lam=0.4, mean_file=3.0,
                                  actions=((0.0, 0.0), (0.7, 4.0))), 25.0, 1.0, 4000, 7),
    "four-actions": (lambda: _user(actions=((0.0, 0.0), (0.3, 1.0), (0.8, 5.0), (0.5, 2.0))),
                     7.0, 1.2, 5000, 3),
    "tied-actions": (lambda: _user(actions=((0.0, 0.0), (0.6, 2.0), (0.6, 2.0))),
                     5.0, 0.8, 5000, 4),
    "light-weight": (lambda: _user(lam=0.2, mean_file=4.0,
                                   actions=((0.0, 0.0), (0.5, 1.5), (0.9, 3.0)), weight=0.5),
                     20.0, 1.0, 5000, 5),
    "table-one-budget-5": (lambda: table_one_users()[0], 70.0, 5.0, 3000, 0),
}

# sha256 over the actions, frame_lens, powers and queues arrays (name, dtype,
# shape, bytes), recorded before the per-frame helpers were folded into the run
_SINGLE_PINNED_DIGESTS = {
    "four-actions": "fc7b0b70f66307088bab9f3fe6b5d609ba83db38873d86ad8021b92704505207",
    "light-weight": "549db26ffc8107f888091ed22b46babbccff877aaca69ef28f53c392d76bbaa9",
    "table-one-budget-5": "3c8886c66e8b8a54eeb78a9273069f38336e45d55f8766c5e63c33e2e3401d3d",
    "tied-actions": "c5eea54a9a63eb420bd96ffbf21b9499386b48a0c422d443418656487b64f61b",
    "two-actions": "82e22e1e472b64d8d49e358637204426f73d9efaafc742bf6ba3ffcf8548245a",
}


@pytest.mark.parametrize("case", sorted(_SINGLE_PIN_RUNS))
def test_single_user_output_is_pinned(case):
    user, v, beta, n_frames, seed = _SINGLE_PIN_RUNS[case]
    out = single_user_run(user(), v, beta, n_frames, seed)
    digest = hashlib.sha256()
    for name in ("actions", "frame_lens", "powers", "queues"):
        arr = out[name]
        digest.update(f"{name}:{arr.dtype.str}:{arr.shape}:".encode())
        digest.update(arr.tobytes())
    assert digest.hexdigest() == _SINGLE_PINNED_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(_PIN_RUNS))
def test_multi_user_output_is_pinned(case):
    runner, users, v, m_servers, beta, horizon, seed = _PIN_RUNS[case]
    out = runner(users(), v, m_servers, beta, horizon, seed)
    digest = hashlib.sha256()
    for name in ("throughput", "power", "queue"):
        arr = out[name]
        digest.update(f"{name}:{arr.dtype.str}:{arr.shape}:".encode())
        digest.update(arr.tobytes())
    assert digest.hexdigest() == _PINNED_DIGESTS[case]
