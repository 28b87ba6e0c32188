from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from renewalopt.core import (
    ActionModel,
    FrameOutcome,
    FrameProfile,
    dpp_linear_select,
)
from renewalopt.coupled import CoupledSystemSpec
from oracles import (
    Dist,
    action_from_dists,
    dense_slots,
    deterministic,
    dpp_ratio_select,
    geometric_min1,
    outcome_sampler,
    queue_update_frame,
    queue_update_slot,
    uniform_int,
)


def _mk_action(idx, y, z, t):
    return ActionModel(action_id=idx, exp_penalty=y, exp_metrics=np.array(z, float), exp_frame_len=t)


def test_queue_update_slot_worked_examples():
    assert queue_update_slot(np.array([5.0]), np.array([3.0]), np.array([4.0])) == pytest.approx([4.0])
    assert queue_update_slot(np.array([1.0]), np.array([0.0]), np.array([5.0])) == pytest.approx([0.0])
    out = queue_update_slot(np.array([0.0, 2.0]), np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    assert out == pytest.approx([0.0, 3.0])


def test_queue_update_frame_scales_rate_by_frame_length():
    outcome = FrameOutcome(frame_len=3, penalty_total=0.0, metrics_total=np.array([6.0]))
    assert queue_update_frame(np.array([2.0]), outcome, np.array([1.0])) == pytest.approx([5.0])
    # drain below zero clamps
    outcome = FrameOutcome(frame_len=10, penalty_total=0.0, metrics_total=np.array([1.0]))
    assert queue_update_frame(np.array([2.0]), outcome, np.array([1.0])) == pytest.approx([0.0])


def test_queue_update_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        queue_update_slot(np.zeros(2), np.zeros(3), np.zeros(2))
    outcome = FrameOutcome(frame_len=1, penalty_total=0.0, metrics_total=np.zeros(2))
    with pytest.raises(ValueError):
        queue_update_frame(np.zeros(3), outcome, np.zeros(3))


@given(
    q=st.lists(st.floats(0, 1e6), min_size=1, max_size=5),
    z=st.lists(st.floats(-1e6, 1e6), min_size=5, max_size=5),
    d=st.lists(st.floats(-1e6, 1e6), min_size=5, max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_queue_update_nonneg_and_bounded_increment(q, z, d):
    n = len(q)
    qv, zv, dv = np.array(q), np.array(z[:n]), np.array(d[:n])
    out = queue_update_slot(qv, zv, dv)
    assert np.all(out >= 0.0)
    # slack scales with queue magnitude: the subtraction out - q cancels at
    # the float granularity of max(|q|, |z|, |d|)
    scale = np.maximum.reduce([np.abs(qv), np.abs(zv), np.abs(dv), np.ones(n)])
    assert np.all(np.abs(out - qv) <= np.abs(zv - dv) + 1e-9 * scale)


def test_slot_composition_matches_frame_update_when_rates_zero():
    # nonnegative metrics spread over slots, no drain: clamps never fire, so
    # composing slot updates over the frame equals the frame-level update
    rng = np.random.default_rng(7)
    for _ in range(50):
        t = int(rng.integers(1, 8))
        slots = rng.uniform(0, 3, size=(t, 2))
        outcome = FrameOutcome(
            frame_len=t, penalty_total=0.0, metrics_total=slots.sum(axis=0)
        )
        q0 = rng.uniform(0, 5, size=2)
        q_slot = q0.copy()
        for k in range(t):
            q_slot = queue_update_slot(q_slot, slots[k], np.zeros(2))
        q_frame = queue_update_frame(q0, outcome, np.zeros(2))
        assert np.allclose(q_slot, q_frame, atol=1e-9)


def test_ratio_select_hand_computed_case():
    # objectives at q=[2], v=1: a: (1*4 + 2*1)/2 = 3 ; b: (1*1 + 2*3)/1 = 7
    a = _mk_action("a", 4.0, [1.0], 2.0)
    b = _mk_action("b", 1.0, [3.0], 1.0)
    assert dpp_ratio_select([a, b], np.array([2.0]), 1.0) == "a"
    # without the frame-length denominator b wins: a: 6, b: 7 -> still a; raise q
    assert dpp_linear_select([a, b], np.array([0.0]), 1.0) == "b"


def test_select_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(123)
    for _ in range(300):
        n = int(rng.integers(1, 65))
        ell = int(rng.integers(1, 4))
        actions = [
            _mk_action(
                i,
                float(rng.normal()),
                rng.normal(size=ell),
                float(1.0 + rng.uniform(0, 9)),
            )
            for i in range(n)
        ]
        q = rng.uniform(0, 10, size=ell)
        v = float(rng.uniform(0.1, 50))
        assert dpp_ratio_select(actions, q, v) == oracles.ratio_select_bruteforce(actions, q, v)
        assert dpp_linear_select(actions, q, v) == oracles.linear_select_bruteforce(actions, q, v)


def test_select_breaks_exact_ties_toward_lowest_index():
    twin = [_mk_action(i, 1.0, [2.0], 2.0) for i in range(5)]
    assert dpp_ratio_select(twin, np.array([1.0]), 3.0) == 0
    assert dpp_linear_select(twin, np.array([1.0]), 3.0) == 0



@pytest.mark.parametrize("z,sparse", [
    ([0.0, 0.0, 0.0], ()),
    ([0.0, -0.0], ()),
    ([0.0, -2.5, 0.0], ((1, -2.5),)),
    ([3.0], ((0, 3.0),)),
    ([1.0, 0.0, -1.0], None),
])
def test_action_model_keeps_at_most_one_nonzero_metric_sparse(z, sparse):
    assert _mk_action(0, 1.0, z, 1.0).sparse_metrics == sparse


@pytest.mark.parametrize("z", [2.0, [[1.0, 0.0]]])
def test_action_model_needs_a_metric_vector(z):
    with pytest.raises(ValueError, match="vector"):
        _mk_action(0, 1.0, z, 1.0)


def test_action_model_keeps_a_read_only_copy_of_its_metrics():
    src = np.array([0.0, -1.0])
    a = ActionModel(action_id="a", exp_penalty=1.0, exp_metrics=src, exp_frame_len=1.0)
    b = _mk_action("b", 1.5, [0.0, 0.0], 1.0)
    assert a.exp_metrics is not src and a.exp_metrics.dtype == float
    with pytest.raises(ValueError, match="read-only"):
        a.exp_metrics[1] = 5.0
    # the caller's array changes, the action and its selection do not
    src[1] = 5.0
    assert a.exp_metrics.tolist() == [0.0, -1.0] and a.sparse_metrics == ((1, -1.0),)
    assert dpp_linear_select([a, b], [0.0, 1.0], 1.0) == "a"


# Dyadic grid values: every product and sum below is exact, so the selector,
# ndarray.dot and an fsum all score alike and exact ties stay ties.
_grid = st.integers(-64, 64).map(lambda k: k / 8)
_queue_grid = st.one_of(st.just(0.0), st.integers(0, 2**20).map(lambda k: k / 4))


@st.composite
def _selection(draw, metric, queue):
    ell = draw(st.integers(1, 4))
    actions = []
    for i in range(draw(st.integers(1, 6))):
        # 0, 1 or up to ell nonzero metrics, at drawn places
        support = draw(st.sets(st.integers(0, ell - 1), max_size=ell))
        z = [draw(metric) if l in support else 0.0 for l in range(ell)]
        actions.append(_mk_action(i, draw(_grid), z, 1.0))
        if draw(st.booleans()):  # an exact twin, which must lose its tie
            actions.append(_mk_action(-i - 1, actions[-1].exp_penalty, z, 1.0))
    q = [draw(queue) for _ in range(ell)]
    return actions, q, draw(st.sampled_from([0.5, 1.0, 3.0, 100.0]))


@given(_selection(_grid, _queue_grid))
@settings(max_examples=300, deadline=None)
def test_list_queue_selects_like_array_queue_and_bruteforce(case):
    actions, q, v = case
    chosen = dpp_linear_select(actions, q, v)
    assert chosen == dpp_linear_select(actions, np.array(q), v)
    ids = [a.action_id for a in actions]
    assert ids.index(chosen) == oracles.linear_select_bruteforce(actions, q, v)


@given(_selection(st.floats(-1e6, 1e6), st.floats(0.0, 1e12)))
@settings(max_examples=300, deadline=None)
def test_list_queue_selects_like_ndarray_dot_on_any_finite_values(case):
    # the sparse score q[l]*m is the float ndarray.dot makes of one nonzero
    # product among zeros; ties keep the lowest index
    actions, q, v = case
    chosen = dpp_linear_select(actions, q, v)
    assert chosen == dpp_linear_select(actions, np.array(q), v)
    qa = np.array(q)
    scores = [v * a.exp_penalty + float(qa.dot(a.exp_metrics)) for a in actions]
    assert chosen == actions[scores.index(min(scores))].action_id


@pytest.mark.parametrize("z", [[0.0, 0.0], [0.0, 2.0], [1.0, 2.0]])
def test_select_refuses_a_queue_of_the_wrong_length(z):
    actions = [_mk_action(0, 1.0, z, 1.0)]
    for q in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(ValueError):
            dpp_linear_select(actions, q, 1.0)
        with pytest.raises(ValueError):
            dpp_linear_select(actions, np.array(q), 1.0)


def test_select_rejects_empty_and_bad_weight():
    a = _mk_action(0, 1.0, [0.0], 1.0)
    with pytest.raises(ValueError):
        dpp_ratio_select([], np.zeros(1), 1.0)
    with pytest.raises(ValueError):
        dpp_ratio_select([a], np.zeros(1), 0.0)
    with pytest.raises(ValueError):
        dpp_linear_select([a], np.zeros(1), -2.0)


def test_action_model_rejects_short_frames():
    with pytest.raises(ValueError):
        _mk_action(0, 0.0, [0.0], 0.5)


@pytest.mark.parametrize("y,z,t", [
    (math.nan, [0.0], 1.0), (math.inf, [0.0], 1.0), (-math.inf, [0.0], 1.0),
    (0.0, [math.nan], 1.0), (0.0, [0.0, math.inf], 1.0),
    (0.0, [0.0], math.nan), (0.0, [0.0], math.inf),
])
def test_action_model_rejects_non_finite_expectations(y, z, t):
    with pytest.raises(ValueError, match="finite"):
        _mk_action(0, y, z, t)


def test_frame_outcome_validation():
    with pytest.raises(ValueError):
        FrameOutcome(frame_len=0, penalty_total=0.0, metrics_total=np.zeros(1))
    with pytest.raises(ValueError):
        FrameOutcome(frame_len=2.5, penalty_total=0.0, metrics_total=np.zeros(1))
    out = FrameOutcome(frame_len=2.0, penalty_total=1.0, metrics_total=[3])
    assert out.frame_len == 2 and out.metrics_total.dtype == float
    # totals alone lump on the final slot, and must have n_metrics entries
    pslots, mslots = dense_slots(out, 1)
    assert np.array_equal(pslots, [0.0, 1.0])
    assert np.array_equal(mslots, [[0.0], [3.0]])
    with pytest.raises(ValueError):
        dense_slots(out, 2)


def test_frame_profile_expands_to_its_dense_slots():
    prof = FrameProfile(5, 2.0 + 3 * 0.5, [0.0, -4.0], ((1, 2.0, [0.0, -4.0]),), 2, 0.5)
    assert prof.check(2) == 5
    pslots, mslots = dense_slots(prof, 2)
    assert np.array_equal(pslots, [0.0, 2.0, 0.5, 0.5, 0.5])
    assert np.array_equal(mslots[:, 1], [0.0, -4.0, 0.0, 0.0, 0.0])
    assert pslots.sum() == prof.penalty_total == 3.5
    assert np.array_equal(mslots.sum(axis=0), [0.0, -4.0])
    # no tail: the slots after the last impulse stay empty
    pslots, mslots = dense_slots(FrameProfile(2, 3.0, [1.0], ((0, 3.0, [1.0]),), 2), 1)
    assert np.array_equal(pslots, [3.0, 0.0])
    assert np.array_equal(mslots, [[1.0], [0.0]])
    with pytest.raises(ValueError):
        dense_slots((2, 3.0), 1)


def _one_action_spec(sampler):
    action = ActionModel(action_id=0, exp_penalty=1.5, exp_metrics=np.ones(1),
                         exp_frame_len=2.0, sampler=sampler)
    return CoupledSystemSpec(systems=[[action]],
                             external=lambda rng, count: np.zeros((count, 1)),
                             n_constraints=1)


def test_sample_outcome_expands_profiles():
    prof = FrameProfile(2, 3.0, [1.0], ((0, 3.0, [1.0]),), 2)
    spec = _one_action_spec(lambda rng: prof)
    out = spec.systems[0][0].sampler(np.random.default_rng(0))
    assert isinstance(out, FrameProfile)
    pslots, mslots = dense_slots(out, 1)
    assert np.array_equal(pslots, [3.0, 0.0])
    assert np.array_equal(mslots, [[1.0], [0.0]])
    # a sampler that returns something other than a frame is refused
    with pytest.raises(ValueError, match="FrameOutcome or FrameProfile"):
        _one_action_spec(lambda rng: (2, 3.0))


def test_sample_outcome_requires_sampler():
    with pytest.raises(ValueError, match="has no sampler"):
        _one_action_spec(None)


def test_frame_profile_validation():
    # impulses and tail that disagree with the totals
    with pytest.raises(ValueError):
        dense_slots(FrameProfile(3, 5.0, [0.0], ((0, 1.0, [0.0]),), 1, 1.0), 1)
    with pytest.raises(ValueError):
        dense_slots(FrameProfile(3, 3.0, [2.0], ((0, 1.0, [1.0]),), 1, 1.0), 1)
    bad_layouts = [
        FrameProfile(0, 0.0, [0.0], (), 0),  # empty frame
        FrameProfile(2.5, 0.0, [0.0], (), 0),  # fractional length
        FrameProfile(3, 0.0, [0.0], (), 4),  # tail starts past the end
        FrameProfile(3, 1.0, [0.0], ((3, 1.0, [0.0]),), 3),  # impulse past the end
        FrameProfile(3, 1.0, [0.0], ((-1, 1.0, [0.0]),), 3),  # impulse before the start
        FrameProfile(3, 2.0, [0.0], ((1, 1.0, [0.0]), (1, 1.0, [0.0])), 3),  # twice
        FrameProfile(3, 2.0, [0.0], ((1, 1.0, [0.0]),), 1, 0.5),  # under the tail
        FrameProfile(3, 1.0, [0.0], ((1, 1.0, [0.0, 0.0]),), 3),  # metric length
    ]
    for prof in bad_layouts:
        with pytest.raises(ValueError):
            prof.check(1)
        with pytest.raises(ValueError):
            dense_slots(prof, 1)


def test_dist_kinds_and_errors():
    with pytest.raises(ValueError):
        Dist("exponential", mean=2.0)
    with pytest.raises(ValueError):
        geometric_min1(0.4)
    with pytest.raises(ValueError):
        uniform_int(4, 2)
    with pytest.raises(ValueError):
        outcome_sampler(deterministic(2), geometric_min1(2.0), [])
    with pytest.raises(ValueError):
        outcome_sampler(deterministic(2), deterministic(0.0), [geometric_min1(2.0)])


def test_sampler_deterministic_kind_and_seed_reproducibility():
    act = action_from_dists(
        "x",
        frame_len=geometric_min1(4.0),
        penalty=uniform_int(2, 6),
        metrics=[deterministic(3.0), uniform_int(0, 4)],
    )
    seq1 = [act.sampler(np.random.default_rng(42)) for _ in range(1)]
    seq2 = [act.sampler(np.random.default_rng(42)) for _ in range(1)]
    assert seq1[0].frame_len == seq2[0].frame_len
    assert seq1[0].penalty_total == seq2[0].penalty_total
    assert np.array_equal(seq1[0].metrics_total, seq2[0].metrics_total)

    fixed = action_from_dists("d", deterministic(3), deterministic(1.5), [deterministic(-2.0)])
    out = fixed.sampler(np.random.default_rng(0))
    assert out.frame_len == 3
    assert out.penalty_total == 1.5
    assert out.metrics_total == pytest.approx([-2.0])


def test_sampler_empirical_means_converge():
    act = action_from_dists(
        "g",
        frame_len=geometric_min1(4.0),
        penalty=uniform_int(1, 5),
        metrics=[uniform_int(9, 21)],
    )
    rng = np.random.default_rng(2024)
    outs = [act.sampler(rng) for _ in range(20000)]
    assert min(o.frame_len for o in outs) >= 1
    assert np.mean([o.frame_len for o in outs]) == pytest.approx(4.0, rel=0.03)
    assert np.mean([o.penalty_total for o in outs]) == pytest.approx(3.0, rel=0.03)
    assert np.mean([o.metrics_total[0] for o in outs]) == pytest.approx(15.0, rel=0.03)
    assert act.exp_frame_len == 4.0
    assert act.exp_penalty == 3.0
    assert act.exp_metrics == pytest.approx([15.0])


def test_geometric_min1_mass_function_shape():
    # success probability 1/mean: P(X=1) should be about 1/mean
    rng = np.random.default_rng(5)
    d = geometric_min1(2.5)
    draws = np.array([d.sample(rng) for _ in range(20000)])
    assert draws.min() >= 1
    assert np.mean(draws == 1) == pytest.approx(1 / 2.5, abs=0.02)
    assert math.isclose(np.mean(draws), 2.5, rel_tol=0.05)
