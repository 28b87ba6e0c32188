import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from renewalopt.core import FrameOutcome, queue_update_frame
from renewalopt.lp import conditional_ratio_optimal
from renewalopt.online import (
    EventModel,
    PseudoAverageState,
    default_theta_max,
    file_download_example,
    run,
    select_action,
    theta_update,
)


def _toy_model(n_events=2, n_actions=3, n_constraints=2):
    rng = np.random.default_rng(0)
    y = rng.uniform(0.0, 4.0, size=(n_events, n_actions))
    t = rng.uniform(1.0, 5.0, size=(n_events, n_actions))
    z = rng.uniform(0.0, 2.0, size=(n_events, n_actions, n_constraints))

    def sampler(event, action, rng_):
        return FrameOutcome(frame_len=1, penalty_total=float(y[event, action]),
                            metrics_total=z[event, action].copy())

    return EventModel(event_probs=np.full(n_events, 1.0 / n_events),
                      exp_penalty=y, exp_frame_len=t, exp_metrics=z,
                      budgets=np.full(n_constraints, 0.8), sampler=sampler)


def _floor_model():
    """Download instance with a completion floor: the second metric is minus
    the completion indicator with budget -0.15, so doing nothing is
    infeasible and the optimum is strictly positive."""
    omegas = [0.2, 0.5, 0.8]
    delays = [1.0, 3.0, 5.0]
    alphas = [0.0, 0.3, 0.6, 0.9]
    powers = [0.0, 1.0, 2.0, 4.0]
    events = [(w, s) for w in omegas for s in delays]
    n_e, n_a = len(events), len(alphas)
    y = np.zeros((n_e, n_a))
    t = np.zeros((n_e, n_a))
    z = np.zeros((n_e, n_a, 2))
    for e, (w, s) in enumerate(events):
        for a, alpha in enumerate(alphas):
            y[e, a] = alpha * s
            t[e, a] = 1.0 + 2.0 * alpha * w
            z[e, a, 0] = powers[a]
            z[e, a, 1] = -alpha * w

    def sampler(event, action, rng):
        w, s = events[event]
        alpha = alphas[action]
        done = rng.random() < alpha * w
        frame = 1 + (int(rng.geometric(0.5)) if done else 0)
        return FrameOutcome(frame_len=frame, penalty_total=alpha * s,
                            metrics_total=np.array([powers[action],
                                                    -1.0 if done else 0.0]))

    return EventModel(event_probs=np.full(n_e, 1.0 / n_e), exp_penalty=y,
                      exp_frame_len=t, exp_metrics=z,
                      budgets=np.array([1.0, -0.15]), sampler=sampler)


def test_event_model_validation():
    good = _toy_model()
    with pytest.raises(ValueError):
        EventModel(event_probs=np.array([0.5, 0.4]), exp_penalty=good.exp_penalty,
                   exp_frame_len=good.exp_frame_len, exp_metrics=good.exp_metrics,
                   budgets=good.budgets, sampler=good.sampler)
    with pytest.raises(ValueError):
        EventModel(event_probs=good.event_probs, exp_penalty=good.exp_penalty,
                   exp_frame_len=np.full_like(good.exp_frame_len, 0.5),
                   exp_metrics=good.exp_metrics, budgets=good.budgets,
                   sampler=good.sampler)
    with pytest.raises(ValueError):
        EventModel(event_probs=good.event_probs, exp_penalty=good.exp_penalty,
                   exp_frame_len=good.exp_frame_len, exp_metrics=good.exp_metrics,
                   budgets=np.zeros(5), sampler=good.sampler)


def test_file_download_tables():
    model = file_download_example()
    assert model.n_events == 9 and model.n_actions == 4
    # event 0 pairs omega = 0.2 with s = 1, so its penalties are the alphas
    assert model.exp_penalty[0].tolist() == [0.0, 0.3, 0.6, 0.9]
    assert model.exp_metrics[0, :, 0].tolist() == [0.0, 1.0, 2.0, 4.0]
    assert np.allclose(model.event_probs, 1.0 / 9.0)
    # event (omega=0.8, s=5) is the last composite symbol
    assert model.exp_frame_len[-1, 3] == pytest.approx(1.0 + 2.0 * 0.9 * 0.8)
    assert model.exp_frame_len[-1, 3] == pytest.approx(2.44)
    assert model.exp_metrics[0, 2, 0] == 2.0
    assert model.exp_penalty[-1, 1] == pytest.approx(0.3 * 5.0)
    assert default_theta_max(model) == pytest.approx(9.0)


def test_file_download_sampler_mean_frame_length():
    model = file_download_example()
    rng = np.random.default_rng(3)
    event = 8  # omega = 0.8 paired with s = 5
    draws = [model.sampler(event, 3, rng).frame_len for _ in range(40000)]
    assert min(draws) >= 1
    assert np.mean(draws) == pytest.approx(model.exp_frame_len[event, 3], rel=0.02)


def test_select_action_prefers_doing_nothing_without_pressure():
    model = file_download_example()
    for event in range(model.n_events):
        assert select_action(model, event, np.zeros(1), theta=0.0, v=300.0) == 0


@given(
    n_actions=st.integers(1, 5),
    n_constraints=st.integers(1, 3),
    theta=st.floats(0.0, 5.0),
    v=st.floats(0.1, 500.0),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=150, deadline=None)
def test_select_action_matches_bruteforce(n_actions, n_constraints, theta, v, seed):
    rng = np.random.default_rng(seed)
    y = rng.uniform(-3.0, 3.0, size=(1, n_actions))
    t = rng.uniform(1.0, 6.0, size=(1, n_actions))
    z = rng.uniform(-2.0, 2.0, size=(1, n_actions, n_constraints))
    budgets = rng.uniform(-1.0, 1.0, size=n_constraints)
    queues = rng.uniform(0.0, 30.0, size=n_constraints)
    model = EventModel(event_probs=np.ones(1), exp_penalty=y, exp_frame_len=t,
                       exp_metrics=z, budgets=budgets,
                       sampler=lambda e, a, r: None)
    expected = oracles.online_select_bruteforce(
        y[0], t[0], z[0], budgets, queues, theta, v)
    assert select_action(model, 0, queues, theta, v) == expected


def test_frame_queue_update_examples():
    budgets = np.array([2.0])
    out = FrameOutcome(frame_len=3, penalty_total=0.0, metrics_total=np.array([6.0]))
    assert queue_update_frame(np.array([4.0]), out, budgets).tolist() == [4.0]
    drain = FrameOutcome(frame_len=3, penalty_total=0.0, metrics_total=np.array([0.0]))
    assert queue_update_frame(np.array([4.0]), drain, budgets).tolist() == [0.0]


def test_theta_update_fixed_points_and_clamp():
    state = PseudoAverageState(v=10.0, delta=0.6, theta_max=2.0)
    zero = FrameOutcome(frame_len=1, penalty_total=0.0, metrics_total=np.zeros(1))
    state = theta_update(state, zero, np.zeros(1), np.zeros(1))
    assert state.theta == 0.0 and state.frames_done == 1
    spike = FrameOutcome(frame_len=1, penalty_total=1e9, metrics_total=np.zeros(1))
    state = theta_update(state, spike, np.zeros(1), np.zeros(1))
    assert state.theta == 2.0


def test_download_example_locks_at_the_zero_fixed_point():
    # from theta=0, Q=0 the zero action is the unique argmin, consumes nothing
    # and completes nothing, so the whole trajectory stays at the fixed point;
    # the time-average penalty equals the benchmark optimum of zero exactly
    model = file_download_example()
    log = run(model, v=300.0, delta=0.6, n_frames=4000, seed=1)
    assert not log.actions.any()
    assert not log.theta.any()
    assert not log.queues.any()
    assert log.penalty_time_avg == 0.0
    assert conditional_ratio_optimal(model.event_probs, model.exp_penalty,
                                     model.exp_frame_len, model.exp_metrics,
                                     model.budgets) == pytest.approx(0.0, abs=1e-9)


def test_floor_instance_tracks_lp_benchmark():
    model = _floor_model()
    opt = conditional_ratio_optimal(model.event_probs, model.exp_penalty,
                                    model.exp_frame_len, model.exp_metrics,
                                    model.budgets)
    assert opt == pytest.approx(0.365, abs=1e-9)
    log = run(model, v=100.0, delta=0.6, n_frames=80_000, seed=5)
    assert abs(log.penalty_time_avg - opt) / opt < 0.12
    resource = log.metrics_time_avg
    assert resource[0] <= 1.02
    assert -resource[1] >= 0.135
    assert log.theta.min() >= 0.0
    assert log.theta.max() <= log.theta_max


def test_theta_trajectory_replays_bit_exactly():
    model = _floor_model()
    log = run(model, v=40.0, delta=0.6, n_frames=3000, seed=9)
    replayed = oracles.replay_truncated_average(log.increments.tolist(), 0.6,
                                                log.theta_max)
    assert log.theta.tolist() == replayed


def test_delta_outside_window_warns_but_runs():
    model = file_download_example()
    with pytest.warns(UserWarning):
        run(model, v=50.0, delta=0.2, n_frames=50, seed=0)
    with pytest.warns(UserWarning):
        run(model, v=50.0, delta=1.5, n_frames=50, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run(model, v=50.0, delta=0.6, n_frames=50, seed=0)


def test_run_deterministic_per_seed():
    model = _floor_model()
    a = run(model, v=60.0, delta=0.6, n_frames=2000, seed=4)
    b = run(model, v=60.0, delta=0.6, n_frames=2000, seed=4)
    c = run(model, v=60.0, delta=0.6, n_frames=2000, seed=5)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.actions, b.actions)
    assert not np.array_equal(a.actions, c.actions)


def test_run_rejects_bad_arguments():
    model = file_download_example()
    with pytest.raises(ValueError):
        run(model, v=0.0, delta=0.6, n_frames=10)
    with pytest.raises(ValueError):
        run(model, v=10.0, delta=0.6, n_frames=0)


_PIN_RUNS = {
    ("download", 1): (file_download_example, 300.0, 4000),
    ("download", 2): (file_download_example, 300.0, 4000),
    ("floor", 9): (_floor_model, 40.0, 3000),
    ("floor", 10): (_floor_model, 40.0, 3000),
}

# sha256 over every per-frame array of the log (name, dtype, shape, bytes)
_PINNED_DIGESTS = {
    ("download", 1): "f20a94832396f1003c8e29d4633b53417bd10580a8a7e4e584589faab7088643",
    ("download", 2): "5df82dbcc5fc3bf75bfc8c86522e923a3341d75f9582c88eb332bca84c167e1f",
    ("floor", 9): "bff9efb8aafc844f152ab0f8eef5625dfe2f96f2a30d53470f3d7896c757b9e3",
    ("floor", 10): "debbeff4e9294b07430c18f0514a49470c5cd5aa39ff5741db936775ffaa398a",
}


def _log_digest(log):
    digest = hashlib.sha256()
    for name in ("events", "actions", "penalty", "frame_len", "metrics",
                 "increments", "theta", "queues"):
        arr = getattr(log, name)
        digest.update(f"{name}:{arr.dtype.str}:{arr.shape}:".encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(_PIN_RUNS))
def test_run_output_is_pinned(case):
    model, v, n_frames = _PIN_RUNS[case]
    log = run(model(), v=v, delta=0.6, n_frames=n_frames, seed=case[1])
    assert _log_digest(log) == _PINNED_DIGESTS[case]
