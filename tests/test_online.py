import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from renewalopt.core import FrameOutcome
from renewalopt.lp import conditional_ratio_optimal
from renewalopt.online import (
    EventModel,
    default_theta_max,
    file_download_example,
    run,
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["event_probs", "exp_penalty", "exp_frame_len",
                                  "exp_metrics", "budgets"])
def test_event_model_refuses_non_finite_tables(name, bad):
    good = _toy_model()
    fields = {key: getattr(good, key).copy() for key in (
        "event_probs", "exp_penalty", "exp_frame_len", "exp_metrics", "budgets")}
    fields[name].flat[0] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        EventModel(sampler=good.sampler, **fields)


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


def _scripted_model(outcomes, budget=0.0):
    """One event, one action, one constraint; the frames are ``outcomes``
    as (frame_len, penalty, metric) triples, played in order."""
    frames = iter(outcomes)

    def sampler(event, action, rng):
        frame_len, penalty, metric = next(frames)
        return FrameOutcome(frame_len=frame_len, penalty_total=penalty,
                            metrics_total=np.array([metric]))

    return EventModel(event_probs=np.ones(1), exp_penalty=np.zeros((1, 1)),
                      exp_frame_len=np.ones((1, 1)),
                      exp_metrics=np.zeros((1, 1, 1)),
                      budgets=np.array([budget]), sampler=sampler)


def test_select_action_prefers_doing_nothing_without_pressure():
    # a run's first frame is played at theta = 0 and Q = 0, where the zero
    # action is the unique argmin of every event's V*yhat
    model = file_download_example()
    first = [run(model, v=300.0, delta=0.6, n_frames=1, seed=seed)
             for seed in range(60)]
    assert {int(log.events[0]) for log in first} == set(range(model.n_events))
    assert not any(log.actions.any() for log in first)


@given(
    n_events=st.integers(1, 3),
    n_actions=st.integers(1, 5),
    n_constraints=st.integers(0, 3),
    v=st.floats(0.1, 500.0),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=100, deadline=None)
def test_select_action_matches_bruteforce(n_events, n_actions, n_constraints, v, seed):
    rng = np.random.default_rng(seed)
    y = rng.uniform(-3.0, 3.0, size=(n_events, n_actions))
    t = rng.uniform(1.0, 6.0, size=(n_events, n_actions))
    z = rng.uniform(-2.0, 2.0, size=(n_events, n_actions, n_constraints))
    budgets = rng.uniform(-1.0, 1.0, size=n_constraints)

    def sampler(event, action, rng_):
        frame_len = 1 + int(rng_.integers(0, 2 * t[event, action]))
        return FrameOutcome(
            frame_len=frame_len,
            penalty_total=y[event, action] * frame_len * rng_.uniform(0.5, 1.5),
            metrics_total=z[event, action] * frame_len * rng_.uniform(0.5, 1.5))

    model = EventModel(event_probs=rng.dirichlet(np.ones(n_events)),
                       exp_penalty=y, exp_frame_len=t, exp_metrics=z,
                       budgets=budgets, sampler=sampler)
    log = run(model, v=v, delta=0.6, n_frames=60, seed=seed)
    before = np.vstack([np.zeros((1, n_constraints)), log.queues[:-1]])
    for n, event in enumerate(log.events):
        expected = oracles.online_select_bruteforce(
            y[event], t[event], z[event], budgets, before[n], log.theta[n], v)
        assert log.actions[n] == expected


def test_exact_ties_go_to_the_lowest_action():
    # three copies of one action score equally at every theta and queue
    good = _toy_model(n_events=2, n_actions=1)
    model = EventModel(event_probs=good.event_probs,
                       exp_penalty=np.repeat(good.exp_penalty, 3, axis=1),
                       exp_frame_len=np.repeat(good.exp_frame_len, 3, axis=1),
                       exp_metrics=np.repeat(good.exp_metrics, 3, axis=1),
                       budgets=good.budgets, sampler=good.sampler)
    log = run(model, v=10.0, delta=0.6, n_frames=200, seed=3)
    assert log.theta.max() > 0.0 and log.queues.max() > 0.0
    assert not log.actions.any()


def test_frame_queue_update_examples():
    # budget 2 per slot: 5 in one slot leaves 3, 6 over three slots holds
    # it, and nothing over three slots drains it and clamps at zero
    model = _scripted_model([(1, 0.0, 5.0), (3, 0.0, 6.0), (3, 0.0, 0.0)],
                            budget=2.0)
    log = run(model, v=10.0, delta=0.6, n_frames=3, theta_max=1.0)
    assert log.queues[:, 0].tolist() == [3.0, 3.0, 0.0]


def test_theta_update_fixed_points_and_clamp():
    # zero frames hold theta at 0; a spike clamps it at theta_max and a
    # deeper negative spike clamps it back at 0
    model = _scripted_model([(1, 0.0, 0.0), (1, 0.0, 0.0), (1, 1e9, 0.0),
                             (1, 0.0, 0.0), (1, -1e12, 0.0)])
    log = run(model, v=10.0, delta=0.6, n_frames=5, theta_max=2.0)
    assert log.theta.tolist() == [0.0, 0.0, 0.0, 2.0, 2.0, 0.0]
    assert log.increments[3] == -2.0


def test_queue_trajectory_replays_bit_exactly():
    model = _floor_model()
    log = run(model, v=40.0, delta=0.6, n_frames=3000, seed=9)
    q = np.zeros(model.n_constraints)
    for n in range(log.n_frames):
        q = np.maximum(q + log.metrics[n] - model.budgets * log.frame_len[n], 0.0)
        assert log.queues[n].tolist() == q.tolist()
    assert log.queues.max() > 0.0


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


def _unplayable(event, action, rng):
    raise AssertionError("a frame was played")


@pytest.mark.parametrize("kwargs", [
    {"v": np.inf}, {"v": np.nan}, {"delta": np.nan}, {"delta": np.inf},
    {"theta_max": np.nan}, {"theta_max": np.inf}, {"theta_max": -1.0},
], ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()))
def test_run_refuses_bad_arguments_before_the_first_frame(kwargs):
    model = file_download_example()
    model.sampler = _unplayable
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            run(model, **dict({"v": 10.0, "delta": 0.6, "n_frames": 10}, **kwargs))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("frame", [(1, np.nan, 0.0), (1, np.inf, 0.0),
                                   (1, 0.0, np.nan), (1, 0.0, -np.inf)])
def test_run_refuses_a_non_finite_sampler_output(frame):
    model = _scripted_model([(1, 0.0, 0.0), frame, (1, 0.0, 0.0)])
    with pytest.raises(ValueError, match="non-finite"):
        run(model, v=10.0, delta=0.6, n_frames=3, theta_max=1.0)


def test_run_refuses_a_metric_vector_of_the_wrong_length():
    model = _toy_model(n_constraints=2)
    model.sampler = lambda event, action, rng: FrameOutcome(
        frame_len=1, penalty_total=0.0, metrics_total=np.zeros(1))
    with pytest.raises(ValueError, match="share one length"):
        run(model, v=10.0, delta=0.6, n_frames=3)


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
