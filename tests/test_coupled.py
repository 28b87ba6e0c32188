import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from renewalopt import coupled
from renewalopt.core import ActionModel, FrameOutcome, FrameProfile
from renewalopt.coupled import (
    ENERGY_CLASSES,
    CoupledSystemSpec,
    MetricsLog,
    energy_oracle_value,
    energy_scheduling_spec,
    run,
)
from oracles import dense_slots, energy_table, step


def _two_action_spec(n_systems=2):
    """Small synthetic spec with nonnegative metrics and deterministic lumps."""

    def make_sampler(frame_mean, penalty, metric_vec):
        def sampler(rng):
            t = int(rng.geometric(1.0 / frame_mean))
            return FrameOutcome(
                frame_len=t,
                penalty_total=penalty,
                metrics_total=np.array(metric_vec, dtype=float),
            )

        return sampler

    def make_actions():
        a0 = ActionModel(
            action_id="cheap",
            exp_penalty=1.0,
            exp_metrics=np.array([1.2, 0.0]),
            exp_frame_len=2.0,
            sampler=make_sampler(2.0, 2.0, [2.4, 0.0]),
        )
        a1 = ActionModel(
            action_id="fast",
            exp_penalty=3.0,
            exp_metrics=np.array([0.0, 0.9]),
            exp_frame_len=3.0,
            sampler=make_sampler(3.0, 9.0, [0.0, 2.7]),
        )
        return [a0, a1]

    def external(rng, count):
        return rng.uniform(0.5, 1.5, size=(count, 2))

    return CoupledSystemSpec(
        systems=[make_actions() for _ in range(n_systems)],
        external=external,
        n_constraints=2,
    )


def test_run_rejects_bad_arguments():
    spec = _two_action_spec()
    with pytest.raises(ValueError):
        run(spec, v=10.0, horizon=0, seed=1)
    with pytest.raises(ValueError):
        run(spec, v=0.0, horizon=10, seed=1)
    spec = dataclasses.replace(
        spec, external=lambda rng, count: rng.uniform(0.5, 1.5, size=2))
    with pytest.raises(ValueError, match="wrong shape"):
        run(spec, v=10.0, horizon=10, seed=1)


def test_run_is_deterministic_in_seed():
    spec = _two_action_spec()
    a = run(spec, v=8.0, horizon=400, seed=2024)
    b = run(spec, v=8.0, horizon=400, seed=2024)
    assert np.array_equal(a.penalty, b.penalty)
    assert np.array_equal(a.metrics, b.metrics)
    assert np.array_equal(a.external, b.external)
    assert np.array_equal(a.queues, b.queues)
    assert a.frame_log == b.frame_log
    c = run(spec, v=8.0, horizon=400, seed=2025)
    assert not np.array_equal(a.external, c.external)


def _assert_run_matches_step(spec, v, horizon, seed):
    fast = run(spec, v=v, horizon=horizon, seed=seed)

    frames_rng, external_rng = [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
    ]
    states = [None] * len(spec.systems)
    q = np.zeros(spec.n_constraints)
    for t in range(horizon):
        states, q, rec = step(
            spec, states, q, v=v, rng=frames_rng, t=t, external_rng=external_rng
        )
        assert np.array_equal(rec.penalty_by_system, fast.penalty[t])
        assert np.array_equal(rec.metrics_sum, fast.metrics[t])
        assert np.array_equal(rec.external, fast.external[t])
        assert np.array_equal(rec.queues, fast.queues[t])


def test_run_matches_slotwise_step_composition():
    _assert_run_matches_step(_two_action_spec(n_systems=3), v=5.0, horizon=300, seed=77)


def test_run_matches_step_when_systems_share_a_constraint():
    # non-integer emissions into one constraint: float addition is not
    # associative, so step must add them in run's frame-start order
    def emitter(value, frame_mean):
        def sampler(rng):
            t = int(rng.geometric(1.0 / frame_mean))
            slots = tuple((k, 1.0, [value]) for k in range(t))
            return FrameProfile(t, float(t), [value * t], slots, t)

        return [ActionModel(action_id=0, exp_penalty=1.0,
                            exp_metrics=np.array([value]),
                            exp_frame_len=frame_mean, sampler=sampler)]

    spec = CoupledSystemSpec(
        systems=[emitter(0.1, 3.0), emitter(0.2, 2.0), emitter(0.7, 5.0),
                 emitter(0.3, 4.0)],
        external=lambda rng, count: rng.uniform(0.5, 1.5, size=(count, 1)),
        n_constraints=1,
    )
    _assert_run_matches_step(spec, v=1.0, horizon=400, seed=3)


@pytest.mark.parametrize("v", [1.0, 100.0])
def test_run_matches_slotwise_step_composition_on_energy_spec(v):
    # sparse frames written ahead by run against dense per-slot profiles
    # stepped one slot at a time
    _assert_run_matches_step(energy_scheduling_spec(), v=v, horizon=1500, seed=4)


def test_frames_partition_the_timeline():
    spec = _two_action_spec(n_systems=4)
    horizon = 500
    log = run(spec, v=3.0, horizon=horizon, seed=11)
    for n in range(4):
        entries = [(s, ln) for sys_idx, s, ln, _ in log.frame_log if sys_idx == n]
        assert entries[0][0] == 0
        for (s0, l0), (s1, _) in zip(entries, entries[1:]):
            assert s1 == s0 + l0
        last_start, last_len = entries[-1]
        assert last_start < horizon <= last_start + last_len


def test_queue_trajectory_composes_frame_totals_when_external_is_zero():
    spec = dataclasses.replace(_two_action_spec(n_systems=1),
                               external=lambda rng, count: np.zeros((count, 2)))
    log = run(spec, v=4.0, horizon=200, seed=5)
    for _, start, length, _ in log.frame_log:
        end = start + length
        if end > 200:
            break
        expected = log.metrics[:end].sum(axis=0)
        assert np.allclose(log.queues[end - 1], expected, atol=1e-9)


def test_energy_spec_action_expectations():
    spec = energy_scheduling_spec()
    assert len(spec.systems) == 5
    actions = spec.systems[0]
    # serving rates: class totals divided by mean frame length H + I
    assert actions[0].exp_frame_len == pytest.approx(8.0)
    assert actions[0].exp_penalty == pytest.approx((16.0 + 3.0 * 2.5) / 8.0)
    assert actions[0].exp_metrics[0] == pytest.approx(-15.0 / 8.0)
    assert actions[1].exp_frame_len == pytest.approx(8.9)
    assert actions[1].exp_penalty == pytest.approx((20.0 + 3.0 * 4.3) / 8.9)
    assert actions[1].exp_metrics[1] == pytest.approx(-21.0 / 8.9)
    assert actions[2].exp_frame_len == pytest.approx(7.5)
    assert actions[2].exp_penalty == pytest.approx((13.0 + 3.0 * 3.7) / 7.5)
    assert actions[2].exp_metrics[2] == pytest.approx(-17.0 / 7.5)
    # off-class service is zero
    assert actions[0].exp_metrics[1] == 0.0 == actions[0].exp_metrics[2]


def test_energy_sampler_frame_shape():
    spec = energy_scheduling_spec()
    rng = np.random.default_rng(9)
    model = spec.systems[0][1]
    for _ in range(200):
        # the sampler's sparse frame, expanded to dense per-slot arrays
        out = model.sampler(rng)
        pslots, mslots = dense_slots(out, 3)
        assert out.frame_len >= 2
        busy = int(np.flatnonzero(pslots == 20.0)[0]) + 1
        assert np.all(pslots[busy:] == 3.0)
        assert np.all(pslots[: busy - 1] == 0.0)
        jobs = -mslots[busy - 1, 1]
        assert 15 <= jobs <= 27
        assert mslots.sum() == -jobs
        assert pslots.sum() == out.penalty_total
        assert np.array_equal(mslots.sum(axis=0), out.metrics_total)


def _spec_with_sampler(sampler):
    action = ActionModel(action_id=0, exp_penalty=1.0, exp_metrics=np.zeros(1),
                         exp_frame_len=2.0, sampler=sampler)
    return CoupledSystemSpec(systems=[[action]],
                             external=lambda rng, count: np.zeros((count, 1)),
                             n_constraints=1)


def test_spec_build_checks_each_action_once():
    good = lambda rng: FrameProfile(3, 5.0, [1.0], ((0, 2.0, [1.0]),), 1, 1.5)
    _spec_with_sampler(good)
    # tail rate over two slots adds 3.0, not the 4.0 the total claims
    off_total = lambda rng: FrameProfile(3, 6.0, [1.0], ((0, 2.0, [1.0]),), 1, 1.5)
    with pytest.raises(ValueError):
        _spec_with_sampler(off_total)
    off_metrics = lambda rng: FrameProfile(3, 5.0, [2.0], ((0, 2.0, [1.0]),), 1, 1.5)
    with pytest.raises(ValueError, match="add up"):
        _spec_with_sampler(off_metrics)
    wide = lambda rng: FrameProfile(3, 5.0, [1.0, 0.0], ((0, 2.0, [1.0, 0.0]),), 1, 1.5)
    with pytest.raises(ValueError):
        _spec_with_sampler(wide)
    wide_totals = lambda rng: FrameOutcome(3, 5.0, [1.0, 0.0])
    with pytest.raises(ValueError):
        _spec_with_sampler(wide_totals)
    with pytest.raises(ValueError, match="action 0 has no sampler"):
        _spec_with_sampler(None)
    # something other than a frame
    with pytest.raises(ValueError, match="FrameOutcome or FrameProfile"):
        _spec_with_sampler(lambda rng: (2, 3.0))
    twins = [_two_action_spec().systems[0][0]] * 2
    with pytest.raises(ValueError):
        CoupledSystemSpec(systems=[twins],
                          external=lambda rng, count: np.zeros((count, 2)),
                          n_constraints=2)


def test_spec_is_frozen_after_its_probe():
    # an action whose frames do not add up (penalty 99 against 1) cannot be
    # put in after the build-time probe, only through a build that probes it
    spec = _spec_with_sampler(lambda rng: FrameOutcome(2, 1.0, [1.0]))
    liar = ActionModel(action_id=0, exp_penalty=1.0, exp_metrics=np.zeros(1),
                       exp_frame_len=2.0,
                       sampler=lambda rng: FrameProfile(2, 99.0, [1.0], ((1, 1.0, [1.0]),), 2))
    for name, value in (("systems", [[liar]]),
                        ("external", lambda rng, count: np.ones((count, 1)))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, name, value)
    with pytest.raises(TypeError):
        spec.systems[0][0] = liar
    with pytest.raises(ValueError, match="add up"):
        dataclasses.replace(spec, systems=[[liar]])



@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spec_build_refuses_a_non_finite_probe_frame(bad):
    # every comparison with NaN is false, so "differs by more than" passes it
    cases = [
        FrameProfile(3, 5.0, [bad], ((0, 2.0, [bad]),), 1, 1.5),
        FrameProfile(3, bad, [1.0], ((0, bad, [1.0]),), 1, 1.5),
        FrameProfile(3, 5.0, [1.0], ((0, 2.0, [1.0]),), 1, bad),
        FrameOutcome(3, bad, [1.0]),
        FrameOutcome(3, 5.0, [bad]),
    ]
    for frame in cases:
        with pytest.raises(ValueError, match="add up"):
            _spec_with_sampler(lambda rng, frame=frame: frame)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_run_refuses_a_non_finite_external_before_the_first_slot(bad):
    drawn = []

    def sampler(rng):
        drawn.append(rng)
        return FrameOutcome(2, 1.0, [1.0])

    def external(rng, count):
        draws = np.zeros((count, 1))
        draws[count // 2, 0] = bad
        return draws

    spec = dataclasses.replace(_spec_with_sampler(sampler), external=external)
    drawn.clear()  # the probe frame drawn at spec build
    with pytest.raises(ValueError, match="non-finite"):
        run(spec, v=1.0, horizon=50, seed=0)
    assert drawn == []


@pytest.mark.parametrize("v", [math.inf, math.nan, 0.0, -5.0])
def test_run_refuses_a_bad_v_before_the_first_slot(v):
    # at v = inf every decision took action 0 and the queues ran away silently
    drawn = []

    def sampler(rng):
        drawn.append(rng)
        return FrameOutcome(2, 1.0, [1.0])

    spec = _spec_with_sampler(sampler)
    drawn.clear()  # the probe frame drawn at spec build
    with pytest.raises(ValueError, match="v must be finite and positive"):
        run(spec, v=v, horizon=50, seed=0)
    assert drawn == []


@pytest.mark.parametrize("emit", [
    lambda k: FrameProfile(2, 1.0, [1.0], ((1, 1.0, [1.0]),), 2) if k < 5 else
    FrameProfile(2, 1.0, [math.nan], ((1, 1.0, [math.nan]),), 2),
    lambda k: FrameProfile(2, 1.0, [1.0], ((1, 1.0, [1.0]),), 2) if k < 5 else
    FrameProfile(2, math.inf, [1.0], ((1, math.inf, [1.0]),), 2),
    lambda k: FrameProfile(2, 1.0, [1.0], ((1, 1.0, [1.0]),), 2, 0.0) if k < 5 else
    FrameProfile(2, 1.0, [1.0], ((0, 1.0, [1.0]),), 1, -math.inf),
    # finite emissions whose sum overflows the queue
    lambda k: FrameProfile(2, 1.0, [1.6e308], ((1, 1.0, [1.6e308]),), 2),
], ids=["nan-metric", "inf-penalty", "minus-inf-tail", "queue-overflow"])
def test_run_refuses_non_finite_emissions_and_queues(emit):
    draws = iter(range(1000))
    spec = _spec_with_sampler(lambda rng: emit(next(draws)))
    with pytest.raises(ValueError, match="non-finite penalty, metric or queue"):
        run(spec, v=1.0, horizon=40, seed=0)


def test_run_selects_once_per_action_kind_per_decision_slot(monkeypatch):
    # the per-layer tracer wraps coupled.dpp_linear_select; a loop that
    # stopped calling it there would read as zero selections
    calls = []
    inner = coupled.dpp_linear_select

    def select(actions, q, v):
        calls.append(tuple(q))
        return inner(actions, q, v)

    monkeypatch.setattr(coupled, "dpp_linear_select", select)
    log = run(energy_scheduling_spec(5), v=10.0, horizon=3000, seed=5)
    decision_slots = sorted({start for _, start, _, _ in log.frame_log})
    # the five servers share one action kind: one call per decision slot
    assert len(calls) == len(decision_slots) > 300
    for q, start in zip(calls, decision_slots):
        expected = log.queues[start - 1] if start else np.zeros(3)
        assert np.array_equal(q, expected)
    # systems with their own action objects each choose
    calls.clear()
    log = run(_two_action_spec(3), v=5.0, horizon=500, seed=77)
    assert len(calls) == len(log.frame_log) > 100


def test_run_rejects_a_frame_whose_impulses_leave_it():
    draws = iter(range(1000))

    def sampler(rng):
        # the probe at spec build gets a sound frame, the run's first does not
        offset = 0 if next(draws) == 0 else 3
        return FrameProfile(3, 2.0, [1.0], ((offset, 2.0, [1.0]),), 3)

    spec = _spec_with_sampler(sampler)
    with pytest.raises(ValueError):
        run(spec, v=1.0, horizon=10, seed=0)


def test_energy_external_process_bounds_and_mean():
    spec = energy_scheduling_spec()
    rng = np.random.default_rng(123)
    draws = spec.external(rng, 6000)
    assert draws.shape == (6000, 3)
    assert np.all(draws <= 0)
    assert np.all(draws >= -10.0 * ENERGY_CLASSES["arrival_rate"])
    mean = draws.mean(axis=0)
    assert np.allclose(mean, -ENERGY_CLASSES["arrival_rate"], rtol=0.05)


def test_energy_oracle_matches_greedy_closed_form():
    # With one action per class the LP decouples: each class needs frame mass
    # at least lambda_i * T_i / (n * jobs_i), and whatever timeline is left
    # goes to the action with the cheapest energy per slot.
    c = ENERGY_CLASSES
    n = 5
    t_mean = c["service_mean_len"] + c["idle_mean_len"]
    y = c["service_energy"] + c["idle_power"] * c["idle_mean_len"]
    q_min = c["arrival_rate"] / (n * c["jobs_mean"])
    slack = 1.0 - float(q_min @ t_mean)
    assert slack > 0
    cheapest = int(np.argmin(y / t_mean))
    value = float(q_min @ y) + slack * y[cheapest] / t_mean[cheapest]
    assert energy_oracle_value(n) == pytest.approx(n * value, abs=1e-9)
    assert energy_oracle_value(n) == pytest.approx(16.1394, abs=1e-3)


def test_energy_oracle_value_is_pinned():
    assert energy_oracle_value(5).hex() == "0x1.023b28dfbb28ep+4"


def test_energy_run_serves_and_stays_stable():
    spec = energy_scheduling_spec()
    log = run(spec, v=100.0, horizon=4000, seed=31)
    service = -log.final_metrics_avg
    assert np.all(service > 0.5 * ENERGY_CLASSES["arrival_rate"])
    assert np.all(np.isfinite(log.queues))
    # queues should not blow up over a short stable run
    assert log.queues[-1].max() < 2000.0


def test_energy_table_layout():
    spec = energy_scheduling_spec(n_servers=2)
    log = run(spec, v=50.0, horizon=64, seed=3)
    cols, rows = energy_table(log, stride=4)
    assert cols == [
        "slot",
        "energy_avg",
        "service_avg_1",
        "service_avg_2",
        "service_avg_3",
        "q_1",
        "q_2",
        "q_3",
    ]
    assert rows.shape == (16, 8)
    assert rows[0, 0] == 0
    assert rows[1, 0] == 4
    full_cols, full_rows = energy_table(log)
    assert full_rows.shape == (64, 8)
    k = 17
    assert full_rows[k, 1] == pytest.approx(log.penalty[: k + 1].sum() / (k + 1))
    assert np.allclose(full_rows[k, 5:], log.queues[k])


def test_run_keeps_its_logs_packed():
    # the per-slot logs are packed doubles until they become the four arrays;
    # with a Python float list per column the traced peak was 489 B/slot,
    # over three times the arrays' 112
    spec = energy_scheduling_spec(5)
    tracemalloc.start()
    try:
        log = run(spec, v=50.0, horizon=20_000, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = [log.penalty, log.metrics, log.external, log.queues]
    for arr, width in zip(arrays, (5, 3, 3, 3)):
        assert arr.dtype == np.float64 and arr.flags.c_contiguous
        assert arr.shape == (20_000, width)
    assert peak <= 3 * sum(arr.nbytes for arr in arrays)


def test_run_logs_a_spec_without_constraints_as_empty_columns():
    action = ActionModel(action_id=0, exp_penalty=1.0, exp_metrics=np.zeros(0),
                         exp_frame_len=2.0,
                         sampler=lambda rng: FrameProfile(2, 2.0, [], (), 0, 1.0))
    spec = CoupledSystemSpec(systems=[[action]],
                             external=lambda rng, count: np.zeros((count, 0)),
                             n_constraints=0)
    log = run(spec, v=1.0, horizon=5, seed=1)
    assert log.penalty.tolist() == [[1.0]] * 5
    for arr in (log.metrics, log.external, log.queues):
        assert arr.shape == (5, 0) and arr.flags.c_contiguous


_PIN_RUNS = {
    "energy-5-servers": (lambda: energy_scheduling_spec(5), 50.0, 20_000, 7),
    "energy-3-servers": (lambda: energy_scheduling_spec(3), 1.0, 5_000, 8),
    "two-action-3-systems": (lambda: _two_action_spec(3), 5.0, 3_000, 77),
}

# sha256 over the penalty, metrics, external and queue arrays (name, dtype,
# shape, bytes) and the repr of the frame log, recorded before the dense
# per-slot frame form left the package
_PINNED_DIGESTS = {
    "energy-5-servers": "a7af6ff6f4312026222f128ae1d377a4dfd57b32d47e2463705d518508947f47",
    "energy-3-servers": "de021ae36e211ac13aca7ce692d121ce191fc527df1cbeca4278ce0ff7d2e818",
    "two-action-3-systems": "b36e6570ffad625f9a14de492efee1f34bed21f8ebded02fcee92e144981c24e",
}


@pytest.mark.parametrize("case", sorted(_PIN_RUNS))
def test_run_output_is_pinned(case):
    spec, v, horizon, seed = _PIN_RUNS[case]
    log = run(spec(), v=v, horizon=horizon, seed=seed)
    digest = hashlib.sha256()
    for name in ("penalty", "metrics", "external", "queues"):
        arr = getattr(log, name)
        digest.update(f"{name}:{arr.dtype.str}:{arr.shape}:".encode())
        digest.update(arr.tobytes())
    digest.update(repr(log.frame_log).encode())
    assert digest.hexdigest() == _PINNED_DIGESTS[case]
