import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import queue_update, write_trace
from renewalopt import datacenter as dc
from renewalopt.datacenter import (
    ServerConfig,
    SleepMode,
    Trace,
    admission_decide,
    load_trace,
    ramp_trace,
    run_datacenter,
    server_frame_decide,
    uniform_trace,
    zipf_mean,
)


def _cfg(active_power=4.0, mu=("constant", 3.0), modes=None, i_max=200, r_max=40.0):
    if modes is None:
        modes = [SleepMode(idle_power=0.0, setup_power=2.0, setup_mean=5.0)]
    return ServerConfig(active_power=active_power, mu_dist=mu,
                        sleep_modes=modes, i_max=i_max, r_max=r_max)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_sleep_mode_validation():
    with pytest.raises(ValueError):
        SleepMode(idle_power=-0.1, setup_power=1.0, setup_mean=2.0)
    with pytest.raises(ValueError):
        SleepMode(idle_power=0.0, setup_power=1.0, setup_mean=0.5)
    assert SleepMode(0.0, 1.0, 1.0).setup_var == 0.0
    assert SleepMode(0.0, 1.0, 5.0).setup_var == pytest.approx(20.0)


def test_server_config_validation():
    with pytest.raises(ValueError):
        _cfg(active_power=-1.0)
    with pytest.raises(ValueError):
        _cfg(i_max=0)
    with pytest.raises(ValueError):
        _cfg(modes=[])
    with pytest.raises(ValueError):
        _cfg(mu=("constant", 0.0))
    with pytest.raises(ValueError):
        _cfg(mu=("uniform", 1, 5))
    with pytest.raises(ValueError):
        _cfg(mu=("zipf", 0, 1.9))
    cfg = _cfg(mu=("zipf", 10, 1.9))
    assert cfg.mu_max == 10.0
    assert cfg.mu_mean == pytest.approx(zipf_mean(10, 1.9))


# field: (a config or sleep mode with that field set to x, the message)
_SERVER_FIELDS = {
    "active_power": (lambda x: _cfg(active_power=x), "active_power must be finite"),
    "mu": (lambda x: _cfg(mu=("constant", x)), "finite positive mu"),
    "zipf-exponent": (lambda x: _cfg(mu=("zipf", 10, x)), "finite exponent"),
    "r_max": (lambda x: _cfg(r_max=x), "r_max must be finite"),
    "idle_power": (lambda x: SleepMode(x, 1.0, 2.0), "idle_power must be finite"),
    "setup_power": (lambda x: SleepMode(0.0, x, 2.0), "setup_power must be finite"),
    "setup_mean": (lambda x: SleepMode(0.0, 1.0, x), "setup_mean must be finite"),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", sorted(_SERVER_FIELDS))
def test_non_finite_server_fields_are_refused(field, bad):
    # a NaN mu used to give max_queue [nan] and void the per-slot bound
    # check, NaN powers a NaN power_avg, and an infinite r_max a crash mid-run
    make, message = _SERVER_FIELDS[field]
    with pytest.raises(ValueError, match=message):
        make(bad)


def test_zipf_mean_matches_reported_service_rate():
    # the trace experiment quotes 1.9933 requests per slot for K=10, p=1.9
    assert zipf_mean(10, 1.9) == pytest.approx(1.9933, abs=5e-4)


def test_zipf_sampler_distribution():
    sampler = dc._ZipfSampler(10, 1.9)
    rng = np.random.default_rng(11)
    draws = np.array([sampler(rng) for _ in range(60000)])
    assert draws.min() >= 1 and draws.max() <= 10
    assert draws.mean() == pytest.approx(zipf_mean(10, 1.9), abs=0.02)
    weights = np.arange(1, 11, dtype=float) ** -1.9
    p_one = weights[0] / weights.sum()
    assert np.mean(draws == 1) == pytest.approx(p_one, abs=0.01)


class _FixedUniforms:
    """Stands in for a Generator whose ``random()`` returns given values."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


@pytest.mark.parametrize("k, p", [(10, 1.9), (1, 1.9), (50, 0.5), (200, 3.0)])
def test_zipf_sampler_matches_searchsorted(k, p):
    sampler = dc._ZipfSampler(k, p)
    # one ulp either side of every CDF step, and the step itself
    uniforms = [0.0]
    for c in sampler.cdf:
        uniforms += [u for u in (math.nextafter(c, 0.0), c, math.nextafter(c, 1.0))
                     if 0.0 <= u < 1.0]
    draws = [sampler(_FixedUniforms([u])) for u in uniforms]
    old = [oracles.zipf_draw_searchsorted(sampler.cdf, _FixedUniforms([u]))
           for u in uniforms]
    assert draws == old
    assert sorted(set(draws)) == [float(i) for i in range(1, k + 1)]
    # both take one uniform a draw, so a real generator ends in the same state
    new_rng, old_rng = np.random.default_rng(5), np.random.default_rng(5)
    draws = [sampler(new_rng) for _ in range(2000)]
    old = [oracles.zipf_draw_searchsorted(sampler.cdf, old_rng) for _ in range(2000)]
    assert draws == old
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


# ---------------------------------------------------------------------------
# admission
# ---------------------------------------------------------------------------

def test_admission_rejects_all_when_no_queue_eligible():
    rejected, routed = admission_decide(12, 2.0, [50.0, 60.0], v=3.0, r_max=40.0)
    assert rejected == 12
    assert routed == [0.0, 0.0]


def test_admission_routes_to_shortest_eligible():
    rejected, routed = admission_decide(5, 2.0, [9.0, 4.0, 4.0], v=10.0, r_max=40.0)
    assert rejected == 0
    assert routed == [0.0, 5.0, 0.0]


def test_admission_caps_at_router_limit():
    rejected, routed = admission_decide(50, 2.0, [1.0, 0.0], v=10.0, r_max=40.0)
    assert rejected == 10
    assert routed == [0.0, 40.0]


@given(
    arrivals=st.integers(0, 200),
    cost=st.floats(0.1, 8.0),
    queues=st.lists(st.floats(0.0, 500.0), min_size=1, max_size=6),
    v=st.floats(0.0, 50.0),
    r_max=st.floats(0.0, 80.0),
)
@settings(max_examples=200, deadline=None)
def test_admission_identity_and_feasibility(arrivals, cost, queues, v, r_max):
    rejected, routed = admission_decide(arrivals, cost, queues, v, r_max)
    assert type(routed) is list and len(routed) == len(queues)
    q, routed = np.array(queues), np.array(routed)
    assert rejected >= 0 and (routed >= 0).all()
    assert routed.sum() <= r_max + 1e-9
    assert rejected + routed.sum() == pytest.approx(arrivals, abs=1e-9)
    assert np.count_nonzero(routed) <= 1
    if routed.any():
        target = int(np.argmax(routed))
        assert q[target] <= v * cost
        eligible = q[q <= v * cost]
        assert q[target] == eligible.min()
        assert target == int(np.flatnonzero(q == q[target])[0])


# ---------------------------------------------------------------------------
# frame decision
# ---------------------------------------------------------------------------

def test_frame_decide_huge_queue_stays_active():
    assert server_frame_decide(_cfg(), queue=1e6, v=5.0) == "active"


def test_frame_decide_free_sleep_matches_stationary_point():
    # g = W = 0 at an empty queue: the window cost is A/x + (b0/2)x with
    # A = v*e + (b0/2)*var, so I* sits by sqrt(2A/b0) - m - 1
    cfg = _cfg(active_power=6.0, mu=("constant", 1.0),
               modes=[SleepMode(0.0, 0.0, 2.0)], i_max=500, r_max=3.0)
    v = 10.0
    b0 = 0.5 * (3.0 + 1.0) * 1.0
    a = v * 6.0 + 0.5 * b0 * cfg.sleep_modes[0].setup_var
    i_real = math.sqrt(2.0 * a / b0) - 2.0 - 1.0
    decision = server_frame_decide(cfg, queue=0.0, v=v)
    assert decision in {(0, max(1, math.floor(i_real))), (0, max(1, math.ceil(i_real)))}
    assert decision == oracles.datacenter_decide_bruteforce(
        6.0, 1.0, 1.0, 3.0, [(0.0, 0.0, 2.0)], 500, 0.0, v)


def test_frame_decide_matches_bruteforce_on_fixed_configs():
    modes = [(0.0, 2.0, 5.893), (0.5, 3.0, 27.397)]
    cfg = _cfg(active_power=4.0, mu=("constant", 4.0),
               modes=[SleepMode(*m) for m in modes], i_max=1000, r_max=40.0)
    for queue, v in [(0.0, 60.0), (37.0, 60.0), (240.0, 60.0), (5.0, 700.0)]:
        expected = oracles.datacenter_decide_bruteforce(
            4.0, 4.0, 4.0, 40.0, modes, 1000, queue, v)
        assert server_frame_decide(cfg, queue, v) == expected


@given(
    active_power=st.floats(0.0, 10.0),
    mode_params=st.lists(
        st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 6.0), st.floats(1.0, 25.0)),
        min_size=1, max_size=3),
    i_max=st.integers(1, 300),
    r_max=st.floats(0.0, 60.0),
    mu_value=st.integers(1, 8),
    queue=st.floats(0.0, 3000.0),
    v=st.floats(0.5, 800.0),
)
@settings(max_examples=120, deadline=None)
def test_frame_decide_matches_bruteforce(active_power, mode_params, i_max,
                                         r_max, mu_value, queue, v):
    cfg = ServerConfig(active_power=active_power, mu_dist=("constant", float(mu_value)),
                       sleep_modes=[SleepMode(*m) for m in mode_params],
                       i_max=i_max, r_max=r_max)
    expected = oracles.datacenter_decide_bruteforce(
        active_power, float(mu_value), float(mu_value), r_max,
        mode_params, i_max, queue, v)
    assert server_frame_decide(cfg, queue, v) == expected


def test_reactive_target_examples():
    # setup_mean 1 makes a switched-on server commit within its slot, and
    # unit setup and active power with free idling make each slot's power the
    # number of committed servers: the reference target clipped to [0, n]
    assert oracles.reactive_target([10, 11] * 5, 0.0, 2.0) == 6
    assert oracles.reactive_target([4], 3.0, 2.0) == 4
    assert oracles.reactive_target([0, 0, 0], 0.0, 2.0) == 0
    cfgs = [ServerConfig(active_power=1.0, mu_dist=("constant", mu),
                         sleep_modes=[SleepMode(0.0, 1.0, 1.0)], i_max=10, r_max=50.0)
            for mu in (2.0, 3.0, 2.0, 3.0, 2.0, 3.0)]
    mu_bar = float(np.mean([cfg.mu_mean for cfg in cfgs]))
    trace = ramp_trace(400, 0.5, 17.0, ramp_start=100, ramp_end=300, seed=8)
    for extra in (0.0, 3.0, 0.7):
        log = run_datacenter(cfgs, trace, v=1.0, mode=("reactive", extra), seed=2)
        targets = [min(max(oracles.reactive_target(trace.arrivals[max(t - 9, 0):t + 1],
                                                   extra, mu_bar), 0), len(cfgs))
                   for t in range(len(trace))]
        assert log.power.tolist() == [float(k) for k in targets]
        # the clip binds at the top, and the target moves through the ramp
        assert len(cfgs) in targets and len(set(targets)) >= 5


# ---------------------------------------------------------------------------
# queue recursions
# ---------------------------------------------------------------------------

def test_queue_update_clamps_at_zero():
    out = queue_update(np.array([0.0, 2.0]), np.array([3.0, 0.0]), np.array([5.0, 0.0]))
    assert out.tolist() == [0.0, 2.0]
    assert oracles.actual_queue_update(2.0, 3.0, 10.0) == 0.0
    assert oracles.actual_queue_update(2.0, 3.0, 1.0) == 4.0
    # constant service: the always-on servers drain 4 + 3 + 3 a slot, and the
    # physical backlog replays through the reference step bit for bit
    cfgs = _table_like_farm()
    trace = uniform_trace(2000, arrival_range=(0, 13), seed=2)
    log = run_datacenter(cfgs, trace, v=1.0, mode=("always-on", 3), seed=0)
    backlog, replay = 0.0, []
    for arrivals in trace.arrivals:
        backlog = oracles.actual_queue_update(backlog, float(arrivals), 4.0 + 3.0 + 3.0)
        replay.append(backlog)
    assert log.backlog.tolist() == replay
    assert 0.0 in replay and max(replay) > 0.0


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def test_trace_roundtrip(tmp_path):
    records = uniform_trace(50, seed=3)
    path = tmp_path / "trace.csv"
    write_trace(path, records)
    back = load_trace(path)
    assert back == records


def test_trace_loader_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("slot,arrivals\n0,1\n")
    with pytest.raises(ValueError):
        load_trace(path)
    path.write_text("slot,arrivals,cost\n0,4,1.0\n2,4,1.0\n")
    with pytest.raises(ValueError):
        load_trace(path)
    path.write_text("slot,arrivals,cost\n0,-4,1.0\n")
    with pytest.raises(ValueError):
        load_trace(path)
    path.write_text("slot,arrivals,cost\n0,4,0.0\n")
    with pytest.raises(ValueError):
        load_trace(path)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_trace_loader_rejects_nonfinite_costs(tmp_path, bad):
    # an infinite cost would make the queue bound v*c_max + r_max infinite
    path = tmp_path / "bad.csv"
    path.write_text(f"slot,arrivals,cost\n0,4,1.0\n1,4,{bad}\n2,4,1.0\n")
    with pytest.raises(ValueError, match="finite and positive.* at row 1"):
        load_trace(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_run_rejects_nonfinite_costs(bad):
    # a run takes only a Trace, so the constructor's check is the run's
    with pytest.raises(ValueError, match="finite and positive.* at row 3"):
        Trace([20] * 10, [bad if t == 3 else 1.0 for t in range(10)])


@pytest.mark.parametrize("arrivals,costs,message", [
    ([4, 4, 4, -1], [1.0] * 4, "nonnegative integers, got -1 at row 3"),
    ([4, 4, 4, 2.5], [1.0] * 4, "nonnegative integers, got 2.5 at row 3"),
    ([4, 4, 4, math.inf], [1.0] * 4, "nonnegative integers, got inf at row 3"),
    ([4] * 4, [1.0, 1.0, 1.0, math.nan], "finite and positive, got nan at row 3"),
    ([4] * 4, [1.0, 1.0, 1.0, math.inf], "finite and positive, got inf at row 3"),
    ([4] * 4, [1.0, 1.0, 1.0, 0.0], "finite and positive, got 0.0 at row 3"),
    ([4] * 4, [1.0] * 3, "argument 2 is shorter than argument 1"),
])
def test_trace_rejects_bad_columns(arrivals, costs, message):
    with pytest.raises(ValueError, match=message):
        Trace(arrivals, costs)


def test_trace_is_frozen():
    trace = Trace([3, 0, 2], [1, 2.5, 6])
    assert trace.arrivals == (3, 0, 2) and trace.costs == (1.0, 2.5, 6.0)
    assert len(trace) == 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.costs = (1.0, 1.0, 1.0)


def test_run_takes_only_a_trace():
    with pytest.raises(TypeError, match="must be a datacenter.Trace, got list"):
        run_datacenter([_cfg()], [(t, 20, 1.0) for t in range(10)], v=1.0)


@pytest.mark.parametrize("ranges,message", [
    (((30, 10), (1, 6)), "arrival_range .* got \\(30, 10\\)"),
    (((-1, 10), (1, 6)), "arrival_range"),
    (((10, 30), (0, 3)), "cost_range .* 1 <= low <= high, got \\(0, 3\\)"),
    (((10, 30), (1.5, 3)), "cost_range"),
    (((10, 30, 50), (1, 6)), "arrival_range"),
    ((10, (1, 6)), "arrival_range"),
])
def test_uniform_trace_checks_its_ranges(ranges, message):
    with pytest.raises(ValueError, match=message):
        uniform_trace(0, *ranges)


def test_ramp_trace_shape():
    with pytest.raises(ValueError):
        ramp_trace(100, 2.0, 8.0, ramp_start=50, ramp_end=20)
    records = ramp_trace(3000, 2.0, 20.0, ramp_start=1000, ramp_end=2000, seed=5)
    arrivals = np.array(records.arrivals)
    assert arrivals.min() >= 0
    assert arrivals[:1000].mean() == pytest.approx(2.0, abs=0.3)
    assert arrivals[2000:].mean() == pytest.approx(20.0, abs=1.0)
    assert len(set(records.costs)) == 1


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def _table_like_farm():
    rows = [
        (4.0, 4.0, 2.0, 5.893),
        (2.0, 3.0, 3.0, 4.342),
        (3.0, 3.0, 3.0, 27.397),
        (4.0, 2.0, 2.0, 5.817),
        (2.0, 3.0, 4.0, 6.211),
    ]
    return [ServerConfig(active_power=e, mu_dist=("constant", mu),
                         sleep_modes=[SleepMode(0.0, w, m)], i_max=1000, r_max=40.0)
            for e, mu, w, m in rows]


def test_run_nqueue_respects_queue_bound():
    cfgs = _table_like_farm()
    trace = uniform_trace(3000, seed=21)
    log = run_datacenter(cfgs, trace, v=40.0, mode="n-queue", seed=1)
    bound = 40.0 * 6.0 + 40.0
    assert (log.max_queue <= bound).all()
    assert log.horizon == 3000
    assert (log.rejected <= log.arrivals).all()
    assert log.active_servers.max() <= 5
    assert (log.power >= 0).all()
    assert np.isfinite(log.final_cost_avg)
    assert np.array_equal(log.backlog, log.queue_total)


def test_run_virtualized_backlog_under_virtual_total():
    cfgs = [ServerConfig(active_power=1.0, mu_dist=("zipf", 10, 1.9),
                         sleep_modes=[SleepMode(0.0, 1.0, 5.0)], i_max=200, r_max=10.0)
            for _ in range(4)]
    trace = ramp_trace(4000, 2.0, 8.0, ramp_start=1500, ramp_end=2500, seed=9)
    log = run_datacenter(cfgs, trace, v=50.0, mode="virtualized", seed=2,
                         initial_queues=[30.0] * 4)
    bound = 50.0 * 1.0 + 10.0
    assert (log.backlog <= log.queue_total + 1e-9).all()
    assert (log.max_queue <= bound).all()
    assert log.backlog.max() <= 4 * bound + 1e-9


def test_run_deterministic_per_seed():
    cfgs = [ServerConfig(active_power=2.0, mu_dist=("zipf", 6, 1.2),
                         sleep_modes=[SleepMode(0.0, 1.0, 4.0)], i_max=300, r_max=12.0)
            for _ in range(3)]
    trace = uniform_trace(1200, arrival_range=(0, 8), seed=4)
    a = run_datacenter(cfgs, trace, v=25.0, mode="n-queue", seed=12)
    b = run_datacenter(cfgs, trace, v=25.0, mode="n-queue", seed=12)
    c = run_datacenter(cfgs, trace, v=25.0, mode="n-queue", seed=13)
    assert np.array_equal(a.power, b.power)
    assert np.array_equal(a.queue_total, b.queue_total)
    assert not np.array_equal(a.queue_total, c.queue_total)


def test_run_bound_check_fires_on_runaway_admission(monkeypatch):
    def accept_everything(arrivals, cost, queues, v, r_max):
        return 0.0, [float(arrivals)] + [0.0] * (len(queues) - 1)

    monkeypatch.setattr(dc, "admission_decide", accept_everything)
    cfgs = [_cfg(mu=("constant", 1.0), r_max=3.0)]
    trace = Trace([10] * 50, [1.0] * 50)
    with pytest.raises(RuntimeError):
        run_datacenter(cfgs, trace, v=0.5, mode="n-queue", seed=0)


def _sleepy_pair():
    # at an empty queue both servers sleep through the first slots, so the
    # stub admission below is the only thing that moves the queues
    cfg = ServerConfig(active_power=50.0, mu_dist=("constant", 1.0),
                       sleep_modes=[SleepMode(0.0, 0.0, 1.0)], i_max=10, r_max=1.0)
    assert server_frame_decide(cfg, 0.0, 1.0) != "active"
    return [cfg, cfg]


def test_run_virtual_total_check_fires_on_unrouted_admission(monkeypatch):
    # admitted work that reaches no virtual queue leaves the physical backlog
    # above the virtual total while every virtual queue stays at zero
    def admit_without_routing(arrivals, cost, queues, v, r_max):
        return 0.0, [0.0] * len(queues)

    monkeypatch.setattr(dc, "admission_decide", admit_without_routing)
    trace = Trace([10] * 5, [1.0] * 5)
    with pytest.raises(RuntimeError, match="exceeded the virtual total"):
        run_datacenter(_sleepy_pair(), trace, v=1.0, mode="virtualized")


def test_run_backlog_bound_check_fires_inside_the_slack(monkeypatch):
    # the per-queue bound and the virtual total imply the N*bound one up to
    # their 1e-9 slacks, so the stub lands inside them: each queue 2**-30
    # above its bound 2, the backlog 2**-29 above N*bound = 4
    def overshoot_by_ulps(arrivals, cost, queues, v, r_max):
        admitted = 4.0 + 2.0 ** -29
        return arrivals - admitted, [2.0 + 2.0 ** -30] * len(queues)

    monkeypatch.setattr(dc, "admission_decide", overshoot_by_ulps)
    trace = Trace([8] * 5, [1.0] * 5)
    with pytest.raises(RuntimeError, match="physical backlog bound violated at slot 0"):
        run_datacenter(_sleepy_pair(), trace, v=1.0, mode="virtualized")


@pytest.mark.parametrize("v", [math.inf, math.nan, -5.0, 0.0])
@pytest.mark.parametrize("mode", ["n-queue", "virtualized", ("always-on", 1),
                                  ("reactive", 0.0)])
def test_run_refuses_a_bad_v_before_the_first_slot(monkeypatch, mode, v):
    # at v = inf the bound was inf and the queues ran away; at NaN or below 0
    # every arrival was refused, in both cases without a word
    monkeypatch.setattr(dc, "_service_sampler", lambda mu_dist: pytest.fail("a run began"))
    with pytest.raises(ValueError, match="v must be finite and positive"):
        run_datacenter([_cfg()], uniform_trace(10, seed=0), v=v, mode=mode)


@pytest.mark.parametrize("mode", ["n-queue", "virtualized", ("always-on", 1),
                                  ("reactive", 0.0)])
def test_run_refuses_a_non_finite_log_once_it_ends(mode):
    # a NaN set after the config was checked used to end as a NaN power average
    cfg = _cfg()
    cfg.active_power = math.nan
    with pytest.raises(ValueError, match="non-finite power, cost or queue"):
        run_datacenter([cfg], uniform_trace(50, seed=0), v=1.0, mode=mode)


def test_run_rejects_nan_initial_queue():
    # a NaN queue is never admitted to, never read as long and never trips
    # the bound, so it would run silently
    with pytest.raises(ValueError, match="initial_queues"):
        run_datacenter([_cfg()], uniform_trace(10, seed=0), v=1.0,
                       initial_queues=[math.nan])


def test_run_argument_errors():
    cfgs = [_cfg()]
    trace = uniform_trace(10, seed=0)
    with pytest.raises(ValueError):
        run_datacenter(cfgs, trace, v=1.0, horizon=20)
    with pytest.raises(ValueError):
        run_datacenter(cfgs, trace, v=1.0, mode="fastest")
    with pytest.raises(ValueError):
        run_datacenter(cfgs, trace, v=1.0, mode=("always-on", 5))
    with pytest.raises(ValueError):
        run_datacenter(cfgs, trace, v=1.0, initial_queues=[1.0, 2.0])
    with pytest.raises(ValueError):
        run_datacenter([], trace, v=1.0)
    mixed = [_cfg(r_max=40.0), _cfg(r_max=30.0)]
    with pytest.raises(ValueError):
        run_datacenter(mixed, trace, v=1.0)


def test_run_honors_shorter_horizon():
    log = run_datacenter([_cfg()], uniform_trace(1000, seed=1), v=5.0, horizon=400)
    assert log.horizon == 400


def test_single_server_trajectory_replays_by_hand():
    # active power 0 makes serving free, so the server serves every slot and
    # the whole run reduces to the admission recursion on one queue
    cfg = ServerConfig(active_power=0.0, mu_dist=("constant", 1.0),
                       sleep_modes=[SleepMode(1.0, 1.0, 1.0)], i_max=50, r_max=7.0)
    trace = Trace([2] * 60, [1.0] * 60)
    v = 10.0
    log = run_datacenter([cfg], trace, v=v, mode="n-queue", seed=0)
    q = 0.0
    for t in range(60):
        admitted = 2.0 if q <= v * 1.0 else 0.0
        q = max(q + admitted - 1.0, 0.0)
        assert log.queue_total[t] == q
        assert log.rejected[t] == 2.0 - admitted
    assert not log.power.any()
    assert (log.active_servers == 1).all()


def test_sleep_cycle_power_pattern_is_periodic():
    # setup_mean 1 makes the geometric draw deterministic; with no arrivals the
    # queue stays empty and every frame repeats the same window: four idle
    # slots, one setup slot, one serving slot
    cfg = ServerConfig(active_power=50.0, mu_dist=("constant", 2.0),
                       sleep_modes=[SleepMode(0.1, 3.0, 1.0)], i_max=100, r_max=4.0)
    assert server_frame_decide(cfg, 0.0, 2.0) == (0, 4)
    assert oracles.datacenter_decide_bruteforce(
        50.0, 2.0, 2.0, 4.0, [(0.1, 3.0, 1.0)], 100, 0.0, 2.0) == (0, 4)
    trace = Trace([0] * 18, [1.0] * 18)
    log = run_datacenter([cfg], trace, v=2.0, mode="n-queue", seed=0)
    assert log.power.tolist() == [0.1, 0.1, 0.1, 0.1, 3.0, 50.0] * 3
    assert log.active_servers.tolist() == [0, 0, 0, 0, 0, 1] * 3


def test_min_active_pins_servers_on():
    cfg = ServerConfig(active_power=50.0, mu_dist=("constant", 2.0),
                       sleep_modes=[SleepMode(0.1, 3.0, 1.0)], i_max=100, r_max=4.0)
    trace = Trace([0] * 30, [1.0] * 30)
    log = run_datacenter([cfg] * 3, trace, v=2.0, mode="n-queue", seed=0, min_active=2)
    assert log.active_servers.min() >= 2
    assert log.active_servers.min() == 2


def test_always_on_full_capacity_keeps_queue_at_burst_level():
    cfgs = [_cfg(mu=("constant", 4.0), r_max=40.0) for _ in range(3)]
    trace = uniform_trace(500, arrival_range=(0, 9), seed=6)
    log = run_datacenter(cfgs, trace, v=1.0, mode=("always-on", 3), seed=0)
    assert log.backlog.max() <= max(trace.arrivals)
    assert (log.active_servers == 3).all()
    assert not log.rejected.any()


def test_always_on_partial_fleet_draws_idle_power():
    cfgs = [ServerConfig(active_power=5.0, mu_dist=("constant", 4.0),
                         sleep_modes=[SleepMode(0.5, 2.0, 3.0)], i_max=10, r_max=40.0)
            for _ in range(3)]
    trace = Trace([1] * 20, [1.0] * 20)
    log = run_datacenter(cfgs, trace, v=1.0, mode=("always-on", 2), seed=0)
    assert (log.power == 2 * 5.0 + 0.5).all()
    assert (log.active_servers == 2).all()


def test_reactive_scales_through_setup_and_back_down():
    cfgs = [ServerConfig(active_power=10.0, mu_dist=("constant", 2.0),
                         sleep_modes=[SleepMode(0.0, 10.0, 2.0)], i_max=10, r_max=100.0)
            for _ in range(12)]
    trace = Trace([2] * 30 + [20] * 40 + [2] * 50, [1.0] * 120)
    log = run_datacenter(cfgs, trace, v=1.0, mode=("reactive", 0.0), seed=3)
    assert log.active_servers[:30].max() <= 1
    assert log.active_servers[69] == 10
    assert log.active_servers[-1] == 1
    assert log.active_servers.max() <= 10


# ---------------------------------------------------------------------------
# seeded output, pinned
# ---------------------------------------------------------------------------

def _zipf_farm():
    return [ServerConfig(active_power=1.5 + 0.5 * k, mu_dist=("zipf", 10, 1.9),
                         sleep_modes=[SleepMode(0.0, 1.0, 5.0), SleepMode(0.2, 2.0, 2.0)],
                         i_max=200, r_max=10.0) for k in range(4)]


_PIN_TRACES = {
    "uniform": lambda: uniform_trace(2000, seed=21),
    "light": lambda: uniform_trace(2000, arrival_range=(0, 12), seed=21),
    "ramp": lambda: ramp_trace(2000, 1.0, 6.0, ramp_start=600, ramp_end=1400, seed=9),
}

# (farm, trace, mode, v, min_active, initial_queues, all servers always on?)
_PIN_CASES = {
    "nqueue-const-on": (_table_like_farm, "uniform", "n-queue", 5.0, 0, None, True),
    "nqueue-const-sleep": (_table_like_farm, "light", "n-queue", 500.0, 0,
                           [40.0, 0.0, 7.5, 0.0, 3.0], False),
    "virtualized-const-sleep": (_table_like_farm, "light", "virtualized", 500.0, 0,
                                None, False),
    "virtualized-zipf-on": (_zipf_farm, "ramp", "virtualized", 5.0, 0,
                            [9.0, 0.0, 4.5, 7.0], True),
    "nqueue-zipf-sleep-min-active": (_zipf_farm, "ramp", "n-queue", 500.0, 2, None, False),
    "virtualized-zipf-sleep-min-active": (_zipf_farm, "ramp", "virtualized", 500.0, 1,
                                          [9.0, 0.0, 4.5, 7.0], False),
    "always-on-zipf-two-of-four": (_zipf_farm, "ramp", ("always-on", 2), 5.0, 0, None,
                                   False),
    "always-on-const-three-of-five": (_table_like_farm, "light", ("always-on", 3), 5.0, 0,
                                      None, False),
    "reactive-zipf": (_zipf_farm, "ramp", ("reactive", 0.0), 5.0, 0, None, False),
    "reactive-const-extra": (_table_like_farm, "light", ("reactive", 2.5), 5.0, 0, None,
                             False),
}

# sha256 over every DatacenterLog array (name, dtype, shape, bytes) of
# run_datacenter(..., seed=3), recorded before the slot loop moved to floats;
# the always-on and reactive ones before the baselines' per-slot helpers were
# folded into their loop
_PINNED_DIGESTS = {
    "nqueue-const-on": "ae9bd194df29799e39471ccc78fce039fc7fa5e7c91785f096a50e6f72b83a9f",
    "nqueue-const-sleep": "227bfe0a58b5a1a857d249266e8870efff82087aa813d215ccac185108ec129d",
    "virtualized-const-sleep": "af26e46f10b25399418058435603069f90bca4fe6262c9891b53fd93f4a38f80",
    "virtualized-zipf-on": "d1deb6a16478a9b1ab4a4b04ee597b0a16074a1fcf6b4e62bd1bc708b1201bea",
    "nqueue-zipf-sleep-min-active":
        "5775f392f4a02e16d0371b3ba10e9e40154e7a3f801cc8d863e033f0c19a409c",
    "virtualized-zipf-sleep-min-active":
        "fad218cc6f846020f8e1595ecf091093687145952d6d4b1e62ab42fb9ea68d11",
    "always-on-zipf-two-of-four":
        "d449efab03e270f24a49ee82beee6dad8324f530a7bcdd2a25ba40919c803b12",
    "always-on-const-three-of-five":
        "bb0c874abb073925962795bf6725539c2fb2c6e7fd236202804db4e73e210b8a",
    "reactive-zipf": "298a949060e488465d1789b1d6dfa8a63cf07674f35a5ebe956d81cdc1ac7fb7",
    "reactive-const-extra": "8ab72b744ca7274863940cd351cce63ace55c187964e8b0e22091ebf11bda107",
}

_LOG_ARRAYS = ("power", "reject_cost", "backlog", "queue_total", "active_servers",
               "rejected", "arrivals", "max_queue")


@pytest.mark.parametrize("case", sorted(_PIN_CASES))
def test_run_datacenter_output_is_pinned(case):
    farm, trace, mode, v, min_active, initial, always_on = _PIN_CASES[case]
    cfgs = farm()
    log = run_datacenter(cfgs, _PIN_TRACES[trace](), v, mode=mode, seed=3,
                         min_active=min_active, initial_queues=initial)
    # each case keeps its meaning: the "on" cases never sleep, the others do
    assert (log.active_servers == len(cfgs)).all() == always_on
    assert log.active_servers.min() >= min_active
    digest = hashlib.sha256()
    for name in _LOG_ARRAYS:
        arr = getattr(log, name)
        digest.update(f"{name}:{arr.dtype.str}:{arr.shape}:".encode())
        digest.update(arr.tobytes())
    assert digest.hexdigest() == _PINNED_DIGESTS[case]
