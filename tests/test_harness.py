import ast
import dataclasses
import hashlib
import importlib
import json
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from renewalopt import cli, coupled, datacenter, harness, ocmdp

_SERVER = {"active_power": 4.0, "mu": ["constant", 3.0],
           "sleep_modes": [[0.0, 2.0, 5.0]], "i_max": 100, "r_max": 40.0}


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------


def test_minimal_one_slot_config_roundtrips():
    config = harness.config_from_mapping({"kind": "coupled-energy", "horizon": 1})
    assert config.horizon == 1
    assert harness.config_from_mapping(config.to_mapping()) == config
    summary = harness.run_experiment(config)
    assert summary.n_rows == 1


def test_unknown_kind_rejected():
    with pytest.raises(harness.ConfigError, match="unknown experiment kind"):
        harness.config_from_mapping({"kind": "frobnicate", "horizon": 1})


def test_unknown_keys_rejected():
    with pytest.raises(harness.ConfigError, match="unknown config key"):
        harness.config_from_mapping({"kind": "coupled-energy", "horizons": 5})
    with pytest.raises(harness.ConfigError, match="does not apply to"):
        harness.config_from_mapping(
            {"kind": "coupled-energy", "instance": {"beta": 1.0}})


def test_sweep_validation():
    with pytest.raises(harness.ConfigError, match="nonempty list"):
        harness.config_from_mapping({"kind": "coupled-energy", "v_values": []})
    with pytest.raises(harness.ConfigError, match="finite numbers"):
        harness.config_from_mapping(
            {"kind": "coupled-energy", "v_values": [1.0, "x"]})
    # sweeps the kind never reads may not be set at all
    with pytest.raises(harness.ConfigError, match="delta_values does not apply"):
        harness.config_from_mapping(
            {"kind": "coupled-energy", "delta_values": [0.6]})
    with pytest.raises(harness.ConfigError, match="strictly positive v"):
        harness.config_from_mapping(
            {"kind": "online-renewal", "v_values": [0.0]})
    with pytest.raises(harness.ConfigError, match="strictly positive alpha"):
        harness.config_from_mapping(
            {"kind": "ocmdp", "alpha_values": [-1.0]})


@pytest.mark.parametrize("key,value", [
    ("horizon", 0), ("replications", 0), ("jobs", 0), ("horizon", 2.5),
    ("seed", "three"), ("seed", -1), ("format", "xml"), ("oracle", "yes"),
    pytest.param("horizon", 10 ** 400, id="horizon-huge"),
])
def test_bad_field_values_rejected(key, value):
    with pytest.raises(harness.ConfigError):
        harness.config_from_mapping({"kind": "coupled-energy", key: value})


def _with(base, instance=None, **top):
    """``base`` with its instance keys and top-level keys overridden; a value
    of None drops the key."""
    data = dict(base, **top)
    data["instance"] = dict(base["instance"], **(instance or {}))
    for mapping in (data, data["instance"]):
        for key in [k for k, v in mapping.items() if v is None]:
            del mapping[key]
    return data


_BANDIT = {"kind": "bandit", "horizon": 10, "v_values": [20.0],
           "instance": {"users": "table-one", "m_servers": 4, "beta": 5}}
_FARM = {"kind": "datacenter", "horizon": 40, "v_values": [5.0],
         "instance": {"servers": [_SERVER]}}
_RAMP = {"kind": "ramp", "base_rate": 2.0, "peak_rate": 8.0,
         "ramp_start": 10, "ramp_end": 30}
_ENERGY = {"kind": "coupled-energy", "horizon": 10, "instance": {}}
_ORACLE = {"kind": "oracle-only", "instance": {"target": "coupled-energy"}}
# a 401-digit integer: valid JSON, too large for a float
_HUGE = 10 ** 400
_NAN, _INF = float("nan"), float("inf")

# (config, key whose line the error must name, its occurrence, message)
_BAD_CONFIGS = {
    "bandit-beta-negative": (_with(_BANDIT, {"beta": -1}), "beta", 0, "beta"),
    "bandit-beta-nan": (_with(_BANDIT, {"beta": float("nan")}), "beta", 0, "beta"),
    "bandit-beta-huge": (_with(_BANDIT, {"beta": _HUGE}), "beta", 0,
                         "beta must be a finite number"),
    "bandit-user-mean-file-huge": (
        _with(_BANDIT, {"users": [{"lam": 0.3, "mean_file": _HUGE,
                                   "actions": [[0, 0], [0.6, 2]]}]}),
        "users", 0, r"users\[0\]: int too large"),
    "bandit-m-servers-zero": (_with(_BANDIT, {"m_servers": 0}), "m_servers", 0,
                              "m_servers must be at least 1"),
    "bandit-m-servers-text": (_with(_BANDIT, {"m_servers": "x"}), "m_servers", 0,
                              "m_servers must be an integer"),
    "bandit-m-servers-all-users": (_with(_BANDIT, {"m_servers": 8}), "m_servers", 0,
                                   "m_servers must be below the number of users"),
    "bandit-file-dist": (_with(_BANDIT, {"users": "table-two", "file_dist": "gamma"}),
                         "file_dist", 0, "file_dist"),
    "bandit-no-users": (_with(_BANDIT, {"users": None}), "instance", 0,
                        "needs instance key 'users'"),
    "bandit-v-zero": (_with(_BANDIT, v_values=[0.0]), "v_values", 0,
                      "strictly positive v"),
    "bandit-oracle-uniform": (_with(_BANDIT, {"users": "table-two", "file_dist": "uniform"},
                                    oracle=True), "oracle", 0, "memoryless"),
    "bandit-oracle-poisson": (_with(_BANDIT, {"users": "table-two", "file_dist": "poisson"},
                                    oracle=True), "oracle", 0, "memoryless"),
    "farm-no-servers": (_with(_FARM, {"servers": []}), "servers", 0, "nonempty list"),
    "farm-mode": (_with(_FARM, {"mode": "sideways"}), "mode", 0, "unknown datacenter mode"),
    **{f"farm-mode-{name}": (
        _with(_FARM, {"servers": [_SERVER, _SERVER], "mode": mode}), "mode", 0, message)
       for name, mode, message in (
           ("always-on-too-many", ["always-on", 7],
            r"always-on count must lie in \[0, 2\], got 7"),
           ("always-on-fractional", ["always-on", 2.7], "mode must be an integer"),
           ("reactive-nan", ["reactive", _NAN], "mode must be a finite number"),
           ("reactive-text", ["reactive", "x"], "mode must be a finite number"))},
    "farm-v-zero": (_with(_FARM, v_values=[0.0]), "v_values", 0, "strictly positive v"),
    **{f"farm-ramp-without-{key}": (
        _with(_FARM, {"trace": {k: v for k, v in _RAMP.items() if k != key}}),
        "trace", 0, f"ramp trace needs key '{key}'")
       for key in ("base_rate", "peak_rate", "ramp_start", "ramp_end")},
    "farm-trace-kind": (_with(_FARM, {"trace": {"kind": "bursty"}}), "kind", 1,
                        "trace kind"),
    "farm-trace-missing": (_with(_FARM, {"trace": {"path": "missing.csv"}}), "trace", 0,
                           "trace: .*No such file"),
    "farm-trace-gap": (_with(_FARM, {"trace": {"path": "gap.csv"}}), "trace", 0,
                       "trace: trace slots must run 0,1"),
    "farm-trace-short": (_with(_FARM, {"trace": {"path": "short.csv"}}), "trace", 0,
                         "trace: 2 rows, fewer than horizon 40"),
    "farm-uniform-arrival-range": (
        _with(_FARM, {"trace": {"kind": "uniform", "arrival_range": [30, 10]}}),
        "trace", 0, r"trace: arrival_range .* 0 <= low <= high, got \[30, 10\]"),
    "farm-uniform-cost-range": (
        _with(_FARM, {"trace": {"kind": "uniform", "cost_range": [0, 3]}}),
        "trace", 0, r"trace: cost_range .* 1 <= low <= high, got \[0, 3\]"),
    "farm-ramp-cost-zero": (_with(_FARM, {"trace": dict(_RAMP, cost=0.0)}), "trace", 0,
                            "trace: cost must be finite and positive, got 0.0"),
    "farm-ramp-cost-nan": (_with(_FARM, {"trace": dict(_RAMP, cost=float("nan"))}),
                           "trace", 0, "trace: cost must be finite and positive, got nan"),
    "farm-ramp-base-rate-negative": (
        _with(_FARM, {"trace": dict(_RAMP, base_rate=-2)}), "trace", 0,
        "trace: base_rate and peak_rate must be finite and nonnegative, got -2.0 and 8.0"),
    "farm-ramp-base-rate-huge": (_with(_FARM, {"trace": dict(_RAMP, base_rate=_HUGE)}),
                                 "trace", 0, "trace: int too large"),
    "farm-ramp-peak-rate-inf": (
        _with(_FARM, {"trace": dict(_RAMP, peak_rate=float("inf"))}), "trace", 0,
        "trace: base_rate and peak_rate must be finite and nonnegative, got 2.0 and inf"),
    "farm-ramp-end-past-horizon": (_with(_FARM, {"trace": dict(_RAMP, ramp_end=50)}),
                                   "ramp_end", 0, "ramp_end <= horizon 40"),
    "farm-ramp-fractional-start": (_with(_FARM, {"trace": dict(_RAMP, ramp_start=10.7)}),
                                   "ramp_start", 0, "ramp_start must be an integer"),
    "farm-min-active-negative": (_with(_FARM, {"min_active": -1}), "min_active", 0,
                                 "min_active must be at least 0"),
    "farm-min-active-fraction": (_with(_FARM, {"min_active": 1.5}), "min_active", 0,
                                 "min_active must be an integer"),
    "farm-oracle": (_with(_FARM, oracle=True), "oracle", 0, "no oracle"),
    "farm-fractional-i-max": (_with(_FARM, {"servers": [dict(_SERVER, i_max=1.5)]}),
                              "servers", 0, r"servers\[0\]: i_max must be an integer"),
    **{f"farm-{name}": (_with(_FARM, {"servers": [dict(_SERVER, **server)]}), "servers", 0,
                        rf"servers\[0\]: .*{message}")
       for name, server, message in (
           ("active-power-nan", {"active_power": _NAN}, "active_power must be finite"),
           ("mu-nan", {"mu": ["constant", _NAN]}, "finite positive mu"),
           ("zipf-exponent-inf", {"mu": ["zipf", 10, _INF]}, "finite exponent"),
           ("idle-power-nan", {"sleep_modes": [[_NAN, 2.0, 5.0]]}, "idle_power must be finite"),
           ("setup-power-inf", {"sleep_modes": [[0.0, _INF, 5.0]]}, "setup_power must be finite"),
           ("setup-mean-inf", {"sleep_modes": [[0.0, 2.0, _INF]]}, "setup_mean must be finite"),
           ("r-max-inf", {"r_max": _INF}, "r_max must be finite"),
           ("r-max-huge", {"r_max": _HUGE}, "int too large"))},
    "ocmdp-path-and-example": (
        {"kind": "ocmdp", "instance": {"path": "mdp.json", "example": "two-mdp"}},
        "path", 0, "not both"),
    "ocmdp-example": ({"kind": "ocmdp", "instance": {"example": "three-mdp"}},
                      "example", 0, "unknown ocmdp example"),
    "ocmdp-missing-file": ({"kind": "ocmdp", "instance": {"path": "missing.json"}},
                           "path", 0, "cannot load ocmdp instance"),
    "ocmdp-noise-negative": ({"kind": "ocmdp", "instance": {"noise": -0.5}},
                             "noise", 0, "noise must be at least 0"),
    "ocmdp-check-slater": ({"kind": "ocmdp", "instance": {"check_slater": False}},
                           "check_slater", 0, "'check_slater' does not apply"),
    "ocmdp-path-nan": ({"kind": "ocmdp", "instance": {"path": "nan_f_mean.json"}},
                       "path", 0, "f_mean must be finite"),
    "ocmdp-path-huge": ({"kind": "ocmdp", "instance": {"path": "huge_f_mean.json"}},
                        "path", 0, "cannot load ocmdp instance: int too large"),
    "ocmdp-path-slater": ({"kind": "ocmdp", "instance": {"path": "slater.json"}}, "path", 0,
                          r"cannot load ocmdp instance: instance fails the Slater check "
                          r"\(margin -inf <= 1e-06\)"),
    "ocmdp-path-constraint-counts": (
        {"kind": "ocmdp", "instance": {"path": "mixed_counts.json"}}, "path", 0,
        "cannot load ocmdp instance: all systems must share the same constraint count"),
    "ocmdp-noise-huge": ({"kind": "ocmdp", "instance": {"noise": _HUGE}}, "noise", 0,
                         "noise must be a finite number"),
    "online-model": ({"kind": "online-renewal", "instance": {"model": "upload"}},
                     "model", 0, "unknown renewal model"),
    "online-theta-max": ({"kind": "online-renewal", "instance": {"theta_max": "x"}},
                         "theta_max", 0, "theta_max"),
    "online-theta-max-huge": ({"kind": "online-renewal", "instance": {"theta_max": _HUGE}},
                              "theta_max", 0, "theta_max must be a finite number"),
    "energy-no-servers": (_with(_ENERGY, {"n_servers": 0}), "n_servers", 0,
                          "n_servers must be at least 1"),
    "energy-fractional-servers": (_with(_ENERGY, {"n_servers": 2.7}), "n_servers", 0,
                                  "n_servers must be an integer"),
    "energy-v-zero": (_with(_ENERGY, v_values=[0.0]), "v_values", 0,
                      "strictly positive v"),
    "energy-v-huge": (_with(_ENERGY, v_values=[1.0, _HUGE]), "v_values", 0,
                      "v_values entries must be finite numbers"),
    "energy-oracle-overloaded": (_with(_ENERGY, {"n_servers": 3}, oracle=True),
                                 "oracle", 0, r"n_servers 3 .* \(load 1\.368 >= 1\)"),
    "energy-oracle-overloaded-at-4": (_with(_ENERGY, {"n_servers": 4}, oracle=True),
                                      "oracle", 0, r"n_servers 4 .* \(load 1\.026 >= 1\)"),
    "oracle-only-energy-overloaded": (_with(_ORACLE, {"instance": {"n_servers": 4}}),
                                      "n_servers", 0, "n_servers 4 leaves"),
    "oracle-only-self": (_with(_ORACLE, {"target": "oracle-only"}), "target", 0,
                         "simulated kind"),
    "oracle-only-datacenter": (
        _with(_ORACLE, {"target": "datacenter", "instance": {"servers": [_SERVER]}}),
        "target", 0, "no oracle"),
    "oracle-only-nested-typo": (_with(_ORACLE, {"instance": {"n_srevers": 6}}),
                                "n_srevers", 0, "does not apply"),
}


def _write_bad_files(where):
    """The two-MDP example saved with a NaN or a 401-digit penalty mean, and
    with no constraint in its second system; a one-system instance no
    policy strictly satisfies; a trace with a slot gap, and a 2-row trace."""
    ocmdp.save_instance(ocmdp.two_mdp_example(), str(where / "two_mdp.json"))
    for name, change in (("nan_f_mean", ("f_mean", 0, [[_NAN, 1.0], [0.1, 0.8]])),
                         ("huge_f_mean", ("f_mean", 0, [[_HUGE, 1.0], [0.1, 0.8]])),
                         ("mixed_counts", ("g_means", 1, []))):
        doc = json.loads((where / "two_mdp.json").read_text())
        key, system, value = change
        doc["systems"][system][key] = value
        (where / f"{name}.json").write_text(json.dumps(doc))
    hopeless = {"transitions": [[[0.5, 0.5]] * 2] * 2, "f_mean": [[0.0, 0.0]] * 2,
                "g_means": [[[0.3, 0.3]] * 2]}
    (where / "slater.json").write_text(json.dumps({"systems": [hopeless]}))
    (where / "gap.csv").write_text("slot,arrivals,cost\n0,12,2.0\n2,5,1.0\n")
    oracles.write_trace(where / "short.csv", datacenter.uniform_trace(2, seed=1))


@pytest.mark.parametrize("name", sorted(_BAD_CONFIGS))
def test_bad_instance_rejected_at_load_with_its_line(tmp_path, monkeypatch, name):
    data, key, occurrence, message = _BAD_CONFIGS[name]
    monkeypatch.chdir(tmp_path)
    _write_bad_files(tmp_path)
    text = json.dumps(data, indent=2)
    lines = [n for n, line in enumerate(text.splitlines(), 1) if f'"{key}"' in line]
    path = tmp_path / "exp.json"
    path.write_text(text)
    with pytest.raises(harness.ConfigError, match=message) as err:
        harness.load_config(path)
    assert str(err.value).startswith(f"{path}:{lines[occurrence]}: ")


# config fields, and the message when the config is made from them directly
# or loaded from a file holding them
_MADE_BAD = {
    "replications-zero": ({"kind": "coupled-energy", "replications": 0},
                          "replications must be at least 1"),
    "format-xml": ({"kind": "coupled-energy", "format": "xml", "out_dir": "out"},
                   "format must be 'csv' or 'json'"),
    "delta-on-energy": ({"kind": "coupled-energy", "delta_values": (0.6,)},
                        "delta_values does not apply"),
    "v-negative": ({"kind": "coupled-energy", "v_values": (-1.0,)}, "strictly positive v"),
    "horizon-huge": ({"kind": "coupled-energy", "horizon": _HUGE},
                     r"horizon must be below 2\*\*63"),
    "i-max-huge": (_with(_FARM, {"servers": [dict(_SERVER, i_max=_HUGE)]}),
                   r"servers\[0\]: i_max must be below 2\*\*63"),
}


@pytest.mark.parametrize("name", sorted(_MADE_BAD))
def test_config_is_checked_when_it_is_made(tmp_path, monkeypatch, name):
    # made without the loader, a bad config is refused before any cell runs
    data, message = _MADE_BAD[name]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "_run_cell", lambda task: pytest.fail("a cell ran"))
    with pytest.raises(harness.ConfigError, match=message):
        harness.run_experiment(harness.ExperimentConfig(**data))
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(data))
    with pytest.raises(harness.ConfigError, match=message):
        harness.load_config(path)
    assert not (tmp_path / "out").exists()


def test_config_echo_cannot_drift(tmp_path):
    # the config holds its own read-only copy of the instance, so summary.json
    # echoes the instance the build and the oracle used
    instance = {"n_servers": 5}
    config = harness.ExperimentConfig(kind="coupled-energy", instance=instance,
                                      horizon=20, oracle=True, out_dir=str(tmp_path))
    instance["n_servers"] = 9
    with pytest.raises(TypeError):
        config.instance["n_servers"] = 9
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.horizon = 30
    harness.run_experiment(config)
    echo = json.loads((tmp_path / "summary.json").read_text())["experiment"]
    assert echo["instance"] == {"n_servers": 5} and config.built == 5
    assert pickle.loads(pickle.dumps(config)) == config
    assert harness.config_from_mapping(config.to_mapping()) == config


@pytest.mark.parametrize("mode,count", [(["always-on", 0], 0), (["always-on", 2], 2),
                                        (["reactive", -1], -1.0), (["reactive", 2.5], 2.5)],
                         ids=["always-on-0", "always-on-2", "reactive-minus-1",
                              "reactive-2.5"])
def test_baseline_mode_count_is_checked_and_runs(tmp_path, mode, count):
    # in range at load, the count reaches the run as an int, or a float extra
    config = harness.config_from_mapping(
        _with(_FARM, {"servers": [_SERVER, _SERVER], "mode": mode}, out_dir=str(tmp_path)))
    assert config.built[1] == (mode[0], count)
    assert type(config.built[1][1]) is type(count)
    assert harness.run_experiment(config).n_rows == 1


def test_nested_instance_is_read_only():
    servers = [dict(_SERVER)]
    config = harness.config_from_mapping(_with(_FARM, {"servers": servers}))
    servers[0]["i_max"] = 7
    with pytest.raises(TypeError):
        config.instance["servers"][0]["i_max"] = 7
    with pytest.raises(TypeError):
        config.instance["servers"][0]["sleep_modes"][0] = (0.0, 1.0, 1.0)
    assert config.to_mapping()["instance"] == {"servers": [_SERVER]}
    copy = pickle.loads(pickle.dumps(config))
    assert copy == config and copy.built[0] == config.built[0]
    assert harness.config_from_mapping(config.to_mapping()) == config


def test_derive_checks_its_fields_and_keeps_the_build():
    config = harness.config_from_mapping(_small_energy_mapping())
    derived = config.derive(seed=3, out_dir="elsewhere", format="json", jobs=2)
    assert derived.built is config.built
    assert (derived.seed, derived.out_dir, derived.format, derived.jobs) == (
        3, "elsewhere", "json", 2)
    assert (config.seed, config.out_dir, config.format, config.jobs) == (11, None, "csv", 1)
    for change, message in (({"seed": _HUGE}, r"seed must be below 2\*\*63"),
                            ({"jobs": 0}, "jobs must be at least 1"),
                            ({"format": "xml"}, "format must be"),
                            ({"out_dir": 3}, "out_dir must be a path string")):
        with pytest.raises(harness.ConfigError, match=message):
            config.derive(**change)
    with pytest.raises(TypeError, match="not horizon"):
        config.derive(horizon=5)


def test_load_config_reports_line_numbers(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text('{\n  "kind": "coupled-energy",\n'
                    '  "replications": 1,\n  "horizon": 0\n}\n')
    with pytest.raises(harness.ConfigError, match=r"exp\.json:4: horizon"):
        harness.load_config(path)
    path.write_text('{\n  "kind": "coupled-energy",\n  "horizon": 1,,\n}\n')
    with pytest.raises(harness.ConfigError, match=r"exp\.json:3: invalid JSON"):
        harness.load_config(path)


# ---------------------------------------------------------------------------
# sweep grid and summaries
# ---------------------------------------------------------------------------


def _small_energy_mapping(**extra):
    data = {"kind": "coupled-energy", "horizon": 150, "seed": 11}
    data.update(extra)
    return data


def test_v_sweep_emits_one_summary_row_per_value():
    config = harness.config_from_mapping(
        _small_energy_mapping(v_values=[1.0, 10.0, 100.0]))
    summary = harness.run_experiment(config)
    assert summary.n_rows == 3
    assert [row["v"] for row in summary.rows] == [1.0, 10.0, 100.0]
    assert summary.columns[:3] == ["v", "replication", "seed"]
    assert len(summary.aggregates) == 3


def test_rows_blocked_by_parameter_then_replication():
    config = harness.config_from_mapping(
        _small_energy_mapping(v_values=[2.0, 5.0], replications=3))
    summary = harness.run_experiment(config)
    assert [(row["v"], row["replication"]) for row in summary.rows] == [
        (2.0, 0), (2.0, 1), (2.0, 2), (5.0, 0), (5.0, 1), (5.0, 2)]
    for p_idx in range(2):
        for rep in range(3):
            run_seed, _ = harness.derive_seeds(11, p_idx, rep)
            assert summary.rows[3 * p_idx + rep]["seed"] == run_seed


def test_aggregates_equal_recomputation_from_rows():
    config = harness.config_from_mapping(
        _small_energy_mapping(v_values=[3.0, 30.0], replications=3))
    summary = harness.run_experiment(config)
    for p_idx, agg in enumerate(summary.aggregates):
        group = summary.rows[3 * p_idx:3 * p_idx + 3]
        assert agg["replications"] == 3
        for name, mean in agg["means"].items():
            total = 0.0
            for row in group:
                total += row[name]
            assert mean == total / 3  # exact: same fold order


def test_same_config_and_seed_bit_identical_files(tmp_path):
    base = _small_energy_mapping(v_values=[1.0, 10.0], replications=2)
    paths = []
    for name in ("a", "b"):
        out = tmp_path / name
        config = harness.config_from_mapping(dict(base, out_dir=str(out)))
        harness.run_experiment(config)
        paths.append(out)
    for fname in ("rows.csv", "summary.json"):
        assert (paths[0] / fname).read_bytes() == (paths[1] / fname).read_bytes()


# a small two-point, two-replication config of each simulated kind, and of
# the builds that carry callables (file samplers, trace generators) or records
_FOLD_CONFIGS = {
    "coupled-energy": _small_energy_mapping(v_values=[1.0, 10.0]),
    "datacenter": _with(_FARM, v_values=[5.0, 50.0]),
    "datacenter-path": _with(_FARM, {"trace": {"path": "trace.csv"}},
                             v_values=[5.0, 50.0]),
    "datacenter-ramp": _with(_FARM, {"trace": _RAMP}, v_values=[5.0, 50.0]),
    "bandit": _with(_BANDIT, horizon=200, v_values=[20.0, 70.0]),
    "bandit-table-two-uniform": _with(
        _BANDIT, {"users": "table-two", "file_dist": "uniform"}, horizon=200,
        v_values=[20.0, 70.0]),
    "online-renewal": {"kind": "online-renewal", "horizon": 200,
                       "v_values": [10.0], "delta_values": [0.6, 0.8]},
    "ocmdp": {"kind": "ocmdp", "horizon": 100, "v_values": [5.0],
              "alpha_values": [100.0, 200.0]},
}


@pytest.mark.parametrize("name", list(_FOLD_CONFIGS))
def test_parallel_fold_matches_serial(tmp_path, monkeypatch, name):
    # the config builds its instance once, at load; tasks pickle that build
    # to the workers, which only simulate it
    monkeypatch.chdir(tmp_path)
    oracles.write_trace(tmp_path / "trace.csv", datacenter.uniform_trace(40, seed=5))
    base = dict(_FOLD_CONFIGS[name], replications=2)
    config = harness.config_from_mapping(base)
    pickle.dumps(config.built)
    serial = harness.run_experiment(config)
    parallel = harness.run_experiment(
        harness.config_from_mapping(dict(base, jobs=2)))
    assert parallel.rows == serial.rows
    assert parallel.aggregates == serial.aggregates


class _SerialPool:
    """A pool that records its size and maps serially: no process is started."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_worker_pool_is_capped_by_cells_and_cores(monkeypatch):
    sizes = []
    monkeypatch.setattr(_SerialPool, "sizes", sizes)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    base = _small_energy_mapping(horizon=20, v_values=[1.0, 2.0], replications=2)
    serial = harness.run_experiment(harness.config_from_mapping(base)).rows
    rows = {}
    for jobs, replications in ((5000, 2), (5000, 1), (2, 2)):
        data = dict(base, jobs=jobs, replications=replications)
        rows[jobs, replications] = harness.run_experiment(
            harness.config_from_mapping(data)).rows
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    harness.run_experiment(harness.config_from_mapping(dict(base, jobs=5000)))
    # 4 cells on 3 cores, then 2 cells, then 2 jobs; no core count runs serially
    assert sizes == [3, 2, 2]
    assert rows[5000, 2] == rows[2, 2] == serial


def test_master_seed_moves_results():
    one = harness.run_experiment(
        harness.config_from_mapping(_small_energy_mapping(seed=1)))
    two = harness.run_experiment(
        harness.config_from_mapping(_small_energy_mapping(seed=2)))
    assert one.rows[0]["penalty_avg"] != two.rows[0]["penalty_avg"]


def test_invariants_report_passes():
    for name, passed, detail in harness.invariants_report():
        assert passed, f"{name}: {detail}"


def test_parallel_fold_detail_names_the_workers_that_ran(monkeypatch):
    def fold_detail(**extra):
        config = harness.config_from_mapping(_small_energy_mapping(horizon=20, **extra))
        return dict((name, (passed, detail)) for name, passed, detail
                    in harness.invariants_report(config))["parallel-fold"]

    monkeypatch.setattr(harness, "ProcessPoolExecutor",
                        lambda max_workers: pytest.fail("a worker was started"))
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    assert fold_detail() == (True, "no worker started for 1 cell(s) on 4 core(s); "
                                   "serial matches serial")
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 1)
    assert fold_detail(v_values=[1.0, 2.0], replications=2) == (
        True, "no worker started for 4 cell(s) on 1 core(s); serial matches serial")
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    assert fold_detail(v_values=[1.0, 2.0]) == (True, "2-worker aggregates match serial")
    assert _SerialPool.sizes == [2]


# ---------------------------------------------------------------------------
# kinds and oracles
# ---------------------------------------------------------------------------


def test_oracle_columns_attached():
    config = harness.config_from_mapping(
        _small_energy_mapping(v_values=[5.0], oracle=True))
    summary = harness.run_experiment(config)
    row = summary.rows[0]
    assert row["oracle_value"] == pytest.approx(coupled.energy_oracle_value(5))
    assert row["oracle_gap"] == pytest.approx(
        row["penalty_avg"] - row["oracle_value"])


def test_oracle_only_rows():
    config = harness.config_from_mapping({
        "kind": "oracle-only", "horizon": 1, "replications": 2,
        "instance": {"target": "coupled-energy", "instance": {"n_servers": 6}}})
    summary = harness.run_experiment(config)
    assert summary.n_rows == 2
    expected = coupled.energy_oracle_value(6)
    assert all(row["oracle_value"] == pytest.approx(expected)
               for row in summary.rows)


_ORACLE_TARGETS = {
    "coupled-energy": {"n_servers": 6},
    "bandit": {"users": [
        {"lam": 0.3, "mean_file": 2.0, "actions": [[0, 0], [0.4, 1.5]]},
        {"lam": 0.5, "mean_file": 1.5, "actions": [[0, 0], [0.6, 2.0]]},
    ], "m_servers": 1, "beta": 1.0},
    "online-renewal": {},
    "ocmdp": {},
}


@pytest.mark.parametrize("target", sorted(_ORACLE_TARGETS))
def test_oracle_only_config_pickles_with_its_oracle(target):
    # an oracle solve that closes over a lambda cannot be pickled
    config = harness.ExperimentConfig(kind="oracle-only", instance={
        "target": target, "instance": _ORACLE_TARGETS[target]})
    copy = pickle.loads(pickle.dumps(config))
    assert copy == config
    assert harness.oracle_value("oracle-only", copy.built) == \
        harness.oracle_value("oracle-only", config.built)


def test_oracle_only_needs_simulated_target():
    with pytest.raises(harness.ConfigError, match="target"):
        harness.config_from_mapping({
            "kind": "oracle-only", "horizon": 1,
            "instance": {"target": "oracle-only"}})


def test_datacenter_has_no_oracle():
    with pytest.raises(harness.ConfigError, match="no oracle"):
        harness.config_from_mapping({
            "kind": "datacenter", "horizon": 10, "oracle": True,
            "instance": {"servers": [_SERVER]}})


def test_bandit_kind_with_explicit_users():
    config = harness.config_from_mapping({
        "kind": "bandit", "horizon": 400, "v_values": [20.0],
        "instance": {"users": [
            {"lam": 0.3, "mean_file": 2.0, "actions": [[0, 0], [0.4, 1.5]]},
            {"lam": 0.5, "mean_file": 1.5, "actions": [[0, 0], [0.6, 2.0]]},
        ], "m_servers": 1, "beta": 1.0}})
    summary = harness.run_experiment(config)
    assert set(summary.rows[0]) >= {"throughput_avg", "power_avg", "queue_max"}


# sha256 of rows.csv, recorded while each file model had its own runner
_BANDIT_ROWS_PINS = {
    "table-one": ({}, "ed415d8999f3ae45a499d4c10a24aad8915a4a850b2a7474c310dc6e5694a8be"),
    "table-two-uniform": ({"users": "table-two", "file_dist": "uniform"},
                          "0e43c04283e8ceae2f6ed9b101b5bed258975e4bbdd73f3291ae6f21dcb7361d"),
}


@pytest.mark.parametrize("name", sorted(_BANDIT_ROWS_PINS))
def test_bandit_rows_are_pinned(tmp_path, name):
    instance, digest = _BANDIT_ROWS_PINS[name]
    config = harness.config_from_mapping(_with(
        _BANDIT, instance, horizon=3000, v_values=[20.0, 70.0], replications=2,
        seed=5, out_dir=str(tmp_path)))
    harness.run_experiment(config)
    assert hashlib.sha256((tmp_path / "rows.csv").read_bytes()).hexdigest() == digest


def _table_two_mapping(file_dist):
    return {"kind": "bandit", "horizon": 50, "v_values": [20.0], "oracle": True,
            "instance": {"users": "table-two", "file_dist": file_dist,
                         "m_servers": 4, "beta": 5}}


def test_bandit_oracle_covers_geometric_table_two():
    # geometric files are memoryless: 9 users, 16,833 chain variables
    summary = harness.run_experiment(
        harness.config_from_mapping(_table_two_mapping("geometric")))
    row = summary.rows[0]
    assert 0.0 < row["oracle_value"] < np.inf
    assert row["oracle_gap"] == pytest.approx(
        row["oracle_value"] - row["throughput_avg"])


@pytest.mark.parametrize("file_dist", ["uniform", "poisson"])
def test_bandit_oracle_refuses_files_with_memory(file_dist):
    with pytest.raises(harness.ConfigError, match="memoryless users only"):
        harness.config_from_mapping(_table_two_mapping(file_dist))


def test_ocmdp_kind_runs_example():
    config = harness.config_from_mapping({
        "kind": "ocmdp", "horizon": 200, "v_values": [5.0],
        "alpha_values": [200.0], "oracle": True})
    summary = harness.run_experiment(config)
    row = summary.rows[0]
    assert row["oracle_gap"] == pytest.approx(
        row["penalty_avg"] - row["oracle_value"])
    assert row["queue_max"] >= 0.0


def test_missing_instance_key_is_a_config_error():
    with pytest.raises(harness.ConfigError, match="needs instance key"):
        harness.config_from_mapping({"kind": "bandit", "horizon": 10})


@pytest.mark.parametrize("missing", ["base_rate", "peak_rate", "ramp_start", "ramp_end"])
def test_ramp_trace_missing_key_is_a_config_error(missing):
    ramp = {"kind": "ramp", "base_rate": 2.0, "peak_rate": 8.0,
            "ramp_start": 10, "ramp_end": 30}
    del ramp[missing]
    with pytest.raises(harness.ConfigError, match=f"ramp trace needs key '{missing}'"):
        harness.config_from_mapping({
            "kind": "datacenter", "horizon": 40, "v_values": [5.0],
            "instance": {"servers": [_SERVER], "trace": ramp}})


# ---------------------------------------------------------------------------
# trace ingestion
# ---------------------------------------------------------------------------


def test_ingest_empty_file_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        datacenter.load_trace(path)


def test_ingest_three_rows(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("slot,arrivals,cost\n0,12,2.0\n1,0,1.5\n2,30,3.0\n")
    trace = datacenter.load_trace(path)
    assert trace == datacenter.Trace((12, 0, 30), (2.0, 1.5, 3.0))


def test_ingest_rejects_gaps_and_negatives(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("slot,arrivals,cost\n0,12,2.0\n2,5,1.0\n")
    with pytest.raises(ValueError, match="contiguous|run 0,1"):
        datacenter.load_trace(path)
    path.write_text("slot,arrivals,cost\n0,-3,2.0\n")
    with pytest.raises(ValueError, match="nonnegative"):
        datacenter.load_trace(path)


def test_trace_file_is_read_once_per_experiment(tmp_path, monkeypatch):
    path = tmp_path / "trace.csv"
    oracles.write_trace(path, datacenter.uniform_trace(60, seed=2))
    mapping = {
        "kind": "datacenter", "horizon": 60, "v_values": [5.0, 50.0],
        "replications": 2,
        "instance": {"servers": [{"active_power": 4.0, "mu": ["constant", 3.0],
                                  "sleep_modes": [[0.0, 2.0, 5.0]],
                                  "i_max": 100, "r_max": 40.0}],
                     "trace": {"path": str(path)}}}
    reads = []
    load = datacenter.load_trace
    monkeypatch.setattr(datacenter, "load_trace",
                        lambda p: reads.append(p) or load(p))
    serial = harness.run_experiment(harness.config_from_mapping(mapping))
    assert len(serial.rows) == 4 and len(reads) == 1
    parallel = harness.run_experiment(
        harness.config_from_mapping(dict(mapping, jobs=2)))
    assert len(reads) == 2
    assert parallel.rows == serial.rows


def test_trace_is_checked_once_at_load(tmp_path, monkeypatch):
    # the loaded Trace is checked when it is made; no cell checks it again
    path = tmp_path / "trace.csv"
    oracles.write_trace(path, datacenter.uniform_trace(60, seed=2))
    config = harness.config_from_mapping(_with(
        _FARM, {"trace": {"path": str(path)}}, v_values=[5.0, 50.0],
        replications=2))

    def refuse(self):
        raise AssertionError("trace checked after load")

    monkeypatch.setattr(datacenter.Trace, "__post_init__", refuse)
    assert harness.run_experiment(config).n_rows == 4


def test_ocmdp_path_instance_is_loaded_once_per_experiment(tmp_path, monkeypatch):
    path = tmp_path / "mdp.json"
    ocmdp.save_instance(ocmdp.two_mdp_example(), str(path))
    loads = []
    load = ocmdp.load_instance
    monkeypatch.setattr(ocmdp, "load_instance",
                        lambda p: loads.append(p) or load(p))
    config = harness.config_from_mapping({
        "kind": "ocmdp", "horizon": 20, "v_values": [5.0],
        "alpha_values": [20.0, 40.0], "replications": 2, "oracle": True,
        "instance": {"path": str(path)}})
    summary = harness.run_experiment(config)
    assert summary.n_rows == 4 and len(loads) == 1


_MDP_FOUR_CELLS = {"kind": "ocmdp", "horizon": 30, "v_values": [5.0],
                   "alpha_values": [20.0, 40.0], "replications": 2, "oracle": True}


def test_ocmdp_instance_is_built_and_checked_once(monkeypatch):
    # the load-time Instance serves every cell and the oracle: one polyhedron
    # per system and one Slater LP for the whole experiment
    calls = []
    for name in ("build_polyhedron", "slater_margin"):
        fn = getattr(ocmdp, name)
        monkeypatch.setattr(ocmdp, name,
                            lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    summary = harness.run_experiment(harness.config_from_mapping(_MDP_FOUR_CELLS))
    assert summary.n_rows == 4 and "oracle_value" in summary.columns
    assert calls == ["build_polyhedron", "build_polyhedron", "slater_margin"]


def test_invariants_report_passes_on_an_ocmdp_config(monkeypatch):
    config = harness.config_from_mapping(_MDP_FOUR_CELLS)
    # a worker gets the Instance as pickled, without rebuilding or rechecking it
    for name in ("build_polyhedron", "slater_margin"):
        monkeypatch.setattr(ocmdp, name, lambda *args: pytest.fail("instance rebuilt"))
    copy = pickle.loads(pickle.dumps(config.built))
    assert copy.fingerprint == config.built.fingerprint and len(copy.polys) == 2
    assert not any(spec.f_mean.flags.writeable for spec in copy.specs)
    report = harness.invariants_report(config)
    assert [name for name, _, _ in report] == ["determinism", "parallel-fold"]
    for name, passed, detail in report:
        assert passed, f"{name}: {detail}"


def test_generated_trace_roundtrips(tmp_path):
    records = datacenter.uniform_trace(50, seed=4)
    path = tmp_path / "trace.csv"
    oracles.write_trace(path, records)
    assert datacenter.load_trace(path) == records


# ---------------------------------------------------------------------------
# metrics files
# ---------------------------------------------------------------------------


def test_metrics_roundtrip_both_formats(tmp_path):
    rng = np.random.default_rng(0)
    table = {"first": rng.normal(size=200) * 1e6,
             "second": rng.uniform(1e-9, 1.0, size=200),
             "slot": np.arange(200)}
    for fmt in ("csv", "json"):
        path = tmp_path / f"m.{fmt}"
        harness.write_metrics(table, path, fmt)
        back = oracles.read_metrics(path)
        assert list(back) == ["first", "second", "slot"]
        for name in ("first", "second"):
            rel = np.abs(back[name] - table[name]) / np.abs(table[name])
            assert rel.max() < 1e-11
        assert back["slot"].dtype == np.int64
        assert np.array_equal(back["slot"], table["slot"])


def test_metrics_csv_and_json_parse_identically(tmp_path):
    rng = np.random.default_rng(3)
    table = {"x": rng.normal(size=500), "n": rng.integers(0, 9, size=500)}
    harness.write_metrics(table, tmp_path / "m.csv", "csv")
    harness.write_metrics(table, tmp_path / "m.json", "json")
    from_csv = oracles.read_metrics(tmp_path / "m.csv")
    from_json = oracles.read_metrics(tmp_path / "m.json")
    for name in table:
        assert np.array_equal(from_csv[name], from_json[name])


def test_metrics_validation(tmp_path):
    with pytest.raises(ValueError, match="at least one column"):
        harness.write_metrics({}, tmp_path / "m.csv")
    with pytest.raises(ValueError, match="differ in length"):
        harness.write_metrics({"a": [1.0], "b": [1.0, 2.0]}, tmp_path / "m.csv")
    with pytest.raises(ValueError, match="one dimensional"):
        harness.write_metrics({"a": np.zeros((2, 2))}, tmp_path / "m.csv")
    with pytest.raises(ValueError, match="format"):
        harness.write_metrics({"a": [1.0]}, tmp_path / "m.csv", "tsv")


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-1e12, max_value=1e12,
                          allow_nan=False, allow_subnormal=False),
                min_size=1, max_size=30))
def test_metrics_roundtrip_property(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("metrics") / "m.csv"
    harness.write_metrics({"col": values}, path)
    back = oracles.read_metrics(path)["col"]
    expected = np.asarray(values, dtype=float)
    scale = np.maximum(np.abs(expected), 1e-300)
    assert (np.abs(back - expected) / scale).max() < 1e-11


def test_metrics_million_rows_under_budget(tmp_path):
    import time

    rng = np.random.default_rng(1)
    table = {"a": rng.normal(size=10**6), "b": rng.normal(size=10**6),
             "slot": np.arange(10**6)}
    start = time.perf_counter()
    harness.write_metrics(table, tmp_path / "big.csv", "csv")
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _write_config(tmp_path, **extra):
    data = _small_energy_mapping(**extra)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(data))
    return path


def test_cli_runs_config_and_writes_files(tmp_path, capsys):
    path = _write_config(tmp_path, v_values=[1.0, 10.0])
    out = tmp_path / "results"
    assert cli.main(["--config", str(path), "--out", str(out)]) == 0
    assert (out / "rows.csv").exists() and (out / "summary.json").exists()
    stdout = capsys.readouterr().out
    assert "coupled-energy" in stdout and "2 rows" in stdout


def test_cli_format_override(tmp_path):
    path = _write_config(tmp_path)
    out = tmp_path / "results"
    assert cli.main(["--config", str(path), "--out", str(out),
                     "--format", "json"]) == 0
    assert (out / "rows.json").exists()
    assert not (out / "rows.csv").exists()


def test_cli_seed_override_changes_rows(tmp_path):
    path = _write_config(tmp_path)
    outs = []
    for seed in (1, 2):
        out = tmp_path / f"r{seed}"
        assert cli.main(["--config", str(path), "--out", str(out),
                         "--seed", str(seed)]) == 0
        outs.append((out / "rows.csv").read_bytes())
    assert outs[0] != outs[1]


def test_cli_builds_each_instance_once(tmp_path, monkeypatch):
    # the overrides touch no instance, so the config's load-time build is kept
    oracles.write_trace(tmp_path / "trace.csv", datacenter.uniform_trace(40, seed=5))
    ocmdp.save_instance(ocmdp.two_mdp_example(), str(tmp_path / "two_mdp.json"))
    calls = []
    for module, name in ((datacenter, "load_trace"), (ocmdp, "load_instance")):
        load = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda p, load=load, name=name: calls.append(name) or load(p))
    farm = _with(_FARM, {"trace": {"path": str(tmp_path / "trace.csv")}})
    mdp = {"kind": "ocmdp", "horizon": 20, "alpha_values": [20.0],
           "instance": {"path": str(tmp_path / "two_mdp.json")}}
    for name, data in (("farm", farm), ("mdp", mdp)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        assert cli.main(["--config", str(path), "--out", str(tmp_path / name),
                         "--seed", "3", "--format", "json", "--jobs", "1"]) == 0
    assert calls == ["load_trace", "load_instance"]
    summary = json.loads((tmp_path / "farm" / "summary.json").read_text())
    assert (tmp_path / "farm" / "rows.json").exists()
    assert summary["experiment"]["seed"] == 3


def test_invariants_suite_keeps_the_load_time_build(tmp_path, monkeypatch, capsys):
    # the three reruns of the invariants suite use the config's load-time
    # build, so a trace path is read once
    oracles.write_trace(tmp_path / "trace.csv", datacenter.uniform_trace(40, seed=5))
    calls = []
    load = datacenter.load_trace
    monkeypatch.setattr(datacenter, "load_trace", lambda p: calls.append(p) or load(p))
    path = tmp_path / "farm.json"
    path.write_text(json.dumps(_with(_FARM, {"trace": {"path": str(tmp_path / "trace.csv")}})))
    assert cli.main(["--suite", "invariants", "--config", str(path)]) == 0
    assert len(calls) == 1
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("flag,value,message", [
    ("--jobs", "0", "<command line>: jobs must be at least 1, got 0"),
    ("--seed", "-1", "<command line>: seed must be at least 0, got -1"),
    pytest.param("--seed", str(_HUGE), "<command line>: seed must be below 2**63",
                 id="--seed-huge"),
])
def test_cli_override_checks(tmp_path, capsys, flag, value, message):
    assert cli.main(["--config", str(_write_config(tmp_path)), flag, value]) == 1
    assert message in capsys.readouterr().err


def test_cli_errors_exit_one(tmp_path, capsys):
    assert cli.main([]) == 1
    assert cli.main(["--config", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "nope"}')
    assert cli.main(["--config", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_invariants_suite(capsys):
    assert cli.main(["--suite", "invariants"]) == 0
    stdout = capsys.readouterr().out
    assert "PASS determinism" in stdout
    assert "PASS parallel-fold" in stdout


# ---------------------------------------------------------------------------
# benchmark tracing
# ---------------------------------------------------------------------------


def _traced_names():
    """(module, attr) of every ``renewalopt`` function that
    ``perfbench/tracing.py``'s ``install`` wraps, read from its source
    without importing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    install = next(node for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    modules = {alias.name for node in ast.walk(install)
               if isinstance(node, ast.ImportFrom) and node.module == "renewalopt"
               for alias in node.names}
    return [(call.args[0].id, call.args[1].value) for call in ast.walk(install)
            if isinstance(call, ast.Call) and len(call.args) >= 2
            and isinstance(call.args[0], ast.Name) and call.args[0].id in modules
            and isinstance(call.args[1], ast.Constant)]


def test_every_traced_name_exists():
    names = _traced_names()
    assert ("coupled", "dpp_linear_select") in names
    assert ("coupled", "run") in names
    for module, attr in names:
        target = getattr(importlib.import_module(f"renewalopt.{module}"), attr, None)
        assert callable(target), f"perfbench traces missing {module}.{attr}"
