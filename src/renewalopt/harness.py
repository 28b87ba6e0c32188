"""Experiment configs, replication fan-out, and metrics files.

A plain JSON mapping describes one experiment: which simulator to drive
(``kind``, each described by one ``_Kind`` record), its instance, the sweeps,
horizon, replication count, and master seed. An :class:`ExperimentConfig` is
frozen and checked when it is made, by :func:`load_config` or directly, so it
always holds a checked build of its instance. :func:`run_experiment` expands
the sweep grid, runs every (parameter point, replication) cell, and folds the
rows into a :class:`RunSummary` whose aggregates recompute the rows exactly.

Seeding is counter based: cell (p, r) of the grid simulates with the first
word of ``SeedSequence(master_seed, spawn_key=(p, r))`` and uses the second
word for auxiliary randomness (trace generation). The derivation depends only
on the grid position, so adding replications or parameter points never
reshuffles existing cells and the serial and parallel paths draw identical
streams.

File conventions: CSV is the canonical flat format (header row, floats
printed with 12 significant digits), JSON carries the same columns or the
nested summary. Wall-clock timings live only on the returned
:class:`RunSummary`; the files written for a given config and seed are
byte-for-byte reproducible.
"""

from __future__ import annotations

import copy
import csv
import filecmp
import functools
import itertools
import json
import os
import sys
import time
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from renewalopt import bandit, coupled, datacenter, lp, ocmdp, online


class ConfigError(ValueError):
    """A config file or mapping violates the experiment schema.

    ``keys`` is the path from the config's top level to the offending key,
    which :func:`load_config` turns into a line number.
    """

    def __init__(self, message: str, keys: Tuple[str, ...] = ()):
        super().__init__(message)
        self.keys = keys


@dataclass(frozen=True)
class ExperimentConfig:
    """Description of one experiment, checked when it is made: a bad field,
    instance or oracle request raises :class:`ConfigError` with its key path.

    ``horizon`` counts slots for the slotted kinds and frames for
    online-renewal. A sweep the kind consumes defaults to one point; one it
    ignores stays ``None`` and may not be set. ``oracle`` attaches the
    stationary LP baseline of the instance to every row; oracle-only implies
    it. ``instance`` is held as a read-only deep copy and its build, made
    once here, as ``built``, which :meth:`derive` keeps.
    """

    kind: str
    instance: Mapping = field(default_factory=dict)
    v_values: Optional[Tuple[float, ...]] = None
    delta_values: Optional[Tuple[float, ...]] = None
    alpha_values: Optional[Tuple[float, ...]] = None
    horizon: int = 1
    replications: int = 1
    seed: int = 0
    out_dir: Optional[str] = None
    format: str = "csv"
    oracle: bool = False
    jobs: int = 1
    built: object = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        kind, put = self.kind, functools.partial(object.__setattr__, self)
        if not isinstance(kind, str) or kind not in _RECORDS:
            raise ConfigError(f"unknown experiment kind {kind!r}; expected one "
                              f"of {', '.join(_RECORDS)}", ("kind",))
        record = _RECORDS[kind]
        for key in _COUNT_MINIMUMS:
            _check_field(key, getattr(self, key))
        put("instance", _copied(self.instance, readonly=True))
        put("built", _under("instance", _build, kind, _copied(self.instance),
                            self.horizon))
        for short, default in _SWEEP_DEFAULTS.items():
            key = f"{short}_values"
            value = getattr(self, key)
            if short not in record.sweeps:
                if value is not None:
                    raise ConfigError(f"{key} does not apply to kind {kind!r}", (key,))
                continue
            put(key, _as_sweep(key, (default,) if value is None else value))
            if short in record.positive and min(getattr(self, key)) <= 0:
                raise ConfigError(f"{kind} needs strictly positive {short}", (key,))
        _check_field("format", self.format)
        if not isinstance(self.oracle, bool):
            raise ConfigError("oracle must be true or false", ("oracle",))
        # a kind with nothing to simulate only evaluates its oracle
        put("oracle", self.oracle or record.simulate is None)
        if self.oracle:
            _under("oracle", _oracle, kind, self.built)
        _check_field("out_dir", self.out_dir)

    def derive(self, **changes) -> ExperimentConfig:
        """A copy with ``seed``, ``out_dir``, ``format`` or ``jobs`` changed,
        each checked as when a config is made. None of them reaches the
        instance, so the copy keeps this config's build."""
        derived = copy.copy(self)
        for key, value in changes.items():
            if key not in _RUN_FIELDS:
                raise TypeError(f"derive changes only {', '.join(_RUN_FIELDS)}, "
                                f"not {key}")
            _check_field(key, value)
            object.__setattr__(derived, key, value)
        return derived

    @property
    def param_keys(self) -> Tuple[str, ...]:
        return _RECORDS[self.kind].sweeps

    def param_grid(self) -> List[Dict[str, float]]:
        """Parameter points in row order: the cross product of the consumed
        sweep lists, v-major."""
        keys = self.param_keys
        lists = [getattr(self, f"{key}_values") for key in keys]
        return [dict(zip(keys, combo)) for combo in itertools.product(*lists)]

    def to_mapping(self) -> dict:
        """Plain JSON mapping that reconstructs this config exactly: every
        field but ``built``, save those left ``None`` (the sweeps the kind
        ignores, an unset output directory)."""
        return {key: _copied(getattr(self, key)) for key in _TOP_KEYS
                if getattr(self, key) is not None}


_TOP_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.init)
# the least value of each integer field, in the order they are checked
_COUNT_MINIMUMS = {"horizon": 1, "replications": 1, "seed": 0, "jobs": 1}
# the one point of each consumed sweep that is not given
_SWEEP_DEFAULTS = {"v": 1.0, "delta": 0.6, "alpha": 1.0}
# the fields ExperimentConfig.derive may change: none reaches the build
_RUN_FIELDS = ("seed", "out_dir", "format", "jobs")
# a finite float's bound: NaN, infinities and integers too large for a float exceed it
_FLOAT_MAX = sys.float_info.max
# every integer field is below int64's bound, past which numpy sizes and counts fail
_INT_BOUND = 2 ** 63


class _ReadOnly(dict):
    """A JSON object that cannot be changed once made; it pickles as itself."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a config's instance is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = \
        update = _refuse

    def __reduce__(self):
        return _ReadOnly, (dict(self),)


def _check_field(key: str, value) -> None:
    """Check a count, ``format`` or ``out_dir``: a field checked on its own."""
    if key in _COUNT_MINIMUMS:
        _as_number({key: value}, key, None, _COUNT_MINIMUMS[key])
    elif key == "format" and value not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {value!r}", (key,))
    elif key == "out_dir" and not (value is None or isinstance(value, str)):
        raise ConfigError("out_dir must be a path string", (key,))


def _copied(value, readonly: bool = False):
    """A deep copy of a JSON value as plain dicts and lists, or with
    ``readonly`` as read-only mappings and tuples."""
    if isinstance(value, Mapping):
        items = {key: _copied(item, readonly) for key, item in value.items()}
        return _ReadOnly(items) if readonly else items
    if isinstance(value, (list, tuple)):
        items = [_copied(item, readonly) for item in value]
        return tuple(items) if readonly else items
    return value


def _as_number(data, key, default, minimum, integer=True):
    """``data[key]``, or ``default`` when absent: an integer below 2**63, or
    with ``integer`` false a finite number made float, at least ``minimum``."""
    value = data.get(key, default)
    what = (int, "an integer") if integer else ((int, float), "a finite number")
    if isinstance(value, bool) or not isinstance(value, what[0]) \
            or not (integer or abs(value) <= _FLOAT_MAX):
        raise ConfigError(f"{key} must be {what[1]}", (key,))
    if value < minimum:
        raise ConfigError(f"{key} must be at least {minimum}, got {value}", (key,))
    if integer and value >= _INT_BOUND:
        raise ConfigError(f"{key} must be below 2**63", (key,))
    return value if integer else float(value)


def _as_sweep(key, value):
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise ConfigError(f"{key} must be a nonempty list of numbers", (key,))
    out = []
    for entry in value:
        if isinstance(entry, bool) or not isinstance(entry, (int, float)) \
                or not abs(entry) <= _FLOAT_MAX:
            raise ConfigError(f"{key} entries must be finite numbers", (key,))
        out.append(float(entry))
    return tuple(out)


def _located(err: ConfigError, source: str, text: Optional[str]) -> ConfigError:
    """``err`` prefixed with ``source:line``, the line of the deepest key of
    its path found in order in the raw config text (each key searched after
    the one before it); the bare source when there is no text or no key."""
    pos = -1
    for key in err.keys if text is not None else ():
        found = text.find(f'"{key}"', pos + 1)
        if found < 0:
            break
        pos = found
    where = source if pos < 0 else f"{source}:{text.count(chr(10), 0, pos) + 1}"
    return ConfigError(f"{where}: {err}", err.keys)


def config_from_mapping(data: Mapping, source: str = "<config>",
                        text: Optional[str] = None) -> ExperimentConfig:
    """Make an :class:`ExperimentConfig` from a plain mapping.

    Beyond the checks the config makes, this refuses keys that are not
    config fields and a missing kind, and names the offending key's line in
    each :class:`ConfigError` when the raw config text is given.
    """
    try:
        if not isinstance(data, Mapping):
            raise ConfigError("config must be a JSON object")
        for key in data:
            if key not in _TOP_KEYS:
                raise ConfigError(f"unknown config key {key!r}", (key,))
        if data.get("kind") is None:
            raise ConfigError("config needs a 'kind'")
        return ExperimentConfig(**data)
    except ConfigError as err:
        raise _located(err, source, text) from None


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config file."""
    with open(path) as handle:
        text = handle.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}: invalid JSON: {err.msg}")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}:1: top level must be a JSON object")
    return config_from_mapping(data, source=str(path), text=text)


# ---------------------------------------------------------------------------
# metrics files
# ---------------------------------------------------------------------------


def write_metrics(log: Mapping[str, Sequence], path, format: str = "csv") -> None:
    """Write named columns to ``path`` as CSV or JSON.

    Column order is the mapping's insertion order and is preserved exactly in
    both formats. Floats are rounded to 12 significant digits on the way out,
    identically in CSV and JSON, so the two formats parse back to the same
    numbers; integer columns stay integers.
    """
    columns = list(log)
    if not columns:
        raise ValueError("need at least one column")
    arrays = {name: np.asarray(log[name]) for name in columns}
    for name, arr in arrays.items():
        if arr.ndim != 1:
            raise ValueError(f"column {name!r} must be one dimensional")
        if arr.size and not np.issubdtype(arr.dtype, np.number):
            raise ValueError(f"column {name!r} must be numeric")
    lengths = {arr.size for arr in arrays.values()}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    cells, parse = [], {}
    for name in columns:
        arr = arrays[name]
        integral = arr.size and np.issubdtype(arr.dtype, np.integer)
        cells.append([str(int(x)) if integral else "%.12g" % x for x in arr])
        parse[name] = int if integral else float
    if format == "csv":
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(columns)
            writer.writerows(zip(*cells))
    else:
        values = {name: [parse[name](c) for c in col]
                  for name, col in zip(columns, cells)}
        with open(path, "w") as handle:
            handle.write(json.dumps({"columns": columns, "values": values},
                                    indent=2) + "\n")


# ---------------------------------------------------------------------------
# experiment kinds
# ---------------------------------------------------------------------------


def derive_seeds(master_seed: int, param_index: int, replication: int) -> Tuple[int, int]:
    """(run seed, auxiliary seed) for one grid cell.

    Both are words of ``SeedSequence(master_seed, spawn_key=(param_index,
    replication))``, so they depend only on the cell's grid position.
    """
    words = np.random.SeedSequence(
        master_seed, spawn_key=(param_index, replication)).generate_state(2)
    return int(words[0]), int(words[1])


@dataclass(frozen=True)
class _Kind:
    """One experiment kind, described in one place.

    ``sweeps``: the sweep keys it consumes, in grid order; ``positive``: those
    that must be > 0. ``build(instance, horizon)`` validates the raw instance,
    raising ConfigError with the offending key's path, into what
    ``simulate(built, horizon, params, run_seed, aux_seed)`` turns into a row;
    it runs once per config, and a simulated kind's build pickles to workers.
    ``oracle(built)`` raises ConfigError unless it covers the instance, and
    otherwise returns the zero-argument solve of its stationary optimum.
    ``gap``: the column compared with the optimum, and +1 for column -
    optimum (a penalty) or -1 for optimum - column (a reward).
    """

    sweeps: Tuple[str, ...]
    positive: Tuple[str, ...]
    instance_keys: Tuple[str, ...]
    build: Callable[[Mapping, int], object]
    simulate: Optional[Callable[..., dict]] = None
    oracle: Optional[Callable[[object], Callable[[], float]]] = None
    gap: Optional[Tuple[str, int]] = None


def _need(instance: Mapping, key: str, kind: str):
    if key not in instance:
        raise ConfigError(f"kind {kind!r} needs instance key {key!r}", (key,))
    return instance[key]


def _under(key: str, fn, *args):
    """``fn(*args)``, with the key path of its ConfigError put under ``key``."""
    try:
        return fn(*args)
    except ConfigError as err:
        raise ConfigError(str(err), (key,) + err.keys) from None


def _build(kind: str, instance, horizon: int) -> object:
    """Check the instance's keys against ``kind``, then build it for
    ``horizon``."""
    if not isinstance(instance, Mapping):
        raise ConfigError("instance must be an object")
    record = _RECORDS[kind]
    for key in instance:
        if key not in record.instance_keys:
            raise ConfigError(f"instance key {key!r} does not apply to "
                              f"kind {kind!r}", (key,))
    return record.build(instance, horizon)


def _oracle(kind: str, built):
    """The zero-argument solve of ``kind``'s oracle for a built instance."""
    record = _RECORDS[kind]
    if record.oracle is None:
        raise ConfigError(f"kind {kind!r} has no oracle")
    return record.oracle(built)


def oracle_value(kind: str, built) -> float:
    """Stationary LP optimum of a built instance, independent of the sweeps
    and of the horizon it was built for: the per-slot objective (penalty) or,
    for bandit, the weighted throughput of the composite download chain. The
    datacenter kind has none."""
    return float(_oracle(kind, built)())


def _energy_oracle(n_servers):
    load = coupled.energy_load(n_servers)
    if load >= 1.0:
        raise ConfigError(f"n_servers {n_servers} leaves the energy instance "
                          f"overloaded (load {load:.3f} >= 1), so its oracle "
                          f"LP is infeasible", ("n_servers",))
    return functools.partial(coupled.energy_oracle_value, n_servers)


def _energy_simulate(n_servers, horizon, params, run_seed, aux_seed):
    # the spec is made here, not at load: its probe draw imports numpy.random
    spec = coupled.energy_scheduling_spec(n_servers)
    log = coupled.run(spec, params["v"], horizon, run_seed)
    row = {"penalty_avg": log.final_penalty_avg}
    for i, value in enumerate(log.final_metrics_avg):
        row[f"metric_avg_{i}"] = float(value)
    row["queue_max"] = float(log.queues.max())
    return row


def _trace_maker(spec, horizon: int):
    """The trace spec built for ``horizon``: a ``path``'s Trace of at least
    ``horizon`` rows, or ``make(seed=aux_seed)``, whose arguments a zero-slot
    (uniform) or one-slot (ramp) call checks once, here."""
    spec = {"kind": "uniform"} if spec is None else spec
    if not isinstance(spec, Mapping):
        raise ConfigError("instance key 'trace' must be an object", ("trace",))
    tag = "path" if "path" in spec else spec.get("kind")
    try:
        if tag == "path":
            trace = datacenter.load_trace(spec["path"])
            if len(trace) < horizon:
                raise ValueError(f"{len(trace)} rows, fewer than horizon {horizon}")
            return trace
        if tag == "uniform":
            ranges = spec.get("arrival_range", (10, 30)), spec.get("cost_range", (1, 6))
            datacenter.uniform_trace(0, *ranges)
            return functools.partial(datacenter.uniform_trace, horizon, *ranges)
        if tag == "ramp":
            shape = (float(spec["base_rate"]), float(spec["peak_rate"]),
                     spec["ramp_start"], spec["ramp_end"])
            cost = float(spec.get("cost", 1.0))
            datacenter.ramp_trace(1, *shape[:2], 0, 1, cost=cost)
    except KeyError as err:
        raise ConfigError(f"ramp trace needs key {err}", ("trace",)) from None
    except (OSError, IndexError, TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"trace: {err}", ("trace",)) from None
    if tag != "ramp":
        raise ConfigError(f"trace kind must be 'uniform' or 'ramp', got {tag!r}",
                          ("trace", "kind"))
    start, end = (_under("trace", _as_number, spec, key, None, 0)
                  for key in ("ramp_start", "ramp_end"))
    if not start < end <= horizon:
        raise ConfigError(f"ramp trace needs ramp_start < ramp_end <= horizon "
                          f"{horizon}, got {start} and {end}", ("trace", "ramp_end"))
    return functools.partial(datacenter.ramp_trace, horizon, *shape, cost=cost)


def _parse_mode(raw):
    if raw is None or raw == "n-queue" or raw == "virtualized":
        return raw or "n-queue"
    if isinstance(raw, (list, tuple)) and len(raw) == 2 \
            and raw[0] in ("always-on", "reactive"):
        return (raw[0], raw[1])
    raise ConfigError(f"unknown datacenter mode {raw!r}", ("mode",))


def _datacenter_build(instance: Mapping, horizon: int):
    entries = _need(instance, "servers", "datacenter")
    if not isinstance(entries, (list, tuple)) or not entries:
        raise ConfigError("instance key 'servers' must be a nonempty list", ("servers",))
    cfgs = []
    for pos, entry in enumerate(entries):
        try:
            cfgs.append(datacenter.ServerConfig(
                active_power=float(entry["active_power"]),
                mu_dist=tuple(entry["mu"]),
                sleep_modes=[datacenter.SleepMode(*m) for m in entry["sleep_modes"]],
                i_max=_as_number(entry, "i_max", None, 1),
                r_max=float(entry["r_max"])))
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"servers[{pos}]: {err}", ("servers",)) from None
    return (cfgs, _parse_mode(instance.get("mode")),
            _as_number(instance, "min_active", 0, 0),
            _trace_maker(instance.get("trace"), horizon))


def _datacenter_simulate(built, horizon, params, run_seed, aux_seed):
    cfgs, mode, min_active, trace = built
    log = datacenter.run_datacenter(
        cfgs, trace(seed=aux_seed) if callable(trace) else trace, params["v"],
        mode=mode, seed=run_seed, horizon=horizon, min_active=min_active)
    return {"power_avg": log.final_power_avg, "cost_avg": log.final_cost_avg,
            "backlog_avg": log.final_backlog_avg,
            "reject_avg": float(log.rejected.mean()),
            "active_avg": float(log.active_servers.mean()),
            "queue_max": float(log.max_queue.max())}


def _bandit_build(instance: Mapping, horizon: int):
    users = _need(instance, "users", "bandit")
    file_dist = instance.get("file_dist", "geometric")
    if file_dist not in ("geometric", "uniform", "poisson"):
        raise ConfigError("file_dist must be 'geometric', 'uniform' or "
                          f"'poisson', got {file_dist!r}", ("file_dist",))
    if users == "table-one":
        built = bandit.table_one_users()
    elif users == "table-two":
        built = bandit.table_two_users(file_dist)
    elif isinstance(users, (list, tuple)) and users:
        built = []
        for pos, entry in enumerate(users):
            try:
                built.append(bandit.UserSpec(
                    lam=float(entry["lam"]), mean_file=float(entry["mean_file"]),
                    actions=tuple(tuple(a) for a in entry["actions"]),
                    weight=float(entry.get("weight", 1.0))))
            except (KeyError, TypeError, ValueError, OverflowError) as err:
                raise ConfigError(f"users[{pos}]: {err}", ("users",)) from None
    else:
        raise ConfigError("instance key 'users' must be 'table-one', "
                          "'table-two', or a list of user objects", ("users",))
    _need(instance, "m_servers", "bandit")
    _need(instance, "beta", "bandit")
    m_servers = _as_number(instance, "m_servers", None, 1)
    if m_servers >= len(built):
        raise ConfigError(f"m_servers must be below the number of users "
                          f"({len(built)}), got {m_servers}", ("m_servers",))
    return built, m_servers, _as_number(instance, "beta", None, 0, False), file_dist


def _bandit_simulate(built, horizon, params, run_seed, aux_seed):
    users, m_servers, beta, _ = built
    out = bandit.multi_user_run(users, params["v"], m_servers, beta, horizon,
                                run_seed)
    return {"throughput_avg": out["throughput_avg"], "power_avg": out["power_avg"],
            "queue_max": float(out["queue"].max())}


def _bandit_oracle(built):
    """The composite download chain covers memoryless users only: explicit
    user lists and table-two users with geometric files, whose served file
    completes with probability phi each slot, exactly the chain's law."""
    users, m_servers, beta, file_dist = built
    if file_dist != "geometric" and any(
            u.file_length_sampler is not None for u in users):
        raise ConfigError("the bandit oracle covers memoryless users only")
    return lambda: lp.coupled_mdp_optimal(
        [u.lam for u in users], [u.weight for u in users],
        [u.mean_file for u in users], [u.actions for u in users],
        served_limit=m_servers, power_budget=beta).value


def _online_build(instance: Mapping, horizon: int):
    model = instance.get("model", "file-download")
    if model != "file-download":
        raise ConfigError(f"unknown renewal model {model!r}", ("model",))
    theta_max = instance.get("theta_max")
    if theta_max is not None:
        theta_max = _as_number(instance, "theta_max", None, 0, False)
    return online.file_download_example(), theta_max


def _online_simulate(built, horizon, params, run_seed, aux_seed):
    model, theta_max = built
    log = online.run(model, v=params["v"], delta=params["delta"],
                     n_frames=horizon, seed=run_seed, theta_max=theta_max)
    row = {"penalty_avg": log.penalty_time_avg}
    for i, value in enumerate(log.metrics_time_avg):
        row[f"metric_avg_{i}"] = float(value)
    row["frame_len_avg"] = log.total_slots / log.n_frames
    row["theta_final"] = float(log.theta[-1])
    row["queue_max"] = float(log.queues.max())
    return row


def _online_oracle(built):
    model = built[0]
    return lambda: lp.conditional_ratio_optimal(
        model.event_probs, model.exp_penalty, model.exp_frame_len,
        model.exp_metrics, model.budgets)


def _ocmdp_build(instance: Mapping, horizon: int):
    if "path" in instance and "example" in instance:
        raise ConfigError("give the ocmdp instance either a 'path' or an "
                          "'example', not both", ("path",))
    if "path" in instance:
        try:
            return ocmdp.load_instance(instance["path"])
        except (OSError, KeyError, TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"cannot load ocmdp instance: {err}",
                              ("path",)) from None
    example = instance.get("example", "two-mdp")
    if example != "two-mdp":
        raise ConfigError(f"unknown ocmdp example {example!r}", ("example",))
    return ocmdp.two_mdp_example(_as_number(instance, "noise", 0.25, 0, False))


def _ocmdp_simulate(instance, horizon, params, run_seed, aux_seed):
    log = ocmdp.run_ocmdp(instance, horizon, v=params["v"], alpha=params["alpha"],
                          seed=run_seed)
    row = {"penalty_avg": float(log.realized_f.mean())}
    for i in range(log.n_constraints):
        row[f"violation_avg_{i}"] = float(log.realized_g[:, i].mean())
    row["queue_max"] = float(log.queues.max())
    return row


def _oracle_only_build(instance: Mapping, horizon: int):
    """The target kind's oracle solve, with the nested instance checked by
    the target's own build."""
    target = _need(instance, "target", "oracle-only")
    record = _RECORDS.get(target) if isinstance(target, str) else None
    if record is None or record.simulate is None:
        raise ConfigError(f"oracle-only target must name a simulated kind, "
                          f"got {target!r}", ("target",))
    built = _under("instance", _build, target, instance.get("instance", {}),
                   horizon)
    return _under("target", _oracle, target, built)


_RECORDS: Dict[str, _Kind] = {
    # sweeps, positive sweeps, instance keys, build, simulate, oracle, gap
    "coupled-energy": _Kind(
        ("v",), ("v",), ("n_servers",),
        lambda instance, horizon: _as_number(instance, "n_servers", 5, 1),
        _energy_simulate,
        _energy_oracle,
        ("penalty_avg", 1)),
    "datacenter": _Kind(
        ("v",), (), ("servers", "mode", "min_active", "trace"),
        _datacenter_build, _datacenter_simulate),
    "bandit": _Kind(
        ("v",), ("v",), ("users", "file_dist", "m_servers", "beta"),
        _bandit_build, _bandit_simulate, _bandit_oracle, ("throughput_avg", -1)),
    "online-renewal": _Kind(
        ("v", "delta"), ("v",), ("model", "theta_max"), _online_build,
        _online_simulate, _online_oracle, ("penalty_avg", 1)),
    "ocmdp": _Kind(
        ("v", "alpha"), ("alpha",), ("path", "example", "noise"),
        _ocmdp_build, _ocmdp_simulate,
        lambda instance: lambda: ocmdp.solve_baseline(instance).value,
        ("penalty_avg", 1)),
    # builds to its target's oracle solve, which is then its own oracle
    "oracle-only": _Kind((), (), ("target", "instance"), _oracle_only_build,
                         oracle=lambda solve: solve),
}


def _run_cell(task) -> Tuple[dict, float]:
    """One grid cell: ``task`` is ``(simulate, built, horizon, params,
    run_seed, aux_seed)``, the kind's simulate and its arguments, with the
    instance the config built at load."""
    start = time.perf_counter()
    simulate, *args = task
    return simulate(*args), time.perf_counter() - start


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


@dataclass
class RunSummary:
    """Row-per-cell results plus their per-parameter-point aggregates.

    ``rows[i]`` holds exactly the keys in ``columns``; ``timings[i]`` is that
    cell's wall-clock seconds and ``workers`` the number of worker processes
    the cells ran on, 0 when serial (both kept off the files so outputs stay
    reproducible). ``aggregates`` carries, for each parameter point, the mean
    over replications of every result column, folded in row order.
    """

    kind: str
    columns: List[str]
    rows: List[dict]
    aggregates: List[dict]
    timings: List[float]
    total_seconds: float
    config_echo: dict
    workers: int

    @property
    def n_rows(self) -> int:
        return len(self.rows)


def aggregate_rows(columns: Sequence[str], rows: Sequence[Mapping],
                   param_keys: Sequence[str],
                   replications: int) -> List[dict]:
    """Mean of every result column per parameter point, folded in row order.

    Result columns are everything after the parameter, replication, and seed
    columns. Rows must be grouped by parameter point with ``replications``
    consecutive rows each, which is how :func:`run_experiment` emits them.
    """
    skip = set(param_keys) | {"replication", "seed"}
    result_cols = [name for name in columns if name not in skip]
    out = []
    for start in range(0, len(rows), replications):
        group = rows[start:start + replications]
        point = {key: group[0][key] for key in param_keys}
        means = {}
        for name in result_cols:
            total = 0.0
            for row in group:
                total += row[name]
            means[name] = total / len(group)
        out.append({"params": point, "replications": len(group),
                    "means": means})
    return out


def run_experiment(config: ExperimentConfig) -> RunSummary:
    """Expand the sweep grid, simulate every cell, and fold the summary.

    Cells run serially or across ``config.jobs`` worker processes, at most
    one per cell and per core; the fold is in grid order either way, so the
    worker count never changes a single written byte. With ``config.out_dir`` set, writes ``rows.csv`` (or
    ``rows.json`` per ``config.format``) and the nested ``summary.json``.
    """
    record = _RECORDS[config.kind]
    grid = config.param_grid()
    oracle = oracle_value(config.kind, config.built) if config.oracle else None

    start_all = time.perf_counter()
    tasks, cells = [], []
    for p_idx, params in enumerate(grid):
        for rep in range(config.replications):
            run_seed, aux_seed = derive_seeds(config.seed, p_idx, rep)
            cells.append((params, rep, run_seed))
            if record.simulate is not None:
                tasks.append((record.simulate, config.built, config.horizon,
                              params, run_seed, aux_seed))

    # a fork pool starts all its workers at once: no more than cells or cores
    workers = min(config.jobs, len(tasks), os.cpu_count() or 1)
    if not tasks:
        results = [({}, 0.0)] * len(cells)
    elif workers == 1:
        results = [_run_cell(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, tasks))

    rows, timings = [], []
    for (params, rep, run_seed), (result, elapsed) in zip(cells, results):
        row = dict(params, replication=rep, seed=run_seed, **result)
        if oracle is not None:
            row["oracle_value"] = oracle
            if record.gap is not None:
                column, sign = record.gap
                row["oracle_gap"] = (result[column] - oracle if sign > 0
                                     else oracle - result[column])
        rows.append(row)
        timings.append(elapsed)

    columns = list(rows[0].keys())
    aggregates = aggregate_rows(columns, rows, config.param_keys,
                                config.replications)
    summary = RunSummary(
        kind=config.kind, columns=columns, rows=rows, aggregates=aggregates,
        timings=timings, total_seconds=time.perf_counter() - start_all,
        # the fields that determine the written bytes: all but out_dir and jobs
        config_echo={key: value for key, value in config.to_mapping().items()
                     if key not in ("out_dir", "jobs")},
        workers=workers if workers > 1 else 0)
    if config.out_dir is not None:
        _write_outputs(summary, config.out_dir, config.format)
    return summary


def _write_outputs(summary: RunSummary, out_dir, fmt: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    rows_name = "rows.csv" if fmt == "csv" else "rows.json"
    table = {name: [row[name] for row in summary.rows] for name in summary.columns}
    write_metrics(table, os.path.join(out_dir, rows_name), fmt)
    nested = {"experiment": summary.config_echo, "columns": summary.columns,
              "aggregates": summary.aggregates}
    with open(os.path.join(out_dir, "summary.json"), "w") as handle:
        handle.write(json.dumps(nested, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# invariants suite
# ---------------------------------------------------------------------------


def invariants_report(config: Optional[ExperimentConfig] = None):
    """Check the harness invariants on a config and report per-check lines.

    Runs the experiment twice into scratch directories and compares bytes,
    then reruns with up to two worker processes and compares aggregates; the
    detail names the workers that ran, or says that none could start (one
    cell or one core), so that serial was compared with serial. Returns
    (name, passed, detail) triples. The default config is a small
    coupled-energy sweep.
    """
    import tempfile

    if config is None:
        config = ExperimentConfig(kind="coupled-energy", v_values=(1.0, 10.0),
                                  horizon=200, replications=2, seed=7)
    report = []
    with tempfile.TemporaryDirectory() as scratch:
        dir_a, dir_b = (os.path.join(scratch, name) for name in "ab")
        summary_a = run_experiment(config.derive(out_dir=dir_a, jobs=1))
        run_experiment(config.derive(out_dir=dir_b, jobs=1))
        _, differ, missing = filecmp.cmpfiles(
            dir_a, dir_b, sorted(os.listdir(dir_a)), shallow=False)
        differ += missing
        report.append(("determinism", not differ,
                       f"{differ[0]} differs between identical runs" if differ
                       else "reran bit-identically"))

        summary_par = run_experiment(config.derive(out_dir=None, jobs=2))
        agree = summary_par.aggregates == summary_a.aggregates \
            and summary_par.rows == summary_a.rows
        workers = summary_par.workers
        detail = (f"{workers}-worker aggregates match serial" if workers
                  else f"no worker started for {len(summary_par.rows)} cell(s) "
                  f"on {os.cpu_count() or 1} core(s); serial matches serial")
        report.append(("parallel-fold", agree,
                       detail if agree else "parallel aggregates diverged"))
    return report
