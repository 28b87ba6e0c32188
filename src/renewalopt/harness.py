"""Experiment configs, replication fan-out, and metrics files.

A plain JSON mapping describes one experiment: which simulator to drive
(``kind``, each described by one ``_Kind`` record), its instance, the sweeps,
horizon, replication count, and master seed. :func:`run_experiment` expands
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

import csv
import filecmp
import functools
import itertools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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


@dataclass
class ExperimentConfig:
    """Validated description of one experiment.

    ``horizon`` counts slots for the slotted kinds and frames for
    online-renewal. Sweep lists not consumed by ``kind`` keep their defaults
    and may not be set explicitly. ``oracle`` attaches the stationary LP
    baseline of the instance to every row; oracle-only implies it.
    """

    kind: str
    instance: dict = field(default_factory=dict)
    v_values: Tuple[float, ...] = (1.0,)
    delta_values: Tuple[float, ...] = (0.6,)
    alpha_values: Tuple[float, ...] = (1.0,)
    horizon: int = 1
    replications: int = 1
    seed: int = 0
    out_dir: Optional[str] = None
    format: str = "csv"
    oracle: bool = False
    jobs: int = 1

    @functools.cached_property
    def built(self) -> object:
        """The kind's build of the instance, stored by the loader or made once."""
        return _under("instance", _build, self.kind, self.instance, self.horizon)

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
        """Plain JSON mapping that reconstructs this config exactly.

        Sweep lists the kind ignores are omitted (the schema rejects them
        when given explicitly), as is an unset output directory.
        """
        data: dict = {"kind": self.kind, "instance": dict(self.instance)}
        for short in self.param_keys:
            data[f"{short}_values"] = list(getattr(self, f"{short}_values"))
        data.update(horizon=self.horizon, replications=self.replications,
                    seed=self.seed, format=self.format, oracle=self.oracle,
                    jobs=self.jobs)
        if self.out_dir is not None:
            data["out_dir"] = self.out_dir
        return data

    def identity_mapping(self) -> dict:
        """The part of the config that determines the written bytes: every
        field except the output location and worker count."""
        return {key: value for key, value in self.to_mapping().items()
                if key not in ("out_dir", "jobs")}


_TOP_KEYS = tuple(f.name for f in fields(ExperimentConfig))
# the least value of each integer field, for the loader and the CLI overrides
_COUNT_MINIMUMS = {"horizon": 1, "replications": 1, "seed": 0, "jobs": 1}
# a finite float's bound: NaN, infinities and integers too large for a float exceed it
_FLOAT_MAX = sys.float_info.max


def _as_number(data, key, default, minimum, integer=True):
    """``data[key]``, or ``default`` when absent: an integer, or with
    ``integer`` false a finite number made float, at least ``minimum``."""
    value = data.get(key, default)
    what = (int, "an integer") if integer else ((int, float), "a finite number")
    if isinstance(value, bool) or not isinstance(value, what[0]) \
            or not (integer or abs(value) <= _FLOAT_MAX):
        raise ConfigError(f"{key} must be {what[1]}", (key,))
    if value < minimum:
        raise ConfigError(f"{key} must be at least {minimum}, got {value}", (key,))
    return value if integer else float(value)


def _as_sweep(data, key, default):
    value = data.get(key)
    if value is None:
        return default
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
    """Validate a plain mapping into an :class:`ExperimentConfig`.

    The kind builds the instance once and checks an oracle request against
    it, so every schema error surfaces here, as a :class:`ConfigError` naming
    the offending key, with its line when the raw config text is given.
    """
    try:
        return _validated(data)
    except ConfigError as err:
        raise _located(err, source, text) from None


def _validated(data: Mapping) -> ExperimentConfig:
    if not isinstance(data, Mapping):
        raise ConfigError("config must be a JSON object")
    for key in data:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown config key {key!r}", (key,))
    kind = data.get("kind")
    if kind is None:
        raise ConfigError("config needs a 'kind'")
    if not isinstance(kind, str) or kind not in _RECORDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; expected one "
                          f"of {', '.join(_RECORDS)}", ("kind",))
    record = _RECORDS[kind]
    instance = data.get("instance", {})
    defaults = ExperimentConfig(kind=kind)
    counts = {key: _as_number(data, key, getattr(defaults, key), minimum)
              for key, minimum in _COUNT_MINIMUMS.items()}
    built = _under("instance", _build, kind, instance, counts["horizon"])

    sweeps = {}
    for short in ("v", "delta", "alpha"):
        key = f"{short}_values"
        if key in data and short not in record.sweeps:
            raise ConfigError(f"{key} does not apply to kind {kind!r}", (key,))
        sweeps[key] = _as_sweep(data, key, getattr(defaults, key))
        if short in record.positive and min(sweeps[key]) <= 0:
            raise ConfigError(f"{kind} needs strictly positive {short}", (key,))

    fmt = data.get("format", defaults.format)
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}", ("format",))
    oracle = data.get("oracle", defaults.oracle)
    if not isinstance(oracle, bool):
        raise ConfigError("oracle must be true or false", ("oracle",))
    # a kind with nothing to simulate only evaluates its oracle
    oracle = oracle or record.simulate is None
    if oracle:
        _under("oracle", _oracle, kind, built)
    out_dir = data.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("out_dir must be a path string", ("out_dir",))

    config = ExperimentConfig(kind=kind, instance=dict(instance), out_dir=out_dir,
                              format=fmt, oracle=oracle, **sweeps, **counts)
    vars(config)["built"] = built
    return config


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


def _column_array(name, values):
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"column {name!r} must be one dimensional")
    if arr.size and not np.issubdtype(arr.dtype, np.number):
        raise ValueError(f"column {name!r} must be numeric")
    return arr


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
    arrays = {name: _column_array(name, log[name]) for name in columns}
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
    cell's wall-clock seconds (kept off the files so outputs stay
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

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def row_table(self) -> Dict[str, np.ndarray]:
        """Columns as arrays, in summary column order."""
        out: Dict[str, np.ndarray] = {}
        for name in self.columns:
            values = [row[name] for row in self.rows]
            integral = all(isinstance(v, (int, np.integer))
                           and not isinstance(v, bool) for v in values)
            out[name] = np.asarray(values,
                                   dtype=np.int64 if integral else float)
        return out

    def summary_mapping(self) -> dict:
        return {"experiment": self.config_echo, "columns": self.columns,
                "aggregates": self.aggregates}


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

    Cells run serially or across ``config.jobs`` worker processes; the fold
    is in grid order either way, so the worker count never changes a single
    written byte. With ``config.out_dir`` set, writes ``rows.csv`` (or
    ``rows.json`` per ``config.format``) and the nested ``summary.json``.
    """
    record = _RECORDS[config.kind]
    grid = config.param_grid()
    oracle = oracle_value(config.kind, config.built) if config.oracle else None

    start_all = time.perf_counter()
    tasks = []
    cells = []
    for p_idx, params in enumerate(grid):
        for rep in range(config.replications):
            run_seed, aux_seed = derive_seeds(config.seed, p_idx, rep)
            cells.append((params, rep, run_seed))
            if record.simulate is not None:
                tasks.append((record.simulate, config.built, config.horizon,
                              params, run_seed, aux_seed))

    if not tasks:
        results = [({}, 0.0)] * len(cells)
    elif config.jobs == 1 or len(tasks) == 1:
        results = [_run_cell(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(_run_cell, tasks))

    rows = []
    timings = []
    for (params, rep, run_seed), (result, elapsed) in zip(cells, results):
        row = dict(params)
        row["replication"] = rep
        row["seed"] = run_seed
        row.update(result)
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
        config_echo=config.identity_mapping(),
    )
    if config.out_dir is not None:
        _write_outputs(summary, config.out_dir, config.format)
    return summary


def _write_outputs(summary: RunSummary, out_dir, fmt: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    rows_name = "rows.csv" if fmt == "csv" else "rows.json"
    write_metrics(summary.row_table(), os.path.join(out_dir, rows_name), fmt)
    with open(os.path.join(out_dir, "summary.json"), "w") as handle:
        handle.write(json.dumps(summary.summary_mapping(), indent=2,
                                sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# invariants suite
# ---------------------------------------------------------------------------


def invariants_report(config: Optional[ExperimentConfig] = None):
    """Check the harness invariants on a config and report per-check lines.

    Runs the experiment twice into scratch directories and compares bytes,
    then reruns with two worker processes and compares aggregates. Returns
    (name, passed, detail) triples. The default config is a small
    coupled-energy sweep.
    """
    import tempfile

    def variant(**changes):
        # replace() drops the cached build; each rerun keeps the one made at load
        rerun = replace(config, **changes)
        vars(rerun)["built"] = config.built
        return rerun

    if config is None:
        config = ExperimentConfig(kind="coupled-energy",
                                  v_values=(1.0, 10.0), horizon=200,
                                  replications=2, seed=7)
    report = []
    with tempfile.TemporaryDirectory() as scratch:
        dir_a, dir_b = (os.path.join(scratch, name) for name in "ab")
        summary_a = run_experiment(variant(out_dir=dir_a, jobs=1))
        run_experiment(variant(out_dir=dir_b, jobs=1))
        _, differ, missing = filecmp.cmpfiles(
            dir_a, dir_b, sorted(os.listdir(dir_a)), shallow=False)
        differ += missing
        report.append(("determinism", not differ,
                       f"{differ[0]} differs between identical runs" if differ
                       else "reran bit-identically"))

        summary_par = run_experiment(variant(out_dir=None, jobs=2))
        agree = summary_par.aggregates == summary_a.aggregates \
            and summary_par.rows == summary_a.rows
        report.append(("parallel-fold", agree,
                       "2-worker aggregates match serial" if agree
                       else "parallel aggregates diverged"))
    return report
