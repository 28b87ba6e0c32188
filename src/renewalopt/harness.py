"""Experiment configs, replication fan-out, and metrics files.

A plain JSON mapping describes one experiment: which simulator to drive
(``kind``), its instance parameters, the parameter sweeps, horizon,
replication count, and master seed. :func:`run_experiment` expands the sweep
grid, runs every (parameter point, replication) cell, and folds the rows into
a :class:`RunSummary` whose aggregates are exact recomputations of the rows.

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
import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from renewalopt import bandit, coupled, datacenter, lp, ocmdp, online


class ConfigError(ValueError):
    """A config file or mapping violates the experiment schema."""


_KINDS = (
    "coupled-energy",
    "datacenter",
    "bandit",
    "online-renewal",
    "ocmdp",
    "oracle-only",
)

# sweep keys each kind consumes, in grid order
_PARAM_KEYS: Dict[str, Tuple[str, ...]] = {
    "coupled-energy": ("v",),
    "datacenter": ("v",),
    "bandit": ("v",),
    "online-renewal": ("v", "delta"),
    "ocmdp": ("v", "alpha"),
    "oracle-only": (),
}

_INSTANCE_KEYS: Dict[str, Tuple[str, ...]] = {
    "coupled-energy": ("n_servers",),
    "datacenter": ("servers", "mode", "min_active", "trace"),
    "bandit": ("users", "file_dist", "m_servers", "beta"),
    "online-renewal": ("model", "theta_max"),
    "ocmdp": ("path", "example", "noise", "check_slater"),
    "oracle-only": ("target", "instance"),
}

_TOP_KEYS = (
    "kind",
    "instance",
    "v_values",
    "delta_values",
    "alpha_values",
    "horizon",
    "replications",
    "seed",
    "out_dir",
    "format",
    "oracle",
    "jobs",
)


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

    @property
    def param_keys(self) -> Tuple[str, ...]:
        return _PARAM_KEYS[self.kind]

    def param_grid(self) -> List[Dict[str, float]]:
        """Parameter points in row order: the cross product of the consumed
        sweep lists, v-major."""
        lists = {"v": self.v_values, "delta": self.delta_values,
                 "alpha": self.alpha_values}
        keys = self.param_keys
        if not keys:
            return [{}]
        return [dict(zip(keys, combo))
                for combo in itertools.product(*(lists[k] for k in keys))]

    def to_mapping(self) -> dict:
        """Plain JSON mapping that reconstructs this config exactly.

        Sweep lists the kind ignores are omitted (the schema rejects them
        when given explicitly), as is an unset output directory.
        """
        data: dict = {"kind": self.kind, "instance": dict(self.instance)}
        if "v" in self.param_keys:
            data["v_values"] = list(self.v_values)
        if "delta" in self.param_keys:
            data["delta_values"] = list(self.delta_values)
        if "alpha" in self.param_keys:
            data["alpha_values"] = list(self.alpha_values)
        data.update(horizon=self.horizon, replications=self.replications,
                    seed=self.seed, format=self.format, oracle=self.oracle,
                    jobs=self.jobs)
        if self.out_dir is not None:
            data["out_dir"] = self.out_dir
        return data

    def identity_mapping(self) -> dict:
        """The part of the config that determines the written bytes: every
        field except the output location and worker count."""
        data = self.to_mapping()
        data.pop("out_dir", None)
        data.pop("jobs", None)
        return data


class _Locator:
    """Points schema errors at the first occurrence of a key in the raw
    config text; falls back to the bare source name for built mappings."""

    def __init__(self, source: str, text: Optional[str]):
        self.source = source
        self.text = text

    def where(self, key: Optional[str]) -> str:
        if key is not None and self.text is not None:
            idx = self.text.find(f'"{key}"')
            if idx >= 0:
                return f"{self.source}:{self.text.count(chr(10), 0, idx) + 1}"
        return self.source

    def fail(self, key: Optional[str], message: str) -> ConfigError:
        return ConfigError(f"{self.where(key)}: {message}")


def _as_int(loc, data, key, default, minimum):
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise loc.fail(key, f"{key} must be an integer")
    if value < minimum:
        raise loc.fail(key, f"{key} must be at least {minimum}, got {value}")
    return value


def _as_sweep(loc, data, key, default):
    value = data.get(key)
    if value is None:
        return default
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise loc.fail(key, f"{key} must be a nonempty list of numbers")
    out = []
    for entry in value:
        if isinstance(entry, bool) or not isinstance(entry, (int, float)) \
                or not np.isfinite(entry):
            raise loc.fail(key, f"{key} entries must be finite numbers")
        out.append(float(entry))
    return tuple(out)


def config_from_mapping(data: Mapping, source: str = "<config>",
                        text: Optional[str] = None) -> ExperimentConfig:
    """Validate a plain mapping into an :class:`ExperimentConfig`.

    Raises :class:`ConfigError` naming the offending key, with a line number
    when the raw config text is available.
    """
    loc = _Locator(source, text)
    if not isinstance(data, Mapping):
        raise loc.fail(None, "config must be a JSON object")
    for key in data:
        if key not in _TOP_KEYS:
            raise loc.fail(key, f"unknown config key {key!r}")
    kind = data.get("kind")
    if kind is None:
        raise loc.fail(None, "config needs a 'kind'")
    if kind not in _KINDS:
        raise loc.fail("kind", f"unknown experiment kind {kind!r}; "
                               f"expected one of {', '.join(_KINDS)}")

    instance = data.get("instance", {})
    if not isinstance(instance, Mapping):
        raise loc.fail("instance", "instance must be an object")
    allowed = _INSTANCE_KEYS[kind]
    for key in instance:
        if key not in allowed:
            raise loc.fail(key, f"instance key {key!r} does not apply to "
                                f"kind {kind!r}")

    used = _PARAM_KEYS[kind]
    for sweep_key, short in (("v_values", "v"), ("delta_values", "delta"),
                             ("alpha_values", "alpha")):
        if sweep_key in data and short not in used:
            raise loc.fail(sweep_key,
                           f"{sweep_key} does not apply to kind {kind!r}")
    defaults = ExperimentConfig(kind=kind)
    v_values = _as_sweep(loc, data, "v_values", defaults.v_values)
    delta_values = _as_sweep(loc, data, "delta_values", defaults.delta_values)
    alpha_values = _as_sweep(loc, data, "alpha_values", defaults.alpha_values)
    if kind == "online-renewal" and min(v_values) <= 0:
        raise loc.fail("v_values", "online-renewal needs strictly positive v")
    if kind == "ocmdp" and min(alpha_values) <= 0:
        raise loc.fail("alpha_values", "ocmdp needs strictly positive alpha")

    horizon = _as_int(loc, data, "horizon", defaults.horizon, 1)
    replications = _as_int(loc, data, "replications", defaults.replications, 1)
    seed = data.get("seed", defaults.seed)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise loc.fail("seed", "seed must be an integer")
    jobs = _as_int(loc, data, "jobs", defaults.jobs, 1)

    fmt = data.get("format", defaults.format)
    if fmt not in ("csv", "json"):
        raise loc.fail("format", f"format must be 'csv' or 'json', got {fmt!r}")
    oracle = data.get("oracle", defaults.oracle)
    if not isinstance(oracle, bool):
        raise loc.fail("oracle", "oracle must be true or false")
    if kind == "oracle-only":
        oracle = True
    out_dir = data.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise loc.fail("out_dir", "out_dir must be a path string")

    return ExperimentConfig(
        kind=kind, instance=dict(instance), v_values=v_values,
        delta_values=delta_values, alpha_values=alpha_values,
        horizon=horizon, replications=replications, seed=seed,
        out_dir=out_dir, format=fmt, oracle=oracle, jobs=jobs,
    )


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
    if format == "csv":
        cells = []
        for name in columns:
            arr = arrays[name]
            if arr.size and np.issubdtype(arr.dtype, np.integer):
                cells.append([str(int(x)) for x in arr])
            else:
                cells.append(["%.12g" % x for x in arr])
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(columns)
            writer.writerows(zip(*cells))
    elif format == "json":
        values = {}
        for name in columns:
            arr = arrays[name]
            if arr.size and np.issubdtype(arr.dtype, np.integer):
                values[name] = [int(x) for x in arr]
            else:
                values[name] = [float("%.12g" % x) for x in arr]
        payload = {"columns": columns, "values": values}
        with open(path, "w") as handle:
            handle.write(json.dumps(payload, indent=2) + "\n")
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")


_INT_ONLY = frozenset("-0123456789")


def read_metrics(path, format: Optional[str] = None) -> Dict[str, np.ndarray]:
    """Read a metrics file back into ordered named arrays.

    ``format`` defaults to the file extension. Columns whose cells are all
    integer literals come back as int64, everything else as float64.
    """
    if format is None:
        format = "json" if str(path).endswith(".json") else "csv"
    if format == "json":
        with open(path) as handle:
            payload = json.load(handle)
        out = {}
        for name in payload["columns"]:
            raw = payload["values"][name]
            integral = bool(raw) and all(
                isinstance(x, int) and not isinstance(x, bool) for x in raw)
            out[name] = np.asarray(raw, dtype=np.int64 if integral else float)
        return out
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: metrics file is empty")
        rows = [row for row in reader if row]
    out = {}
    for j, name in enumerate(header):
        cells = [row[j] for row in rows]
        integral = bool(cells) and all(
            cell and set(cell) <= _INT_ONLY for cell in cells)
        out[name] = np.asarray(
            [int(c) for c in cells] if integral else [float(c) for c in cells],
            dtype=np.int64 if integral else float)
    return out


# ---------------------------------------------------------------------------
# instance builders
# ---------------------------------------------------------------------------


def derive_seeds(master_seed: int, param_index: int, replication: int) -> Tuple[int, int]:
    """(run seed, auxiliary seed) for one grid cell.

    Both are words of ``SeedSequence(master_seed, spawn_key=(param_index,
    replication))``, so they depend only on the cell's grid position.
    """
    words = np.random.SeedSequence(
        master_seed, spawn_key=(param_index, replication)).generate_state(2)
    return int(words[0]), int(words[1])


def _need(instance: Mapping, key: str, kind: str):
    if key not in instance:
        raise ConfigError(f"kind {kind!r} needs instance key {key!r}")
    return instance[key]


def _build_servers(entries) -> List[datacenter.ServerConfig]:
    if not isinstance(entries, (list, tuple)) or not entries:
        raise ConfigError("instance key 'servers' must be a nonempty list")
    cfgs = []
    for pos, entry in enumerate(entries):
        try:
            modes = [datacenter.SleepMode(*mode) for mode in entry["sleep_modes"]]
            cfgs.append(datacenter.ServerConfig(
                active_power=float(entry["active_power"]),
                mu_dist=tuple(entry["mu"]),
                sleep_modes=modes,
                i_max=int(entry["i_max"]),
                r_max=float(entry["r_max"]),
            ))
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"servers[{pos}]: {err}")
    return cfgs


def _build_trace(spec, horizon: int, aux_seed: int, records):
    if spec is None:
        spec = {"kind": "uniform"}
    if not isinstance(spec, Mapping):
        raise ConfigError("instance key 'trace' must be an object")
    if "path" in spec:
        return records
    tag = spec.get("kind")
    if tag == "uniform":
        return datacenter.uniform_trace(
            horizon,
            arrival_range=tuple(spec.get("arrival_range", (10, 30))),
            cost_range=tuple(spec.get("cost_range", (1, 6))),
            seed=aux_seed)
    if tag == "ramp":
        try:
            shape = (float(spec["base_rate"]), float(spec["peak_rate"]),
                     int(spec["ramp_start"]), int(spec["ramp_end"]))
        except KeyError as err:
            raise ConfigError(f"ramp trace needs key {err}") from None
        return datacenter.ramp_trace(horizon, *shape,
                                     cost=float(spec.get("cost", 1.0)), seed=aux_seed)
    raise ConfigError(f"trace kind must be 'uniform' or 'ramp', got {tag!r}")


def _parse_mode(raw):
    if raw is None or raw == "n-queue" or raw == "virtualized":
        return raw or "n-queue"
    if isinstance(raw, (list, tuple)) and len(raw) == 2 \
            and raw[0] in ("always-on", "reactive"):
        return (raw[0], raw[1])
    raise ConfigError(f"unknown datacenter mode {raw!r}")


def _build_users(instance: Mapping) -> List[bandit.UserSpec]:
    users = _need(instance, "users", "bandit")
    if users == "table-one":
        return bandit.table_one_users()
    if users == "table-two":
        return bandit.table_two_users(instance.get("file_dist", "geometric"))
    if isinstance(users, (list, tuple)) and users:
        built = []
        for pos, entry in enumerate(users):
            try:
                built.append(bandit.UserSpec(
                    lam=float(entry["lam"]),
                    mean_file=float(entry["mean_file"]),
                    actions=tuple(tuple(a) for a in entry["actions"]),
                    weight=float(entry.get("weight", 1.0)),
                ))
            except (KeyError, TypeError, ValueError) as err:
                raise ConfigError(f"users[{pos}]: {err}")
        return built
    raise ConfigError("instance key 'users' must be 'table-one', 'table-two', "
                      "or a list of user objects")


def _build_ocmdp_specs(instance: Mapping) -> List[ocmdp.MdpSpec]:
    if "path" in instance and "example" in instance:
        raise ConfigError("give the ocmdp instance either a 'path' or an "
                          "'example', not both")
    if "path" in instance:
        return ocmdp.load_instance(instance["path"])
    example = instance.get("example", "two-mdp")
    if example != "two-mdp":
        raise ConfigError(f"unknown ocmdp example {example!r}")
    return ocmdp.two_mdp_example(noise=float(instance.get("noise", 0.25)))


def _build_online_model(instance: Mapping) -> online.EventModel:
    model = instance.get("model", "file-download")
    if model != "file-download":
        raise ConfigError(f"unknown renewal model {model!r}")
    return online.file_download_example()


def oracle_value(kind: str, instance: Mapping) -> float:
    """Stationary LP optimum of the instance, independent of the sweeps.

    coupled-energy and ocmdp price the per-slot objective, online-renewal the
    per-slot penalty of the best event-conditioned policy, bandit the
    weighted throughput of the composite download chain. That chain covers
    memoryless users only: explicit user lists and table-two users with
    geometric files, whose served file completes with probability phi each
    slot, exactly the chain's law; uniform and poisson files are refused.
    The datacenter kind has no attached oracle.
    """
    if kind == "coupled-energy":
        return coupled.energy_oracle_value(int(instance.get("n_servers", 5)))
    if kind == "bandit":
        users = _build_users(instance)
        if instance.get("file_dist", "geometric") != "geometric" and any(
                u.file_length_sampler is not None for u in users):
            raise ConfigError("the bandit oracle covers memoryless users only")
        result = lp.coupled_mdp_optimal(
            [u.lam for u in users], [u.weight for u in users],
            [u.mean_file for u in users], [u.actions for u in users],
            served_limit=int(_need(instance, "m_servers", "bandit")),
            power_budget=float(_need(instance, "beta", "bandit")))
        return float(result.value)
    if kind == "online-renewal":
        model = _build_online_model(instance)
        return float(lp.conditional_ratio_optimal(
            model.event_probs, model.exp_penalty, model.exp_frame_len,
            model.exp_metrics, model.budgets))
    if kind == "ocmdp":
        return float(ocmdp.solve_baseline(_build_ocmdp_specs(instance)).value)
    raise ConfigError(f"kind {kind!r} has no oracle")


# ---------------------------------------------------------------------------
# one grid cell
# ---------------------------------------------------------------------------


def _simulate_point(kind: str, instance: Mapping, horizon: int,
                    params: Mapping, run_seed: int, aux_seed: int,
                    trace_records) -> dict:
    """Run one cell and return its result columns, oracle excluded."""
    if kind == "coupled-energy":
        spec = coupled.energy_scheduling_spec(int(instance.get("n_servers", 5)))
        log = coupled.run(spec, params["v"], horizon, run_seed)
        row = {"penalty_avg": log.final_penalty_avg}
        for i, value in enumerate(log.final_metrics_avg):
            row[f"metric_avg_{i}"] = float(value)
        row["queue_max"] = float(log.queues.max())
        return row
    if kind == "datacenter":
        cfgs = _build_servers(_need(instance, "servers", kind))
        trace = _build_trace(instance.get("trace"), horizon, aux_seed,
                             trace_records)
        log = datacenter.run_datacenter(
            cfgs, trace, params["v"], mode=_parse_mode(instance.get("mode")),
            seed=run_seed, horizon=horizon,
            min_active=int(instance.get("min_active", 0)))
        return {
            "power_avg": log.final_power_avg,
            "cost_avg": log.final_cost_avg,
            "backlog_avg": log.final_backlog_avg,
            "reject_avg": float(log.rejected.mean()),
            "active_avg": float(log.active_servers.mean()),
            "queue_max": float(log.max_queue.max()),
        }
    if kind == "bandit":
        users = _build_users(instance)
        m_servers = int(_need(instance, "m_servers", kind))
        beta = float(_need(instance, "beta", kind))
        runner = bandit.multi_user_run
        if any(u.file_length_sampler is not None for u in users):
            runner = bandit.multi_user_run_nonmemoryless
        out = runner(users, params["v"], m_servers, beta, horizon, run_seed)
        return {
            "throughput_avg": out["throughput_avg"],
            "power_avg": out["power_avg"],
            "queue_max": float(out["queue"].max()),
        }
    if kind == "online-renewal":
        model = _build_online_model(instance)
        theta_max = instance.get("theta_max")
        log = online.run(model, v=params["v"], delta=params["delta"],
                         n_frames=horizon, seed=run_seed,
                         theta_max=None if theta_max is None else float(theta_max))
        row = {"penalty_avg": log.penalty_time_avg}
        for i, value in enumerate(log.metrics_time_avg):
            row[f"metric_avg_{i}"] = float(value)
        row["frame_len_avg"] = log.total_slots / log.n_frames
        row["theta_final"] = float(log.theta[-1])
        row["queue_max"] = float(log.queues.max())
        return row
    if kind == "ocmdp":
        specs = _build_ocmdp_specs(instance)
        log = ocmdp.run_ocmdp(
            specs, horizon, v=params["v"], alpha=params["alpha"],
            seed=run_seed, check_slater=bool(instance.get("check_slater", True)))
        row = {"penalty_avg": float(log.realized_f.mean())}
        for i in range(log.n_constraints):
            row[f"violation_avg_{i}"] = float(log.realized_g[:, i].mean())
        row["queue_max"] = float(log.queues.max())
        return row
    raise ConfigError(f"kind {kind!r} cannot be simulated")


def _run_cell(task) -> Tuple[dict, float]:
    start = time.perf_counter()
    row = _simulate_point(*task)
    return row, time.perf_counter() - start


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
        return {
            "experiment": self.config_echo,
            "columns": self.columns,
            "aggregates": self.aggregates,
        }


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
    grid = config.param_grid()
    oracle = None
    if config.oracle:
        target_kind, target_inst = config.kind, config.instance
        if config.kind == "oracle-only":
            target_kind = _need(config.instance, "target", "oracle-only")
            if target_kind not in _KINDS or target_kind == "oracle-only":
                raise ConfigError(
                    f"oracle-only target must name a simulated kind, "
                    f"got {target_kind!r}")
            target_inst = config.instance.get("instance", {})
        oracle = oracle_value(target_kind, target_inst)

    start_all = time.perf_counter()
    trace_spec, trace_records = config.instance.get("trace"), None
    if isinstance(trace_spec, Mapping) and "path" in trace_spec:
        trace_records = datacenter.load_trace(trace_spec["path"])
    tasks = []
    cells = []
    for p_idx, params in enumerate(grid):
        for rep in range(config.replications):
            run_seed, aux_seed = derive_seeds(config.seed, p_idx, rep)
            cells.append((params, rep, run_seed))
            if config.kind != "oracle-only":
                tasks.append((config.kind, config.instance, config.horizon,
                              params, run_seed, aux_seed, trace_records))

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
            gap = _oracle_gap(config.kind, result, oracle)
            if gap is not None:
                row["oracle_gap"] = gap
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


def _oracle_gap(kind: str, result: Mapping, oracle: float) -> Optional[float]:
    """Signed so that positive always means worse than the stationary
    optimum: excess average penalty for the minimizing kinds, throughput
    shortfall for the bandit."""
    if kind == "bandit":
        return oracle - result["throughput_avg"]
    if "penalty_avg" in result:
        return result["penalty_avg"] - oracle
    return None


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

    if config is None:
        config = ExperimentConfig(kind="coupled-energy",
                                  v_values=(1.0, 10.0), horizon=200,
                                  replications=2, seed=7)
    report = []
    with tempfile.TemporaryDirectory() as scratch:
        dir_a = os.path.join(scratch, "a")
        dir_b = os.path.join(scratch, "b")
        cfg_a = _with_output(config, dir_a, jobs=1)
        cfg_b = _with_output(config, dir_b, jobs=1)
        summary_a = run_experiment(cfg_a)
        run_experiment(cfg_b)
        same = True
        detail = "reran bit-identically"
        for name in sorted(os.listdir(dir_a)):
            with open(os.path.join(dir_a, name), "rb") as fh:
                bytes_a = fh.read()
            with open(os.path.join(dir_b, name), "rb") as fh:
                bytes_b = fh.read()
            if bytes_a != bytes_b:
                same = False
                detail = f"{name} differs between identical runs"
                break
        report.append(("determinism", same, detail))

        cfg_par = _with_output(config, None, jobs=2)
        summary_par = run_experiment(cfg_par)
        agree = summary_par.aggregates == summary_a.aggregates \
            and summary_par.rows == summary_a.rows
        report.append(("parallel-fold", agree,
                       "2-worker aggregates match serial" if agree
                       else "parallel aggregates diverged"))
    return report


def _with_output(config: ExperimentConfig, out_dir, jobs: int) -> ExperimentConfig:
    data = config.to_mapping()
    data["jobs"] = jobs
    if out_dir is None:
        data.pop("out_dir", None)
    else:
        data["out_dir"] = out_dir
    return config_from_mapping(data)
