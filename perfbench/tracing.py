"""Per-layer spans, recorded from outside the program.

``install`` replaces public functions of each layer by timing wrappers, on
the module attribute through which the caller looks them up (``coupled``
binds ``dpp_linear_select`` into its own namespace, so that binding is the
one wrapped). Each wrapper counts calls, adds up inclusive time, and keeps
a stack so that a span's self time excludes the wrapped spans it contains.
Only the traced run installs them; the end-to-end runs stay unwrapped.
"""

from __future__ import annotations

import resource
import time
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("calls", "total", "self_time", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.extra = 0.0  # a per-call quantity read from the result


class Tracer:
    def __init__(self):
        self.spans: Dict[str, Span] = {}
        self._stack: List[float] = []  # child time inside each open span
        self.rss_growth_mb: Optional[float] = None

    def wrap(self, module, attr: str, name: str,
             extra: Optional[Callable[[object], float]] = None) -> None:
        inner = getattr(module, attr)
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - children
            if extra is not None:
                span.extra += extra(result)
            return result

        setattr(module, attr, wrapper)

    def watch_first_rss(self, module, attr: str) -> None:
        """Record ru_maxrss growth across the first call of one function."""
        inner = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.rss_growth_mb is not None:
                return inner(*args, **kwargs)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result = inner(*args, **kwargs)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            tracer.rss_growth_mb = (after - before) / 1024.0
            return result

        setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    from renewalopt import bandit, coupled, datacenter, harness, lp, ocmdp

    w = tracer.wrap
    w(harness, "run_experiment", "harness.run")
    w(harness, "_run_cell", "harness.cell")
    w(harness, "oracle_value", "harness.oracle")
    w(harness, "_write_outputs", "harness.write")
    w(datacenter, "load_trace", "harness.trace_load")
    w(coupled, "run", "coupled.run", extra=lambda log: len(log.frame_log))
    tracer.watch_first_rss(coupled, "run")
    w(coupled, "dpp_linear_select", "core.select")
    w(lp, "solve_lp", "lp.solve", extra=lambda sol: sol.iterations)
    w(lp, "coupled_mdp_optimal", "lp.coupled_mdp",
      extra=lambda res: res.n_variables)
    w(ocmdp, "run_ocmdp", "ocmdp.run")
    w(ocmdp, "ocmdp_step", "ocmdp.step")
    w(ocmdp, "project_onto_theta", "ocmdp.project")
    w(ocmdp, "solve_baseline", "ocmdp.baseline")
    w(ocmdp, "slater_margin", "ocmdp.slater")
    w(bandit, "multi_user_run", "bandit.run")
    w(datacenter, "run_datacenter", "datacenter.run")
    w(datacenter, "server_frame_decide", "datacenter.frame_decide")
    w(datacenter, "admission_decide", "datacenter.admission")


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return scale * total / count if count else 0.0


def layer_metrics(tracer: Tracer, slots: Dict[str, int],
                  import_s: float, load_config_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced round. ``slots`` maps a
    simulator layer to the slots its cells simulated. A layer the workload
    does not reach reads 0."""
    s = tracer.spans
    run, cell, oracle, write = (s["harness.run"], s["harness.cell"],
                                s["harness.oracle"], s["harness.write"])
    return {
        "cli.import_s": import_s,
        "harness.load_config_s": load_config_s,
        "harness.run_s": run.total,
        "harness.cells": cell.calls,
        "harness.cell_s": cell.total,
        "harness.oracle_s": oracle.total,
        "harness.write_s": write.total,
        "harness.self_s": run.total - cell.total - oracle.total - write.total,
        "harness.trace_loads": s["harness.trace_load"].calls,
        "harness.trace_load_s": s["harness.trace_load"].total,
        "coupled.run_calls": s["coupled.run"].calls,
        "coupled.run_s": s["coupled.run"].total,
        "coupled.self_s": s["coupled.run"].self_time,
        "coupled.frames": s["coupled.run"].extra,
        "coupled.us_per_slot": _per(s["coupled.run"].total,
                                    slots.get("coupled", 0), 1e6),
        "coupled.rss_growth_mb": tracer.rss_growth_mb or 0.0,
        "core.select_calls": s["core.select"].calls,
        "core.select_s": s["core.select"].total,
        "core.us_per_select": _per(s["core.select"].total,
                                   s["core.select"].calls, 1e6),
        "lp.solve_calls": s["lp.solve"].calls,
        "lp.solve_s": s["lp.solve"].total,
        "lp.pivots": s["lp.solve"].extra,
        "lp.coupled_mdp_s": s["lp.coupled_mdp"].total,
        "lp.coupled_mdp_vars": _per(s["lp.coupled_mdp"].extra,
                                    s["lp.coupled_mdp"].calls),
        "ocmdp.run_s": s["ocmdp.run"].total,
        "ocmdp.step_calls": s["ocmdp.step"].calls,
        "ocmdp.step_self_s": s["ocmdp.step"].self_time,
        "ocmdp.project_calls": s["ocmdp.project"].calls,
        "ocmdp.project_s": s["ocmdp.project"].total,
        "ocmdp.us_per_project": _per(s["ocmdp.project"].total,
                                     s["ocmdp.project"].calls, 1e6),
        "ocmdp.baseline_s": s["ocmdp.baseline"].total,
        "ocmdp.slater_s": s["ocmdp.slater"].total,
        "bandit.run_s": s["bandit.run"].total,
        "bandit.us_per_slot": _per(s["bandit.run"].total,
                                   slots.get("bandit", 0), 1e6),
        "datacenter.run_s": s["datacenter.run"].total,
        "datacenter.us_per_slot": _per(s["datacenter.run"].total,
                                       slots.get("datacenter", 0), 1e6),
        "datacenter.frame_decide_calls": s["datacenter.frame_decide"].calls,
        "datacenter.frame_decide_s": s["datacenter.frame_decide"].total,
        "datacenter.admission_calls": s["datacenter.admission"].calls,
        "datacenter.admission_s": s["datacenter.admission"].total,
    }
