"""One round of a workload, in a fresh interpreter: the user's path.

    python3 perfbench/child.py ROUND.json

ROUND.json names the config files of the round's experiments, whether to
trace, and the parent's ``time.monotonic()`` just before it started this
process. The child imports the package, loads and validates every config,
runs each experiment with ``harness.run_experiment`` (which writes
``rows.csv`` and ``summary.json``), and prints one JSON line with its
timings. ``setup_s`` runs from the parent's stamp, taken before this
interpreter started, to the configs loaded; ``wall_s`` from the first
experiment's start to the last one's files written.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

# simulator layer of each experiment kind, for the per-slot figures
LAYER = {"coupled-energy": "coupled", "bandit": "bandit",
         "datacenter": "datacenter", "ocmdp": "ocmdp"}


def main(round_path: str) -> None:
    with open(round_path) as handle:
        spec = json.load(handle)
    start = time.perf_counter()
    from renewalopt import cli  # noqa: F401  the user's entry point
    import_s = time.perf_counter() - start
    from renewalopt import harness

    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = time.perf_counter()
    configs = [harness.load_config(path) for path in spec["configs"]]
    load_config_s = time.perf_counter() - start
    setup_s = time.monotonic() - spec["spawned_at"]
    if spec["setup_only"]:
        print("{}")
        return

    start = time.perf_counter()
    summaries = [harness.run_experiment(config) for config in configs]
    wall_s = time.perf_counter() - start

    slots = {}
    for config, summary in zip(configs, summaries):
        layer = LAYER[config.kind]
        slots[layer] = slots.get(layer, 0) + config.horizon * summary.n_rows
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cell_s": sum(sum(s.timings) for s in summaries),
        "slots": sum(slots.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer, slots, import_s,
                                                 load_config_s)
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1])
