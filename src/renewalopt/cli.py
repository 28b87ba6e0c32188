"""Command line front end: run one experiment config or a built-in suite.

Exit codes: 0 on success, 2 when a suite check or criterion fails, 1 on any
error (bad config, missing file, runtime failure).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from renewalopt import harness


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renewalopt",
        description="Drive drift-plus-penalty experiments from a JSON config, "
                    "or run the built-in acceptance or invariants suite.")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON experiment config")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="override the config's master seed")
    parser.add_argument("--out", metavar="DIR",
                        help="override the config's output directory")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="override the row file format")
    parser.add_argument("--jobs", type=int, metavar="N",
                        help="worker processes for the replication fan-out")
    parser.add_argument("--suite", choices=("acceptance", "invariants"),
                        help="run a built-in check suite instead of an "
                             "experiment (--config feeds the invariants "
                             "suite and is otherwise ignored)")
    return parser


def _apply_overrides(config: harness.ExperimentConfig,
                     args: argparse.Namespace) -> harness.ExperimentConfig:
    """``config`` with --seed, --out, --format and --jobs set on it, checked as
    the loader checks them; none touches the instance, so its build is kept."""
    for key, minimum in (("seed", 0), ("jobs", 1)):
        value = getattr(args, key)
        if value is not None and value < minimum:
            raise harness.ConfigError(f"<command line>: {key} must be at least "
                                      f"{minimum}, got {value}", (key,))
    for name, value in (("seed", args.seed), ("out_dir", args.out),
                        ("format", args.format), ("jobs", args.jobs)):
        if value is not None:
            setattr(config, name, value)
    return config


def _print_summary(summary: harness.RunSummary, out_dir) -> None:
    where = out_dir if out_dir is not None else "(not written)"
    print(f"{summary.kind}: {summary.n_rows} rows in "
          f"{summary.total_seconds:.1f}s, output {where}")
    for agg in summary.aggregates:
        params = " ".join(f"{k}={v:g}" for k, v in agg["params"].items())
        means = " ".join(f"{k}={v:.6g}" for k, v in agg["means"].items())
        prefix = params + "  " if params else ""
        print(f"  {prefix}[{agg['replications']} reps]  {means}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.suite == "acceptance":
            from renewalopt import acceptance

            results = acceptance.run_suite()
            failed = [r for r in results if not r.passed]
            print(f"{len(results) - len(failed)}/{len(results)} criteria "
                  f"passed")
            return 2 if failed else 0
        config = None if args.config is None else _apply_overrides(
            harness.load_config(args.config), args)
        if args.suite == "invariants":
            report = harness.invariants_report(config)
            for name, passed, detail in report:
                print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
            return 0 if all(passed for _, passed, _ in report) else 2
        if config is None:
            print("error: --config is required unless --suite is given",
                  file=sys.stderr)
            return 1
        summary = harness.run_experiment(config)
        _print_summary(summary, config.out_dir)
        return 0
    except Exception as err:  # CLI contract: any error exits 1 with a message
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
