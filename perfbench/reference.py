"""Regenerate ``reference.json``: the table-one bandit optimum (M = 4,
beta = 5) by the Howard policy iteration and Lagrangian bisection of
``tests/oracles.coupled_chain_lagrangian``, which shares no code with the
package's LP route. The benchmark reads the stored value, because the solve
takes about five seconds. Run from the repository root:

    python3 perfbench/reference.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "tests"))

import oracles  # noqa: E402

from checks import BANDIT_BETA, BANDIT_M, REFERENCE_PATH, TABLE_ONE  # noqa: E402


def main() -> None:
    value = oracles.coupled_chain_lagrangian(
        arrival_probs=[lam for lam, *_ in TABLE_ONE],
        weights=[c for *_, c, _ in TABLE_ONE],
        mean_files=[1.0 / mu for _, mu, *_ in TABLE_ONE],
        action_sets=[[(0.0, 0.0), (phi, p)] for _, _, phi, _, p in TABLE_ONE],
        served_limit=BANDIT_M, power_budget=BANDIT_BETA)
    with open(REFERENCE_PATH, "w") as handle:
        json.dump({"bandit_table_one_m4_beta5": value}, handle, indent=2)
        handle.write("\n")
    print(f"bandit_table_one_m4_beta5 = {value!r}")


if __name__ == "__main__":
    main()
