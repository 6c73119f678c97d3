#!/usr/bin/env python3
"""Print the SHA-256 digest of the JSON report of every reference run.

Usage: python scripts/report_digests.py

One line `<sha256>  <name>` per run: the six registry scenarios at their
defaults, atom_jump with every diagnostic it can feed, the stable
counterexample at tail exponents 0.5 and 1.5, and the Cauchy
counterexample.  Reports are deterministic for a fixed spec and seed, so
two versions of the lab that print the same lines wrote the same reports
byte for byte.
"""
import hashlib

from sdelab import (ScenarioSpec, counterexample_cauchy, counterexample_stable,
                    run_scenario, scenario_names)
from sdelab.scenarios import report_json

# every diagnostic but law, which needs a scenario without jumps
ATOM_JUMP_DIAGNOSTICS = ("martingale", "qv", "gamma", "girsanov", "compensator",
                         "conjugation", "dirichlet")


def reports():
    for name in scenario_names():
        yield name, run_scenario(ScenarioSpec(name=name))[0]
    spec = ScenarioSpec(name="atom_jump", diagnostics=ATOM_JUMP_DIAGNOSTICS)
    yield "atom_jump[all diagnostics]", run_scenario(spec)[0]
    for gamma in (0.5, 1.5):
        yield f"counterexample_stable[gamma={gamma}]", counterexample_stable(gamma)
    yield "counterexample_cauchy", counterexample_cauchy()


def main():
    for name, report in reports():
        digest = hashlib.sha256(report_json(report).encode("utf-8")).hexdigest()
        print(f"{digest}  {name}", flush=True)


if __name__ == "__main__":
    main()
