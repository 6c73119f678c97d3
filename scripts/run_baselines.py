#!/usr/bin/env python3
"""Run the sanity-check scenarios end to end and write their reports.

Usage: python scripts/run_baselines.py [--out OUT] [--paths N] [--seed S]
"""
import argparse

from sdelab import ScenarioSpec, emit_report, run_scenario

# each runs its registry default diagnostics
SCENARIOS = ("brownian_baseline", "smooth_drift_crosscheck", "atom_jump",
             "path_dependent_drift")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out")
    ap.add_argument("--paths", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()

    failures = 0
    for name in SCENARIOS:
        spec = ScenarioSpec(name=name, n_paths=args.paths, seed=args.seed)
        report, ens = run_scenario(spec)
        path = emit_report(report, out_dir=args.out)
        print(f"{name}: {report.status} "
              f"({ens.excluded_count} excluded, {len(ens.jump_time)} jumps) "
              f"-> {path}")
        for d in report.diagnostics:
            print(f"    {d.name:18s} {d.status:6s} "
                  f"statistic {d.statistic:.4g} / tol {d.tolerance:.4g}")
        failures += report.status != "pass"
    raise SystemExit(1 if failures else 0)


if __name__ == "__main__":
    main()
