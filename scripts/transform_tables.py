#!/usr/bin/env python3
"""Build the scale transform for a chosen scenario and dump its tables.

Usage: python scripts/transform_tables.py [--name SCENARIO] [--out OUT]

Same as ``sdelab check-coefficients --name SCENARIO --out OUT``, with
``weierstrass_drift`` and ``out`` as defaults.
"""
import argparse
import sys

from sdelab import cli
from sdelab.scenarios import scenario_names


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--name", default="weierstrass_drift", choices=scenario_names())
    ap.add_argument("--out", default="out")
    args = ap.parse_args()
    return cli.main(["check-coefficients", "--name", args.name, "--out", args.out])


if __name__ == "__main__":
    sys.exit(main())
