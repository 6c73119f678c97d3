"""Command-line front end.

Exit codes: 0 all requested checks passed, 1 a diagnostic failed or was
inconclusive, 2 validation problem, 3 numeric failure or a path that
cannot be read or written.  A statistical
diagnostic is inconclusive, never a pass, when its statistic is not finite
or fewer than ``scenarios.MIN_ACTIVE_PATHS`` active paths entered it.
The default output directory is ``$SDELAB_OUT`` or ``./out``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from .errors import (DegenerateWeights, DivergentMoment, GridMismatch,
                     IntensityBoundViolated, IoError, MissingDriverRecord,
                     NonConvergent, QuadratureFailure, RangeError,
                     ValidationError)
from .generator import generator_state, girsanov_weight, martingale_residual_ensemble
from .kernels import geometric_partition, moment_bound, tv_continuity_modulus
from .pathcalc import aligned_window_ladder, qv_sweep
from .scenarios import (COUNTEREXAMPLE_STABLE_CONFIG, ScenarioSpec, build_bundle,
                        counterexample_cauchy, counterexample_stable,
                        emit_report, load_spec, report_json, run_bundle,
                        run_scenario, scenario_names, standard_profiles)

_NUMERIC_ERRORS = (NonConvergent, QuadratureFailure, RangeError, DivergentMoment,
                   IntensityBoundViolated, DegenerateWeights, GridMismatch,
                   MissingDriverRecord)


def _out_dir(args):
    d = args.out or os.environ.get("SDELAB_OUT") or "out"
    try:
        os.makedirs(d, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot use output directory {d!r}: {exc}") from exc
    return d


@contextmanager
def _written(path):
    """``path`` opened for writing text; a failed open or write raises IoError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise IoError(f"could not write {path}: {exc}") from exc


def _spec_from_args(args) -> ScenarioSpec:
    if getattr(args, "config", None):
        spec = load_spec(args.config)
    else:
        if not getattr(args, "name", None):
            raise ValidationError("either --config or --name is required")
        spec = ScenarioSpec(name=args.name)
    if getattr(args, "paths", None) is not None:
        spec.n_paths = args.paths
    if getattr(args, "steps", None) is not None:
        spec.n_steps = args.steps
    if getattr(args, "seed", None) is not None:
        spec.seed = args.seed
    return spec


def _run(spec):
    """The bundle of ``spec`` and its report and ensemble, the report's
    clock counting the build as ``run_scenario``'s does."""
    t0 = time.perf_counter()
    bundle = build_bundle(spec)
    return (bundle, *run_bundle(spec, bundle, t0))


def _write_paths_csv(bundle, ens, out_dir, max_paths):
    path = os.path.join(out_dir, "paths.csv")
    n = min(max_paths, ens.n_paths)
    y = bundle.eq.coeffs.transform.forward(ens.x[:n])  # Y = h(X)
    with _written(path) as fh:
        fh.write("path_id,t,Y,X,jump_flag,jump_size\n")
        dt = float(ens.times[1] - ens.times[0])
        for i in range(n):
            flags = np.zeros(len(ens.times))
            sizes = np.zeros(len(ens.times))
            jumps = ens.jumps_of(i)
            for jt, jw in zip(ens.jump_time[jumps], ens.jump_w[jumps]):
                node = min(int(np.ceil((jt - 1e-12) / dt)), len(ens.times) - 1)
                flags[node] = 1
                sizes[node] += jw
            for k, t in enumerate(ens.times):
                fh.write(f"{i},{float(t)!r},{float(y[i, k])!r},"
                         f"{float(ens.x[i, k])!r},{int(flags[k])},"
                         f"{float(sizes[k])!r}\n")
    return path


def _print_report(report, out_dir, fmt):
    path = emit_report(report, fmt=fmt, out_dir=out_dir)
    for d in report.diagnostics:
        print(f"{report.scenario}::{d.name}: {d.status.upper()} "
              f"(statistic {d.statistic:.4g}, tolerance {d.tolerance:.4g})")
    print(f"report written to {path} [{report.wall_clock:.1f}s]", file=sys.stderr)
    return 0 if report.status == "pass" else 1


def cmd_check_coefficients(args):
    spec = _spec_from_args(args)
    bundle = build_bundle(spec)
    out_dir = _out_dir(args)
    from .coefficients import check_hypotheses
    rep = check_hypotheses(bundle.eq.coeffs.potential)
    table = bundle.eq.coeffs.table()
    path = os.path.join(out_dir, f"coefficients_{bundle.name}.csv")
    with _written(path) as fh:
        fh.write("x,sigma_value,h,hprime\n")
        for row in table:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    print(json.dumps(rep.to_dict(), sort_keys=True, indent=2))
    print(f"tables written to {path}", file=sys.stderr)
    return 0


def cmd_check_kernel(args):
    spec = _spec_from_args(args)
    bundle = build_bundle(spec)
    if bundle.eq.kernel is None:
        raise ValidationError(f"scenario {bundle.name} has no jump kernel")
    out_dir = _out_dir(args)
    y_grid = np.linspace(-2.0, 2.0, 9)
    rep = moment_bound(bundle.eq.kernel, y_grid, radius=bundle.eq.trunc.radius)
    part = geometric_partition(1e-3, 50.0, 129)
    tv = tv_continuity_modulus(bundle.eq.kernel, bundle.eq.kernel.alpha, y_grid, part)
    path = os.path.join(out_dir, f"kernel_{bundle.name}.csv")
    with _written(path) as fh:
        fh.write("y,moment,m1,m2,tv_modulus\n")
        tvv = [float(v) for v in tv.values] + [""]
        for (y, mom, m1, m2), t in zip(rep.rows(), tvv):
            fh.write(f"{y!r},{mom!r},{m1!r},{m2!r},{t}\n")
    print(f"moment sup = {rep.sup:.8g}; tv modulus max = {tv.max:.4g}")
    print(f"table written to {path}", file=sys.stderr)
    return 0


def cmd_simulate(args):
    spec = _spec_from_args(args)
    spec.diagnostics = ()
    bundle, report, ens = _run(spec)
    out_dir = _out_dir(args)
    csv_path = _write_paths_csv(bundle, ens, out_dir, max_paths=args.dump_paths)
    summary = os.path.join(out_dir, f"summary_{report.scenario}.json")
    with _written(summary) as fh:
        fh.write(report_json(report))
    print(f"simulated {ens.n_paths} paths "
          f"({ens.excluded_count} excluded, {len(ens.jump_time)} jumps)")
    print(f"paths -> {csv_path}; summary -> {summary}", file=sys.stderr)
    return 0


def cmd_verify_martingale(args):
    spec = _spec_from_args(args)
    spec.diagnostics = ("martingale",)
    bundle, report, ens = _run(spec)
    out_dir = _out_dir(args)
    # the written rows only (none without rows), read as the diagnostic reads
    # them, with its jump-term tables over all states
    rows = slice(0, min(args.dump_paths, ens.n_paths))
    M, kappa = (), ()
    if args.dump_paths:
        f = standard_profiles()[0]
        state = generator_state(bundle.eq, ens.times, ens.x[rows],
                                report.diagnostics[0].jump_tables)
        M = martingale_residual_ensemble(state, f)
        # the Girsanov weights under which the diagnostic reads the residuals
        kappa = (girsanov_weight(ens.times, state.hv, ens.dW[rows])[:, -1]
                 if bundle.eq.functional is not None else np.ones(len(M)))
    res_path = os.path.join(out_dir, f"residuals_{report.scenario}.csv")
    with _written(res_path) as fh:
        fh.write("path_id,t,M_f,kappa_T\n")
        for i, (row, k) in enumerate(zip(M, kappa)):
            for t, v in zip(ens.times, row):
                fh.write(f"{i},{float(t)!r},{float(v)!r},{float(k)!r}\n")
    print(f"residual paths -> {res_path}", file=sys.stderr)
    return _print_report(report, out_dir, args.format)


def cmd_qv(args):
    spec = _spec_from_args(args)
    spec.diagnostics = ("qv",)
    report, ens = run_scenario(spec)
    out_dir = _out_dir(args)
    T = float(ens.times[-1])
    eps = aligned_window_ladder(ens.times)  # descending, as the sweep's rows
    qv = qv_sweep(ens.times, ens.x[:args.dump_paths], eps, T)
    path = os.path.join(out_dir, f"qv_{report.scenario}.csv")
    with _written(path) as fh:
        fh.write("epsilon,t,value\n")
        for row in qv.T:
            for e, v in zip(eps, row):
                fh.write(f"{float(e)!r},{T!r},{float(v)!r}\n")
    print(f"sweep written to {path}", file=sys.stderr)
    return _print_report(report, out_dir, args.format)


def cmd_dirichlet(args):
    spec = _spec_from_args(args)
    spec.diagnostics = ("dirichlet",)
    report, _ = run_scenario(spec)
    return _print_report(report, _out_dir(args), args.format)


def cmd_counterexample(args):
    if args.which == "stable":
        overrides = {key: value for key, value in (("n_paths", args.paths),
                                                   ("n_steps", args.steps),
                                                   ("master_seed", args.seed))
                     if value is not None}
        config = replace(COUNTEREXAMPLE_STABLE_CONFIG, **overrides)
        report = counterexample_stable(gamma=args.gamma, config=config)
    else:
        report = counterexample_cauchy(
            n_samples=args.samples,
            seed=args.seed if args.seed is not None else 7)
    return _print_report(report, _out_dir(args), args.format)


def cmd_run(args):
    spec = _spec_from_args(args)
    bundle, report, ens = _run(spec)
    out_dir = _out_dir(args)
    if args.dump_paths:
        _write_paths_csv(bundle, ens, out_dir, max_paths=args.dump_paths)
    return _print_report(report, out_dir, args.format)


def non_negative_int(text):
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {n}")
    return n


def build_parser():
    p = argparse.ArgumentParser(prog="sdelab",
                                description="stochastic lab for SDEs with "
                                            "irregular drift and jumps")
    sub = p.add_subparsers(dest="command", required=True)
    options = {
        "--name": dict(choices=scenario_names(), help="registry scenario"),
        "--config": dict(help="declarative scenario file (YAML)"),
        "--seed": dict(type=int),
        "--paths": dict(type=int),
        "--steps": dict(type=int),
        "--format": dict(choices=("json", "csv"), default="json"),
        "--dump-paths": dict(type=non_negative_int, default=25,
                             help="number of paths to export as CSV"),
        "--out": dict(help="output directory (default $SDELAB_OUT or ./out)"),
    }
    # each command registers only the options it reads
    scenario, sizes = ("--name", "--config"), ("--seed", "--paths", "--steps")
    every = scenario + sizes + ("--format", "--dump-paths")
    for name, fn, flags in (
        ("check-coefficients", cmd_check_coefficients, scenario),
        ("check-kernel", cmd_check_kernel, scenario),
        ("simulate", cmd_simulate, scenario + sizes + ("--dump-paths",)),
        ("verify-martingale", cmd_verify_martingale, every),
        ("qv", cmd_qv, every),
        ("dirichlet", cmd_dirichlet, scenario + sizes + ("--format",)),
        ("run", cmd_run, every),
        ("counterexample", cmd_counterexample, sizes + ("--format",)),
    ):
        sp = sub.add_parser(name)
        if name == "counterexample":
            sp.add_argument("which", choices=("stable", "cauchy"))
            sp.add_argument("--gamma", type=float, default=0.5)
            sp.add_argument("--samples", type=int, default=1_000_000)
        for flag in flags + ("--out",):
            sp.add_argument(flag, **options[flag])
        sp.set_defaults(fn=fn)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except IoError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
