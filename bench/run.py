"""sdelab benchmark: time to a checked report, end to end and per layer.

    python3 bench/run.py --workload atom_jump --seed 17 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the workload's set-up is timed in fresh
interpreters and the workload then runs closed loop, untraced, in its own
child process; the end-to-end metrics are printed.  With ``--trace 1`` a
child alternates untraced and traced runs and the per-layer metrics are
printed.  Every run's report is checked (see NOTES.md).  A result file with
the machine description goes to ``bench/out/``; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 3
BUDGET_S = 170.0   # every run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
from child import WORKLOADS  # noqa: E402  (stdlib-only module)


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def run_child(args, deadline):
    """Run ``child.py`` to completion and return its last-line JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args], env=child_env(),
        cwd=ROOT, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {args[:3]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n,
            "value": sorted(samples)[n - 11], "samples_beyond": 10}


def provenance(workload, seed, seconds, trace):
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "sdelab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {
        "nproc": nproc(), "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "thread_pools": {var: str(nproc()) for var in THREAD_VARS},
        "workload": workload.name, "workload_seed": seed,
        "sizes": {"n_paths": workload.n_paths, "n_steps": workload.n_steps,
                  "check_paths": workload.check_paths},
        "seconds": seconds, "trace": trace,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def end_to_end(workload, seed, seconds, deadline):
    setups = [run_child(["setup", "--workload", workload.name], deadline)["setup_s"]
              for _ in range(SETUP_REPEATS)]
    res = run_child(["measure", "--workload", workload.name, "--seed", str(seed),
                     "--seconds", str(seconds)], deadline)
    samples = res["run_s_samples"]
    metrics = {}
    if samples:
        run_s = statistics.median(samples)
        metrics = {"run_s": run_s,
                   "path_steps_per_s": workload.n_paths * workload.n_steps / run_s,
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": res["peak_rss_mb"]}
    extra = {"run_s_samples": samples, "run_s_tail": tail_percentile(samples),
             "setup_s_samples": setups}
    return metrics, res, extra


def per_layer(workload, seed, seconds, deadline):
    res = run_child(["trace", "--workload", workload.name, "--seed", str(seed),
                     "--seconds", str(seconds)], deadline)
    return res["layers"], res, {}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, help="master seed (default: registry seed)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sdelab" / "__init__.py").is_file() or not SPEC.is_file():
        sys.exit(f"error: no sdelab sources under {SRC} or no {SPEC.name}; "
                 "run from the root of a source checkout")
    if args.seed is not None and args.seed < 0:
        sys.exit("error: --seed must be non-negative")
    workload = WORKLOADS[args.workload]
    seed = workload.seed if args.seed is None else args.seed
    deadline = time.monotonic() + BUDGET_S

    # metric names and units are declared once, in BENCHMARK.json
    units = {m["name"]: m["unit"]
             for m in json.loads(SPEC.read_text())["per_layer" if args.trace
                                                  else "end_to_end"]}
    measure = per_layer if args.trace else end_to_end
    values, res, extra = measure(workload, seed, args.seconds, deadline)
    if not values:
        sys.stderr.write("\n".join(res["problems"]) + "\n")
        sys.exit("error: no run completed")
    if set(values) != set(units):
        sys.exit(f"error: metrics {sorted(set(values) ^ set(units))} are produced "
                 f"or declared in {SPEC.name}, not both")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    OUT.mkdir(exist_ok=True)
    failed_frac = res["failed"] / res["attempted"]
    record = {"provenance": provenance(workload, seed, args.seconds, args.trace),
              "metrics": metrics, "failed_frac": failed_frac, **extra, "child": res}
    out_file = OUT / f"{workload.name}_seed{seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"# {workload.name} seed={seed} trace={args.trace} "
          f"({workload.n_paths} paths x {workload.n_steps} steps)")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:16.6g} {m['unit']}")
    if not args.trace:
        tail = extra["run_s_tail"]
        print(f"{'run_s samples':40s} {len(extra['run_s_samples']):16d} count")
        if tail:
            print(f"{'run_s p%.0f' % tail['percentile']:40s} {tail['value']:16.6g} s")
    print(f"{'failed_frac':40s} {failed_frac:16.6g} ratio")
    print(f"{'statistical verdicts failed':40s} {res['verdict_failed']:16d} count")
    for problem in res["problems"]:
        print(f"problem: {problem}")
    print(f"result file: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
