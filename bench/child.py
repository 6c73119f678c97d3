"""One benchmark workload in one process.

    python3 bench/child.py setup     --workload W
    python3 bench/child.py measure   --workload W --seed N --seconds S
    python3 bench/child.py trace     --workload W --seed N --seconds S
    python3 bench/child.py reference --workload W

``setup`` times ``import sdelab`` plus the first ``build_bundle`` in this
fresh interpreter.  ``measure`` runs the workload closed loop (the next run
starts when the previous report is emitted and checked) with tracing off.
``trace`` alternates untraced and traced runs and derives the per-layer
numbers from the spans.  ``reference`` prints the reference values that
``references.json`` holds for the workload.  Each mode prints one JSON
object as the last line of standard output.

This module imports only the standard library at top level, so that the
``setup`` timing starts before numpy, scipy or sdelab are loaded.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

REFERENCES = HERE / "references.json"
REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    n_paths: int
    n_steps: int
    seed: int          # registry master seed, the default workload seed
    check_paths: int   # size of the warm-up run and the self-check runs
    registry: bool     # False: counterexample_stable(gamma=0.5)

    def report(self, seed, n_paths=None):
        """Run the scenario to its report; ``scenarios`` is looked up at
        call time so that span wrappers installed on it are used."""
        from sdelab import scenarios
        n_paths = self.n_paths if n_paths is None else n_paths
        if not self.registry:
            from sdelab.simulator import SimConfig
            config = SimConfig(horizon=1.0, n_steps=self.n_steps,
                               n_paths=n_paths, master_seed=seed)
            return scenarios.counterexample_stable(0.5, config=config)
        spec = scenarios.ScenarioSpec(name=self.name, n_paths=n_paths,
                                      n_steps=self.n_steps, seed=seed)
        report, _ = scenarios.run_scenario(spec)
        return report


WORKLOADS = {w.name: w for w in (
    Workload("atom_jump", 4000, 512, 17, 200, True),
    Workload("weierstrass_drift", 500, 128, 3, 500, True),
    Workload("stable_counterexample", 50_000, 64, 41, 2000, False),
)}


def emit(report):
    from sdelab import scenarios
    return scenarios.report_json(report)


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def _close(a, b):
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))
    return a == b


def reference_values(doc):
    """What ``references.json`` pins of a parsed report."""
    return {"statistics": {d["name"]: d["statistic"] for d in doc["diagnostics"]},
            "simulation": doc["simulation"]}


def load_references():
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def check_report(text, first_text, doc, reference):
    """Problems with one emitted report; an empty list means correct.

    A diagnostic whose statistic is finite but beyond its tolerance is a
    statistical verdict, not a program error, except at a reference point,
    where the recorded verdicts are all ``pass``.
    """
    problems = []
    if first_text is not None and text != first_text:
        problems.append("report differs from the first repeat of this run")
    for d in doc["diagnostics"]:
        stat, tol = d["statistic"], d["tolerance"]
        if not (isinstance(stat, (int, float)) and math.isfinite(stat)):
            problems.append(f"{d['name']}: statistic {stat!r} is not finite")
        elif math.isfinite(tol) and (d["status"] == "pass") != (stat < tol):
            problems.append(f"{d['name']}: status {d['status']} disagrees with "
                            f"statistic {stat} against tolerance {tol}")
        elif d["status"] not in ("pass", "fail"):
            problems.append(f"{d['name']}: status {d['status']!r}")
    if reference is not None:
        got = reference_values(doc)
        for section in ("statistics", "simulation"):
            want = reference[section]
            if set(got[section]) != set(want):
                problems.append(f"{section} keys {sorted(got[section])} differ "
                                f"from reference {sorted(want)}")
                continue
            for key, value in want.items():
                if not _close(got[section][key], value):
                    problems.append(f"{section}.{key} = {got[section][key]!r}, "
                                    f"reference {value!r}")
        if doc["status"] != "pass":
            problems.append("a diagnostic fails at a reference point")
    return problems


def verdict_failures(doc):
    return [d["name"] for d in doc["diagnostics"] if d["status"] != "pass"]


def find_reference(references, workload, seed, n_paths):
    for entry in references.get(workload.name, ()):
        if (entry["seed"], entry["n_paths"], entry["n_steps"]) == (
                seed, n_paths, workload.n_steps):
            return entry
    return None


class Checker:
    """Runs and checks reports; counts attempts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.references = load_references()
        self.first = {}        # (seed, n_paths) -> first report text
        self.attempted = 0
        self.failed = 0
        self.verdict_failed = 0
        self.problems = []

    def timed_run(self, seed, n_paths=None, recorder=None):
        """Run once; returns (seconds, parsed report), or (None, None) if
        the run raised."""
        from spans import traced
        n_paths = self.workload.n_paths if n_paths is None else n_paths
        self.attempted += 1
        try:
            if recorder is None:
                t0 = time.perf_counter()
                text = emit(self.workload.report(seed, n_paths))
                seconds = time.perf_counter() - t0
            else:
                with traced(recorder), recorder.span("run") as root:
                    text = emit(self.workload.report(seed, n_paths))
                seconds = root.duration
        except Exception as exc:  # a run that raises is a failed run
            self.failed += 1
            self.problems.append(f"run raised {type(exc).__name__}: {exc}")
            return None, None
        doc = json.loads(text)
        key = (seed, n_paths)
        problems = check_report(text, self.first.get(key), doc,
                                find_reference(self.references, self.workload,
                                               seed, n_paths))
        self.first.setdefault(key, text)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        if verdict_failures(doc):
            self.verdict_failed += 1
        return seconds, doc

    def summary(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "verdict_failed": self.verdict_failed,
                "problems": self.problems[:20]}


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

INCLUSIVE = {
    "coefficients.potential_s": ("coefficients.compute_drift_potential",),
    "coefficients.transform_s": ("coefficients.build_scale_transform",),
    "coefficients.hypothesis_s": ("coefficients.check_hypotheses",),
    "coefficients.inverse_s": ("coefficients.ScaleTransform.inverse",),
    "kernels.moment_bound_s": ("kernels.moment_bound",),
    "simulator.characteristics_s": ("simulator.build_characteristics",),
    "simulator.engine_s": ("simulator.simulate_y",),
    "simulator.compensator_s": ("simulator.compensator_residual",),
    "generator.martingale_s": ("generator.martingale_residual_ensemble",),
    "generator.conjugation_s": ("generator.conjugation_residual",),
    "pathcalc.dirichlet_s": ("pathcalc.dirichlet_condition_intY",
                             "pathcalc.classify_dirichlet"),
    "scenarios.emit_s": ("scenarios.report_json",),
}
SELF = {
    "simulator.engine_self_s": "simulator.simulate_y",
    "scenarios.build_bundle_self_s": "scenarios.build_bundle",
    "scenarios.unattributed_s": "run",
}
CALLS = {
    "coefficients.inverse_calls": "coefficients.ScaleTransform.inverse",
    "generator.martingale_calls": "generator.martingale_residual_ensemble",
    "generator.conjugation_calls": "generator.conjugation_residual",
}
# spans every run of the workload must produce at least once
EXPECTED_SPANS = {
    "atom_jump": (
        "scenarios.build_bundle", "coefficients.compute_drift_potential",
        "coefficients.build_scale_transform", "coefficients.check_hypotheses",
        "kernels.moment_bound", "simulator.build_characteristics",
        "simulator.simulate_y", "coefficients.ScaleTransform.inverse",
        "generator.martingale_residual_ensemble",
        "simulator.compensator_residual", "generator.conjugation_residual",
        "scenarios.report_json"),
    "weierstrass_drift": (
        "scenarios.build_bundle", "coefficients.compute_drift_potential",
        "coefficients.build_scale_transform", "coefficients.check_hypotheses",
        "simulator.build_characteristics", "simulator.simulate_y",
        "coefficients.ScaleTransform.inverse",
        "generator.martingale_residual_ensemble", "scenarios.report_json"),
    "stable_counterexample": (
        "simulator.build_characteristics", "simulator.simulate_y",
        "coefficients.ScaleTransform.inverse",
        "pathcalc.dirichlet_condition_intY", "pathcalc.classify_dirichlet",
        "scenarios.report_json"),
}


def run_spans(recorder, run_id):
    """(span, self time) pairs of one traced run, root first."""
    from spans import self_times
    selfs = self_times(recorder.spans)
    return [(s, t) for s, t in zip(recorder.spans, selfs) if s.run == run_id]


def layer_metrics(pairs, doc):
    """Per-layer numbers of one traced run (see NOTES.md for definitions)."""
    def spans(name):
        return [(s, t) for s, t in pairs if s.name == name]

    out = {m: sum(s.duration for n in names for s, _ in spans(n))
           for m, names in INCLUSIVE.items()}
    out.update({m: sum(t for _, t in spans(n)) for m, n in SELF.items()})
    out.update({m: len(spans(n)) for m, n in CALLS.items()})
    out["coefficients.inverse_points"] = sum(
        s.counts["points"] for s, _ in spans("coefficients.ScaleTransform.inverse"))
    sim = doc["simulation"]
    path_steps = sim["n_paths"] * sim["n_steps"]
    out["simulator.engine_path_steps_per_s"] = path_steps / out["simulator.engine_s"]
    out["generator.martingale_path_steps_per_s"] = (
        out["generator.martingale_calls"] * path_steps / out["generator.martingale_s"]
        if out["generator.martingale_calls"] else 0.0)
    out["simulator.accepted_jumps"] = sim["n_jumps"]
    out["simulator.excluded_paths"] = sim["excluded"]
    out["simulator.ensemble_mb"] = sum(
        s.counts["bytes"] for s, _ in spans("simulator.simulate_y")) / 1e6
    out["bench.traced_run_s"] = pairs[0][0].duration
    return out


def span_sum_residual(pairs):
    """Root duration minus the self times of every span of the run,
    the root's own self time (``scenarios.unattributed_s``) included."""
    return pairs[0][0].duration - sum(t for _, t in pairs)


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def cmd_setup(workload):
    t0 = time.perf_counter()
    from sdelab import scenarios
    if workload.registry:
        scenarios.build_bundle(scenarios.ScenarioSpec(
            name=workload.name, n_paths=workload.n_paths,
            n_steps=workload.n_steps, seed=workload.seed))
    return {"setup_s": time.perf_counter() - t0}


def _warm_up(checker):
    """Check run at the default seed and the check size: fills lazy caches
    and compares the report with the recorded references."""
    w = checker.workload
    checker.timed_run(w.seed, w.check_paths)
    if find_reference(checker.references, w, w.seed, w.check_paths) is None:
        checker.failed += 1
        checker.problems.append("no reference recorded for the check run")


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cmd_measure(workload, seed, seconds):
    checker = Checker(workload)
    _warm_up(checker)
    samples = []
    t_start = time.perf_counter()
    while not samples or time.perf_counter() - t_start < seconds:
        run_s, _ = checker.timed_run(seed)
        if run_s is None:  # the same inputs would raise again
            break
        samples.append(run_s)
    return {"run_s_samples": samples, "peak_rss_mb": _peak_rss_mb(),
            **checker.summary()}


def cmd_trace(workload, seed, seconds):
    from spans import SpanRecorder
    checker = Checker(workload)
    _warm_up(checker)
    recorder = SpanRecorder()
    untraced, traced_runs = [], []
    t_start = time.perf_counter()
    while (not untraced or not traced_runs
           or time.perf_counter() - t_start < seconds):
        if len(untraced) <= len(traced_runs):
            run_s, _ = checker.timed_run(seed)
            if run_s is None:  # the same inputs would raise again
                break
            untraced.append(run_s)
            continue
        recorder.run_id += 1
        run_s, doc = checker.timed_run(seed, recorder=recorder)
        if run_s is None:
            break
        pairs = run_spans(recorder, recorder.run_id)
        missing = [n for n in EXPECTED_SPANS[workload.name]
                   if not any(s.name == n for s, _ in pairs)]
        residual = span_sum_residual(pairs)
        if missing or abs(residual) > 1e-6:
            checker.failed += 1
            checker.problems.append(f"spans missing {missing}, "
                                    f"span sum residual {residual:.3g} s")
        traced_runs.append(layer_metrics(pairs, doc))
    layers = {}
    if untraced and traced_runs:
        layers = {k: statistics.median(r[k] for r in traced_runs)
                  for k in traced_runs[0]}
        base = statistics.median(untraced)
        layers["bench.untraced_run_s"] = base
        layers["bench.trace_overhead_frac"] = (
            layers["bench.traced_run_s"] - base) / base
    return {"layers": layers, "untraced_run_s_samples": untraced,
            "traced_runs": len(traced_runs), "peak_rss_mb": _peak_rss_mb(),
            **checker.summary()}


def cmd_reference(workload):
    """Reference values at the default seed, check size and full size."""
    out = []
    for n_paths in sorted({workload.check_paths, workload.n_paths}):
        doc = json.loads(emit(workload.report(workload.seed, n_paths)))
        out.append({"seed": workload.seed, "n_paths": n_paths,
                    "n_steps": workload.n_steps, **reference_values(doc)})
    return {workload.name: out}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("mode", choices=("setup", "measure", "trace", "reference"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = workload.seed if args.seed is None else args.seed
    if args.mode == "setup":
        result = cmd_setup(workload)
    elif args.mode == "measure":
        result = cmd_measure(workload, seed, args.seconds)
    elif args.mode == "trace":
        result = cmd_trace(workload, seed, args.seconds)
    else:
        result = cmd_reference(workload)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
