"""Self-check of the benchmark at reduced size.

    python3 -m pytest -q bench/selfcheck.py

The file is deliberately not named ``test_*.py``: it is collected only when
named on the command line, so the repository's own test run does not pick
it up.
"""
import json

import pytest

from child import (EXPECTED_SPANS, WORKLOADS, Checker, emit, find_reference,
                   layer_metrics, load_references, run_spans, span_sum_residual)
from spans import SpanRecorder, traced

REPEATED_COUNTS = ("simulator.accepted_jumps", "simulator.excluded_paths",
                   "coefficients.inverse_calls", "coefficients.inverse_points",
                   "generator.martingale_calls", "generator.conjugation_calls",
                   "simulator.ensemble_mb")


def _traced_run(workload, recorder, seed):
    recorder.run_id += 1
    with traced(recorder), recorder.span("run"):
        text = emit(workload.report(seed, workload.check_paths))
    return text, run_spans(recorder, recorder.run_id)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_spans_counts_and_seed(name):
    w = WORKLOADS[name]
    untraced = emit(w.report(w.seed, w.check_paths))
    recorder = SpanRecorder()
    first_text, first = _traced_run(w, recorder, w.seed)
    second_text, second = _traced_run(w, recorder, w.seed)

    # every expected layer span fires, at whichever namespace it is called
    fired = {s.name for s, _ in first}
    assert set(EXPECTED_SPANS[name]) <= fired, set(EXPECTED_SPANS[name]) - fired
    # tracing does not change the report
    assert first_text == untraced and second_text == untraced
    # self times of all spans plus the unattributed rest make up the run
    for pairs in (first, second):
        assert abs(span_sum_residual(pairs)) < 1e-6
    # counts repeat exactly
    doc = json.loads(untraced)
    a, b = layer_metrics(first, doc), layer_metrics(second, doc)
    assert {k: a[k] for k in REPEATED_COUNTS} == {k: b[k] for k in REPEATED_COUNTS}
    # the workload seed reaches the program
    assert emit(w.report(w.seed + 1, w.check_paths)) != untraced


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_run_matches_references(name):
    w = WORKLOADS[name]
    assert find_reference(load_references(), w, w.seed, w.check_paths) is not None
    checker = Checker(w)
    for _ in range(2):
        checker.timed_run(w.seed, w.check_paths)
    assert checker.failed == 0, checker.problems
    assert checker.attempted == 2


def test_checker_flags_a_changed_report():
    w = WORKLOADS["stable_counterexample"]
    checker = Checker(w)
    entry = find_reference(checker.references, w, w.seed, w.check_paths)
    entry["simulation"]["n_jumps"] += 1
    checker.timed_run(w.seed, w.check_paths)
    assert checker.failed == 1
    assert any("n_jumps" in p for p in checker.problems)


def test_renamed_entry_point_fails_loudly(monkeypatch):
    from sdelab import pathcalc
    monkeypatch.delattr(pathcalc, "classify_dirichlet")
    with pytest.raises(LookupError):
        with traced(SpanRecorder()):
            pass
