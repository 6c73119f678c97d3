"""Span recorder that times sdelab's layers from outside the program.

Every public entry point in ``ENTRY_POINTS`` is replaced, at every module
namespace that binds it, by a wrapper that records a span (name, start,
end, parent, run id) in memory.  Nothing inside ``src/sdelab`` changes:
a function called through a namespace the wrapper does not reach simply
produces no span, which the benchmark's self-check turns into a failure.
"""
from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def _array_points(args, kwargs):
    import numpy as np
    y = args[1] if len(args) > 1 else kwargs["y"]
    return {"points": int(np.size(y))}


def _ensemble_bytes(result):
    import numpy as np
    return {"bytes": sum(v.nbytes for v in vars(result).values()
                         if isinstance(v, np.ndarray))}


@dataclass(frozen=True)
class EntryPoint:
    """A function ``attr`` defined in module ``home`` (``owner`` for methods)."""

    home: str
    attr: str
    owner: str | None = None
    count_args: object = None      # (args, kwargs) -> {counter: value}
    count_result: object = None    # result -> {counter: value}

    @property
    def span(self):
        parts = [self.home.rsplit(".", 1)[-1], self.owner, self.attr]
        return ".".join(p for p in parts if p)


ENTRY_POINTS = (
    EntryPoint("sdelab.coefficients", "compute_drift_potential"),
    EntryPoint("sdelab.coefficients", "build_scale_transform"),
    EntryPoint("sdelab.coefficients", "check_hypotheses"),
    EntryPoint("sdelab.coefficients", "inverse", owner="ScaleTransform",
               count_args=_array_points),
    EntryPoint("sdelab.kernels", "moment_bound"),
    EntryPoint("sdelab.simulator", "build_characteristics"),
    EntryPoint("sdelab.simulator", "simulate_y", count_result=_ensemble_bytes),
    EntryPoint("sdelab.simulator", "compensator_residual"),
    EntryPoint("sdelab.generator", "martingale_residual_ensemble"),
    EntryPoint("sdelab.generator", "conjugation_residual"),
    EntryPoint("sdelab.pathcalc", "dirichlet_condition_intY"),
    EntryPoint("sdelab.pathcalc", "classify_dirichlet"),
    EntryPoint("sdelab.scenarios", "build_bundle"),
    EntryPoint("sdelab.scenarios", "report_json"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class SpanRecorder:
    """In-memory span store; one thread, properly nested spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run_id = 0

    @contextmanager
    def span(self, name, **counts):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), float("nan"), parent, self.run_id,
                   dict(counts))
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()


def self_times(spans):
    """Span duration minus the time covered by its direct children.

    ``spans`` is a recorder's full list, whose ``parent`` fields index into
    it.  Spans of one thread nest, so the children of a span are disjoint
    and their union is the sum of their durations.
    """
    child_total = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_total[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child_total)]


def _wrap(fn, entry: EntryPoint, recorder: SpanRecorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts = entry.count_args(args, kwargs) if entry.count_args else {}
        with recorder.span(entry.span, **counts) as rec:
            result = fn(*args, **kwargs)
            if entry.count_result:
                rec.counts.update(entry.count_result(result))
            return result
    return wrapper


@contextmanager
def traced(recorder: SpanRecorder):
    """Install span wrappers on every binding of every entry point.

    Raises LookupError when an entry point is missing from its home module,
    so a rename fails loudly instead of reporting zero time.
    """
    import sdelab  # noqa: F401  (loads every submodule that binds an entry)
    patches = []   # (namespace, attribute, original)
    try:
        for entry in ENTRY_POINTS:
            home = sys.modules[entry.home]
            if entry.owner:
                cls = getattr(home, entry.owner)
                original = cls.__dict__.get(entry.attr)
                if original is None:
                    raise LookupError(f"{entry.span} not found")
                setattr(cls, entry.attr, _wrap(original, entry, recorder))
                patches.append((cls, entry.attr, original))
                continue
            original = getattr(home, entry.attr, None)
            if original is None:
                raise LookupError(f"{entry.span} not found")
            wrapper = _wrap(original, entry, recorder)
            for name, module in list(sys.modules.items()):
                if name == "sdelab" or name.startswith("sdelab."):
                    if getattr(module, entry.attr, None) is original:
                        setattr(module, entry.attr, wrapper)
                        patches.append((module, entry.attr, original))
        yield recorder
    finally:
        for target, attr, original in reversed(patches):
            setattr(target, attr, original)
