"""Spans and counters recorded around cxpt's layer boundaries, from outside.

A :class:`Tracer` wraps callables so that each call records a span
``[name, start, end, parent]``, and optionally adds to a counter.
:func:`patched` installs such wrappers on cxpt's public functions under
every name the library binds them to (``cxpt.source.derivative`` as
well as ``cxpt.numerics.derivative``), and restores the originals on
exit.  Field evaluators are counted by wrapping the evaluator functions
of the fields the benchmark builds (:func:`counting_field`).

Self time of a span is its duration minus the durations of its direct
child spans; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: Wrapped library functions, by module.
TRACED = {
    "numerics": ("derivative", "integrate_interval", "sphere_rule"),
    "source": ("singular_action_r3", "singular_action_r4", "singular_action_odd",
               "singular_action_even", "regularized_action", "moments",
               "descent_check"),
    "wave": ("solve_cauchy", "extend", "wave_residual"),
    "clifford": ("extended_borel_pompeiu", "maxwell_extend"),
}


def layer_metric_names() -> list[str]:
    """Per-layer metric names derived from spans and counters, in report order."""
    names = ["fields.evaluate.calls", "fields.evaluate.points", "fields.evaluate.self_s",
             "fields.gradient.calls", "fields.gradient.points",
             "numerics.integrate_interval.calls", "numerics.integrate_interval.nodes",
             "numerics.integrate_interval.self_s",
             "numerics.derivative.calls", "numerics.derivative.self_s",
             "numerics.sphere_rule.calls", "numerics.sphere_rule.self_s"]
    for module in ("source", "wave", "clifford"):
        for fn in TRACED[module]:
            names += [f"{module}.{fn}.calls", f"{module}.{fn}.self_s"]
    return names


class Tracer:
    """In-memory span log and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, name: str, fn, count=None):
        """fn under a span ``name``; ``count(*args, **kwargs)`` -> (counter, amount)."""

        def traced(*args, **kwargs):
            if count is not None:
                key, amount = count(*args, **kwargs)
                self.counts[key] += amount
            stack = self._stack
            idx = len(self.spans)
            self.spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                self.spans[idx][2] = perf_counter()

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict[str, float]:
        """``<span>.calls`` and ``<span>.self_s`` per span name, plus the counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child[i]
        for key, amount in self.counts.items():
            out[key] += amount
        return dict(out)


def _points(pts) -> int:
    pts = np.asarray(pts)
    return 1 if pts.ndim < 2 else int(pts.shape[0])


def counting_fn(tracer: Tracer | None, span: str, fn):
    """Evaluator ``fn`` under ``span``, counting points in ``<span>.points``."""
    if tracer is None or fn is None:
        return fn
    return tracer.wrap(span, fn, lambda pts, *a, **k: (f"{span}.points", _points(pts)))


def counting_field(tracer: Tracer | None, field):
    """Copy of a cxpt field whose evaluators are counted; other attributes kept.

    Handles ``TestField`` (evaluator, gradient), ``SpacetimeField`` and
    ``SpacetimeMultivectorField`` (evaluator, s_derivative; the
    s-derivative is an evaluation of a field and counts as one).
    """
    if tracer is None:
        return field
    changes = {"evaluator": counting_fn(tracer, "fields.evaluate", field.evaluator)}
    if hasattr(field, "gradient"):
        changes["gradient"] = counting_fn(tracer, "fields.gradient", field.gradient)
    if hasattr(field, "s_derivative"):
        changes["s_derivative"] = counting_fn(tracer, "fields.evaluate", field.s_derivative)
    return dataclasses.replace(field, **changes)


def _wrap_integrate_interval(tracer: Tracer, orig):
    """Count integrand nodes: each call of the integrand adds its argument's size."""

    def integrate_interval(g, *args, **kwargs):
        def counted(x):
            tracer.counts["numerics.integrate_interval.nodes"] += int(np.size(x))
            return g(x)

        return orig(counted, *args, **kwargs)

    return tracer.wrap("numerics.integrate_interval", integrate_interval)


@contextmanager
def patched(tracer: Tracer):
    """Install span wrappers on every cxpt module binding of the TRACED functions."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "cxpt" or key.startswith("cxpt."))]
    swaps = []
    try:
        for module, names in TRACED.items():
            home = sys.modules[f"cxpt.{module}"]
            for name in names:
                orig = getattr(home, name)
                if name == "integrate_interval":
                    wrapper = _wrap_integrate_interval(tracer, orig)
                else:
                    wrapper = tracer.wrap(f"{module}.{name}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            swaps.append((m, attr, orig))
                            setattr(m, attr, wrapper)
        yield tracer
    finally:
        for m, attr, orig in reversed(swaps):
            setattr(m, attr, orig)
