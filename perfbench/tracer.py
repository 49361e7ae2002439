"""Span tracing from outside the program: module-level names the solver calls
are swapped for timing wrappers while a traced run lasts.

The solver reaches every layer through these names (it imported `factor`,
`encode_digits` and `list_decode` into its own namespace, and calls
`build_points` and `oracle.bsgs_dlp` through module globals; `list_decode`
calls `select_params`, `interpolate` and `y_roots` the same way), so
replacing them catches every call without touching the sources. `ff` is not
wrapped: it works per element and its cost shows in the self time of the
layers above it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import program

program.load()

from kummerlog import listdecode, oracle, solver

ROOT_SPAN = "solver.solve"

# (module, attribute, span name)
TARGETS = (
    (solver, "factor", "poly.factor"),
    (solver, "encode_digits", "extfield.encode_digits"),
    (solver, "build_points", "solver.build_points"),
    (solver, "list_decode", "listdecode.list_decode"),
    (listdecode, "select_params", "listdecode.select_params"),
    (listdecode, "interpolate", "listdecode.interpolate"),
    (listdecode, "y_roots", "listdecode.y_roots"),
    (oracle, "bsgs_dlp", "oracle.bsgs_dlp"),
)
SPAN_NAMES = tuple(name for _, _, name in TARGETS)


class Span:
    __slots__ = ("name", "parent", "start", "end", "result", "error")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.result = None
        self.error = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory in start order; the open ones form a stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else None
        span = Span(name, parent, time.perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            span.result = fn(*args, **kwargs)
            return span.result
        except BaseException as exc:
            span.error = exc
            raise
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Swap every target for its wrapper; the originals come back on exit."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in TARGETS]
        try:
            for (module, attr, name), (_, _, fn) in zip(TARGETS, originals):
                setattr(module, attr, self._wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer totals from the spans: calls, inclusive ms, self ms, plus the
    counts each layer's results carry."""
    own = tracer.self_seconds()
    calls = {name: 0 for name in SPAN_NAMES + (ROOT_SPAN,)}
    total = dict.fromkeys(calls, 0.0)
    self_total = dict.fromkeys(calls, 0.0)
    factor_split = candidates = refused = 0
    rows = cols = mult = 0
    for span, s_own in zip(tracer.spans, own):
        calls[span.name] += 1
        total[span.name] += span.seconds
        self_total[span.name] += s_own
        if span.error is not None:
            refused += isinstance(span.error, oracle.BudgetExceeded)
            continue
        if span.name == "poly.factor":
            _lc, factors = span.result
            factor_split += all(f.degree == 1 for f, _ in factors)
        elif span.name == "listdecode.list_decode":
            candidates += len(span.result)
        elif span.name == "listdecode.select_params":
            p = span.result
            m = p.multiplicity
            rows = max(rows, p.n_points * m * (m + 1) // 2)
            cols = max(cols, len(p.monomials()))
            mult = max(mult, m)
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.ms"] = (1000.0 * total[name], "ms")
        out[f"{name}.self_ms"] = (1000.0 * self_total[name], "ms")
    n_factor = calls["poly.factor"]
    out["poly.factor.split_share"] = (factor_split / n_factor if n_factor else 0.0, "share")
    out["listdecode.candidates"] = (candidates, "count")
    out["listdecode.rows"] = (rows, "count")
    out["listdecode.cols"] = (cols, "count")
    out["listdecode.multiplicity"] = (mult, "count")
    out["oracle.bsgs_dlp.refused"] = (refused, "count")
    out["solver.solve.calls"] = (calls[ROOT_SPAN], "count")
    out["solver.solve.ms"] = (1000.0 * total[ROOT_SPAN], "ms")
    out["solver.self.ms"] = (1000.0 * self_total[ROOT_SPAN], "ms")
    return out
