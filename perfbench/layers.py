"""Per-layer instrumentation installed on ``bipara`` from outside, for one pass.

Two separate instruments, never installed together:

* ``Spans`` wraps the coarse calls (spec loading, tensor builds, verdicts,
  rendering) with a wall-clock span each.  A span name that is already open
  is not timed again, so a recursive or nested call of the same layer counts
  once; spans of different layers nest, so their times are inclusive.
* ``Counters`` wraps the fine-grained kernels (``MultiPoly`` ring operations,
  ``PolyMatrix.matvec``, brackets) with exact call and work counters.  Timing
  each of about 10^6 sub-microsecond calls would measure the timer, so this
  pass records counts only, and its wrappers are removed before any timed op.

Both patch module attributes and class attributes and restore every one of
them on ``remove()``; nothing under ``src/`` changes.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from functools import cached_property, wraps

from bipara import cli, connections, diagnostics, geometry, linalg, metrics, poly

_MISSING = object()


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__.get(name, _MISSING)))
        setattr(owner, name, value)

    def function(self, func, wrapper) -> None:
        """Rebind ``func`` to ``wrapper`` in every ``bipara`` module that imported it."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "bipara" or mod_name.startswith("bipara."):
                for attr, value in list(vars(module).items()):
                    if value is func:
                        self.set(module, attr, wrapper)

    def method(self, cls, name: str, make_wrapper) -> None:
        original = cls.__dict__[name]
        if isinstance(original, cached_property):
            replacement = cached_property(make_wrapper(original.func))
            replacement.__set_name__(cls, name)
        else:
            replacement = make_wrapper(original)
        self.set(cls, name, replacement)

    def remove(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            if value is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, value)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

# Span names in the stage order of ``cmd_report``; metric ``<name>_s``.
SPAN_NAMES = (
    "cli.load_spec",
    "poly.parse",
    "cli.build_structure",
    "geometry.polymap",
    "geometry.pushforward",
    "connections.frame_table",
    "connections.torsion",
    "connections.curvature",
    "connections.difference",
    "diagnostics.integrability",
    "diagnostics.flatness",
    "diagnostics.concomitant_tables",
    "connections.christoffel",
    "connections.routes_agree",
    "metrics.classify",
    "diagnostics.equivalence",
    "cli.render",
)


class Spans:
    """Wall time per layer, summed over every op run while installed."""

    def __init__(self):
        self.totals: dict[str, float] = dict.fromkeys(SPAN_NAMES, 0.0)
        self._open: set[str] = set()
        self._patches = _Patches()

    def _timed(self, name: str, func):
        totals, open_spans, clock = self.totals, self._open, time.perf_counter

        @wraps(func)
        def span(*args, **kwargs):
            if name in open_spans:
                return func(*args, **kwargs)
            open_spans.add(name)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                totals[name] += clock() - start
                open_spans.discard(name)

        return span

    def _timed_factory(self, name: str, factory):
        """Time the evaluator a factory returns, not the factory itself."""

        @wraps(factory)
        def make(*args, **kwargs):
            return self._timed(name, factory(*args, **kwargs))

        return make

    def install(self) -> "Spans":
        p = self._patches
        for owner_func, name in (
            (cli.load_spec, "cli.load_spec"),
            (cli.build_structure, "cli.build_structure"),
            (cli.emit, "cli.render"),
            (poly.parse_poly, "poly.parse"),
            (geometry.pushforward_vector, "geometry.pushforward"),
            (geometry.pushforward_endo, "geometry.pushforward"),
            (geometry.pushforward_bilinear, "geometry.pushforward"),
            (connections.canonical_christoffels, "connections.christoffel"),
            (connections.well_adapted_christoffels, "connections.christoffel"),
            (connections.well_adapted_routes_agree, "connections.routes_agree"),
            (diagnostics.integrability_verdict, "diagnostics.integrability"),
            (diagnostics.flatness_verdict, "diagnostics.flatness"),
            (diagnostics.equivalence_check, "diagnostics.equivalence"),
            (metrics.classify_metric, "metrics.classify"),
        ):
            p.function(owner_func, self._timed(name, owner_func))
        # The report's own Nijenhuis and [F, P] tables; the verdicts' internal
        # evaluations stay inside diagnostics.integrability.
        for factory in (cli.nijenhuis, cli.fn_bracket):
            p.set(cli, factory.__name__, self._timed_factory("diagnostics.concomitant_tables", factory))
        for cls, attr, name in (
            (connections.ConnectionLaw, "frame_table", "connections.frame_table"),
            (connections.TorsionTensor, "table", "connections.torsion"),
            (connections.CurvatureTensor, "table", "connections.curvature"),
            (connections.DifferenceTensor, "__init__", "connections.difference"),
            (geometry.PolyMap, "__init__", "geometry.polymap"),
        ):
            p.method(cls, attr, lambda f, name=name: self._timed(name, f))
        return self

    def remove(self) -> None:
        self._patches.remove()


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


# Counter metrics, reported per op.
COUNT_NAMES = (
    "connections.difference.builds",
    "connections.frame_table.builds",
    "poly.construct.calls",
    "poly.mul.calls",
    "poly.mul.term_products",
    "poly.add.calls",
    "poly.sub.calls",
    "poly.derivative.calls",
    "poly.parse.calls",
    "poly.substitute.calls",
    "linalg.matvec.calls",
    "geometry.lie_bracket.calls",
    "geometry.endo_apply.calls",
)


class Counters:
    """Exact operation counts, summed over every op run while installed."""

    def __init__(self):
        self.counts: Counter = Counter()
        self._patches = _Patches()

    def _count(self, name: str, func):
        counts = self.counts

        @wraps(func)
        def counted(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return counted

    def _ring_op(self, name: str, func):
        counts = self.counts
        multipoly = poly.MultiPoly

        @wraps(func)
        def counted(self_, other):
            counts[name] += 1
            if name == "poly.mul.calls":
                other_terms = len(other.terms) if isinstance(other, multipoly) else int(other != 0)
                counts["poly.mul.term_products"] += len(self_.terms) * other_terms
            result = func(self_, other)
            if not result.terms:
                counts["poly.zero_results"] += 1
            return result

        return counted

    def _matvec(self, func):
        counts = self.counts

        @wraps(func)
        def counted(matrix, vector):
            counts["linalg.matvec.calls"] += 1
            live = [not v.is_zero for v in vector]
            cols, entries = matrix.cols, matrix.entries
            counts["linalg.matvec.visited"] += matrix.rows * len(vector)
            counts["linalg.matvec.nonzero"] += sum(
                1
                for i in range(matrix.rows)
                for k in range(cols)
                if live[k] and not entries[i * cols + k].is_zero
            )
            return func(matrix, vector)

        return counted

    def install(self) -> "Counters":
        p = self._patches
        mp = poly.MultiPoly
        p.method(mp, "__init__", lambda f: self._count("poly.construct.calls", f))
        for attr, name in (
            ("__add__", "poly.add.calls"),
            ("__radd__", "poly.add.calls"),
            ("__sub__", "poly.sub.calls"),
            ("__mul__", "poly.mul.calls"),
            ("__rmul__", "poly.mul.calls"),
        ):
            p.method(mp, attr, lambda f, name=name: self._ring_op(name, f))
        p.method(mp, "derivative", lambda f: self._count("poly.derivative.calls", f))
        p.method(mp, "substitute", lambda f: self._count("poly.substitute.calls", f))
        p.method(linalg.PolyMatrix, "matvec", self._matvec)
        p.method(geometry.EndoField, "apply", lambda f: self._count("geometry.endo_apply.calls", f))
        p.method(connections.DifferenceTensor, "__init__", lambda f: self._count("connections.difference.builds", f))
        p.method(connections.ConnectionLaw, "frame_table", lambda f: self._count("connections.frame_table.builds", f))
        p.function(poly.parse_poly, self._count("poly.parse.calls", poly.parse_poly))
        p.function(geometry.lie_bracket, self._count("geometry.lie_bracket.calls", geometry.lie_bracket))
        return self

    def remove(self) -> None:
        self._patches.remove()

    def per_op(self, ops: int) -> dict[str, tuple[float, str]]:
        """The counter metrics with their units; counts are per op."""
        c = self.counts
        out = {name: (c[name] / ops, "count") for name in COUNT_NAMES}
        ring_calls = c["poly.add.calls"] + c["poly.sub.calls"] + c["poly.mul.calls"]
        visited = c["linalg.matvec.visited"]
        out["poly.zero_result_ratio"] = (c["poly.zero_results"] / ring_calls if ring_calls else 0.0, "ratio")
        out["linalg.matvec.nonzero_ratio"] = (c["linalg.matvec.nonzero"] / visited if visited else 0.0, "ratio")
        return out
