"""Layer spans recorded from outside the program.

The tracer replaces public functions and methods of `quasinv` modules with
wrappers while a query runs and restores them afterwards.  Open spans live
on a stack in memory, so each span's self time is its duration minus the
time its child spans cover.  Totals are aggregated as the spans close:

- `incl[name]`: time inside `name`, counted once per outermost occurrence
  (a span nested in a span of the same name adds nothing);
- `self_ns[name]`: duration minus child spans, summed over all calls;
- `calls[name]`: number of calls;
- `counts[key]`: sizes recorded at the same boundaries (matrix cells,
  useful span insertions, series term pairs, field operations).

Module-level functions are patched in every loaded `quasinv` module that
binds them (for example `nullspace` is bound in `quasinv.linalg`,
`quasinv.quasi`, `quasinv.elliptic`, `quasinv.tower` and the package
itself), so callers that imported the name directly are traced too.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# (module, attribute path, span name, size recorder name or None)
SPANS = (
    ("quasinv.groups", "parse_group", "groups.parse_group", None),
    ("quasinv.groups", "GroupAlgebraElement.apply", "groups.apply", None),
    ("quasinv.groups", "ReflectionGroup.monomial_blocks", "groups.monomial_blocks", None),
    ("quasinv.poly", "Polynomial.substitute", "poly.substitute", None),
    ("quasinv.quasi", "freeness_certificate", "quasi.freeness_certificate", None),
    ("quasinv.quasi", "quasi_basis", "quasi.quasi_basis", None),
    ("quasinv.quasi", "module_certificate", "quasi.module_certificate", None),
    ("quasinv.linalg", "nullspace", "linalg.nullspace", "cells"),
    ("quasinv.linalg", "solve_exact", "linalg.solve_exact", None),
    ("quasinv.linalg", "IncrementalSpan.add", "linalg.span_add", "useful"),
    ("quasinv.tower", "fiber_product_basis", "tower.fiber_product_basis", None),
    ("quasinv.tower", "ganea_step", "tower.ganea_step", None),
    ("quasinv.series", "ZQSeries.__mul__", "series.zq_mul", "term_pairs"),
    ("quasinv.series", "ZQSeries.__rmul__", "series.zq_mul", "term_pairs"),
    ("quasinv.laurent", "exact_div", "laurent.exact_div", None),
    ("quasinv.elliptic", "ell_graded_dimension", "elliptic.ell_graded_dimension", None),
    ("quasinv.elliptic", "section_basis", "elliptic.section_basis", None),
)

# Cyclotomic arithmetic is counted, not timed: a span per field operation
# would cost more than the operation it measures.
CYCLOTOMIC_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "inverse",
)


def _record_cells(counts, args, result):
    matrix = args[0]
    if matrix:
        counts["linalg.nullspace.cells"] += len(matrix) * len(matrix[0])


def _record_useful(counts, args, result):
    if result:
        counts["linalg.span_add.useful"] += 1


def _record_term_pairs(counts, args, result):
    other = args[1]
    coeffs = getattr(other, "coeffs", None)
    if isinstance(coeffs, dict):
        counts["series.zq_mul.term_pairs"] += len(args[0].coeffs) * len(coeffs)


RECORDERS = {"cells": _record_cells, "useful": _record_useful,
             "term_pairs": _record_term_pairs}


class Tracer:
    """Aggregated span and count totals of one traced pass."""

    def __init__(self):
        self.incl = Counter()
        self.self_ns = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.top_ns = 0  # time covered by spans without a parent
        self.missing = []  # targets that no longer exist in the program
        self._stack = []
        self._open = Counter()

    def wrap(self, name, fn, recorder=None):
        stack, open_spans = self._stack, self._open
        incl, self_ns, calls, counts = self.incl, self.self_ns, self.calls, self.counts

        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            open_spans[name] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - start
                stack.pop()
                open_spans[name] -= 1
                if not open_spans[name]:
                    incl[name] += dur
                self_ns[name] += dur - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dur
                else:
                    self.top_ns += dur
            if recorder is not None:
                recorder(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counting(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts["fields.cyc_ops"] += 1
            return fn(*args, **kwargs)

        return counted

    def _patches(self):
        """(owner, attribute, replacement) for every traced binding."""
        out = []
        for module_name, path, name, recorder in SPANS:
            try:
                original, sites = bindings(module_name, path)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self.wrap(name, original, RECORDERS.get(recorder))
            out.extend((owner, attr, wrapper) for owner, attr in sites)
        fields = importlib.import_module("quasinv.fields")
        cyclotomic = getattr(fields, "Cyclotomic", None)
        if cyclotomic is None:
            self.missing.append("quasinv.fields.Cyclotomic")
        else:
            for attr in CYCLOTOMIC_OPS:
                if attr in vars(cyclotomic):
                    out.append((cyclotomic, attr, self._counting(vars(cyclotomic)[attr])))
        return out

    @contextmanager
    def installed(self):
        """Trace every layer while the block runs."""
        self.missing = []
        with patched(self._patches()):
            yield self

    def snapshot(self) -> dict:
        return {
            "incl": dict(self.incl), "self_ns": dict(self.self_ns),
            "calls": dict(self.calls), "counts": dict(self.counts),
            "missing": list(self.missing),
        }

    def merge(self, snap: dict) -> None:
        """Add the totals of a tracer that ran in another process, whose
        top-level span is the caller's to record."""
        self.incl.update(snap["incl"])
        self.self_ns.update(snap["self_ns"])
        self.calls.update(snap["calls"])
        self.counts.update(snap["counts"])
        self.missing.extend(m for m in snap["missing"] if m not in self.missing)


def bindings(module_name, path):
    """The object at `module_name.path` and every (owner, attribute) that
    binds it: the class attribute for a method, and for a module-level
    function each loaded `quasinv` module that imported it."""
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if attr not in vars(owner):
        raise AttributeError(f"{module_name}.{path}")
    original = vars(owner)[attr]
    if len(parts) > 1:
        return original, [(owner, attr)]
    sites = []
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == "quasinv" or key.startswith("quasinv.")):
            continue
        sites.extend((mod, name) for name, value in list(vars(mod).items())
                     if value is original)
    return original, sites


@contextmanager
def patched(patches):
    """Apply (owner, attribute, replacement) triples; undo them on exit."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
