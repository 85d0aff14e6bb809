"""Per-layer tracing of the mlpicard package from outside it.

While installed, a :class:`Tracer` replaces the package's layer entry points
with timing wrappers: every module attribute bound to one of the functions in
``FUNCTIONS`` (a module that did ``from .rng import stream_for`` holds its own
binding), the ``RandomStream.gaussians`` method, and the four callables of
every ``Problem`` built through ``instantiate``.  Nothing under ``src/`` is
edited; uninstalling restores every binding.

Spans are aggregated in memory per (parent span, span) edge as call count,
inclusive time, self time and an item count (paths for ``simulate_batch``,
scalar draws for ``gaussians``).  A span's self time is its duration minus the
durations of the spans it directly caused, so the self times of all edges add
up to the total duration of the root spans.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

# (span name, module, attribute, item counter over the positional arguments)
FUNCTIONS = [
    ("rng.stream_for", "mlpicard.rng", "stream_for", None),
    ("euler.update_times", "mlpicard.euler", "update_times", None),
    ("euler.simulate_batch", "mlpicard.euler", "simulate_batch", lambda a: len(a[2])),
    ("mlp.estimate", "mlpicard.mlp", "estimate", None),
    ("oracle.reference", "mlpicard.oracle", "closed_form", None),
    ("oracle.reference", "mlpicard.oracle", "picard_quadrature_1d", None),
    ("oracle.reference", "mlpicard.oracle", "mc_baseline", None),
    ("bounds", "mlpicard.bounds", "error_bound", None),
    ("bounds", "mlpicard.bounds", "total_cost_bound", None),
    ("bounds", "mlpicard.mlp", "cost_recursion_bound", None),
    ("harness.run_experiment", "mlpicard.harness", "run_experiment", None),
    ("harness.emit_csv", "mlpicard.harness", "emit_csv", None),
]
GAUSSIANS = ("rng.gaussians", "mlpicard.rng", "RandomStream", "gaussians", lambda a: a[1])
PROBLEM_CALLABLES = {
    "drift": "problems.coeff",
    "diffusion": "problems.coeff",
    "terminal": "problems.fg",
    "nonlinearity": "problems.fg",
}


def _lookup(module: str, attr: str):
    """The named attribute, or None when a refactor has removed it."""
    try:
        return getattr(importlib.import_module(module), attr, None)
    except ImportError:
        return None


class Tracer:
    def __init__(self):
        # (parent span, span) -> [calls, inclusive s, self s, items]
        self.edges: dict = {}
        self._stack = [["", 0.0]]  # [span name, time covered by its children]

    def wrap(self, name: str, fn, items=None):
        stack, edges = self._stack, self.edges

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                parent[1] += duration
                edge = edges.get((parent[0], name))
                if edge is None:
                    edge = edges[(parent[0], name)] = [0, 0.0, 0.0, 0]
                edge[0] += 1
                edge[1] += duration
                edge[2] += duration - frame[1]
                if items is not None:
                    edge[3] += items(args)

        traced.__wrapped__ = fn
        return traced

    def wrap_problem(self, problem):
        """Copy of ``problem`` whose four callables are traced."""
        return dataclasses.replace(problem, **{
            field: self.wrap(layer, getattr(problem, field))
            for field, layer in PROBLEM_CALLABLES.items()
        })

    @contextmanager
    def installed(self):
        """Bind the traced wrappers in every loaded mlpicard module."""
        replace = {}  # id(original) -> (original, wrapper)
        for name, module, attr, items in FUNCTIONS:
            fn = _lookup(module, attr)
            if fn is not None:
                replace[id(fn)] = (fn, self.wrap(name, fn, items))
        instantiate = _lookup("mlpicard.problems", "instantiate")
        if instantiate is not None:
            replace[id(instantiate)] = (
                instantiate, lambda *a, **k: self.wrap_problem(instantiate(*a, **k)))

        restore = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mlpicard" or mod_name.startswith("mlpicard.")):
                continue
            for attr, value in list(vars(mod).items()):
                original, wrapper = replace.get(id(value), (None, None))
                if original is value:
                    restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        name, module, cls_name, attr, items = GAUSSIANS
        cls = _lookup(module, cls_name)
        if cls is not None and attr in vars(cls):
            restore.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, self.wrap(name, vars(cls)[attr], items))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)

    def by_span(self) -> dict:
        """Span name -> [calls, inclusive s, self s, items], summed over parents."""
        totals: dict = {}
        for (_, name), edge in self.edges.items():
            acc = totals.setdefault(name, [0, 0.0, 0.0, 0])
            for i, value in enumerate(edge):
                acc[i] += value
        return totals

    def root_wall(self) -> float:
        """Total duration of the spans that had no traced parent."""
        return sum(edge[1] for (parent, _), edge in self.edges.items() if parent == "")

    def edge_table(self) -> list:
        return [
            {"parent": parent, "span": name, "calls": e[0], "total_s": e[1],
             "self_s": e[2], "items": e[3]}
            for (parent, name), e in sorted(self.edges.items())
        ]
