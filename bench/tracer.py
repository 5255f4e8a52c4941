"""Span tracer for the public functions of thermomin's five modules.

Inside a ``with tracer:`` block every traced function is rebound in each
loaded ``thermomin`` module that holds it under any name. ``measures``,
``dynamics`` and ``oracle`` import their helpers with ``from .qstate import
...``, so rebinding only the defining module would miss those internal
calls. Spans stay in memory, one array per block, until ``save`` writes
them out; a span's self time is its duration minus its child spans'.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

PACKAGE = "thermomin"

# (module, public function) pairs, grouped by layer.
TARGETS = (
    ("qstate", "validate_state"),
    ("qstate", "hermitian_eigensystem"),
    ("qstate", "bloch_decompose"),
    ("qstate", "matrix_sqrt_psd"),
    ("qstate", "partial_trace"),
    ("dynamics", "analytic_state_at"),
    ("dynamics", "integrate"),
    ("measures", "concurrence"),
    ("measures", "hs_min"),
    ("measures", "trace_min"),
    ("measures", "canonicalize_correlations"),
    ("measures", "evaluate_measures"),
    ("oracle", "brute_force_hs_min"),
    ("oracle", "brute_force_trace_min"),
    ("oracle", "brute_force_weak_min"),
    ("oracle", "projective_post_state"),
    ("oracle", "weak_post_state"),
    ("cli", "run_time_sweep"),
    ("cli", "run_strength_sweep"),
    ("cli", "run_validation"),
)

# Work a span did, read from its function's return value: RK4 steps taken.
WORK = {"dynamics.integrate": lambda trajectory: len(trajectory) - 1}

SPAN = np.dtype([("name", "i4"), ("parent", "i8"), ("start", "f8"), ("end", "f8"), ("work", "i8")])


class Tracer:
    """Records a span around every call of the TARGETS functions."""

    def __init__(self):
        self.names = [f"{module}.{function}" for module, function in TARGETS]
        self.functions = {
            name: getattr(sys.modules[f"{PACKAGE}.{module}"], function)
            for name, (module, function) in zip(self.names, TARGETS)
        }
        self.blocks = []
        self._spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, index, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self._spans
            stack = self._stack
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[i] = (index, parent, start, end, 0)
            if work is not None:
                spans[i] = (index, parent, start, end, work(result))
            return result

        return traced

    def __enter__(self):
        self._spans = []
        self._stack = []
        loaded = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for index, name in enumerate(self.names):
            fn = self.functions[name]
            wrapper = self._wrap(index, fn, WORK.get(name))
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, fn))
        return self

    def __exit__(self, *exc_info):
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()
        self.blocks.append(np.array(self._spans, dtype=SPAN))
        self._spans = []
        return False

    def summarize(self, block):
        """Per-function calls, self seconds, inclusive seconds and work of one block."""
        n = len(self.names)
        duration = block["end"] - block["start"]
        child = np.zeros(len(block))
        nested = block["parent"] >= 0
        np.add.at(child, block["parent"][nested], duration[nested])
        names = block["name"]
        return {
            "calls": np.bincount(names, minlength=n),
            "self_s": np.bincount(names, weights=duration - child, minlength=n),
            "total_s": np.bincount(names, weights=duration, minlength=n),
            "work": np.bincount(names, weights=block["work"], minlength=n),
        }

    def save(self, path):
        """Write every recorded span, tagged with the index of its block."""
        spans = np.concatenate(self.blocks) if self.blocks else np.zeros(0, dtype=SPAN)
        block = np.repeat(np.arange(len(self.blocks)), [len(b) for b in self.blocks])
        np.savez(path, names=np.array(self.names), block=block, **{f: spans[f] for f in SPAN.names})
