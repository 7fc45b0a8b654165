"""Spans around calls into gscompile's public functions, recorded from outside.

While a Tracer is active, every traced function is replaced, in every
gscompile module that holds a reference to it, by a wrapper that records a
span (name, layer, start, end, parent span, operation id). Calls made inside
the package go through those module globals too, so best_placement's calls to
enumerate_embeddings and score_embedding are seen. Spans stay in memory.

score_embedding and expectation run thousands of times per operation, and
enumerate_embeddings is a generator whose work happens in each next(). These
are recorded as per-operation totals charged to the enclosing span instead
of one span per call, which keeps memory flat and the overhead small.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

TRACED = {
    "placement": ("best_placement", "enumerate_embeddings", "score_embedding"),
    "device": ("load_calibration", "calibration_from_json"),
    "model": ("build_model", "check_solution", "emit_smtlib"),
    "solver": ("solve_exact",),
    "circuit": ("derive_circuit", "naive_circuit"),
    "graphs": ("stabilizer_group",),
    "sim": ("simulate_ideal", "expectation", "estimate_fidelity", "density_oracle"),
    "oracle": ("oracle_sweep",),
}
LEAVES = {"score_embedding", "expectation"}
GENERATORS = {"enumerate_embeddings"}
LAYER_OF = {fn: layer for layer, fns in TRACED.items() for fn in fns}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "leaf_s")

    def __init__(self, name: str, layer: str, start: float, parent: Optional[int], op: int):
        self.name, self.layer, self.start, self.end = name, layer, start, start
        self.parent, self.op = parent, op
        self.leaf_s = 0.0  # time of aggregated leaf calls directly under this span


class Tracer:
    """Records spans while active; `with tracer.active():` installs the wrappers."""

    def __init__(self):
        self.spans: List[Span] = []
        # (op, function, enclosed by a span of its own layer, called from bench code)
        self.leaf_s: Dict[Tuple[int, str, bool, bool], float] = defaultdict(float)
        self.leaf_calls: Dict[Tuple[int, str, bool, bool], int] = defaultdict(int)
        self.yielded: Dict[Tuple[int, str], int] = defaultdict(int)
        self._first_span: Dict[int, int] = {}
        self._stack: List[int] = []
        self._op = -1
        self._patched: List[Tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def begin(self, name: str, layer: str, op: Optional[int] = None) -> int:
        if op is not None:
            self._op = op
            self._first_span[op] = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self) -> None:
        self.spans[self._stack.pop()].end = time.perf_counter()

    def _leaf(self, name: str, seconds: float) -> None:
        layer = LAYER_OF[name]
        enclosed = any(self.spans[i].layer == layer for i in self._stack)
        top = bool(self._stack) and self.spans[self._stack[-1]].layer == "bench"
        if self._stack:
            self.spans[self._stack[-1]].leaf_s += seconds
        key = (self._op, name, enclosed, top)
        self.leaf_s[key] += seconds
        self.leaf_calls[key] += 1

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        layer = LAYER_OF[name]
        if name in LEAVES:
            def leaf(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._leaf(name, time.perf_counter() - t0)
            return leaf
        if name in GENERATORS:
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        self._leaf(name, time.perf_counter() - t0)
                        return
                    self._leaf(name, time.perf_counter() - t0)
                    self.yielded[(self._op, name)] += 1
                    yield item
            return generator

        def span(*args, **kwargs):
            self.begin(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return span

    @contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def _install(self) -> None:
        originals = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"gscompile.{layer}"]
            for name in names:
                originals[id(getattr(module, name))] = name
        modules = [m for key, m in sys.modules.items() if key == "gscompile" or key.startswith("gscompile.")]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is None or attr != name:
                    continue
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[name])

    def _uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------

    def op_breakdown(self, op: int) -> Dict[str, float]:
        """Seconds per layer (busy and self) and per function for one operation.

        Busy time of a layer is the time covered by its outermost spans; self
        time excludes the time of nested spans and aggregated leaf calls.
        """
        out: Dict[str, float] = defaultdict(float)
        first = self._first_span[op]
        spans = [(i, s) for i, s in enumerate(self.spans[first:], first) if s.op == op]
        child_s: Dict[int, float] = defaultdict(float)
        for _, s in spans:
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start
        for i, s in spans:
            dur = s.end - s.start
            out[f"fn.{s.name}"] += dur
            out[f"{s.layer}.self_s"] += dur - child_s[i] - s.leaf_s
            if not self._inside_layer(s):
                out[f"{s.layer}.busy_s"] += dur
            if s.parent is not None and self.spans[s.parent].layer == "bench":
                out[f"top.{s.name}"] += dur
        for (o, name, enclosed, top), seconds in self.leaf_s.items():
            if o != op:
                continue
            layer = LAYER_OF[name]
            out[f"fn.{name}"] += seconds
            out[f"{layer}.self_s"] += seconds
            if not enclosed:
                out[f"{layer}.busy_s"] += seconds
            if top:
                out[f"top.{name}"] += seconds
        return out

    def items(self, op: int, name: str) -> int:
        """Items a traced generator yielded during one operation."""
        return self.yielded[(op, name)]

    def _inside_layer(self, s: Span) -> bool:
        p = s.parent
        while p is not None:
            if self.spans[p].layer == s.layer:
                return True
            p = self.spans[p].parent
        return False

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "layer": s.layer, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op}
                for s in self.spans
            ],
            "leaf_totals": [
                {"op": key[0], "name": key[1], "seconds": sec, "calls": self.leaf_calls[key]}
                for key, sec in self.leaf_s.items()
            ],
        }

