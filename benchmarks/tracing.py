"""Span tracing of the library's layers, installed from the benchmark side.

``install`` wraps every public function and public method (plus
``__init__``) defined in each layer module and rebinds the wrapper
wherever a ``renyibounds`` module bound the original, e.g.
``renyibounds.applications.brownian.erfc`` or the ``cmd_*`` functions the
CLI parser dispatches to. Private helpers stay unwrapped, so their time
counts to the innermost public function that called them.

A span is recorded only inside an operation (``begin_op``/``end_op``), so
input generation and output checks never show up as layer time. Spans are
kept in flat arrays and written out at exit; self time is accumulated as
each span closes: its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = (
    "cli",
    "variational",
    "measures",
    "divergences",
    "bounds",
    "specfun",
    "montecarlo",
    "applications.queueing",
    "applications.brownian",
)
ROOT = "bench.op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.name_col = array("i")
        self.parent = array("i")
        self.op_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._covered: list[float] = []
        self._op = -1
        self.draws = 0
        self.draw_bytes = 0
        self._root = self.name_id(ROOT, "bench")

    def name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    @property
    def active(self) -> bool:
        return bool(self._stack)

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_col.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_col.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self._covered.append(0.0)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        t = perf_counter()
        self.end[idx] = t
        dur = t - self.start[idx]
        self._stack.pop()
        covered = self._covered.pop()
        nid = self.name_col[idx]
        self.calls[nid] += 1
        self.self_s[nid] += dur - covered
        if self._covered:
            self._covered[-1] += dur

    def begin_op(self, op_id: int) -> int:
        self._op = op_id
        self.draws = self.draw_bytes = 0
        return self.open(self._root)

    def end_op(self, idx: int) -> dict:
        self.close(idx)
        return {"draws": self.draws, "bytes_computed": self.draw_bytes}

    def count_draws(self, values) -> None:
        if self._stack:
            self.draws += int(np.size(values))
            self.draw_bytes += int(getattr(values, "nbytes", 0))

    def totals(self) -> dict:
        """Calls and self seconds per span name and per layer."""
        funcs = {n: {"calls": c, "self_s": s}
                 for n, c, s in zip(self.names, self.calls, self.self_s)}
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in (*LAYERS, "bench")}
        for layer, c, s in zip(self.layer_of, self.calls, self.self_s):
            layers[layer]["calls"] += c
            layers[layer]["self_s"] += s
        return {"functions": funcs, "layers": layers}

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.name_col, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op_col, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _wrap(tracer: Tracer, fn, name: str, layer: str):
    nid = tracer.name_id(name, layer)

    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    traced.__name__ = fn.__name__
    traced.__qualname__ = fn.__qualname__
    traced.__doc__ = fn.__doc__
    traced.__wrapped__ = fn
    return traced


def _noop() -> None:
    return None


def span_cost_s(n: int = 20_000) -> float:
    """Seconds one traced call adds over a plain call, measured on a no-op."""
    probe = Tracer()
    traced = _wrap(probe, _noop, "bench.noop", "bench")
    root = probe.begin_op(0)
    start = perf_counter()
    for _ in range(n):
        traced()
    with_spans = perf_counter() - start
    probe.end_op(root)
    start = perf_counter()
    for _ in range(n):
        _noop()
    return max(with_spans - (perf_counter() - start), 0.0) / n


class _CountingGenerator:
    """Generator proxy that counts every variate it hands out."""

    def __init__(self, gen, tracer: Tracer) -> None:
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        method = getattr(self._gen, name)
        if not callable(method):
            return method

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self._tracer.count_draws(out)
            return out

        return counted


def install(tracer: Tracer) -> None:
    """Wrap the layers' public callables and count Monte Carlo draws."""
    replaced: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        mod = importlib.import_module("renyibounds." + layer)
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped = _wrap(tracer, obj, f"{layer}.{obj.__qualname__}", layer)
                replaced[id(obj)] = (obj, wrapped)
            elif inspect.isclass(obj):
                for member_name, member in list(vars(obj).items()):
                    if member_name.startswith("_") and member_name != "__init__":
                        continue
                    bound = isinstance(member, (staticmethod, classmethod))
                    fn = member.__func__ if bound else member
                    if not inspect.isfunction(fn):
                        continue
                    wrapped = _wrap(tracer, fn, f"{layer}.{fn.__qualname__}", layer)
                    if bound:
                        wrapped = type(member)(wrapped)
                    setattr(obj, member_name, wrapped)
    for modname, mod in list(sys.modules.items()):
        if modname != "renyibounds" and not modname.startswith("renyibounds."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])

    # every Monte Carlo variate comes from a per-chunk generator made by _rng
    mc = sys.modules["renyibounds.montecarlo"]
    make_rng = mc._rng
    mc._rng = lambda seed, stream: _CountingGenerator(make_rng(seed, stream), tracer)
