"""Span recorder that wraps spincat's layer functions for one traced run.

While installed, every public function of each layer module, every name
another spincat module imported from it, and a few work-carrying methods
are replaced by wrappers that record a span: name, start, end, parent span
and op id.  Spans live in flat in-memory arrays and are written out once,
by `save`.  Leaving the `with` block restores every original binding.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("halfint", "su2", "coherent", "dynamics", "schwinger", "metrology", "statefile", "verify", "cli")

# (layer, class, attribute, span name) of methods that carry work.
METHODS = (
    ("su2", "SpinOperator", "apply", "su2.SpinOperator.apply"),
    ("su2", "SpinState", "__init__", "su2.SpinState.init"),
    ("schwinger", "TwoModeState", "__init__", "schwinger.TwoModeState.init"),
)

OP_SPAN = "bench.op"

# Builders of per-j generator matrices: what a per-j cache would key on.
GENERATORS = frozenset(f"su2.{n}" for n in ("jx", "jy", "jz", "jplus", "jminus", "casimir"))


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _count_bytes(key: str, pick):
    def hook(tracer, parent, args, result):
        tracer.counters[key] += _size(pick(args))

    return hook


def _note_dim(tracer, parent, args, result):
    tracer.max_dim = max(tracer.max_dim, args[0].j.dim)


def _generator_hook(name: str):
    def hook(tracer, parent, args, result):
        # Only the outermost build counts: jx calling jplus is one build of jx.
        if parent < 0 or tracer.labels[tracer.name[parent]] not in GENERATORS:
            tracer.generator_builds.append((name, args[0].twice_value))

    return hook


HOOKS = {
    "su2.expm_hermitian": _note_dim,
    "statefile.save_state": _count_bytes("statefile.bytes_written", lambda a: a[1]),
    "statefile.load_state": _count_bytes("statefile.bytes_read", lambda a: a[0]),
    **{f"cli.{c}": _count_bytes("cli.csv_bytes_written", lambda a: a[1].out) for c in ("cmd_husimi", "cmd_metrology")},
    **{g: _generator_hook(g) for g in GENERATORS},
}


class Tracer:
    """Records spans of spincat calls between `install` and `restore`."""

    def __init__(self):
        self.labels: list[str] = [OP_SPAN]
        self._ids = {OP_SPAN: 0}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op_id = -1
        self._bindings: list[tuple[object, str, object]] = []
        self.counters: Counter = Counter()
        self.max_dim = 0
        self.generator_builds: list[tuple[str, int]] = []

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, span_name: str, fn):
        if span_name not in self._ids:
            self._ids[span_name] = len(self.labels)
            self.labels.append(span_name)
        name_id = self._ids[span_name]
        hook = HOOKS.get(span_name)
        stack, open_, close = self._stack, self._open, self._close

        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(self, parent, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _rebind(self, owner, attr: str, new):
        self._bindings.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        package = importlib.import_module("spincat")
        modules = {layer: importlib.import_module(f"spincat.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        # Rebind the defining name and every name other modules imported.
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._rebind(module, attr, wrapped[obj])
        for layer, cls, attr, span_name in METHODS:
            owner = getattr(modules[layer], cls)
            self._rebind(owner, attr, self._wrap(span_name, owner.__dict__[attr]))

    def restore(self):
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()

    @contextlib.contextmanager
    def op_span(self, op_id: int):
        """The root span of one benchmark op; spincat calls inside it are its children."""
        self._op_id = op_id
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)
            self._op_id = -1

    def _arrays(self):
        # Copies, so the arrays can still grow afterwards.
        return (
            np.frombuffer(self.name, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def per_name(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per span name.

        Self time is a span's duration minus the durations of its child
        spans; calls are single-threaded, so children never overlap.
        """
        name, parent, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        k = len(self.labels)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(self.labels)
        }

    def save(self, path, extra: dict):
        """Write every span, and `extra` as JSON, to one compressed .npz file."""
        name, parent, start, end = self._arrays()
        np.savez_compressed(
            path,
            name=name,
            parent=parent,
            op=np.frombuffer(self.op, dtype=np.int32).copy(),
            start=start,
            end=end,
            names=np.array(self.labels),
            extra=np.array(json.dumps(extra)),
        )
