"""Span recorder that wraps wavetrace's public functions from outside it.

``install`` replaces every module binding in the layer modules that refers
to a public wavetrace function with a timing wrapper, so
``wavetrace.cli.sweep_k`` and ``wavetrace.sweep.sweep_k`` are wrapped
separately and a call is seen wherever it is looked up. A span is named
after the layer (the module that defines the function) and the function.

Spans are kept in memory and written out once, after the timed region.
A span opened on a thread with no open span of its own (a ``sweep_k`` pool
worker) takes the main thread's innermost open span as its parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import types
from time import perf_counter

LAYERS = ("cli", "sweep", "herglotz", "spectra", "specfun", "surface", "verify")


def _matrix_shape(sig):
    """Rows and columns of the stacked trace matrix a call builds."""

    def info(args, kwargs):
        bound = sig.bind(*args, **kwargs).arguments
        interior = bound.get("interior", bound.get("interior_points"))
        rows = bound["grid"].n_nodes + (0 if interior is None else len(interior))
        return {"rows": rows, "cols": bound["dirs"].n_directions}

    return info


def _surface_key(sig):
    def info(args, kwargs):
        grid = sig.bind(*args, **kwargs).arguments["grid"]
        return {"surface": json.dumps(grid.descriptor, sort_keys=True)}

    return info


# Arguments recorded with the span, for rates and reuse ratios.
INFO = {
    "herglotz.assemble_trace_matrix": _matrix_shape,
    "sweep.boundary_subspace_singular_values": _matrix_shape,
    "spectra.static_row_integral": _surface_key,
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self.main_thread = threading.get_ident()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, info=None):
        kwargs = kwargs or {}
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        extra = info(args, kwargs) if info else None
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, threading.get_ident(), start, end, extra))

    def wrap(self, name: str, fn):
        info = INFO[name](inspect.signature(fn)) if name in INFO else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)

        return wrapper

    def install(self, package):
        """Wrap the public function bindings of every layer module."""
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if not value.__module__.startswith(package.__name__ + "."):
                    continue
                name = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                wrapped = self.wrap(name, value)
                if name == "spectra.make_single_layer_indicator":
                    wrapped = self._wrap_factory(wrapped)
                setattr(module, attr, wrapped)

    def _wrap_factory(self, factory):
        """The single-layer indicator is a closure the factory returns: wrap
        it and its ``.singular_values`` so its evaluations are spans too."""

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            indicator = factory(*args, **kwargs)
            traced = self.wrap("spectra.sl_indicator", indicator)
            traced.singular_values = self.wrap("spectra.sl_singular_values", indicator.singular_values)
            return traced

        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, name, thread, start, end, extra in self.spans:
                record = {
                    "id": sid, "parent": parent, "name": name,
                    "thread": "main" if thread == self.main_thread else thread,
                    "start": start, "end": end, "run": self.run_id,
                }
                if extra:
                    record["info"] = extra
                f.write(json.dumps(record) + "\n")
