"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces every public function of the layer modules with a
wrapper that records one span per call, under every name the function is
bound to inside the ``conslaw`` package (``conslaw.evolution.assemble_bloch``
is the same function as ``conslaw.bloch.assemble_bloch``).  Functions that a
module imports at call time (``from .bloch import critical_curves`` inside
``classify_numerically``) resolve through the patched ``conslaw.bloch``.

Spans stay in memory as ``[span_id, parent_id, op_id, name, start, end,
error]`` lists and are written out once, at the end of a run.  Self times are
derived from them afterwards: a span's duration minus the durations of its
direct children (one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Modules timed as layers.  ``fourier`` is reached only from inside them and
#: ``cli`` only during set-up; neither is wrapped.
LAYER_MODULES = ("rolls", "bloch", "dispersion", "mgl", "evolution")

#: Name of the root span that encloses one benchmark operation.
OP_SPAN = "op"

#: Results read by the tracer, by span name: a number whose maximum is kept.
OBSERVED = {"bloch.assemble_bloch": ("bloch.matrix_dim", lambda op: op.matrix.shape[0])}


def layer_functions() -> dict[str, object]:
    """Public functions of the layer modules, keyed ``<module>.<function>``."""
    found = {}
    for mod_name in LAYER_MODULES:
        module = importlib.import_module(f"conslaw.{mod_name}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isfunction(obj):
                found[f"{mod_name}.{attr}"] = obj
    return found


class Tracer:
    """Install span-recording wrappers around the layer functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.observed: dict[str, float] = {}
        self._stack: list[int] = []
        self._op_id: int | None = None
        functions = layer_functions()
        by_id = {id(fn): (name, fn) for name, fn in functions.items()}
        wrappers = {name: self._wrap(name, fn) for name, fn in functions.items()}
        # (namespace, attribute, original, wrapper) for every binding in the package
        self._bindings = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "conslaw" or mod_name.startswith("conslaw.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[1] is value:
                    self._bindings.append((module, attr, value, wrappers[hit[0]]))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = OBSERVED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, self._op_id, name, perf_counter(), 0.0, False]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            except Exception:
                rec[6] = True
                raise
            finally:
                rec[5] = perf_counter()
                stack.pop()
            if observe is not None:
                key, read = observe
                self.observed[key] = max(self.observed.get(key, 0), read(result))
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    @contextmanager
    def op(self, op_id: int):
        """Trace one benchmark operation: wrappers on, under a root span."""
        self._op_id = op_id
        self.install()
        rec = [len(self.spans), -1, op_id, OP_SPAN, perf_counter(), 0.0, False]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        except Exception:
            rec[6] = True
            raise
        finally:
            rec[5] = perf_counter()
            self._stack.pop()
            self.uninstall()
            self._op_id = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op_id, name, start, end, error in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "op": op_id, "name": name,
                         "start": start, "end": end, "error": error}
                    )
                    + "\n"
                )


def span_totals(spans, scale: dict[int, float] | None = None) -> dict[str, dict[str, float]]:
    """Calls, errors and self seconds summed per span name.

    ``scale`` maps an op id to the factor its times are multiplied by.
    """
    scale = scale or {}
    child_time = defaultdict(float)
    for sid, parent, _, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "errors": 0, "self_s": 0.0})
    for sid, _, op_id, name, start, end, error in spans:
        entry = totals[name]
        entry["calls"] += 1
        entry["errors"] += int(error)
        entry["self_s"] += ((end - start) - child_time[sid]) * scale.get(op_id, 1.0)
    return dict(totals)
