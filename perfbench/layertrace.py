"""Per-layer tracing for the benchmark, from outside the program.

``Tracer.install`` replaces the public functions and methods of each symext
layer module with wrappers that count calls and time them.  A module-level
function is rebound in every symext module that imported it by name, so a
call through ``from .groupdata import decompose`` is traced as well.  Nothing
under ``src/`` changes; the wrappers live only in the tracing interpreter.

For every span the tracer keeps the inclusive time of the outermost call of
each function (a recursive or re-entrant call is not counted twice) and the
self time of its layer: the span's duration minus the durations of its direct
child spans.  The self times of all spans add up to the time spent inside
top-level spans; what the phase took beyond that is the residual, spent in
the benchmark's own loop and in code no wrapper covers.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = (
    "exactnum",
    "groupdata",
    "lambdaops",
    "genfun",
    "closedforms",
    "catalog",
    "permgroup",
    "cli",
)

# Arithmetic and comparison operators are layer work too.  Cyclotomic's
# __rmul__ is the same function object as __mul__, and both are wrapped;
# "add" counts addition and subtraction together.
OPERATORS = {
    "__mul__": "mul",
    "__rmul__": "mul",
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "add",
    "__rsub__": "add",
    "__neg__": "neg",
    "__truediv__": "truediv",
    "__rtruediv__": "truediv",
    "__pow__": "pow",
    "__eq__": "eq",
}


def _span_name(attr: str) -> str | None:
    # is_* predicate methods are constant-time checks; their time stays with the caller
    if attr in OPERATORS:
        return OPERATORS[attr]
    return None if attr.startswith(("_", "is_")) else attr


class Tracer:
    """Call counts, outermost inclusive times and per-layer self times.

    ``scalar_s[layer]`` is the time of exactnum spans called directly from
    ``layer``: the scalar work that layer drives.
    """

    def __init__(self) -> None:
        self._stats: dict[str, list] = {}  # span -> [calls, open depth, inclusive s]
        self._self: dict[str, list[float]] = {}  # layer -> [self s]
        self._scalar: dict[str, list[float]] = {}  # layer -> [scalar s]
        # child time of each open span, above a base slot for top-level spans
        self._open: list[float] = [0.0]
        self._layers: list[str] = [""]

    def reset(self) -> None:
        for stat in self._stats.values():
            stat[0], stat[2] = 0, 0.0
        for acc in (*self._self.values(), *self._scalar.values()):
            acc[0] = 0.0
        self._open[0] = 0.0

    @property
    def calls(self) -> dict[str, int]:
        return {k: s[0] for k, s in self._stats.items() if s[0]}

    @property
    def inclusive(self) -> dict[str, float]:
        return {k: s[2] for k, s in self._stats.items() if s[0]}

    @property
    def self_s(self) -> dict[str, float]:
        return {k: acc[0] for k, acc in self._self.items()}

    @property
    def scalar_s(self) -> dict[str, float]:
        return {k: acc[0] for k, acc in self._scalar.items()}

    @property
    def top_s(self) -> float:
        """Time spent inside top-level spans since the last reset."""
        return self._open[0]

    def _wrap(self, layer: str, name: str, fn):
        stat = self._stats.setdefault(f"{layer}.{name}", [0, 0, 0.0])
        self_acc = self._self.setdefault(layer, [0.0])
        scalar = self._scalar
        open_spans, layers = self._open, self._layers
        is_scalar = layer == "exactnum"

        def traced(*args, **kwargs):
            stat[0] += 1
            stat[1] += 1
            open_spans.append(0.0)
            layers.append(layer)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = open_spans.pop()
                layers.pop()
                stat[1] -= 1
                if not stat[1]:
                    stat[2] += elapsed
                self_acc[0] += elapsed - child
                open_spans[-1] += elapsed
                if is_scalar and layers[-1] != layer:
                    scalar.setdefault(layers[-1], [0.0])[0] += elapsed

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every symext layer module; call once per interpreter."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"symext.{layer}"]
            for attr, value in list(vars(mod).items()):
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(value):
                    if not issubclass(value, BaseException):
                        self._wrap_methods(layer, value)
                elif callable(value) and not attr.startswith("_"):
                    replaced[id(value)] = self._wrap(layer, attr, value)
        # rebind module-level functions wherever they were imported by name
        for name, mod in list(sys.modules.items()):
            if name != "symext" and not name.startswith("symext."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            name = _span_name(attr)
            if name is None:
                continue
            if isinstance(value, (staticmethod, classmethod)):
                setattr(cls, attr, type(value)(self._wrap(layer, name, value.__func__)))
            elif inspect.isfunction(value):
                setattr(cls, attr, self._wrap(layer, name, value))
