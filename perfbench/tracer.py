"""Layer spans recorded from outside the program.

`Tracer.install` replaces every module attribute of the package that is
bound to one of its functions with a wrapper, in the home module and in
every module (and the package namespace) that imported a copy. It also
wraps the methods, classmethods, staticmethods and property getters of
the package's classes, on the class, except the dunder methods the
interpreter calls for equality, hashing, printing and attribute setting
(`__init__`, `__post_init__` and `__call__` are wrapped). A call
that crosses from one layer (module) into another opens a span; a call
within a layer only runs the counters. Spans live in flat arrays until
`Tracer.summary` folds them into per-layer call counts and self times.

Only the main thread records: the sampler's worker threads run inside
the span of the main-thread call that started them, so their time lands
in that span.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
from array import array
from collections import Counter
from time import perf_counter

LAYERS = (
    "permutations",
    "eulerian",
    "measures",
    "moments",
    "stein",
    "pair",
    "sampler",
    "verify",
    "cli",
)
COUNTERS = (
    "eulerian.cache_hits",
    "eulerian.cache_misses",
    "eulerian.cells_built",
    "measures.atoms",
    "measures.bigint_digits",
    "moments.power_sum_terms",
    "stein.tv_calls",
    "stein.solver_calls",
    "sampler.draws",
    "sampler.cards",
)
WRAPPED_DUNDERS = ("__init__", "__post_init__", "__call__")
_LOG10_2 = math.log10(2)


class Tracer:
    def __init__(self, package: str = "shufflestats"):
        self.package = package
        self.active = False
        self.counters: Counter = Counter(dict.fromkeys(COUNTERS, 0))
        self.table_n_max = 0
        self._main = threading.get_ident()
        self._layers: list[str] = []
        self._stack: list[int] = []
        self._span_layer = array("i")
        self._span_parent = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._wrappers: dict[int, object] = {}
        self._wrapper_ids: set[int] = set()
        self.originals: dict[str, object] = {}

    # -- installation --------------------------------------------------

    def install(self) -> int:
        """Wrap every package function attribute and class member; return
        how many attributes were replaced."""
        replaced = 0
        classes = {}
        for name, module in sorted(sys.modules.items()):
            if module is None or not (name == self.package or name.startswith(self._prefix)):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isclass(obj) and self._ours(obj):
                    classes[id(obj)] = obj
                elif inspect.isfunction(obj) and self._ours(obj):
                    setattr(module, attr, self._wrap(obj))
                    replaced += 1
        for cls in classes.values():
            for attr, member in list(vars(cls).items()):
                wrapped = self._wrap_member(attr, member)
                if wrapped is not None:
                    setattr(cls, attr, wrapped)
                    replaced += 1
        return replaced

    @property
    def _prefix(self) -> str:
        return self.package + "."

    def _ours(self, obj) -> bool:
        return (getattr(obj, "__module__", None) or "").startswith(self._prefix) \
            and id(obj) not in self._wrapper_ids

    def _wrap_member(self, attr: str, member):
        """The wrapped class member, or None when it is left as it is."""
        if attr.startswith("__") and attr not in WRAPPED_DUNDERS:
            return None
        if isinstance(member, (classmethod, staticmethod)):
            fn = member.__func__
            return type(member)(self._wrap(fn)) if self._ours(fn) else None
        if isinstance(member, property):
            fn = member.fget
            if fn is None or not self._ours(fn):
                return None
            return property(self._wrap(fn), member.fset, member.fdel, member.__doc__)
        if inspect.isfunction(member) and self._ours(member):
            return self._wrap(member)
        return None

    def _wrap(self, fn):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is not None:
            return wrapper
        layer_name = fn.__module__.rsplit(".", 1)[-1]
        self.originals[f"{layer_name}.{fn.__qualname__}"] = fn
        if layer_name not in self._layers:
            self._layers.append(layer_name)
        layer = self._layers.index(layer_name)
        pre, post = _HOOKS.get((layer_name, fn.__qualname__), (None, None))
        count_pmf = layer_name == "measures"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            stack = tracer._stack
            before = pre(tracer) if pre else None
            if stack and tracer._span_layer[stack[-1]] == layer:
                result = fn(*args, **kwargs)
            else:
                idx = tracer._open(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if count_pmf:
                    tracer._count_pmf(result)
            if post:
                post(tracer, before, args, kwargs)
            return result

        self._wrappers[id(fn)] = wrapper
        self._wrapper_ids.add(id(wrapper))
        return wrapper

    # -- spans ---------------------------------------------------------

    def _open(self, layer: int) -> int:
        idx = len(self._span_layer)
        self._span_layer.append(layer)
        self._span_parent.append(self._stack[-1] if self._stack else -1)
        self._span_start.append(perf_counter())
        self._span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._span_end[idx] = perf_counter()
        self._stack.pop()

    def _count_pmf(self, result) -> None:
        support = getattr(result, "support", None)
        mass = getattr(result, "mass", None)
        if support is None or mass is None:
            return
        self.counters["measures.atoms"] += len(support)
        bits = sum(m.numerator.bit_length() + m.denominator.bit_length() for m in mass)
        self.counters["measures.bigint_digits"] += bits * _LOG10_2

    def summary(self) -> dict[str, float]:
        """Per-layer call counts and self times (span time minus child spans)."""
        calls = Counter()
        self_s = Counter()
        layers = self._layers
        for idx in range(len(self._span_layer)):
            name = layers[self._span_layer[idx]]
            dur = self._span_end[idx] - self._span_start[idx]
            calls[name] += 1
            self_s[name] += dur
            parent = self._span_parent[idx]
            if parent >= 0:
                self_s[layers[self._span_layer[parent]]] -= dur
        out: dict[str, float] = {}
        for name in LAYERS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(self.counters)
        out["eulerian.table_n_max"] = self.table_n_max
        return out


# -- counter hooks -----------------------------------------------------
#
# (pre, post) per function. They run on every traced call, whether or
# not it crosses a layer; pre returns the state post receives.


def _table_rows(tracer: Tracer) -> int:
    return tracer.originals["eulerian.shared_table"](1).n_max


def _post_shared_table(tracer, before, args, kwargs):
    after = _table_rows(tracer)
    if after > before:
        tracer.counters["eulerian.cache_misses"] += 1
        tracer.counters["eulerian.cells_built"] += after * (after + 1) // 2
    else:
        tracer.counters["eulerian.cache_hits"] += 1
    tracer.table_n_max = max(tracer.table_n_max, after)


def _post_eulerian_table(tracer, before, args, kwargs):
    n = args[0] if args else kwargs["n_max"]
    tracer.counters["eulerian.cells_built"] += n * (n + 1) // 2


def _post_power_sum(tracer, before, args, kwargs):
    p, a = args[0], args[1]
    if p > 0:
        tracer.counters["moments.power_sum_terms"] += max(a - 1, 0)


def _counting(key: str):
    def post(tracer, before, args, kwargs):
        tracer.counters[key] += 1

    return post


def _draws(tracer, count: int, n: int) -> None:
    tracer.counters["sampler.draws"] += count
    tracer.counters["sampler.cards"] += count * n


def _post_sample_statistic(tracer, before, args, kwargs):
    config = args[2] if len(args) > 2 else kwargs["config"]
    _draws(tracer, config.count, config.n)


def _post_riffle_summary(tracer, before, args, kwargs):
    _draws(tracer, args[2], args[0])


_HOOKS = {
    ("eulerian", "shared_table"): (_table_rows, _post_shared_table),
    ("eulerian", "eulerian_table"): (None, _post_eulerian_table),
    ("moments", "power_sum"): (None, _post_power_sum),
    ("stein", "tv_sandwich"): (None, _counting("stein.tv_calls")),
    ("stein", "solve_stein"): (None, _counting("stein.solver_calls")),
    ("sampler", "sample_statistic"): (None, _post_sample_statistic),
    ("sampler", "riffle_summary"): (None, _post_riffle_summary),
}
