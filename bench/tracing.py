"""Per-layer spans for partwaves, installed from outside the package.

The layers are the package modules.  `install` replaces each public
function of a layer, and the constructor of each public class with its own
`__init__`, by a wrapper that times the call.  The wrapper is bound
wherever the original was bound, so calls through `from .x import f`
names are traced too.  A layer's self time is its spans' time minus the
time of the traced calls they made.
"""

from __future__ import annotations

import dataclasses
import importlib
from collections import Counter
from functools import wraps
from time import perf_counter_ns

LAYERS = ("cli", "partitions", "quasipoly", "waves", "dary", "reconstruct", "exact")

# Memoized lookups called hundreds of thousands of times in one operation;
# timing them would cost more than they do, so they are only counted and
# their time stays with the caller.
COUNTED_ONLY = frozenset({"exact.bernoulli", "exact.stirling_unsigned"})

# Called up to tens of thousands of times in one operation: a stored record
# per call would outweigh the work, so these are timed and counted only.
UNRECORDED = frozenset({
    "exact.root_of_unity",
    "exact.CyclotomicNumber",
    "exact.CyclotomicNumber.ops",
    "dary.exponent_of_power",
})

# Arithmetic of the cyclotomic field, counted together as one name.
CYCLOTOMIC_OPS = ("__add__", "__radd__", "__sub__", "__rsub__",
                  "__mul__", "__rmul__", "__neg__", "__pow__")

# Cells the DP oracle fills, Σ len(a)·(n+1) over calls of
# denumerant_dp(a, n): one row of n + 1 per part size.
DP_CELLS = "partitions.denumerant_dp.cells"


class Tracer:
    """Spans and call counts of the operation being run."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans = []  # [op id, name, start ns, end ns, parent span index or -1]
        self.calls = Counter()
        self.self_ns = Counter()
        self._open = []  # indices of the recorded spans that are running
        self._child_ns = []  # traced time inside each running call

    def wrap(self, name: str, func):
        record = name not in UNRECORDED
        count_cells = name == "partitions.denumerant_dp"
        if name in COUNTED_ONLY:
            @wraps(func)
            def counted(*args, **kwargs):
                self.calls[name] += 1
                return func(*args, **kwargs)
            return counted

        @wraps(func)
        def traced(*args, **kwargs):
            if count_cells:
                a, n = args
                self.calls[DP_CELLS] += len(a.parts) * (n + 1)
            if record:
                index = len(self.spans)
                parent = self._open[-1] if self._open else -1
                self.spans.append([self.op_id, name, 0, 0, parent])
                self._open.append(index)
            self._child_ns.append(0)
            start = perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                elapsed = end - start
                self.self_ns[name] += elapsed - self._child_ns.pop()
                self.calls[name] += 1
                if self._child_ns:
                    self._child_ns[-1] += elapsed
                if record:
                    self._open.pop()
                    self.spans[index][2:4] = start, end

        return traced


def _modules(package: str):
    return [importlib.import_module(package)] + [
        importlib.import_module(f"{package}.{layer}") for layer in LAYERS]


def _targets(modules):
    """(name, owner, attribute, callable) for every call `install` traces;
    owner None means a module-level function, rebound in every module."""
    targets = []
    for layer, module in zip(LAYERS, modules[1:]):
        for attr in module.__all__:
            obj = getattr(module, attr)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if not isinstance(obj, type):
                targets.append((name, None, attr, obj))
                continue
            if "__init__" in vars(obj) and not dataclasses.is_dataclass(obj):
                targets.append((name, obj, "__init__", obj.__init__))
            if attr == "CyclotomicNumber":
                targets += [(f"{name}.ops", obj, method, getattr(obj, method))
                            for method in CYCLOTOMIC_OPS]
    return targets


def traced_names(package: str = "partwaves") -> set[str]:
    """Names under which `install` records calls."""
    return {name for name, *_ in _targets(_modules(package))}


def install(tracer: Tracer, package: str = "partwaves") -> None:
    """Route every public call of every layer of `package` through `tracer`."""
    modules = _modules(package)
    for name, owner, attr, func in _targets(modules):
        wrapper = tracer.wrap(name, func)
        if owner is not None:
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is func:
                    setattr(module, key, wrapper)
