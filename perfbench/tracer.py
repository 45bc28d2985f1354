"""Thread-aware span tracer bound from outside the package.

`Tracer.install(package)` wraps every public function of each layer module,
and every public method (plus ``__call__``) of the classes those modules
define, then rebinds each wrapper at every place a ``linkages`` module holds
the original -- its own module, the modules that imported it by name, and
the package ``__init__``.  Nothing under ``src/`` is edited, and functions a
later refactor adds or moves are traced without a list to maintain.

Each call records one span ``(id, parent, thread, name, start, end, failed,
bytes)`` in memory.  Every thread keeps its own span stack; work submitted to
a ``ThreadPoolExecutor`` that a layer module imported is parented to the span
that submitted it, so the convergence sweep's per-epsilon runs hang under the
``run_convergence_sweep`` span.  ``bytes`` is computed, not measured: the
``nbytes`` of the array arguments and results, looking one container or
object level deep (the arrays of a DensityField, a PositionHistory, a tuple
of grids).
"""

import functools
import inspect
import itertools
import pkgutil
import sys
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

# presets callables are reached through config's RateModel / PastData /
# SourceModel methods, so their time is config's; errors holds no work.
NOT_LAYERS = frozenset({"presets", "errors", "__main__"})

ID, PARENT, THREAD, NAME, START, END, FAILED, BYTES = range(8)


def _nbytes(obj, depth=2):
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth == 0:
        return 0
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(v, depth - 1) for v in obj)
    if isinstance(obj, dict):
        return sum(_nbytes(v, depth - 1) for v in obj.values())
    fields = getattr(obj, "__dict__", None)
    if fields:
        return sum(v.nbytes for v in fields.values() if isinstance(v, np.ndarray))
    return 0


class Tracer:
    """Collects spans from wrapped layer functions; see the module docstring."""

    def __init__(self):
        # list.append and next() on a count are atomic under the interpreter
        # lock, so worker threads record without a lock of their own.
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost open span on this thread (or its adopted parent)."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "root", None)

    def wrap(self, fn, name):
        """Return fn wrapped so that each call records a span called name."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current()
            stack = tracer._stack()
            sid = next(tracer._ids)
            stack.append(sid)
            result, failed = None, True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                nbytes = _nbytes(args) + _nbytes(tuple(kwargs.values())) + _nbytes(result)
                tracer.spans.append(
                    (sid, parent, threading.get_ident(), name, start, end, failed, nbytes)
                )

        return traced

    def adopt(self, parent, fn):
        """fn run on another thread with parent as the root of its span stack."""
        local = self._local

        def adopted(*args, **kwargs):
            local.root = parent
            try:
                return fn(*args, **kwargs)
            finally:
                local.root = None

        return adopted

    def _pool_class(self):
        tracer = self

        class TracedThreadPoolExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt(tracer.current(), fn), *args, **kwargs)

        return TracedThreadPoolExecutor

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap every layer of package (an imported module) and rebind the wrappers."""
        prefix = package.__name__ + "."
        for info in pkgutil.iter_modules(package.__path__):
            if info.name not in NOT_LAYERS:
                __import__(prefix + info.name)
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(prefix)]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__[len(prefix):]
            if mod is package or layer in NOT_LAYERS:
                continue
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (attr == "__call__" or not attr.startswith("_")):
                            label = name if attr == "__call__" else attr
                            self._set(obj, attr, self.wrap(fn, f"{layer}.{label}"))
        pool = self._pool_class()
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if obj is ThreadPoolExecutor:
                    self._set(mod, name, pool)
                elif inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, name, wrapped[obj])

    def uninstall(self):
        """Restore every attribute install() replaced."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals.

    Children on the span's own thread never overlap, but pooled children do,
    so the covered part is the merged union, clipped to the parent interval.
    """
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = {}
    for s in spans:
        lo, hi = s[START], s[END]
        covered, cur_lo, cur_hi = 0.0, None, None
        for a, b in sorted(children.get(s[ID], ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s[ID]] = (hi - lo) - covered
    return out
