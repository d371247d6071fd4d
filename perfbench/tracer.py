"""In-memory span recorder for the traced benchmark run.

The recorder wraps the public functions and methods of each measured ncball
module at every name an ncball module looks them up by, plus ``np.kron``,
``np.linalg.cond``, ``np.linalg.svd`` and the SVD-backed ``np.linalg.norm``
calls.  Nothing inside ``src/`` is edited: the wrappers are installed on the
imported module objects and removed again by ``uninstall``.

Each call opens a span (name, layer, parent, start, end).  A numpy call is a
leaf span charged to the layer of the innermost open layer span.  Self time is
a span's duration minus the time covered by its child spans.  Spans are kept
in compact arrays and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# ncball modules whose public callables get spans; ``varieties`` is reached by
# no workload and is deliberately left unmeasured.
LAYERS = ("cli", "probe", "opball", "realize", "ncdiff", "mattuple", "freealg")
# 8 real flops per complex multiply-add or complex division
FLOPS_PER_COMPLEX_OP = 8


def seq_matmul_flops(a, b) -> int:
    """Computed flops of ``seq_matmul(a, b)``: one multiply-add per (i, k, j)."""
    m, k = np.shape(a)
    return FLOPS_PER_COMPLEX_OP * m * k * np.shape(b)[1]


def seq_solve_flops(a, b) -> int:
    """Computed flops of ``seq_solve(a, b)``: elimination plus substitution."""
    n = np.shape(a)[0]
    r = np.shape(b)[1] if np.ndim(b) == 2 else 1
    multiply_adds = (n - 1) * n * (2 * n - 1) // 6 + r * n * (n - 1)
    divisions = n * (n - 1) // 2 + n * r
    return FLOPS_PER_COMPLEX_OP * (multiply_adds + divisions)


FLOP_MODELS = {"mattuple.seq_matmul": seq_matmul_flops, "mattuple.seq_solve": seq_solve_flops}


class Recorder:
    """Span stack, per-span-name aggregates, leaf counts and the span log."""

    def __init__(self):
        self.enabled = False
        self.job = -1
        self.stack: list[list] = []  # [span id, name, layer, start, child time, parent id]
        self.next_id = 0
        self.names: dict[str, int] = {}
        # span log: ids, parents, jobs and name indices, then start/end times
        self.log_ints = array("q")
        self.log_times = array("d")
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.layer_self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    # -- span bookkeeping --------------------------------------------------

    def open(self, name: str, layer: str) -> None:
        parent = self.stack[-1][0] if self.stack else -1
        span_id = self.next_id
        self.next_id += 1
        self.stack.append([span_id, name, layer, time.perf_counter(), 0.0, parent])

    def close(self) -> float:
        end = time.perf_counter()
        span_id, name, layer, start, child, parent = self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][4] += duration
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        self.layer_self_s[layer] += duration - child
        index = self.names.setdefault(name, len(self.names))
        self.log_ints.extend((span_id, parent, self.job, index))
        self.log_times.extend((start, end))
        return duration

    def current_layer(self) -> str:
        return self.stack[-1][2] if self.stack else "bench"

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name: str, layer: str):
        flops = FLOP_MODELS.get(name)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not self.enabled:
                        yield from it
                        return
                    self.open(name, layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        self.close()
                        return
                    self.close()
                    self.counts[f"{name}.items"] += 1
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if flops is not None:
                self.counts[f"{name}.flops"] += flops(*args, **kwargs)
            self.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return traced

    def wrap_leaf(self, fn, kind: str, svd_backed=None):
        """A numpy call, charged to the layer of the innermost open span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled or (svd_backed is not None and not svd_backed(*args, **kwargs)):
                return fn(*args, **kwargs)
            layer = self.current_layer()
            self.counts[f"{layer}.{kind}"] += 1
            self.open(f"np.{kind}", layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return traced

    # -- output ------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.log_times) // 2

    def write_spans(self, path) -> None:
        """One CSV line per span: id, parent, job, name, start_s, end_s."""
        names = {index: name for name, index in self.names.items()}
        ints, times = self.log_ints, self.log_times
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as handle:
            handle.write("id,parent,job,name,start_s,end_s\n")
            for i in range(self.span_count()):
                span_id, parent, job, index = ints[4 * i : 4 * i + 4]
                handle.write(f"{span_id},{parent},{job},{names[index]},{times[2 * i]!r},{times[2 * i + 1]!r}\n")


def _norm_is_svd_backed(x, ord=None, axis=None, keepdims=False):
    # matrix 2-norms and nuclear norms call svd; everything else does not
    return ord in (2, -2, "nuc") and axis is None and getattr(x, "ndim", 0) == 2


def _public_callables(module):
    """(owner, attribute, qualified name) for each public function/method defined in module."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, attr
        elif inspect.isclass(obj):
            for method, fn in vars(obj).items():
                if not method.startswith("_") and inspect.isfunction(fn):
                    yield obj, method, f"{attr}.{method}"


class Instrumentation:
    """Installs a recorder's wrappers on the imported ncball and numpy objects."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr, value) -> None:
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import importlib

        package = importlib.import_module("ncball")
        modules = [importlib.import_module(f"ncball.{name}") for name in (*LAYERS, "varieties")]
        wrapped = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"ncball.{layer}")
            for owner, attr, qualname in list(_public_callables(module)):
                original = vars(owner)[attr]
                wrapper = self.recorder.wrap(original, f"{layer}.{qualname}", layer)
                wrapped[id(original)] = wrapper
                self._patch(owner, attr, wrapper)
        # rebind every module-level name that refers to a wrapped function,
        # so that calls across modules and within a module all open spans
        for module in (package, *modules):
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._patch(module, attr, wrapped[id(obj)])
        rec = self.recorder
        self._patch(np, "kron", rec.wrap_leaf(np.kron, "kron"))
        self._patch(np.linalg, "cond", rec.wrap_leaf(np.linalg.cond, "cond"))
        self._patch(np.linalg, "svd", rec.wrap_leaf(np.linalg.svd, "svd"))
        self._patch(np.linalg, "norm", rec.wrap_leaf(np.linalg.norm, "svd", _norm_is_svd_backed))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
