"""In-memory span tracing around the program's public functions.

``Tracer.install`` wraps every public function of every ``adasel`` module
and rebinds the wrapper in each module namespace that holds the function,
so calls made through ``from .subspace import pca_basis`` are seen too.
Each call records a span (name, start ns, end ns, parent index, tag); the
spans stay in memory until ``dump`` writes them once, when the stage ends.
``summarise`` turns span files into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import statistics
import time
from contextlib import contextmanager


# Spans of these functions carry whether their window was degraded.
TAGGERS = {
    "runtime.match_scenario": lambda args, result: bool(
        getattr(args[0] if args else None, "degraded", False)),
    "runtime.build_window": lambda args, result: bool(
        getattr(result, "degraded", False)),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.enabled = True
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        import adasel
        modules = [adasel] + [importlib.import_module(f"adasel.{m.name}")
                              for m in pkgutil.iter_modules(adasel.__path__)]
        wrappers = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("adasel")):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj)
                self._patches.append((mod, name, obj))
                setattr(mod, name, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patches):
            setattr(mod, name, obj)
        self._patches.clear()

    @contextmanager
    def paused(self):
        """Run checks without recording them."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    @contextmanager
    def span(self, name: str):
        """A span from the benchmark's own code around calls into the program."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter_ns()

    def _wrap(self, fn):
        label = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        tagger = TAGGERS.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if tagger is not None:
                self.spans[idx][4] = tagger(args, result)
            return result
        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# --------------------------------------------------------------------------
# per-layer metrics

SCALE = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}

# (metric, span name, unit, tag filter, phase filter); a "count" unit counts
# spans.  A phase is the benchmark span a call ran under: bench.design,
# bench.load or bench.pass.
LAYER_METRICS = [
    ("subspace.orthogonal_complement_ms", "subspace.orthogonal_complement", "ms", None, None),
    ("subspace.orthogonal_complement_calls", "subspace.orthogonal_complement", "count", None, None),
    ("subspace.pca_basis_ms", "subspace.pca_basis", "ms", None, None),
    ("subspace.pca_basis_calls", "subspace.pca_basis", "count", None, None),
    ("gfk.gfk_kernel_ms", "gfk.gfk_kernel", "ms", None, None),
    ("gfk.gfk_kernel_calls", "gfk.gfk_kernel", "count", None, None),
    ("gfk.kernel_distance_us", "gfk.kernel_distance", "us", None, None),
    ("gfk.kernel_distance_calls", "gfk.kernel_distance", "count", None, None),
    ("subspace.principal_angles_ms", "subspace.principal_angles", "ms", None, None),
    ("subspace.principal_angles_calls", "subspace.principal_angles", "count", None, None),
    ("runtime.build_window_ms", "runtime.build_window", "ms", None, None),
    ("runtime.match_scenario_ms", "runtime.match_scenario", "ms", False, None),
    ("runtime.match_scenario_degraded_ms", "runtime.match_scenario", "ms", True, None),
    ("runtime.degraded_windows", "runtime.build_window", "count", True, None),
    ("dataio.read_profile_s", "dataio.read_profile", "s", None, "bench.load"),
    ("dataio.read_stream_s", "dataio.read_stream", "s", None, "bench.load"),
    ("dataio.profile_digest_s", "dataio.profile_digest", "s", None, None),
    ("dataio.write_profile_s", "dataio.write_profile", "s", None, None),
    ("design.cluster_scenarios_s", "design.cluster_scenarios", "s", None, None),
    ("design.select_platform_ms", "design.select_platform", "ms", None, None),
    ("design.label_scenarios_ms", "design.label_scenarios", "ms", None, None),
    ("dataio.write_trace_s", "dataio.write_trace", "s", None, None),
    ("runtime.segment_windows_ms", "runtime.segment_windows", "ms", None, None),
    ("runtime.select_combo_us", "runtime.select_combo", "us", None, None),
]


def summarise(span_lists: list[list]) -> dict[str, tuple[float, str]]:
    """Per-call medians and exact call counts from one or more span lists.

    A function that no longer exists has no spans: its count and its
    median both read 0.
    """
    by_name: dict[str, list[tuple]] = {}
    self_ns: list[int] = []
    for spans in span_lists:
        child_ns = [0] * len(spans)
        phase = [None] * len(spans)
        for i, (name, start, end, parent, tag) in enumerate(spans):
            phase[i] = phase[parent] if parent >= 0 else name
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, tag) in enumerate(spans):
            by_name.setdefault(name, []).append((tag, phase[i], end - start))
            if name == "runtime.run_selection":
                self_ns.append(end - start - child_ns[i])
    out = {}
    for metric, name, unit, tag, where in LAYER_METRICS:
        values = [ns for t, ph, ns in by_name.get(name, [])
                  if (tag is None or t == tag) and (where is None or ph == where)]
        if unit == "count":
            out[metric] = (len(values), "count")
        else:
            value = statistics.median(values) * SCALE[unit] if values else 0.0
            out[metric] = (value, unit)
    self_s = statistics.median(self_ns) * 1e-9 if self_ns else 0.0
    out["runtime.run_selection_self_s"] = (self_s, "s")
    return out
