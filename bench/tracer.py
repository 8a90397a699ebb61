"""Span recorder for the traced benchmark run.

``Tracer.install`` replaces public functions of walkchain's modules with
wrappers at their module attributes, which is where ``cli`` and the calls
inside each module look them up. A spanned call records (span id, job id,
parent span id, name, start, end); leaf calls made per term or per event are
only counted. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from collections import defaultdict

MODULES = ("mapgraph", "chains", "ctmc", "pipeline", "profiles", "svgplot", "cli")
SPANNED = {
    "mapgraph": ("load_map", "random_walk_matrix"),
    "chains": ("analyze", "stationary_distribution", "mixing_rate", "mixing_time", "hitting_time",
               "matrix_to_csv", "array_to_csv"),
    "ctmc": ("generator", "transient", "poisson_truncation"),
    "pipeline": ("simulate_walk", "add_noise", "trace_to_csv", "snap", "smooth",
                 "localization_error", "hold_on_obstacle", "obstacles_from_json", "dispatch"),
    "profiles": ("comparison_table", "table_to_csv"),
    "svgplot": ("line_plot",),
    "cli": ("main",),
}
#: called once per series term or per alert: a span each would cost more than the call
COUNTED = {"ctmc": ("poisson_pmf",), "pipeline": ("detect", "FileSink.deliver")}
FAILED = "pipeline.FileSink.deliver"


def layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for mod in MODULES:
        for fn in SPANNED.get(mod, ()):
            out += [(f"{mod}.{fn}.self_s", "s"), (f"{mod}.{fn}.calls", "count")]
        out += [(f"{mod}.{fn}.calls", "count") for fn in COUNTED.get(mod, ())]
        out.append((f"{mod}.self_s", "s"))
    return out + [(f"{FAILED}.failed", "count"), ("cli.bytes_out", "bytes"),
                  ("trace.job_s_p50", "s"), ("trace.overhead_s", "s")]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int | None, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job = 0
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, self.job, parent, name, start, end))
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            result = fn(*args, **kwargs)
            if name == FAILED and not result:
                self.counts[name + ".failed"] += 1
            return result
        return wrapper

    def install(self, package: str = "walkchain") -> None:
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for mod, names in table.items():
                module = importlib.import_module(f"{package}.{mod}")
                for dotted in names:
                    *owner_path, attr = dotted.split(".")
                    owner = functools.reduce(getattr, owner_path, module)
                    original = getattr(owner, attr)
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, make(f"{mod}.{dotted}", original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


def summarize(spans, counts: dict[str, int], jobs: int) -> dict[str, float]:
    """Per-job self seconds and calls by function, and self seconds by module.

    A span's self time is its duration minus the durations of its direct
    children; single-threaded calls nest, so children never overlap.
    """
    child = defaultdict(float)
    for sid, _, parent, _, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    out = {name: 0.0 for name, _ in layer_metrics()}
    for sid, _, _, name, start, end in spans:
        self_s = end - start - child[sid]
        out[name + ".self_s"] += self_s
        out[name.split(".")[0] + ".self_s"] += self_s
        out[name + ".calls"] += 1
    for name, n in counts.items():
        out[name if name.endswith(".failed") else name + ".calls"] += n
    return {k: v / max(jobs, 1) for k, v in out.items()}
