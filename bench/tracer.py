"""Span tracer that wraps dqdsim's public functions from outside the package.

Nothing under src/ is edited: while a Tracer is installed, every dqdsim
namespace that holds one of the traced functions (the defining module,
modules that imported the name, and the package itself) holds a timing
wrapper instead, and the originals are put back afterwards.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import sys
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

TRACED = {
    "vertical": ("solve_vertical", "dz_matrix"),
    "lateral": ("build_basis", "y_matrix"),
    "molecular": ("product_basis", "assemble", "diagonalize", "label_states",
                  "solve_molecular", "adiabatic_sweep"),
    "spectroscopy": ("solve_point", "sweep_l", "sweep_b",
                     "effective_interdot_distance"),
    "fitting": ("calibrate_depths", "single_well_ground", "fit_powerlaw"),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{module}.{name}"
                  for module, names in TRACED.items() for name in names)
# position and name of the argument listing the fields a call was asked for
FIELD_LIST_ARG = {"spectroscopy.sweep_b": (1, "b_values")}


@dataclass(eq=False)
class Span:
    name: str
    parent: Span | None
    start: float
    end: float = 0.0
    error: bool = False
    fields: int = 0


class _ContextPool(ThreadPoolExecutor):
    """ThreadPoolExecutor whose tasks run in a copy of the submitter's
    context, so a span opened in a pool thread finds its parent.
    (ThreadPoolExecutor.submit does not copy contextvars.)"""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn,
                              *args, **kwargs)


class Tracer:
    """Collects one Span per call of each traced function."""

    def __init__(self):
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar[Span | None] = \
            contextvars.ContextVar("dqdsim_bench_span", default=None)

    def _wrap(self, name, fn):
        field_arg = FIELD_LIST_ARG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._current.get(), time.perf_counter())
            if field_arg is not None:
                index, keyword = field_arg
                fields = args[index] if len(args) > index else kwargs[keyword]
                span.fields = len(fields)
            self.spans.append(span)
            token = self._current.set(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._current.reset(token)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every dqdsim namespace for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "dqdsim" or n.startswith("dqdsim.")]
        replacements = {id(ThreadPoolExecutor): _ContextPool}
        for name in FUNCTIONS:
            module, attr = name.split(".")
            original = getattr(sys.modules.get(f"dqdsim.{module}"), attr, None)
            if original is not None:
                replacements[id(original)] = self._wrap(name, original)
        patches = [(module, attr, value)
                   for module in modules
                   for attr, value in vars(module).items()
                   if id(value) in replacements]
        try:
            for module, attr, value in patches:
                setattr(module, attr, replacements[id(value)])
            yield self
        finally:
            for module, attr, value in reversed(patches):
                setattr(module, attr, value)


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


@dataclass
class FunctionStats:
    calls: int = 0
    errors: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    fields: int = 0

    def add(self, other: FunctionStats) -> None:
        self.calls += other.calls
        self.errors += other.errors
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.fields += other.fields


def summarize(spans) -> tuple[dict[str, FunctionStats], float]:
    """Per-function stats plus the busy time of sweep_l's pool threads.

    Self time is a span's wall time minus the union of its children's
    intervals, so children running concurrently in pool threads are not
    subtracted twice. Busy time is the summed wall time of the direct
    children of sweep_l spans.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    stats = {name: FunctionStats() for name in FUNCTIONS}
    pool_busy = 0.0
    for span in spans:
        wall = span.end - span.start
        kids = children[id(span)]
        covered = union_length((max(k.start, span.start), min(k.end, span.end))
                               for k in kids if k.end > k.start)
        stat = stats[span.name]
        stat.calls += 1
        stat.errors += span.error
        stat.total_s += wall
        stat.self_s += wall - covered
        stat.fields += span.fields
        if span.name == "spectroscopy.sweep_l":
            pool_busy += sum(k.end - k.start for k in kids)
    return stats, pool_busy
