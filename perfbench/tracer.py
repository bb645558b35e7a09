"""Layer spans recorded around calls into the simulator's public functions.

The traced benchmark run wraps a handful of public entry points of the
``repro`` package, from this file, without changing anything under
``src/``.  Each wrapper is installed on the attribute that callers look
up at call time (a module global or a class attribute) and removed again
when :func:`instrument` exits.

Every call becomes one span: name, start, end, the span that was open
when it started (its parent) and the cell id shared by all spans of one
(workload, configuration) cell.  Spans stay in memory and are written
once, as Chrome-trace JSON, when the run ends.  A span's self time is its
duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter


class Tracer:
    """In-memory span log plus the counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.origin = perf_counter()
        self.spans: list[dict] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        #: First reference stream generated per workload name (for encoding).
        self.traces: dict[str, object] = {}
        self.cell: str | None = None
        self._stack: list[int] = []
        self._child_seconds: list[float] = []

    @contextmanager
    def span(self, name: str, cell: str | None = None):
        """Record one span; ``cell`` starts a new cell for nested spans."""
        previous_cell = self.cell
        if cell is not None:
            self.cell = cell
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": perf_counter(), "end": None,
                  "parent": parent, "cell": self.cell}
        self.spans.append(record)
        self._child_seconds.append(0.0)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()
            if parent is not None:
                self._child_seconds[parent] += record["end"] - record["start"]
            self.cell = previous_cell

    # ------------------------------------------------------------------
    def _self_seconds(self, index: int) -> float:
        record = self.spans[index]
        return record["end"] - record["start"] - self._child_seconds[index]

    def self_seconds(self, name: str) -> float:
        """Summed self time of every span with this name."""
        return sum(
            self._self_seconds(index)
            for index, record in enumerate(self.spans)
            if record["name"] == name
        )

    def total_seconds(self, name: str) -> float:
        """Summed duration (children included) of every span with this name."""
        return sum(
            record["end"] - record["start"]
            for record in self.spans
            if record["name"] == name
        )

    def self_seconds_by_config(self, name: str) -> dict[str, float]:
        """Self time of this span name per configuration (cell ``wl|config``)."""
        totals: defaultdict[str, float] = defaultdict(float)
        for index, record in enumerate(self.spans):
            if record["name"] == name and record["cell"]:
                totals[record["cell"].split("|", 1)[1]] += self._self_seconds(index)
        return dict(totals)

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time per layer: the span-name prefix before the first dot."""
        totals: defaultdict[str, float] = defaultdict(float)
        for index, record in enumerate(self.spans):
            totals[record["name"].split(".", 1)[0]] += self._self_seconds(index)
        return dict(sorted(totals.items()))

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (``chrome://tracing`` / Perfetto)."""
        events = [
            {
                "name": record["name"],
                "ph": "X",
                "ts": (record["start"] - self.origin) * 1e6,
                "dur": (record["end"] - record["start"]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": record["parent"],
                         "cell": record["cell"]},
            }
            for index, record in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


# ----------------------------------------------------------------------
# Instrumentation of the public entry points
# ----------------------------------------------------------------------
def _rebind(original, replacement) -> list[tuple[object, str]]:
    """Point every ``repro`` module global bound to ``original`` at ``replacement``.

    ``from x import f`` copies the binding, so a function is patched in
    each module that imported it, and prepare_run's own lookups see the
    wrapper.  Returns the patched (module, attribute) pairs.
    """
    patched = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
                patched.append((module, attribute))
    return patched


def _count_process(tracer: Tracer, process) -> None:
    from repro.mmu.translation import PageSize

    with tracer.span("trace.count"):
        tracer.counts["mmu.pt_nodes"] += sum(process.page_table.count_nodes().values())
        histogram = process.page_size_histogram()
        tracer.counts["mem.leaves_4k"] += histogram[PageSize.SIZE_4KB]
        tracer.counts["mem.leaves_2mb"] += histogram[PageSize.SIZE_2MB]


def _spanned(name: str):
    def make(tracer: Tracer, original):
        @wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        return traced

    return make


def _cell(tracer: Tracer, original):
    @wraps(original)
    def traced(workload, config_name, *args, **kwargs):
        with tracer.span("analysis.cell", cell=f"{workload.name}|{config_name}"):
            return original(workload, config_name, *args, **kwargs)

    return traced


def _build_process(tracer: Tracer, original):
    @wraps(original)
    def traced(self, *args, **kwargs):
        with tracer.span("mem.build_process"):
            process = original(self, *args, **kwargs)
        _count_process(tracer, process)
        return process

    return traced


def _trace(tracer: Tracer, original):
    @wraps(original)
    def traced(self, *args, **kwargs):
        with tracer.span("workloads.trace"):
            trace = original(self, *args, **kwargs)
        tracer.traces.setdefault(self.name, trace)
        return trace

    return traced


def _simulate(tracer: Tracer, original):
    @wraps(original)
    def traced(self, trace, *args, **kwargs):
        with tracer.span("core.run"):
            result = original(self, trace, *args, **kwargs)
        tracer.counts["core.accesses_fed"] += len(trace)
        if self.organization.lite is not None:
            tracer.counts["core.lite_downsizes"] += self.organization.lite.stats.downsizes
        return result

    return traced


def _break_huge_page(tracer: Tracer, original):
    @wraps(original)
    def counted(self, *args, **kwargs):
        tracer.counts["mem.demoted_2mb"] += 1
        return original(self, *args, **kwargs)

    return counted


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the layers' public functions so each call records a span."""
    from repro.analysis import experiments
    from repro.core import organizations
    from repro.core.simulator import Simulator
    from repro.mem.process import Process
    from repro.workloads.base import Workload

    functions = [
        (experiments.run_workload_config, _cell),
        (experiments.prepare_run, _spanned("analysis.prepare")),
        (organizations.build_organization, _spanned("core.build_org")),
    ]
    methods = [
        (Workload, "build_process", _build_process),
        (Workload, "trace", _trace),
        (Simulator, "run", _simulate),
        (Process, "break_huge_page", _break_huge_page),
    ]
    patched: list[tuple[object, str, object]] = []
    try:
        for original, make in functions:
            for module, attribute in _rebind(original, make(tracer, original)):
                patched.append((module, attribute, original))
        for owner, attribute, make in methods:
            original = vars(owner)[attribute]
            setattr(owner, attribute, make(tracer, original))
            patched.append((owner, attribute, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)


def traced_events(tracer: Tracer, events):
    """Wrap an OS-event schedule so each fired event records a span."""

    def wrap(callback):
        @wraps(callback)
        def traced(organization):
            with tracer.span("resilience.events"):
                return callback(organization)

        return traced

    return [(position, wrap(callback)) for position, callback in events]
