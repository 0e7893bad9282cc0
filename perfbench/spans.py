"""In-memory span tracer wrapped around the package's layer entry points.

Tracing lives entirely in the benchmark: :class:`Tracer.install` replaces
each entry point listed in :data:`ENTRY_POINTS` with a wrapper that
records a span, and :meth:`Tracer.uninstall` puts the originals back, so
untraced passes run the unmodified program.

* A call span covers one call.  A generator entry point (a simulated
  process, or a step of one, such as ``SqlEngine.run_transaction``)
  returns a proxy whose ``send``/``throw`` resumes are each timed as a
  segment of the same span, so the span's time is summed across its
  resumes.
* A span's *self time* is its duration minus the part covered by its
  child spans; code that is not wrapped is therefore attributed to the
  nearest wrapped caller.
* Calls are counted only when entered from outside their group (so
  ``MissRatioCurve.hit_ratio`` calling ``mpki`` is one MRC call, and a
  serverless engine's override is not counted twice).
* The first :data:`MAX_TRACE_EVENTS` segments are kept and written as
  Chrome trace-event JSON (open in Perfetto or ``chrome://tracing``);
  aggregates are exact regardless of that cap.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Trace-event records kept for the Chrome export (aggregates are exact).
MAX_TRACE_EVENTS = 50_000


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``qualname`` is ``Class.method`` or ``func``."""

    module: str
    qualname: str
    span: str          #: span name; its first dotted part is the layer
    group: str         #: calls are counted on entry from another group
    generator: bool


def _points(module, prefix, generator, *qualnames, group=None):
    """Entry points named ``<prefix>.<method>``; each is its own group
    unless *group* joins them (for entry points that call each other)."""
    points = []
    for qualname in qualnames:
        span = f"{prefix}.{qualname.rpartition('.')[2].lstrip('_')}"
        points.append(EntryPoint(module, qualname, span, group or span,
                                 generator))
    return points


#: Layer boundaries.  The public entry points come first; the private
#: process bodies after them (``_client``, ``_stream``, the fleet's
#: arrival and execution processes) are resumed by the event loop, and
#: without a span of their own their code would count as ``sim`` time.
ENTRY_POINTS: Tuple[EntryPoint, ...] = tuple(
    _points("repro.core.runner", "core", False, "run_supervised")
    + _points("repro.core.resultcache", "core.resultcache", False,
              "ResultCache.get", "ResultCache.get_many", "ResultCache.put")
    + _points("repro.core.journal", "core.journal", False,
              "SweepJournal.record", "SweepJournal.note")
    + _points("repro.workloads.oltp", "workloads", False,
              "OltpWorkloadBase.build_demand")
    + _points("repro.sim.events", "sim", False,
              "EventLoop.run", "EventLoop.step", "EventLoop.schedule_at",
              "EventLoop.schedule_batch", "Event.cancel")
    + _points("repro.sim.waterfill", "sim.waterfill", True,
              "WaterfillServer.submit")
    + _points("repro.engine.engine", "engine", True,
              "SqlEngine.run_transaction", "SqlEngine.run_query")
    + _points("repro.engine.engine", "engine", False, "SqlEngine.optimize")
    + _points("repro.engine.optimizer.optimizer", "engine.optimizer", False,
              "Optimizer.optimize")
    + _points("repro.engine.plancache", "engine.plancache", False,
              "PlanCache.get")
    + _points("repro.hardware.mrc", "hardware.mrc", False,
              "MissRatioCurve.mpki", "MissRatioCurve.mpki_array",
              "MissRatioCurve.hit_ratio", "MissRatioCurve.hit_ratio_array",
              group="hardware.mrc")
    + _points("repro.hardware.storage", "hardware.storage", True,
              "NvmeDevice.read", "NvmeDevice.write")
    + _points("repro.fleet.cluster", "fleet", False, "run_fleet")
    + _points("repro.surrogate.features", "surrogate", False,
              "features_for_config")
    + _points("repro.surrogate.model", "surrogate", False,
              "SurrogateModel.predict")
    + _points("repro.workloads.oltp", "workloads", True,
              "OltpWorkloadBase._client")
    + _points("repro.workloads.tpch", "workloads", True,
              "TpchWorkload._stream")
    + _points("repro.workloads.htap", "workloads", True,
              "HtapWorkload._analytics_user")
    + _points("repro.fleet.cluster", "fleet", True,
              "FleetCluster._arrivals_proc", "FleetCluster._execute")
    + _points("repro.fleet.autoscale", "fleet", True, "Autoscaler._run")
)


class SpanStats:
    """Exact aggregates of one span name."""

    __slots__ = ("name", "layer", "group", "calls", "total", "self_time",
                 "hits", "items")

    def __init__(self, name: str, group: str):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.group = group
        self.calls = 0        #: entries from outside the group
        self.total = 0.0      #: wall seconds, summed over segments
        self.self_time = 0.0  #: total minus time covered by child spans
        self.hits = 0         #: span-specific outcome count (see _OUTCOMES)
        self.items = 0        #: span-specific item count (see _OUTCOMES)


_ROOT = SpanStats("root", "root")


def _count_schedule_batch(stats, args, result, before):
    stats.items += len(result)


def _count_fired(stats, args, result, before):
    if result:
        stats.hits += 1


def _count_hit(stats, args, result, before):
    stats.items += 1
    if result is not None:
        stats.hits += 1


def _count_many_hits(stats, args, result, before):
    stats.items += len(result)
    stats.hits += sum(1 for _, hit in result if hit is not None)


def _live_event(args):
    event = args[0]
    return not (event.cancelled or event.fired)


def _count_cancelled(stats, args, result, before):
    if before:
        stats.hits += 1


#: Per-span outcome hooks: ``(before(args) or None, after(stats, args,
#: result, before))``.  ``hits``/``items`` are what the layer metrics use.
_OUTCOMES: Dict[str, Tuple[Optional[Callable], Callable]] = {
    "sim.schedule_batch": (None, _count_schedule_batch),
    "sim.step": (None, _count_fired),
    "sim.cancel": (_live_event, _count_cancelled),
    "engine.plancache.get": (None, _count_hit),
    "core.resultcache.get": (None, _count_hit),
    "core.resultcache.get_many": (None, _count_many_hits),
}


class _TracedGenerator:
    """Generator proxy: every resume is a timed segment of one span."""

    __slots__ = ("_gen", "_stats", "_tracer", "_id", "_parent")

    def __init__(self, gen, stats, tracer, span_id, parent_id):
        self._gen = gen
        self._stats = stats
        self._tracer = tracer
        self._id = span_id
        self._parent = parent_id

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        return self._tracer._segment(self, self._gen.send, value)

    def throw(self, *exc):
        return self._tracer._segment(self, self._gen.throw, *exc)

    def close(self):
        self._gen.close()


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        self.stats: Dict[str, SpanStats] = {}
        self.events: List[Tuple[str, float, float, int, int, int]] = []
        self.dropped_events = 0
        self.request = 0          #: request id stamped on every span
        self._stack: List[list] = [[_ROOT, 0.0, 0]]
        self._next_id = 1
        self._origin = time.perf_counter()
        self._patches: List[Tuple[object, str, object]] = []

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for point in ENTRY_POINTS:
            stats = self.stats.setdefault(
                point.span, SpanStats(point.span, point.group))
            module = importlib.import_module(point.module)
            owner_name, _, attr = point.qualname.rpartition(".")
            if not owner_name:
                self._patch_function(module, attr, stats, point)
                continue
            owner = getattr(module, owner_name)
            for cls in [owner] + _subclasses(owner):
                if attr in vars(cls):
                    original = vars(cls)[attr]
                    self._patch(cls, attr, original,
                                self._wrap(original, stats, point.generator))

    def _patch_function(self, module, attr, stats, point) -> None:
        """Rebind a module-level function everywhere it was imported."""
        original = getattr(module, attr)
        wrapper = self._wrap(original, stats, point.generator)
        for name, loaded in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(loaded, attr, None) is original:
                self._patch(loaded, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn, stats: SpanStats, generator: bool):
        stack = self._stack
        clock = time.perf_counter
        before, after = _OUTCOMES.get(stats.name, (None, None))

        if generator:
            def traced_generator(*args, **kwargs):
                parent = stack[-1]
                if parent[0].group != stats.group:
                    stats.calls += 1
                span_id = self._next_id
                self._next_id += 1
                return _TracedGenerator(fn(*args, **kwargs), stats, self,
                                        span_id, parent[2])
            return traced_generator

        def traced(*args, **kwargs):
            parent = stack[-1]
            state = before(args) if before is not None else None
            span_id = self._next_id
            self._next_id += 1
            frame = [stats, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                stats.total += elapsed
                stats.self_time += elapsed - frame[1]
                self._record(stats.name, start, elapsed, span_id, parent[2])
            if parent[0].group != stats.group:
                stats.calls += 1
            if after is not None:
                after(stats, args, result, state)
            return result
        return traced

    def _segment(self, proxy: _TracedGenerator, resume, *args):
        stack = self._stack
        stats = proxy._stats
        parent = stack[-1]
        frame = [stats, 0.0, proxy._id]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return resume(*args)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            parent[1] += elapsed
            stats.total += elapsed
            stats.self_time += elapsed - frame[1]
            self._record(stats.name, start, elapsed, proxy._id, proxy._parent)

    def _record(self, name, start, elapsed, span_id, parent_id) -> None:
        if len(self.events) < MAX_TRACE_EVENTS:
            self.events.append(
                (name, start, elapsed, span_id, parent_id, self.request))
        else:
            self.dropped_events += 1

    # -- results ---------------------------------------------------------------

    def span(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats(name, name)

    def layer_self_time(self, layer: str) -> float:
        return sum(s.self_time for s in self.stats.values()
                   if s.layer == layer)

    def write_chrome_trace(self, path, metadata: Dict) -> None:
        """Chrome trace-event JSON: one complete ("X") event per segment."""
        events = [
            {
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": round((start - self._origin) * 1e6, 3),
                "dur": round(elapsed * 1e6, 3), "pid": 1, "tid": 1,
                "args": {"span": span_id, "parent": parent_id,
                         "request": request},
            }
            for name, start, elapsed, span_id, parent_id, request
            in self.events
        ]
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata, dropped_events=self.dropped_events),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def _subclasses(cls) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
