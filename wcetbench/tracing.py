"""In-memory span recorder wrapped around the analyzer's public entry points.

:func:`install` replaces each layer's public callable (a class attribute, or
the module attribute a caller looks up at call time) with a timing wrapper;
:meth:`Recorder.uninstall` puts the originals back.  Nothing inside the
analyzer is modified: the spans are taken from outside, at the calls into
each layer.

Spans nest per thread.  A span that opens on a thread with no open span of
its own while a client request is open (the service's HTTP handler and
worker threads) is charged as a child of that request, so the self times of
all layers add up to the request's round trip.  Self time is the span's
duration minus the durations of its children.

Aggregates (calls, total and self seconds per span name) and counters are
kept for the whole run; individual spans are kept only for the first
:data:`KEEP_UNITS` units of work and written as Chrome trace-event JSON, which
Perfetto and ``chrome://tracing`` open directly.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import weakref
from collections import Counter

#: span name -> layer bucket of the self-time table
LAYER_OF = {
    "minic.parse_and_analyze": "minic",
    "project.Project.from_sources": "project.scheduler",
    "project.ProjectScheduler.run": "project.scheduler",
    "project.ResultCache.get": "project.cache_get",
    "project.ResultCache.put": "project.cache_put",
    "callgraph.CallGraph.from_project": "callgraph",
    "callgraph.CallGraph.transitive_fingerprints": "callgraph",
    "pipeline.WcetAnalyzer.analyze": "pipeline",
    "sa.run_static_analysis": "sa",
    "partition.PaperPartitioner.partition": "partition",
    "partition.GeneralPartitioner.partition": "partition",
    "testgen.HybridTestDataGenerator.generate": "testgen",
    "testgen.GeneticTestDataGenerator.search": "testgen.genetic",
    "mc.ModelCheckingTestDataGenerator.generate_for_targets": "mc",
    "mc.QueryEngine.check": "mc",
    "mc.QueryStore.load": "mc.store_get",
    "mc.QueryStore.save": "mc.store_put",
    "hw.Interpreter.run": "hw",
    "measurement.MeasurementRunner.run_vectors": "measurement",
    "wcet.TimingSchema.compute": "wcet.schema",
    "wcet.exhaustive_end_to_end": "wcet.exhaustive",
    "service.round_trip": "service",
}


#: units of work whose individual spans go into the Chrome trace
KEEP_UNITS = 2


class Recorder:
    """Span aggregates, counters and a bounded list of trace events."""

    def __init__(self):
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total, self]
        self.counters: Counter[str] = Counter()
        self.events: list[dict] = []
        self.units = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._request: list | None = None
        self._origin = time.perf_counter()
        self._ids = itertools.count(1)
        self._tids: dict[int, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._boards: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._distinct: set = set()

    # ------------------------------------------------------------------ #
    def begin_unit(self) -> None:
        """Start a unit of work: distinct board runs are counted per unit."""
        self.units += 1
        self._distinct = set()

    def open(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._request
        # [name, start, child seconds, parent frame, span id]
        frame = [name, time.perf_counter(), 0.0, parent, next(self._ids)]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        self._local.stack.pop()
        name, start, children, parent, span_id = frame
        duration = end - start
        with self._lock:
            if parent is not None:
                parent[2] += duration
            entry = self.stats.get(name)
            if entry is None:
                entry = self.stats[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - children
            if self.units <= KEEP_UNITS:
                tid = self._tids.setdefault(
                    threading.get_ident(), len(self._tids) + 1
                )
                self.events.append({
                    "name": name,
                    "cat": LAYER_OF.get(name, "bench"),
                    "ph": "X",
                    "ts": (start - self._origin) * 1e6,
                    "dur": duration * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": {
                        "span": span_id,
                        "parent": parent[4] if parent is not None else None,
                    },
                })

    def open_request(self) -> list:
        """Open the client-side span that parents other threads' root spans."""
        frame = self.open("service.round_trip")
        self._request = frame
        return frame

    def close_request(self, frame: list) -> None:
        self._request = None
        self.close(frame)

    # ------------------------------------------------------------------ #
    def wrap(self, owner, attr: str, name: str, after=None, before=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``before(args)`` runs before the call and its value is handed to
        ``after(args, result, state)``, which runs after a successful call
        (used for counters that need a before/after difference).
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            frame = recorder.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                recorder.close(frame)
            if after is not None:
                after(args, result, state)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patched.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    # ------------------------------------------------------------------ #
    def count_board_run(self, args, result, state) -> None:
        interpreter, function_name = args[0], args[1]
        inputs = args[2] if len(args) > 2 else None
        board = self._boards.get(interpreter)
        if board is None:
            board = self._boards[interpreter] = len(self._boards) + 1
        key = (board, function_name, tuple(sorted((inputs or {}).items())))
        with self._lock:
            self.counters["hw.runs"] += 1
            if key not in self._distinct:
                self._distinct.add(key)
                self.counters["hw.distinct_runs"] += 1

    def layer_self_seconds(self) -> dict[str, float]:
        """Self seconds summed per layer bucket of :data:`LAYER_OF`."""
        layers: dict[str, float] = {}
        for name, (_, _, self_seconds) in self.stats.items():
            layer = LAYER_OF.get(name, "bench")
            layers[layer] = layers.get(layer, 0.0) + self_seconds
        return layers

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": self.events, "displayTimeUnit": "ms"}, handle)


def install(recorder: Recorder) -> Recorder:
    """Wrap the public entry point of every layer the benchmark reports on."""
    import repro.project.model as project_model
    import repro.pipeline.analyzer as analyzer_module
    import repro.sa as sa_package
    from repro.callgraph.graph import CallGraph
    from repro.hw.interpreter import Interpreter
    from repro.mc.query import QueryEngine
    from repro.mc.store import QueryStore
    from repro.measurement.runner import MeasurementRunner
    from repro.partition.general import GeneralPartitioner
    from repro.partition.partitioner import PaperPartitioner
    from repro.pipeline.analyzer import WcetAnalyzer
    from repro.project import Project, ProjectScheduler, ResultCache
    from repro.testgen.genetic import GeneticTestDataGenerator
    from repro.testgen.hybrid import HybridTestDataGenerator
    from repro.testgen.modelcheck_gen import ModelCheckingTestDataGenerator
    from repro.wcet.timing_schema import TimingSchema

    counters = recorder.counters

    def count(name, amount=1):
        def after(args, result, state):
            counters[name] += amount(result) if callable(amount) else amount
        return after

    def cache_get(args, result, state):
        counters["project.cache_gets"] += 1
        counters["project.cache_hits"] += result is not None

    def genetic(args, result, state):
        counters["testgen.genetic_searches"] += 1
        counters["testgen.genetic_covered"] += bool(result.covered)

    def query_before(args):
        stats = args[0].stats
        return stats.solver_runs, stats.static_prunes

    def query_after(args, result, state):
        stats = args[0].stats
        counters["mc.queries"] += 1
        counters["mc.solver_runs"] += stats.solver_runs - state[0]
        counters["mc.static_prunes"] += stats.static_prunes - state[1]

    def store_load(args, result, state):
        counters["mc.store_loads"] += 1
        counters["mc.store_hits"] += result is not None

    recorder.wrap(project_model, "parse_and_analyze", "minic.parse_and_analyze")
    recorder.wrap(Project, "from_sources", "project.Project.from_sources")
    recorder.wrap(ProjectScheduler, "run", "project.ProjectScheduler.run")
    recorder.wrap(ResultCache, "get", "project.ResultCache.get", after=cache_get)
    recorder.wrap(ResultCache, "put", "project.ResultCache.put")
    recorder.wrap(CallGraph, "from_project", "callgraph.CallGraph.from_project")
    recorder.wrap(
        CallGraph, "transitive_fingerprints",
        "callgraph.CallGraph.transitive_fingerprints",
    )
    recorder.wrap(
        WcetAnalyzer, "analyze", "pipeline.WcetAnalyzer.analyze",
        after=count("project.reanalysed_functions"),
    )
    recorder.wrap(sa_package, "run_static_analysis", "sa.run_static_analysis")
    for partitioner in (PaperPartitioner, GeneralPartitioner):
        recorder.wrap(
            partitioner, "partition", f"partition.{partitioner.__name__}.partition",
            after=count("partition.segments", lambda result: len(result.segments)),
        )
    recorder.wrap(
        HybridTestDataGenerator, "generate",
        "testgen.HybridTestDataGenerator.generate",
    )
    recorder.wrap(
        GeneticTestDataGenerator, "search",
        "testgen.GeneticTestDataGenerator.search", after=genetic,
    )
    recorder.wrap(
        ModelCheckingTestDataGenerator, "generate_for_targets",
        "mc.ModelCheckingTestDataGenerator.generate_for_targets",
    )
    recorder.wrap(
        QueryEngine, "check", "mc.QueryEngine.check",
        before=query_before, after=query_after,
    )
    recorder.wrap(QueryStore, "load", "mc.QueryStore.load", after=store_load)
    recorder.wrap(QueryStore, "save", "mc.QueryStore.save")
    recorder.wrap(
        Interpreter, "run", "hw.Interpreter.run", after=recorder.count_board_run
    )
    recorder.wrap(
        MeasurementRunner, "run_vectors",
        "measurement.MeasurementRunner.run_vectors",
    )
    recorder.wrap(TimingSchema, "compute", "wcet.TimingSchema.compute")
    recorder.wrap(
        analyzer_module, "exhaustive_end_to_end", "wcet.exhaustive_end_to_end"
    )
    return recorder
