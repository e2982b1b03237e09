"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps the public entry points of each layer of
``repro`` — module functions and class methods — with a span recorder,
without changing any file of the program.  Callers import most entry
points by name (``from ..schedule import verify``), so :meth:`install`
rebinds *every* module-level name in ``repro.*`` that is bound to the
wrapped function object, and patches methods on the classes that
define them.  :meth:`uninstall` restores every binding.

A span records its name (``<layer>.<entry>``), start, end, parent span,
thread and group.  The group ties together the spans of one tuning op
or one request: the caller sets it with :meth:`group`, spans on the
server's miss worker take the tuning session's task key, and a cost
model refit started on its own thread inherits the group of the thread
that started it.  Spans are kept in memory; :meth:`chrome_trace` writes
them out once the run ends.

Self time is a span's duration minus the part of it its child spans
cover.  Children on one thread nest strictly inside their parent, so
that part is the sum of the children's durations.
"""

from __future__ import annotations

import bisect
import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# Span record layout (a list, so the wrapper can fill it in place).
NAME, START, END, PARENT, THREAD, GROUP, CHILD_NS, ID = range(8)

#: Schedule methods that are schedule primitives (§3.2) or sampling
#: instructions; each gets its own ``schedule.<name>`` span.
SCHEDULE_PRIMITIVES = (
    "split", "fuse", "reorder", "parallel", "vectorize", "unroll", "bind",
    "annotate", "compute_at", "reverse_compute_at", "compute_inline",
    "reverse_compute_inline", "cache_read", "cache_write",
    "decompose_reduction", "merge_reduction", "blockize", "tensorize",
    "reindex", "fuse_buffer_dims", "fuse_block_iters", "pad_einsum",
    "set_scope", "sample_perfect_tile", "sample_categorical",
)


def _entry_points():
    """``[(span name, owner, attribute)]`` for every wrapped entry point.

    An owner is a module (the function is rebound under every name it
    has in ``repro.*``) or a class (the method is patched on it).
    """
    from repro.arith import analyzer, iter_map, simplify
    from repro.frontend import ops, shapes
    from repro.learn import gbdt
    from repro.meta import cost_model, database, feature, search, session, sketch
    # ``repro.meta.tune`` the module is shadowed by ``tune`` the function.
    tune_mod = sys.modules["repro.meta.tune"]
    from repro.runtime import codegen
    from repro.schedule import sref, state, validation
    from repro.serve import server
    from repro.sim import cost
    from repro.tir import printer, structural
    from repro.tir.analysis import regions

    points = [
        ("frontend.build", ops, "matmul"),
        ("frontend.build", ops, "conv2d"),
        ("frontend.build", ops, "depthwise_conv2d"),
        ("frontend.canonicalize", shapes, "canonicalize"),
        ("tir.access_regions", regions, "detect_block_access_regions"),
        ("tir.structural_hash", structural, "structural_hash"),
        ("tir.script", printer, "script"),
        ("arith.simplify", analyzer.Analyzer, "simplify"),
        ("arith.simplify", simplify.Simplifier, "simplify"),
        ("arith.iter_map", iter_map, "detect_iter_map"),
        ("schedule.find_loops", sref, "find_loops"),
        ("schedule.verify", validation, "verify"),
        ("meta.tune", tune_mod, "tune"),
        ("meta.search", search, "evolutionary_search"),
        ("meta.feature.extract", feature, "extract_features"),
        ("meta.session.run", session.TuningSession, "run"),
        ("meta.database.key", database, "workload_key"),
        ("meta.database.replay", database.Database, "replay"),
        ("meta.database.replay", database.Database, "replay_entry"),
        ("meta.database.load", database.PersistentDatabase, "__init__"),
        ("learn.gbdt.fit", gbdt.GradientBoostedTrees, "fit"),
        ("learn.gbdt.predict", gbdt.GradientBoostedTrees, "predict"),
        ("sim.estimate", cost, "estimate"),
        ("serve.submit", server.ScheduleServer, "submit"),
        ("runtime.compile", codegen, "compile_func"),
        ("runtime.exec", codegen.CompiledFunc, "__call__"),
    ]
    for cls in (database.TuningDatabase, database.PersistentDatabase):
        points.append(("meta.database.get", cls, "get"))
        points.append(("meta.database.put", cls, "put"))
    for cls in (sketch.TensorCoreSketch, sketch.GpuScalarSketch,
                sketch.CpuSdotSketch, sketch.CpuScalarSketch):
        points.append(("meta.sketch.apply", cls, "apply"))
    for prim in SCHEDULE_PRIMITIVES:
        points.append((f"schedule.{prim}", state.Schedule, prim))
    return points, cost_model.CostModel


class Tracer:
    """Records spans around the layers' entry points while installed."""

    def __init__(self):
        self.spans: List[list] = []
        #: (name, value) notes from post-call hooks, e.g. search counts.
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        #: (start_ns, group) of every cost-model refit started.
        self._refits: List[Tuple[int, Optional[str]]] = []

    # -- grouping --------------------------------------------------------
    def group(self, name: Optional[str]) -> None:
        """Set the group id of spans opened on this thread from now on."""
        self._local.group = name

    def current_group(self) -> Optional[str]:
        return getattr(self._local, "group", None)

    # -- wrapping --------------------------------------------------------
    def _wrap(self, fn: Callable, name: str, post: Optional[Callable] = None) -> Callable:
        tracer = self
        local = self._local
        spans = self.spans
        clock = time.perf_counter_ns
        ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            rec = [name, clock(), 0, parent, ident(), getattr(local, "group", None), 0, 0]
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                rec[END] = end
                stack.pop()
                if parent is not None:
                    parent[CHILD_NS] += end - rec[START]
                spans.append(rec)
            if post is not None:
                post(tracer, result, args)
            return result

        return traced

    def install(self) -> None:
        points, cost_model_cls = _entry_points()
        wrapped: Dict[int, Tuple[Callable, Callable]] = {}
        posts = {"meta.search": _search_post}
        for name, owner, attr in points:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, posts.get(name)))
                continue
            original = getattr(owner, attr)
            if id(original) not in wrapped:
                wrapped[id(original)] = (original, self._wrap(original, name, posts.get(name)))
        # Rebind every module-level alias of each wrapped function.
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")) or module is None:
                continue
            for attr, value in list(vars(module).items()):
                pair = wrapped.get(id(value))
                if pair is not None and pair[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, pair[1])
        self._patch_session_and_refit(cost_model_cls)

    def _patch_session_and_refit(self, cost_model_cls) -> None:
        from repro.meta.session import TuningSession

        tracer = self
        add = TuningSession.__dict__["add"]
        run = TuningSession.__dict__["run"]  # already wrapped as a span
        first_task: Dict[int, str] = {}

        @functools.wraps(add)
        def add_named(session, *args, **kwargs):
            name = add(session, *args, **kwargs)
            first_task.setdefault(id(session), name)
            return name

        @functools.wraps(run)
        def run_grouped(session, *args, **kwargs):
            # Miss sessions run on the server's worker thread: their
            # spans take the first task's key as group, which the caller
            # maps to the request id of the miss response.
            previous = tracer.current_group()
            if previous is None:
                tracer.group(f"session:{first_task.get(id(session), 'session')}")
            try:
                return run(session, *args, **kwargs)
            finally:
                first_task.pop(id(session), None)
                tracer.group(previous)

        update_async = cost_model_cls.__dict__["update_async"]

        @functools.wraps(update_async)
        def update_async_grouped(model, *args, **kwargs):
            # The refit runs on a thread this call starts; see finalize().
            tracer._refits.append((time.perf_counter_ns(), tracer.current_group()))
            return update_async(model, *args, **kwargs)

        for owner, attr, patched in (
            (TuningSession, "add", add_named),
            (TuningSession, "run", run_grouped),
            (cost_model_cls, "update_async", update_async_grouped),
        ):
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------
    def finalize(self, remap: Dict[str, str]) -> None:
        """Assign ids and resolve groups.

        A cost-model refit runs on a thread of its own with no group: its
        spans take the group of the latest refit started before them
        (tunes run one at a time per thread).  Provisional group names
        are then mapped through ``remap`` (e.g. to
        ``CompileResponse.request_id``).
        """
        grouped_threads = {rec[THREAD] for rec in self.spans if rec[GROUP] is not None}
        starts = [t for t, _ in self._refits]
        for index, rec in enumerate(self.spans, 1):
            rec[ID] = index
            if rec[GROUP] is None and rec[THREAD] not in grouped_threads:
                i = bisect.bisect_right(starts, rec[START]) - 1
                if i >= 0:
                    rec[GROUP] = self._refits[i][1]
            if rec[GROUP] in remap:
                rec[GROUP] = remap[rec[GROUP]]

    def keep_within(self, intervals) -> None:
        """Drop spans that start outside every ``(start_ns, end_ns)``
        interval — the benchmark's own checks call into the layers
        between timed operations."""
        ordered = sorted(intervals)
        starts = [lo for lo, _ in ordered]

        def inside(t: int) -> bool:
            i = bisect.bisect_right(starts, t) - 1
            return i >= 0 and t <= ordered[i][1]

        self.spans = [rec for rec in self.spans if inside(rec[START])]

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """``{span name: (self seconds, calls)}``."""
        out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for rec in self.spans:
            slot = out[rec[NAME]]
            slot[0] += (rec[END] - rec[START] - rec[CHILD_NS]) / 1e9
            slot[1] += 1
        return {k: (v[0], int(v[1])) for k, v in out.items()}

    def entries(self, name: str) -> int:
        """Spans of ``name`` not nested in another span of that name."""
        return sum(
            1 for rec in self.spans
            if rec[NAME] == name and (rec[PARENT] is None or rec[PARENT][NAME] != name)
        )

    def covered_seconds(self, start_ns: int, end_ns: int) -> float:
        """Wall time in [start, end] covered by any root span, on any
        thread (the union of their intervals)."""
        intervals = sorted(
            (max(rec[START], start_ns), min(rec[END], end_ns))
            for rec in self.spans
            if rec[PARENT] is None and rec[END] > start_ns and rec[START] < end_ns
        )
        covered, cur_start, cur_end = 0, None, None
        for lo, hi in intervals:
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        return covered / 1e9

    def self_ms_in_groups(self, name: str, groups) -> float:
        """Mean self time (ms) of ``name`` spans whose group is in ``groups``."""
        total, calls = 0, 0
        for rec in self.spans:
            if rec[NAME] == name and rec[GROUP] in groups:
                total += rec[END] - rec[START] - rec[CHILD_NS]
                calls += 1
        return total / calls / 1e6 if calls else 0.0

    def chrome_trace(self, path: str) -> None:
        """Write the spans as a Chrome-trace JSON file (Perfetto opens it)."""
        origin = min((rec[START] for rec in self.spans), default=0)
        events = [
            {
                "name": rec[NAME],
                "cat": rec[NAME].rsplit(".", 1)[0],
                "ph": "X",
                "ts": (rec[START] - origin) / 1e3,
                "dur": (rec[END] - rec[START]) / 1e3,
                "pid": 1,
                "tid": rec[THREAD],
                "args": {
                    "id": rec[ID],
                    "parent": rec[PARENT][ID] if rec[PARENT] is not None else None,
                    "group": rec[GROUP],
                    "self_us": (rec[END] - rec[START] - rec[CHILD_NS]) / 1e3,
                },
            }
            for rec in sorted(self.spans, key=lambda r: r[START])
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh,
                      separators=(",", ":"))


def _search_post(tracer: Tracer, result, args) -> None:
    stats = getattr(result, "stats", None)
    if stats is not None:
        tracer.counters["meta.search.candidates"] += stats.candidates_generated
        tracer.counters["meta.search.measured"] += stats.measured
