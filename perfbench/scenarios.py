"""The benchmark's three workloads, driven through the public API.

* ``tune_cold`` — each pass clears every process cache, then tunes the
  op set at a fixed trial budget and tuning seed.
* ``tune_warm`` — the same op set re-tuned in the same process after a
  cold pass, so candidate builds replay from the caches.
* ``serve_mix`` — one closed-loop client sends a seeded sequence of
  exact-hit and in-bucket shapes to a ``ScheduleServer`` over a
  ``PersistentDatabase``, runs every returned program, restarts the
  server between rounds and ends with a burst of unseen shapes, each
  submitted twice.

A round is the unit of work a run repeats until its time is up, so every
run attempts whole rounds of the same operations.  Timed regions hold
only calls into the program; garbage collection, input preparation and
every check run outside them.

Timings are wall time (``time.perf_counter``) scaled to a nominal
machine speed.  On a machine shared with other tenants the same work
takes up to half as long again in spells that last seconds to minutes,
and a pure-Python reference kernel that runs no code of the program
slows down with it.  :class:`Clock` therefore times the reference kernel
between timed regions (a checkpoint), and reports each region's wall
time multiplied by ``NOMINAL_REFERENCE_S`` over the mean of the kernel's
times at the checkpoints just before and just after the region.  The
raw wall times are kept beside the scaled ones in the detail line.
"""

from __future__ import annotations

import bisect
import gc
import math
import os
import random
import shutil
import tempfile
import time
import traceback
import zlib
from dataclasses import dataclass
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import cache as repro_cache
from repro import (
    BucketSpec,
    Client,
    PersistentDatabase,
    ScheduleServer,
    ServeConfig,
    TuneConfig,
    TuningDatabase,
    tune,
    workload_key,
)
from repro.frontend import ops
from repro.frontend.workloads import cpu_workload, gpu_workload
# Called through the module, so that the traced run's wrapper, which
# rebinds the names in ``repro.*``, sees the benchmark's own compiles.
from repro import runtime
from repro.sim import SimCPU, SimGPU, estimate
from repro.tir import script

import checks

perf = time.perf_counter

#: tuning seed of every search the benchmark starts: the §5.1/§5.3
#: searches are seeded programs, and a fixed seed keeps their cost and
#: their best programs the same in every run.
TUNE_SEED = 0


# ---------------------------------------------------------------------------
# operation accounting
# ---------------------------------------------------------------------------


class Ledger:
    """Attempted/failed counts per kind of operation, and what failed."""

    def __init__(self):
        self.kinds: Dict[str, List[int]] = {}
        self.errors: List[str] = []
        self.problems: List[str] = []

    def ok(self, kind: str, count: int = 1) -> None:
        self.kinds.setdefault(kind, [0, 0])[0] += count

    def fail(self, kind: str, err: BaseException) -> None:
        slot = self.kinds.setdefault(kind, [0, 0])
        slot[0] += 1
        slot[1] += 1
        if len(self.errors) < 20:
            self.errors.append(f"{kind}: {''.join(traceback.format_exception_only(type(err), err)).strip()}")

    def check(self, what: str, problems: List[str]) -> None:
        slot = self.kinds.setdefault("checks", [0, 0])
        slot[0] += 1
        if problems:
            slot[1] += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:3])

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.kinds.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.kinds.values())

    def counts(self) -> Dict[str, Dict[str, int]]:
        return {k: {"attempted": a, "failed": f} for k, (a, f) in sorted(self.kinds.items())}


@dataclass
class Outcome:
    """What a workload run hands back to ``run.py``."""

    ledger: Ledger
    #: end-to-end metrics (untraced runs) or per-layer metrics (traced).
    metrics: Dict[str, Tuple[float, str]]
    #: per-run figures printed beside the metrics (sample counts,
    #: serve-only latencies, the trace file).
    detail: Dict[str, object]
    #: scaled seconds of set-up work after the imports (the median of
    #: the run's set-ups).
    setup_work_s: float


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------

#: Iterations of the reference kernel (about 30 ms on the measuring machine).
REFERENCE_ITERATIONS = 300_000
#: The kernel's result, checked so that a run cannot time a kernel that
#: did not do its work.
REFERENCE_TOTAL = 599_998
#: Seconds the reference kernel takes at the nominal machine speed that
#: every scaled timing is expressed in.
NOMINAL_REFERENCE_S = 0.030


def reference_kernel() -> float:
    """Wall seconds of a fixed pure-Python loop that runs no code of the
    program.  It is integer arithmetic only: a kernel that allocates
    objects would also time the state of the process's heap, which the
    workload changes."""
    gc.collect()
    gc.disable()
    t0 = perf()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    elapsed = perf() - t0
    gc.enable()
    if total != REFERENCE_TOTAL:
        raise RuntimeError("reference kernel miscomputed")
    return elapsed


def reference_loop() -> float:
    """Median of five runs of the reference kernel: the machine's speed
    at the time, printed before and after the workload so that a slowed
    machine can be told apart from a slowed program."""
    return median([reference_kernel() for _ in range(5)])


#: A timed region: (start, end) in ``perf_counter_ns`` nanoseconds.
Region = Tuple[int, int]


class Clock:
    """Timed regions of one run, and the machine's speed around them.

    :meth:`checkpoint` runs the reference kernel between timed regions;
    :meth:`scaled` gives a region's wall seconds at the nominal speed,
    using the checkpoints just before and just after it.  The intervals
    of the regions closed with :meth:`stop` are kept for the trace.
    """

    def __init__(self):
        #: (perf_counter_ns at the end of the kernel, kernel seconds)
        self.checkpoints: List[Tuple[int, float]] = []
        self.wall_s = 0.0
        self.intervals: List[Region] = []

    def checkpoint(self) -> None:
        seconds = reference_kernel()
        self.checkpoints.append((time.perf_counter_ns(), seconds))

    @staticmethod
    def start() -> int:
        return time.perf_counter_ns()

    def stop(self, start_ns: int) -> Region:
        """Close the region opened at ``start_ns``."""
        end_ns = time.perf_counter_ns()
        self.intervals.append((start_ns, end_ns))
        self.wall_s += (end_ns - start_ns) / 1e9
        return start_ns, end_ns

    def reset(self) -> None:
        self.wall_s, self.intervals = 0.0, []

    def speed(self, region: Region) -> float:
        """Mean kernel seconds of the checkpoints around ``region``."""
        times = [t for t, _ in self.checkpoints]
        before = bisect.bisect_right(times, region[0]) - 1
        after = bisect.bisect_left(times, region[1])
        refs = [self.checkpoints[i][1] for i in (before, after)
                if 0 <= i < len(self.checkpoints)]
        return sum(refs) / len(refs)

    def scaled(self, region: Region) -> float:
        """Wall seconds of ``region`` at the nominal machine speed."""
        return (region[1] - region[0]) / 1e9 * NOMINAL_REFERENCE_S / self.speed(region)

    def scaled_all(self, regions: Sequence[Region]) -> List[float]:
        return [self.scaled(r) for r in regions]

    def reference_seconds(self) -> List[float]:
        return [seconds for _, seconds in self.checkpoints]


def wall(region: Region) -> float:
    return (region[1] - region[0]) / 1e9


# ---------------------------------------------------------------------------
# tuning workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TuneSize:
    #: (label, op builder, target class)
    ops: Tuple[Tuple[str, Callable, type], ...]
    trials: int
    #: set-ups per run (their median is the reported set-up work).
    setups: int
    #: timed replays of each op per round.
    replays: int
    #: timed compiles of each op's best program per round.
    compiles: int


TUNE_FULL = TuneSize(
    ops=(
        ("GMM", lambda: gpu_workload("GMM"), SimGPU),
        ("C2D", lambda: gpu_workload("C2D"), SimGPU),
        ("DEP", lambda: gpu_workload("DEP"), SimGPU),
        ("ARM-GMM", lambda: cpu_workload("GMM"), SimCPU),
    ),
    trials=8,
    setups=3,
    replays=3,
    compiles=5,
)

TUNE_SMOKE = TuneSize(
    ops=(
        ("GMM", lambda: ops.matmul(64, 64, 64), SimGPU),
        ("C2D", lambda: ops.conv2d(1, 6, 6, 16, 16, 3, 3), SimGPU),
        ("DEP", lambda: ops.depthwise_conv2d(1, 10, 10, 16, 3, 3), SimGPU),
        ("ARM-GMM", lambda: ops.matmul(64, 64, 64, dtype="int8", acc_dtype="int32"), SimCPU),
    ),
    trials=4,
    setups=1,
    replays=1,
    compiles=1,
)


class TuneRun:
    """One run of ``tune_cold`` or ``tune_warm``.

    On ``tune_cold`` every timed operation starts from empty process
    caches; on ``tune_warm`` every one finds them filled by the set-up.
    """

    def __init__(self, name: str, seed: int, size: TuneSize, clock: Clock):
        self.name = name
        self.cold = name == "tune_cold"
        self.size = size
        self.clock = clock
        self.tracer = None  # set while a traced round runs
        self.ledger = Ledger()
        self.config = TuneConfig(trials=size.trials, seed=TUNE_SEED)
        # The seed orders the ops within a pass; the op set, the trial
        # budget and the tuning seed stay fixed.
        self.order = list(range(len(size.ops)))
        random.Random(seed).shuffle(self.order)
        #: label -> printed best program of the first (cold) pass: every
        #: later pass must return byte-identical programs.
        self.baseline: Dict[str, str] = {}
        self.cycles: Dict[str, float] = {}
        #: (label, printed program) already verified and re-estimated.
        self.verified: set = set()
        labels = [label for label, _, _ in size.ops]
        #: label -> timed regions of each kind of operation
        self.tunes: Dict[str, List[Region]] = {label: [] for label in labels}
        self.replays: Dict[str, List[Region]] = {label: [] for label in labels}
        self.compiles: Dict[str, List[Region]] = {label: [] for label in labels}
        self.passes = 0

    def _group(self, name: Optional[str]) -> None:
        if self.tracer is not None:
            self.tracer.group(name)

    def _timed(self, label: str, kind: str, fn: Callable):
        """Run ``fn()`` as one timed operation on an op; returns its
        result, or None when it raised (counted as failed)."""
        if self.cold:
            repro_cache.clear_all()
        gc.collect()
        self._group(f"{kind}:{label}")
        gc.disable()
        start = self.clock.start()
        try:
            result = fn()
        except Exception as err:  # noqa: BLE001 — count it and go on
            result = None
            self.ledger.fail(kind, err)
        else:
            self.ledger.ok(kind)
        region = self.clock.stop(start)
        gc.enable()
        self._group(None)
        if result is not None:
            getattr(self, kind)[label].append(region)
        return result

    def tune_pass(self) -> Dict[str, object]:
        """Tune every op once; returns label -> TuneResult."""
        results = {}
        self.clock.checkpoint()
        for i in self.order:
            label, build, target_cls = self.size.ops[i]
            result = self._timed(label, "tunes",
                                 lambda: tune(build(), target_cls(), self.config))
            if result is not None:
                results[label] = result
            self.clock.checkpoint()
        self.passes += 1
        return results

    def check_pass(self, results: Dict[str, object], what: str) -> None:
        """Checks on one pass's best programs (outside timed regions)."""
        for label, build, target_cls in self.size.ops:
            result = results.get(label)
            if result is None:
                continue
            text = script(result.best_func)
            if label not in self.baseline:
                self.baseline[label] = text
                self.cycles[label] = result.best_cycles
            else:
                self.ledger.check(
                    f"{label} {what} vs first cold pass",
                    checks.check_same_script(text, self.baseline[label], what),
                )
            # verify() and the cycle re-estimate depend only on the
            # program, so each distinct program is checked once.
            key = (label, text)
            if key not in self.verified:
                target = target_cls()
                problems = checks.check_verify(result.best_func, target)
                self.ledger.check(f"{label} verify", problems)
                cyc = checks.check_cycles(result.best_func, target, result.best_cycles)
                self.ledger.check(f"{label} cycles", cyc)
                self.verified.add(key)

    def compile_round(self, results: Dict[str, object]) -> None:
        """Time ``runtime.compile_func`` on each best program, the step a
        user takes to run it; the compiled source must equal a fresh
        compile made with every cache off."""
        self.clock.checkpoint()
        for _ in range(self.size.compiles):
            for i in self.order:
                label = self.size.ops[i][0]
                result = results.get(label)
                if result is None:
                    continue
                compiled = self._timed(label, "compiles",
                                       lambda: runtime.compile_func(result.best_func))
                if compiled is not None:
                    self.ledger.check(f"{label} compile",
                                      checks.check_compiled(compiled, result.best_func))
        self.clock.checkpoint()

    def replay_round(self, results: Dict[str, object]) -> None:
        """Time ``tune(..., database=db)`` on ops whose best decisions a
        fresh ``TuningDatabase`` holds: the zero-search replay (§5.2).
        Each replayed program must print like the tuned one."""
        db = TuningDatabase()
        for label, build, target_cls in self.size.ops:
            result = results.get(label)
            if result is not None:
                db.record(build(), target_cls(), result.best_sketch,
                          result.best_decisions, result.best_cycles)
        self.clock.checkpoint()
        for _ in range(self.size.replays):
            for i in self.order:
                label, build, target_cls = self.size.ops[i]
                if label not in results:
                    continue
                replayed = self._timed(
                    label, "replays",
                    lambda: tune(build(), target_cls(), self.config, database=db))
                if replayed is None:
                    continue
                problems = [] if replayed.replayed else ["tune() searched instead of replaying"]
                problems += checks.check_same_script(
                    script(replayed.best_func), self.baseline.get(label, ""), "replayed"
                )
                self.ledger.check(f"{label} replay", problems)
        self.clock.checkpoint()

    def round(self) -> None:
        results = self.tune_pass()
        self.check_pass(results, "cold pass" if self.cold else "warm pass")
        self.compile_round(results)
        self.replay_round(results)

    def setup(self) -> List[List[Region]]:
        """The workload's set-up, repeated ``size.setups`` times: for
        ``tune_warm`` one cold pass that also compiles the best programs,
        which fills the caches the warm operations read; ``tune_cold``
        has none beyond the imports.  Returns each set-up's regions, one
        per op with a checkpoint after each."""
        setups = []
        for _ in range(self.size.setups):
            self.clock.checkpoint()
            start = self.clock.start()
            repro_cache.clear_all()
            regions = [(start, time.perf_counter_ns())]
            self.clock.checkpoint()
            results = {}
            for i in (self.order if not self.cold else ()):
                label, build, target_cls = self.size.ops[i]
                start = self.clock.start()
                try:
                    results[label] = tune(build(), target_cls(), self.config)
                    runtime.compile_func(results[label].best_func)
                except Exception as err:  # noqa: BLE001
                    self.ledger.fail("setup-tunes", err)
                else:
                    self.ledger.ok("setup-tunes")
                regions.append((start, time.perf_counter_ns()))
                self.clock.checkpoint()
            self.check_pass(results, "set-up cold pass")
            setups.append(regions)
        return setups

    def _per_op(self, kind: str) -> Dict[str, float]:
        """label -> median scaled seconds of one kind of operation."""
        return {label: median(self.clock.scaled_all(regions))
                for label, regions in getattr(self, kind).items() if regions}

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        return {
            "tune_s": (sum(self._per_op("tunes").values()), "s"),
            "hit_ms": (geomean(list(self._per_op("replays").values())) * 1e3, "ms"),
            "runtime_ms": (geomean(list(self._per_op("compiles").values())) * 1e3, "ms"),
            "cycles_geomean": (geomean(list(self.cycles.values())), "cycles"),
        }

    def detail(self) -> Dict[str, object]:
        wall_tunes = [sum(wall(r[i]) for r in self.tunes.values()) for i in range(self.passes)
                      if all(len(r) > i for r in self.tunes.values())]
        return {
            "passes": self.passes,
            "tune_s_per_op": self._per_op("tunes"),
            "replay_ms_per_op": {k: v * 1e3 for k, v in self._per_op("replays").items()},
            "compile_ms_per_op": {k: v * 1e3 for k, v in self._per_op("compiles").items()},
            "pass_wall_s": wall_tunes,
            "replay_samples": sum(len(v) for v in self.replays.values()),
            "cycles_per_op": self.cycles,
            "trials": self.size.trials,
            "tune_seed": TUNE_SEED,
            "op_order": [self.size.ops[i][0] for i in self.order],
        }


def run_tune(name: str, seed: int, seconds: float, smoke: bool, trace, clock: Clock) -> Outcome:
    size = TUNE_SMOKE if smoke else TUNE_FULL
    job = TuneRun(name, seed, size, clock)
    setup_work = median([sum(clock.scaled_all(regions)) for regions in job.setup()])
    if trace is None:
        deadline = perf() + seconds
        while True:
            job.round()
            if perf() >= deadline:
                break
        return Outcome(job.ledger, job.end_to_end(), job.detail(), setup_work)
    info = traced_rounds(job, trace)
    info.update(remap={}, hit_groups=set(), queue_wait=[], coalesced=0)
    return Outcome(job.ledger, {}, info, setup_work)


def traced_rounds(job, trace) -> Dict[str, object]:
    """A warm-up round, then untraced, traced and untraced rounds.

    The traced round's spans give the per-layer metrics; its wall time
    against the mean of the two untraced rounds around it gives the
    tracing overhead (the order cancels a steady drift in the machine's
    speed).
    """
    job.round()
    untraced = []
    info: Dict[str, object] = {}
    for traced in (False, True, False):
        job.clock.reset()
        if not traced:
            job.round()
            untraced.append(job.clock.wall_s)
            continue
        before = repro_cache.snapshot_counts()
        trace.install()
        job.tracer = trace
        try:
            job.round()
        finally:
            trace.uninstall()
            job.tracer = None
        info.update(
            traced_s=job.clock.wall_s,
            cache_delta=repro_cache.delta_since(before),
            intervals=list(job.clock.intervals),
        )
    info["untraced_s"] = sum(untraced) / len(untraced)
    return info


# ---------------------------------------------------------------------------
# serving workload
# ---------------------------------------------------------------------------

#: A shape is (op, n, rest...): ("matmul", n, m, k) or
#: ("conv2d", n, h, w, ci, co, kh, kw), all fp16.
Shape = Tuple


def build_shape(shape: Shape):
    if shape[0] == "matmul":
        return ops.matmul(*shape[1:])
    return ops.conv2d(*shape[1:])


@dataclass(frozen=True)
class ServeSize:
    #: shapes tuned into the database at set-up: the exact-hit traffic.
    catalog: Tuple[Shape, ...]
    #: unseen shapes inside a catalog shape's pow2 batch bucket.
    in_bucket: Tuple[Shape, ...]
    #: shapes in buckets with no stored record: each round's miss burst.
    misses: Tuple[Shape, ...]
    exact_reps: int  # requests per catalog shape in one round
    bucket_reps: int  # requests per in-bucket shape in one round
    trials: int
    setups: int


SERVE_FULL = ServeSize(
    catalog=(
        ("matmul", 32, 32, 32),
        ("matmul", 64, 32, 32),
        ("matmul", 128, 32, 32),
        ("conv2d", 2, 6, 6, 16, 16, 3, 3),
        ("conv2d", 8, 6, 6, 16, 16, 3, 3),
    ),
    # Even batches only: an odd conv batch under pow2 cannot replay its
    # representative's thread binding and is tuned afresh (TIR701 ->
    # TIR702), which is a miss, not a bucket hit.
    in_bucket=(
        ("matmul", 48, 32, 32),
        ("matmul", 96, 32, 32),
        ("conv2d", 6, 6, 6, 16, 16, 3, 3),
    ),
    misses=(
        ("matmul", 64, 48, 32),
        ("matmul", 64, 32, 48),
    ),
    exact_reps=8,
    bucket_reps=4,
    trials=4,
    setups=3,
)

SERVE_SMOKE = ServeSize(
    catalog=(("matmul", 64, 32, 32), ("conv2d", 2, 6, 6, 16, 16, 3, 3)),
    in_bucket=(("matmul", 48, 32, 32),),
    misses=(("matmul", 32, 48, 32),),
    exact_reps=3,
    bucket_reps=2,
    trials=2,
    setups=1,
)


def shape_inputs(shape: Shape, seed: int) -> Dict[str, np.ndarray]:
    """Seeded fp16 inputs in [-1, 1] for one shape."""
    rng = np.random.default_rng([seed, zlib.crc32(repr(shape).encode())])
    if shape[0] == "matmul":
        _, n, m, k = shape
        dims = {"A": (n, k), "B": (k, m)}
    else:
        _, n, h, w, ci, co, kh, kw = shape
        dims = {"A": (n, h, w, ci), "W": (kh, kw, ci, co)}
    return {
        name: rng.uniform(-1.0, 1.0, size=dim).astype(np.float16)
        for name, dim in dims.items()
    }


class ServeRun:
    """One run of ``serve_mix``."""

    #: requests between two checkpoints of the machine's speed.
    CHECK_EVERY = 8

    def __init__(self, seed: int, size: ServeSize, workdir: str, clock: Clock):
        self.size = size
        self.workdir = workdir
        self.clock = clock
        self.tracer = None  # set while a traced round runs
        self.ledger = Ledger()
        self.target = SimGPU()
        self.tune_config = TuneConfig(trials=size.trials, seed=TUNE_SEED)
        self.serve_config: Optional[ServeConfig] = None
        sequence = [s for s in size.catalog for _ in range(size.exact_reps)]
        sequence += [s for s in size.in_bucket for _ in range(size.bucket_reps)]
        random.Random(seed).shuffle(sequence)
        self.sequence = sequence
        self.inputs = {s: shape_inputs(s, seed) for s in (*size.catalog, *size.in_bucket, *size.misses)}
        self.refs = {s: checks.reference(s[0], arrays) for s, arrays in self.inputs.items()}
        #: kind -> shape -> timed regions; each shape's timings are
        #: summarised apart and shapes combine by geometric mean, so no
        #: figure pools requests of different outcomes or shapes.
        self.samples: Dict[str, Dict[Shape, List[Region]]] = {
            k: {} for k in ("hit", "bucket_hit", "first_hit", "bucket_first", "miss", "run")
        }
        #: shape -> (request region, execution region) of each hit
        self.loops: Dict[Shape, List[Tuple[Region, Region]]] = {}
        self.restarts: List[Region] = []
        self.served_cycles: Dict[Shape, float] = {}
        self.remap: Dict[str, str] = {}
        self.hit_groups: set = set()
        self.queue_wait: List[float] = []
        self.coalesced = 0
        self._n = 0  # provisional group ids handed out
        self._last_group: Optional[str] = None  # group of the last request

    # -- set-up --------------------------------------------------------
    def setup(self) -> List[List[Region]]:
        """Fill a fresh database by tuning the catalog, ``setups`` times;
        the run serves from the last one.  Returns each set-up's regions,
        one per shape with a checkpoint after each."""
        setups = []
        for index in range(self.size.setups):
            db_dir = os.path.join(self.workdir, f"db{index}")
            repro_cache.clear_all()
            self.clock.checkpoint()
            start = self.clock.start()
            db = PersistentDatabase(db_dir)
            regions = [(start, time.perf_counter_ns())]
            self.clock.checkpoint()
            for shape in self.size.catalog:
                start = self.clock.start()
                try:
                    tune(build_shape(shape), self.target, self.tune_config, database=db)
                except Exception as err:  # noqa: BLE001
                    self.ledger.fail("setup-tunes", err)
                else:
                    self.ledger.ok("setup-tunes")
                regions.append((start, time.perf_counter_ns()))
                self.clock.checkpoint()
            setups.append(regions)
            if index:
                shutil.rmtree(os.path.join(self.workdir, f"db{index - 1}"))
        self.serve_config = ServeConfig(
            db_path=os.path.join(self.workdir, f"db{self.size.setups - 1}"),
            tune=self.tune_config,
            buckets=BucketSpec.pow2("n"),
        )
        return setups

    # -- one request -----------------------------------------------------
    def _args(self, shape: Shape, func) -> Tuple[list, np.ndarray]:
        arrays = dict(self.inputs[shape])
        out = func.buffer_map[func.params[-1]]
        arrays[out.name] = np.zeros(out.shape_ints(), dtype=np.float16)
        return [arrays[func.buffer_map[p].name] for p in func.params], arrays[out.name]

    def _group(self, name: Optional[str]) -> None:
        if self.tracer is not None:
            self.tracer.group(name)

    def _provisional(self) -> str:
        self._n += 1
        return f"client:{self._n}"

    def _execute(self, shape: Shape, resp, what: str) -> Optional[Region]:
        """Run a served program on the shape's inputs and check it;
        returns the execution's region."""
        args, out = self._args(shape, resp.func)
        self._group(self.remap.get(self._last_group, self._last_group))
        gc.disable()
        start = self.clock.start()
        try:
            resp(*args)
        except Exception as err:  # noqa: BLE001
            self.ledger.fail("executions", err)
            return None
        else:
            region = self.clock.stop(start)
        finally:
            gc.enable()
            self._group(None)
        self.ledger.ok("executions")
        self.samples["run"].setdefault(shape, []).append(region)
        exact, magnitude, terms = self.refs[shape]
        self.ledger.check(f"{what} {shape} output",
                          checks.check_output(out, exact, magnitude, terms))
        return region

    def request(self, client: Client, shape: Shape, expected: str, kind: str) -> None:
        group = self._provisional()
        self._last_group = group
        self._group(group)
        gc.disable()
        start = self.clock.start()
        try:
            func = build_shape(shape)
            resp = client.compile(func, timeout=600)
        except Exception as err:  # noqa: BLE001
            gc.enable()
            self._group(None)
            self.ledger.fail(f"requests.{kind}", err)
            return
        region = self.clock.stop(start)
        gc.enable()
        self._group(None)
        self.ledger.ok(f"requests.{kind}")
        self.remap[group] = resp.request_id
        if kind in ("hit", "bucket_hit"):
            self.hit_groups.add(resp.request_id)
        self.samples[kind].setdefault(shape, []).append(region)
        problems = []
        if resp.source != expected:
            problems.append(f"served as {resp.source!r}, expected {expected!r}")
        if resp.trials != 0:
            problems.append(f"a {resp.source} took {resp.trials} trials")
        if resp.key != workload_key(func, self.target):
            problems.append("response key is not the request's workload key")
        self.ledger.check(f"{kind} {shape}", problems)
        ran = self._execute(shape, resp, kind)
        if kind in ("hit", "bucket_hit") and ran is not None:
            self.loops.setdefault(shape, []).append((region, ran))
        if shape not in self.served_cycles:
            self.served_cycles[shape] = estimate(resp.func, self.target).cycles

    # -- rounds ------------------------------------------------------------
    def _start_server(self) -> Client:
        gc.collect()
        start = self.clock.start()
        server = ScheduleServer(self.target, self.serve_config)
        self.restarts.append(self.clock.stop(start))
        self.ledger.ok("restarts")
        return Client(server)

    def _close(self, client: Client) -> None:
        if self.tracer is not None:
            series = client.metrics.snapshot()["metrics"].get(
                "serve_queue_wait_seconds", {}
            ).get("series", {})
            for hist in series.values():
                if hist["count"]:
                    self.queue_wait.append(hist["sum"] / hist["count"])
            self.coalesced += client.stats().coalesced
        client.close()

    def round(self) -> None:
        """Restart the server, send the fixed request sequence, then the
        miss burst.

        A restarted server is a new process, so the restart also empties
        the process caches: the first request for each key pays its
        database read, replay, printing and compile again, and every
        miss tunes cold.
        """
        repro_cache.clear_all()
        self.clock.checkpoint()
        client = self._start_server()
        seen = set()
        try:
            for index, shape in enumerate(self.sequence, 1):
                bucketed = shape in self.size.in_bucket
                if shape in seen:
                    kind = "bucket_hit" if bucketed else "hit"
                else:
                    kind = "bucket_first" if bucketed else "first_hit"
                    seen.add(shape)
                self.request(client, shape, "bucket-hit" if bucketed else "hit", kind)
                if index % self.CHECK_EVERY == 0 or index == len(self.sequence):
                    self.clock.checkpoint()
            self.miss_burst(client)
        finally:
            self._close(client)

    def miss_burst(self, client: Client) -> None:
        """Each unseen shape submitted twice through ``Client.submit``:
        one response must be the miss, the other coalesced onto it, and
        the server must tune the workload once.  The new records are
        evicted afterwards, so the shapes are unseen again next round."""
        for shape in self.size.misses:
            before = client.stats().tuned_workloads
            groups = [self._provisional(), self._provisional()]
            submitted, futures = [], []
            gc.disable()
            start = self.clock.start()
            try:
                for group in groups:
                    self._group(group)
                    submitted.append(time.perf_counter_ns())
                    futures.append(client.submit(build_shape(shape)))
                self._group(None)
                responses, regions = [], []
                for t_sub, future in zip(submitted, futures):
                    responses.append(future.result(timeout=600))
                    regions.append((t_sub, time.perf_counter_ns()))
            except Exception as err:  # noqa: BLE001
                gc.enable()
                self._group(None)
                self.ledger.fail("requests.miss", err)
                continue
            self.clock.stop(start)
            gc.enable()
            for group, resp, region in zip(groups, responses, regions):
                self.remap[group] = resp.request_id
                kind = "coalesced" if resp.source == "coalesced" else "miss"
                self.ledger.ok(f"requests.{kind}")
                self.samples["miss"].setdefault(shape, []).append(region)
            self.clock.checkpoint()
            miss = next((r for r in responses if r.source == "miss"), None)
            if miss is not None and self.tracer is not None:
                self.remap[f"session:{miss.key}"] = miss.request_id
            problems = []
            if sorted(r.source for r in responses) != ["coalesced", "miss"]:
                problems.append(f"twin sources {[r.source for r in responses]}")
            tuned = client.stats().tuned_workloads - before
            if tuned != 1:
                problems.append(f"the server tuned the workload {tuned} times")
            for resp in responses:
                if resp.key != workload_key(build_shape(shape), self.target):
                    problems.append("response key is not the request's workload key")
                if resp.source == "coalesced" and resp.trials != 0:
                    problems.append(f"coalesced twin took {resp.trials} trials")
            self.ledger.check(f"miss twins {shape}", problems)
            for group, resp in zip(groups, responses):
                self._last_group = group
                self._execute(shape, resp, resp.source)
            self.served_cycles[shape] = estimate(miss.func if miss else responses[0].func,
                                                 self.target).cycles
            for key in {resp.key for resp in responses}:
                client.server.database.evict(key)
            self.clock.checkpoint()

    # -- results -----------------------------------------------------------
    def _per_shape(self, kind: str) -> Dict[Shape, float]:
        """shape -> median scaled seconds of one kind of timing."""
        return {shape: median(self.clock.scaled_all(regions))
                for shape, regions in self.samples[kind].items()}

    def _figure(self, kind: str) -> Optional[float]:
        """Geometric mean over shapes of each shape's median."""
        per_shape = self._per_shape(kind)
        return geomean(list(per_shape.values())) if per_shape else None

    def _weighted(self, per_shape: Dict[Shape, float]) -> float:
        """Mean of per-shape figures weighted by each shape's share of
        the request sequence."""
        weights = {shape: self.sequence.count(shape) for shape in per_shape}
        return sum(weights[k] * v for k, v in per_shape.items()) / sum(weights.values())

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        # Execution time is averaged over the sequence, shapes weighted
        # by their share: the mix holds programs whose times differ
        # several-fold, so a median would jump between them.
        run = {k: v for k, v in self._per_shape("run").items() if k in self.sequence}
        return {
            "tune_s": (self._figure("miss"), "s"),
            "hit_ms": (self._figure("hit") * 1e3, "ms"),
            "runtime_ms": (self._weighted(run) * 1e3, "ms"),
            "cycles_geomean": (geomean(list(self.served_cycles.values())), "cycles"),
        }

    def detail(self) -> Dict[str, object]:
        scaled = self.clock.scaled
        hits = [scaled(r) * 1e3 for v in self.samples["hit"].values() for r in v]
        loop = {shape: median([scaled(a) + scaled(b) for a, b in pairs])
                for shape, pairs in self.loops.items()}
        out: Dict[str, object] = {
            "samples": {k: sum(len(v) for v in by_shape.values())
                        for k, by_shape in self.samples.items()},
            "rounds": len(self.restarts),
            "restart_ms": median(self.clock.scaled_all(self.restarts)) * 1e3,
            "bucket_hit_ms": self._figure("bucket_hit") * 1e3,
            "bucket_first_ms": self._figure("bucket_first") * 1e3,
            "first_hit_ms": self._figure("first_hit") * 1e3,
            "miss_s": self._figure("miss"),
            "requests_per_s": 1.0 / self._weighted(loop),
            "hit_wall_ms": geomean([median([wall(r) for r in v])
                                    for v in self.samples["hit"].values()]) * 1e3,
            "sequence_length": len(self.sequence),
            "trials": self.size.trials,
        }
        # A p95 is a tail only with at least ten samples beyond it.
        if len(hits) >= 200:
            out["hit_p95_ms"] = percentile(hits, 0.95)
        return out


def run_serve(seed: int, seconds: float, smoke: bool, trace, scratch: str,
              clock: Clock) -> Outcome:
    size = SERVE_SMOKE if smoke else SERVE_FULL
    workdir = tempfile.mkdtemp(prefix="serve-", dir=scratch)
    try:
        job = ServeRun(seed, size, workdir, clock)
        setup_work = median([sum(clock.scaled_all(regions)) for regions in job.setup()])
        if trace is None:
            deadline = perf() + seconds
            while True:
                job.round()
                if perf() >= deadline:
                    break
            return Outcome(job.ledger, job.end_to_end(), job.detail(), setup_work)
        info = traced_rounds(job, trace)
        info.update(remap=job.remap, hit_groups=job.hit_groups,
                    queue_wait=job.queue_wait, coalesced=job.coalesced)
        return Outcome(job.ledger, {}, info, setup_work)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
