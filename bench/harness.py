"""Workload-independent parts of the benchmark: spans, the task loop, statistics
and the machine fingerprint.

Everything here times and records calls made *into* the library from outside;
nothing reaches into primedir internals.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

# Threading variables the harness pins to 1 before numpy is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)

TAIL_BEYOND = 10  # the tail percentile is the highest one with this many tasks above it


def bootstrap() -> str:
    """Pin library threads to 1 and put the checkout's ``src`` first on the path.

    Returns the checkout root.  Exits with code 2 when the checkout holds no
    primedir source tree, so a copy of the benchmark alone never reports a
    result.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "primedir", "__init__.py")):
        sys.stderr.write(f"error: no primedir source tree under {src}\n")
        raise SystemExit(2)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)
    return root


class Tracer:
    """In-memory span recorder around the harness's calls into the library.

    A span is (name, start, end, parent span id, task id, calls).  ``calls``
    is 1 for a single public call; a replay loop over many calls of one
    function records a single span carrying the loop's call count.  With
    tracing off, ``call`` is a plain function call and nothing is stored.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.task: int | None = None

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def span(self, name: str, calls: int = 1) -> "_Span":
        return _Span(self, name, calls)

    def totals(self) -> dict[str, tuple[float, int]]:
        """Summed duration and call count per span name."""
        out: dict[str, tuple[float, int]] = {}
        for name, t0, t1, _parent, _task, calls in self.spans:
            s, c = out.get(name, (0.0, 0))
            out[name] = (s + (t1 - t0), c + calls)
        return out


class _Span:
    __slots__ = ("tracer", "name", "calls", "sid", "t0")

    def __init__(self, tracer: Tracer, name: str, calls: int):
        self.tracer, self.name, self.calls = tracer, name, calls

    def __enter__(self):
        tr = self.tracer
        if tr.enabled:
            self.sid = len(tr.spans)
            tr.spans.append(None)
            tr._stack.append(self.sid)
            self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        if tr.enabled:
            t1 = time.perf_counter()
            tr._stack.pop()
            parent = tr._stack[-1] if tr._stack else None
            tr.spans[self.sid] = (self.name, self.t0, t1, parent, tr.task, self.calls)
        return False


@dataclass
class TaskResult:
    index: int  # plan index of the task; every pass's run of it shares the index
    stratum: str
    seconds: float
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def run_task(workload, task, tracer: Tracer, index: int, replay: bool = False) -> TaskResult:
    """Prepare (untimed), run (timed), check (untimed) and optionally replay one task.

    Any exception from the library or from the check counts as a failed task;
    the loop goes on, because one bad task must not hide the rest of the run.
    """
    tracer.task = index
    t0 = t1 = time.perf_counter()
    try:
        run = workload.prepare(task, tracer)
        with tracer.span(f"task.{task.stratum}"):
            t0 = time.perf_counter()
            out = run()
            t1 = time.perf_counter()
        errors = workload.check(task, out)
        if replay:
            with tracer.span("replay"):
                workload.replay(task, out, tracer)
    except Exception:  # boundary: record and keep measuring the batch
        errors = ["raised: " + traceback.format_exc(limit=3).strip().replace("\n", " | ")]
    finally:
        tracer.task = None
    return TaskResult(index, task.stratum, t1 - t0, errors)


def tail_rank(n: int) -> tuple[int, float]:
    """(0-based index into ascending times, percentile) of the tail statistic.

    It is the highest percentile with at least TAIL_BEYOND tasks beyond it,
    i.e. the (TAIL_BEYOND+1)-th largest time; None-like (-1) below that size.
    """
    if n <= TAIL_BEYOND:
        return -1, float("nan")
    return n - TAIL_BEYOND - 1, math.floor(1000.0 * (n - TAIL_BEYOND) / n) / 10.0


def time_stats(results: list[TaskResult]) -> dict:
    """Batch statistics over the plain run times: their sum (the batch's time
    to solution), their median and their tail.

    Every run counts with its own time.  On a shared host the speed of the
    same work drifts by up to 2x over seconds to minutes; counting each run
    with its task's fastest run instead was tried and spread twice as much
    from run to run, because a run then reads fast whenever one brief fast
    stretch falls in it.
    """
    times = sorted(r.seconds for r in results)
    idx, pct = tail_rank(len(times))
    return {
        "tail_percentile": pct,
        "tasks": len(times),
        "distinct_tasks": len({r.index for r in results}),
        "solve_s": sum(times),
        "p50": statistics.median(times),
        "tail": times[idx] if idx >= 0 else times[-1],
    }


def pass_order(n: int, seed: int) -> list[int]:
    """The seeded order in which every pass runs the batch's n tasks.

    Every pass uses the same order, so the runs of one task lie a whole pass
    apart and a slow stretch of the host rarely covers all of them.
    """
    import numpy as np  # imported only after bootstrap() pinned the thread variables

    return [int(i) for i in np.random.default_rng([seed, 0]).permutation(n)]


def cpu_probe_ms() -> float:
    """Median time of a fixed pure-Python loop, in ms.

    Other tenants of a shared host slow every task of a run together; taken at
    the start and end of a run, this shows such a slow phase in the record.
    """
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l2_bytes() -> int | None:
    try:
        val = os.sysconf("SC_LEVEL2_CACHE_SIZE")
        if val > 0:
            return val
    except (ValueError, OSError, AttributeError):
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index2/size") as fh:
            text = fh.read().strip()
        mult = {"K": 1 << 10, "M": 1 << 20}.get(text[-1], 1)
        return int(text.rstrip("KM")) * mult
    except (OSError, ValueError):
        return None


def fingerprint(seed: int | None) -> dict:
    import numpy as np  # imported only after bootstrap() pinned the thread variables

    nmant = int(np.finfo(np.longdouble).nmant)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "l2_bytes": _l2_bytes(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "longdouble_nmant": nmant,
        "longdouble_not_x87": nmant != 63,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }
