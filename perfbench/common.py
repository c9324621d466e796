"""Pieces shared by both pipelines: spans, statistics, environment, result line."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field


class MissingLayerCall(RuntimeError):
    """The traced replay needs a library function that no longer exists."""


def resolve(module: str, name: str):
    """Import `module` and return its attribute `name`, or name the missing call."""
    import importlib

    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        raise MissingLayerCall(f"{module}.{name}") from None


class _Span:
    __slots__ = ("tracer", "name", "start", "children")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.children = 0.0
        self.tracer._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        duration = time.perf_counter() - self.start
        tracer = self.tracer
        tracer._stack.pop()
        tracer.self_s[self.name] = tracer.self_s.get(self.name, 0.0) + duration - self.children
        if tracer._stack:
            tracer._stack[-1].children += duration
        return False


class Tracer:
    """Nested spans recorded around calls into the library.

    A span's self time is its duration minus the time of the spans opened
    inside it; self times are summed per span name in memory.
    """

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self._stack: list[_Span] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def layer_seconds(self, root: str) -> float:
        """Self time of every span except `root`, the benchmark's own glue."""
        return sum(seconds for name, seconds in self.self_s.items() if name != root)


@dataclass
class Outcome:
    """What one run attempted, what failed, and why."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, attempted: int, failed: int, problems=()):
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


#: A run always completes this many jobs, however long they take.
MIN_JOBS = 2


def keep_going(started: float, seconds: float, walls: list[float]) -> bool:
    """Closed loop: start another job while it is expected to end within
    `seconds` of `started`, judged by the median job so far."""
    if len(walls) < MIN_JOBS:
        return True
    return time.perf_counter() - started + median(walls) <= seconds


#: Seconds `speed_probe` takes on the reference box (2-core Xeon VM,
#: Python 3.11, numpy 2.4, OpenBLAS) in its faster state.
SPEED_PROBE_S = 0.005

_SPEED_PROBE_INPUTS = None


def speed_probe() -> float:
    """Seconds a fixed mix of work that uses no library code takes now.

    The host's speed changes within a second and drifts over minutes. The
    mix (string-keyed dict lookups, small FFTs and logs, many numpy calls
    on a short vector) slows with it. It has no BLAS call: a GEMM on two
    BLAS threads stalls whenever the host takes one core away, and made
    the probe track every workload's step times worse.
    """
    import numpy as np

    global _SPEED_PROBE_INPUTS
    if _SPEED_PROBE_INPUTS is None:
        rng = np.random.default_rng(0)
        table = {str(i): i for i in range(5000)}
        _SPEED_PROBE_INPUTS = (
            table,
            [str(i) for i in rng.integers(0, 5000, 16000)],
            rng.standard_normal((1024, 8)),
            rng.standard_normal(64),
        )
    table, tokens, series, vector = _SPEED_PROBE_INPUTS
    start = time.perf_counter()
    total = 0
    for token in tokens:
        total += table.get(token, -1)
    for _ in range(30):
        np.log(np.abs(np.fft.rfft(series, axis=0)) ** 2 + 1.0).mean(axis=0)
    for _ in range(400):
        (np.log(np.abs(vector) + 1.0) * 2.0).sum()
    return time.perf_counter() - start


class SpeedClock:
    """Cuts a job into segments at each `mark` and runs a `speed_probe` there.

    A segment's wall time leaves the probes out; its reference time is its
    wall time times SPEED_PROBE_S over the mean of the probes at its two
    ends, the segment's time at reference host speed.
    """

    def __init__(self):
        self._marks: list[tuple[float, float, float]] = []

    def mark(self) -> None:
        before = time.perf_counter()
        probe_s = speed_probe()
        self._marks.append((before, probe_s, time.perf_counter()))

    def segments(self) -> list[tuple[float, float]]:
        """(wall seconds, reference seconds) of each segment, in order."""
        out = []
        for (_, probe_a, after_a), (before_b, probe_b, _) in zip(self._marks, self._marks[1:]):
            wall = before_b - after_a
            out.append((wall, wall * 2.0 * SPEED_PROBE_S / (probe_a + probe_b)))
        return out


def report_jobs(walls: list[float], scaled: list[float], raw_seq_per_s: float, steps: int) -> None:
    """Print the run's sample counts and its unscaled figures."""
    print(f"jobs: {len(walls)}, steps timed: {steps}")
    print("job seconds: " + " ".join(f"{wall:.3f}" for wall in walls))
    print("host speed factor per job: " + " ".join(f"{s / w:.3f}" for w, s in zip(walls, scaled)))
    print(f"unscaled seq_per_s = {raw_seq_per_s:.6g} 1/s")


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Peak resident memory of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def monotonic() -> float:
    """A clock every process on the machine shares, for timing child processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _blas_threads() -> int | None:
    """Ask the OpenBLAS that numpy loaded for its thread count."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as stream:
            paths = {line.split()[-1] for line in stream if "openblas" in line and "/" in line}
    except OSError:
        return None
    names = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            function = getattr(library, name, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """Versions and hardware that results are to be compared across."""
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def emit(outcome: Outcome, metrics: dict[str, float], units: dict[str, str]) -> None:
    """Print each metric on its own line, then the result object as the last line."""
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    attempted, failed = outcome.attempted, outcome.failed
    if attempted == 0:
        attempted = failed = 1
        outcome.problems.append("nothing was attempted")
    print(f"error_rate = {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": failed == 0 and not outcome.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    sys.stdout.flush()
    print(json.dumps(result))
