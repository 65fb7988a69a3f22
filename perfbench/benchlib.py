"""Repro-independent helpers of the performance benchmark.

- nearest-rank percentiles and the "ten samples beyond" rule that decides
  whether a sample supports a tail percentile;
- :class:`SelfTimeLedger`, which turns nested, wrapped calls into
  per-category self times that add back up to the outermost calls;
- the load drivers: an open loop (seeded arrival times, at most
  ``connections`` requests in flight, every request timed from when it
  was due) and a closed loop (``callers`` threads, each sending its next
  request when the previous one returns).

Nothing here imports ``repro``, and every timing helper takes an
injectable clock, so ``test_perfbench.py`` drives them on fake clocks.
"""

from __future__ import annotations

import bisect
import ctypes
import math
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

#: A tail percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def _rank(n: int, p: float) -> int:
    # round() guards against 99 * 1000 / 100 landing a hair above 990.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above their nearest-rank ``p``-th percentile."""
    if n <= 0:
        return 0
    return n - _rank(n, p)


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile: the sorted value at rank ceil(p/100 * n)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(len(ordered), p) - 1]


def tail_percentile(values, p: float, min_beyond: int = MIN_BEYOND) -> float:
    """:func:`percentile`, refusing a tail the sample is too small to support."""
    beyond = samples_beyond(len(values), p)
    if beyond < min_beyond:
        raise ValueError(
            f"p{p:g} of {len(values)} samples has {beyond} beyond it; "
            f"{min_beyond} are needed"
        )
    return percentile(values, p)


def supported_tail(values, min_beyond: int = MIN_BEYOND) -> tuple[float, float]:
    """``(p, value)``: the highest nearest-rank percentile ``min_beyond`` samples lie beyond."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(len(ordered) - min_beyond, 1)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# ----------------------------------------------------------------------
# self-time ledger
# ----------------------------------------------------------------------
class SelfTimeLedger:
    """Per-category self time of nested calls, with one call stack per thread.

    A call's self time is its duration minus the durations of the wrapped
    calls made inside it. Self times therefore add up to the duration of
    the outermost ("root") calls, which the ledger also records.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.self_s: dict[str, float] = defaultdict(float)
            self.calls: dict[str, int] = defaultdict(int)
            self.work: dict[str, int] = defaultdict(int)
            self.root_s = 0.0
            self.roots = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, category: str, fn: Callable, work: Callable[[], int] | None = None):
        """``fn`` timed under ``category``; ``work()`` is read after each call."""
        clock = self._clock

        def timed(*args, **kwargs):
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                done = work() if work is not None else 0
                with self._lock:
                    self.self_s[category] += duration - children[0]
                    self.calls[category] += 1
                    self.work[category] += done
                    if not stack:
                        self.root_s += duration
                        self.roots += 1

        return timed

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "work": dict(self.work),
                "root_s": self.root_s,
                "roots": self.roots,
            }


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Dispatch:
    """One open-loop request: clock readings in seconds."""

    index: int
    due: float
    start: float
    end: float
    ok: bool
    #: Arrivals already due but not yet sent when this one was sent.
    backlog: int


@dataclass
class OpenLoopReport:
    records: list[Dispatch]
    max_in_flight: int
    last_due: float

    def latencies_ms(self) -> list[float]:
        """Per-request latency, timed from when the request was due."""
        return [(r.end - r.due) * 1e3 for r in self.records]

    def lateness_ms(self) -> list[float]:
        return [(r.start - r.due) * 1e3 for r in self.records]

    @property
    def backlog_max(self) -> int:
        return max((r.backlog for r in self.records), default=0)

    @property
    def backlog_end(self) -> int:
        """Earlier arrivals still unsent when the last arrival fell due."""
        return sum(1 for r in self.records[:-1] if r.start > self.last_due)


def check_connections(connections: int, cap: int) -> None:
    if not 1 <= connections <= cap:
        raise ValueError(f"connections must be in [1, {cap}], got {connections}")


def run_open_loop(
    due_s: list[float],
    send: Callable[[int], bool],
    *,
    connections: int,
    cap: int,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> OpenLoopReport:
    """Send request ``i`` at ``due_s[i]`` seconds after the start.

    ``connections`` worker threads (at most ``cap``) take arrivals in
    order; a worker sleeps until its arrival is due, then calls
    ``send(i)``, which returns whether the reply was right. When every
    worker is busy, due arrivals wait: they are sent late, and their
    latency still counts from the due time.
    """
    check_connections(connections, cap)
    if any(b < a for a, b in zip(due_s, due_s[1:])):
        raise ValueError("arrival times must be sorted")
    t0 = clock()
    due = [t0 + d for d in due_s]
    records: list[Dispatch | None] = [None] * len(due)
    lock = threading.Lock()
    state = {"next": 0, "in_flight": 0, "max_in_flight": 0}

    def worker(_: int) -> None:
        while True:
            with lock:
                i = state["next"]
                if i >= len(due):
                    return
                state["next"] = i + 1
            wait = due[i] - clock()
            if wait > 0:
                sleep(wait)
            start = clock()
            with lock:
                # due by now, minus those some worker already took
                backlog = max(0, bisect.bisect_right(due, start) - state["next"])
                state["in_flight"] += 1
                state["max_in_flight"] = max(state["max_in_flight"], state["in_flight"])
            try:
                ok = bool(send(i))
            finally:
                with lock:
                    state["in_flight"] -= 1
            records[i] = Dispatch(i, due[i], start, clock(), ok, backlog)

    _run_threads(worker, connections)
    if any(r is None for r in records):
        raise RuntimeError("open loop ended with unsent arrivals")
    return OpenLoopReport(
        records=records,
        max_in_flight=state["max_in_flight"],
        last_due=due[-1] if due else t0,
    )


# ----------------------------------------------------------------------
# closed loop
# ----------------------------------------------------------------------
@dataclass
class ClosedLoopReport:
    #: label -> requests completed while that label was current
    completed: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: label -> seconds spent under that label
    elapsed_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    failed: int = 0
    attempted: int = 0
    #: (label, completed, seconds) of each phase, in order
    windows: list[tuple[str, int, float]] = field(default_factory=list)

    def median_throughput(self, label: str) -> float:
        """Median over the phases labelled ``label`` of completions per second."""
        return statistics.median(n / s for lab, n, s in self.windows if lab == label)


def run_closed_loop(
    send: Callable[[int, int, str], bool],
    *,
    callers: int,
    cap: int,
    phases: list[tuple[float, str]],
    on_phase: Callable[[str], None] = lambda label: None,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> ClosedLoopReport:
    """``callers`` threads call ``send(caller, k, label)`` back to back.

    ``phases`` is a list of ``(seconds, label)`` run in order; the main
    thread calls ``on_phase(label)`` as each one starts, and a request
    counts toward the label current when it completes.
    """
    check_connections(callers, cap)
    report = ClosedLoopReport()
    lock = threading.Lock()
    current = {"label": phases[0][1], "stop": False}

    def caller(c: int) -> None:
        k = 0
        while True:
            with lock:
                if current["stop"]:
                    return
                label = current["label"]
            ok = bool(send(c, k, label))
            k += 1
            with lock:
                report.attempted += 1
                if ok:
                    report.completed[current["label"]] += 1
                else:
                    report.failed += 1

    def controller() -> None:
        try:
            for seconds, label in phases:
                with lock:
                    current["label"] = label
                on_phase(label)
                with lock:
                    done0 = report.completed[label]
                start = clock()
                sleep(seconds)
                with lock:
                    elapsed = clock() - start
                    report.elapsed_s[label] += elapsed
                    report.windows.append((label, report.completed[label] - done0, elapsed))
        finally:
            with lock:
                current["stop"] = True

    _run_threads(caller, callers, controller=controller)
    return report


def _run_threads(target: Callable, count: int, controller: Callable | None = None) -> None:
    """Run ``count`` copies of ``target`` (given their index) to completion."""
    errors: list[BaseException] = []

    def guarded(*args) -> None:
        try:
            target(*args)
        except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(i,), daemon=True) for i in range(count)
    ]
    for t in threads:
        t.start()
    try:
        if controller is not None:
            controller()
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
