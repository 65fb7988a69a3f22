"""Sample-parallel execution: one batch split across every CPU.

A serving layer whose output sample ``b`` depends only on input sample
``b`` — a quantized GEMM with per-sample scales, eval BatchNorm,
LayerNorm, GELU, softmax over a non-batch axis — can run over disjoint
sample ranges and write each into its slice of one preallocated output.
:func:`split_samples` does that with the calling thread plus one
persistent helper thread per extra CPU in the affinity mask; numpy and
ctypes release the GIL, so the ranges really run in parallel. Because
every sample goes through the same code on the same data, the result is
bitwise equal to the serial call.

Rules:

- the caller runs the first range itself. Any range no helper has
  started by the time the caller finishes its own, the caller runs too,
  so callers sharing the pool (gateway replicas, threads of one server)
  never wait behind each other's queued work;
- a batch splits only when every worker gets at least ``_MIN_SAMPLES``
  samples (below that, thread handoff costs more than it saves);
- the pool belongs to one process: a forked child starts with no pool
  and builds its own on first use.
"""

from __future__ import annotations

import os
import queue
import threading
from typing import Callable

import numpy as np

# The smallest range worth a thread. B-sweep on a 2-vCPU host (zoo
# MiniResNet and MiniBERT-base, splitting at every B): the split loses
# up to 2x at B <= 8 and wins from B = 16 on (docs/performance.md).
_MIN_SAMPLES = 8

#: The smallest batch that splits (two ranges of ``_MIN_SAMPLES``),
#: whatever the CPU count.
SPLIT_FLOOR = 2 * _MIN_SAMPLES

# Worker count override for tests; ``None`` follows the CPU affinity mask.
_WORKERS: int | None = None


class _Range:
    """One sample range, run by whichever thread claims it first."""

    __slots__ = ("fn", "lo", "hi", "error", "_claim", "_done")

    def __init__(self, fn: Callable[[int, int], None], lo: int, hi: int):
        self.fn, self.lo, self.hi = fn, lo, hi
        self.error: BaseException | None = None
        self._claim = threading.Lock()
        self._done = threading.Event()

    def claim(self) -> bool:
        """Take the range; ``False`` if another thread already has it."""
        return self._claim.acquire(blocking=False)

    def run(self) -> None:
        try:
            self.fn(self.lo, self.hi)
        except BaseException as exc:  # re-raised in the splitting thread
            self.error = exc
        finally:
            self._done.set()

    def finish(self) -> None:
        """Run the range here unless a helper already has it, then wait."""
        if self.claim():
            self.run()
        else:
            self._done.wait()


def _serve(ranges: queue.SimpleQueue) -> None:
    while (task := ranges.get()) is not None:
        if task.claim():
            task.run()


_lock = threading.Lock()
_pool: tuple[int, queue.SimpleQueue] | None = None  # (helper count, their queue)


def _reset_after_fork() -> None:
    # The parent's helper threads do not exist in a forked child, and the
    # lock may have been held by one of them at fork time.
    global _lock, _pool
    _lock = threading.Lock()
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def _workers() -> int:
    """How many threads (caller included) a large batch splits across."""
    if _WORKERS is not None:
        return _WORKERS
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parts(n: int) -> int:
    if n < SPLIT_FLOOR:
        return 1  # the small-batch serving path skips the affinity syscall
    return min(_workers(), n // _MIN_SAMPLES)


def _helpers(count: int) -> queue.SimpleQueue:
    """The queue ``count`` persistent daemon helper threads serve."""
    global _pool
    pool = _pool
    if pool is None or pool[0] != count:
        with _lock:
            pool = _pool
            if pool is None or pool[0] != count:
                if pool is not None:  # resized: retire the old helpers
                    for _ in range(pool[0]):
                        pool[1].put(None)
                pool = _pool = (count, queue.SimpleQueue())
                for i in range(count):
                    threading.Thread(
                        target=_serve, args=(pool[1],), name=f"repro-samples-{i}", daemon=True
                    ).start()
    return pool[1]


def split_samples(fn: Callable[[int, int], None], n: int) -> None:
    """Run ``fn(lo, hi)`` over contiguous ranges covering ``[0, n)``.

    ``fn`` must write only its own range's samples. Returns once every
    range has run; the first range's exception, if any, is then
    re-raised here.
    """
    parts = _parts(n)
    if parts <= 1:
        fn(0, n)
        return
    bounds = [n * i // parts for i in range(parts + 1)]
    ranges = [_Range(fn, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    helpers = _helpers(_workers() - 1)
    for task in ranges[1:]:
        helpers.put(task)
    for task in ranges:  # the caller's own range, then any no helper took
        task.finish()
    for task in ranges:
        if task.error is not None:
            raise task.error


def map_samples(fn: Callable[..., np.ndarray], x: np.ndarray) -> np.ndarray:
    """``fn(x)``, computed by :func:`split_samples` over ranges of axis 0.

    ``fn(xs, out=None)`` must treat each sample (row of axis 0)
    independently, return an array of ``xs``'s shape and store it into
    ``out`` when given. The output dtype comes from ``fn`` on an empty
    slice, so it is exactly what the serial call returns. Only a
    C-contiguous ``x`` splits: numpy then returns a C-contiguous result
    too, so the layout later ops see (and the order their reductions
    run in) does not change either.
    """
    if x.ndim == 0 or not x.flags.c_contiguous or _parts(len(x)) <= 1:
        return fn(x)
    out = np.empty(x.shape, dtype=fn(x[:0]).dtype)
    split_samples(lambda lo, hi: fn(x[lo:hi], out=out[lo:hi]), len(x))
    return out
