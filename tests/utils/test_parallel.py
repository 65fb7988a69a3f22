"""Sample-parallel execution (``repro.utils.parallel``) and its glue sites.

The helper's contract: ranges cover the batch exactly once, only batches
that give every worker ``_MIN_SAMPLES`` samples split, the caller runs
any range no helper started, errors surface in the caller, and a forked
child builds its own pool. Each glue site (eval BatchNorm, LayerNorm,
GELU, softmax) must return the serial op's result bit for bit — same
values, dtype and layout — with 2 or 3 workers. The comparison is
against the serial op directly: the benchmark's reference engine runs
the same glue code, so only a direct check can catch a glue-split bug.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro import nn
from repro.tensor import ops
from repro.tensor.tensor import Tensor, no_grad
from repro.utils import parallel
from repro.utils.parallel import map_samples, split_samples


def _force_workers(monkeypatch, count: int) -> None:
    monkeypatch.setattr(parallel, "_WORKERS", count)


def _no_pool(count):
    raise AssertionError("the helper pool must not be touched")


def _serial_and_split(monkeypatch, fn, workers: int):
    """``fn()`` with one worker, then with ``workers``."""
    _force_workers(monkeypatch, 1)
    serial = fn()
    _force_workers(monkeypatch, workers)
    return serial, fn()


def _assert_identical(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert a.flags.c_contiguous == b.flags.c_contiguous
    np.testing.assert_array_equal(a, b)


# ----------------------------------------------------------------------
# the helper
# ----------------------------------------------------------------------
class TestSplitSamples:
    @pytest.mark.parametrize(
        "workers, n, expected",
        [
            (2, 16, [(0, 8), (8, 16)]),
            (2, 17, [(0, 8), (8, 17)]),
            (3, 17, [(0, 8), (8, 17)]),  # a third worker would get < 8
            (3, 24, [(0, 8), (8, 16), (16, 24)]),
            (2, 64, [(0, 32), (32, 64)]),
        ],
    )
    def test_ranges_cover_the_batch_once(self, monkeypatch, workers, n, expected):
        _force_workers(monkeypatch, workers)
        seen = []
        lock = threading.Lock()

        def record(lo, hi):
            with lock:
                seen.append((lo, hi))

        split_samples(record, n)
        assert sorted(seen) == expected

    @pytest.mark.parametrize("n", [0, 1, 8, 15])
    def test_small_batches_never_touch_the_pool(self, monkeypatch, n):
        _force_workers(monkeypatch, 2)
        monkeypatch.setattr(parallel, "_helpers", _no_pool)
        seen = []
        split_samples(lambda lo, hi: seen.append((lo, hi)), n)
        assert seen == [(0, n)]
        x = np.ones((n, 4))
        _assert_identical(map_samples(lambda xs, out=None: np.add(xs, 1, out=out), x), x + 1)

    def test_default_worker_count_follows_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(parallel, "_WORKERS", None)
        if hasattr(os, "sched_getaffinity"):
            assert parallel._workers() == len(os.sched_getaffinity(0))
        else:  # pragma: no cover - platforms without affinity masks
            assert parallel._workers() == (os.cpu_count() or 1)

    def test_one_worker_never_touches_the_pool(self, monkeypatch):
        _force_workers(monkeypatch, 1)
        monkeypatch.setattr(parallel, "_helpers", _no_pool)
        seen = []
        split_samples(lambda lo, hi: seen.append((lo, hi)), 1024)
        assert seen == [(0, 1024)]

    def test_caller_runs_the_ranges_no_helper_started(self, monkeypatch):
        """A pool whose only helper is busy elsewhere: the caller runs
        every range itself instead of queueing behind that work."""
        _force_workers(monkeypatch, 2)
        release = threading.Event()
        busy = parallel._Range(lambda lo, hi: release.wait(), 0, 0)
        parallel._helpers(1).put(busy)
        try:
            threads = {}
            split_samples(
                lambda lo, hi: threads.setdefault((lo, hi), threading.get_ident()), 32
            )
            assert set(threads.values()) == {threading.get_ident()}
            assert sorted(threads) == [(0, 16), (16, 32)]
        finally:
            release.set()
            busy.finish()

    @pytest.mark.parametrize("failing", [0, 16])
    def test_errors_surface_after_every_range_ran(self, monkeypatch, failing):
        _force_workers(monkeypatch, 2)
        finished = []

        def work(lo, hi):
            if lo == failing:
                raise ValueError(f"range {lo}:{hi}")
            time.sleep(0.02)
            finished.append(lo)

        with pytest.raises(ValueError, match=f"range {failing}:"):
            split_samples(work, 32)
        assert finished == [16 - failing]  # no range still writing

    def test_resizing_retires_the_old_helpers(self, monkeypatch):
        def helpers():
            return sum(t.name.startswith("repro-samples") for t in threading.enumerate())

        for count in (2, 3, 2, 3):
            _force_workers(monkeypatch, count)
            split_samples(lambda lo, hi: None, 64)
        deadline = time.monotonic() + 5
        while helpers() > 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert helpers() == 2

    def test_pool_follows_the_worker_count(self, monkeypatch):
        _force_workers(monkeypatch, 3)
        helpers = set()
        lock = threading.Lock()
        barrier = threading.Barrier(3, timeout=10)

        def work(lo, hi):
            barrier.wait()  # all three ranges run at once: two helpers
            with lock:
                helpers.add(threading.get_ident())

        split_samples(work, 48)
        assert len(helpers) == 3

    def test_map_samples_keeps_dtype_and_skips_strided_inputs(self, monkeypatch):
        _force_workers(monkeypatch, 2)
        x = np.arange(64 * 6, dtype=np.float32).reshape(64, 6)
        fn = lambda xs, out=None: np.multiply(xs, np.float64(0.5), out=out)  # noqa: E731
        _assert_identical(map_samples(fn, x), fn(x))
        monkeypatch.setattr(parallel, "_helpers", _no_pool)
        strided = x.T.copy().T  # Fortran order: a C-contiguous output would change layout
        _assert_identical(map_samples(fn, strided), fn(strided))


# ----------------------------------------------------------------------
# glue sites
# ----------------------------------------------------------------------
BATCHES = [16, 17, 64]
WORKERS = [2, 3]
DTYPES = [np.float32, np.float64]


def _batchnorm(rng, dtype):
    bn = nn.BatchNorm2d(6)
    bn.set_buffer("running_mean", rng.standard_normal(6).astype(dtype))
    bn.set_buffer("running_var", rng.uniform(0.5, 2.0, 6).astype(dtype))
    bn.weight.data = rng.standard_normal(6).astype(dtype)
    bn.bias.data = rng.standard_normal(6).astype(dtype)
    bn.eval()
    return bn


def _layernorm(rng, dtype, features=12):
    ln = nn.LayerNorm(features)
    ln.weight.data = rng.standard_normal(features).astype(dtype)
    ln.bias.data = rng.standard_normal(features).astype(dtype)
    return ln


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("batch", BATCHES)
class TestGlueSplitsAreBitwiseSerial:
    def _check(self, monkeypatch, op, x, workers):
        splits = []
        real = parallel.split_samples
        monkeypatch.setattr(
            parallel, "split_samples", lambda fn, n: (splits.append(n), real(fn, n))
        )

        def run():
            with no_grad():
                return op(Tensor(x)).data

        serial, split = _serial_and_split(monkeypatch, run, workers)
        assert splits == [len(x)]  # the split run split; the serial one did not
        _assert_identical(split, serial)

    def test_batchnorm_eval(self, monkeypatch, rng, batch, workers, dtype):
        x = (rng.standard_normal((batch, 6, 5, 7)) * 3).astype(dtype)
        self._check(monkeypatch, _batchnorm(rng, dtype), x, workers)

    def test_layernorm(self, monkeypatch, rng, batch, workers, dtype):
        x = (rng.standard_normal((batch, 9, 12)) * 3 + 1).astype(dtype)
        self._check(monkeypatch, _layernorm(rng, dtype), x, workers)

    def test_gelu(self, monkeypatch, rng, batch, workers, dtype):
        x = (rng.standard_normal((batch, 9, 20)) * 4).astype(dtype)
        self._check(monkeypatch, ops.gelu, x, workers)

    @pytest.mark.parametrize("axis", [-1, 2])
    def test_softmax(self, monkeypatch, rng, batch, workers, dtype, axis):
        x = (rng.standard_normal((batch, 2, 9, 9)) * 5).astype(dtype)
        self._check(monkeypatch, lambda t: ops.softmax(t, axis=axis), x, workers)


class TestGlueSplitRules:
    def test_softmax_over_the_batch_axis_never_splits(self, monkeypatch, rng):
        _force_workers(monkeypatch, 2)
        monkeypatch.setattr(parallel, "_helpers", _no_pool)
        x = rng.standard_normal((64, 5))
        with no_grad():
            out = ops.softmax(Tensor(x), axis=0).data
        np.testing.assert_allclose(out.sum(axis=0), 1.0)

    def test_layernorm_of_one_vector_never_splits(self, monkeypatch, rng):
        _force_workers(monkeypatch, 2)
        monkeypatch.setattr(parallel, "_helpers", _no_pool)
        ln = _layernorm(rng, np.float64, features=64)
        x = rng.standard_normal(64)  # axis 0 is the normalized axis here
        with no_grad():
            out = ln(Tensor(x)).data
        _assert_identical(out, ln(Tensor(x)).data)

    def test_grad_mode_keeps_the_training_path(self, monkeypatch, rng):
        _force_workers(monkeypatch, 2)
        monkeypatch.setattr(parallel, "_helpers", _no_pool)
        x = Tensor(rng.standard_normal((32, 4, 12)), requires_grad=True)
        y = ops.gelu(nn.LayerNorm(12)(x))
        ops.softmax(y, axis=-1).sum().backward()
        assert x.grad is not None and x.grad.shape == x.shape

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_inference_forwards_equal_the_training_forwards(self, rng, dtype):
        """The no-grad GELU (no derivative), LayerNorm (mean and
        ``x - mean`` computed once), softmax and eval BatchNorm return
        the grad path's bits."""
        x = (rng.standard_normal((4, 6, 2, 12)) * 3).astype(dtype)
        sites = (ops.gelu, _layernorm(rng, dtype), ops.softmax, _batchnorm(rng, dtype))
        for op in sites:
            with no_grad():
                fast = op(Tensor(x)).data
            _assert_identical(fast, op(Tensor(x)).data)
