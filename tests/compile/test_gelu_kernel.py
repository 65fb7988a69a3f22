"""The compiled float32 GELU: ``repro_gelu`` parity with ``ops._gelu``.

:func:`~repro.compile.backend.gelu_kernel` must be **bitwise** equal to
the numpy ``ops._gelu`` it replaces (NaN compared as a class):

- **inputs**: a seeded 2^20 sample of float32 bit patterns, ±0,
  subnormals, ±inf, NaN, |x| in 3.9-6 where erf rounds to ±1, and
  lengths that are not a multiple of the vector width; for the 8-wide
  (AVX-512) and the 4-wide (AVX2) variant wherever the host builds them;
- the **engine**: a ``compiled`` float32 MiniBERT against ``integer`` at
  B = 1, 16 and 64, per-sample scales on and off;
- the **fallbacks**: float64, ``CC=/bin/false`` and a kernel that fails
  to compile or link all run the numpy path.

The exhaustive proof over all 2^32 float32 inputs runs when
``REPRO_GELU_EXHAUSTIVE=1`` is set (the nightly CI job).
"""

import os

import numpy as np
import pytest

from repro import nn
from repro.compile import compiler_available, reset_compiler_probe, reset_kernel_cache
from repro.compile import backend as backend_mod
from repro.compile.backend import CompiledGELU, gelu_kernel
from repro.compile.runtime import CompileError
from repro.deploy import IntegerEngine, save_artifact
from repro.models.bert import MiniBERT, MiniBERTConfig
from repro.quant import PTQConfig, quantize_model
from repro.tensor import ops
from repro.tensor.tensor import Tensor, no_grad

needs_cc = pytest.mark.skipif(
    not compiler_available(), reason="no working C compiler on this host"
)


def _variant(width):
    try:
        return gelu_kernel(width)
    except CompileError as exc:
        pytest.skip(f"the {width}-wide GELU kernel does not build here: "
                    f"{str(exc).splitlines()[-1][:200]}")


@pytest.fixture(params=[8, 4], ids=["avx512-8", "avx2-4"])
def kernel(request):
    if not compiler_available():
        pytest.skip("no working C compiler on this host")
    return _variant(request.param)


def _run(kernel, x):
    x = np.ascontiguousarray(x, dtype=np.float32)
    out = np.empty_like(x)
    assert kernel.fn(x.ctypes.data, out.ctypes.data, x.size) == 0
    return out


def _assert_bitwise(out, ref):
    nan = np.isnan(ref)
    np.testing.assert_array_equal(np.isnan(out), nan)
    np.testing.assert_array_equal(out.view(np.uint32)[~nan], ref.view(np.uint32)[~nan])


def _reference(x):
    with np.errstate(all="ignore"):
        return ops._gelu(x)


def _edge_cases():
    f32 = np.finfo(np.float32)
    subnormals = np.array([1, 2, 3, 0x1234, 0x7FFFFF], dtype=np.uint32).view(np.float32)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, f32.max, f32.tiny,
                        f32.smallest_subnormal], dtype=np.float32)
    near_one = np.linspace(3.9, 6.0, 4097, dtype=np.float32)
    x = np.concatenate([special, subnormals, near_one])
    return np.concatenate([x, -x])


class TestKernelParity:
    def test_random_bit_patterns(self, kernel):
        rng = np.random.default_rng(20)
        x = rng.integers(0, 2**32, 2**20, dtype=np.uint32).view(np.float32)
        _assert_bitwise(_run(kernel, x), _reference(x))

    def test_edge_cases(self, kernel):
        x = _edge_cases()
        _assert_bitwise(_run(kernel, x), _reference(x))

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 7, 8, 9, 15, 17, 1001])
    def test_tail_lengths(self, kernel, n):
        x = np.random.default_rng(n).standard_normal(n).astype(np.float32) * 4
        out = _run(kernel, x)
        assert out.shape == (n,)
        _assert_bitwise(out, _reference(x))

    def test_widths_report_themselves(self, kernel):
        assert kernel.variant.startswith(f"{kernel.width}-wide")


@needs_cc
@pytest.mark.skipif(os.environ.get("REPRO_GELU_EXHAUSTIVE") != "1",
                    reason="exhaustive 2^32 proof: set REPRO_GELU_EXHAUSTIVE=1 (nightly)")
def test_every_float32_input():
    """All 2^32 bit patterns, in 2^22-element chunks to bound memory."""
    k = gelu_kernel()
    chunk = 2**22
    for start in range(0, 2**32, chunk):
        x = np.arange(start, start + chunk, dtype=np.uint32).view(np.float32)
        _assert_bitwise(_run(k, x), _reference(x))


# ----------------------------------------------------------------------
# the module and its fallbacks
# ----------------------------------------------------------------------
def _module_vs_numpy(x):
    with no_grad():
        return CompiledGELU()(Tensor(x)).data, nn.GELU()(Tensor(x)).data


class TestCompiledGELU:
    @needs_cc
    def test_batched_input_splits_and_matches(self, monkeypatch):
        monkeypatch.setattr("repro.utils.parallel._WORKERS", 2)
        x = np.random.default_rng(0).standard_normal((64, 6, 40)).astype(np.float32)
        out, ref = _module_vs_numpy(x)
        assert CompiledGELU().kernel is not None
        assert out.dtype == np.float32
        _assert_bitwise(out, ref)

    @pytest.mark.parametrize("make", [
        lambda x: x.astype(np.float64),
        lambda x: x[:, ::2],
    ], ids=["float64", "non-contiguous"])
    def test_inputs_the_kernel_does_not_take_run_numpy(self, make, monkeypatch):
        x = make(np.random.default_rng(1).standard_normal((4, 8, 10)).astype(np.float32))
        monkeypatch.setattr(CompiledGELU, "_gelu", None)  # would fail if called
        out, ref = _module_vs_numpy(x)
        assert out.dtype == ref.dtype
        np.testing.assert_array_equal(out, ref)

    def test_grad_mode_runs_numpy_and_differentiates(self):
        x = Tensor(np.linspace(-3, 3, 12, dtype=np.float32), requires_grad=True)
        y = CompiledGELU()(x)
        y.sum().backward()
        assert x.grad is not None
        np.testing.assert_array_equal(y.data, ops._gelu(x.data))

    def test_no_compiler_runs_numpy(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CC", "/bin/false")
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        reset_compiler_probe()
        reset_kernel_cache()
        try:
            module = CompiledGELU()
            assert module.kernel is None
            x = np.random.default_rng(2).standard_normal((16, 9)).astype(np.float32)
            with no_grad():
                np.testing.assert_array_equal(module(Tensor(x)).data, ops._gelu(x))
        finally:
            reset_compiler_probe()
            reset_kernel_cache()

    @needs_cc
    @pytest.mark.parametrize("broken", ["compile", "link"])
    def test_failed_build_runs_numpy(self, monkeypatch, tmp_path, broken):
        """A kernel that does not compile, or links against a missing
        library (as on a C library without libmvec), leaves the module
        on numpy; the failure is memoized, not retried per module."""
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        reset_kernel_cache()
        cache = backend_mod.kernel_cache()
        attempts = []
        compile_ = cache._compile
        monkeypatch.setattr(cache, "_compile", lambda *a: attempts.append(a) or compile_(*a))
        if broken == "compile":
            monkeypatch.setattr(backend_mod, "render_gelu", lambda width=None: "not C\n")
        else:
            get = cache.get
            monkeypatch.setattr(
                cache, "get",
                lambda source, entry, libs: get(source, entry, libs=("repro_no_such_lib",)),
            )
        try:
            first, second = CompiledGELU(), CompiledGELU()
            assert first.kernel is None and second.kernel is None
            assert len(attempts) == 1 and cache.stats()["compiles"] == 0
            x = np.random.default_rng(3).standard_normal((16, 9)).astype(np.float32)
            with no_grad():
                np.testing.assert_array_equal(first(Tensor(x)).data, ops._gelu(x))
        finally:
            reset_kernel_cache()


# ----------------------------------------------------------------------
# engine level
# ----------------------------------------------------------------------
TINY_BERT = MiniBERTConfig(
    name="minibert-gelu", vocab_size=32, max_seq_len=10, d_model=32,
    num_heads=2, num_layers=2, d_ff=72,
)


@pytest.fixture(scope="module")
def bert_artifact(tmp_path_factory):
    rng = np.random.default_rng(7)
    model = MiniBERT(TINY_BERT, seed=0)
    model.eval()
    tokens = rng.integers(0, TINY_BERT.vocab_size, (8, TINY_BERT.max_seq_len))
    qmodel = quantize_model(
        model,
        PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4",
                           embeddings=True, attention=True),
        calib_batches=[(tokens, np.ones_like(tokens, dtype=bool))],
    )
    path = tmp_path_factory.mktemp("gelu") / "bert"
    save_artifact(qmodel, path, task="qa")
    return path


@needs_cc
@pytest.mark.parametrize("per_sample", [False, True])
def test_compiled_minibert_matches_integer(bert_artifact, per_sample):
    kwargs = dict(per_sample_scale=per_sample, precision="float32")
    engine = IntegerEngine.load(bert_artifact, backend="compiled", **kwargs)
    reference = IntegerEngine.load(bert_artifact, backend="integer", **kwargs)
    assert engine.backends["gelu"] == "compiled"
    assert reference.backends["gelu"] == "numpy"
    rng = np.random.default_rng(11)
    for batch in (1, 16, 64):
        tokens = rng.integers(0, TINY_BERT.vocab_size, (batch, TINY_BERT.max_seq_len))
        mask = np.arange(TINY_BERT.max_seq_len) < rng.integers(3, 11, (batch, 1))
        out, ref = engine(tokens, mask), reference(tokens, mask)
        assert out.dtype == ref.dtype == np.float32
        np.testing.assert_array_equal(out, ref)


@needs_cc
def test_float64_engine_keeps_numpy_gelu(bert_artifact):
    engine = IntegerEngine.load(bert_artifact, backend="compiled", precision="float64")
    assert engine.backends["gelu"] == "numpy"
    assert not any(isinstance(m, CompiledGELU) for _, m in engine.model.named_modules())
