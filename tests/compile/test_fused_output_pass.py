"""The compiled conv kernel's output pass: bitwise equal to the numpy glue.

:func:`repro.nn.conv_bn` hands a compiled conv holding a kernel plan the
eval BatchNorm affine, the optional residual and ReLU, and the kernel
applies them to each sample's outputs (``renderer._output_pass``). Every
check here compares bit patterns (``.view(uint32/uint64)``), not ``==``,
against the numpy ``integer`` backend, which runs the generic
``relu(bn(conv(x)) + residual)``:

- whole MiniResNet engines (identity-skip and projection blocks, random
  BatchNorm statistics) in float32 and float64, per-sample scales on and
  off, B in {1, 8, 17, 64}, 1-3 sample workers;
- single layers with a negative BatchNorm scale that yields ``-0.0`` and
  a NaN in the residual;
- every fallback (a dtype mismatch, a non-contiguous residual, a
  training-mode BatchNorm, an input the kernel does not model, a layer
  with no conv plan) runs the generic path, BatchNorm forward included;
- the perfbench-shaped MiniResNet calls no ``BatchNorm2d.forward`` at
  all under ``compiled``, so a silent fallback cannot hide a lost gain.
"""

import numpy as np
import pytest

from repro import nn
from repro.compile import compiler_available
from repro.deploy import IntegerEngine, save_artifact
from repro.models.resnet import BasicBlock, MiniResNet
from repro.quant import PTQConfig, quant_layers, quantize_model
from repro.tensor import ops
from repro.tensor.tensor import Tensor, no_grad
from repro.utils import parallel
from repro.utils.dtypes import compute_dtype

pytestmark = pytest.mark.skipif(
    not compiler_available(), reason="no working C compiler on this host"
)

CONFIG = PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4")


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(_bits(got), _bits(want))


def _randomize_bn(model: nn.Module, rng: np.random.Generator) -> None:
    """BatchNorm statistics far from the identity, negative scales too,
    so a fused multiply-add or a swapped rounding step would show."""
    for _, m in model.named_modules():
        if isinstance(m, nn.BatchNorm2d):
            c = m.num_features
            m.weight.data = rng.standard_normal(c) * 3.0
            m.bias.data = rng.standard_normal(c) * 5.0
            m.set_buffer("running_mean", rng.standard_normal(c))
            m.set_buffer("running_var", rng.uniform(0.05, 3.0, c))


class _BNCalls:
    """Counts ``BatchNorm2d.forward`` calls (the generic path's BN)."""

    def __init__(self, monkeypatch):
        self.count = 0
        forward = nn.BatchNorm2d.forward

        def spy(bn, x):
            self.count += 1
            return forward(bn, x)

        monkeypatch.setattr(nn.BatchNorm2d, "forward", spy)


@pytest.fixture
def bn_calls(monkeypatch):
    return _BNCalls(monkeypatch)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """A MiniResNet with one identity-skip and two projection blocks."""
    rng = np.random.default_rng(11)
    model = MiniResNet(num_classes=4, width=1, depth=1, seed=0)
    _randomize_bn(model, rng)
    model.eval()
    blocks = [m for _, m in model.named_modules() if isinstance(m, BasicBlock)]
    assert [b.proj is None for b in blocks] == [True, False, False]
    q = quantize_model(model, CONFIG, calib_batches=[(rng.standard_normal((8, 3, 16, 16)),)])
    path = tmp_path_factory.mktemp("fused") / "resnet"
    save_artifact(q, path, task="image")
    return path


@pytest.fixture(scope="module")
def engines(artifact):
    """``engines(backend, precision, per_sample)``: loaded once each."""
    loaded: dict = {}

    def get(backend: str, precision: str, per_sample: bool) -> IntegerEngine:
        key = (backend, precision, per_sample)
        if key not in loaded:
            loaded[key] = IntegerEngine.load(
                artifact, per_sample_scale=per_sample, precision=precision, backend=backend
            )
        return loaded[key]

    return get


# ----------------------------------------------------------------------
# whole engines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("batch", [1, 8, 17, 64])
@pytest.mark.parametrize("per_sample", [False, True])
@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_engine_matches_integer_bitwise(
    engines, monkeypatch, bn_calls, precision, per_sample, batch, workers
):
    monkeypatch.setattr(parallel, "_WORKERS", workers)
    compiled = engines("compiled", precision, per_sample)
    reference = engines("integer", precision, per_sample)
    x = np.random.default_rng(batch).standard_normal((batch, 3, 16, 16))
    x = x.astype(precision)
    y = compiled(x)
    assert bn_calls.count == 0  # every BatchNorm ran inside a conv kernel
    y_ref = reference(x)
    assert bn_calls.count == 9
    _assert_same_bits(y, y_ref)


def test_perfbench_shaped_resnet_calls_no_batchnorm(tmp_path, bn_calls):
    """The benchmark's MiniResNet (width 1, depth 2, 32x32, float32 glue,
    per-sample scales) under ``compiled``: all 15 conv -> BatchNorm
    pairs take the fused output pass."""
    rng = np.random.default_rng(0)
    model = MiniResNet(num_classes=10, width=1, depth=2, seed=0)
    model.eval()
    q = quantize_model(model, CONFIG, calib_batches=[(rng.standard_normal((4, 3, 32, 32)),)])
    save_artifact(q, tmp_path / "m", task="image", input_shape=(3, 32, 32))
    engine = IntegerEngine.load(
        tmp_path / "m", per_sample_scale=True, precision="float32", backend="compiled"
    )
    x = rng.standard_normal((16, 3, 32, 32)).astype(np.float32)
    bn_calls.count = 0  # calibration ran the float model
    y = engine(x)
    assert bn_calls.count == 0
    reference = IntegerEngine.load(
        tmp_path / "m", per_sample_scale=True, precision="float32", backend="integer"
    )
    _assert_same_bits(y, reference(x))
    assert bn_calls.count == 15


# ----------------------------------------------------------------------
# single layers: signed zeros, NaN, fallbacks
# ----------------------------------------------------------------------
def _pair(engines, precision: str, per_sample: bool, block: int, conv: str, bn: str):
    """The same conv and BatchNorm in a compiled and an integer engine."""
    out = []
    for backend in ("compiled", "integer"):
        model = engines(backend, precision, per_sample).model
        b = model.blocks[block]
        out.append((getattr(b, conv), getattr(b, bn)))
    return out


def _signed_zero_bn(bn: nn.BatchNorm2d) -> None:
    """Negative scales on half the channels and a ``-0.0`` shift there:
    an all-zero conv output becomes ``0.0 * -s + -0.0 == -0.0``."""
    c = bn.num_features
    dtype = bn.weight.data.dtype
    weight = np.abs(bn.weight.data) + 0.5
    weight[::2] *= -1
    bn.weight.data = weight.astype(dtype)
    bn.bias.data = np.full(c, -0.0, dtype=dtype)
    bn.set_buffer("running_mean", np.full(c, -0.0, dtype=dtype))


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("with_residual", [False, True])
@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_signed_zero_and_nan(engines, bn_calls, precision, with_residual, relu):
    (conv_c, bn_c), (conv_i, bn_i) = _pair(engines, precision, True, 0, "conv2", "bn2")
    saved = [(bn, bn.weight.data, bn.bias.data, bn.running_mean) for bn in (bn_c, bn_i)]
    try:
        for bn in (bn_c, bn_i):
            _signed_zero_bn(bn)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((17, 16, 16, 16)).astype(precision)
        x[0] = 0.0  # every conv output of sample 0 is +0.0
        residual = None
        if with_residual:
            residual = rng.standard_normal((17, 16, 16, 16)).astype(precision)
            residual[0] = -0.0
            residual[1, 3, 4, :5] = np.nan
            residual[2, 0] = -np.nan
        with no_grad():
            y = nn.conv_bn(conv_c, bn_c, Tensor(x), residual=residual, relu=relu).data
            assert bn_calls.count == 0
            y_ref = nn.conv_bn(conv_i, bn_i, Tensor(x), residual=residual, relu=relu).data
        _assert_same_bits(y, y_ref)
        negative_zero = (y == 0) & np.signbit(y)
        if relu:
            assert not negative_zero.any()
        else:
            assert negative_zero[0, ::2].all()
        if with_residual:
            assert np.isnan(y[1, 3, 4, :5]).all() and np.isnan(y[2, 0]).all()
    finally:
        for bn, weight, bias, mean in saved:
            bn.weight.data, bn.bias.data = weight, bias
            bn.set_buffer("running_mean", mean)


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_projection_output_pass_without_relu(engines, bn_calls, precision):
    """A projection skip: BatchNorm only, no residual, no ReLU, stride 2."""
    (conv_c, bn_c), (conv_i, bn_i) = _pair(engines, precision, True, 1, "proj", "proj_bn")
    x = np.random.default_rng(4).standard_normal((9, 16, 16, 16)).astype(precision)
    with no_grad():
        y = nn.conv_bn(conv_c, bn_c, Tensor(x)).data
        assert bn_calls.count == 0
        _assert_same_bits(y, bn_i(conv_i(Tensor(x))).data)


def _fallback_case(engines, bn_calls, x, residual, precision="float32"):
    """Run ``conv_bn`` on the compiled layer; it must take the generic
    path (one BatchNorm forward) and equal the integer layer bitwise."""
    (conv_c, bn_c), (conv_i, bn_i) = _pair(engines, precision, True, 0, "conv2", "bn2")
    assert conv_c.fuses_output_pass
    with no_grad():
        y = nn.conv_bn(conv_c, bn_c, Tensor(x), residual=residual, relu=True).data
        assert bn_calls.count == 1
        ref = ops.relu(bn_i(conv_i(Tensor(x))) + residual).data
    _assert_same_bits(y, ref)


def test_fallback_residual_dtype_mismatch(engines, bn_calls):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 16, 16, 16)).astype(np.float32)
    residual = rng.standard_normal((4, 16, 16, 16))  # float64 into a float32 engine
    _fallback_case(engines, bn_calls, x, residual)


def test_fallback_batchnorm_dtype_mismatch(engines, bn_calls):
    (_, bn_c), (_, bn_i) = _pair(engines, "float32", True, 0, "conv2", "bn2")
    saved = [(bn, bn.weight.data) for bn in (bn_c, bn_i)]
    try:
        for bn in (bn_c, bn_i):
            bn.weight.data = bn.weight.data.astype(np.float64)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 16, 16, 16)).astype(np.float32)
        residual = rng.standard_normal((4, 16, 16, 16)).astype(np.float32)
        _fallback_case(engines, bn_calls, x, residual)
    finally:
        for bn, weight in saved:
            bn.weight.data = weight


def test_fallback_non_contiguous_residual(engines, bn_calls):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 16, 16, 16)).astype(np.float32)
    residual = np.asfortranarray(rng.standard_normal((4, 16, 16, 16)).astype(np.float32))
    assert not residual.flags.c_contiguous
    _fallback_case(engines, bn_calls, x, residual)


def test_fallback_input_the_kernel_does_not_model(engines, bn_calls):
    """A float64 engine keeps a float16 input, which has no conv kernel:
    the numpy conv runs and the output pass follows it."""
    rng = np.random.default_rng(8)
    x = rng.standard_normal((4, 16, 16, 16)).astype(np.float16)
    residual = rng.standard_normal((4, 16, 16, 16))
    _fallback_case(engines, bn_calls, x, residual, precision="float64")


def test_fallback_training_mode_batchnorm(engines, bn_calls):
    """A training-mode BatchNorm normalizes with batch statistics (and
    updates its running ones): never fused, even under ``no_grad``."""
    (conv_c, bn_c), (conv_i, bn_i) = _pair(engines, "float32", True, 0, "conv2", "bn2")
    saved = [(bn, bn.running_mean, bn.running_var) for bn in (bn_c, bn_i)]
    try:
        bn_c.train()
        bn_i.train()
        x = np.random.default_rng(9).standard_normal((4, 16, 16, 16)).astype(np.float32)
        with no_grad():
            y = nn.conv_bn(conv_c, bn_c, Tensor(x), relu=True).data
            assert bn_calls.count == 1
            ref = ops.relu(bn_i(conv_i(Tensor(x)))).data
        _assert_same_bits(y, ref)
        _assert_same_bits(bn_c.running_mean, bn_i.running_mean)
    finally:
        for bn, mean, var in saved:
            bn.eval()
            bn.set_buffer("running_mean", mean)
            bn.set_buffer("running_var", var)


def test_fallback_layer_without_conv_plan(bn_calls):
    """Float32 weight gammas (a forced compute-dtype policy) leave the
    compiled layer without a conv plan: it runs numpy and never fuses."""
    rng = np.random.default_rng(10)
    conv = nn.Conv2d(8, 12, 3, padding=1, bias=False, rng=rng)
    bn = nn.BatchNorm2d(12)
    _randomize_bn(bn, rng)
    bn.eval()
    x = Tensor(rng.standard_normal((3, 8, 6, 6)))
    with compute_dtype("float32"):
        q = quantize_model(
            nn.Sequential(conv).eval(), CONFIG,
            calib_batches=[(rng.standard_normal((2, 8, 6, 6)),)],
        )
        (_, layer), = quant_layers(q)
        layer.set_backend("compiled", per_sample_scale=True)
        assert layer.backend == "compiled" and not layer.fuses_output_pass
        with no_grad():
            y = nn.conv_bn(layer, bn, x, relu=True).data
            assert bn_calls.count == 1
            layer.set_backend("integer", per_sample_scale=True)
            ref = ops.relu(bn(layer(x))).data
    _assert_same_bits(y, ref)


def test_grad_mode_never_fuses(engines, bn_calls):
    """With autograd on, ``conv_bn`` keeps today's graph: BatchNorm runs."""
    (conv_c, bn_c), (conv_i, bn_i) = _pair(engines, "float64", True, 0, "conv2", "bn2")
    x = Tensor(np.random.default_rng(12).standard_normal((2, 16, 16, 16)))
    y = nn.conv_bn(conv_c, bn_c, x, relu=True).data
    assert bn_calls.count == 1
    _assert_same_bits(y, ops.relu(bn_i(conv_i(x))).data)
