"""Compiled kernels on non-finite inputs: the same NaNs as ``integer``.

numpy's ``max`` carries a NaN into the vector's scale and the sample's
(or, per tensor, the batch's) coarse scale gamma, and from there into
every output of that sample. The rendered prologue propagates it the
same way, and its clamps keep the integer fold defined, so the NaN
reaches the outputs through gamma in the epilogue. An infinity gives
an infinite gamma and the same all-NaN sample in both backends.

Each case puts one non-finite value into sample 1 of a 3-sample input
(the linear case is MiniBERT's first Linear, ``(3, 48, 64)``): linear,
conv and the attention-operand quantizer, per-sample gammas on and off,
float32 and float64. The NaN masks must be equal and every other output
bitwise equal.
"""

import numpy as np
import pytest

from repro import nn
from repro.compile import compiler_available
from repro.compile.backend import CompiledQuantizer
from repro.quant import PTQConfig, quant_layers, quantize_model
from repro.quant.granularity import Granularity
from repro.quant.quantizer import Quantizer, QuantSpec, ScaleFormat, ScaleKind
from repro.tensor.tensor import Tensor, no_grad

pytestmark = [
    pytest.mark.skipif(not compiler_available(), reason="no working C compiler on this host"),
    pytest.mark.parametrize("dtype", [np.float32, np.float64]),
    pytest.mark.parametrize("per_sample", [True, False]),
    pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf]),
]

CONFIG = PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4")


def _assert_same_nans(got, want, per_sample):
    nan = np.isnan(want)
    # Sample 1 holds the bad value: all of it (all of the batch per
    # tensor) is NaN, and nothing else is.
    assert nan[1].all()
    assert not nan[[0, 2]].any() if per_sample else nan.all()
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan], want[~nan])


def _layer_outputs(layer, x, rng, per_sample):
    qmodel = quantize_model(
        nn.Sequential(layer).eval(), CONFIG,
        calib_batches=[(rng.standard_normal(x.shape),)],
    )
    out_dtype = np.float32 if x.dtype == np.float32 else None
    outputs = []
    for backend in ("compiled", "integer"):
        for _, q in quant_layers(qmodel):
            q.set_backend(backend, per_sample_scale=per_sample, out_dtype=out_dtype)
        with no_grad(), np.errstate(invalid="ignore"):
            outputs.append(qmodel(Tensor(x)).data)
    return outputs


def test_linear(rng, dtype, per_sample, bad):
    x = rng.standard_normal((3, 48, 64)).astype(dtype)
    x[1, 5, 7] = bad
    got, want = _layer_outputs(nn.Linear(64, 64, rng=rng), x, rng, per_sample)
    _assert_same_nans(got, want, per_sample)


def test_conv(rng, dtype, per_sample, bad):
    x = rng.standard_normal((3, 6, 11, 11)).astype(dtype)
    x[1, 2, 3, 4] = bad
    conv = nn.Conv2d(6, 9, kernel_size=3, stride=2, padding=1, rng=rng)
    got, want = _layer_outputs(conv, x, rng, per_sample)
    _assert_same_nans(got, want, per_sample)


@pytest.mark.parametrize("axis", [-1, -2])
def test_operand_quantizer(rng, dtype, per_sample, bad, axis):
    spec = QuantSpec(
        bits=4, granularity=Granularity.PER_VECTOR, vector_size=16, vector_axis=axis,
        channel_axes=(0,) if per_sample else (), scale=ScaleFormat(ScaleKind.INT, 4),
    )
    x = rng.standard_normal((3, 4, 20, 24)).astype(dtype)
    x[1, 2, 5, 7] = bad
    with np.errstate(invalid="ignore"):
        want = Quantizer(spec)._fake_quant_array(x)
    got = CompiledQuantizer(spec)._fake_quant_array(x)
    _assert_same_nans(got, want, per_sample)
