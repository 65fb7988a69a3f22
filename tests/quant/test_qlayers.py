"""Quantized layers match manual fake-quant computation."""

from dataclasses import replace

import numpy as np

from repro import nn
from repro.quant import Granularity, PTQConfig, QuantizedLayer, QuantSpec
from repro.quant.plan import get_handler
from repro.quant.qlayers import quant_layers
from repro.tensor import Tensor
from repro.tensor.tensor import no_grad


def wq(bits=8):
    return QuantSpec(bits=bits, granularity=Granularity.PER_CHANNEL, channel_axes=(0,))


def aq(bits=8):
    return QuantSpec(bits=bits, granularity=Granularity.PER_TENSOR)


def quantize(module, weight=None, inputs=None):
    """The fake-quant layer the planner swaps in for ``module``."""
    handler = get_handler("conv2d" if isinstance(module, nn.Conv2d) else "linear")
    spec = handler.plan("", module, PTQConfig(8, 8))
    return handler.build(module, replace(spec, weight=weight, inputs=inputs))


class TestQuantLinear:
    def test_from_float_shares_parameters(self, rng):
        base = nn.Linear(8, 4, rng=rng)
        q = quantize(base, wq(), aq())
        assert q.weight is base.weight
        assert q.bias is base.bias

    def test_matches_manual_fake_quant(self, rng):
        base = nn.Linear(8, 4, rng=rng)
        q = quantize(base, wq(4), aq(4))
        x = rng.standard_normal((3, 8))
        with no_grad():
            out = q(Tensor(x)).data
        wq_arr = q.weight_quantizer(Tensor(base.weight.data)).data
        xq_arr = q.input_quantizer(Tensor(x)).data
        expected = xq_arr @ wq_arr.T + base.bias.data
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_none_quantizers_pass_through(self, rng):
        base = nn.Linear(6, 3, rng=rng)
        q = quantize(base)
        x = rng.standard_normal((2, 6))
        with no_grad():
            np.testing.assert_allclose(q(Tensor(x)).data, base(Tensor(x)).data)

    def test_mac_counting(self, rng):
        q = quantize(nn.Linear(8, 4, rng=rng))
        with no_grad():
            q(Tensor(rng.standard_normal((5, 8))))
        assert q.last_macs == 5 * 8 * 4
        assert q.last_output_shape == (5, 4)

    def test_batched_3d_macs(self, rng):
        q = quantize(nn.Linear(8, 4, rng=rng))
        with no_grad():
            q(Tensor(rng.standard_normal((2, 5, 8))))
        assert q.last_macs == 10 * 8 * 4


class TestQuantConv2d:
    def test_matches_manual_fake_quant(self, rng):
        base = nn.Conv2d(4, 2, 3, padding=1, rng=rng)
        q = quantize(base, wq(4), aq(4))
        x = rng.standard_normal((2, 4, 6, 6))
        with no_grad():
            out = q(Tensor(x)).data
        from repro.tensor import ops

        wq_arr = q.weight_quantizer(Tensor(base.weight.data)).data
        xq_arr = q.input_quantizer(Tensor(x)).data
        expected = ops.conv2d(
            Tensor(xq_arr), Tensor(wq_arr), Tensor(base.bias.data), stride=1, padding=1
        ).data
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_preserves_geometry(self, rng):
        base = nn.Conv2d(3, 5, 3, stride=2, padding=1, rng=rng)
        q = quantize(base)
        assert (q.stride, q.padding, q.kernel_size) == (2, 1, 3)

    def test_mac_counting(self, rng):
        base = nn.Conv2d(3, 4, 3, padding=1, rng=rng)
        q = quantize(base)
        with no_grad():
            q(Tensor(rng.standard_normal((2, 3, 8, 8))))
        assert q.last_macs == 2 * 4 * 8 * 8 * 3 * 9


class TestQuantLayersHelper:
    def test_finds_all_quant_layers(self, rng):
        model = nn.Sequential(
            quantize(nn.Conv2d(3, 4, 3, rng=rng)),
            nn.ReLU(),
            quantize(nn.Linear(4, 2, rng=rng)),
        )
        found = quant_layers(model)
        assert len(found) == 2
        assert all(type(m) is QuantizedLayer for _, m in found)
        assert [m.kind for _, m in found] == ["conv2d", "linear"]
