"""Quantized layers match manual fake-quant computation."""

from dataclasses import replace

import numpy as np
import pytest

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


class TestSetBackendAllOrNothing:
    """A ``set_backend`` whose ``prepare`` raises leaves the layer as it was:
    same backend, same runtime knobs, bitwise the same outputs."""

    KNOBS = ("per_sample_scale", "scale_product_bits", "out_dtype")

    @staticmethod
    def _codes_only_layer(rng):
        """A linear layer holding integer codes and no float weights, as an
        artifact-loaded layer does, on ``integer`` with float32 outputs."""
        base = nn.Linear(40, 12, rng=rng)
        base.bias.data = rng.standard_normal(12)
        handler = get_handler("linear")
        config = PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4")
        built = handler.build(base, handler.plan("fc", base, config)).set_backend("integer")
        return QuantizedLayer(
            built.spec, bias=base.bias.data, weight_q=built.weight_q, backend="integer",
            per_sample_scale=True, out_dtype=np.float32,
        )

    def _assert_unchanged(self, layer, backend, knobs, x, y0):
        assert layer.backend == backend
        assert {k: getattr(layer, k) for k in self.KNOBS} == knobs
        with no_grad():
            y = layer(Tensor(x)).data
        assert y.dtype == y0.dtype
        np.testing.assert_array_equal(y, y0)

    def _switch_fails(self, layer, x, name, **runtime):
        from repro.quant.backends import QuantBackendError

        with no_grad():
            y0 = layer(Tensor(x)).data
        before, knobs = layer.backend, {k: getattr(layer, k) for k in self.KNOBS}
        with pytest.raises(QuantBackendError):
            layer.set_backend(name, **runtime)
        self._assert_unchanged(layer, before, knobs, x, y0)

    def test_fakequant_without_float_weights(self, rng):
        layer = self._codes_only_layer(rng)
        x = rng.standard_normal((3, 40)).astype(np.float32)
        self._switch_fails(
            layer, x, "fakequant", scale_product_bits=3, per_sample_scale=False,
            out_dtype=None,
        )

    def test_compiled_refuses_rounding(self, rng):
        from repro.compile import compiler_available

        if not compiler_available():
            pytest.skip("no working C compiler on this host")
        layer = self._codes_only_layer(rng).set_backend("compiled")
        x = rng.standard_normal((3, 40)).astype(np.float32)
        self._switch_fails(layer, x, "compiled", scale_product_bits=3)

    def test_prepare_that_fails_midway(self, rng, monkeypatch):
        """A ``prepare`` that rewrote derived state before raising: the
        previous backend is prepared again under the restored knobs."""
        from repro.quant import backends
        from repro.quant.backends import IntegerBackend, QuantBackendError

        class Broken(IntegerBackend):
            name = "broken"

            def prepare(self, layer):
                super().prepare(layer)
                raise QuantBackendError("fails after folding")

        monkeypatch.setitem(backends._BACKENDS, "broken", Broken())
        layer = self._codes_only_layer(rng)
        x = rng.standard_normal((17, 40)).astype(np.float32)
        self._switch_fails(layer, x, "broken", out_dtype=None, scale_product_bits=5)
