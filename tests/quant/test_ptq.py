"""PTQ pipeline: layer swapping, calibration, signedness detection."""

import numpy as np
import pytest

from repro import nn
from repro.models import MiniResNet
from repro.quant import Granularity, PTQConfig, quantize_model
from repro.quant.qlayers import QuantizedLayer, quant_layers
from repro.tensor import Tensor
from repro.tensor.tensor import no_grad


def small_cnn(rng):
    return nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.Conv2d(8, 8, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Linear(8, 4, rng=rng),
    )


class TestConfigFactories:
    def test_per_channel_factory(self):
        cfg = PTQConfig.per_channel(4, 8, calibration="entropy")
        assert cfg.weight_granularity is Granularity.PER_CHANNEL
        assert cfg.act_granularity is Granularity.PER_TENSOR
        assert not cfg.act_dynamic
        assert cfg.act_calibration == "entropy"
        assert cfg.label == "4/8/-/-"

    def test_vs_quant_factory_pvaw(self):
        cfg = PTQConfig.vs_quant(4, 8, weight_scale="6", act_scale="10")
        assert cfg.weight_granularity is Granularity.PER_VECTOR
        assert cfg.act_granularity is Granularity.PER_VECTOR
        assert cfg.act_dynamic
        assert cfg.label == "4/8/6/10"

    def test_vs_quant_factory_pvwo(self):
        cfg = PTQConfig.vs_quant(4, 8, weight_scale="4", weights=True, activations=False)
        assert cfg.weight_granularity is Granularity.PER_VECTOR
        assert cfg.act_granularity is Granularity.PER_TENSOR
        assert cfg.label == "4/8/4/-"

    def test_vs_quant_fp_scales_label(self):
        cfg = PTQConfig.vs_quant(4, 4)
        assert cfg.label == "4/4/fp/fp"


class TestSwap:
    def test_all_layers_swapped(self, rng):
        model = small_cnn(rng)
        x = rng.standard_normal((2, 3, 8, 8))
        q = quantize_model(model, PTQConfig.per_channel(8, 8), calib_batches=[(x,)])
        layers = quant_layers(q)
        assert len(layers) == 3
        assert sorted(m.kind for _, m in layers) == ["conv2d", "conv2d", "linear"]

    def test_original_model_untouched(self, rng):
        model = small_cnn(rng)
        x = rng.standard_normal((2, 3, 8, 8))
        quantize_model(model, PTQConfig.per_channel(4, 4), calib_batches=[(x,)])
        assert not quant_layers(model)

    def test_skip_list_respected(self, rng):
        model = small_cnn(rng)
        x = rng.standard_normal((2, 3, 8, 8))
        import dataclasses

        cfg = dataclasses.replace(PTQConfig.per_channel(8, 8), skip=("layer0",))
        q = quantize_model(model, cfg, calib_batches=[(x,)])
        assert len(quant_layers(q)) == 2
        assert isinstance(q.layer0, nn.Conv2d) and not isinstance(q.layer0, QuantizedLayer)

    def test_nested_modules_swapped(self, rng):
        model = MiniResNet(depth=1)
        x = rng.standard_normal((1, 3, 32, 32))
        q = quantize_model(model, PTQConfig.per_channel(8, 8), calib_batches=[(x,)])
        # stem + 3 stages x (2 convs + maybe proj) + head
        assert len(quant_layers(q)) >= 8

    def test_model_without_quantizable_layers_rejected(self):
        with pytest.raises(ValueError):
            quantize_model(nn.Sequential(nn.ReLU()), PTQConfig.per_channel(8, 8))


class TestCalibration:
    def test_static_requires_calib_data(self, rng):
        model = small_cnn(rng)
        with pytest.raises(ValueError, match="calib_batches"):
            quantize_model(model, PTQConfig.per_channel(8, 8))

    def test_dynamic_works_without_calib_data(self, rng):
        model = small_cnn(rng)
        cfg = PTQConfig.vs_quant(8, 8, act_signed=True)
        q = quantize_model(model, cfg)
        x = rng.standard_normal((2, 3, 8, 8))
        with no_grad():
            out = q(Tensor(x))
        assert out.shape == (2, 4)

    def test_static_quantizers_calibrated_after_pass(self, rng):
        model = small_cnn(rng)
        x = rng.standard_normal((4, 3, 8, 8))
        q = quantize_model(model, PTQConfig.per_channel(8, 8), calib_batches=[(x,)])
        for _, layer in quant_layers(q):
            assert layer.input_quantizer.is_calibrated

    def test_signedness_autodetect(self, rng):
        model = small_cnn(rng)
        x = rng.standard_normal((4, 3, 8, 8))
        q = quantize_model(model, PTQConfig.per_channel(8, 8), calib_batches=[(x,)])
        layers = dict(quant_layers(q))
        # First conv sees signed input, post-ReLU layers see unsigned.
        assert layers["layer0"].input_quantizer.spec.signed
        assert not layers["layer2"].input_quantizer.spec.signed

    def test_forced_signedness_respected(self, rng):
        model = small_cnn(rng)
        x = rng.standard_normal((4, 3, 8, 8))
        cfg = PTQConfig.per_channel(8, 8, act_signed=True)
        q = quantize_model(model, cfg, calib_batches=[(x,)])
        for _, layer in quant_layers(q):
            assert layer.input_quantizer.spec.signed


class TestNumericalBehaviour:
    def test_8bit_close_to_float(self, rng):
        model = small_cnn(rng)
        model.eval()
        x = rng.standard_normal((4, 3, 8, 8))
        with no_grad():
            ref = model(Tensor(x)).data
        q = quantize_model(model, PTQConfig.per_channel(8, 8), calib_batches=[(x,)])
        with no_grad():
            out = q(Tensor(x)).data
        assert np.abs(out - ref).max() < 0.05 * np.abs(ref).max() + 1e-6

    def test_per_vector_beats_per_channel_at_3bit(self, rng):
        model = small_cnn(rng)
        model.eval()
        x = rng.standard_normal((4, 3, 8, 8))
        with no_grad():
            ref = model(Tensor(x)).data
        qc = quantize_model(model, PTQConfig.per_channel(3, 3), calib_batches=[(x,)])
        qv = quantize_model(model, PTQConfig.vs_quant(3, 3), calib_batches=[(x,)])
        with no_grad():
            err_c = np.abs(qc(Tensor(x)).data - ref).mean()
            err_v = np.abs(qv(Tensor(x)).data - ref).mean()
        assert err_v < err_c
