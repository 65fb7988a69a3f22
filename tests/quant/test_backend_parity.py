"""Cross-backend parity matrix: fakequant vs integer vs compiled.

The acceptance invariant of the unified stack: one shared
:class:`QuantizedLayer` implementation, three execution backends, and —
over MiniResNet and MiniBERT at the paper's W4/A4-S4/S4 flagship format
and at W8/A8 — the guarantees:

- ``compiled`` (fused C kernels, :mod:`repro.compile`) is **bitwise
  identical** to ``integer`` across the same matrix, in both float64 and
  float32 serving precision, per-tensor and per-sample scales (skipped
  where the host has no C toolchain),
- the integer backends match the fakequant simulation at float-noise
  level with matching predictions (exact ties aside, see
  ``tests/deploy/test_engine.py``),
- the per-sample-scale serving mode stays batch-invariant on every
  integer backend.
"""

import numpy as np
import pytest

from repro.compile import compiler_available
from repro.deploy import IntegerEngine, save_artifact
from repro.models.bert import MiniBERT, MiniBERTConfig
from repro.models.resnet import MiniResNet
from repro.quant import PTQConfig, quant_layers, quantize_model
from repro.tensor.tensor import Tensor, no_grad

TINY_BERT = MiniBERTConfig(
    name="minibert-parity",
    vocab_size=16,
    max_seq_len=12,
    d_model=32,
    num_layers=2,
    num_heads=2,
    d_ff=48,
    dropout=0.0,
)

#: The parity grid: the paper's flagship W4/A4 S4/S4 plus an 8-bit point.
CONFIGS = {
    "w4a4-s4s4": PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4"),
    "w8a8-s4s6": PTQConfig.vs_quant(8, 8, weight_scale="4", act_scale="6"),
}


def _set_backend_everywhere(model, name, **runtime):
    for _, layer in quant_layers(model):
        layer.set_backend(name, **runtime)


def _assert_close_predictions(y_ref, y_got):
    scale = np.abs(y_ref).max() + 1e-12
    err = np.abs(y_got - y_ref) / scale
    assert np.median(err) < 1e-9
    assert (err < 1e-9).mean() > 0.9
    assert (y_got.argmax(-1) == y_ref.argmax(-1)).mean() >= 0.95


@pytest.fixture(params=sorted(CONFIGS))
def resnet_case(request, rng, tmp_path):
    config = CONFIGS[request.param]
    model = MiniResNet(num_classes=8, width=1, depth=1, seed=0)
    model.eval()
    calib = rng.standard_normal((8, 3, 16, 16))
    qmodel = quantize_model(model, config, calib_batches=[(calib,)])
    out = tmp_path / f"resnet-{request.param}"
    save_artifact(qmodel, out, task="image")
    x = rng.standard_normal((8, 3, 16, 16))
    return qmodel, out, x


@pytest.fixture(params=sorted(CONFIGS))
def bert_case(request, rng, tmp_path):
    config = CONFIGS[request.param]
    model = MiniBERT(TINY_BERT, seed=0)
    model.eval()
    tokens = rng.integers(0, TINY_BERT.vocab_size, (6, TINY_BERT.max_seq_len))
    mask = np.ones_like(tokens, dtype=bool)
    qmodel = quantize_model(
        model,
        config,
        calib_batches=[(tokens, mask)],
        forward=lambda m, b: m(b[0], mask=b[1]),
    )
    out = tmp_path / f"bert-{request.param}"
    save_artifact(qmodel, out, task="qa")
    return qmodel, out, (tokens, mask)


class TestResNetMatrix:
    def test_integer_matches_fakequant(self, resnet_case):
        qmodel, out, x = resnet_case
        with no_grad():
            y_fake = qmodel(Tensor(x)).data
        _assert_close_predictions(y_fake, IntegerEngine.load(out)(x))

    def test_per_sample_scale_batch_invariant(self, resnet_case):
        _, out, x = resnet_case
        engine = IntegerEngine.load(out, per_sample_scale=True)
        _set_backend_everywhere(engine.model, "integer")
        full = engine(x)
        solo = np.concatenate([engine(x[i : i + 1]) for i in range(len(x))])
        np.testing.assert_allclose(solo, full, rtol=1e-6, atol=1e-9)

    def test_runtime_backend_switch_without_artifact(self, resnet_case):
        """A fake-quant model flips to integer execution in place."""
        qmodel, _, x = resnet_case
        with no_grad():
            y_fake = qmodel(Tensor(x)).data
        _set_backend_everywhere(qmodel, "integer")
        with no_grad():
            y_int = qmodel(Tensor(x)).data
        _assert_close_predictions(y_fake, y_int)
        # and back again, bit-for-bit the original simulation
        _set_backend_everywhere(qmodel, "fakequant")
        with no_grad():
            np.testing.assert_array_equal(qmodel(Tensor(x)).data, y_fake)


class TestBERTMatrix:
    def test_integer_matches_fakequant(self, bert_case):
        qmodel, out, (tokens, mask) = bert_case
        with no_grad():
            y_fake = qmodel(tokens, mask=mask).data
        _assert_close_predictions(y_fake, IntegerEngine.load(out)(tokens, mask=mask))

    def test_per_sample_scale_batch_invariant(self, bert_case):
        _, out, (tokens, mask) = bert_case
        engine = IntegerEngine.load(out, per_sample_scale=True)
        full = engine(tokens, mask=mask)
        solo = np.concatenate(
            [engine(tokens[i : i + 1], mask=mask[i : i + 1]) for i in range(len(tokens))]
        )
        np.testing.assert_allclose(solo, full, rtol=1e-6, atol=1e-9)


@pytest.mark.skipif(
    not compiler_available(), reason="no working C compiler on this host"
)
class TestCompiledMatrix:
    """The tentpole acceptance matrix: compiled == integer, bitwise.

    Both models x both configs (via the fixtures) x both serving
    precisions x per-tensor/per-sample scales. The engine is loaded with
    ``backend="compiled"`` — the production path — then flipped to
    ``integer`` in place so both runs share the exact same artifact,
    weights, and glue layers.
    """

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("per_sample", [False, True])
    def test_resnet_compiled_equals_integer_bitwise(
        self, resnet_case, precision, per_sample
    ):
        _, out, x = resnet_case
        engine = IntegerEngine.load(
            out, precision=precision, per_sample_scale=per_sample,
            backend="compiled",
        )
        assert {layer.backend for _, layer in quant_layers(engine.model)} == {
            "compiled"
        }
        y_c = engine(x)
        _set_backend_everywhere(engine.model, "integer")
        y_int = engine(x)
        assert y_c.dtype == y_int.dtype
        np.testing.assert_array_equal(y_c, y_int)

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("per_sample", [False, True])
    def test_bert_compiled_equals_integer_bitwise(
        self, bert_case, precision, per_sample
    ):
        _, out, (tokens, mask) = bert_case
        engine = IntegerEngine.load(
            out, precision=precision, per_sample_scale=per_sample,
            backend="compiled",
        )
        y_c = engine(tokens, mask=mask)
        _set_backend_everywhere(engine.model, "integer")
        y_int = engine(tokens, mask=mask)
        assert y_c.dtype == y_int.dtype
        np.testing.assert_array_equal(y_c, y_int)

    def test_compiled_per_sample_batch_invariant(self, resnet_case):
        _, out, x = resnet_case
        engine = IntegerEngine.load(
            out, per_sample_scale=True, backend="compiled"
        )
        full = engine(x)
        solo = np.concatenate([engine(x[i : i + 1]) for i in range(len(x))])
        np.testing.assert_allclose(solo, full, rtol=1e-6, atol=1e-9)


class TestFullyQuantizedBERT:
    """Embedding tables + attention matmuls ride the same plan/backends."""

    def test_full_coverage_round_trip(self, rng, tmp_path):
        model = MiniBERT(TINY_BERT, seed=0)
        model.eval()
        tokens = rng.integers(0, TINY_BERT.vocab_size, (4, TINY_BERT.max_seq_len))
        mask = np.ones_like(tokens, dtype=bool)
        config = PTQConfig.vs_quant(
            4, 8, weight_scale="4", act_scale="6", embeddings=True, attention=True
        )
        qmodel = quantize_model(
            model,
            config,
            calib_batches=[(tokens, mask)],
            forward=lambda m, b: m(b[0], mask=b[1]),
        )
        kinds = {layer.kind for _, layer in quant_layers(qmodel)}
        assert kinds == {"linear", "embedding"}
        out = tmp_path / "full-bert"
        save_artifact(qmodel, out, task="qa")
        engine = IntegerEngine.load(out)
        with no_grad():
            y_fake = qmodel(tokens, mask=mask).data
        _assert_close_predictions(y_fake, engine(tokens, mask=mask))

    def test_attention_per_sample_scale_batch_invariant(self, rng, tmp_path):
        """Regression: attention operand quantizers once kept whole-batch
        gammas in per-sample mode, so a request's logits depended on its
        co-batched neighbors."""
        model = MiniBERT(TINY_BERT, seed=0)
        model.eval()
        tokens = rng.integers(0, TINY_BERT.vocab_size, (6, TINY_BERT.max_seq_len))
        mask = np.ones_like(tokens, dtype=bool)
        config = PTQConfig.vs_quant(
            4, 8, weight_scale="4", act_scale="6", embeddings=True, attention=True
        )
        qmodel = quantize_model(
            model,
            config,
            calib_batches=[(tokens, mask)],
            forward=lambda m, b: m(b[0], mask=b[1]),
        )
        out = tmp_path / "attn-bert"
        save_artifact(qmodel, out, task="qa")
        engine = IntegerEngine.load(out, per_sample_scale=True)
        full = engine(tokens, mask=mask)
        solo = np.concatenate(
            [engine(tokens[i : i + 1], mask=mask[i : i + 1]) for i in range(len(tokens))]
        )
        np.testing.assert_allclose(solo, full, rtol=1e-6, atol=1e-9)

    def test_embedding_backends_bitwise_equal(self, rng):
        from repro import nn
        from repro.quant.plan import get_handler

        config = PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4")
        emb = nn.Embedding(12, 32, rng=rng)
        handler = get_handler("embedding")
        q = handler.build(emb, handler.plan("emb", emb, config))
        idx = rng.integers(0, 12, (5, 7))
        with no_grad():
            y_fake = q(idx).data
        q.set_backend("integer")
        with no_grad():
            y_int = q(idx).data
        np.testing.assert_array_equal(y_fake, y_int)
