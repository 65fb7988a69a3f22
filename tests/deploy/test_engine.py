"""Integer engine: end-to-end consistency with the fake-quant simulation.

Exact end-to-end bitwise equality is measure-unstable for a cascaded
dynamically-quantized network: the engine's integer accumulation differs
from the fake-quant float matmul only by summation order (~1e-16), but a
downstream dynamic quantizer whose scale ratio lands exactly on a rounding
tie can flip one integer step (quantized activations live on a lattice, so
exact ties do occur). The guaranteed invariants, asserted here, are:

- single layers are bit-consistent given identical inputs (see also
  ``tests/integration/test_quant_deployment.py``),
- end-to-end outputs agree except at isolated tie flips (median error at
  float noise level), and
- predictions/accuracy match the fake-quant PTQ path.
"""

import numpy as np
import pytest

from repro.deploy import IntegerEngine, build_integer_model, load_artifact, save_artifact
from repro.models.bert import MiniBERT, MiniBERTConfig
from repro.models.resnet import MiniResNet
from repro.quant import PTQConfig, QuantizedLayer, quantize_model
from repro.tensor.tensor import Tensor, no_grad

TINY_BERT = MiniBERTConfig(
    name="minibert-test",
    vocab_size=16,
    max_seq_len=12,
    d_model=32,
    num_layers=2,
    num_heads=2,
    d_ff=48,
    dropout=0.0,
)


def _assert_matches_simulation(y_int: np.ndarray, y_fake: np.ndarray):
    scale = np.abs(y_fake).max() + 1e-12
    err = np.abs(y_int - y_fake) / scale
    # Bulk of the outputs at float-noise level; isolated tie flips allowed.
    assert np.median(err) < 1e-9
    assert (err < 1e-9).mean() > 0.9
    match = (y_int.argmax(-1) == y_fake.argmax(-1)).mean()
    assert match >= 0.95, f"only {match:.0%} of predictions agree"


@pytest.fixture
def resnet_pair(rng, tmp_path):
    model = MiniResNet(num_classes=10, width=1, depth=1, seed=0)
    model.eval()
    calib = rng.standard_normal((8, 3, 16, 16))
    config = PTQConfig.vs_quant(4, 8, weight_scale="4", act_scale="6")
    qmodel = quantize_model(model, config, calib_batches=[(calib,)])
    out = tmp_path / "artifact"
    save_artifact(qmodel, out, quant_label=config.label, task="image")
    return qmodel, out


class TestResNetEngine:
    def test_matches_fake_quant_simulation(self, rng, resnet_pair):
        qmodel, out = resnet_pair
        engine = IntegerEngine.load(out)
        x = rng.standard_normal((16, 3, 16, 16))
        with no_grad():
            y_fake = qmodel(Tensor(x)).data
        _assert_matches_simulation(engine(x), y_fake)

    def test_accuracy_matches_fake_quant_path(self, rng, resnet_pair):
        qmodel, out = resnet_pair
        engine = IntegerEngine.load(out)
        x = rng.standard_normal((64, 3, 16, 16))
        labels = rng.integers(0, 10, 64)
        with no_grad():
            acc_fake = 100.0 * (qmodel(Tensor(x)).data.argmax(-1) == labels).mean()
        acc_int = 100.0 * (engine(x).argmax(-1) == labels).mean()
        assert abs(acc_int - acc_fake) <= 3.2  # <= 2 flipped samples of 64

    def test_swapped_layer_types(self, resnet_pair):
        _, out = resnet_pair
        engine = IntegerEngine.load(out, backend="integer")
        kinds = {
            m.kind
            for _, m in engine.model.named_modules()
            if isinstance(m, QuantizedLayer) and m.backend.startswith("integer")
        }
        assert {"conv2d", "linear"} <= kinds

    def test_float32_precision_mode(self, rng, resnet_pair):
        qmodel, out = resnet_pair
        e64 = IntegerEngine.load(out)
        e32 = IntegerEngine.load(out, precision="float32")
        x = rng.standard_normal((16, 3, 16, 16))
        y64, y32 = e64(x), e32(x)
        # Same integer pipeline, float32 glue: close + predictions agree.
        assert np.median(np.abs(y32 - y64) / (np.abs(y64).max() + 1e-12)) < 1e-5
        assert (y32.argmax(-1) == y64.argmax(-1)).mean() >= 0.9

    def test_float32_fused_path_clips_unsigned_codes(self, rng, tmp_path):
        """Regression: unsigned activations fed negative data must clip to 0.

        The fused NCHW serving path skipped clipping once; with an
        unsigned act format (auto-detected from non-negative calibration)
        and negative serving inputs, negative codes leaked through and
        corrupted outputs silently.
        """
        model = MiniResNet(num_classes=4, width=1, depth=1, seed=0)
        model.eval()
        calib = np.abs(rng.standard_normal((8, 3, 16, 16)))  # unsigned detection
        config = PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4")
        qmodel = quantize_model(model, config, calib_batches=[(calib,)])
        out = tmp_path / "unsigned-artifact"
        save_artifact(qmodel, out, task="image")
        x = rng.standard_normal((8, 3, 16, 16))  # serving data has negatives
        y64 = IntegerEngine.load(out)(x)
        y32 = IntegerEngine.load(out, precision="float32")(x)
        scale = np.abs(y64).max() + 1e-12
        assert np.median(np.abs(y32 - y64) / scale) < 1e-5

    def test_per_sample_scale_is_batch_invariant(self, rng, resnet_pair):
        _, out = resnet_pair
        engine = IntegerEngine.load(out, per_sample_scale=True)
        x = rng.standard_normal((6, 3, 16, 16))
        full = engine(x)
        solo = np.concatenate([engine(x[i : i + 1]) for i in range(6)])
        np.testing.assert_allclose(solo, full, rtol=1e-6, atol=1e-9)

    def test_scale_product_rounding_knob(self, rng, resnet_pair):
        _, out = resnet_pair
        exact = IntegerEngine.load(out)
        rounded = IntegerEngine.load(out, scale_product_bits=4)
        x = rng.standard_normal((4, 3, 16, 16))
        assert not np.allclose(exact(x), rounded(x))

    def test_invalid_precision_rejected(self, resnet_pair):
        _, out = resnet_pair
        with pytest.raises(ValueError, match="precision"):
            IntegerEngine.load(out, precision="float16")

    @pytest.mark.parametrize(
        ("precision", "expected"), [("float32", np.float32), ("float64", np.float64)]
    )
    def test_raw_input_coercion_honors_precision(self, rng, resnet_pair, precision, expected):
        """Regression: non-Tensor payloads were forced to float64 regardless
        of the engine's serving precision — a float32 engine round-tripped
        every request through a float64 copy. The coercion must land
        directly on the configured dtype."""
        from repro.quant.backends import get_backend

        _, out = resnet_pair
        engine = IntegerEngine.load(out, precision=precision)
        layer = next(
            m
            for _, m in engine.model.named_modules()
            if isinstance(m, QuantizedLayer) and m.kind == "conv2d"
        )
        backend = get_backend(layer.backend)
        for payload in (
            rng.standard_normal((2, 3, 16, 16)),  # float64 ndarray
            rng.standard_normal((2, 3, 16, 16)).astype(np.float32),
            rng.standard_normal((2, 3, 16, 16)).tolist(),  # plain lists
        ):
            assert backend._input_array(layer, payload).dtype == expected


class TestBERTEngine:
    def test_matches_fake_quant_simulation(self, rng, tmp_path):
        model = MiniBERT(TINY_BERT, seed=0)
        model.eval()
        tokens = rng.integers(0, TINY_BERT.vocab_size, (8, TINY_BERT.max_seq_len))
        mask = np.ones_like(tokens, dtype=bool)
        config = PTQConfig.vs_quant(4, 8, weight_scale="4", act_scale="6")
        qmodel = quantize_model(
            model,
            config,
            calib_batches=[(tokens, mask)],
            forward=lambda m, b: m(b[0], mask=b[1]),
        )
        out = tmp_path / "bert-artifact"
        save_artifact(qmodel, out, quant_label=config.label, task="qa")
        engine = IntegerEngine.load(out)
        with no_grad():
            y_fake = qmodel(tokens, mask=mask).data
        _assert_matches_simulation(engine(tokens, mask=mask), y_fake)
        # The rebuilt topology keeps the model's task API (span decoding).
        ps, pe = engine.model.predict_spans(Tensor(engine(tokens, mask=mask)), mask)
        assert (pe >= ps).all()


def _module_output_dtypes(engine, *args, **kwargs) -> dict[str, set[str]]:
    """Run one forward and collect every module's output dtype by class
    (plus each attention operand's, as ``operand:<name>``)."""
    seen: dict[str, set[str]] = {}

    def record(key, fn):
        def wrapped(*a, **kw):
            out = fn(*a, **kw)
            seen.setdefault(key, set()).add(str(out.dtype))
            return out
        return wrapped

    modules = [m for _, m in engine.model.named_modules()]
    for m in modules:
        object.__setattr__(m, "forward", record(type(m).__name__, m.forward))
        if hasattr(m, "operand_quantizers"):
            hook = m._operand
            object.__setattr__(
                m, "_operand",
                lambda name, value, hook=hook: record(f"operand:{name}", hook)(name, value),
            )
    try:
        engine(*args, **kwargs)
    finally:
        for m in modules:
            m.__dict__.pop("forward", None)
            m.__dict__.pop("_operand", None)
    return seen


class TestFloat32Glue:
    """``precision="float32"`` keeps every module output float32: Python
    scalars in the glue take the tensor's dtype, and the attention mask
    bias is built in the scores' dtype. float64 engines stay float64."""

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("scale_product_bits", [None, 6])
    def test_resnet_modules_keep_the_engine_dtype(
        self, rng, resnet_pair, precision, scale_product_bits
    ):
        """Scale-product rounding runs the unfolded integer path, whose
        convolutions must honor the engine precision too. Compiled convs
        apply their BatchNorm in the kernel, so no BatchNorm2d module runs
        there; its output is the QuantizedLayer's."""
        _, out = resnet_pair
        engine = IntegerEngine.load(
            out, precision=precision, per_sample_scale=True,
            scale_product_bits=scale_product_bits,
        )
        x = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
        seen = _module_output_dtypes(engine, x)
        fused = any(
            isinstance(m, QuantizedLayer) and m.fuses_output_pass
            for _, m in engine.model.named_modules()
        )
        assert {"BasicBlock", "QuantizedLayer"} <= set(seen)
        assert ("BatchNorm2d" in seen) != fused
        assert set().union(*seen.values()) == {precision}

    @pytest.mark.parametrize("batch", [4, 16])
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_full_bert_modules_keep_the_engine_dtype(self, rng, tmp_path, precision, batch):
        model = MiniBERT(TINY_BERT, seed=0)
        model.eval()
        tokens = rng.integers(0, TINY_BERT.vocab_size, (batch, TINY_BERT.max_seq_len))
        lengths = np.resize([12, 5, 9, 7], batch)
        mask = np.arange(TINY_BERT.max_seq_len)[None, :] < lengths[:, None]
        config = PTQConfig.vs_quant(
            4, 4, weight_scale="4", act_scale="4", embeddings=True, attention=True
        )
        qmodel = quantize_model(
            model, config, calib_batches=[(tokens, mask)],
            forward=lambda m, b: m(b[0], mask=b[1]),
        )
        save_artifact(qmodel, tmp_path / "bert", task="qa")
        engine = IntegerEngine.load(
            tmp_path / "bert", precision=precision, per_sample_scale=True
        )
        seen = _module_output_dtypes(engine, tokens, mask=mask)
        assert {"LayerNorm", "QuantMultiHeadAttention"} <= set(seen)
        # B >= 16 runs the chunked attention core, which calls the
        # operand quantizers directly rather than through the hook.
        assert ("operand:probs" in seen) == (batch < 16)
        assert set().union(*seen.values()) == {precision}


class TestTopologyGuards:
    def test_unknown_layer_name_rejected(self, resnet_pair, tmp_path):
        import json

        _, out = resnet_pair
        manifest = json.loads((out / "manifest.json").read_text())
        old = manifest["layers"][0]["name"]
        manifest["layers"][0]["name"] = "not.a.layer"
        next(e for e in manifest["plan"] if e["name"] == old)["name"] = "not.a.layer"
        (out / "manifest.json").write_text(json.dumps(manifest))
        artifact = load_artifact(out, verify=False)
        from repro.deploy import ArtifactError

        with pytest.raises(ArtifactError, match="not found in rebuilt topology"):
            build_integer_model(artifact)

    def test_arch_drift_rejected(self, resnet_pair):
        import json

        _, out = resnet_pair
        manifest = json.loads((out / "manifest.json").read_text())

        def first_batchnorm(node):
            if node.get("class", "").endswith("BatchNorm2d"):
                return node
            for child in node.get("children", {}).values():
                found = first_batchnorm(child)
                if found is not None:
                    return found
            return None

        # The recorded topology drifts from the stored float tensors.
        bn = first_batchnorm(manifest["model"]["structure"])
        bn["params"]["weight"]["shape"] = [2 * bn["params"]["weight"]["shape"][0]]
        (out / "manifest.json").write_text(json.dumps(manifest))
        artifact = load_artifact(out, verify=False)
        from repro.deploy import ArtifactError

        with pytest.raises(ArtifactError, match="shape mismatch"):
            build_integer_model(artifact)
