"""Compiled backend: parity with the integer backend + failure contracts.

Three tiers:

- **contract tests** (run everywhere, compiler or not): unknown-backend
  errors enumerate the registry, ``set_backend("compiled")`` without a
  toolchain raises clearly, and :func:`resolve_backend` degrades to
  ``integer`` with exactly one process-wide warning — for a
  loaded engine too;
- **directed parity** on bias'd Linears and on Conv2d geometries the
  conv kernel must cover (kernel size, stride, padding, tail vectors,
  output-channel tails, B=1, all-zero samples), plus engine-level
  MiniResNet/MiniBERT parity and cold-start compile counts;
- **hypothesis fuzz parity**: random shapes x 2-8 bit code/scale
  formats, per-sample and per-tensor, float32/float64 serving dtypes —
  compiled output must equal the numpy ``integer`` backend **bitwise**.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.compile import (
    ConvSpec,
    KernelSpec,
    compiler_available,
    kernel_cache_stats,
    reset_compiler_probe,
    render,
    render_conv,
    reset_kernel_cache,
)
from repro.deploy import IntegerEngine, save_artifact
from repro.models.bert import MiniBERT, MiniBERTConfig
from repro.models.resnet import MiniResNet
from repro.quant import PTQConfig, quant_layers, quantize_model
from repro.quant.backends import (
    QuantBackendError,
    backend_names,
    backend_probe,
    get_backend,
    resolve_backend,
)
from repro.tensor.tensor import Tensor, no_grad

needs_cc = pytest.mark.skipif(
    not compiler_available(), reason="no working C compiler on this host"
)


def _quantize(model, config, calib):
    model.eval()
    return quantize_model(model, config, calib_batches=[(calib,)])


def _outputs(qmodel, x, backend, **runtime):
    for _, layer in quant_layers(qmodel):
        layer.set_backend(backend, **runtime)
    with no_grad():
        return qmodel(Tensor(x)).data


def _engine_vs_integer(path, x, backend):
    """Serve ``x`` from ``path`` under ``backend``, then under ``integer``."""
    engine = IntegerEngine.load(path, precision="float32", backend=backend)
    backends = {layer.backend for _, layer in quant_layers(engine.model)}
    y = engine(x)
    for _, layer in quant_layers(engine.model):
        layer.set_backend("integer")
    return backends, y, engine(x)


def _random_biases(qmodel, rng, scale=3.0):
    """Give every quantized layer a large random bias (the float modules
    start at zero, which no rounding order can get wrong)."""
    for _, layer in quant_layers(qmodel):
        if layer.bias is not None:
            layer.bias.data = rng.standard_normal(layer.bias.data.shape) * scale


def _assert_bitwise(qmodel, x, **runtime):
    y_int = _outputs(qmodel, x, "integer", **runtime)
    y_c = _outputs(qmodel, x, "compiled", **runtime)
    assert y_c.dtype == y_int.dtype
    np.testing.assert_array_equal(y_c, y_int)


# ----------------------------------------------------------------------
# contract tests (no compiler required)
# ----------------------------------------------------------------------

class TestContracts:
    def test_compiled_is_registered(self):
        assert "compiled" in backend_names()
        probe = backend_probe("compiled")
        assert probe["available"] is compiler_available()

    def test_unknown_backend_lists_registry(self, rng):
        model = nn.Sequential(nn.Linear(8, 8, rng=rng))
        qmodel = _quantize(
            model,
            PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4"),
            rng.standard_normal((4, 8)),
        )
        (_, layer), = quant_layers(qmodel)
        with pytest.raises(QuantBackendError) as exc:
            layer.set_backend("does-not-exist")
        msg = str(exc.value)
        assert "unknown execution backend 'does-not-exist'" in msg
        for name in backend_names():
            assert name in msg  # the registry is enumerated for the user

    def test_set_backend_compiled_without_toolchain_raises(self, monkeypatch, rng):
        monkeypatch.setenv("CC", "/bin/false")
        reset_compiler_probe()
        try:
            model = nn.Sequential(nn.Linear(8, 8, rng=rng))
            qmodel = _quantize(
                model,
                PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4"),
                rng.standard_normal((4, 8)),
            )
            (_, layer), = quant_layers(qmodel)
            with pytest.raises(QuantBackendError, match="'compiled' is unavailable"):
                layer.set_backend("compiled")
        finally:
            reset_compiler_probe()

    def test_resolve_backend_warns_exactly_once(self, monkeypatch, caplog):
        from repro.quant import backends as backends_mod

        monkeypatch.setenv("CC", "/bin/false")
        reset_compiler_probe()
        monkeypatch.setattr(backends_mod, "_FALLBACK_WARNED", set())
        try:
            with caplog.at_level("WARNING", logger="repro.quant.backends"):
                assert resolve_backend("compiled") == "integer"
                assert resolve_backend("compiled") == "integer"
                assert resolve_backend("compiled") == "integer"
            warnings = [
                r for r in caplog.records
                if "falling back to 'integer'" in r.message
            ]
            assert len(warnings) == 1
            assert "'compiled' is unavailable" in warnings[0].message
        finally:
            reset_compiler_probe()

    def test_resolve_backend_unknown_names_raise(self):
        with pytest.raises(QuantBackendError, match="unknown execution backend"):
            resolve_backend("nope")

    def test_engine_without_toolchain_serves_integer(self, monkeypatch, rng, tmp_path):
        """backend='compiled' on a toolchain-less host serves what 'auto'
        serves, bit for bit equal to the integer reference."""
        model = MiniResNet(num_classes=4, width=1, depth=1, seed=0)
        model.eval()
        qmodel = _quantize(
            model,
            PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4"),
            rng.standard_normal((4, 3, 16, 16)),
        )
        save_artifact(qmodel, tmp_path / "m", task="image")
        x = rng.standard_normal((3, 3, 16, 16)).astype(np.float32)
        monkeypatch.setenv("CC", "/bin/false")
        reset_compiler_probe()
        try:
            backends, y, y_int = _engine_vs_integer(tmp_path / "m", x, "compiled")
        finally:
            reset_compiler_probe()
        assert backends == {"integer"}
        assert y.dtype == y_int.dtype
        np.testing.assert_array_equal(y, y_int)

    def test_auto_serves_compiled_when_the_probe_passes(self, rng, tmp_path):
        if not compiler_available():
            pytest.skip("no working C compiler on this host")
        qmodel = _quantize(
            nn.Sequential(nn.Linear(16, 8, rng=rng)),
            PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4"),
            rng.standard_normal((4, 16)),
        )
        save_artifact(qmodel, tmp_path / "m", task="image")
        engine = IntegerEngine.load(tmp_path / "m")
        assert engine.backends == {"compiled": 1}
        # scale-product rounding still forces the unfolded reference
        rounded = IntegerEngine.load(tmp_path / "m", scale_product_bits=6)
        assert rounded.backends == {"integer": 1}

    def test_auto_without_toolchain_serves_integer_silently(
        self, monkeypatch, rng, tmp_path, caplog
    ):
        from repro.quant import backends as backends_mod

        qmodel = _quantize(
            nn.Sequential(nn.Linear(16, 8, rng=rng)),
            PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4"),
            rng.standard_normal((4, 16)),
        )
        save_artifact(qmodel, tmp_path / "m", task="image")
        monkeypatch.setenv("CC", "/bin/false")
        reset_compiler_probe()
        monkeypatch.setattr(backends_mod, "_FALLBACK_WARNED", set())
        try:
            with caplog.at_level("DEBUG", logger="repro"):
                engine = IntegerEngine.load(tmp_path / "m")
                engine(rng.standard_normal((2, 16)))
        finally:
            reset_compiler_probe()
        assert engine.backends == {"integer": 1}
        assert [r for r in caplog.records if r.name.startswith("repro.quant")] == []

    def test_auto_without_toolchain_serves_convs_on_numpy_silently(
        self, monkeypatch, rng, tmp_path, caplog
    ):
        from repro.quant import backends as backends_mod

        model = MiniResNet(num_classes=4, width=1, depth=1, seed=0)
        model.eval()
        qmodel = _quantize(
            model,
            PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4"),
            rng.standard_normal((4, 3, 16, 16)),
        )
        save_artifact(qmodel, tmp_path / "m", task="image")
        x = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
        monkeypatch.setenv("CC", "/bin/false")
        reset_compiler_probe()
        monkeypatch.setattr(backends_mod, "_FALLBACK_WARNED", set())
        try:
            with caplog.at_level("DEBUG", logger="repro"):
                engine = IntegerEngine.load(tmp_path / "m", precision="float32")
                y = engine(x)
        finally:
            reset_compiler_probe()
        assert engine.backends == {"integer": len(quant_layers(engine.model))}
        assert [r for r in caplog.records if r.name.startswith("repro.quant")] == []
        reference = IntegerEngine.load(tmp_path / "m", precision="float32", backend="integer")
        np.testing.assert_array_equal(y, reference(x))

    def test_available_backends_resolve_to_themselves(self):
        assert resolve_backend("fakequant") == "fakequant"
        assert resolve_backend("integer") == "integer"

    def test_engine_backend_choices(self):
        from repro.deploy.engine import BACKEND_CHOICES

        assert BACKEND_CHOICES == ("auto", "integer", "compiled")
        with pytest.raises(QuantBackendError, match="unknown execution backend"):
            get_backend("integer-prefolded")

    def test_default_backends_probe_available(self):
        for name in ("fakequant", "integer"):
            assert get_backend(name).available() is True
            assert get_backend(name).probe() == {"available": True}


class TestKernelSpec:
    SPEC = dict(
        xin="float", sdt="float", out="float", fused=True, per_sample=True,
        has_bias=True, xt="int16_t", wt="int16_t", acct="int32_t",
        F=40, K=12, V=16, aqmin=-7, aqmax=7, asqmax=15,
    )

    @pytest.mark.parametrize(
        "field, bad", [("xin", "half"), ("out", "int"), ("wt", "int8_t"), ("acct", "float")]
    )
    def test_rejects_bad_types(self, field, bad):
        with pytest.raises(ValueError):
            KernelSpec(**{**self.SPEC, field: bad})

    def test_bias_flag_drives_the_epilogue(self):
        with_bias = render(KernelSpec(**self.SPEC))
        without = render(KernelSpec(**{**self.SPEC, "has_bias": False}))
        assert "+= bias[k];" in with_bias
        assert "+= bias[k];" not in without
        assert "int repro_kernel(" in without

    CONV = dict(
        xin="float", sdt="float", out="float", fused=True, per_sample=True,
        has_bias=True, ct="float",
    )

    @pytest.mark.parametrize("field, bad", [("ct", "int32_t"), ("xin", "half")])
    def test_conv_rejects_bad_types(self, field, bad):
        with pytest.raises(ValueError):
            ConvSpec(**{**self.CONV, field: bad})

    def test_conv_bias_is_its_own_pass(self):
        """The bias add must not sit next to the scale multiply, where
        the compiler would contract the two into one rounding."""
        with_bias = render_conv(ConvSpec(**self.CONV))
        without = render_conv(ConvSpec(**{**self.CONV, "has_bias": False}))
        assert "int repro_conv(" in without
        assert "+= bias[k];" not in without
        (line,) = [ln for ln in with_bias.splitlines() if "+= bias[k];" in ln]
        assert line.strip() == "out[k * PQ + i] += bias[k];"


# ----------------------------------------------------------------------
# directed parity (compiler required)
# ----------------------------------------------------------------------

@needs_cc
class TestDirectedParity:
    @pytest.mark.parametrize("per_sample", [False, True])
    @pytest.mark.parametrize("out_dtype", [None, np.float32])
    def test_linear_with_bias(self, rng, per_sample, out_dtype):
        qmodel = _quantize(
            nn.Sequential(nn.Linear(24, 10, rng=rng)),
            PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4"),
            rng.standard_normal((5, 24)),
        )
        x = rng.standard_normal((5, 24))
        _assert_bitwise(
            qmodel, x, per_sample_scale=per_sample, out_dtype=out_dtype
        )

    @pytest.mark.parametrize("per_sample", [False, True])
    @pytest.mark.parametrize("out_dtype", [None, np.float32])
    def test_conv2d_padded_strided(self, rng, per_sample, out_dtype):
        qmodel = _quantize(
            nn.Sequential(
                nn.Conv2d(6, 9, kernel_size=3, stride=2, padding=1, rng=rng)
            ),
            PTQConfig.vs_quant(8, 8, weight_scale="4", act_scale="6"),
            rng.standard_normal((3, 6, 11, 11)),
        )
        x = rng.standard_normal((3, 6, 11, 11))
        _assert_bitwise(
            qmodel, x, per_sample_scale=per_sample, out_dtype=out_dtype
        )

    def test_conv_only_model_compiles_one_kernel(self, monkeypatch, rng, tmp_path):
        """Conv geometry is a runtime argument: every conv of a float32
        per-sample engine shares one kernel, and a batched request after
        a B=1 warm-up compiles nothing."""
        model = nn.Sequential(
            nn.Conv2d(4, 8, kernel_size=3, padding=1, rng=rng),
            nn.ReLU(),
            nn.Conv2d(8, 4, kernel_size=3, stride=2, padding=1, rng=rng),
        )
        qmodel = _quantize(
            model,
            PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4"),
            rng.standard_normal((4, 4, 10, 10)),
        )
        _random_biases(qmodel, rng)
        save_artifact(qmodel, tmp_path / "m", task="image")
        x = rng.standard_normal((4, 4, 10, 10)).astype(np.float32)
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kc"))
        reset_kernel_cache()
        try:
            engine = IntegerEngine.load(
                tmp_path / "m", per_sample_scale=True, precision="float32",
                backend="compiled",
            )
            solo = engine(x[:1])
            assert kernel_cache_stats()["misses"] == 1
            batched = engine(x)
            assert kernel_cache_stats()["misses"] == 1
        finally:
            reset_kernel_cache()
        assert engine.backends == {"compiled": 2}
        reference = IntegerEngine.load(
            tmp_path / "m", per_sample_scale=True, precision="float32",
            backend="integer",
        )
        np.testing.assert_array_equal(solo, reference(x[:1]))
        np.testing.assert_array_equal(batched, reference(x))

    @pytest.mark.parametrize(
        "cin, cout, kernel, stride, padding, hw",
        [
            (6, 9, 3, 2, 1, (11, 11)),    # padded, strided, C % V != 0
            (16, 16, 3, 1, 1, (8, 8)),    # channel-aligned, one KB block
            (3, 16, 3, 1, 1, (9, 7)),     # the stem: C=3 < V, non-square
            (16, 40, 3, 2, 0, (10, 13)),  # two-block pass + K tail, no pad
            (32, 20, 1, 2, 0, (9, 9)),    # 1x1 projection, K tail
            (20, 33, 1, 1, 0, (5, 6)),    # 1x1, tail vector, K = 2 blocks + 1
            (5, 7, 3, 1, 1, (1, 1)),      # one input pixel, all taps padding
        ],
    )
    @pytest.mark.parametrize("per_sample", [False, True])
    @pytest.mark.parametrize("out_dtype", [None, np.float32])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_conv_geometries(
        self, rng, cin, cout, kernel, stride, padding, hw, per_sample, out_dtype, batch
    ):
        qmodel = _quantize(
            nn.Sequential(
                nn.Conv2d(cin, cout, kernel_size=kernel, stride=stride,
                          padding=padding, rng=rng)
            ),
            PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4"),
            rng.standard_normal((2, cin, *hw)),
        )
        _random_biases(qmodel, rng)
        x = rng.standard_normal((batch, cin, *hw))
        if out_dtype is not None:
            x = x.astype(out_dtype)
        _assert_bitwise(qmodel, x, per_sample_scale=per_sample, out_dtype=out_dtype)
        (_, layer), = quant_layers(qmodel)
        assert layer._compiled is not None  # the kernel ran, not numpy

    @pytest.mark.parametrize("per_sample", [False, True])
    @pytest.mark.parametrize("out_dtype", [None, np.float32])
    def test_conv_all_zero_sample(self, rng, per_sample, out_dtype):
        """An all-zero sample takes the epsilon-clamped scales and codes 0."""
        qmodel = _quantize(
            nn.Sequential(nn.Conv2d(8, 12, kernel_size=3, padding=1, rng=rng)),
            PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4", vector_size=4),
            rng.standard_normal((2, 8, 6, 6)),
        )
        _random_biases(qmodel, rng)
        x = rng.standard_normal((3, 8, 6, 6))
        x[1] = 0.0
        _assert_bitwise(qmodel, x, per_sample_scale=per_sample, out_dtype=out_dtype)
        _assert_bitwise(qmodel, np.zeros((1, 8, 6, 6)),
                        per_sample_scale=per_sample, out_dtype=out_dtype)

    def test_conv_float64_operands(self, rng):
        """8-bit formats overflow float32's exact range: the kernel then
        folds and accumulates in float64."""
        qmodel = _quantize(
            nn.Sequential(nn.Conv2d(24, 20, kernel_size=3, padding=1, rng=rng)),
            PTQConfig.vs_quant(8, 8, weight_scale="6", act_scale="6"),
            rng.standard_normal((2, 24, 7, 7)),
        )
        _random_biases(qmodel, rng)
        x = rng.standard_normal((3, 24, 7, 7))
        for per_sample in (False, True):
            for out_dtype in (None, np.float32):
                _assert_bitwise(qmodel, x.astype(out_dtype or np.float64),
                                per_sample_scale=per_sample, out_dtype=out_dtype)
        (_, layer), = quant_layers(qmodel)
        assert layer._wf.dtype == np.float64

    @pytest.mark.parametrize("kind", ["linear", "conv"])
    def test_float32_bias_rounds_like_numpy(self, kind):
        """numpy rounds ``acc * scale`` before it adds the bias; a fused
        multiply-add would not. Many random inputs and large biases make
        any contraction show."""
        rng = np.random.default_rng(7)
        if kind == "linear":
            module = nn.Linear(48, 40, rng=rng)
            shape = (64, 48)
        else:
            module = nn.Conv2d(16, 40, kernel_size=3, padding=1, rng=rng)
            shape = (16, 16, 8, 8)
        qmodel = _quantize(
            nn.Sequential(module),
            PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4"),
            rng.standard_normal((4, *shape[1:])),
        )
        for _ in range(3):
            _random_biases(qmodel, rng, scale=10.0)
            x = rng.standard_normal(shape).astype(np.float32)
            for per_sample in (False, True):
                _assert_bitwise(qmodel, x, per_sample_scale=per_sample,
                                out_dtype=np.float32)

    def test_uncompilable_conv_input_uses_numpy_path(self, rng):
        """A float16 input has no conv kernel; the numpy path then reads the
        kernel's re-laid weights back in its own layout."""
        qmodel = _quantize(
            nn.Sequential(nn.Conv2d(6, 9, kernel_size=3, padding=1, rng=rng)),
            PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4"),
            rng.standard_normal((2, 6, 7, 7)),
        )
        _random_biases(qmodel, rng)
        x = rng.standard_normal((2, 6, 7, 7)).astype(np.float16)
        _assert_bitwise(qmodel, x)
        (_, layer), = quant_layers(qmodel)
        assert layer._wf.shape == (3, 3, 6, 16)  # (R, S, C, KP)

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("per_sample", [False, True])
    def test_miniresnet_engine_matches_integer_engine(
        self, rng, tmp_path, precision, per_sample
    ):
        """Every MiniResNet layer compiles, and the engine's replies equal
        a separately loaded ``integer`` engine's, bit for bit."""
        model = MiniResNet(num_classes=4, width=1, depth=1, seed=0)
        model.eval()
        qmodel = _quantize(
            model,
            PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4"),
            rng.standard_normal((4, 3, 16, 16)),
        )
        save_artifact(qmodel, tmp_path / "m", task="image")
        x = rng.standard_normal((5, 3, 16, 16)).astype(np.float32)
        kwargs = dict(per_sample_scale=per_sample, precision=precision)
        engine = IntegerEngine.load(tmp_path / "m", backend="compiled", **kwargs)
        reference = IntegerEngine.load(tmp_path / "m", backend="integer", **kwargs)
        n = len(quant_layers(engine.model))
        assert engine.backends == {"compiled": n}
        for batch in (x[:1], x):
            y = engine(batch)
            y_ref = reference(batch)
            assert y.dtype == y_ref.dtype
            np.testing.assert_array_equal(y, y_ref)

    def test_backends_count_the_layers_that_run_numpy(self, rng, tmp_path):
        """MiniBERT's embedding gathers have no kernel: they count as
        ``integer`` even on a ``compiled`` engine."""
        config = MiniBERTConfig(
            name="tiny", vocab_size=50, max_seq_len=8, d_model=16, num_heads=2,
            num_layers=1, d_ff=32,
        )
        model = MiniBERT(config, seed=0)
        model.eval()
        tokens = rng.integers(0, config.vocab_size, (4, config.max_seq_len))
        mask = np.ones_like(tokens, dtype=bool)
        qmodel = quantize_model(
            model,
            PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4",
                               embeddings=True, attention=True),
            calib_batches=[(tokens, mask)],
        )
        save_artifact(qmodel, tmp_path / "m", task="qa")
        engine = IntegerEngine.load(tmp_path / "m", backend="compiled")
        layers = quant_layers(engine.model)
        embeddings = sum(layer.kind == "embedding" for _, layer in layers)
        assert embeddings == 2
        assert engine.backends == {
            "compiled": len(layers) - embeddings,
            "integer": embeddings,
            "attention_operands": "compiled",
            "gelu": "numpy",  # a float64 engine keeps numpy's GELU
        }

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_no_compile_inside_a_batched_request(
        self, monkeypatch, rng, tmp_path, precision
    ):
        """A replica warmed at B=1 already holds every kernel a batched
        request needs: the fused epilogue serves the per-sample kernel at
        every B, and the unfused one builds both variants at first use."""
        qmodel = _quantize(
            nn.Sequential(nn.Linear(16, 12, rng=rng), nn.ReLU(), nn.Linear(12, 4, rng=rng)),
            PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4"),
            rng.standard_normal((4, 5, 16)),
        )
        save_artifact(qmodel, tmp_path / "m", task="image")
        x = rng.standard_normal((4, 5, 16))
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kc"))
        reset_kernel_cache()
        try:
            engine = IntegerEngine.load(
                tmp_path / "m", per_sample_scale=True, precision=precision,
                backend="compiled",
            )
            solo = engine(x[:1])
            warm = kernel_cache_stats()["misses"]
            assert warm > 0
            batched = engine(x)
            assert kernel_cache_stats()["misses"] == warm
        finally:
            reset_kernel_cache()
        reference = IntegerEngine.load(
            tmp_path / "m", per_sample_scale=True, precision=precision,
            backend="integer",
        )
        np.testing.assert_array_equal(solo, reference(x[:1]))
        np.testing.assert_array_equal(batched, reference(x))

    def test_uncompilable_input_dtype_uses_numpy_path(self, rng):
        """A float16 input has no kernel; the numpy path then reads the
        kernel's integer weight matrix, the layer's only folded copy."""
        qmodel = _quantize(
            nn.Sequential(nn.Linear(24, 10, rng=rng)),
            PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4"),
            rng.standard_normal((5, 24)),
        )
        (_, layer), = quant_layers(qmodel)
        x = rng.standard_normal((5, 24)).astype(np.float16)
        _assert_bitwise(qmodel, x)
        assert layer._wf.dtype == np.int16

    def test_linear_3d_activations(self, rng):
        """Sequence-model shape (B, T, F): the kernel sees B*T rows but
        per-sample gammas must still group by leading batch axis."""
        qmodel = _quantize(
            nn.Sequential(nn.Linear(16, 12, rng=rng)),
            PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4"),
            rng.standard_normal((4, 7, 16)),
        )
        x = rng.standard_normal((4, 7, 16))
        _assert_bitwise(qmodel, x, per_sample_scale=True)
        _assert_bitwise(qmodel, x, per_sample_scale=False)

    def test_repeat_calls_are_stable(self, rng):
        """Same input twice -> identical bits (no state bleeds between
        calls through the ctypes buffers)."""
        qmodel = _quantize(
            nn.Sequential(nn.Linear(16, 8, rng=rng)),
            PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4"),
            rng.standard_normal((4, 16)),
        )
        x = rng.standard_normal((4, 16))
        first = _outputs(qmodel, x, "compiled")
        second = _outputs(qmodel, x, "compiled")
        np.testing.assert_array_equal(first, second)


# ----------------------------------------------------------------------
# hypothesis fuzz parity (compiler required)
# ----------------------------------------------------------------------

@needs_cc
class TestFuzzParity:
    @given(
        rows=st.integers(1, 6),
        in_features=st.integers(2, 40),
        out_features=st.integers(1, 24),
        wbits=st.integers(2, 8),
        abits=st.integers(2, 8),
        wscale=st.sampled_from(["3", "4", "6"]),
        ascale=st.sampled_from(["3", "4", "6"]),
        vector_size=st.sampled_from([4, 8, 16]),
        per_sample=st.booleans(),
        f32=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_linear_bitwise(
        self, rows, in_features, out_features, wbits, abits,
        wscale, ascale, vector_size, per_sample, f32, seed,
    ):
        rng = np.random.default_rng(seed)
        config = PTQConfig.vs_quant(
            wbits, abits, weight_scale=wscale, act_scale=ascale,
            vector_size=vector_size,
        )
        qmodel = _quantize(
            nn.Sequential(nn.Linear(in_features, out_features, rng=rng)),
            config,
            rng.standard_normal((max(rows, 2), in_features)),
        )
        x = rng.standard_normal((rows, in_features))
        _assert_bitwise(
            qmodel, x,
            per_sample_scale=per_sample,
            out_dtype=np.float32 if f32 else None,
        )

    @given(
        channels=st.integers(1, 20),
        out_channels=st.integers(1, 40),
        height=st.integers(1, 10),
        width=st.integers(1, 10),
        kernel=st.sampled_from([1, 3]),
        stride=st.sampled_from([1, 2]),
        padding=st.sampled_from([0, 1]),
        batch=st.integers(1, 3),
        wbits=st.integers(2, 8),
        abits=st.integers(2, 8),
        vector_size=st.sampled_from([4, 16]),
        per_sample=st.booleans(),
        f32=st.booleans(),
        bias=st.booleans(),
        zero_sample=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_random_conv_bitwise(
        self, channels, out_channels, height, width, kernel, stride, padding,
        batch, wbits, abits, vector_size, per_sample, f32, bias, zero_sample, seed,
    ):
        if min(height, width) + 2 * padding < kernel:
            padding = 1  # keep at least one output pixel
        rng = np.random.default_rng(seed)
        config = PTQConfig.vs_quant(
            wbits, abits, weight_scale="4", act_scale="4", vector_size=vector_size
        )
        qmodel = _quantize(
            nn.Sequential(
                nn.Conv2d(channels, out_channels, kernel_size=kernel,
                          stride=stride, padding=padding, bias=bias, rng=rng)
            ),
            config,
            rng.standard_normal((2, channels, height, width)),
        )
        _random_biases(qmodel, rng)
        x = rng.standard_normal((batch, channels, height, width))
        if zero_sample:
            x[0] = 0.0
        out_dtype = np.float32 if f32 else None
        if f32:
            x = x.astype(np.float32)
        _assert_bitwise(qmodel, x, per_sample_scale=per_sample, out_dtype=out_dtype)
