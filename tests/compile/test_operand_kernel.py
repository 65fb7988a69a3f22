"""The compiled attention-operand quantizer: ``repro_quantize`` parity.

:class:`~repro.compile.backend.CompiledQuantizer` must be **bitwise**
equal to the numpy :meth:`Quantizer._fake_quant_array` it replaces:

- **directed** cases over the shapes attention feeds it (vector axis -1
  and -2, ``L % V != 0``, transposed views, B=1, all-zero vectors),
  signed/unsigned formats, per-tensor and per-sample gammas, float32
  and float64;
- a **hypothesis fuzz** over random shapes and formats;
- the **fallbacks**: specs and calls the kernel does not model run numpy;
- an **engine-level** check: full-coverage MiniBERT served ``compiled``
  against a separately loaded ``integer`` engine (flipping layers in
  place would leave the attention quantizers compiled).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import QuantizeSpec, compiler_available, render_quantize
from repro.compile.backend import CompiledQuantizer, kernel_models, operand_quantizer
from repro.deploy import IntegerEngine, save_artifact
from repro.models.bert import MiniBERT, MiniBERTConfig
from repro.quant import PTQConfig, quantize_model
from repro.quant.granularity import Granularity
from repro.quant.qlayers import attention_layers
from repro.quant.quantizer import Quantizer, QuantSpec, ScaleFormat, ScaleKind

needs_cc = pytest.mark.skipif(
    not compiler_available(), reason="no working C compiler on this host"
)

TINY_BERT = MiniBERTConfig(
    name="minibert-operands",
    vocab_size=16,
    max_seq_len=12,
    d_model=32,
    num_layers=2,
    num_heads=2,
    d_ff=48,
    dropout=0.0,
)


def _spec(bits=4, signed=True, V=16, axis=-1, channel_axes=(0,), scale_bits=4, **kw):
    return QuantSpec(
        bits=bits, signed=signed, granularity=Granularity.PER_VECTOR,
        vector_size=V, vector_axis=axis, channel_axes=channel_axes,
        scale=ScaleFormat(ScaleKind.INT, scale_bits), **kw,
    )


def _assert_parity(spec, x):
    want = Quantizer(spec)._fake_quant_array(x)
    got = CompiledQuantizer(spec)._fake_quant_array(x)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    return got


class TestQuantizeSpec:
    def test_rejects_bad_types(self):
        with pytest.raises(ValueError):
            QuantizeSpec(t="half", V=16, qmin=-7, qmax=7, sqmax=15, per_sample=True)
        with pytest.raises(ValueError):
            QuantizeSpec(t="float", V=0, qmin=-7, qmax=7, sqmax=15, per_sample=True)

    def test_exports_the_quantize_entry(self):
        src = render_quantize(
            QuantizeSpec(t="double", V=8, qmin=0, qmax=7, sqmax=15, per_sample=False)
        )
        assert "int repro_quantize(" in src
        assert "gamma[0]" in src and "gamma[r / M]" not in src

    def test_kernel_models_only_what_it_reproduces(self):
        assert kernel_models(_spec())
        assert kernel_models(_spec(channel_axes=()))
        for spec in (
            _spec(calibration="percentile"),
            replace(_spec(), scale=ScaleFormat(ScaleKind.FP32)),
            _spec(decompose_order="channel_first"),
            _spec(channel_axes=(1,)),
            replace(_spec(), granularity=Granularity.PER_TENSOR),
        ):
            assert not kernel_models(spec)
            assert type(operand_quantizer(spec)) is Quantizer


@needs_cc
class TestDirectedParity:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channel_axes", [(), (0,)])
    @pytest.mark.parametrize("signed", [True, False])
    @pytest.mark.parametrize("axis", [-1, -2])
    def test_attention_shapes(self, rng, dtype, channel_axes, signed, axis):
        spec = _spec(signed=signed, axis=axis, channel_axes=channel_axes)
        # (B, T, H, Dh) -> (B, H, T, Dh): the transposed head split
        # attention hands the quantizer; 20 % 16 != 0 pads the tail vector.
        x = rng.standard_normal((3, 20, 2, 20)).astype(dtype).transpose(0, 2, 1, 3)
        assert not x.flags["C_CONTIGUOUS"]
        _assert_parity(spec, x)
        _assert_parity(spec, np.ascontiguousarray(x))

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_single_sample(self, rng, axis):
        x = rng.standard_normal((1, 2, 12, 8)).astype(np.float32)
        _assert_parity(_spec(axis=axis, V=8), x)

    @pytest.mark.parametrize("channel_axes", [(), (0,)])
    def test_all_zero_vectors_and_samples(self, rng, channel_axes):
        x = rng.standard_normal((3, 2, 5, 16))
        x[0] = 0.0  # a whole sample: gamma floors at 1e-30
        x[1, :, :, :8] = 0.0  # single vectors inside a live sample
        got = _assert_parity(_spec(V=8, channel_axes=channel_axes), x)
        assert not got[0].any()

    def test_vector_longer_than_axis(self, rng):
        _assert_parity(_spec(V=16, axis=-2), rng.standard_normal((2, 3, 5, 4)))

    def test_three_dim_input(self, rng):
        _assert_parity(_spec(V=4), rng.standard_normal((4, 7, 10)).astype(np.float32))

    def test_softmax_probabilities(self, rng):
        logits = rng.standard_normal((2, 2, 12, 12)).astype(np.float32)
        probs = np.exp(logits) / np.exp(logits).sum(-1, keepdims=True)
        _assert_parity(_spec(signed=False, V=16), probs)


@needs_cc
class TestFallbacks:
    def test_float16_runs_numpy(self, rng):
        x = rng.standard_normal((2, 3, 16)).astype(np.float16)
        _assert_parity(_spec(), x)

    def test_vector_axis_zero_runs_numpy(self, rng):
        _assert_parity(_spec(axis=0, V=4), rng.standard_normal((9, 3)))

    def test_forced_compute_dtype_runs_numpy(self, rng):
        from repro.utils.dtypes import compute_dtype

        x = rng.standard_normal((2, 3, 16)).astype(np.float32)
        with compute_dtype("float64"):
            got = _assert_parity(_spec(), x)
        assert got.dtype == np.float64

    def test_record_scales_runs_numpy(self, rng):
        x = rng.standard_normal((2, 3, 16))
        ref, q = Quantizer(_spec()), CompiledQuantizer(_spec())
        ref.record_scales = q.record_scales = True
        np.testing.assert_array_equal(q._fake_quant_array(x), ref._fake_quant_array(x))
        np.testing.assert_array_equal(q.last_sq, ref.last_sq)

    def test_observation_passes_through(self, rng):
        q = CompiledQuantizer(_spec())
        q.begin_observation()
        x = rng.standard_normal((2, 3, 16))
        assert q._fake_quant_array(x) is x

    def test_pickles_without_kernel_handles(self, rng):
        import pickle

        q = CompiledQuantizer(_spec())
        x = rng.standard_normal((2, 3, 16))
        first = q._fake_quant_array(x)
        clone = pickle.loads(pickle.dumps(q))
        np.testing.assert_array_equal(clone._fake_quant_array(x), first)


@needs_cc
def test_threads_share_one_quantizer():
    """Serving threads share the model: a cold quantizer hit by more
    threads than cores returns every caller its own exact result."""
    import sys
    import threading

    spec = _spec(V=8, axis=-2)
    shared = CompiledQuantizer(spec)
    inputs = [np.random.default_rng(i).standard_normal((2, 3, 20, 4)) for i in range(8)]
    want = [Quantizer(spec)._fake_quant_array(x) for x in inputs]
    got: dict[int, np.ndarray] = {}

    def work(i):
        for _ in range(20):
            got[i] = shared._fake_quant_array(inputs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(8):
        np.testing.assert_array_equal(got[i], want[i])


@needs_cc
class TestFuzzParity:
    @given(
        shape=st.tuples(*(st.integers(1, 7) for _ in range(4))),
        axis=st.sampled_from([-1, -2, -3]),
        bits=st.integers(2, 8),
        scale_bits=st.integers(2, 8),
        V=st.sampled_from([1, 3, 4, 8, 16]),
        signed=st.booleans(),
        per_sample=st.booleans(),
        f32=st.booleans(),
        transpose=st.booleans(),
        magnitude=st.sampled_from([1e-6, 1.0, 1e4]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_operands_bitwise(
        self, shape, axis, bits, scale_bits, V, signed, per_sample, f32,
        transpose, magnitude, seed,
    ):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape) * magnitude
        x = x.astype(np.float32 if f32 else np.float64)
        if transpose:
            x = x.transpose(0, 2, 1, 3)
        spec = _spec(
            bits=bits, signed=signed, V=V, axis=axis, scale_bits=scale_bits,
            channel_axes=(0,) if per_sample else (),
        )
        _assert_parity(spec, x)


def _full_bert_artifact(rng, path):
    model = MiniBERT(TINY_BERT, seed=0)
    model.eval()
    tokens = rng.integers(0, TINY_BERT.vocab_size, (6, TINY_BERT.max_seq_len))
    mask = np.arange(TINY_BERT.max_seq_len)[None, :] < np.array([12, 7, 9, 12, 4, 10])[:, None]
    config = PTQConfig.vs_quant(
        4, 4, weight_scale="4", act_scale="4", embeddings=True, attention=True
    )
    qmodel = quantize_model(
        model, config, calib_batches=[(tokens, mask)],
        forward=lambda m, b: m(b[0], mask=b[1]),
    )
    save_artifact(qmodel, path, task="qa")
    return tokens, mask


@needs_cc
class TestEngineParity:
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("per_sample", [False, True])
    def test_full_bert_compiled_equals_separate_integer_engine(
        self, rng, tmp_path, precision, per_sample
    ):
        tokens, mask = _full_bert_artifact(rng, tmp_path / "bert")
        knobs = dict(precision=precision, per_sample_scale=per_sample)
        compiled = IntegerEngine.load(tmp_path / "bert", backend="compiled", **knobs)
        reference = IntegerEngine.load(tmp_path / "bert", backend="integer", **knobs)
        assert compiled.backends["attention_operands"] == "compiled"
        assert reference.backends["attention_operands"] == "numpy"
        for _, attn in attention_layers(compiled.model):
            assert all(
                isinstance(q, CompiledQuantizer) for q in attn.operand_quantizers.values()
            )
        for batch in (slice(None), slice(0, 1)):
            y_c = compiled(tokens[batch], mask=mask[batch])
            y_ref = reference(tokens[batch], mask=mask[batch])
            assert y_c.dtype == y_ref.dtype == np.dtype(precision)
            np.testing.assert_array_equal(y_c, y_ref)

    def test_instance_hooks_do_not_bypass_the_kernel(self, rng, tmp_path):
        """Profilers wrap and later pop ``forward``/``_operand`` instance
        attributes; the kernel lives in the quantizers, so it survives."""
        tokens, mask = _full_bert_artifact(rng, tmp_path / "bert")
        engine = IntegerEngine.load(tmp_path / "bert", backend="compiled")
        before = engine(tokens, mask=mask)
        for _, attn in attention_layers(engine.model):
            object.__setattr__(attn, "_operand", attn._operand)
            object.__setattr__(attn, "forward", attn.forward)
        engine(tokens, mask=mask)
        for _, attn in attention_layers(engine.model):
            attn.__dict__.pop("_operand")
            attn.__dict__.pop("forward")
        assert engine.backends["attention_operands"] == "compiled"
        np.testing.assert_array_equal(engine(tokens, mask=mask), before)
