"""The chunked attention core: bitwise equal to the whole-batch core.

Inference batches of at least ``SPLIT_FLOOR`` samples whose attention
operands quantize per sample run the core (head split to merged
context) on arrays, in place, in chunks of samples spread across the
helper pool (``MultiHeadAttention._chunked_core``). These tests compare
it by bit pattern with the same forward forced onto the whole batch: B in {16,
17, chunk + 1, 64} with 1, 2 and 3 workers, float32 and float64, with
and without a mask, for ``compiled`` and ``integer`` engines and the
float ``MultiHeadAttention`` in eval under ``no_grad``. Every fallback
takes the whole-batch path: per-tensor operand scales, calibration,
``record_scales``, grad enabled (outputs and gradients as the textbook
forward gives them), training mode, and B = 15.
"""

import math

import numpy as np
import pytest

from repro import nn
from repro.compile import compiler_available
from repro.deploy import IntegerEngine, save_artifact
from repro.models.bert import MiniBERT, MiniBERTConfig
from repro.nn import attention
from repro.quant import PTQConfig, quantize_model
from repro.quant.granularity import Granularity
from repro.quant.qlayers import attention_layers
from repro.quant.quantizer import Quantizer, QuantSpec, ScaleFormat, ScaleKind
from repro.tensor import ops
from repro.tensor.tensor import Tensor, no_grad
from repro.utils import parallel

# T = 24 and two heads: float32 chunks hold 56 samples, float64 chunks 28,
# so a B = 64 range runs as one chunk or several, depending on workers.
BERT = MiniBERTConfig(
    name="chunks", vocab_size=40, max_seq_len=24, d_model=32, num_heads=2,
    num_layers=2, d_ff=64, dropout=0.0,
)
T, D, H = BERT.max_seq_len, BERT.d_model, BERT.num_heads
DTYPES = {"float32": np.float32, "float64": np.float64}


def _chunk(dtype) -> int:
    return attention._CHUNK_BYTES // (H * T * T * np.dtype(dtype).itemsize)


def _batches(precision):
    return sorted({16, 17, _chunk(DTYPES[precision]) + 1, 64})


def _mask(rng, n):
    lengths = rng.integers(2, T + 1, n)
    return np.arange(T)[None, :] < lengths[:, None]


@pytest.fixture(scope="module")
def bert_dir(tmp_path_factory):
    rng = np.random.default_rng(11)
    bert = MiniBERT(BERT, seed=0)
    bert.eval()
    tokens = rng.integers(0, BERT.vocab_size, (8, T))
    q = quantize_model(
        bert,
        PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4", embeddings=True, attention=True),
        calib_batches=[(tokens, _mask(rng, 8))],
    )
    path = tmp_path_factory.mktemp("chunks") / "bert"
    save_artifact(q, path, task="qa")
    return path


_engines: dict = {}


def _engine(path, backend, precision, per_sample=True):
    key = (path, backend, precision, per_sample)
    if key not in _engines:
        _engines[key] = IntegerEngine.load(
            path, per_sample_scale=per_sample, precision=precision, backend=backend
        )
    return _engines[key]


def _attention_modules(model):
    return [m for _, m in model.named_modules() if isinstance(m, nn.MultiHeadAttention)]


def _run(monkeypatch, model, call, chunked):
    """``call()`` with every attention module of ``model`` chunking (or
    forced onto the whole batch); returns the result and the number of
    chunked core calls."""
    calls = []
    real = attention.MultiHeadAttention._chunked_core

    def counted(self, *args):
        calls.append(self)
        return real(self, *args)

    monkeypatch.setattr(attention.MultiHeadAttention, "_chunked_core", counted)
    modules = _attention_modules(model)
    try:
        if not chunked:
            for m in modules:
                object.__setattr__(m, "_sample_operand", lambda: None)
        out = call()
    finally:
        for m in modules:
            m.__dict__.pop("_sample_operand", None)
        monkeypatch.setattr(attention.MultiHeadAttention, "_chunked_core", real)
    return out, len(calls)


def _assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(f"u{got.itemsize}"), want.view(f"u{want.itemsize}"))


# ----------------------------------------------------------------------
# chunked == whole batch
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", [
    pytest.param("compiled", marks=pytest.mark.skipif(
        not compiler_available(), reason="no working C compiler on this host")),
    "integer",
])
@pytest.mark.parametrize("masked", [True, False])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("precision", list(DTYPES))
def test_engine_chunks_equal_the_whole_batch(
    monkeypatch, bert_dir, backend, precision, workers, masked
):
    engine = _engine(bert_dir, backend, precision)
    monkeypatch.setattr(parallel, "_WORKERS", workers)
    for batch in _batches(precision):
        rng = np.random.default_rng(batch)
        tokens = rng.integers(0, BERT.vocab_size, (batch, T))
        kwargs = {"mask": _mask(rng, batch)} if masked else {}
        chunked, n = _run(monkeypatch, engine.model, lambda: engine(tokens, **kwargs), True)
        assert n == BERT.num_layers
        whole, n = _run(monkeypatch, engine.model, lambda: engine(tokens, **kwargs), False)
        assert n == 0
        _assert_bitwise(chunked, whole)


@pytest.mark.parametrize("masked", [True, False])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("precision", list(DTYPES))
def test_float_attention_chunks_equal_the_whole_batch(monkeypatch, precision, workers, masked):
    mha = nn.MultiHeadAttention(D, H, dropout=0.1, rng=np.random.default_rng(0))
    mha.eval()
    monkeypatch.setattr(parallel, "_WORKERS", workers)
    for batch in _batches(precision):
        rng = np.random.default_rng(batch)
        x = Tensor(rng.standard_normal((batch, T, D)).astype(DTYPES[precision]))
        mask = _mask(rng, batch) if masked else None
        with no_grad():
            chunked, n = _run(monkeypatch, mha, lambda: mha(x, mask=mask).data, True)
            assert n == 1
            whole, n = _run(monkeypatch, mha, lambda: mha(x, mask=mask).data, False)
            assert n == 0
        _assert_bitwise(chunked, whole)


# ----------------------------------------------------------------------
# fallbacks: the whole-batch path
# ----------------------------------------------------------------------

def test_per_tensor_operand_scales_take_the_whole_batch(monkeypatch, bert_dir):
    engine = _engine(bert_dir, "integer", "float32", per_sample=False)
    rng = np.random.default_rng(1)
    tokens = rng.integers(0, BERT.vocab_size, (64, T))
    _, n = _run(monkeypatch, engine.model, lambda: engine(tokens, mask=_mask(rng, 64)), True)
    assert n == 0


@pytest.mark.parametrize("flag", ["observing", "record_scales"])
def test_calibration_and_recorded_scales_take_the_whole_batch(monkeypatch, bert_dir, flag):
    engine = IntegerEngine.load(bert_dir, per_sample_scale=True, backend="integer")
    attn = attention_layers(engine.model)[0][1]
    quantizer = attn.operand_quantizers["probs"]
    if flag == "observing":
        quantizer.begin_observation()
    else:
        quantizer.record_scales = True
    rng = np.random.default_rng(2)
    tokens = rng.integers(0, BERT.vocab_size, (64, T))
    _, n = _run(monkeypatch, engine.model, lambda: engine(tokens, mask=_mask(rng, 64)), True)
    assert n == BERT.num_layers - 1  # only the untouched layer chunks
    if flag == "observing":
        assert quantizer._samples  # the whole batch was observed
    else:
        assert quantizer.last_sq.shape[0] == 64


def _textbook(mha, x, mask):
    """The attention forward written out, as the whole-batch core runs it."""
    B = x.shape[0]

    def split(t):
        return t.reshape(B, T, H, D // H).transpose(0, 2, 1, 3)

    q, k, v = split(mha.q_proj(x)), split(mha.k_proj(x)), split(mha.v_proj(x))
    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(D // H))
    bias = np.where(mask[:, None, None, :], 0.0, -1e9).astype(scores.dtype)
    probs = ops.softmax(scores + Tensor(bias), axis=-1)
    return mha.out_proj((probs @ v).transpose(0, 2, 1, 3).reshape(B, T, D))


def test_grad_mode_takes_the_whole_batch_with_todays_gradients(monkeypatch):
    mha = nn.MultiHeadAttention(D, H, rng=np.random.default_rng(0))
    mha.eval()
    monkeypatch.setattr(parallel, "_WORKERS", 2)
    rng = np.random.default_rng(3)
    data, mask = rng.standard_normal((64, T, D)), _mask(rng, 64)
    grads = []
    for forward in (lambda x: mha(x, mask=mask), lambda x: _textbook(mha, x, mask)):
        x = Tensor(data, requires_grad=True)
        for p in mha.parameters():
            p.grad = None
        out, n = _run(monkeypatch, mha, lambda: forward(x), True)
        assert n == 0
        (out * out).sum().backward()
        grads.append([out.data, x.grad, *(p.grad for p in mha.parameters())])
    for got, want in zip(*grads):
        _assert_bitwise(got, want)


@pytest.mark.parametrize("p", [0.0, 0.5])
def test_training_mode_takes_the_whole_batch(monkeypatch, p):
    mha = nn.MultiHeadAttention(D, H, dropout=p, rng=np.random.default_rng(0))
    mha.train()
    x = Tensor(np.random.default_rng(4).standard_normal((64, T, D)))
    with no_grad():
        _, n = _run(monkeypatch, mha, lambda: mha(x), True)
    assert n == 0


def test_batches_below_the_floor_take_the_whole_batch(monkeypatch, bert_dir):
    assert parallel.SPLIT_FLOOR == 16
    engine = _engine(bert_dir, "integer", "float32")
    rng = np.random.default_rng(5)
    tokens = rng.integers(0, BERT.vocab_size, (15, T))
    _, n = _run(monkeypatch, engine.model, lambda: engine(tokens, mask=_mask(rng, 15)), True)
    assert n == 0


def test_per_sample_quantizers():
    def spec(**kw):
        base = dict(
            bits=4, granularity=Granularity.PER_VECTOR, vector_size=16, vector_axis=-1,
            channel_axes=(0,), scale=ScaleFormat(ScaleKind.INT, 4),
        )
        return QuantSpec(**{**base, **kw})

    assert Quantizer(spec()).per_sample(4)
    assert Quantizer(spec(granularity=Granularity.PER_CHANNEL)).per_sample(4)
    assert not Quantizer(spec(granularity=Granularity.PER_TENSOR)).per_sample(4)
    assert not Quantizer(spec(channel_axes=())).per_sample(4)
    assert not Quantizer(spec(vector_axis=-4)).per_sample(4)
    observing = Quantizer(spec())
    observing.begin_observation()
    assert not observing.per_sample(4)
    recording = Quantizer(spec())
    recording.record_scales = True
    assert not recording.per_sample(4)
