"""Multi-head self-attention."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.nn.dropout import Dropout
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.tensor import ops
from repro.tensor.tensor import Tensor, is_grad_enabled
from repro.utils.dtypes import resolve_dtype
from repro.utils.parallel import SPLIT_FLOOR, split_samples

#: Operand function of the attention core: ``operand(name, value)`` for
#: ``name`` in ``q``/``k``/``probs``/``v``, on Tensors or on arrays.
Operand = Callable[[str, "Tensor | np.ndarray"], "Tensor | np.ndarray"]

# Scores bytes per chunk of the inference core. A chunk's scores then
# stay in L2 and no batch-sized temporary exists. MiniBERT-base (H=4,
# T=48, float32) gets 7 samples a chunk. In a B=64 sweep on a 2-vCPU host
# 128 KiB (3 samples) was 10-15% slower, and 512 KiB (14) no faster with
# 1.6x the page faults from a fresh heap (docs/performance.md).
_CHUNK_BYTES = 256 * 1024


def _identity(name: str, value):
    return value


class MultiHeadAttention(Module):
    """Standard scaled dot-product multi-head self-attention.

    The four projection layers (q/k/v/out) are plain :class:`Linear` modules
    so the quantization pass (``repro.quant.ptq``) can swap them for
    quantized equivalents — attention score arithmetic itself stays in
    higher precision, matching the paper's focus on GEMM quantization.

    Inference batches of at least ``SPLIT_FLOOR`` samples run the core
    (head split to merged context) in cache-sized chunks of samples,
    spread across CPUs, when every operand quantizes per sample
    (:meth:`_sample_operand`); the result is bitwise that of the whole
    batch.
    """

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError(f"d_model {d_model} not divisible by heads {num_heads}")
        self.d_model = d_model
        self.num_heads = num_heads
        self.d_head = d_model // num_heads
        rng = rng or np.random.default_rng()
        self.q_proj = Linear(d_model, d_model, rng=rng)
        self.k_proj = Linear(d_model, d_model, rng=rng)
        self.v_proj = Linear(d_model, d_model, rng=rng)
        self.out_proj = Linear(d_model, d_model, rng=rng)
        self.attn_dropout = Dropout(dropout, rng=rng)

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        # (B, T, D) -> (B, H, T, Dh)
        return x.reshape(batch, seq, self.num_heads, self.d_head).transpose(0, 2, 1, 3)

    def _operand(self, name: str, value: Tensor) -> Tensor:
        """Hook over the score/context matmul operands (``q``/``k``/
        ``probs``/``v``) of the whole-batch path. Identity here; the
        quantized subclass
        (:class:`repro.quant.qlayers.QuantMultiHeadAttention`) fake-quantizes
        each operand, so the attention math itself lives in exactly one
        place."""
        return value

    def _sample_operand(self) -> Operand | None:
        """The operand function the chunked core calls, from any thread,
        in place of the ``_operand`` hook; ``None`` when an operand does
        not quantize per sample, which keeps the forward on the whole
        batch."""
        return _identity

    def _core(self, q, k, v, bias, operand: Operand):
        """Projected ``q``/``k``/``v`` (b, T, D) of some samples, with
        their mask ``bias`` (b, 1, 1, T) or ``None``, to their context
        (b, H, T, Dh).

        Runs on Tensors (a whole batch, with autograd) or on arrays (a
        chunk of an inference batch). ``*=`` and ``+=`` make a new Tensor
        but update an array in place, and arrays take the softmax in
        place too: a chunk scales, masks and normalizes its scores in
        the one array."""
        b, T, _ = q.shape
        q = operand("q", self._split_heads(q, b, T))
        k = operand("k", self._split_heads(k, b, T))
        scores = q @ k.transpose(0, 1, 3, 2)
        scores *= 1.0 / math.sqrt(self.d_head)
        if bias is not None:
            scores += bias.astype(scores.dtype, copy=False)
        if isinstance(scores, Tensor):
            attn = ops.softmax(scores, axis=-1)
            if self.attn_dropout.training:
                attn = self.attn_dropout(attn)
        else:
            attn = ops.softmax_array(scores, out=scores)
        return operand("probs", attn) @ operand("v", self._split_heads(v, b, T))

    def _chunked_core(
        self, q: np.ndarray, k: np.ndarray, v: np.ndarray, bias, operand: Operand
    ) -> np.ndarray:
        """:meth:`_core` on arrays, over chunks of samples spread across
        CPUs, written into one merged (B, T, D) context. Helpers run no
        module, no Tensor op and no ``_operand`` hook: a timed call there
        would have no caller to charge it to."""
        B, T, _ = q.shape
        H, Dh = self.num_heads, self.d_head
        step = max(1, _CHUNK_BYTES // (H * T * T * q.itemsize))
        ctx = np.empty(q.shape, q.dtype)

        def run(lo: int, hi: int) -> None:
            for a in range(lo, hi, step):
                z = min(a + step, hi)
                heads = self._core(
                    q[a:z], k[a:z], v[a:z], None if bias is None else bias[a:z], operand
                )
                ctx[a:z].reshape(z - a, T, H, Dh)[...] = heads.transpose(0, 2, 1, 3)

        split_samples(run, B)
        return ctx

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """``x``: (B, T, D); ``mask``: optional bool (B, T) of valid positions."""
        B, T, _ = x.shape
        q, k, v = self.q_proj(x), self.k_proj(x), self.v_proj(x)
        bias = None
        if mask is not None:
            bias = np.where(np.asarray(mask)[:, None, None, :], 0.0, -1e9).astype(q.dtype)
        operand = None
        if (
            B >= SPLIT_FLOOR
            and not is_grad_enabled()
            and not (self.training or self.attn_dropout.training)
            and q.dtype == k.dtype == v.dtype == resolve_dtype(q.data)
        ):
            operand = self._sample_operand()
        if operand is None:
            heads = self._core(q, k, v, bias, self._operand)
            ctx = heads.transpose(0, 2, 1, 3).reshape(B, T, self.d_model)
        else:
            ctx = Tensor(self._chunked_core(q.data, k.data, v.data, bias, operand))
        return self.out_proj(ctx)
