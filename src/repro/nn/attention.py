"""Multi-head self-attention."""

from __future__ import annotations

import math

import numpy as np

from repro.nn.dropout import Dropout
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.tensor import ops
from repro.tensor.tensor import Tensor


class MultiHeadAttention(Module):
    """Standard scaled dot-product multi-head self-attention.

    The four projection layers (q/k/v/out) are plain :class:`Linear` modules
    so the quantization pass (``repro.quant.ptq``) can swap them for
    quantized equivalents — attention score arithmetic itself stays in
    higher precision, matching the paper's focus on GEMM quantization.
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
        ``probs``/``v``). Identity here; the quantized subclass
        (:class:`repro.quant.qlayers.QuantMultiHeadAttention`) fake-quantizes
        each operand, so the attention math itself lives in exactly one
        place."""
        return value

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """``x``: (B, T, D); ``mask``: optional bool (B, T) of valid positions."""
        B, T, _ = x.shape
        q = self._operand("q", self._split_heads(self.q_proj(x), B, T))
        k = self._operand("k", self._split_heads(self.k_proj(x), B, T))
        v = self._split_heads(self.v_proj(x), B, T)

        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(self.d_head))
        if mask is not None:
            bias = np.where(np.asarray(mask)[:, None, None, :], 0.0, -1e9)
            scores = scores + Tensor(bias.astype(scores.dtype, copy=False))
        attn = ops.softmax(scores, axis=-1)
        attn = self._operand("probs", self.attn_dropout(attn))
        ctx = attn @ self._operand("v", v)  # (B, H, T, Dh)
        ctx = ctx.transpose(0, 2, 1, 3).reshape(B, T, self.d_model)
        return self.out_proj(ctx)
