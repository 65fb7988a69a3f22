"""Differentiable operations beyond the :class:`Tensor` method surface.

Hot paths (convolution, pooling, softmax) use custom forward/backward pairs
written with vectorized NumPy (im2col / sliding windows) instead of composing
elementwise primitives, per the project's performance guide: the Python
interpreter should never loop over tensor elements.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special

from repro.tensor.tensor import Tensor, as_tensor, is_grad_enabled, unbroadcast
from repro.utils.parallel import map_samples

__all__ = [
    "matmul",
    "exp",
    "log",
    "sqrt",
    "tanh",
    "sigmoid",
    "relu",
    "gelu",
    "abs",
    "clip",
    "maximum",
    "minimum",
    "where",
    "softmax",
    "log_softmax",
    "logsumexp",
    "concatenate",
    "stack",
    "pad2d",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "embedding_lookup",
    "cross_entropy",
    "dropout",
]

_SQRT_2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def matmul(a, b) -> Tensor:
    """Matrix product (batched semantics of :func:`numpy.matmul`)."""
    return as_tensor(a) @ as_tensor(b)


# ----------------------------------------------------------------------
# elementwise
# ----------------------------------------------------------------------
def _unary(x, out_data: np.ndarray, dydx: np.ndarray) -> Tensor:
    x = as_tensor(x)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * dydx)

    return Tensor._make(out_data, (x,), backward)


def exp(x) -> Tensor:
    x = as_tensor(x)
    out = np.exp(x.data)
    return _unary(x, out, out)


def log(x) -> Tensor:
    x = as_tensor(x)
    return _unary(x, np.log(x.data), 1.0 / x.data)


def sqrt(x) -> Tensor:
    x = as_tensor(x)
    out = np.sqrt(x.data)
    return _unary(x, out, 0.5 / out)


def tanh(x) -> Tensor:
    x = as_tensor(x)
    out = np.tanh(x.data)
    return _unary(x, out, 1.0 - out**2)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    out = special.expit(x.data)
    return _unary(x, out, out * (1.0 - out))


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = np.maximum(x.data, 0.0)
    if not is_grad_enabled():
        # Inference hot path: skip materializing the gradient mask (two
        # full passes over the activation that no_grad would discard).
        return Tensor._make(out, (x,), None)
    return _unary(x, out, (x.data > 0).astype(x.data.dtype))


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + special.erf(x / _SQRT_2))


def _gelu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.multiply(x, _gelu_cdf(x), out=out)


def gelu(x) -> Tensor:
    """Exact GELU: ``0.5 x (1 + erf(x / sqrt(2)))``."""
    x = as_tensor(x)
    if not is_grad_enabled():
        # Inference: no derivative, and the batch splits across CPUs.
        return Tensor._make(map_samples(_gelu, x.data), (x,), None)
    cdf = _gelu_cdf(x.data)
    out = x.data * cdf
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.data**2)
    return _unary(x, out, cdf + x.data * pdf)


def abs(x) -> Tensor:  # noqa: A001 - mirrors numpy naming
    x = as_tensor(x)
    return _unary(x, np.abs(x.data), np.sign(x.data))


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp with zero gradient outside ``[lo, hi]``."""
    x = as_tensor(x)
    out = np.clip(x.data, lo, hi)
    inside = ((x.data >= lo) & (x.data <= hi)).astype(x.data.dtype)
    return _unary(x, out, inside)


def maximum(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = np.maximum(a.data, b.data)

    def backward(g: np.ndarray) -> None:
        a_wins = (a.data >= b.data).astype(g.dtype)
        if a.requires_grad:
            a._accumulate(unbroadcast(g * a_wins, a.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(g * (1.0 - a_wins), b.shape))

    return Tensor._make(out, (a, b), backward)


def minimum(a, b) -> Tensor:
    return -maximum(-as_tensor(a), -as_tensor(b))


def where(cond, a, b) -> Tensor:
    """Elementwise select; ``cond`` is a boolean array (non-differentiable)."""
    cond = np.asarray(cond.data if isinstance(cond, Tensor) else cond, dtype=bool)
    a, b = as_tensor(a), as_tensor(b)
    out = np.where(cond, a.data, b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(np.where(cond, g, 0.0), a.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(np.where(cond, 0.0, g), b.shape))

    return Tensor._make(out, (a, b), backward)


# ----------------------------------------------------------------------
# normalizers
# ----------------------------------------------------------------------
def softmax_array(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax of an array, without autograd, into ``out`` (which may be
    ``x`` itself) or a new array; the steps after the max run in place.

    The max reduces a copy with ``axis`` first, across rows: numpy takes
    a short contiguous axis row by row, about 3x slower (48 keys). A max
    is exact in any order; only the sign of a zero max can differ, and
    ``exp`` maps both zero signs to 1."""
    rows = np.ascontiguousarray(np.moveaxis(x, axis, 0))
    peak = np.expand_dims(np.maximum.reduce(rows, axis=0), axis)
    shifted = np.subtract(x, peak, out=out)
    np.exp(shifted, out=shifted)
    return np.divide(shifted, shifted.sum(axis=axis, keepdims=True), out=shifted)


def softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    if not is_grad_enabled() and x.ndim and axis % x.ndim:
        # Inference over a non-batch axis: the batch splits across CPUs.
        out = map_samples(lambda xs, out=None: softmax_array(xs, axis, out), x.data)
        return Tensor._make(out, (x,), None)
    out = softmax_array(x.data, axis)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            inner = (g * out).sum(axis=axis, keepdims=True)
            x._accumulate(out * (g - inner))

    return Tensor._make(out, (x,), backward)


def log_softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g - np.exp(out) * g.sum(axis=axis, keepdims=True))

    return Tensor._make(out, (x,), backward)


def logsumexp(x, axis: int = -1, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    m = x.data.max(axis=axis, keepdims=True)
    s = np.exp(x.data - m).sum(axis=axis, keepdims=True)
    out_k = m + np.log(s)
    out = out_k if keepdims else np.squeeze(out_k, axis=axis)
    soft = np.exp(x.data - out_k)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            gk = g if keepdims else np.expand_dims(g, axis)
            x._accumulate(gk * soft)

    return Tensor._make(out, (x,), backward)


# ----------------------------------------------------------------------
# structural
# ----------------------------------------------------------------------
def concatenate(tensors: Sequence, axis: int = 0) -> Tensor:
    parts = [as_tensor(t) for t in tensors]
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if part.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                part._accumulate(g[tuple(sl)])

    return Tensor._make(out, tuple(parts), backward)


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    parts = [as_tensor(t) for t in tensors]
    out = np.stack([p.data for p in parts], axis=axis)

    def backward(g: np.ndarray) -> None:
        for i, part in enumerate(parts):
            if part.requires_grad:
                part._accumulate(np.take(g, i, axis=axis))

    return Tensor._make(out, tuple(parts), backward)


def pad2d(x, pad: int) -> Tensor:
    """Zero-pad the last two (spatial) axes of an NCHW tensor."""
    x = as_tensor(x)
    if pad == 0:
        return x
    width = [(0, 0)] * (x.ndim - 2) + [(pad, pad), (pad, pad)]
    out = np.pad(x.data, width)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            sl = (Ellipsis, slice(pad, -pad), slice(pad, -pad))
            x._accumulate(g[sl])

    return Tensor._make(out, (x,), backward)


# ----------------------------------------------------------------------
# convolution / pooling (im2col)
# ----------------------------------------------------------------------
def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """(B, C, Hp, Wp) -> (B, P, Q, C, kh, kw) view of sliding windows."""
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # (B, C, P, Q, kh, kw)
    return windows.transpose(0, 2, 3, 1, 4, 5)


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation over NCHW input.

    ``x``: (B, C, H, W); ``weight``: (K, C, R, S); ``bias``: (K,) or None.
    Forward uses an im2col GEMM; backward scatters column gradients back
    with R*S strided adds (no per-element Python loops).
    """
    x, weight = as_tensor(x), as_tensor(weight)
    bias_t = as_tensor(bias) if bias is not None else None
    B, C, H, W = x.shape
    K, Cw, R, S = weight.shape
    if C != Cw:
        raise ValueError(f"input channels {C} != weight channels {Cw}")
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    P = (H + 2 * padding - R) // stride + 1
    Q = (W + 2 * padding - S) // stride + 1
    cols = _im2col(xp, R, S, stride).reshape(B, P * Q, C * R * S)
    wmat = weight.data.reshape(K, C * R * S)
    out = cols @ wmat.T  # (B, P*Q, K)
    out = out.transpose(0, 2, 1).reshape(B, K, P, Q)
    if bias_t is not None:
        out = out + bias_t.data.reshape(1, K, 1, 1)

    parents = (x, weight) + ((bias_t,) if bias_t is not None else ())

    def backward(g: np.ndarray) -> None:
        gmat = g.reshape(B, K, P * Q).transpose(0, 2, 1)  # (B, P*Q, K)
        if bias_t is not None and bias_t.requires_grad:
            bias_t._accumulate(g.sum(axis=(0, 2, 3)))
        if weight.requires_grad:
            gw = np.einsum("bpk,bpc->kc", gmat, cols, optimize=True)
            weight._accumulate(gw.reshape(weight.shape))
        if x.requires_grad:
            gcols = gmat @ wmat  # (B, P*Q, C*R*S)
            gcols = gcols.reshape(B, P, Q, C, R, S)
            gxp = np.zeros_like(xp)
            for r in range(R):
                for s in range(S):
                    gxp[:, :, r : r + stride * P : stride, s : s + stride * Q : stride] += (
                        gcols[:, :, :, :, r, s].transpose(0, 3, 1, 2)
                    )
            if padding:
                gxp = gxp[:, :, padding:-padding, padding:-padding]
            x._accumulate(gxp)

    return Tensor._make(out, parents, backward)


def max_pool2d(x, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over NCHW spatial dims."""
    x = as_tensor(x)
    stride = stride or kernel
    B, C, H, W = x.shape
    P = (H - kernel) // stride + 1
    Q = (W - kernel) // stride + 1
    windows = sliding_window_view(x.data, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride].reshape(B, C, P, Q, kernel * kernel)
    am = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, am[..., None], axis=-1)[..., 0]

    def backward(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        r_off, s_off = np.unravel_index(am, (kernel, kernel))
        bi, ci, pi, qi = np.ogrid[:B, :C, :P, :Q]
        hh = pi * stride + r_off
        ww = qi * stride + s_off
        gx = np.zeros_like(x.data)
        np.add.at(gx, (np.broadcast_to(bi, am.shape), np.broadcast_to(ci, am.shape), hh, ww), g)
        x._accumulate(gx)

    return Tensor._make(out, (x,), backward)


def avg_pool2d(x, kernel: int, stride: int | None = None) -> Tensor:
    """Average pooling over NCHW spatial dims."""
    x = as_tensor(x)
    stride = stride or kernel
    B, C, H, W = x.shape
    P = (H - kernel) // stride + 1
    Q = (W - kernel) // stride + 1
    windows = sliding_window_view(x.data, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    out = windows.mean(axis=(-2, -1))
    inv = 1.0 / (kernel * kernel)

    def backward(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gx = np.zeros_like(x.data)
        for r in range(kernel):
            for s in range(kernel):
                gx[:, :, r : r + stride * P : stride, s : s + stride * Q : stride] += g * inv
        x._accumulate(gx)

    return Tensor._make(out, (x,), backward)


# ----------------------------------------------------------------------
# nlp / training helpers
# ----------------------------------------------------------------------
def embedding_lookup(table, indices) -> Tensor:
    """Gather rows of ``table`` (V, D) at integer ``indices`` (...,)."""
    idx = np.asarray(indices.data if isinstance(indices, Tensor) else indices)
    return as_tensor(table)[idx.astype(np.int64)]


def cross_entropy(logits, targets) -> Tensor:
    """Mean cross-entropy of ``logits`` (..., n_classes) vs int ``targets``.

    Positions with a target of ``-1`` are ignored (masked padding).
    """
    logits = as_tensor(logits)
    tgt = np.asarray(targets.data if isinstance(targets, Tensor) else targets)
    tgt = tgt.astype(np.int64)
    flat_logits = logits.data.reshape(-1, logits.shape[-1])
    flat_tgt = tgt.reshape(-1)
    keep = flat_tgt >= 0
    count = max(int(keep.sum()), 1)

    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse
    picked = np.where(keep, logp[np.arange(flat_tgt.size), np.clip(flat_tgt, 0, None)], 0.0)
    out = -picked.sum() / count

    def backward(g: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        soft = np.exp(logp)
        soft[np.arange(flat_tgt.size), np.clip(flat_tgt, 0, None)] -= 1.0
        soft[~keep] = 0.0
        logits._accumulate((g * soft / count).reshape(logits.shape))

    return Tensor._make(np.asarray(out), (logits,), backward)


def dropout(x, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    x = as_tensor(x)
    if not training or p <= 0.0:
        return x
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)
