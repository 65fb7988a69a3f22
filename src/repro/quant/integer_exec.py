"""True integer execution of VS-Quant layers (the hardware's arithmetic).

The fake-quantization layers in :mod:`repro.quant.qlayers` simulate
quantization in floating point. This module executes the *actual* integer
pipeline of the paper's vector MAC unit (Fig. 2b, Eq. 5):

    y(j) = [ sum_i wq(j,i) * aq(j,i) ] * swq(j) * saq(j)   (integer)
    y    = y(j) summed over vectors j, scaled by gamma_w * gamma_a (fp)

and therefore lets us:

- verify bit-exact equivalence between the fake-quant simulation and the
  integer datapath (a correctness invariant the test suite checks), and
- study the *accuracy* effect of rounding the scale product sw*sa to fewer
  bits — the knob Fig. 3 evaluates for energy and the paper leaves to
  future work for accuracy (§8). See ``benchmarks/bench_ablation_rounding``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.quant.formats import IntFormat
from repro.quant.granularity import VectorLayout
from repro.quant.two_level import TwoLevelScales, decompose_scales
from repro.quant.vsquant import per_vector_scales


@dataclass
class QuantizedTensor:
    """A tensor in two-level VS-Quant representation.

    ``codes`` are N-bit integer element values grouped per vector:
    shape (..., n_vectors, V). ``sq`` are the M-bit unsigned integer
    per-vector scales, shape (..., n_vectors). ``gamma`` is the fp
    coarse-grained scale broadcastable against ``sq``. ``axis_len`` is the
    original length of the vectorized axis (to strip padding on
    dequantization); ``layout`` records which axis was vectorized.
    """

    codes: np.ndarray
    sq: np.ndarray
    gamma: np.ndarray
    layout: VectorLayout
    axis_len: int
    fmt: IntFormat
    scale_fmt: IntFormat

    @property
    def n_vectors(self) -> int:
        return self.codes.shape[-2]

    def dequantize(self) -> np.ndarray:
        """Reconstruct the simulated-quantized real tensor (Eq. 7j)."""
        effective = (self.sq * self.gamma)[..., None]  # broadcast over V
        flat = self.codes * effective
        return self.layout.from_vectors(flat, self.axis_len)


def quantize_tensor(
    x: np.ndarray,
    layout: VectorLayout,
    fmt: IntFormat,
    scale_fmt: IntFormat,
    channel_axes: tuple[int, ...] = (),
    code_dtype: type | None = None,
) -> QuantizedTensor:
    """Quantize a real tensor into the two-level integer representation.

    Works entirely in the ``(..., n_vectors, V)`` vector view — one
    ``to_vectors`` pass instead of the expand/re-vectorize round-trip, and
    the round/clip steps reuse one temporary — which matters on the
    serving hot path where every activation tensor goes through here once
    per layer. Codes are bitwise identical to
    :func:`repro.quant.two_level.fake_quant_two_level`'s Eq. 7c codes
    (padded tail elements are zero either way; division stays float64, so
    ties round identically). ``code_dtype`` optionally stores the integer
    codes narrower (e.g. float32, exact for any width the formats allow)
    to halve downstream kernel traffic.
    """
    x = np.asarray(x)
    xv = layout.to_vectors(x)
    if xv.size:
        # absmax without materializing |xv|: max of (max, -min) per vector.
        alpha = np.maximum(xv.max(axis=-1), -xv.min(axis=-1))
    else:
        alpha = np.zeros(xv.shape[:-1])
    s_fp = per_vector_scales(x, layout, fmt, alpha=alpha)
    scales: TwoLevelScales = decompose_scales(s_fp, scale_fmt, channel_axes)
    axis_len = x.shape[layout.axis]
    codes = xv / np.maximum(s_fp, 1e-12)[..., None]
    np.rint(codes, out=codes)
    np.clip(codes, fmt.qmin, fmt.qmax, out=codes)
    if code_dtype is not None:
        codes = codes.astype(code_dtype, copy=False)
    return QuantizedTensor(
        codes=codes,
        sq=scales.sq,
        gamma=scales.gamma,
        layout=layout,
        axis_len=axis_len,
        fmt=fmt,
        scale_fmt=scale_fmt,
    )


def _im2col_cols(
    xf: np.ndarray, R: int, S: int, stride: int, padding: int
) -> tuple[np.ndarray, int, int, int]:
    """(B, H, W, C) folded activations -> im2col matrix (B*P*Q, R*S*C)."""
    B, H, W_, C = xf.shape
    P = (H + 2 * padding - R) // stride + 1
    Q = (W_ + 2 * padding - S) // stride + 1
    if padding:
        xf = np.pad(xf, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    sb, sh, sw, sc = xf.strides
    windows = np.lib.stride_tricks.as_strided(
        xf, shape=(B, P, Q, R, S, C), strides=(sb, sh * stride, sw * stride, sh, sw, sc)
    )
    return windows.reshape(B * P * Q, R * S * C), B, P, Q  # materializes patches


def _apply_gammas(acc: np.ndarray, gamma_x, gamma_w: np.ndarray, out_dtype) -> np.ndarray:
    """The one epilogue: exact integer accumulators ``(..., K)`` -> real outputs.

    ``gamma_w`` holds the K weight gammas; ``gamma_x`` is one value
    (per-tensor) or per-sample with singleton non-batch axes, so it
    broadcasts against ``acc``. ``out_dtype=None`` applies the gammas in
    float64 with the reference multiply order — ``(acc*gx)*gw`` for one
    gamma value, ``(acc*gw)*gx`` otherwise; ``out_dtype=np.float32``
    folds both into one per-output factor and multiplies once in float32.
    """
    gamma_w = np.asarray(gamma_w).reshape(acc.shape[-1])
    gamma_x = np.asarray(gamma_x)
    if out_dtype is not None:
        gx = gamma_x if gamma_x.size > 1 else float(gamma_x.reshape(-1)[0])
        scale = gx * gamma_w
        return np.multiply(acc, scale.astype(out_dtype, copy=False), dtype=out_dtype)
    acc = acc.astype(np.float64, copy=False)
    if gamma_x.size == 1:  # per-tensor: multiply by a scalar
        return acc * float(gamma_x.reshape(-1)[0]) * gamma_w
    return acc * gamma_w * gamma_x


def integer_linear_folded(
    xf: np.ndarray,
    gamma_x: np.ndarray,
    wf: np.ndarray,
    gamma_w: np.ndarray,
    out_dtype: type | None,
) -> np.ndarray:
    """GEMM over scale-folded linear operands (``codes * sq`` flattened).

    The tail of :func:`integer_linear` without rounding and of the
    ``integer`` backend, which folds ``wf`` once at prepare instead of
    per call. ``out_dtype`` as in :func:`_apply_gammas`.
    """
    acc = xf @ wf.T  # exact integers
    return _apply_gammas(acc, gamma_x, gamma_w, out_dtype)


def _nchw(acc: np.ndarray, gamma_x, gamma_w: np.ndarray, out_dtype) -> np.ndarray:
    """Scale conv accumulators ``(B, P, Q, K)`` and return contiguous NCHW."""
    out = _apply_gammas(acc, gamma_x, gamma_w, out_dtype)
    return np.ascontiguousarray(np.moveaxis(out, 3, 1))


def integer_conv2d_folded(
    xf: np.ndarray,
    gamma_x: np.ndarray,
    wf: np.ndarray,
    gamma_w: np.ndarray,
    kernel_size: int | tuple[int, int],
    stride: int,
    padding: int,
    out_dtype: type | None,
) -> np.ndarray:
    """im2col GEMM over pre-folded conv operands (the serving hot loop).

    ``xf``: (B, H, W, C) folded activation codes (a folded
    :func:`quantize_tensor` result); ``wf``: (K, R*S*C) folded weight
    codes; ``kernel_size`` is an int for square kernels or an ``(R, S)``
    pair. Equivalent to
    :func:`integer_conv2d` with ``scale_product_bits=None`` — same exact
    integer accumulators, same scaling order — minus the per-call folds.
    """
    R, S = (
        (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
    )
    cols, B, P, Q = _im2col_cols(xf, R, S, stride, padding)
    acc = cols @ wf.T
    return _nchw(acc.reshape(B, P, Q, wf.shape[0]), gamma_x, gamma_w, out_dtype)


def round_scale_product(
    product: np.ndarray, full_bits: int, product_bits: int | None
) -> np.ndarray:
    """Hardware rounder: keep the top ``product_bits`` of a ``full_bits``
    integer product by dropping LSBs with round-half-even, then shift back.

    Returns a value on the original scale (so downstream math is unchanged);
    with ``product_bits=None`` this is the identity.
    """
    if product_bits is None or product_bits >= full_bits:
        return np.asarray(product, dtype=np.float64)
    shift = 2 ** (full_bits - product_bits)
    return np.rint(np.asarray(product, dtype=np.float64) / shift) * shift


#: Largest integer float32 represents exactly (2**24); integer GEMMs whose
#: worst-case accumulator stays below this can run in single precision with
#: bitwise-identical results.
_F32_EXACT_LIMIT = float(2**24)


def exact_gemm_dtype(
    x_fmt: IntFormat,
    x_scale_fmt: IntFormat,
    w_fmt: IntFormat,
    w_scale_fmt: IntFormat,
    reduction: int,
):
    """float32 when the folded integer GEMM cannot overflow 24 bits.

    With the scales folded into the codes, every product is bounded by
    qmax_x * sqmax_x * qmax_w * sqmax_w and every partial sum by that times
    the reduction length; below 2**24 all of them are exact float32
    integers, so SGEMM (≈2x DGEMM throughput, half the im2col traffic)
    returns the same integers DGEMM would. The paper's flagship W4/A4
    S4/S4 format qualifies for every layer of the model zoo.
    """
    bound = (
        x_fmt.qmax
        * (2**x_scale_fmt.bits - 1)
        * w_fmt.qmax
        * (2**w_scale_fmt.bits - 1)
        * reduction
    )
    return np.float32 if bound < _F32_EXACT_LIMIT else np.float64


def integer_linear(
    x: QuantizedTensor,
    w: QuantizedTensor,
    scale_product_bits: int | None = None,
    out_dtype: type | None = None,
) -> np.ndarray:
    """Execute a linear layer exactly as the VS-Quant PE does (Eq. 5).

    ``x``: activations quantized along the feature axis, codes shape
    (batch..., n_vectors, V); ``w``: weights quantized along the input
    axis, codes shape (out_features, n_vectors, V). Per-vector integer
    dot products are scaled by the (optionally rounded) integer scale
    product and accumulated; the two fp gammas are applied once at the end.

    The activation gamma may be per-tensor (``channel_axes=()``, one value)
    or per-sample (``channel_axes=(0,)``, the serving engine's
    batch-invariant mode); any non-batch gamma axis must be singleton.

    ``out_dtype=None`` (default) applies the fp gammas in float64 with the
    reference operation order — the bit-consistency contract the tests pin
    down. ``out_dtype=np.float32`` is the serving engine's low-precision
    mode: the integer accumulator is still exact, but the coarse scales are
    applied as one fused float32 multiply (~1e-7 relative noise).

    Returns the real-valued output (batch..., out_features).
    """
    if x.codes.shape[-2:] != w.codes.shape[-2:]:
        raise ValueError(
            f"vector geometry mismatch: activations {x.codes.shape[-2:]} vs "
            f"weights {w.codes.shape[-2:]}"
        )
    if scale_product_bits is None:
        # Fast path: with no scale-product rounding, sq distributes into the
        # codes — every code*scale product and partial sum is a small exact
        # integer, so one GEMM over the flattened (nv, V) axis is bitwise
        # identical to the per-vector accumulation below (in float32 when
        # the 24-bit accumulator bound allows, float64 otherwise).
        nv, V = x.codes.shape[-2:]
        dt = exact_gemm_dtype(x.fmt, x.scale_fmt, w.fmt, w.scale_fmt, nv * V)
        xf = np.multiply(x.codes, x.sq[..., None], dtype=dt).reshape(
            x.codes.shape[:-2] + (-1,)
        )
        wf = np.multiply(w.codes, w.sq[..., None], dtype=dt).reshape(
            w.codes.shape[0], -1
        )
        return integer_linear_folded(xf, x.gamma, wf, w.gamma, out_dtype)
    # Integer dot product per vector: (batch..., 1, nv, V) x (K, nv, V).
    dot = np.einsum("...vi,kvi->...kv", x.codes, w.codes, optimize=True)
    product = x.sq[..., None, :] * w.sq[None, :, :]  # (batch..., K, nv)
    full_bits = x.scale_fmt.bits + w.scale_fmt.bits
    product = round_scale_product(product, full_bits, scale_product_bits)
    acc = (dot * product).sum(axis=-1)  # (batch..., K)
    return _apply_gammas(acc, x.gamma, w.gamma, out_dtype)


def integer_conv2d(
    x: QuantizedTensor,
    w: QuantizedTensor,
    stride: int = 1,
    padding: int = 0,
    scale_product_bits: int | None = None,
    out_dtype: type | None = None,
) -> np.ndarray:
    """Execute a conv layer with the VS-Quant integer pipeline.

    ``x`` quantized along C of an NCHW tensor (codes (B, H, W, nv, V)),
    ``w`` along C of a KCRS tensor (codes (K, R, S, nv, V)) — each spatial
    position owns its vectors, matching Fig. 1's V x 1 x 1 geometry. The
    per-(r, s) vector dot products are scaled by the rounded integer scale
    product and accumulated across (r, s, vectors); fp gammas apply once.
    ``out_dtype`` as in :func:`integer_linear`.

    Returns the real-valued output (B, K, P, Q).
    """
    if x.codes.ndim != 5 or w.codes.ndim != 5:
        raise ValueError("expected NCHW activations and KCRS weights quantized on C")
    B, H, W_, nv, V = x.codes.shape
    K, R, S, nvw, Vw = w.codes.shape
    if (nv, V) != (nvw, Vw):
        raise ValueError(f"vector geometry mismatch: {(nv, V)} vs {(nvw, Vw)}")
    full_bits = x.scale_fmt.bits + w.scale_fmt.bits
    P = (H + 2 * padding - R) // stride + 1
    Q = (W_ + 2 * padding - S) // stride + 1

    if scale_product_bits is None:
        # Fast path (see integer_linear): fold the integer per-vector scales
        # into the codes — all products and partial sums stay exact
        # integers, so this is bitwise identical to the rounding path with
        # rounding disabled, but runs as one im2col GEMM per layer (float32
        # when the 24-bit accumulator bound allows). Folding before padding
        # keeps the pad on the narrow flattened array.
        C2 = nv * V
        dt = exact_gemm_dtype(x.fmt, x.scale_fmt, w.fmt, w.scale_fmt, R * S * C2)
        xf = np.multiply(x.codes, x.sq[..., None], dtype=dt).reshape(B, H, W_, C2)
        wf = np.multiply(w.codes, w.sq[..., None], dtype=dt).reshape(K, R * S * C2)
        return integer_conv2d_folded(
            xf, x.gamma, wf, w.gamma, (R, S), stride, padding, out_dtype
        )
    codes = x.codes
    sq = x.sq
    if padding:
        pad_c = ((0, 0), (padding, padding), (padding, padding), (0, 0), (0, 0))
        codes = np.pad(codes, pad_c)
        sq = np.pad(sq, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    acc = np.zeros((B, P, Q, K))
    # Loop over the R x S kernel footprint (vectorized over B, P, Q, K,
    # nv): the same strided-slice structure hardware uses for weight
    # reuse.
    for r in range(R):
        for s in range(S):
            xs = codes[:, r : r + stride * P : stride, s : s + stride * Q : stride]
            ss = sq[:, r : r + stride * P : stride, s : s + stride * Q : stride]
            dot = np.einsum("bpqvi,kvi->bpqkv", xs, w.codes[:, r, s], optimize=True)
            # (B,P,Q,1,nv) x (K,nv) -> (B,P,Q,K,nv)
            product = ss[..., None, :] * w.sq[:, r, s, :]
            product = round_scale_product(product, full_bits, scale_product_bits)
            acc += (dot * product).sum(axis=-1)
    return _nchw(acc, x.gamma, w.gamma, out_dtype)
