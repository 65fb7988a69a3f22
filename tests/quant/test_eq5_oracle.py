"""Every integer execution backend against a slow Eq. 5 oracle, bitwise.

The backends share ``quantize_tensor``, ``exact_gemm_dtype`` and the
folded GEMM tail, so comparing them with each other cannot catch a fault
in that shared code. The oracle below is written from the paper instead
and imports nothing from ``repro.quant.integer_exec``, ``two_level``,
``vsquant`` or ``granularity``. Per vector of ``V`` elements along the
reduction axis (zero-padded at the tail):

- ``s = max(absmax / qmax, 1e-12)``;
- ``gamma = max(max(s) / sqmax, 1e-30)`` over the coarse axes (the whole
  tensor, one sample, or one output channel of the weights), then
  ``sq = clip(rint(s / gamma), 0, sqmax)``;
- ``codes = clip(rint(x / s), qmin, qmax)``;
- an int64 dot product per vector, times ``sq_x * sq_w`` (optionally
  rounded half-to-even to ``scale_product_bits``), summed in int64;
- the epilogue of ``docs/compile.md``: with a float32 output one fused
  multiply by ``float32(gamma_x * gamma_w)``; in float64
  ``(acc * gamma_x) * gamma_w`` for one activation gamma,
  ``(acc * gamma_w) * gamma_x`` for one per sample; then the bias.

The scale steps run in the activation's own float type, which is float32
in a float32 engine and float64 otherwise; weights are quantized in
float64. Codes, dot products and accumulators are int64 throughout.

The walk runs over :func:`~repro.quant.backends.backend_names`, so a
backend registered later is checked here with no new test. Backends the
host cannot run are skipped.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest

from repro import nn
from repro.quant import PTQConfig
from repro.quant.backends import QuantBackendError, backend_available, backend_names
from repro.quant.plan import get_handler
from repro.tensor.tensor import Tensor, no_grad


class Fmt(NamedTuple):
    """An element format plus the bit width of its unsigned per-vector scale."""

    bits: int
    scale_bits: int
    signed: bool = True

    @property
    def qmax(self) -> int:
        return 2 ** (self.bits - 1) - 1

    @property
    def qmin(self) -> int:
        return -self.qmax if self.signed else 0

    @property
    def sqmax(self) -> int:
        return 2**self.scale_bits - 1


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def _vectors(x: np.ndarray, axis: int, V: int) -> np.ndarray:
    """Move ``axis`` last, zero-pad it to whole vectors: ``(..., nv, V)``."""
    x = np.moveaxis(x, axis, -1)
    L = x.shape[-1]
    nv = -(-L // V)
    padded = np.zeros(x.shape[:-1] + (nv * V,), dtype=x.dtype)
    padded[..., :L] = x
    return padded.reshape(x.shape[:-1] + (nv, V))


def oracle_quantize(xv: np.ndarray, fmt: Fmt, keep_axis0: bool):
    """Two-level quantization of vectors ``(..., nv, V)``.

    Returns int64 codes, int64 ``sq`` ``(..., nv)`` and ``gamma``, one
    value per leading index when ``keep_axis0`` (per sample, or per
    output channel for weights), else one value for the whole tensor.
    """
    ft = xv.dtype.type
    a = np.abs(xv).max(axis=-1)
    s = np.maximum(a / ft(fmt.qmax), ft(1e-12))
    coarse = tuple(range(1 if keep_axis0 else 0, s.ndim))
    gamma = np.maximum(s.max(axis=coarse, keepdims=True) / ft(fmt.sqmax), ft(1e-30))
    sq = np.clip(np.rint(s / gamma), 0, fmt.sqmax).astype(np.int64)
    codes = np.clip(np.rint(xv / s[..., None]), fmt.qmin, fmt.qmax).astype(np.int64)
    return codes, sq, gamma


def oracle_scale_product(product: np.ndarray, full_bits: int, product_bits: int | None):
    """Keep the top ``product_bits`` of an integer product, round half to even."""
    if product_bits is None or product_bits >= full_bits:
        return product
    shift = 2 ** (full_bits - product_bits)
    q, r = np.divmod(product, shift)
    up = (2 * r > shift) | ((2 * r == shift) & (q % 2 == 1))
    return (q + up) * shift


def oracle_epilogue(acc, gamma_x, gamma_w, bias, out_dtype, one_gamma: bool):
    """Real outputs from int64 accumulators; ``gamma_x``, ``gamma_w`` and
    ``bias`` broadcast against ``acc``. ``one_gamma``: the activations
    carry a single gamma (per-tensor, or per-sample with one sample)."""
    acc = acc.astype(np.float64)
    gamma_x = np.asarray(gamma_x, dtype=np.float64)
    if out_dtype is not None:
        scale = (gamma_x * gamma_w).astype(out_dtype)
        out = acc.astype(out_dtype) * scale
    elif one_gamma:
        out = acc * gamma_x * gamma_w
    else:
        out = acc * gamma_w * gamma_x
    if bias is not None:
        out = out + bias
    return out


def oracle_linear(x, w, bias, V, afmt, wfmt, per_sample, out_dtype, product_bits):
    """Eq. 5 for ``x (B, ..., F) @ w (K, F).T + bias``."""
    xc, xsq, xg = oracle_quantize(_vectors(x, -1, V), afmt, keep_axis0=per_sample)
    wc, wsq, wg = oracle_quantize(_vectors(w.astype(np.float64), 1, V), wfmt, True)
    dot = np.einsum("...ji,kji->...kj", xc, wc)  # int64 per-vector dots
    prod = oracle_scale_product(
        xsq[..., None, :] * wsq, afmt.scale_bits + wfmt.scale_bits, product_bits
    )
    acc = (dot * prod).sum(axis=-1)
    one_gamma = not per_sample or x.shape[0] == 1
    if bias is not None and out_dtype is not None:
        bias = bias.astype(out_dtype)
    return oracle_epilogue(acc, xg, wg.reshape(-1), bias, out_dtype, one_gamma)


def oracle_conv2d(x, w, bias, V, afmt, wfmt, stride, padding, per_sample, out_dtype,
                  product_bits):
    """Eq. 5 for an NCHW convolution, one output position at a time."""
    B, C, H, W = x.shape
    K, _, R, S = w.shape
    xc, xsq, xg = oracle_quantize(_vectors(x, 1, V), afmt, keep_axis0=per_sample)
    wc, wsq, wg = oracle_quantize(_vectors(w.astype(np.float64), 1, V), wfmt, True)
    # xc (B, H, W, nv, V), wc (K, R, S, nv, V)
    full_bits = afmt.scale_bits + wfmt.scale_bits
    P = (H + 2 * padding - R) // stride + 1
    Q = (W + 2 * padding - S) // stride + 1
    acc = np.zeros((B, K, P, Q), dtype=np.int64)
    for p in range(P):
        for q in range(Q):
            for r in range(R):
                for s in range(S):
                    h = p * stride + r - padding
                    col = q * stride + s - padding
                    if not (0 <= h < H and 0 <= col < W):
                        continue  # zero padding contributes nothing
                    dot = np.einsum("bji,kji->bkj", xc[:, h, col], wc[:, r, s])
                    prod = oracle_scale_product(
                        xsq[:, h, col][:, None, :] * wsq[:, r, s][None], full_bits,
                        product_bits,
                    )
                    acc[:, :, p, q] += (dot * prod).sum(axis=-1)
    one_gamma = not per_sample or B == 1
    if bias is not None and out_dtype is not None:
        bias = bias.astype(out_dtype)
    return oracle_epilogue(
        acc,
        xg.reshape(-1, 1, 1, 1),
        wg.reshape(1, K, 1, 1),
        None if bias is None else bias[None, :, None, None],
        out_dtype,
        one_gamma,
    )


def oracle_embedding(indices, w, V, wfmt, out_dtype):
    """Rows of the two-level table ``codes * (sq * gamma)``."""
    D = w.shape[1]
    codes, sq, gamma = oracle_quantize(_vectors(w.astype(np.float64), 1, V), wfmt, True)
    table = codes * (sq * gamma)[..., None]
    table = table.reshape(w.shape[0], -1)[:, :D]
    if out_dtype is not None:
        table = table.astype(out_dtype)
    return table[indices]


# ----------------------------------------------------------------------
# the registry walk
# ----------------------------------------------------------------------
V = 16

#: name -> (weight bits, act bits, weight scale bits, act scale bits)
FORMATS = {"w4a4-s4s4": (4, 4, 4, 4), "w8a8-s4s6": (8, 8, 4, 6)}

#: name -> (float module factory, per-sample input shape). Channel and
#: feature counts that are not multiples of V exercise the zero-padded
#: tail vector; the embedding input is a batch of 7 token ids.
LAYERS = {
    "linear": (lambda rng: nn.Linear(40, 12, rng=rng), (40,)),
    "linear-seq": (lambda rng: nn.Linear(32, 24, rng=rng), (5, 32)),
    "conv1x1": (lambda rng: nn.Conv2d(20, 8, 1, rng=rng), (20, 7, 7)),
    "conv1x1-s2": (lambda rng: nn.Conv2d(16, 8, 1, stride=2, rng=rng), (16, 7, 7)),
    "conv3x3-p1": (lambda rng: nn.Conv2d(32, 8, 3, padding=1, rng=rng), (32, 7, 7)),
    "conv3x3-s2-p1": (
        lambda rng: nn.Conv2d(24, 6, 3, stride=2, padding=1, rng=rng), (24, 7, 7)
    ),
    "conv3x3-s2-p0": (lambda rng: nn.Conv2d(16, 5, 3, stride=2, rng=rng), (16, 7, 7)),
    "embedding": (lambda rng: nn.Embedding(12, 40, rng=rng), (7,)),
}

KINDS = {nn.Linear: "linear", nn.Conv2d: "conv2d", nn.Embedding: "embedding"}

BATCHES = (1, 3, 17)

ORACLE_BACKENDS = [name for name in backend_names() if name != "fakequant"]


def _inputs(kind: str, shape: tuple, rng, dtype) -> np.ndarray:
    if kind == "embedding":
        return rng.integers(0, 12, shape)
    # Magnitudes vary per channel (conv) or per element (linear), so the
    # per-vector scales differ.
    x = rng.standard_normal(shape) * rng.uniform(0.1, 4.0, shape[:2] + (1,) * (len(shape) - 2))
    # All-zero vectors in sample 0 hit the 1e-12 scale floor.
    if kind == "linear":
        x[0, ..., :V] = 0.0
    else:
        x[0, :V] = 0.0
    return x.astype(dtype)


def _oracle(layer, module, x, fmt, per_sample, out_dtype, product_bits):
    wbits, abits, wsbits, asbits = FORMATS[fmt]
    wfmt, afmt = Fmt(wbits, wsbits), Fmt(abits, asbits)
    w = module.weight.data
    bias = None if getattr(module, "bias", None) is None else module.bias.data
    if layer.kind == "embedding":
        return oracle_embedding(x, w, V, wfmt, out_dtype)
    if layer.kind == "linear":
        return oracle_linear(x, w, bias, V, afmt, wfmt, per_sample, out_dtype, product_bits)
    return oracle_conv2d(
        x, w, bias, V, afmt, wfmt, module.stride, module.padding, per_sample, out_dtype,
        product_bits,
    )


@pytest.mark.parametrize("backend", ORACLE_BACKENDS)
@pytest.mark.parametrize("layer_name", sorted(LAYERS))
@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("per_sample", [False, True])
@pytest.mark.parametrize("product_bits", [None, 4, 6])
def test_backend_equals_oracle(
    backend, layer_name, fmt, precision, per_sample, product_bits, rng
):
    if not backend_available(backend):
        pytest.skip(f"backend {backend!r} is unavailable on this host")
    factory, sample_shape = LAYERS[layer_name]
    module = factory(rng)
    if getattr(module, "bias", None) is not None:
        # Float modules start with zero bias, which no epilogue order gets wrong.
        module.bias.data = rng.standard_normal(module.bias.data.shape) * 3.0
    kind = KINDS[type(module)]
    wbits, abits, wsbits, asbits = FORMATS[fmt]
    config = PTQConfig.vs_quant(
        wbits, abits, weight_scale=str(wsbits), act_scale=str(asbits), vector_size=V,
        embeddings=True,
    )
    handler = get_handler(kind)
    layer = handler.build(module, handler.plan(layer_name, module, config))
    out_dtype = np.float32 if precision == "float32" else None
    try:
        layer.set_backend(
            backend, per_sample_scale=per_sample, scale_product_bits=product_bits,
            out_dtype=out_dtype,
        )
    except QuantBackendError:
        # Only backends that fold the per-vector scales may refuse rounding;
        # the reference backend must run it.
        assert backend != "integer" and product_bits is not None
        pytest.skip(f"backend {backend!r} does not round the scale product")
    for batch in BATCHES:
        x = _inputs(kind, (batch, *sample_shape), rng, np.dtype(precision))
        with no_grad():
            got = layer(Tensor(x) if kind != "embedding" else x).data
        want = _oracle(layer, module, x, fmt, per_sample, out_dtype, product_bits)
        assert got.dtype == want.dtype, f"B={batch}"
        np.testing.assert_array_equal(got, want, err_msg=f"B={batch}")
