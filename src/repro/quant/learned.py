"""Learned scale factors for QAT (the paper's §8 future work).

The paper trains weights *through* fixed max-calibrated quantizers and
explicitly defers "extend QAT to learn per-vector scale factors" to future
work. This module implements that extension with the LSQ estimator
(Esser et al., "Learned Step Size Quantization", ICLR 2020):

    y = s * clip(round(w / s), qmin, qmax)

with straight-through gradients for round/clip:

    dy/dw = 1                      if qmin <= w/s <= qmax else 0
    dy/ds = round(w/s) - w/s       if in range
          = qmin or qmax           if clipped low/high

Scales are stored as log-scale parameters so gradient descent keeps them
positive, one per vector of the weight tensor (shape: channels x
n_vectors) — the per-vector granularity of the paper with trainable
instead of calibrated values.
"""

from __future__ import annotations


import numpy as np

from repro import nn
from repro.quant.formats import IntFormat
from repro.quant.granularity import VectorLayout
from repro.quant.vsquant import per_vector_scales
from repro.tensor.tensor import Tensor


def lsq_fake_quant(w: Tensor, scale: Tensor, fmt: IntFormat) -> Tensor:
    """Differentiable fake-quant with LSQ gradients for the scale.

    ``w`` and ``scale`` must broadcast; the output has ``w``'s shape.
    """
    w_data = w.data
    s_data = scale.data
    ratio = w_data / s_data
    q = np.clip(np.rint(ratio), fmt.qmin, fmt.qmax)
    out = q * s_data

    low = ratio < fmt.qmin
    high = ratio > fmt.qmax
    inside = ~(low | high)

    def backward(g: np.ndarray) -> None:
        if w.requires_grad:
            w._accumulate(g * inside)
        if scale.requires_grad:
            ds = np.where(inside, q - ratio, np.where(low, fmt.qmin, fmt.qmax))
            from repro.tensor.tensor import unbroadcast

            scale._accumulate(unbroadcast(g * ds, scale.shape))

    return Tensor._make(out, (w, scale), backward)


class LearnedScaleWeightQuantizer(nn.Module):
    """Per-vector weight quantizer with *trained* scale factors.

    Initialized from max calibration (Eq. 7b) on the layer's weight, then
    the per-vector scales move with SGD alongside the weights via the LSQ
    scale gradient of :func:`lsq_fake_quant`.
    """

    def __init__(self, weight: np.ndarray, vector_size: int, fmt: IntFormat,
                 vector_axis: int = 1):
        super().__init__()
        self.fmt = fmt
        self.layout = VectorLayout(axis=vector_axis, vector_size=vector_size)
        init = per_vector_scales(np.asarray(weight), self.layout, fmt)
        self.log_scale = nn.Parameter(np.log(np.maximum(init, 1e-8)))

    def expanded_scale(self, axis_len: int) -> Tensor:
        """Positive per-element scale tensor from the log parameters.

        Built as a differentiable gather: each element indexes its vector's
        scale, so scale gradients from all V elements accumulate onto one
        parameter (getitem's backward is a scatter-add).
        """
        from repro.tensor import ops

        s_vec = ops.exp(self.log_scale)
        idx = np.arange(axis_len) // self.layout.vector_size
        moved = s_vec[..., idx]  # (..., axis_len) gather along last axis
        # Move the expanded axis back into its original position.
        order = list(range(moved.ndim))
        last = order.pop(-1)
        order.insert(self.layout.axis % moved.ndim, last)
        return moved.transpose(*order)

    def forward(self, weight: Tensor) -> Tensor:
        s = self.expanded_scale(weight.shape[self.layout.axis])
        return lsq_fake_quant(weight, s, self.fmt)


def attach_learned_scales(qmodel: nn.Module, fmt_bits: int, vector_size: int = 16) -> int:
    """Replace max-calibrated weight quantizers with learned-scale ones.

    Operates on a model produced by :func:`repro.quant.ptq.quantize_model`;
    returns the number of layers converted. The new quantizers' scale
    parameters join ``qmodel.parameters()`` automatically, so any existing
    training loop trains them.
    """
    from repro.quant.qlayers import quant_layers

    count = 0
    for _, module in quant_layers(qmodel):
        if module.spec.kind in ("conv2d", "linear"):
            module.weight_quantizer = LearnedScaleWeightQuantizer(
                module.weight.data,
                vector_size=vector_size,
                fmt=IntFormat(fmt_bits, signed=True),
            )
            count += 1
    return count
