"""Normalization layers: BatchNorm2d (running stats) and LayerNorm, plus
:func:`conv_bn`, the conv -> BatchNorm [-> + residual] [-> ReLU] step."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor import ops
from repro.tensor.tensor import Tensor, as_tensor, is_grad_enabled
from repro.utils.parallel import map_samples


class BatchNorm2d(Module):
    """Batch normalization over NCHW channels.

    Training mode normalizes with batch statistics and maintains exponential
    running averages; eval mode uses the running statistics (this is the mode
    PTQ calibration and quantized inference run in).
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features))
        self.bias = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW input, got shape {x.shape}")
        if self.training:
            mean = x.mean(axis=(0, 2, 3), keepdims=True)
            var = x.var(axis=(0, 2, 3), keepdims=True)
            m = self.momentum
            self.set_buffer(
                "running_mean",
                (1 - m) * self.running_mean + m * mean.data.reshape(-1),
            )
            self.set_buffer(
                "running_var",
                (1 - m) * self.running_var + m * var.data.reshape(-1),
            )
            inv = (var + self.eps) ** -0.5
            w = self.weight.reshape(1, -1, 1, 1)
            b = self.bias.reshape(1, -1, 1, 1)
            return (x - mean) * inv * w + b
        scale, shift = self.eval_affine()
        if not is_grad_enabled():
            s, b = scale.data, shift.data

            def affine(xs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
                # The product goes straight into ``out`` when it has the
                # product's dtype, so a split range allocates nothing.
                inplace = out is not None and out.dtype == np.result_type(xs, s)
                return np.add(np.multiply(xs, s, out=out if inplace else None), b, out=out)

            return Tensor(map_samples(affine, as_tensor(x).data))
        return x * scale + shift

    def eval_affine(self) -> tuple[Tensor, Tensor]:
        """The eval-mode ``(scale, shift)``, each shaped ``(1, C, 1, 1)``,
        with ``bn(x) == x * scale + shift`` (rounded in that order).

        Running stats are constants, so the whole affine folds into one
        per-channel pair: two passes over the activation instead of four
        (the serving engine's inference hot path). The weight/bias
        Tensors stay in the chain so QAT-style finetuning of a
        frozen-stats model still receives gradients. The compiled conv
        kernel applies the same pair in its output pass (:func:`conv_bn`).
        """
        inv = (Tensor(self.running_var.reshape(1, -1, 1, 1)) + self.eps) ** -0.5
        scale = self.weight.reshape(1, -1, 1, 1) * inv
        shift = self.bias.reshape(1, -1, 1, 1) - Tensor(
            self.running_mean.reshape(1, -1, 1, 1)
        ) * scale
        return scale, shift


@dataclass(frozen=True)
class OutputPass:
    """What :func:`conv_bn` finishes a conv output with: ``bn``, then
    ``+ residual``, then ReLU. Calling it runs that generic expression;
    a conv that fuses the pass (the compiled kernel) applies
    ``bn.eval_affine()`` and the rest in its own output loop instead."""

    bn: BatchNorm2d
    residual: Tensor | np.ndarray | None = None
    relu: bool = False

    def __call__(self, out: Tensor) -> Tensor:
        return self.finish(self.bn(out))

    def finish(self, normed: Tensor) -> Tensor:
        """The steps after the BatchNorm."""
        if self.residual is not None:
            normed = normed + self.residual
        return ops.relu(normed) if self.relu else normed


def conv_bn(conv: Module, bn: BatchNorm2d, x, residual=None, relu: bool = False) -> Tensor:
    """``relu(bn(conv(x)) + residual)``, the residual and ReLU optional.

    Under ``no_grad`` with an eval-mode ``bn``, a conv whose
    ``fuses_output_pass`` is true (a compiled quantized conv holding a
    kernel plan) gets the :class:`OutputPass` as ``conv(x, post=...)``
    and returns the finished output; its result is bitwise equal to the
    generic expression every other case runs (training, fake-quant, the
    numpy ``integer`` backend, float convs).
    """
    post = OutputPass(bn, residual, relu)
    if not is_grad_enabled() and not bn.training and getattr(conv, "fuses_output_pass", False):
        return conv(x, post=post)
    # Not post(conv(x)): the conv output would then stay alive until the
    # ReLU returns, one activation more at the peak.
    return post.finish(bn(conv(x)))


class LayerNorm(Module):
    """Layer normalization over the trailing feature dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(np.ones(normalized_shape))
        self.bias = Parameter(np.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        if not is_grad_enabled():
            data = as_tensor(x).data
            if data.ndim > 1:  # axis 0 is then never the normalized axis
                return Tensor(map_samples(self._normalize, data))
            return Tensor(self._normalize(data))
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normed = (x - mean) * (var + self.eps) ** -0.5
        return normed * self.weight + self.bias

    def _normalize(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The inference forward on arrays: the Tensor path's numpy
        operations, with the mean and ``x - mean`` computed once."""
        inv_n = 1.0 / x.shape[-1]
        mean = x.sum(axis=-1, keepdims=True) * inv_n
        centered = x - mean
        var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
        normed = centered * (var + self.eps) ** -0.5
        return np.add(normed * self.weight.data, self.bias.data, out=out)
