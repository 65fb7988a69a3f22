"""Pluggable execution backends for the unified quantized layer.

A :class:`repro.quant.qlayers.QuantizedLayer` owns *what* to quantize (its
:class:`~repro.quant.plan.LayerQuantSpec` + quantizers); an
:class:`ExecutionBackend` owns *how* the layer computes. Three ship:

``fakequant``
    Simulated quantization in floating point (the PTQ/QAT path): quantize
    operands with the layer's :class:`~repro.quant.quantizer.Quantizer`
    objects, then run the float kernel. Differentiable via STE.
``integer``
    The true integer datapath of :mod:`repro.quant.integer_exec` (Eq. 5):
    dynamic activation quantization into N-bit codes + M-bit per-vector
    scales, integer GEMMs, fp coarse scales applied once. Weight codes
    are scale-folded once at prepare time; activations are quantized by
    :func:`~repro.quant.integer_exec.quantize_tensor` and folded per call.
    With the ``scale_product_bits`` hardware rounding knob set, the
    weights stay unfolded and the per-vector rounding path runs instead.
``compiled``
    ``integer`` with each linear and conv layer's quantize/GEMM/epilogue
    pipeline lowered to one fused C kernel, compiled at runtime with the
    system ``cc`` and loaded via ctypes (:mod:`repro.compile`);
    embeddings run the numpy path. Bitwise identical to ``integer``;
    refuses ``scale_product_bits``; registers as *unavailable* when no
    working compiler is present (see :func:`resolve_backend`).

Backends are selected **per layer at runtime** via
:meth:`QuantizedLayer.set_backend`; registering a new backend is one
``register_backend`` call — no parallel class hierarchy per layer type.
A backend may additionally report runtime availability (``available`` /
``probe``): selecting an unavailable backend via ``set_backend`` raises,
while the engine-level :func:`resolve_backend` degrades to ``integer``
with a single process-wide warning.
"""

from __future__ import annotations

import numpy as np

from repro.quant.granularity import Granularity, VectorLayout
from repro.quant.integer_exec import (
    QuantizedTensor,
    exact_gemm_dtype,
    integer_conv2d,
    integer_conv2d_folded,
    integer_linear,
    integer_linear_folded,
    quantize_tensor,
)
from repro.quant.quantizer import QuantSpec, ScaleKind
from repro.tensor import ops
from repro.tensor.tensor import Tensor
from repro.utils.log import get_logger

logger = get_logger("quant.backends")


class QuantBackendError(RuntimeError):
    """Raised when a layer cannot run under the requested backend."""


class ExecutionBackend:
    """How a :class:`QuantizedLayer` of any kind executes its forward."""

    name: str = ""

    def prepare(self, layer) -> None:
        """One-time per-layer setup when the backend is (re)selected."""

    def available(self) -> bool:
        """Whether this backend can run in the current environment."""
        return True

    def probe(self) -> dict:
        """Diagnostic availability detail (``repro inspect`` report)."""
        return {"available": self.available()}

    def fuses_output_pass(self, layer) -> bool:
        """Whether ``run_conv2d(layer, x, post)`` applies the
        :func:`repro.nn.conv_bn` output pass ``post`` itself."""
        return False

    def run(self, layer, x):
        fn = getattr(self, f"run_{layer.spec.kind}", None)
        if fn is None:
            raise QuantBackendError(
                f"backend {self.name!r} does not support layer kind "
                f"{layer.spec.kind!r} ({layer.spec.name or 'unnamed'})"
            )
        return fn(layer, x)


_BACKENDS: dict[str, ExecutionBackend] = {}


def register_backend(backend: ExecutionBackend) -> None:
    _BACKENDS[backend.name] = backend


def get_backend(name: str) -> ExecutionBackend:
    if name not in _BACKENDS:
        raise QuantBackendError(
            f"unknown execution backend {name!r} (registered: {sorted(_BACKENDS)})"
        )
    return _BACKENDS[name]


def backend_names() -> list[str]:
    return sorted(_BACKENDS)


def backend_available(name: str) -> bool:
    return get_backend(name).available()


def backend_probe(name: str) -> dict:
    return get_backend(name).probe()


_FALLBACK_WARNED: set[str] = set()


def resolve_backend(name: str) -> str:
    """``name`` if that backend is available, else ``integer``.

    The degradation path for environments without a C toolchain: a model
    loaded with ``backend='compiled'`` serves on the numpy serving path
    ``backend='auto'`` picks there — same results, numpy speed — and the
    process logs **one** warning total, not one per layer or per model.
    """
    backend = get_backend(name)
    if backend.available():
        return name
    fallback = "integer"
    if name not in _FALLBACK_WARNED:
        _FALLBACK_WARNED.add(name)
        detail = backend.probe().get("error", "unavailable in this environment")
        logger.warning(
            "execution backend %r is unavailable (%s); falling back to %r",
            name, detail, fallback,
        )
    return fallback


# ----------------------------------------------------------------------
# fakequant
# ----------------------------------------------------------------------
class FakeQuantBackend(ExecutionBackend):
    """Float simulation: quantizer objects + the float kernels."""

    name = "fakequant"

    def prepare(self, layer) -> None:
        if layer.weight is None and layer.spec.weight is not None:
            raise QuantBackendError(
                f"layer {layer.spec.name or '?'}: fakequant backend needs the "
                "float weights (artifact-loaded layers carry integer codes only)"
            )

    def run_conv2d(self, layer, x) -> Tensor:
        xq = layer.input_quantizer(x) if layer.input_quantizer else x
        wq = layer.weight_quantizer(layer.weight) if layer.weight_quantizer else layer.weight
        out = ops.conv2d(xq, wq, layer.bias, stride=layer.stride, padding=layer.padding)
        B, K, P, Q = out.shape
        layer.last_macs = B * K * P * Q * layer.in_channels * layer.kernel_size**2
        layer.last_output_shape = out.shape
        return out

    def run_linear(self, layer, x) -> Tensor:
        xq = layer.input_quantizer(x) if layer.input_quantizer else x
        wq = layer.weight_quantizer(layer.weight) if layer.weight_quantizer else layer.weight
        out = xq @ wq.T
        if layer.bias is not None:
            out = out + layer.bias
        rows = int(np.prod(out.shape[:-1]))
        layer.last_macs = rows * layer.in_features * layer.out_features
        layer.last_output_shape = out.shape
        return out

    def run_embedding(self, layer, indices) -> Tensor:
        wq = layer.weight_quantizer(layer.weight) if layer.weight_quantizer else layer.weight
        out = ops.embedding_lookup(wq, indices)
        layer.last_macs = 0  # a gather, not a MAC op
        layer.last_output_shape = out.shape
        return out


# ----------------------------------------------------------------------
# integer
# ----------------------------------------------------------------------
def _array(value) -> np.ndarray | None:
    if value is None:
        return None
    return np.asarray(getattr(value, "data", value))


def _quantize_weight_tensor(spec: QuantSpec, weight: np.ndarray) -> QuantizedTensor:
    layout = VectorLayout(spec.vector_axis, spec.vector_size)
    return quantize_tensor(
        np.asarray(weight, dtype=np.float64),
        layout,
        spec.fmt,
        spec.scale_fmt,
        channel_axes=spec.channel_axes,
    )


def _require_integer_spec(layer, role: str, spec: QuantSpec | None) -> QuantSpec:
    name = layer.spec.name or type(layer).__name__
    if spec is None:
        raise QuantBackendError(f"layer {name}: no {role} quant spec for integer execution")
    if spec.granularity is not Granularity.PER_VECTOR or spec.scale.kind is not ScaleKind.INT:
        raise QuantBackendError(
            f"layer {name}: integer backends need per-vector two-level integer "
            f"scales for the {role} (got granularity={spec.granularity.value}, "
            f"scale={spec.scale}); use a PTQConfig.vs_quant(...) config with "
            "integer weight_scale/act_scale"
        )
    return spec


class IntegerBackend(ExecutionBackend):
    """True integer execution (Eq. 5) with dynamic activation quantization.

    Weight codes are scale-folded **once** at prepare time; activations
    go through :func:`~repro.quant.integer_exec.quantize_tensor` and are
    folded per call, for linear and conv alike. A layer with
    ``scale_product_bits`` set keeps its weights unfolded instead (folding
    distributes the integer per-vector scales into the codes, which is
    exactly what the rounding knob perturbs) and runs
    :func:`~repro.quant.integer_exec.integer_linear` /
    :func:`~repro.quant.integer_exec.integer_conv2d`.
    """

    name = "integer"

    def prepare(self, layer) -> None:
        spec = layer.spec
        if layer.weight_q is None:
            if layer.weight is None:
                raise QuantBackendError(
                    f"layer {spec.name or '?'}: integer backend needs either "
                    "artifact weight codes or float weights to quantize"
                )
            wspec = _require_integer_spec(layer, "weight", spec.weight)
            layer.weight_q = _quantize_weight_tensor(wspec, _array(layer.weight))
        bias = _array(layer.bias)
        layer._bias_data = (
            bias.astype(layer.out_dtype)
            if bias is not None and layer.out_dtype is not None
            else bias
        )
        if spec.kind == "embedding":
            table = layer.weight_q.dequantize()
            if layer.out_dtype is not None:
                table = table.astype(layer.out_dtype)
            layer._deq_table = table
            return
        aspec = _require_integer_spec(layer, "input", spec.inputs)
        layer._act_layout = VectorLayout(aspec.vector_axis, aspec.vector_size)
        layer._act_fmt = aspec.fmt
        layer._act_scale_fmt = aspec.scale_fmt
        # When this layer's integer GEMM fits float32 exactly, store the
        # activation codes narrow too (halves kernel traffic, same bits).
        wq = layer.weight_q
        K, nv, V = wq.codes.shape[0], *wq.codes.shape[-2:]
        reduction = nv * V
        if wq.codes.ndim == 5:  # conv KRS(nv)(V): reduce over R*S too
            reduction *= wq.codes.shape[1] * wq.codes.shape[2]
        layer._code_dtype = exact_gemm_dtype(
            aspec.fmt, aspec.scale_fmt, wq.fmt, wq.scale_fmt, reduction
        )
        if layer.scale_product_bits is not None:
            layer._wf = None
            return
        layer._wf = np.multiply(wq.codes, wq.sq[..., None], dtype=layer._code_dtype).reshape(
            K, -1
        )
        layer._gamma_w = np.asarray(wq.gamma).reshape(K)

    # -- input handling -------------------------------------------------
    def _input_array(self, layer, x) -> np.ndarray:
        # Honor the configured serving precision when coercing raw arrays:
        # a float32 engine must not round-trip request payloads through
        # float64 (and a float64 engine must not silently narrow them).
        if isinstance(x, Tensor):
            data = x.data
        else:
            data = np.asarray(x, dtype=layer.out_dtype or np.float64)
        if layer.out_dtype is not None and data.dtype != layer.out_dtype:
            data = data.astype(layer.out_dtype)
        return data

    def _quantize_input(self, layer, x) -> QuantizedTensor:
        data = self._input_array(layer, x)
        channel_axes = (0,) if layer.per_sample_scale else ()
        return quantize_tensor(
            data,
            layer._act_layout,
            layer._act_fmt,
            layer._act_scale_fmt,
            channel_axes=channel_axes,
            code_dtype=layer._code_dtype,
        )

    @staticmethod
    def _fold(layer, xq: QuantizedTensor) -> np.ndarray:
        """Activation codes times their per-vector scales, vectors flattened."""
        xf = np.multiply(xq.codes, xq.sq[..., None], dtype=layer._code_dtype)
        return xf.reshape(xq.codes.shape[:-2] + (-1,))

    def _finish(self, layer, out: np.ndarray, conv: bool) -> Tensor:
        if layer._bias_data is not None:
            out = out + (layer._bias_data[None, :, None, None] if conv else layer._bias_data)
        layer.last_output_shape = out.shape
        return Tensor(out)

    # -- kinds -----------------------------------------------------------
    def run_linear(self, layer, x) -> Tensor:
        xq = self._quantize_input(layer, x)
        if layer._wf is None:
            out = integer_linear(
                xq,
                layer.weight_q,
                scale_product_bits=layer.scale_product_bits,
                out_dtype=layer.out_dtype,
            )
        else:
            # The compiled backend narrows ``_wf`` to its kernel's integer
            # operand; widening back to the code dtype is exact.
            wf = layer._wf.astype(layer._code_dtype, copy=False)
            out = integer_linear_folded(
                self._fold(layer, xq), xq.gamma, wf, layer._gamma_w, layer.out_dtype
            )
        rows = int(np.prod(out.shape[:-1]))
        layer.last_macs = rows * layer.in_features * layer.out_features
        return self._finish(layer, out, conv=False)

    def _conv_weights(self, layer) -> np.ndarray:
        """The folded ``(K, R*S*C2)`` conv weights the numpy GEMM reads."""
        return layer._wf

    def run_conv2d(self, layer, x) -> Tensor:
        if layer._wf is None:
            out = integer_conv2d(
                self._quantize_input(layer, x),
                layer.weight_q,
                stride=layer.stride,
                padding=layer.padding,
                scale_product_bits=layer.scale_product_bits,
                out_dtype=layer.out_dtype,
            )
        else:
            xq = self._quantize_input(layer, x)
            out = integer_conv2d_folded(
                self._fold(layer, xq),
                xq.gamma,
                self._conv_weights(layer),
                layer._gamma_w,
                layer.kernel_size,
                layer.stride,
                layer.padding,
                layer.out_dtype,
            )
        B, K, P, Q = out.shape
        layer.last_macs = B * K * P * Q * layer.in_channels * layer.kernel_size**2
        return self._finish(layer, out, conv=True)

    def run_embedding(self, layer, indices) -> Tensor:
        idx = np.asarray(getattr(indices, "data", indices)).astype(np.int64)
        out = layer._deq_table[idx]
        layer.last_macs = 0
        layer.last_output_shape = out.shape
        return Tensor(out)


register_backend(FakeQuantBackend())
register_backend(IntegerBackend())

# The compiled backend lives in repro.compile (it drags in the renderer
# and the cc runtime); importing it here makes `get_backend("compiled")`
# work without callers knowing about the package. The guard handles the
# one legal circular order: when repro.compile itself is the first thing
# imported, its module object is still mid-execution here, so the class
# is registered by repro.compile.backend's own tail instead.
try:
    from repro.compile.backend import CompiledBackend
except ImportError:  # pragma: no cover - import-order dependent
    pass
else:
    register_backend(CompiledBackend())
