"""The ``compiled`` execution backend: fused C linear kernels via cc + ctypes.

Subclasses :class:`~repro.quant.backends.PrefoldedBackend`, the numpy
serving path, and replaces only the linear hot loop. Convolutions and
embeddings run the inherited prefolded numpy path: on the zoo's
MiniResNet a single-threaded direct-conv C loop lost to numpy's im2col
GEMM at every batch size, so there is no compiled conv. For each linear
layer the prepare step:

1. runs the inherited prefolded prepare (quantize weights, bias,
   formats, fold the weight codes once);
2. narrows the folded weights to the kernel's dense integer matrix
   (``int16``/``int32`` chosen from the format bounds — the fold
   ``codes * sq`` is exact by construction). That matrix replaces the
   float copy, so the layer keeps one folded weight array.

At call time a dtype/shape :class:`KernelSpec` is rendered to C
(:mod:`repro.compile.renderer`), compiled and memoized by the kernel
cache (:mod:`repro.compile.runtime`), and invoked via ctypes on the raw
array buffers.

Parity contract: bitwise identical to the ``integer`` backend for every
supported configuration. Linear configurations the renderer does not
model (non-standard vector axes, non-float64 weight gammas from a
forced compute-dtype policy, exotic input dtypes) silently run the
inherited prefolded numpy path instead — identical results, just not
compiled. A *missing compiler* is different: ``prepare`` raises
``QuantBackendError`` so the engine-level ``resolve_backend`` fallback
(one warning, then ``integer-prefolded``) is the only silent path, per
the fallback contract in ``docs/compile.md``.

The engine gives a ``compiled`` model's attention operands a
:class:`CompiledQuantizer` (:func:`operand_quantizer`): the numpy
:class:`~repro.quant.quantizer.Quantizer` with its fake-quant replaced
by the rendered ``repro_quantize`` kernel, bitwise equal as well.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np

from repro.quant.backends import (
    PrefoldedBackend,
    QuantBackendError,
    register_backend,
)
from repro.quant.granularity import Granularity
from repro.quant.quantizer import Quantizer, QuantSpec, ScaleKind
from repro.tensor.tensor import Tensor
from repro.utils.dtypes import resolve_dtype

from .renderer import KernelSpec, QuantizeSpec, render, render_quantize
from .runtime import QUANTIZE_ENTRY, compiler_available, compiler_probe, kernel_cache

_INT32_MAX = 2**31 - 1
_INT16_MAX = 2**15 - 1
_EXACT_I64 = 2**53  # past this even float64/int64 accumulation is inexact

_CTYPE = {np.dtype(np.float32): "float", np.dtype(np.float64): "double"}


def _ctype(np_dtype) -> str | None:
    return _CTYPE.get(np.dtype(np_dtype))


@dataclass
class _CompiledState:
    """Per-layer kernel settings + kernel memo (weights stay on the layer)."""

    bias: np.ndarray | None
    out_np: np.dtype        # output array dtype
    out_ct: str
    fused: bool
    xt: str                 # folded activation operand C type
    wt: str                 # folded weight operand C type
    acct: str               # accumulator C type
    asqmax: int             # activation per-vector scale max
    kernels: dict = field(default_factory=dict)


def _operand_type(fold_max: int) -> str:
    return "int16_t" if fold_max <= _INT16_MAX else "int32_t"


class CompiledBackend(PrefoldedBackend):
    """Prefolded execution with linear layers lowered to fused C kernels."""

    name = "compiled"

    def available(self) -> bool:
        return compiler_available()

    def probe(self) -> dict:
        return compiler_probe()

    # -- prepare ---------------------------------------------------------
    def prepare(self, layer) -> None:
        if not compiler_available():
            err = compiler_probe().get("error", "no working C compiler")
            raise QuantBackendError(
                f"layer {layer.spec.name or '?'}: backend 'compiled' is "
                f"unavailable ({err}); select 'integer-prefolded' instead or fix "
                "the toolchain — engine-level backend='compiled' falls back "
                "automatically"
            )
        super().prepare(layer)
        layer._compiled = self._plan(layer) if layer.spec.kind == "linear" else None

    def _plan(self, layer) -> _CompiledState | None:
        """Narrow ``layer._wf`` to the kernel's operand, or ``None``.

        ``None`` means "correct but not compilable as rendered": the
        inherited prefolded implementation runs instead, so results
        never change — only speed.
        """
        wq = layer.weight_q
        if layer._act_layout.axis != -1:
            return None
        if np.asarray(wq.gamma).dtype != np.float64:
            # A forced compute-dtype policy produced low-precision weight
            # gammas; numpy's promotion rules then differ from the f64
            # epilogue the renderer emits.
            return None
        out_np = np.dtype(layer.out_dtype) if layer.out_dtype is not None else np.dtype(
            np.float64
        )
        out_ct = _ctype(out_np)
        if out_ct is None:
            return None

        afmt, asf = layer._act_fmt, layer._act_scale_fmt
        asqmax = 2**asf.bits - 1
        wsqmax = 2**wq.scale_fmt.bits - 1
        fold_x = afmt.qmax * asqmax
        fold_w = wq.fmt.qmax * wsqmax
        # Zero padding in the tail vector contributes nothing to the bound.
        bound = fold_x * fold_w * layer._wf.shape[1]
        if bound >= _EXACT_I64:
            return None  # exact_gemm_dtype should have refused already

        xt = _operand_type(fold_x)
        wt = _operand_type(fold_w)
        acct = "int32_t" if bound <= _INT32_MAX else "int64_t"
        layer._wf = np.ascontiguousarray(
            layer._wf, dtype=np.int16 if wt == "int16_t" else np.int32
        )
        layer._gamma_w = np.ascontiguousarray(layer._gamma_w)
        bias = layer._bias_data
        if bias is not None:
            bias = np.ascontiguousarray(bias, dtype=out_np)
        return _CompiledState(
            bias=bias, out_np=out_np, out_ct=out_ct,
            fused=layer.out_dtype is not None,
            xt=xt, wt=wt, acct=acct, asqmax=asqmax,
        )

    # -- kernel materialization -----------------------------------------
    def _kernel(self, layer, state: _CompiledState, xin_np, sdt_np,
                per_sample: bool):
        dtypes = (np.dtype(xin_np).char, np.dtype(sdt_np).char)
        fn = state.kernels.get((*dtypes, per_sample))
        if fn is not None:
            return fn
        # The unfused per-sample layer serves both variants (run_linear):
        # build them together so a request never waits on a compile that
        # warm-up at the other batch size did not trigger.
        unfused_ps = layer.per_sample_scale and not state.fused
        afmt = layer._act_fmt
        for ps in (False, True) if unfused_ps else (per_sample,):
            spec = KernelSpec(
                xin=_ctype(xin_np), sdt=_ctype(sdt_np), out=state.out_ct,
                fused=state.fused, per_sample=ps,
                has_bias=state.bias is not None,
                xt=state.xt, wt=state.wt, acct=state.acct,
                F=layer.in_features, K=layer.out_features,
                V=layer._act_layout.vector_size,
                aqmin=int(afmt.qmin), aqmax=int(afmt.qmax), asqmax=state.asqmax,
            )
            fn = kernel_cache().get(render(spec))
            fn.argtypes = [ctypes.c_void_p] * 5 + [ctypes.c_longlong] * 2
            fn.restype = ctypes.c_int
            state.kernels[(*dtypes, ps)] = fn
        return state.kernels[(*dtypes, per_sample)]

    # -- execution -------------------------------------------------------
    def run_linear(self, layer, x) -> Tensor:
        state = layer._compiled
        data = self._input_array(layer, x)
        sdt = resolve_dtype(data)
        if (
            state is None
            or data.ndim < 2
            or data.shape[-1] != layer.in_features
            or _ctype(data.dtype) is None
            or _ctype(sdt) is None
        ):
            return super().run_linear(layer, x)
        data = np.ascontiguousarray(data)
        B = data.shape[0]
        # A per-sample gamma over one sample *is* the per-tensor gamma, so
        # the fused epilogue serves the per-sample kernel at every B. The
        # unfused numpy epilogue picks its multiply order by gamma size, so
        # there B == 1 must take the per-tensor kernel to stay bitwise equal.
        ps = bool(layer.per_sample_scale) and (state.fused or B > 1)
        fn = self._kernel(layer, state, data.dtype, sdt, ps)
        out = np.empty(data.shape[:-1] + (layer.out_features,), dtype=state.out_np)
        T = int(np.prod(data.shape[1:-1], dtype=np.int64)) if data.ndim > 2 else 1
        rc = fn(
            data.ctypes.data, layer._wf.ctypes.data, layer._gamma_w.ctypes.data,
            state.bias.ctypes.data if state.bias is not None else None,
            out.ctypes.data, B, T,
        )
        if rc != 0:
            raise QuantBackendError(
                f"layer {layer.spec.name or '?'}: compiled kernel scratch "
                "allocation failed"
            )
        rows = int(np.prod(out.shape[:-1]))
        layer.last_macs = rows * layer.in_features * layer.out_features
        layer.last_output_shape = out.shape
        return Tensor(out)


register_backend(CompiledBackend())


# ----------------------------------------------------------------------
# attention operands
# ----------------------------------------------------------------------
def kernel_models(spec: QuantSpec) -> bool:
    """Whether ``repro_quantize`` reproduces ``spec``'s fake-quant.

    The kernel models max-calibrated per-vector two-level scales
    decomposed vector-first, with one coarse gamma per tensor
    (``channel_axes=()``) or per sample (``(0,)``).
    """
    return (
        spec.granularity is Granularity.PER_VECTOR
        and spec.calibration == "max"
        and spec.scale.kind is ScaleKind.INT
        and spec.decompose_order == "vector_first"
        and tuple(spec.channel_axes) in ((), (0,))
    )


class CompiledQuantizer(Quantizer):
    """A :class:`Quantizer` whose activation fake-quant runs the rendered
    ``repro_quantize`` kernel (:func:`~repro.compile.renderer.render_quantize`).

    Bitwise equal to :meth:`Quantizer._fake_quant_array`. The input is
    viewed as ``(B, M, L, N)`` with the vector axis as ``L``, so one
    compile per input dtype serves every shape. Calls the kernel does
    not model run the numpy path: dtypes other than float32/float64 or a
    forced compute-dtype policy, a vector axis of 0, empty inputs,
    calibration observation and ``record_scales``. Build through
    :func:`operand_quantizer`, which keeps the numpy class for specs the
    kernel does not model.
    """

    def __init__(self, spec: QuantSpec):
        super().__init__(spec)
        self._kernels: dict[str, object] = {}

    def _kernel(self, ct: str):
        fn = self._kernels.get(ct)
        if fn is None:
            spec = self.spec
            fn = kernel_cache().get(
                render_quantize(QuantizeSpec(
                    t=ct, V=spec.vector_size, qmin=spec.fmt.qmin,
                    qmax=spec.fmt.qmax, sqmax=2**spec.scale.bits - 1,
                    per_sample=tuple(spec.channel_axes) == (0,),
                )),
                entry=QUANTIZE_ENTRY,
            )
            fn.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_longlong] * 4
            fn.restype = ctypes.c_int
            self._kernels[ct] = fn
        return fn

    def _fake_quant_array(self, data: np.ndarray) -> np.ndarray:
        x = np.asarray(data)
        ct = _ctype(x.dtype)
        axis = self.spec.vector_axis % x.ndim if x.ndim else 0
        if (
            ct is None
            or axis == 0
            or x.size == 0
            or self._observing
            or self.record_scales
            or resolve_dtype(x) != x.dtype
        ):
            return super()._fake_quant_array(data)
        x = np.ascontiguousarray(x)
        out = np.empty(x.shape, dtype=x.dtype)
        shape = x.shape
        rc = self._kernel(ct)(
            x.ctypes.data, out.ctypes.data, shape[0],
            math.prod(shape[1:axis]), shape[axis], math.prod(shape[axis + 1 :]),
        )
        if rc != 0:
            raise QuantBackendError("compiled quantize kernel scratch allocation failed")
        return out

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["_kernels"] = {}  # ctypes handles do not pickle
        return state


def operand_quantizer(spec: QuantSpec) -> Quantizer:
    """The quantizer ``compiled`` engines give an attention operand:
    kernel-backed where :func:`kernel_models` holds and a compiler works,
    the numpy :class:`Quantizer` otherwise."""
    if kernel_models(spec) and compiler_available():
        return CompiledQuantizer(spec)
    return Quantizer(spec)
