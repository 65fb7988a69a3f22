"""The ``compiled`` execution backend: fused C kernels via cc + ctypes.

Subclasses :class:`~repro.quant.backends.IntegerBackend`, the numpy
integer path, and replaces the linear and conv hot loops; embeddings
run the inherited numpy path. The prepare step:

1. runs the inherited ``integer`` prepare (quantize weights, bias,
   formats, fold the weight codes once);
2. re-lays the folded weights as the kernel's operand, which replaces
   the numpy copy, so the layer keeps one folded weight array:

   - linear: the dense integer matrix ``(K, C2)``, ``int16``/``int32``
     chosen from the format bounds (the fold ``codes * sq`` is exact by
     construction);
   - conv: ``(R, S, C, KP)`` in the layer's ``_code_dtype`` (float32
     where every partial sum is an exact float32 integer, float64
     otherwise), the tail vector's zero channels dropped and the output
     channels padded to the kernel's register block.

At call time a dtype :class:`KernelSpec` or :class:`ConvSpec` is
rendered to C (:mod:`repro.compile.renderer`), compiled and memoized by
the kernel cache (:mod:`repro.compile.runtime`), and invoked via ctypes
on the raw array buffers. Conv geometry and formats are runtime
arguments, so one conv kernel serves every conv layer with the same
dtypes and flags.

Parity contract: bitwise identical to the ``integer`` backend for every
supported configuration. Configurations the renderer does not model
(non-standard vector axes, non-float64 weight gammas from a forced
compute-dtype policy, exotic input dtypes) silently run the inherited
numpy path instead — identical results, just not compiled. A *missing
compiler* is different: ``prepare`` raises ``QuantBackendError`` so the
engine-level ``resolve_backend`` fallback (one warning, then
``integer``) is the only silent path, per the fallback contract in
``docs/compile.md``. ``scale_product_bits`` is refused the same way:
the kernels fold the per-vector scales the rounding knob perturbs.

The engine gives a ``compiled`` model's attention operands a
:class:`CompiledQuantizer` (:func:`operand_quantizer`): the numpy
:class:`~repro.quant.quantizer.Quantizer` with its fake-quant replaced
by the rendered ``repro_quantize`` kernel, bitwise equal as well. A
``compiled`` float32 engine gives each GELU a :class:`CompiledGELU`,
which runs ``repro_gelu`` (:func:`~repro.compile.renderer.render_gelu`),
bitwise equal to numpy's float32 GELU.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np

from repro import nn
from repro.quant.backends import (
    IntegerBackend,
    QuantBackendError,
    register_backend,
)
from repro.quant.granularity import Granularity
from repro.quant.quantizer import Quantizer, QuantSpec, ScaleKind
from repro.tensor import ops
from repro.tensor.tensor import Tensor, as_tensor, is_grad_enabled
from repro.utils.dtypes import resolve_dtype
from repro.utils.parallel import map_samples, split_samples

from .renderer import (
    CONV_KB,
    GELU_VARIANTS,
    ConvSpec,
    KernelSpec,
    QuantizeSpec,
    render,
    render_conv,
    render_gelu,
    render_quantize,
)
from .runtime import (
    CONV_ENTRY,
    GELU_ENTRY,
    KERNEL_ENTRY,
    QUANTIZE_ENTRY,
    CompileError,
    compiler_available,
    compiler_probe,
    kernel_cache,
)

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


_LINEAR_ARGS = [ctypes.c_void_p] * 5 + [ctypes.c_longlong] * 2
_CONV_ARGS = [ctypes.c_void_p] * 8 + [ctypes.c_longlong] * 14


class CompiledBackend(IntegerBackend):
    """Integer execution with linear and conv layers lowered to C kernels."""

    name = "compiled"

    def available(self) -> bool:
        return compiler_available()

    def probe(self) -> dict:
        probe = compiler_probe()
        if probe["available"]:
            try:
                probe["gelu"] = gelu_kernel().variant
            except CompileError as exc:
                probe["gelu"] = f"numpy ({str(exc).splitlines()[0]})"
        return probe

    # -- prepare ---------------------------------------------------------
    def prepare(self, layer) -> None:
        if not compiler_available():
            err = compiler_probe().get("error", "no working C compiler")
            raise QuantBackendError(
                f"layer {layer.spec.name or '?'}: backend 'compiled' is "
                f"unavailable ({err}); select 'integer' instead or fix "
                "the toolchain — engine-level backend='compiled' falls back "
                "automatically"
            )
        if layer.scale_product_bits is not None:
            raise QuantBackendError(
                f"layer {layer.spec.name or '?'}: backend 'compiled' cannot apply "
                "scale_product_bits (rounding needs the unfolded per-vector "
                "scales); use the 'integer' backend"
            )
        super().prepare(layer)
        plan = {"linear": self._plan, "conv2d": self._plan_conv}.get(layer.spec.kind)
        layer._compiled = plan(layer) if plan is not None else None

    @staticmethod
    def compiles(layer) -> bool:
        """Whether ``layer`` holds a kernel plan (else it runs numpy)."""
        return getattr(layer, "_compiled", None) is not None

    def fuses_output_pass(self, layer) -> bool:
        return layer.spec.kind == "conv2d" and self.compiles(layer)

    def _settings(self, layer) -> dict | None:
        """The output-side settings both kernels share, or ``None``."""
        if np.asarray(layer.weight_q.gamma).dtype != np.float64:
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
        bias = layer._bias_data
        if bias is not None:
            bias = np.ascontiguousarray(bias, dtype=out_np)
        layer._gamma_w = np.ascontiguousarray(layer._gamma_w)
        return dict(
            bias=bias, out_np=out_np, out_ct=out_ct,
            fused=layer.out_dtype is not None,
            asqmax=2**layer._act_scale_fmt.bits - 1,
        )

    def _fold_bound(self, layer) -> int:
        """Worst-case |partial sum| of the folded GEMM over ``_wf``."""
        wq = layer.weight_q
        fold_x = layer._act_fmt.qmax * (2**layer._act_scale_fmt.bits - 1)
        fold_w = wq.fmt.qmax * (2**wq.scale_fmt.bits - 1)
        # Zero padding in the tail vector contributes nothing to the bound.
        return fold_x * fold_w * layer._wf.shape[1]

    def _plan(self, layer) -> _CompiledState | None:
        """Narrow ``layer._wf`` to the kernel's operand, or ``None``.

        ``None`` means "correct but not compilable as rendered": the
        inherited numpy implementation runs instead, so results never
        change — only speed.
        """
        if layer._act_layout.axis != -1:
            return None
        settings = self._settings(layer)
        bound = self._fold_bound(layer)
        if settings is None or bound >= _EXACT_I64:
            return None  # exact_gemm_dtype should have refused already
        wq = layer.weight_q
        xt = _operand_type(layer._act_fmt.qmax * settings["asqmax"])
        wt = _operand_type(wq.fmt.qmax * (2**wq.scale_fmt.bits - 1))
        acct = "int32_t" if bound <= _INT32_MAX else "int64_t"
        layer._wf = np.ascontiguousarray(
            layer._wf, dtype=np.int16 if wt == "int16_t" else np.int32
        )
        return _CompiledState(xt=xt, wt=wt, acct=acct, **settings)

    def _plan_conv(self, layer) -> _CompiledState | None:
        """Re-lay ``layer._wf`` as the conv kernel's ``(R, S, C, KP)``
        operand, or ``None`` (see :meth:`_plan`).

        The zero-padded channels of the tail vector are dropped (their
        activation codes are zero too) and the output channels padded to
        a whole register block. The operand type is the layer's
        ``_code_dtype``: float32 where every partial sum is an exact
        float32 integer, float64 otherwise.
        """
        if layer._act_layout.axis != 1:
            return None
        settings = self._settings(layer)
        ct = _ctype(layer._code_dtype)
        if settings is None or ct is None or self._fold_bound(layer) >= _EXACT_I64:
            return None
        K, R, S, nv, V = layer.weight_q.codes.shape
        C = layer.in_channels
        KP = -(-K // CONV_KB) * CONV_KB
        wk = np.zeros((R, S, C, KP), dtype=layer._code_dtype)
        wk[..., :K] = layer._wf.reshape(K, R, S, nv * V)[..., :C].transpose(1, 2, 3, 0)
        layer._wf = wk
        return _CompiledState(xt=ct, wt=ct, acct=ct, **settings)

    def _conv_weights(self, layer) -> np.ndarray:
        if not self.compiles(layer):
            return layer._wf
        # Undo _plan_conv's re-layout for the numpy path.
        R, S, C, _ = layer._wf.shape
        K, *_, nv, V = layer.weight_q.codes.shape
        wf = np.zeros((K, R, S, nv * V), dtype=layer._wf.dtype)
        wf[..., :C] = layer._wf[..., :K].transpose(3, 0, 1, 2)
        return wf.reshape(K, -1)

    # -- kernel materialization -----------------------------------------
    def _source(self, layer, state: _CompiledState, xin: str, sdt: str,
                per_sample: bool) -> tuple[str, str, list]:
        common = dict(
            xin=xin, sdt=sdt, out=state.out_ct, fused=state.fused,
            per_sample=per_sample, has_bias=state.bias is not None,
        )
        if layer.spec.kind == "conv2d":
            return render_conv(ConvSpec(ct=state.xt, **common)), CONV_ENTRY, _CONV_ARGS
        afmt = layer._act_fmt
        spec = KernelSpec(
            xt=state.xt, wt=state.wt, acct=state.acct,
            F=layer.in_features, K=layer.out_features,
            V=layer._act_layout.vector_size,
            aqmin=int(afmt.qmin), aqmax=int(afmt.qmax), asqmax=state.asqmax,
            **common,
        )
        return render(spec), KERNEL_ENTRY, _LINEAR_ARGS

    def _kernel(self, layer, state: _CompiledState, xin_np, sdt_np,
                per_sample: bool):
        dtypes = (np.dtype(xin_np).char, np.dtype(sdt_np).char)
        fn = state.kernels.get((*dtypes, per_sample))
        if fn is not None:
            return fn
        # The unfused per-sample layer serves both variants (_epilogue_ps):
        # build them together so a request never waits on a compile that
        # warm-up at the other batch size did not trigger.
        unfused_ps = layer.per_sample_scale and not state.fused
        for ps in (False, True) if unfused_ps else (per_sample,):
            source, entry, argtypes = self._source(
                layer, state, _ctype(xin_np), _ctype(sdt_np), ps
            )
            fn = kernel_cache().get(source, entry=entry)
            fn.argtypes = argtypes
            fn.restype = ctypes.c_int
            state.kernels[(*dtypes, ps)] = fn
        return state.kernels[(*dtypes, per_sample)]

    @staticmethod
    def _epilogue_ps(layer, state: _CompiledState, batch: int) -> bool:
        """Whether a call of ``batch`` samples takes the per-sample kernel.

        A per-sample gamma over one sample *is* the per-tensor gamma, so
        the fused epilogue serves the per-sample kernel at every B. The
        unfused numpy epilogue picks its multiply order by gamma size, so
        there B == 1 must take the per-tensor kernel to stay bitwise equal.
        """
        return bool(layer.per_sample_scale) and (state.fused or batch > 1)

    def _check(self, layer, rc: int) -> None:
        if rc != 0:
            raise QuantBackendError(
                f"layer {layer.spec.name or '?'}: compiled kernel scratch "
                "allocation failed"
            )

    # -- execution -------------------------------------------------------
    @staticmethod
    def _run_samples(layer, run, batch: int) -> None:
        """``run(lo, hi)`` over the batch: split across CPUs when every
        sample has its own gamma (a per-tensor gamma spans the batch).
        The kernel variant was already picked from the whole batch."""
        if layer.per_sample_scale:
            split_samples(run, batch)
        else:
            run(0, batch)

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
        fn = self._kernel(layer, state, data.dtype, sdt, self._epilogue_ps(layer, state, B))
        out = np.empty(data.shape[:-1] + (layer.out_features,), dtype=state.out_np)
        T = int(np.prod(data.shape[1:-1], dtype=np.int64)) if data.ndim > 2 else 1

        def run(lo: int, hi: int) -> None:
            self._check(layer, fn(
                data[lo:hi].ctypes.data, layer._wf.ctypes.data, layer._gamma_w.ctypes.data,
                state.bias.ctypes.data if state.bias is not None else None,
                out[lo:hi].ctypes.data, hi - lo, T,
            ))

        self._run_samples(layer, run, B)
        rows = int(np.prod(out.shape[:-1]))
        layer.last_macs = rows * layer.in_features * layer.out_features
        layer.last_output_shape = out.shape
        return Tensor(out)

    @staticmethod
    def _output_pass(post, out_np: np.dtype, shape: tuple) -> tuple | None:
        """The kernel's ``(scale, shift, residual)`` arrays for ``post``
        (an :class:`~repro.nn.norm.OutputPass`), or ``None`` when they
        are not all C-contiguous in the output dtype and shape (then
        numpy applies ``post`` to the kernel's plain output)."""
        scale, shift = (t.data.reshape(-1) for t in post.bn.eval_affine())
        residual = None if post.residual is None else as_tensor(post.residual).data
        arrays = [a for a in (scale, shift, residual) if a is not None]
        if not all(a.dtype == out_np and a.flags.c_contiguous for a in arrays):
            return None
        if scale.shape != (shape[1],) or shift.shape != (shape[1],) or (
            residual is not None and residual.shape != shape
        ):
            return None
        return scale, shift, residual

    def run_conv2d(self, layer, x, post=None) -> Tensor:
        """The conv kernel; ``post`` (from :func:`repro.nn.conv_bn`) is
        applied in the kernel's output pass when its arrays allow it,
        and by numpy on the kernel's output otherwise."""
        state = layer._compiled
        data = self._input_array(layer, x)
        sdt = resolve_dtype(data)
        R = S = layer.kernel_size
        pad, stride = layer.padding, layer.stride
        if (
            state is None
            or data.ndim != 4
            or data.shape[1] != layer.in_channels
            or min(data.shape[0], data.shape[2] + 2 * pad - R + 1,
                   data.shape[3] + 2 * pad - S + 1) <= 0
            or _ctype(data.dtype) is None
            or _ctype(sdt) is None
        ):
            out = super().run_conv2d(layer, x)
            return out if post is None else post(out)
        data = np.ascontiguousarray(data)
        B, C, H, W = data.shape
        K = layer.out_channels
        P = (H + 2 * pad - R) // stride + 1
        Q = (W + 2 * pad - S) // stride + 1
        fn = self._kernel(layer, state, data.dtype, sdt, self._epilogue_ps(layer, state, B))
        out = np.empty((B, K, P, Q), dtype=state.out_np)
        afmt = layer._act_fmt
        arrays = None if post is None else self._output_pass(post, state.out_np, out.shape)
        scale, shift, residual = arrays or (None, None, None)
        relu = arrays is not None and post.relu

        def ptr(a: np.ndarray | None):
            return a.ctypes.data if a is not None else None

        def run(lo: int, hi: int) -> None:
            self._check(layer, fn(
                data[lo:hi].ctypes.data, layer._wf.ctypes.data, layer._gamma_w.ctypes.data,
                ptr(state.bias), ptr(scale), ptr(shift),
                ptr(residual if residual is None else residual[lo:hi]),
                out[lo:hi].ctypes.data, hi - lo, C, H, W, K, R, S, stride, pad,
                layer._act_layout.vector_size, int(afmt.qmin), int(afmt.qmax), state.asqmax,
                int(relu),
            ))

        self._run_samples(layer, run, B)
        layer.last_macs = B * K * P * Q * C * R * S
        layer.last_output_shape = out.shape
        out = Tensor(out)
        return post(out) if post is not None and arrays is None else out


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
        fn = self._kernel(ct)
        M, L, N = math.prod(shape[1:axis]), shape[axis], math.prod(shape[axis + 1 :])

        def run(lo: int, hi: int) -> None:
            if fn(x[lo:hi].ctypes.data, out[lo:hi].ctypes.data, hi - lo, M, L, N) != 0:
                raise QuantBackendError("compiled quantize kernel scratch allocation failed")

        if tuple(self.spec.channel_axes) == (0,):  # a gamma per sample
            split_samples(run, shape[0])
        else:
            run(0, shape[0])
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


# ----------------------------------------------------------------------
# GELU
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GeluKernel:
    """A loaded :func:`~repro.compile.renderer.render_gelu` kernel."""

    fn: object
    width: int

    @property
    def variant(self) -> str:
        return f"{self.width}-wide libmvec {GELU_VARIANTS[self.width]['erf']}"


def gelu_kernel(width: int | None = None) -> GeluKernel:
    """The float32 GELU kernel of ``width`` (``None``: the widest the
    toolchain's target admits), linked against libmvec.

    Raises :class:`CompileError` when there is no working compiler or the
    kernel fails to compile or link (a target without AVX2, a C library
    without libmvec). The kernel cache memoizes both outcomes, so this
    costs one compile per toolchain, and one failed attempt per process.
    """
    source = render_gelu(width)
    fn = kernel_cache().get(source, entry=GELU_ENTRY, libs=("mvec",))
    fn.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_longlong]
    built = kernel_cache().get(source, entry=GELU_ENTRY + "_width", libs=("mvec",))
    return GeluKernel(fn, built())


class CompiledGELU(nn.GELU):
    """:class:`~repro.nn.GELU` whose float32 inference runs the GELU kernel
    (:func:`gelu_kernel`) over the batch split across CPUs, bitwise equal
    to :func:`repro.tensor.ops.gelu`.

    Everything else runs ``ops.gelu``: other dtypes (float64 stays
    numpy), non-contiguous inputs, grad mode, and a kernel that did not
    build (:attr:`kernel` is ``None``).
    """

    def __init__(self) -> None:
        super().__init__()
        try:
            self.kernel: GeluKernel | None = gelu_kernel()
        except CompileError:
            self.kernel = None

    def _gelu(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty_like(x)
        self.kernel.fn(x.ctypes.data, out.ctypes.data, x.size)
        return out

    def forward(self, x: Tensor) -> Tensor:
        data = as_tensor(x).data
        if (
            self.kernel is None
            or data.dtype != np.float32
            or not data.flags.c_contiguous
            or is_grad_enabled()
        ):
            return ops.gelu(x)
        return Tensor(map_samples(self._gelu, data))
