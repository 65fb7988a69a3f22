"""Stateful quantizer objects used by the fake-quant layers.

A :class:`Quantizer` owns a :class:`QuantSpec` (what format/granularity/
scale precision to use) plus calibration state, and is callable on
:class:`repro.tensor.Tensor` values. The forward result is the simulated-
quantized tensor; the backward pass is a straight-through estimator (STE),
so QAT trains the underlying full-precision weights through the quantizer
(paper §7 — scale factors themselves are not trained).
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from repro.quant.calibration import make_calibrator
from repro.quant.formats import IntFormat, fake_quantize, scale_from_absmax
from repro.quant.granularity import Granularity, VectorLayout
from repro.quant.two_level import fake_quant_two_level
from repro.quant.vsquant import fake_quant_per_vector
from repro.tensor.tensor import Tensor, as_tensor
from repro.utils.dtypes import get_compute_dtype


#: Static calibration keeps at most this many samples per observed batch.
MAX_OBSERVE_SAMPLES = 65536

_weight_cache_enabled = True


def set_weight_cache_enabled(flag: bool) -> None:
    """Globally enable/disable the static-weight fake-quant cache.

    Disabling recomputes per-vector scales + decomposition + rounding on
    every call, reproducing the seed behaviour — the throughput
    microbenchmark uses this as its baseline.
    """
    global _weight_cache_enabled
    _weight_cache_enabled = bool(flag)


def weight_cache_enabled() -> bool:
    """Whether the static-weight fake-quant cache is active."""
    return _weight_cache_enabled


class ScaleKind(enum.Enum):
    """Precision of the per-vector scale factors."""

    FP32 = "fp32"
    FP16 = "fp16"
    INT = "int"  # two-level scheme with M-bit integer per-vector scales


@dataclass(frozen=True)
class ScaleFormat:
    """Scale-factor format: fp32 / fp16 single-level, or M-bit two-level."""

    kind: ScaleKind = ScaleKind.FP32
    bits: int | None = None  # M, required for ScaleKind.INT

    def __post_init__(self):
        if self.kind is ScaleKind.INT and not self.bits:
            raise ValueError("integer scale format requires a bit width")

    @staticmethod
    def parse(text: str | None) -> "ScaleFormat":
        """Parse 'fp32', 'fp16', or an integer bit count like '4'."""
        if text is None or text == "fp32":
            return ScaleFormat(ScaleKind.FP32)
        if text == "fp16":
            return ScaleFormat(ScaleKind.FP16)
        return ScaleFormat(ScaleKind.INT, int(text))

    def __str__(self) -> str:
        return self.kind.value if self.kind is not ScaleKind.INT else f"int{self.bits}"


@dataclass(frozen=True)
class QuantSpec:
    """Everything that defines one quantizer's behaviour.

    ``channel_axes`` are the tensor axes that keep distinct coarse scale
    factors in the two-level scheme (output channel for weights; empty for
    activations, whose coarse scale is per-tensor). ``vector_axis`` is the
    dot-product reduction axis subdivided into V-element vectors.
    """

    bits: int
    signed: bool = True
    granularity: Granularity = Granularity.PER_TENSOR
    vector_size: int = 16
    vector_axis: int = -1
    channel_axes: tuple[int, ...] = ()
    scale: ScaleFormat = field(default_factory=ScaleFormat)
    calibration: str = "max"
    dynamic: bool = True
    decompose_order: str = "vector_first"

    @property
    def fmt(self) -> IntFormat:
        return IntFormat(self.bits, self.signed)

    @property
    def scale_fmt(self) -> IntFormat | None:
        if self.scale.kind is ScaleKind.INT:
            return IntFormat(self.scale.bits, signed=False)
        return None

    def with_signed(self, signed: bool) -> "QuantSpec":
        return replace(self, signed=signed)


class Quantizer:
    """Callable fake-quantizer with calibration state.

    Static per-tensor quantizers observe calibration batches and then
    ``finalize()``; dynamic quantizers (the paper's default for per-vector
    activations and for max-calibrated weights) compute scales on every
    call, so they track changing weights during QAT for free.
    """

    def __init__(self, spec: QuantSpec):
        self.spec = spec
        self._alpha: np.ndarray | None = None  # static per-tensor alpha
        self._samples: list[np.ndarray] = []
        self._observing = False
        #: When True, the two-level path stores the integer per-vector
        #: scales of the last call in ``last_sq`` — used by the hardware
        #: model to measure scale-product data-gating (Fig. 3).
        self.record_scales = False
        self.last_sq: np.ndarray | None = None
        #: Memoized fake-quant of the last versioned input (weights): the
        #: source array, its Parameter version, the compute-dtype policy it
        #: was computed under, and the result. Guarded by ``_cache_lock`` so
        #: a serving worker pool can share one quantized model (the lock
        #: covers lookup *and* recompute, so a cold cache is filled exactly
        #: once no matter how many threads race on it).
        self._cache: tuple[np.ndarray, int, str, np.ndarray] | None = None
        self._cache_lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0
        if spec.granularity is Granularity.PER_VECTOR and spec.vector_size < 1:
            raise ValueError("per-vector quantization requires vector_size >= 1")

    # ------------------------------------------------------------------
    # calibration (static mode)
    # ------------------------------------------------------------------
    def begin_observation(self) -> None:
        """Start collecting samples for static calibration."""
        self._samples = []
        self._observing = True
        self._cache = None

    def observe(self, x: np.ndarray) -> None:
        """Record one batch of values (downsampled) for later calibration."""
        flat = np.asarray(x).reshape(-1)
        if flat.size > MAX_OBSERVE_SAMPLES:
            # Ceil-division: a floor stride keeps up to ~2x the bound
            # (size 131071 -> stride 1 would keep everything).
            stride = -(-flat.size // MAX_OBSERVE_SAMPLES)
            flat = flat[::stride]
        self._samples.append(flat.astype(np.float64, copy=True))

    def finalize(self) -> None:
        """Compute and freeze the static per-tensor scale from observations."""
        if not self._samples:
            raise RuntimeError("finalize() called with no observed batches")
        if self.spec.granularity is not Granularity.PER_TENSOR:
            raise RuntimeError(
                "static calibration from observations is only supported at "
                "per-tensor granularity (finer static scales come from the "
                "tensor itself)"
            )
        data = np.concatenate(self._samples)[None, :]  # one group
        calib = make_calibrator(self.spec.calibration)
        self._alpha = calib.calibrate(data, self.spec.fmt)  # shape (1,)
        self._samples = []
        self._observing = False
        self._cache = None

    @property
    def is_calibrated(self) -> bool:
        return self._alpha is not None

    def per_sample(self, ndim: int) -> bool:
        """Whether each sample (index of axis 0) of an ``ndim``-D input
        quantizes on its own values alone, so any sample range may run
        separately, on any thread, with a bitwise equal result: one
        coarse scale per sample (``channel_axes == (0,)``) at per-channel
        or per-vector granularity, vectors off axis 0, and neither
        calibration observing the batch nor ``record_scales`` keeping
        its scales."""
        spec = self.spec
        return (
            spec.granularity is not Granularity.PER_TENSOR
            and tuple(spec.channel_axes) == (0,)
            and spec.vector_axis % ndim != 0
            and not self._observing
            and not self.record_scales
        )

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def scales_for(self, data: np.ndarray) -> np.ndarray:
        """The elementwise scale array this quantizer would apply to ``data``.

        Only meaningful for coarse granularities (used by tests and the
        hardware model); per-vector paths compute scales internally.
        """
        spec = self.spec
        if spec.granularity is Granularity.PER_TENSOR:
            alpha = self._alpha if self._alpha is not None else np.abs(data).max()
            return scale_from_absmax(np.asarray(alpha), spec.fmt)
        if spec.granularity is Granularity.PER_CHANNEL:
            axes = tuple(
                i for i in range(data.ndim) if i not in {a % data.ndim for a in spec.channel_axes}
            )
            alpha = np.abs(data).max(axis=axes, keepdims=True)
            if spec.calibration != "max":
                grouped = np.moveaxis(
                    data, [a % data.ndim for a in spec.channel_axes], range(len(spec.channel_axes))
                ).reshape(int(np.prod(alpha.shape)), -1)
                calib = make_calibrator(self.spec.calibration)
                alpha = calib.calibrate(grouped, spec.fmt).reshape(alpha.shape)
            return scale_from_absmax(alpha, spec.fmt)
        raise RuntimeError("scales_for() is not defined for per-vector granularity")

    def _fake_quant_array(self, data: np.ndarray) -> np.ndarray:
        spec = self.spec
        if self._observing:
            self.observe(data)
            return data  # calibration passes run unquantized
        if spec.granularity in (Granularity.PER_TENSOR, Granularity.PER_CHANNEL):
            if (
                spec.granularity is Granularity.PER_TENSOR
                and not spec.dynamic
                and self._alpha is None
            ):
                raise RuntimeError(
                    "static per-tensor quantizer used before calibration; run "
                    "the PTQ calibration pass first"
                )
            return fake_quantize(data, self.scales_for(data), spec.fmt)
        layout = VectorLayout(spec.vector_axis, spec.vector_size)
        alpha = None
        if spec.calibration != "max":
            # Non-max calibration at per-vector granularity: run the
            # calibrator over each vector's elements. The paper (§4.3)
            # warns V samples may be statistically thin for percentile /
            # entropy; the ablation bench quantifies exactly that.
            vectors = layout.to_vectors(data)
            grouped = vectors.reshape(-1, spec.vector_size)
            calib = make_calibrator(spec.calibration)
            alpha = calib.calibrate(grouped, spec.fmt).reshape(vectors.shape[:-1])
        if spec.scale.kind is ScaleKind.INT:
            if self.record_scales:
                from repro.quant.two_level import decompose_scales
                from repro.quant.vsquant import per_vector_scales

                s_fp = per_vector_scales(data, layout, spec.fmt, alpha=alpha)
                self.last_sq = decompose_scales(
                    s_fp, spec.scale_fmt, channel_axes=spec.channel_axes
                ).sq
            return fake_quant_two_level(
                data,
                layout,
                spec.fmt,
                spec.scale_fmt,
                channel_axes=spec.channel_axes,
                order=spec.decompose_order,
                alpha=alpha,
            )
        scales = None
        if alpha is not None:
            from repro.quant.vsquant import per_vector_scales

            scales = per_vector_scales(data, layout, spec.fmt, alpha=alpha)
        return fake_quant_per_vector(
            data, layout, spec.fmt, scales=scales, scale_dtype=spec.scale.kind.value
        )

    def _cached_fake_quant(self, x: Tensor) -> np.ndarray:
        """Fake-quant with memoization for version-carrying inputs.

        Inputs exposing a ``version`` attribute (:class:`repro.nn.Parameter`,
        i.e. frozen weights during PTQ eval) are keyed on ``(data identity,
        version)``; anything else — activations — always recomputes. The
        cache is bypassed while observing (calibration must see raw data)
        and while ``record_scales`` is set (``last_sq`` must be refreshed).
        """
        version = getattr(x, "version", None)
        if (
            version is None
            or not _weight_cache_enabled
            or self._observing
            or self.record_scales
        ):
            return self._fake_quant_array(x.data)
        data = x.data
        policy = get_compute_dtype()
        with self._cache_lock:
            cached = self._cache
            if (
                cached is not None
                and cached[0] is data
                and cached[1] == version
                and cached[2] == policy
            ):
                self.cache_hits += 1
                return cached[3]
            fq = self._fake_quant_array(data)
            self._cache = (data, version, policy, fq)
            self.cache_misses += 1
            return fq

    def __call__(self, x) -> Tensor:
        """Fake-quantize ``x`` with a straight-through-estimator backward."""
        x = as_tensor(x)
        fq = self._cached_fake_quant(x)

        def backward(g: np.ndarray) -> None:
            if x.requires_grad:
                x._accumulate(g)

        return Tensor._make(fq, (x,), backward)

    # ------------------------------------------------------------------
    # (de)serialization — locks are neither picklable nor deep-copyable
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_cache_lock"] = None
        # The memo is keyed on array *identity*, which never survives
        # (de)serialization — dropping it saves shipping every weight twice.
        state["_cache"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._cache_lock = threading.Lock()

    def __repr__(self) -> str:
        return f"Quantizer({self.spec})"
