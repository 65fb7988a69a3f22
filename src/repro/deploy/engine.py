"""Integer inference engine: execute a loaded artifact end-to-end.

The engine rebuilds the model topology from the embedded **structural
manifest** (:mod:`repro.deploy.structure`), loads the float parameters of
the non-quantized layers, and replays the embedded
:class:`~repro.quant.plan.QuantPlan`: every quantized position gets a
unified :class:`~repro.quant.qlayers.QuantizedLayer` running an *integer*
execution backend (:mod:`repro.quant.backends`) that

1. dynamically quantizes its input activations into the two-level integer
   representation recorded in the artifact (N-bit codes, M-bit per-vector
   scales — the datapath of Fig. 2b), and
2. executes the layer with the true integer kernels of
   :mod:`repro.quant.integer_exec` (Eq. 5), applying the fp coarse scales
   and bias once per output.

Backends are selected **once per model at load**: ``auto`` serves
``compiled`` (fused C linear and conv kernels over the ``integer``
numpy path, :mod:`repro.compile`) when the C toolchain probe passes and
``integer`` (weights scale-folded once at load; activations quantized
and folded per call) otherwise. Scale-product rounding forces
``integer``. The two are bitwise identical. Under ``compiled`` the
attention operands (q, k, probs, v) also quantize in one C kernel
(:class:`~repro.compile.backend.CompiledQuantizer`), bitwise equal to
the numpy :class:`~repro.quant.quantizer.Quantizer` ``integer`` keeps.
Everything outside the GEMMs — BatchNorm, LayerNorm, softmax, residual
adds, pooling — runs in floating point, exactly as the paper's
accelerator leaves non-MAC work to higher precision. Under ``compiled``
a conv's BatchNorm, residual add and ReLU (:func:`repro.nn.conv_bn`)
run in that floating point too, inside the conv kernel's output pass,
rounded step by step as numpy rounds them, and a float32 engine's GELU
runs a C kernel on libmvec's vector erf
(:class:`~repro.compile.backend.CompiledGELU`), bitwise equal to numpy's.

Two serving-relevant knobs:

``per_sample_scale``
    The fake-quant path computes the activation coarse scale gamma over the
    whole batch tensor, so a sample's output depends on what it was batched
    with. Serving wants batch-invariant replies; ``per_sample_scale=True``
    keeps one gamma per sample (``channel_axes=(0,)``) so dynamic batching
    never changes a response.
``scale_product_bits``
    The hardware scale-product rounding knob of Fig. 3, applied uniformly
    to every layer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro import nn
from repro.compile.backend import (
    CompiledBackend,
    CompiledGELU,
    CompiledQuantizer,
    operand_quantizer,
)
from repro.deploy.artifact import Artifact, ArtifactError, ArtifactLayer, load_artifact
from repro.deploy.structure import StructureError, build_from_structure
from repro.quant.backends import backend_available, resolve_backend
from repro.quant.qlayers import (
    QuantizedLayer,
    QuantMultiHeadAttention,
    attention_layers,
    quant_layers,
)
from repro.quant.quantizer import Quantizer
from repro.tensor.tensor import Tensor, no_grad

#: Manifest layer kinds executed by a :class:`QuantizedLayer`.
_INTEGER_KINDS = ("conv2d", "linear", "embedding")

#: Engine-level backend choices (``"auto"`` resolves per environment).
BACKEND_CHOICES = ("auto", "integer", "compiled")


def _pick_backend(requested: str, scale_product_bits: int | None) -> str:
    """The backend every quantized layer of the model runs.

    ``auto`` serves the measured winner, ``compiled``, wherever the
    toolchain probe passes and ``integer`` silently otherwise; an
    explicit request for an unavailable backend degrades with one
    warning (:func:`resolve_backend`). The compiled kernels fold the
    integer per-vector scales into the codes, which is exactly what the
    rounding knob perturbs — so rounding forces ``integer`` regardless
    of the request.
    """
    if requested == "auto":
        requested = "compiled" if backend_available("compiled") else "integer"
    else:
        requested = resolve_backend(requested)
    return "integer" if scale_product_bits is not None else requested


def _make_integer_layer(
    spec: ArtifactLayer,
    per_sample_scale: bool,
    scale_product_bits: int | None,
    out_dtype: type | None,
    backend: str,
) -> nn.Module:
    if spec.kind not in _INTEGER_KINDS:
        raise ArtifactError(f"unknown layer kind {spec.kind!r} for {spec.name}")
    return QuantizedLayer(
        spec.spec,
        bias=spec.bias,
        weight_q=spec.weight,
        backend=backend,
        per_sample_scale=per_sample_scale,
        scale_product_bits=scale_product_bits,
        out_dtype=out_dtype,
    )


def _make_attention_layer(
    spec: ArtifactLayer, module: nn.Module, per_sample_scale: bool, backend: str
) -> nn.Module:
    if not isinstance(module, nn.MultiHeadAttention):
        raise ArtifactError(
            f"manifest attention layer {spec.name!r} does not sit on a "
            f"MultiHeadAttention in the rebuilt topology (found {type(module).__name__})"
        )
    quantizers = {}
    for op_name, op_spec in spec.spec.operands.items():
        if per_sample_scale:
            # Batch-invariant serving: one coarse gamma per sample (axis 0
            # of every attention operand), matching the conv/linear layers.
            op_spec = replace(op_spec, channel_axes=(0,))
        quantizers[op_name] = (
            operand_quantizer(op_spec) if backend == "compiled" else Quantizer(op_spec)
        )
    return QuantMultiHeadAttention.from_float(module, spec.spec, quantizers)


def build_integer_model(
    artifact: Artifact,
    per_sample_scale: bool = False,
    scale_product_bits: int | None = None,
    precision: str = "float64",
    backend: str = "auto",
) -> nn.Module:
    """Rebuild the artifact's topology with integer layers swapped in.

    ``precision="float64"`` is the strict reference mode (bit-consistent
    with the fake-quant simulation up to summation order).
    ``precision="float32"`` runs the non-integer glue (BatchNorm,
    activations, residuals) and the fp scale application in single
    precision — the integer accumulators stay exact — roughly halving the
    engine's memory traffic for serving.

    Python scalars in the float glue take the tensor's dtype, so a
    float32 engine's BatchNorm, LayerNorm, attention scores and residual
    adds stay float32 too.

    ``backend`` selects the execution backend for every quantized layer:
    ``"auto"`` (``"compiled"`` when a C toolchain works, else
    ``"integer"``), ``"integer"``, or ``"compiled"`` (fused C linear and
    conv kernels plus the C attention-operand quantizer, and at float32
    the C GELU). Explicitly
    requesting an unavailable backend degrades to ``integer`` with one
    process-wide warning
    (:func:`repro.quant.backends.resolve_backend`); ``"auto"`` degrades
    silently. Every choice is bitwise identical where it applies, so the
    degradation is safe. :attr:`IntegerEngine.backends` reports the picks.
    """
    if precision not in ("float64", "float32"):
        raise ValueError(f"precision must be float64 or float32, got {precision!r}")
    if backend not in BACKEND_CHOICES:
        raise ValueError(
            f"backend must be one of {BACKEND_CHOICES}, got {backend!r}"
        )
    backend = _pick_backend(backend, scale_product_bits)
    out_dtype = np.float32 if precision == "float32" else None

    if artifact.structure is None:
        raise ArtifactError("manifest carries no structural module tree; re-export the model")
    try:
        model = build_from_structure(artifact.structure)
    except StructureError as exc:
        raise ArtifactError(str(exc)) from exc

    params = dict(model.named_parameters())
    for key, value in artifact.floats.items():
        if out_dtype is not None and value.dtype.kind == "f":
            value = value.astype(out_dtype)
        if key.startswith("buffer."):
            try:
                model._assign_buffer(key[len("buffer.") :], value)
            except KeyError as exc:
                raise ArtifactError(f"artifact buffer {key!r} not in topology") from exc
            continue
        if key not in params:
            raise ArtifactError(f"artifact parameter {key!r} not in rebuilt topology")
        if params[key].shape != value.shape:
            raise ArtifactError(
                f"shape mismatch for {key!r}: topology {params[key].shape} "
                f"vs artifact {value.shape} (topology drift?)"
            )
        params[key].data = value

    by_name = {spec.name: spec for spec in artifact.layers}

    def predicate(dotted: str, module: nn.Module) -> bool:
        return dotted in by_name

    def factory(dotted: str, module: nn.Module) -> nn.Module:
        spec = by_name[dotted]
        if spec.kind == "attention":
            return _make_attention_layer(spec, module, per_sample_scale, backend)
        return _make_integer_layer(
            spec, per_sample_scale, scale_product_bits, out_dtype, backend
        )

    swapped = set(nn.swap_modules(model, predicate, factory))
    missing = [name for name in by_name if name not in swapped]
    if missing:
        raise ArtifactError(
            f"manifest layer {missing[0]!r} not found in rebuilt topology"
        )
    if backend == "compiled" and out_dtype is np.float32:
        nn.swap_modules(
            model, lambda _, m: type(m) is nn.GELU, lambda _, m: CompiledGELU()
        )
    model.eval()
    return model


def _executed_backend(layer: QuantizedLayer) -> str:
    if layer.backend == "compiled" and not CompiledBackend.compiles(layer):
        return "integer"
    return layer.backend


def _one_path(paths: set[str]) -> str:
    return paths.pop() if len(paths) == 1 else "mixed"


class IntegerEngine:
    """A loaded artifact plus its runnable integer model.

    ``engine(*inputs)`` executes one forward pass under ``no_grad`` and
    returns the raw output array; ``engine.model`` is the underlying
    :class:`repro.nn.Module` for callers (evaluators, servers) that want
    the module interface.
    """

    def __init__(self, artifact: Artifact, model: nn.Module):
        self.artifact = artifact
        self.model = model

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        per_sample_scale: bool = False,
        scale_product_bits: int | None = None,
        precision: str = "float64",
        backend: str = "auto",
        verify: bool = True,
    ) -> "IntegerEngine":
        artifact = load_artifact(path, verify=verify)
        model = build_integer_model(
            artifact,
            per_sample_scale=per_sample_scale,
            scale_product_bits=scale_product_bits,
            precision=precision,
            backend=backend,
        )
        return cls(artifact, model)

    @property
    def backends(self) -> dict:
        """What the model runs on, e.g. ``{"compiled": 25,
        "integer": 2, "attention_operands": "compiled"}`` for a
        full-coverage MiniBERT, whose two embedding gathers have no kernel.

        Quantized layers are counted by the path they execute: a
        ``compiled`` layer counts as ``compiled`` only when it holds a
        kernel plan, and as ``integer`` (the numpy path it then
        runs) otherwise. ``attention_operands`` (present when the model
        has quantized attention) is ``"compiled"``, ``"numpy"``, or
        ``"mixed"``, and so is ``gelu`` (present when the model has GELU;
        ``compiled`` only at float32 with a kernel that built).
        """
        summary: dict = dict(sorted(Counter(
            _executed_backend(layer) for _, layer in quant_layers(self.model)
        ).items()))
        paths = {
            "compiled" if isinstance(q, CompiledQuantizer) else "numpy"
            for _, attn in attention_layers(self.model)
            for q in attn.operand_quantizers.values()
        }
        if paths:
            summary["attention_operands"] = _one_path(paths)
        paths = {
            "compiled" if getattr(m, "kernel", None) is not None else "numpy"
            for _, m in self.model.named_modules()
            if isinstance(m, nn.GELU)
        }
        if paths:
            summary["gelu"] = _one_path(paths)
        return summary

    @property
    def manifest(self) -> dict:
        return self.artifact.manifest

    @property
    def task(self) -> str | None:
        return self.artifact.task

    def __call__(self, *args, **kwargs) -> np.ndarray:
        with no_grad():
            out = self.model(*args, **kwargs)
        return out.data if isinstance(out, Tensor) else np.asarray(out)
