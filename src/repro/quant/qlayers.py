"""The single shared quantized-layer implementation.

One :class:`QuantizedLayer` serves every stage of the stack: it owns a
:class:`~repro.quant.plan.LayerQuantSpec` (what to quantize), optional
:class:`~repro.quant.quantizer.Quantizer` objects (fake-quant state), and
delegates *how* it computes to a pluggable execution backend
(:mod:`repro.quant.backends`): ``fakequant`` for PTQ/QAT simulation,
``integer`` / ``compiled`` for the true integer datapath the serving
engine runs. The layer kinds (conv2d / linear / embedding) differ
only in the :class:`~repro.quant.plan.LayerHandler` that plans and builds
them and the per-kind backend entry point; code that cares about the kind
reads ``layer.kind``.

The layers record the MAC count and tensor shapes of their last forward
pass, which the hardware model (:mod:`repro.hardware`) uses to weight
per-layer energy by operation count (as the paper does for Fig. 4-6).
"""

from __future__ import annotations

from functools import partial

from repro import nn
from repro.quant.backends import get_backend
from repro.quant.integer_exec import QuantizedTensor
from repro.quant.plan import LayerQuantSpec
from repro.quant.quantizer import Quantizer
from repro.tensor.tensor import Tensor

_RUNTIME_KNOBS = ("per_sample_scale", "scale_product_bits", "out_dtype")


class QuantizedLayer(nn.Module):
    """A quantized layer of any kind, executed by a pluggable backend.

    State it owns:

    - ``spec`` — the declarative :class:`LayerQuantSpec` (kind, geometry,
      weight/input quant specs). Geometry entries are mirrored as plain
      attributes (``in_channels``, ``stride``, ...) for ergonomic access.
    - ``weight`` / ``bias`` — float parameters (shared with the source
      module by ``LayerHandler.build``; absent on artifact-loaded layers).
    - ``weight_quantizer`` / ``input_quantizer`` — fake-quant state with
      STE backward (the ``fakequant`` backend's operands).
    - ``weight_q`` — the two-level integer weight
      (:class:`QuantizedTensor`), loaded from an artifact or derived from
      the float weight on first integer ``prepare``.
    - runtime knobs — ``per_sample_scale`` (batch-invariant serving),
      ``scale_product_bits`` (Fig. 3 hardware rounding),``out_dtype``
      (``None`` = strict float64 reference order, ``np.float32`` =
      fused low-precision serving scaling).
    """

    def __init__(
        self,
        spec: LayerQuantSpec,
        *,
        weight: nn.Parameter | None = None,
        bias=None,
        weight_quantizer: Quantizer | None = None,
        input_quantizer: Quantizer | None = None,
        weight_q: QuantizedTensor | None = None,
        backend: str = "fakequant",
        per_sample_scale: bool = False,
        scale_product_bits: int | None = None,
        out_dtype: type | None = None,
    ):
        super().__init__()
        self.spec = spec
        for key, value in spec.geometry.items():
            setattr(self, key, value)
        self.weight = weight
        self.bias = bias
        self.weight_quantizer = weight_quantizer
        self.input_quantizer = input_quantizer
        self.weight_q = weight_q
        self.per_sample_scale = per_sample_scale
        self.scale_product_bits = scale_product_bits
        self.out_dtype = out_dtype
        self.last_macs: int = 0
        self.last_output_shape: tuple[int, ...] | None = None
        self._bias_data = None
        self.set_backend(backend)

    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def backend(self) -> str:
        """Name of the execution backend this layer currently runs on."""
        return self._exec.name

    def set_backend(self, name: str, **runtime) -> "QuantizedLayer":
        """Select the execution backend (and optionally runtime knobs).

        ``runtime`` may set ``per_sample_scale``, ``scale_product_bits``,
        and ``out_dtype`` before the backend's ``prepare`` runs. The switch
        is all-or-nothing: if ``prepare`` raises, the knobs are restored
        and the previous backend is prepared again, so the layer keeps
        computing exactly what it did before. Returns ``self`` so engine
        code can build-and-configure in one expression.
        """
        for key in runtime:
            if key not in _RUNTIME_KNOBS:
                raise TypeError(f"unknown runtime knob {key!r} (expected {_RUNTIME_KNOBS})")
        exec_backend = get_backend(name)
        saved = {key: getattr(self, key) for key in runtime}
        for key, value in runtime.items():
            setattr(self, key, value)
        try:
            exec_backend.prepare(self)
        except Exception:
            for key, value in saved.items():
                setattr(self, key, value)
            previous = getattr(self, "_exec", None)
            if previous is not None:
                previous.prepare(self)
            raise
        self._exec = exec_backend
        return self

    @property
    def fuses_output_pass(self) -> bool:
        """Whether :func:`repro.nn.conv_bn` hands this layer its output
        pass: a ``compiled`` conv holding a kernel plan."""
        return self._exec.fuses_output_pass(self)

    def forward(self, x, post=None) -> Tensor:
        """``post`` is a :class:`repro.nn.norm.OutputPass`: the conv
        kernel applies it when the backend fuses it, numpy after the
        layer otherwise. The result is bitwise the same."""
        if post is not None and self.fuses_output_pass:
            return self._exec.run_conv2d(self, x, post)
        out = self._exec.run(self, x)
        return out if post is None else post(out)

    def __repr__(self) -> str:
        geo = ", ".join(f"{k}={v}" for k, v in self.spec.geometry.items())
        return f"{type(self).__name__}({geo}, backend={self.backend!r})"


class QuantMultiHeadAttention(nn.MultiHeadAttention):
    """Attention with quantized score/context matmul operands.

    The q/k/v/out projections are separate linear :class:`QuantizedLayer` children
    (swapped by their own plan entries); this wrapper additionally
    fake-quantizes the operands of the two weight-less batched matmuls —
    ``q @ k^T`` (both along d_head) and ``softmax(scores) @ v`` (probs
    along keys, v along its sequence axis) — so a transformer block's
    MACs are fully covered, per the paper's BERT evaluation. Quantizing
    these operands is arithmetic the integer datapath reproduces exactly
    (dynamic two-level quantization of both sides), so the same module
    serves the fakequant and integer execution modes.

    The attention math itself is inherited: the float base class exposes
    an ``_operand`` hook over the four matmul operands, and this class
    only overrides that hook (and :meth:`_sample_operand`, the chunked
    inference core's direct route to the same quantizers) — one copy of
    the forward to keep in sync.
    """

    def __init__(self, d_model: int, num_heads: int):
        super().__init__(d_model, num_heads)
        self.spec: LayerQuantSpec = LayerQuantSpec(name="", kind="attention")
        self.operand_quantizers: dict[str, Quantizer] = {}

    @classmethod
    def from_float(
        cls,
        mha: nn.MultiHeadAttention,
        spec: LayerQuantSpec,
        quantizers: dict[str, Quantizer],
    ) -> "QuantMultiHeadAttention":
        # Skip __init__: it would allocate four throwaway projections that
        # the shared float ones immediately replace.
        m = cls.__new__(cls)
        nn.Module.__init__(m)
        m.d_model = mha.d_model
        m.num_heads = mha.num_heads
        m.d_head = mha.d_head
        m.q_proj = mha.q_proj
        m.k_proj = mha.k_proj
        m.v_proj = mha.v_proj
        m.out_proj = mha.out_proj
        m.attn_dropout = mha.attn_dropout
        m.spec = spec
        m.operand_quantizers = quantizers
        return m

    def _operand(self, name: str, value: Tensor) -> Tensor:
        quantizer = self.operand_quantizers.get(name)
        return quantizer(value) if quantizer is not None else value

    def _sample_operand(self):
        """The quantizers' array path, when every quantizer quantizes per
        sample: the chunked core calls it directly, never through the
        ``_operand`` hook, so its time counts as the module's own."""
        quantizers = self.operand_quantizers
        if all(q.per_sample(4) for q in quantizers.values()):
            return partial(_quantize_array, quantizers)
        return None


def _quantize_array(quantizers: dict[str, Quantizer], name: str, value):
    quantizer = quantizers.get(name)
    return quantizer._fake_quant_array(value) if quantizer is not None else value


def quant_layers(model: nn.Module) -> list[tuple[str, QuantizedLayer]]:
    """All quantized layers in a model, with their dotted names."""
    return [
        (name, m) for name, m in model.named_modules() if isinstance(m, QuantizedLayer)
    ]


def attention_layers(model: nn.Module) -> list[tuple[str, QuantMultiHeadAttention]]:
    """All quantized-attention wrappers in a model, with dotted names."""
    return [
        (name, m)
        for name, m in model.named_modules()
        if isinstance(m, QuantMultiHeadAttention)
    ]


def weight_cache_stats(model: nn.Module) -> tuple[int, int]:
    """Aggregate (hits, misses) of every weight fake-quant cache in a model.

    Weights are Parameters, so their quantizers memoize on (identity,
    version) — see :class:`repro.quant.Quantizer`. On a frozen model every
    forward after the first should be all hits.
    """
    hits = misses = 0
    for _, layer in quant_layers(model):
        q = layer.weight_quantizer
        if q is not None:
            hits += q.cache_hits
            misses += q.cache_misses
    return hits, misses
