"""QuantPlan: one declarative description of how a model is quantized.

The plan is the contract shared by every stage of the stack. The PTQ/QAT
swap pass, the artifact exporter, and the integer serving engine all used
to walk the module tree themselves with their own Conv2d/Linear
``isinstance`` ladders; now a single planner walks any :class:`repro.nn.
Module` through a **layer-handler registry** and emits a
:class:`QuantPlan` — an ordered, JSON-serializable map of dotted module
names to :class:`LayerQuantSpec` entries (layer kind, weight/input
:class:`~repro.quant.quantizer.QuantSpec`, geometry, skip flags). Every
downstream consumer operates on the plan:

- :func:`repro.quant.ptq.quantize_model` applies it (fake-quant swap),
- :func:`repro.deploy.save_artifact` embeds it in ``manifest.json``,
- :func:`repro.deploy.build_integer_model` replays it with an integer
  execution backend.

Adding a layer type means registering one :class:`LayerHandler` — the
paper's point that one per-vector scaled format serves PTQ, QAT, and
integer inference alike, expressed as code. Handlers ship for Conv2d,
Linear, Embedding, and the attention score/context matmuls (so MiniBERT
quantizes fully, not just its projection GEMMs).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterator, Mapping

from repro import nn
from repro.quant.granularity import Granularity
from repro.quant.quantizer import QuantSpec, Quantizer, ScaleFormat, ScaleKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.quant.ptq import PTQConfig


# ----------------------------------------------------------------------
# QuantSpec (de)serialization
# ----------------------------------------------------------------------
def quant_spec_to_dict(spec: QuantSpec) -> dict:
    """JSON-able form of a :class:`QuantSpec` (plan/manifest embedding)."""
    return {
        "bits": spec.bits,
        "signed": spec.signed,
        "granularity": spec.granularity.value,
        "vector_size": spec.vector_size,
        "vector_axis": spec.vector_axis,
        "channel_axes": list(spec.channel_axes),
        "scale": str(spec.scale),
        "calibration": spec.calibration,
        "dynamic": spec.dynamic,
        "decompose_order": spec.decompose_order,
    }


def quant_spec_from_dict(data: Mapping) -> QuantSpec:
    """Inverse of :func:`quant_spec_to_dict`."""
    scale_text = data["scale"]
    if scale_text.startswith("int"):
        scale = ScaleFormat(ScaleKind.INT, int(scale_text[3:]))
    else:
        scale = ScaleFormat.parse(scale_text)
    return QuantSpec(
        bits=int(data["bits"]),
        signed=bool(data["signed"]),
        granularity=Granularity(data["granularity"]),
        vector_size=int(data["vector_size"]),
        vector_axis=int(data["vector_axis"]),
        channel_axes=tuple(int(a) for a in data["channel_axes"]),
        scale=scale,
        calibration=data["calibration"],
        dynamic=bool(data["dynamic"]),
        decompose_order=data["decompose_order"],
    )


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LayerQuantSpec:
    """Declarative quantization recipe for one module.

    ``kind`` selects the :class:`LayerHandler`; ``geometry`` carries the
    handler-specific constructor facts (channels, features, stride, ...)
    so the layer can be rebuilt without the original module. ``weight`` /
    ``inputs`` are the fake-quant specs (either may be ``None``: weights
    for weight-less kinds, inputs for index-fed kinds like embeddings).
    ``operands`` holds extra activation specs for multi-operand kinds —
    the attention handler uses ``q``/``k``/``probs``/``v``. ``skipped``
    entries record layers the config excluded, keeping the plan a complete
    audit of the traversal.
    """

    name: str
    kind: str
    geometry: dict = field(default_factory=dict)
    weight: QuantSpec | None = None
    inputs: QuantSpec | None = None
    operands: dict = field(default_factory=dict)  # name -> QuantSpec
    skipped: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "geometry": dict(self.geometry),
            "weight": quant_spec_to_dict(self.weight) if self.weight else None,
            "inputs": quant_spec_to_dict(self.inputs) if self.inputs else None,
            "operands": {k: quant_spec_to_dict(v) for k, v in self.operands.items()},
            "skipped": self.skipped,
        }

    @staticmethod
    def from_dict(data: Mapping) -> "LayerQuantSpec":
        return LayerQuantSpec(
            name=data["name"],
            kind=data["kind"],
            geometry=dict(data.get("geometry") or {}),
            weight=quant_spec_from_dict(data["weight"]) if data.get("weight") else None,
            inputs=quant_spec_from_dict(data["inputs"]) if data.get("inputs") else None,
            operands={
                k: quant_spec_from_dict(v)
                for k, v in (data.get("operands") or {}).items()
            },
            skipped=bool(data.get("skipped", False)),
        )


class QuantPlan:
    """Ordered map of dotted module names to :class:`LayerQuantSpec`."""

    def __init__(self, specs: Iterator[LayerQuantSpec] | list[LayerQuantSpec] = ()):
        self._specs: dict[str, LayerQuantSpec] = {}
        for spec in specs:
            self.add(spec)

    def add(self, spec: LayerQuantSpec) -> None:
        if spec.name in self._specs:
            raise ValueError(f"duplicate plan entry for {spec.name!r}")
        self._specs[spec.name] = spec

    def get(self, name: str) -> LayerQuantSpec | None:
        return self._specs.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[LayerQuantSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    @property
    def active(self) -> list[LayerQuantSpec]:
        """Entries that actually quantize (skip flags filtered out)."""
        return [s for s in self if not s.skipped]

    def to_list(self) -> list[dict]:
        """JSON-able form (embedded in artifact manifests)."""
        return [s.to_dict() for s in self]

    @staticmethod
    def from_list(entries: list[Mapping]) -> "QuantPlan":
        return QuantPlan(LayerQuantSpec.from_dict(e) for e in entries)

    def __repr__(self) -> str:
        kinds: dict[str, int] = {}
        for s in self.active:
            kinds[s.kind] = kinds.get(s.kind, 0) + 1
        inner = ", ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
        return f"QuantPlan({len(self)} entries: {inner})"


# ----------------------------------------------------------------------
# layer handlers
# ----------------------------------------------------------------------
class LayerHandler:
    """Pluggable per-layer-type logic for the whole quantization stack.

    One handler per ``kind`` covers: *planning* (derive a
    :class:`LayerQuantSpec` from a float module + config), *swapping*
    (build the fake-quant replacement), *skeleton rebuild* (float module
    from geometry alone, for artifact loading without the original
    class), and the per-kind execution entry points used by the
    :mod:`repro.quant.backends` execution backends.
    """

    kind: str = ""
    #: Float module class this handler plans (checked with exact type so a
    #: quantized subclass is never re-planned).
    module_types: tuple[type, ...] = ()
    #: Dotted import path of the float class (structural manifests).
    float_class: str = ""

    def enabled(self, config: "PTQConfig") -> bool:
        return True

    def plan(self, name: str, module: nn.Module, config: "PTQConfig") -> LayerQuantSpec:
        raise NotImplementedError

    def build(self, module: nn.Module, spec: LayerQuantSpec) -> nn.Module:
        """Fake-quant replacement for a float module, wired per ``spec``.

        The replacement shares the module's parameters; ``bias`` joins the
        geometry so a skeleton rebuilt from it has the same parameters.
        """
        from repro.quant.qlayers import QuantizedLayer

        bias = getattr(module, "bias", None)
        return QuantizedLayer(
            replace(spec, geometry={**spec.geometry, "bias": bias is not None}),
            weight=module.weight,
            bias=bias,
            weight_quantizer=Quantizer(spec.weight) if spec.weight else None,
            input_quantizer=Quantizer(spec.inputs) if spec.inputs else None,
        )

    def skeleton(self, spec: LayerQuantSpec) -> nn.Module:
        """Float placeholder module rebuilt from geometry alone."""
        raise NotImplementedError


_HANDLERS: dict[str, LayerHandler] = {}


def register_handler(handler: LayerHandler) -> None:
    """Register a :class:`LayerHandler` under its ``kind``."""
    _HANDLERS[handler.kind] = handler


def get_handler(kind: str) -> LayerHandler:
    if kind not in _HANDLERS:
        raise KeyError(
            f"no layer handler registered for kind {kind!r} "
            f"(registered: {sorted(_HANDLERS)})"
        )
    return _HANDLERS[kind]


def handlers() -> list[LayerHandler]:
    return list(_HANDLERS.values())


# ----------------------------------------------------------------------
# spec factories shared by the handlers (paper §4 conventions)
# ----------------------------------------------------------------------
def weight_spec(config: "PTQConfig", vector_axis: int = 1) -> QuantSpec:
    """Weight tensors: output channel is axis 0, reduction axis is 1."""
    return QuantSpec(
        bits=config.weight_bits,
        signed=True,
        granularity=config.weight_granularity,
        vector_size=config.vector_size,
        vector_axis=vector_axis,
        channel_axes=(0,),
        scale=config.weight_scale,
        calibration=config.weight_calibration,
        dynamic=True,
        decompose_order=config.decompose_order,
    )


def input_spec(
    config: "PTQConfig", vector_axis: int, signed: bool | None = None
) -> QuantSpec:
    """Activation tensors, vectorized along the reduction axis."""
    if signed is None:
        signed = True if config.act_signed is None else config.act_signed
    return QuantSpec(
        bits=config.act_bits,
        signed=signed,
        granularity=config.act_granularity,
        vector_size=config.vector_size,
        vector_axis=vector_axis,
        channel_axes=(),
        scale=config.act_scale,
        calibration=config.act_calibration,
        dynamic=config.act_dynamic,
        decompose_order=config.decompose_order,
    )


class Conv2dHandler(LayerHandler):
    kind = "conv2d"
    module_types = (nn.Conv2d,)
    float_class = "repro.nn.conv.Conv2d"

    def plan(self, name, module, config):
        return LayerQuantSpec(
            name=name,
            kind=self.kind,
            geometry={
                "in_channels": module.in_channels,
                "out_channels": module.out_channels,
                "kernel_size": module.kernel_size,
                "stride": module.stride,
                "padding": module.padding,
            },
            weight=weight_spec(config, vector_axis=1),
            inputs=input_spec(config, vector_axis=1),
        )

    def skeleton(self, spec):
        g = spec.geometry
        return nn.Conv2d(
            g["in_channels"],
            g["out_channels"],
            g["kernel_size"],
            stride=g["stride"],
            padding=g["padding"],
            bias=g.get("bias", True),
        )


class LinearHandler(LayerHandler):
    kind = "linear"
    module_types = (nn.Linear,)
    float_class = "repro.nn.linear.Linear"

    def plan(self, name, module, config):
        return LayerQuantSpec(
            name=name,
            kind=self.kind,
            geometry={
                "in_features": module.in_features,
                "out_features": module.out_features,
            },
            weight=weight_spec(config, vector_axis=1),
            inputs=input_spec(config, vector_axis=-1),
        )

    def skeleton(self, spec):
        g = spec.geometry
        return nn.Linear(g["in_features"], g["out_features"], bias=g.get("bias", True))


class EmbeddingHandler(LayerHandler):
    """Weight-only quantization of embedding tables (opt-in).

    Indices are not quantizable, so the layer has no input quantizer; the
    table itself is per-vector quantized along the embedding dimension
    (the axis the downstream GEMMs reduce over), one coarse scale per row.
    """

    kind = "embedding"
    module_types = (nn.Embedding,)
    float_class = "repro.nn.embedding.Embedding"

    def enabled(self, config):
        return config.quantize_embeddings

    def plan(self, name, module, config):
        return LayerQuantSpec(
            name=name,
            kind=self.kind,
            geometry={
                "num_embeddings": module.num_embeddings,
                "embedding_dim": module.embedding_dim,
            },
            weight=weight_spec(config, vector_axis=1),
        )

    def skeleton(self, spec):
        g = spec.geometry
        return nn.Embedding(g["num_embeddings"], g["embedding_dim"])


class AttentionHandler(LayerHandler):
    """Quantize the attention score and context matmuls (opt-in).

    The q/k/v/out *projections* are Linear children planned separately;
    this handler covers the two weight-less batched matmuls the paper's
    vector MAC also executes — ``q @ k^T`` and ``softmax(scores) @ v`` —
    by fake-quantizing each operand along its reduction axis. Softmax
    probabilities are unsigned by construction; the other operands keep
    the configured activation signedness.
    """

    kind = "attention"
    module_types = (nn.MultiHeadAttention,)
    float_class = "repro.nn.attention.MultiHeadAttention"

    def enabled(self, config):
        return config.quantize_attention

    def plan(self, name, module, config):
        return LayerQuantSpec(
            name=name,
            kind=self.kind,
            geometry={
                "d_model": module.d_model,
                "num_heads": module.num_heads,
            },
            operands={
                # scores = q @ k^T: both reduce over d_head (their last axis)
                "q": input_spec(config, vector_axis=-1),
                "k": input_spec(config, vector_axis=-1),
                # ctx = probs @ v: probs reduce over keys (last axis),
                # v over its sequence axis (-2)
                "probs": input_spec(config, vector_axis=-1, signed=False),
                "v": input_spec(config, vector_axis=-2),
            },
        )

    def build(self, module, spec):
        from repro.quant.qlayers import QuantMultiHeadAttention

        return QuantMultiHeadAttention.from_float(
            module, spec, {k: Quantizer(v) for k, v in spec.operands.items()}
        )

    def skeleton(self, spec):
        g = spec.geometry
        return nn.MultiHeadAttention(g["d_model"], g["num_heads"])


register_handler(Conv2dHandler())
register_handler(LinearHandler())
register_handler(EmbeddingHandler())
register_handler(AttentionHandler())


# ----------------------------------------------------------------------
# the planner
# ----------------------------------------------------------------------
def _match_handler(module: nn.Module) -> LayerHandler | None:
    for handler in _HANDLERS.values():
        if isinstance(module, handler.module_types):
            return handler
    return None


def build_plan(model: nn.Module, config: "PTQConfig") -> QuantPlan:
    """Walk ``model`` through the handler registry and emit a QuantPlan.

    A name in ``config.skip`` excludes the module *and its subtree*
    (recorded as a skipped entry so the plan stays a complete audit).
    Attention modules contribute their own entry and still recurse, so
    their inner projections get their own linear entries.
    """
    from repro.quant.qlayers import QuantizedLayer, QuantMultiHeadAttention

    plan = QuantPlan()

    def visit(module: nn.Module, prefix: str) -> None:
        for name, child in module._modules.items():
            dotted = f"{prefix}{name}"
            if isinstance(child, (QuantizedLayer, QuantMultiHeadAttention)):
                continue  # already quantized; never re-plan
            if dotted in config.skip:
                handler = _match_handler(child)
                plan.add(
                    LayerQuantSpec(
                        name=dotted,
                        kind=handler.kind if handler else "module",
                        skipped=True,
                    )
                )
                continue  # skip the whole subtree, like the legacy walkers
            handler = _match_handler(child)
            if handler is not None and handler.enabled(config):
                plan.add(handler.plan(dotted, child, config))
                if handler.kind != "attention":
                    continue  # leaf kinds own their parameters outright
            visit(child, prefix=f"{dotted}.")

    visit(model, "")
    return plan


def apply_plan(model: nn.Module, plan: QuantPlan) -> list[str]:
    """Swap ``model``'s modules to fake-quant layers per ``plan`` (in place).

    Returns the dotted names swapped. Uses the shared
    :func:`repro.nn.swap_modules` walker; attention replacements are
    themselves walked so their projection children swap too. Every active
    plan entry must land on a module — a stale or misspelled name raises
    rather than leaving a layer silently unquantized.
    """
    from repro.quant.qlayers import QuantizedLayer, QuantMultiHeadAttention

    specs = {s.name: s for s in plan.active}

    def predicate(dotted: str, module: nn.Module) -> bool:
        return dotted in specs and not isinstance(
            module, (QuantizedLayer, QuantMultiHeadAttention)
        )

    def factory(dotted: str, module: nn.Module) -> nn.Module:
        spec = specs[dotted]
        return get_handler(spec.kind).build(module, spec)

    swapped = nn.swap_modules(model, predicate, factory)
    missing = [name for name in specs if name not in set(swapped)]
    if missing:
        raise ValueError(
            f"plan entries matched no module in the model: {missing} "
            "(typo in a hand-tuned plan, or the model is already quantized?)"
        )
    return swapped


def plan_from_model(model: nn.Module) -> QuantPlan:
    """Reconstruct the live plan of an already-quantized model.

    Reads the quantizers actually attached to the model, so calibration
    outcomes (e.g. auto-detected activation signedness) are reflected —
    this is the plan :func:`repro.deploy.save_artifact` embeds. Skipped
    entries of the plan the model was quantized under (stashed by
    :func:`repro.quant.ptq.quantize_model`) are carried over, keeping the
    audit trail of excluded layers intact across export.
    """
    from repro.quant.qlayers import QuantizedLayer, QuantMultiHeadAttention

    plan = QuantPlan()
    for name, module in model.named_modules():
        if isinstance(module, QuantizedLayer):
            spec = module.spec
            updates: dict = {}
            if module.weight_quantizer is not None:
                updates["weight"] = module.weight_quantizer.spec
            if module.input_quantizer is not None:
                updates["inputs"] = module.input_quantizer.spec
            plan.add(replace(spec, name=name, **updates))
        elif isinstance(module, QuantMultiHeadAttention):
            spec = module.spec
            operands = {k: q.spec for k, q in module.operand_quantizers.items()}
            plan.add(replace(spec, name=name, operands=operands))
    source: QuantPlan | None = getattr(model, "_quant_plan", None)
    if source is not None:
        for entry in source:
            if entry.skipped and entry.name not in plan:
                plan.add(entry)
    return plan
