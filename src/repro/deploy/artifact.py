"""Whole-model quantized artifacts: versioned, checksummed, bit-packed.

An artifact is a directory with two files:

``manifest.json``
    Format version, model topology — a **structural manifest** (module-tree
    spec, see :mod:`repro.deploy.structure`) plus the architecture kwargs of
    zoo models as metadata — the embedded
    :class:`~repro.quant.plan.QuantPlan` describing every quantized layer,
    and a segment table into the payload blob with per-segment SHA-256
    checksums.
``weights.bin``
    One contiguous blob. Quantized layer weights are stored as exact-width
    bitstreams (N-bit two's-complement codes and M-bit unsigned per-vector
    scales via :func:`repro.quant.export.pack_bits`); coarse gammas,
    biases, and all non-quantized float parameters are stored as raw
    little-endian arrays at their native dtype so a save → load round-trip
    is bitwise lossless.

``save_artifact`` consumes a fake-quantized model produced by
:func:`repro.quant.ptq.quantize_model` under a two-level VS-Quant config
(the paper's deployable representation); ``load_artifact`` verifies the
checksums and returns the unpacked layers, from which
:func:`repro.deploy.engine.build_integer_model` rebuilds a runnable model.
Because the manifest embeds both the plan and the structural module tree,
*any* model whose classes are importable round-trips save → load → serve
(format version 2; version-1 artifacts carry neither and are rejected).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from repro import nn
from repro.deploy.structure import module_structure
from repro.quant.export import pack_bits, unpack_bits
from repro.quant.formats import IntFormat
from repro.quant.granularity import Granularity, VectorLayout
from repro.quant.integer_exec import QuantizedTensor, quantize_tensor
from repro.quant.plan import LayerQuantSpec, QuantPlan, plan_from_model
from repro.quant.qlayers import attention_layers, quant_layers
from repro.quant.quantizer import QuantSpec, ScaleKind
from repro.utils.log import get_logger

logger = get_logger("deploy")

ARTIFACT_FORMAT = "repro.deploy/quantized-model"
#: Version 2 embeds the QuantPlan and the structural manifest, from which
#: every model is rebuilt, and adds the embedding/attention layer kinds.
ARTIFACT_VERSION = 2
_SUPPORTED_VERSIONS = (2,)

MANIFEST_NAME = "manifest.json"
PAYLOAD_NAME = "weights.bin"


class ArtifactError(RuntimeError):
    """Raised for unexportable models, malformed or corrupt artifacts."""


def _zoo_arch(model: nn.Module) -> dict | None:
    """Constructor kwargs of a zoo model (manifest metadata), else ``None``.

    Serving reads ``max_seq_len``/``vocab_size`` from them to synthesize
    QA payloads; the topology itself comes from the structural manifest.
    """
    from repro.models.bert import MiniBERT
    from repro.models.resnet import MiniResNet

    if isinstance(model, MiniResNet):
        return dict(model.arch)
    if isinstance(model, MiniBERT):
        import dataclasses

        return dataclasses.asdict(model.config)
    return None


# ----------------------------------------------------------------------
# payload blob
# ----------------------------------------------------------------------
class _BlobWriter:
    """Appends byte segments and records (offset, length, sha256)."""

    def __init__(self) -> None:
        self._chunks: list[bytes] = []
        self._offset = 0

    def add(self, data: bytes) -> dict:
        seg = {
            "offset": self._offset,
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        }
        self._chunks.append(data)
        self._offset += len(data)
        return seg

    def add_array(self, arr: np.ndarray) -> dict:
        arr = np.ascontiguousarray(arr)
        seg = self.add(arr.tobytes())
        seg["dtype"] = str(arr.dtype)
        seg["shape"] = list(arr.shape)
        return seg

    def payload(self) -> bytes:
        return b"".join(self._chunks)


def _read_segment(blob: bytes, seg: Mapping, verify: bool) -> bytes:
    lo, n = int(seg["offset"]), int(seg["bytes"])
    if lo < 0 or lo + n > len(blob):
        raise ArtifactError(f"segment [{lo}, {lo + n}) outside payload of {len(blob)} bytes")
    data = blob[lo : lo + n]
    if verify and hashlib.sha256(data).hexdigest() != seg["sha256"]:
        raise ArtifactError(f"checksum mismatch for segment at offset {lo}")
    return data


def _read_array(blob: bytes, seg: Mapping, verify: bool) -> np.ndarray:
    data = _read_segment(blob, seg, verify)
    arr = np.frombuffer(data, dtype=np.dtype(seg["dtype"]))
    return arr.reshape([int(d) for d in seg["shape"]]).copy()


# ----------------------------------------------------------------------
# layer specs
# ----------------------------------------------------------------------
@dataclass
class ArtifactLayer:
    """One quantized layer, unpacked and ready for the integer engine."""

    name: str
    kind: str  # "conv2d" | "linear" | "embedding" | "attention"
    geometry: dict
    weight: QuantizedTensor | None
    bias: np.ndarray | None
    spec: LayerQuantSpec


@dataclass
class Artifact:
    """A loaded artifact: manifest + unpacked layers + float parameters."""

    manifest: dict
    layers: list[ArtifactLayer]
    floats: dict[str, np.ndarray]
    plan: QuantPlan

    @property
    def task(self) -> str | None:
        return self.manifest["model"].get("task")

    @property
    def structure(self) -> dict | None:
        return self.manifest["model"].get("structure")


def _require_two_level(name: str, role: str, spec: QuantSpec | None) -> QuantSpec:
    """The artifact format stores per-vector two-level integer tensors only."""
    if spec is None:
        raise ArtifactError(f"layer {name}: {role} quantizer missing; run quantize_model first")
    if spec.granularity is not Granularity.PER_VECTOR or spec.scale.kind is not ScaleKind.INT:
        raise ArtifactError(
            f"layer {name}: {role} must use per-vector two-level integer scales "
            f"(got granularity={spec.granularity.value}, scale={spec.scale}); "
            "export a PTQConfig.vs_quant(...) model with integer weight_scale/act_scale"
        )
    if spec.calibration != "max":
        raise ArtifactError(
            f"layer {name}: {role} calibration {spec.calibration!r} is not "
            "representable in the artifact (deployment uses max scaling)"
        )
    if spec.decompose_order != "vector_first":
        raise ArtifactError(
            f"layer {name}: decompose_order {spec.decompose_order!r} is not "
            "supported by the integer engine (vector_first only)"
        )
    return spec


def _act_entry(spec: QuantSpec) -> dict:
    """Compact activation format of a layer-table entry.

    Readers use the embedded plan; the block stays for older builds that
    read activation formats from the layer table.
    """
    return {
        "bits": spec.bits,
        "signed": spec.signed,
        "scale_bits": spec.scale_fmt.bits,
        "vector_size": spec.vector_size,
        "vector_axis": spec.vector_axis,
    }


# ----------------------------------------------------------------------
# save
# ----------------------------------------------------------------------
def save_artifact(
    model: nn.Module,
    path: str | Path,
    *,
    arch: dict | None = None,
    name: str | None = None,
    task: str | None = None,
    quant_label: str | None = None,
    input_shape: tuple[int, ...] | None = None,
) -> dict:
    """Serialize a fake-quantized model into an artifact directory.

    ``model`` must come from :func:`repro.quant.ptq.quantize_model` under a
    two-level VS-Quant config. The topology travels as the structural
    manifest; ``arch`` is recorded as metadata (derived for zoo models).
    Returns the manifest dict.
    """
    layers = quant_layers(model)
    if not layers:
        raise ArtifactError("model has no quantized layers; run quantize_model first")
    if arch is None:
        arch = _zoo_arch(model)

    plan = plan_from_model(model)
    blob = _BlobWriter()
    quantized_keys: set[str] = set()
    layer_entries: list[dict] = []
    packed_payload = 0
    fp32_weight_bytes = 0

    for dotted, layer in layers:
        spec = plan.get(dotted)
        wspec = _require_two_level(dotted, "weight", spec.weight)
        aspec = None
        if layer.input_quantizer is not None:
            aspec = _require_two_level(dotted, "input", spec.inputs)

        weight = np.asarray(layer.weight.data, dtype=np.float64)
        layout = VectorLayout(wspec.vector_axis, wspec.vector_size)
        qt = quantize_tensor(
            weight, layout, wspec.fmt, wspec.scale_fmt, channel_axes=wspec.channel_axes
        )
        codes_seg = blob.add(pack_bits(qt.codes, wspec.bits, wspec.signed))
        scales_seg = blob.add(pack_bits(qt.sq, wspec.scale_fmt.bits, signed=False))
        gamma_seg = blob.add_array(np.asarray(qt.gamma, dtype=np.float64))
        packed_payload += codes_seg["bytes"] + scales_seg["bytes"]
        fp32_weight_bytes += weight.size * 4

        bias_entry = None
        quantized_keys.add(f"{dotted}.weight")
        if layer.bias is not None:
            bias_entry = blob.add_array(np.asarray(layer.bias.data))
            quantized_keys.add(f"{dotted}.bias")

        layer_entries.append(
            {
                "name": dotted,
                "kind": layer.spec.kind,
                "geometry": dict(layer.spec.geometry),
                "weight": {
                    "elem_bits": wspec.bits,
                    "elem_signed": wspec.signed,
                    "scale_bits": wspec.scale_fmt.bits,
                    "vector_size": wspec.vector_size,
                    "axis": wspec.vector_axis,
                    "axis_len": qt.axis_len,
                    "codes_shape": list(qt.codes.shape),
                    "sq_shape": list(qt.sq.shape),
                    "codes": codes_seg,
                    "scales": scales_seg,
                    "gamma": gamma_seg,
                },
                "bias": bias_entry,
                "act": _act_entry(aspec) if aspec is not None else None,
            }
        )

    # Attention entries carry formats only: both matmul operands are
    # quantized dynamically at inference time, there is nothing to pack.
    for dotted, attn in attention_layers(model):
        spec = plan.get(dotted)
        for op_name, op_spec in spec.operands.items():
            _require_two_level(dotted, f"operand {op_name!r}", op_spec)
        layer_entries.append(
            {
                "name": dotted,
                "kind": "attention",
                "geometry": dict(spec.geometry),
                "weight": None,
                "bias": None,
                "act": None,
                "operands": {k: _act_entry(v) for k, v in spec.operands.items()},
            }
        )

    float_entries: list[dict] = []
    for key, value in model.state_dict().items():
        plain = key[len("buffer.") :] if key.startswith("buffer.") else key
        if plain in quantized_keys:
            continue
        entry = blob.add_array(np.asarray(value))
        entry["key"] = key
        float_entries.append(entry)

    payload = blob.payload()
    manifest = {
        "format": ARTIFACT_FORMAT,
        "format_version": ARTIFACT_VERSION,
        "created_unix": time.time(),
        "model": {
            "name": name or type(model).__name__,
            # Always null: older builds look a non-null name up in a
            # builder registry before falling back to the structure.
            "builder": None,
            "arch": arch,
            "task": task,
            "input_shape": list(input_shape) if input_shape else None,
            "structure": module_structure(model),
        },
        "quant": {"label": quant_label, "decompose_order": "vector_first"},
        "plan": plan.to_list(),
        "payload": {
            "file": PAYLOAD_NAME,
            "bytes": len(payload),
            "sha256": hashlib.sha256(payload).hexdigest(),
        },
        "summary": {
            "num_quantized_layers": len(layer_entries),
            "num_float_params": len(float_entries),
            "packed_weight_bytes": packed_payload,
            "fp32_weight_bytes": fp32_weight_bytes,
        },
        "layers": layer_entries,
        "floats": float_entries,
    }

    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    (out / PAYLOAD_NAME).write_bytes(payload)
    (out / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    logger.info(
        "saved artifact %s: %d quantized layers, %d payload bytes",
        out,
        len(layer_entries),
        len(payload),
    )
    return manifest


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
def _read_manifest(root: Path) -> dict:
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise ArtifactError(f"no {MANIFEST_NAME} in {root}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"malformed manifest in {root}: {exc}") from exc

    if manifest.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(f"not a quantized-model artifact: format={manifest.get('format')!r}")
    version = manifest.get("format_version")
    if version not in _SUPPORTED_VERSIONS:
        raise ArtifactError(
            f"artifact format version {version} unsupported "
            f"(this build reads version {ARTIFACT_VERSION}); re-export the "
            "model with save_artifact"
        )
    return manifest


def _read_payload(root: Path, manifest: Mapping) -> bytes:
    payload_path = root / manifest["payload"]["file"]
    try:
        return payload_path.read_bytes()
    except OSError as exc:
        raise ArtifactError(f"cannot read payload {payload_path}: {exc}") from exc


def _verify_payload(root: Path, manifest: Mapping) -> bytes:
    blob = _read_payload(root, manifest)
    if len(blob) != manifest["payload"]["bytes"]:
        raise ArtifactError(
            f"payload is {len(blob)} bytes, manifest says {manifest['payload']['bytes']}"
        )
    if hashlib.sha256(blob).hexdigest() != manifest["payload"]["sha256"]:
        raise ArtifactError("payload checksum mismatch (corrupt weights.bin)")
    return blob


def _manifest_plan(manifest: Mapping) -> QuantPlan:
    if not manifest.get("plan"):
        raise ArtifactError("manifest carries no quantization plan; re-export the model")
    return QuantPlan.from_list(manifest["plan"])


def inspect_artifact(path: str | Path, verify: bool = True) -> tuple[dict, QuantPlan]:
    """Read an artifact's manifest + embedded plan without unpacking weights.

    Everything ``repro inspect`` prints lives in ``manifest.json``;
    ``verify=True`` additionally hashes the payload blob (one pass, no
    bit-unpacking) so corruption is still caught at a fraction of a full
    :func:`load_artifact`.
    """
    root = Path(path)
    manifest = _read_manifest(root)
    if verify:
        _verify_payload(root, manifest)
    return manifest, _manifest_plan(manifest)


def load_artifact(path: str | Path, verify: bool = True) -> Artifact:
    """Read an artifact directory back into unpacked tensors.

    With ``verify=True`` (default) the whole-payload and per-segment
    SHA-256 checksums are recomputed; any mismatch raises
    :class:`ArtifactError` before a single tensor is deserialized.
    """
    root = Path(path)
    manifest = _read_manifest(root)
    blob = _verify_payload(root, manifest) if verify else _read_payload(root, manifest)
    plan = _manifest_plan(manifest)

    layers: list[ArtifactLayer] = []
    for entry in manifest["layers"]:
        spec = plan.get(entry["name"])
        if spec is None:
            raise ArtifactError(
                f"manifest {entry['kind']} layer {entry['name']!r} missing from the plan"
            )
        if entry["kind"] == "attention":
            # Operand specs live in the plan; the manifest entry is a summary.
            layers.append(
                ArtifactLayer(
                    name=entry["name"],
                    kind="attention",
                    geometry=dict(entry["geometry"]),
                    weight=None,
                    bias=None,
                    spec=spec,
                )
            )
            continue
        w = entry["weight"]
        fmt = IntFormat(w["elem_bits"], w["elem_signed"])
        scale_fmt = IntFormat(w["scale_bits"], signed=False)
        codes_shape = tuple(int(d) for d in w["codes_shape"])
        sq_shape = tuple(int(d) for d in w["sq_shape"])
        codes = unpack_bits(
            _read_segment(blob, w["codes"], verify),
            int(np.prod(codes_shape)),
            fmt.bits,
            fmt.signed,
        ).reshape(codes_shape)
        sq = unpack_bits(
            _read_segment(blob, w["scales"], verify),
            int(np.prod(sq_shape)),
            scale_fmt.bits,
            signed=False,
        ).reshape(sq_shape)
        gamma = _read_array(blob, w["gamma"], verify)
        weight = QuantizedTensor(
            codes=codes.astype(np.float64),
            sq=sq.astype(np.float64),
            gamma=gamma,
            layout=VectorLayout(int(w["axis"]), int(w["vector_size"])),
            axis_len=int(w["axis_len"]),
            fmt=fmt,
            scale_fmt=scale_fmt,
        )
        bias = _read_array(blob, entry["bias"], verify) if entry["bias"] else None
        layers.append(
            ArtifactLayer(
                name=entry["name"],
                kind=entry["kind"],
                geometry=dict(entry["geometry"]),
                weight=weight,
                bias=bias,
                spec=spec,
            )
        )

    floats = {e["key"]: _read_array(blob, e, verify) for e in manifest["floats"]}
    return Artifact(manifest=manifest, layers=layers, floats=floats, plan=plan)
