"""Deployment artifacts and the integer inference engine (paper §4.4).

This package is the bridge between the simulation side of the repo and a
servable system:

- :mod:`repro.deploy.artifact` — a versioned, checksummed whole-model
  artifact format: a ``manifest.json`` describing topology + quantization
  formats, and a ``weights.bin`` blob holding bit-packed N-bit weight
  codes, M-bit per-vector scales, fp coarse scales, and the float
  parameters of the non-quantized layers (BatchNorm, LayerNorm,
  embeddings, biases).
- :mod:`repro.deploy.engine` — an integer inference engine that rebuilds
  the model topology from an artifact and executes every quantized layer
  with the true integer kernels of :mod:`repro.quant.integer_exec`
  (Eq. 5), bit-consistent with the fake-quant simulation.

See ``docs/serving.md`` for the format specification.
"""

from repro.deploy.artifact import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    Artifact,
    ArtifactError,
    ArtifactLayer,
    inspect_artifact,
    load_artifact,
    save_artifact,
)
from repro.deploy.structure import StructureError, build_from_structure, module_structure
from repro.deploy.engine import IntegerEngine, build_integer_model

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "Artifact",
    "ArtifactError",
    "ArtifactLayer",
    "inspect_artifact",
    "load_artifact",
    "save_artifact",
    "StructureError",
    "build_from_structure",
    "module_structure",
    "IntegerEngine",
    "build_integer_model",
]
