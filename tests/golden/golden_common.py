"""Shared definitions for the golden prediction pins.

A *golden case* is (model, quant config): a deterministic tiny model
(seeded construction, no training), a fixed calibration batch, and fixed
eval inputs. For each case we record the predictions of three execution
paths — ``fakequant`` (the PTQ simulation), ``integer`` (every quantized
layer on the numpy ``integer`` backend) and, under the historical key
``integer_prefolded``, the engine's default ``auto`` backend (``compiled``
with a C toolchain, else ``integer``) — plus the artifact payload
SHA-256, as **fixed bytes** in ``tests/golden/*.npz``.

Self-parity tests (A == B recomputed in the same process) cannot catch a
refactor that changes both paths the same way; these pins can. Regenerate
after an *intentional* numerical change with::

    PYTHONPATH=src python tests/golden/regen_goldens.py

and review the diff like any other code change.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.quant import PTQConfig
from repro.utils.rng import seeded_rng

GOLDEN_DIR = Path(__file__).parent

#: quant label -> PTQConfig factory (two-level integer scales: exportable)
CONFIGS = {
    "w4a4_s4s4": lambda: PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4"),
    "w8a8_s6s10": lambda: PTQConfig.vs_quant(8, 8, weight_scale="6", act_scale="10"),
}

MODES = ("fakequant", "integer", "integer_prefolded")


def build_miniresnet_case():
    from repro.models.resnet import MiniResNet

    rng = seeded_rng("golden-miniresnet")
    model = MiniResNet(num_classes=4, width=1, depth=1, seed=0)
    calib = (rng.standard_normal((4, 3, 16, 16)),)
    inputs = (rng.standard_normal((4, 3, 16, 16)),)
    return model, calib, inputs


def build_minibert_case():
    from repro.models.bert import MiniBERT, MiniBERTConfig

    rng = seeded_rng("golden-minibert")
    config = MiniBERTConfig(
        name="minibert-golden", vocab_size=24, max_seq_len=12,
        d_model=16, num_layers=2, num_heads=2, d_ff=32, dropout=0.0,
    )
    model = MiniBERT(config, seed=0)
    calib_tokens = rng.integers(0, config.vocab_size, (4, config.max_seq_len))
    tokens = rng.integers(0, config.vocab_size, (2, config.max_seq_len))
    mask = np.ones_like(tokens, dtype=bool)
    mask[:, -2:] = False  # exercise the attention mask path
    return model, (calib_tokens, np.ones_like(calib_tokens, bool)), (tokens, mask)


MODELS = {
    "miniresnet": build_miniresnet_case,
    "minibert": build_minibert_case,
}

CASES = [(m, c) for m in MODELS for c in CONFIGS]


def golden_path(model_name: str, config_name: str) -> Path:
    return GOLDEN_DIR / f"golden_{model_name}_{config_name}.npz"


def compute_case(model_name: str, config_name: str) -> dict[str, np.ndarray]:
    """Recompute every pinned quantity for one (model, config) case."""
    import tempfile

    from repro.deploy import load_artifact, save_artifact
    from repro.deploy.engine import build_integer_model
    from repro.quant import quantize_model
    from repro.quant.qlayers import QuantizedLayer, quant_layers
    from repro.tensor.tensor import no_grad

    model, calib, inputs = MODELS[model_name]()
    model.eval()
    qmodel = quantize_model(model, CONFIGS[config_name](), calib_batches=[calib])

    with no_grad():
        fakequant = np.asarray(qmodel(*inputs).data, dtype=np.float64)

    with tempfile.TemporaryDirectory(prefix="repro-golden-") as tmp:
        manifest = save_artifact(qmodel, tmp, quant_label=config_name)
        payload_sha = manifest["payload"]["sha256"]
        artifact = load_artifact(tmp)

        # strict float64 reference engine on the default ``auto`` backend
        auto_model = build_integer_model(artifact)
        with no_grad():
            auto = np.asarray(auto_model(*inputs).data, dtype=np.float64)

        integer_model = build_integer_model(artifact)
        for _, layer in quant_layers(integer_model):
            if isinstance(layer, QuantizedLayer):
                layer.set_backend("integer")
        with no_grad():
            integer = np.asarray(integer_model(*inputs).data, dtype=np.float64)

    return {
        "fakequant": fakequant,
        "integer": integer,
        "integer_prefolded": auto,
        "payload_sha256": np.frombuffer(bytes.fromhex(payload_sha), dtype=np.uint8),
    }
