"""The benchmark's two models and the module wrappers of the traced run.

Both zoo architectures are built from seeded, untrained weights: the cost
of a forward pass does not depend on the weights, and training would take
minutes. Each is quantized at W4/A4-S4/S4 (MiniBERT with embeddings and
attention operands too, the paper's full-BERT mode), calibrated on seeded
synthetic inputs, and exported with ``save_artifact``. Engines load with
the serving defaults: backend ``auto``, float32 glue, per-sample scales.

:func:`instrument` wraps every module instance's ``forward`` (and each
attention operand hook) in a :class:`benchlib.SelfTimeLedger`, so the
traced run measures per-layer self time from outside the program.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro import nn
from repro.deploy import IntegerEngine, save_artifact
from repro.models.bert import MINIBERT_BASE, MiniBERT
from repro.models.resnet import MiniResNet
from repro.quant import PTQConfig, quantize_model
from repro.quant.qlayers import QuantizedLayer, QuantMultiHeadAttention

MODELS = ("resnet", "bert")
#: Fixed seed of the weights and calibration inputs: every run serves the
#: same artifacts; the workload seed only varies the requests.
MODEL_SEED = 0
CALIB_SAMPLES = 16
SEQ_LEN = MINIBERT_BASE.max_seq_len


def _config(model: str) -> PTQConfig:
    full_bert = model == "bert"
    return PTQConfig.vs_quant(
        4, 4, weight_scale="4", act_scale="4",
        embeddings=full_bert, attention=full_bert,
    )


def sample_inputs(model: str, rng: np.random.Generator, n: int) -> tuple[np.ndarray, ...]:
    """``n`` synthetic samples as batched engine arguments."""
    if model == "resnet":
        return (rng.standard_normal((n, 3, 32, 32)).astype(np.float32),)
    tokens = rng.integers(0, MINIBERT_BASE.vocab_size, (n, SEQ_LEN))
    # Valid prefixes of 16..48 tokens, as padded QA inputs have.
    lengths = rng.integers(16, SEQ_LEN + 1, n)
    mask = np.arange(SEQ_LEN)[None, :] < lengths[:, None]
    return (tokens, mask)


def export(model: str, directory: Path) -> dict[str, float]:
    """Build, quantize and save one model; returns the phase times in s."""
    t0 = time.perf_counter()
    if model == "resnet":
        net = MiniResNet(num_classes=10, width=1, depth=2, seed=MODEL_SEED)
        task, input_shape = "image", (3, 32, 32)
    else:
        net = MiniBERT(MINIBERT_BASE, seed=MODEL_SEED)
        task, input_shape = "qa", None
    net.eval()
    calib = sample_inputs(model, np.random.default_rng(MODEL_SEED), CALIB_SAMPLES)
    config = _config(model)
    qmodel = quantize_model(net, config, calib_batches=[calib])
    t1 = time.perf_counter()
    save_artifact(
        qmodel, directory, quant_label=config.label, task=task, input_shape=input_shape
    )
    t2 = time.perf_counter()
    return {"quantize": t1 - t0, "export": t2 - t1}


def load_engine(directory: Path, backend: str = "auto") -> IntegerEngine:
    """The engine as a server would load it (per-sample scales, float32 glue)."""
    return IntegerEngine.load(
        directory, per_sample_scale=True, precision="float32", backend=backend
    )


def reference_outputs(directory: Path, inputs: tuple[np.ndarray, ...], chunk: int = 16):
    """Outputs of the numpy ``integer`` backend, the correctness reference.

    Per-sample scales make outputs independent of batch composition, so
    the reference runs in small chunks and keeps its memory below the
    measured engine's.
    """
    engine = load_engine(directory, backend="integer")
    n = len(inputs[0])
    parts = [engine(*(a[i : i + chunk] for a in inputs)) for i in range(0, n, chunk)]
    return np.concatenate(parts)


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
QUANT_KINDS = ("conv2d", "linear", "embedding")
GLUE = ("batchnorm", "layernorm", "gelu", "other")


def category(module: nn.Module) -> str:
    if isinstance(module, QuantizedLayer):
        return f"quant.{module.spec.kind}"
    if isinstance(module, nn.MultiHeadAttention):
        return "attn.core"  # softmax, score/context matmuls, head reshapes
    if isinstance(module, nn.BatchNorm2d):
        return "glue.batchnorm"
    if isinstance(module, nn.LayerNorm):
        return "glue.layernorm"
    if isinstance(module, nn.GELU):
        return "glue.gelu"
    return "glue.other"  # residual adds, ReLU, pooling, containers


def instrument(model: nn.Module, ledger) -> None:
    """Time every module of ``model`` (and its attention operands) in ``ledger``."""
    for _, module in model.named_modules():
        cat = category(module)
        work = (lambda m=module: m.last_macs) if cat.startswith("quant.") else None
        # An instance attribute shadows the class method Module.__call__ uses.
        object.__setattr__(module, "forward", ledger.wrap(cat, module.forward, work))
        if isinstance(module, QuantMultiHeadAttention):
            object.__setattr__(
                module, "_operand", ledger.wrap("attn.operand_quant", module._operand)
            )


def uninstrument(model: nn.Module) -> None:
    for _, module in model.named_modules():
        module.__dict__.pop("forward", None)
        module.__dict__.pop("_operand", None)


def layer_metrics(snapshot: dict, forward_s: float, forwards: int) -> dict[str, float]:
    """Per-forward ledger metrics from a :meth:`SelfTimeLedger.snapshot`.

    ``forward_s`` is the engine time the ledger must reconcile with, over
    ``forwards`` forward passes.
    """
    per = 1.0 / max(forwards, 1)
    self_s, calls, work = snapshot["self_s"], snapshot["calls"], snapshot["work"]
    out: dict[str, float] = {}
    for kind in QUANT_KINDS:
        cat = f"quant.{kind}"
        secs, macs = self_s.get(cat, 0.0), work.get(cat, 0)
        out[f"{cat}.self_ms"] = secs * per * 1e3
        out[f"{cat}.calls"] = calls.get(cat, 0) * per
        out[f"{cat}.macs"] = macs * per
        out[f"{cat}.gmac_s"] = macs / secs / 1e9 if secs > 0 else 0.0
    for cat in ("attn.operand_quant", "attn.core", *(f"glue.{g}" for g in GLUE)):
        out[f"{cat}.self_ms"] = self_s.get(cat, 0.0) * per * 1e3
    out["engine.forward_ms"] = forward_s * per * 1e3
    out["engine.reconcile_frac"] = sum(self_s.values()) / forward_s if forward_s else 0.0
    return out
