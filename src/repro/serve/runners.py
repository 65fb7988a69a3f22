"""Adapters from models/engines to the server's ``batch_fn`` contract.

A request payload is one sample: a single array (image tasks) or a tuple
of aligned arrays (QA tasks: ``(tokens, mask)``). The runner stacks the
payloads along a new leading batch axis, runs one forward pass under
``no_grad``, and splits the output back into per-request rows — the
mechanism that lets dynamic batching amortize per-forward overhead.
"""

from __future__ import annotations

import numpy as np

from repro.serve.server import InferenceServer
from repro.tensor.tensor import Tensor, no_grad


def _stack_payloads(payloads: list) -> tuple:
    """Stack single-sample payloads into batched model arguments."""
    first = payloads[0]
    if isinstance(first, tuple):
        n_fields = len(first)
        for p in payloads:
            if not isinstance(p, tuple) or len(p) != n_fields:
                raise ValueError("mixed payload shapes in one batch")
        return tuple(
            np.stack([np.asarray(p[i]) for p in payloads]) for i in range(n_fields)
        )
    return (np.stack([np.asarray(p) for p in payloads]),)


def synthetic_payloads(
    task: str | None, arch: dict, input_shape, count: int, seed: int = 0
) -> list:
    """Synthesize single-request payloads for a task/arch description.

    Shared by ``repro serve`` (payloads straight into the server), the
    ``repro gateway`` self-traffic mode, the gateway scaling/rollout
    benches (payloads JSON-encoded over HTTP), and the registry's hot-swap
    warm-up probe.
    """
    from repro.utils.rng import seeded_rng

    rng = seeded_rng("serve-payloads", seed)
    if task == "qa":
        T, vocab = int(arch["max_seq_len"]), int(arch["vocab_size"])
        return [
            (rng.integers(0, vocab, T), np.ones(T, dtype=bool)) for _ in range(count)
        ]
    shape = tuple(input_shape or (3, 32, 32))
    return [rng.standard_normal(shape).astype(np.float32) for _ in range(count)]


def model_batch_fn(model, forward=None):
    """Build a ``batch_fn`` around a module (or an IntegerEngine's model).

    ``forward(model, batch_args)`` adapts call signatures, mirroring
    :func:`repro.quant.ptq.quantize_model`; the default calls
    ``model(*batch_args)``. The per-request result is the output row
    (``out[i]``) as a plain array.
    """
    module = getattr(model, "model", model)  # accept IntegerEngine directly

    def batch_fn(payloads: list) -> list[np.ndarray]:
        args = _stack_payloads(payloads)
        with no_grad():
            out = forward(module, args) if forward is not None else module(*args)
        data = out.data if isinstance(out, Tensor) else np.asarray(out)
        if data.shape[0] != len(payloads):
            raise RuntimeError(
                f"model returned leading dim {data.shape[0]} for batch of {len(payloads)}"
            )
        return [data[i] for i in range(len(payloads))]

    return batch_fn


def serve_model(model, *, forward=None, **server_kwargs) -> InferenceServer:
    """Convenience: wrap a model/engine in an (unstarted) InferenceServer."""
    return InferenceServer(model_batch_fn(model, forward=forward), **server_kwargs)


def serve_artifact(
    path,
    *,
    per_sample_scale: bool = True,
    precision: str = "float32",
    forward=None,
    **server_kwargs,
) -> InferenceServer:
    """Load a deployment artifact into the integer engine and wrap it.

    One call from an artifact directory to an (unstarted)
    :class:`InferenceServer`. Defaults are the serving-friendly knobs:
    per-sample activation scales (batch-invariant replies under dynamic
    batching) and float32 glue precision.
    """
    from repro.deploy import IntegerEngine

    engine = IntegerEngine.load(
        path, per_sample_scale=per_sample_scale, precision=precision
    )
    return serve_model(engine.model, forward=forward, **server_kwargs)
