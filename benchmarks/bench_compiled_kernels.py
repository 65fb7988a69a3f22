"""Compiled-kernel GEMM-path throughput vs the numpy integer pipeline.

The compiled backend (``repro.compile``) lowers a layer's whole integer
inference pipeline — dynamic activation quantization, scale folding, the
GEMM, and the scale/bias epilogue — to one fused C kernel. This bench
measures that *end-to-end GEMM path* on a serving-realistic shape: a
small request batch through a large ``Linear`` under the paper's W4/A4
S4/S4 format, float32 serving precision, per-sample scales (the gateway
defaults). The gated numpy baseline is the unfolded per-call pipeline
through the public :mod:`repro.quant.integer_exec` entry points —
``quantize_tensor`` on the input, then ``integer_linear`` /
``integer_conv2d``, which fold the weight codes on every call, then the
bias — so the comparison is the whole pipeline, not just the matmul. The
report also prints, without a floor, the ratio against the ``integer``
backend on the same layer object, which folds the weights once at
prepare time.

Outputs:

- ``benchmarks/results/compiled_kernels.txt`` — human-readable report;
- ``benchmarks/results/BENCH_compiled.json`` — trajectory metrics, gated
  by ``benchmarks/baselines/compiled_smoke.json`` (smoke floor >=5x; the
  full local run asserts the >=10x acceptance floor itself).

A second row times the conv kernel the same way on a MiniResNet stage-1
layer (16->16 channels, 3x3, 32x32, batch 8). It is reported, not
gated: the offline-resnet workload of ``perfbench`` is the conv gate.

Every side is warmed with :data:`WARMUP_CALLS` untimed calls before it
is timed. Every timed run first asserts the compiled output is **bitwise equal**
to both numpy baselines — a fast kernel that drifts is a bug, not a
win. Without a working C compiler the bench prints a skip notice and
exits 0 *without* writing the BENCH file (the trajectory gate skips
missing results on PR runs), mirroring the serving fallback contract.

Run standalone (``PYTHONPATH=src python benchmarks/bench_compiled_kernels.py``,
add ``--smoke`` for the CI-sized shape) or via pytest
(``pytest benchmarks/bench_compiled_kernels.py --benchmark-only``).
"""

from __future__ import annotations

import time

import numpy as np

from repro import nn
from repro.compile import compiler_probe, kernel_cache_stats
from repro.quant import PTQConfig, VectorLayout, quant_layers, quantize_model
from repro.quant.integer_exec import integer_conv2d, integer_linear, quantize_tensor
from repro.tensor.tensor import no_grad
from repro.utils.rng import seeded_rng

#: Full mode: the acceptance shape. A gateway-sized request batch (8 rows)
#: against a 4096x4096 layer; the numpy backend re-quantizes activations
#: and re-applies folds per call, which is exactly the serving cost the
#: compiled kernel fuses away.
FULL = {"rows": 8, "features": 4096, "floor": 10.0, "repeats": 7}
#: Smoke mode: CI-sized (shared runners), conservative floor via the
#: committed baseline (benchmarks/baselines/compiled_smoke.json).
SMOKE = {"rows": 8, "features": 1024, "floor": 5.0, "repeats": 5}
#: The conv row: one MiniResNet stage-1 conv on a batch of 8 images.
CONV = {"batch": 8, "channels": 16, "hw": 32}
#: Untimed calls before every timed side: a cold numpy side (first-touch
#: allocations, BLAS thread start-up) would inflate every ratio.
WARMUP_CALLS = 100


def _best_time(fn, repeats: int = 5) -> float:
    """Best of ``repeats`` timed calls, after :data:`WARMUP_CALLS` untimed ones."""
    for _ in range(WARMUP_CALLS):
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _quantized_linear(features: int) -> tuple[nn.Module, np.ndarray]:
    rng = seeded_rng("compiled-bench-model")
    model = nn.Sequential(nn.Linear(features, features, rng=rng))
    model.eval()
    batch = (
        seeded_rng("compiled-bench-batch")
        .standard_normal((8, features))
        .astype(np.float32)
    )
    config = PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4")
    qmodel = quantize_model(model, config, calib_batches=[(batch,)])
    return qmodel, batch


def _quantized_conv() -> tuple[nn.Module, np.ndarray]:
    rng = seeded_rng("compiled-bench-conv")
    c, hw = CONV["channels"], CONV["hw"]
    model = nn.Sequential(nn.Conv2d(c, c, 3, padding=1, bias=False, rng=rng))
    model.eval()
    batch = rng.standard_normal((CONV["batch"], c, hw, hw)).astype(np.float32)
    config = PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4")
    qmodel = quantize_model(model, config, calib_batches=[(batch,)])
    return qmodel, batch


def _set_backend(qmodel, name: str) -> None:
    for _, layer in quant_layers(qmodel):
        layer.set_backend(name, per_sample_scale=True, out_dtype=np.float32)


def _per_call(layer, x: np.ndarray) -> np.ndarray:
    """The unfolded numpy pipeline of one per-sample float32 layer call:
    quantize the input, fold both operands, GEMM, scale, add the bias."""
    spec = layer.spec.inputs
    xq = quantize_tensor(
        x,
        VectorLayout(spec.vector_axis, spec.vector_size),
        spec.fmt,
        spec.scale_fmt,
        channel_axes=(0,),
        code_dtype=layer._code_dtype,  # the narrow codes the backend stores
    )
    if layer.kind == "conv2d":
        out = integer_conv2d(
            xq, layer.weight_q, stride=layer.stride, padding=layer.padding,
            out_dtype=np.float32,
        )
        bias = None if layer.bias is None else layer.bias.data[None, :, None, None]
    else:
        out = integer_linear(xq, layer.weight_q, out_dtype=np.float32)
        bias = None if layer.bias is None else layer.bias.data
    return out if bias is None else out + bias.astype(np.float32)


def _time_all(qmodel, x, repeats: int) -> tuple[float, float, float]:
    """Best per-call-pipeline, ``integer`` backend and ``compiled`` call
    times, after asserting the three outputs are bitwise equal."""
    (_, layer), = quant_layers(qmodel)
    with no_grad():
        _set_backend(qmodel, "integer")
        y_int = qmodel(x).data
        t_int = _best_time(lambda: qmodel(x), repeats)

        y_call = _per_call(layer, x)
        np.testing.assert_array_equal(
            y_call, y_int, err_msg="integer backend drifted from the per-call pipeline"
        )
        t_call = _best_time(lambda: _per_call(layer, x), repeats)

        _set_backend(qmodel, "compiled")
        y_c = qmodel(x).data  # warmup = compile + parity probe
        np.testing.assert_array_equal(
            y_c, y_call, err_msg="compiled output drifted from the integer pipeline"
        )
        t_c = _best_time(lambda: qmodel(x), repeats)
    return t_call, t_int, t_c


def measure(shape: dict) -> dict[str, float]:
    rows, features = shape["rows"], shape["features"]
    qmodel, batch = _quantized_linear(features)
    t_call, t_int, t_c = _time_all(qmodel, batch[:rows], shape["repeats"])
    conv_model, conv_batch = _quantized_conv()
    conv_call, conv_int, conv_c = _time_all(conv_model, conv_batch, shape["repeats"])

    macs = rows * features * features
    cache = kernel_cache_stats()
    return {
        "rows": float(rows),
        "features": float(features),
        "integer_ms": 1e3 * t_call,
        "integer_backend_ms": 1e3 * t_int,
        "compiled_ms": 1e3 * t_c,
        "speedup": t_call / t_c,
        "speedup_vs_backend": t_int / t_c,
        "compiled_gmacs": macs / t_c / 1e9,
        "integer_gmacs": macs / t_call / 1e9,
        "conv_integer_ms": 1e3 * conv_call,
        "conv_integer_backend_ms": 1e3 * conv_int,
        "conv_compiled_ms": 1e3 * conv_c,
        "conv_speedup": conv_call / conv_c,
        "conv_speedup_vs_backend": conv_int / conv_c,
        "kernel_compiles": float(cache["compiles"]),
        "kernel_compile_s": cache["compile_s"],
    }


def build_report(smoke: bool = False) -> tuple[str, dict[str, float]]:
    shape = SMOKE if smoke else FULL
    metrics = measure(shape)
    probe = compiler_probe()
    lines = [
        f"compiled backend vs the numpy integer pipeline "
        f"({shape['rows']}x{shape['features']} @ {shape['features']}x"
        f"{shape['features']}, W4/A4 S4/S4, f32, per-sample scales):",
        f"  per-call numpy    {metrics['integer_ms']:8.2f} ms/call "
        f"({metrics['integer_gmacs']:6.2f} GMAC/s)",
        f"  integer backend   {metrics['integer_backend_ms']:8.2f} ms/call",
        f"  compiled (C)      {metrics['compiled_ms']:8.2f} ms/call "
        f"({metrics['compiled_gmacs']:6.2f} GMAC/s)",
        f"  speedup           {metrics['speedup']:8.2f}x "
        f"({metrics['speedup_vs_backend']:.2f}x vs the integer backend, no floor)",
        f"conv {CONV['channels']}->{CONV['channels']} 3x3 on "
        f"{CONV['batch']}x{CONV['channels']}x{CONV['hw']}x{CONV['hw']} "
        f"(reported, not gated):",
        f"  per-call numpy    {metrics['conv_integer_ms']:8.2f} ms/call",
        f"  integer backend   {metrics['conv_integer_backend_ms']:8.2f} ms/call",
        f"  compiled (C)      {metrics['conv_compiled_ms']:8.2f} ms/call",
        f"  speedup           {metrics['conv_speedup']:8.2f}x "
        f"({metrics['conv_speedup_vs_backend']:.2f}x vs the integer backend)",
        f"  compiler: {probe.get('compiler', '?')} "
        f"({int(metrics['kernel_compiles'])} kernels, "
        f"{metrics['kernel_compile_s']:.2f}s compile time)",
    ]
    return "\n".join(lines), metrics


def test_compiled_kernels(benchmark):
    import pytest

    if not compiler_probe().get("available", False):
        pytest.skip("no working C compiler; compiled backend unavailable")
    from .conftest import save_bench_json, save_result

    text, metrics = benchmark.pedantic(
        lambda: build_report(smoke=True), rounds=1, iterations=1
    )
    save_result("compiled_kernels", text)
    save_bench_json("compiled", metrics)
    assert metrics["speedup"] >= SMOKE["floor"], (
        f"speedup {metrics['speedup']:.2f}x < {SMOKE['floor']}x"
    )


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parent))
    from conftest import save_bench_json, save_result

    smoke = "--smoke" in sys.argv
    probe = compiler_probe()
    if not probe.get("available", False):
        # No toolchain: the fallback contract says everything still runs
        # on the numpy integer backend, so there is nothing to gate here.
        # Deliberately no BENCH file — the trajectory check skips absent
        # results (nightly --require-all runs on toolchain-equipped CI).
        print(f"SKIP: {probe.get('error', 'no working C compiler')}")
        raise SystemExit(0)
    report, metrics = build_report(smoke=smoke)
    print(report)
    save_result("compiled_kernels", report)
    save_bench_json("compiled", metrics)
    floor = (SMOKE if smoke else FULL)["floor"]
    if metrics["speedup"] < floor:
        raise SystemExit(f"FAIL: speedup {metrics['speedup']:.2f}x < {floor}x")
