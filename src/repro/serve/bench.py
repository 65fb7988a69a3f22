"""Serving throughput measurement: load scaling under dynamic batching.

Three measurements over the same request set, the standard framing for
dynamic-batching systems (one fixed production server, varying load):

``single_stream``
    Sequential single-request serving: one closed-loop client
    (:func:`~repro.loadgen.closed_loop.drive_closed_loop`) against the
    production server. Each lone request pays the batcher's coalescing
    window plus a batch-of-1 forward — the latency cost dynamic batching
    trades away.
``concurrent``
    The same server under open-loop load (every request in flight at
    once). Requests coalesce into real batches; this is the server's
    sustained capacity.
``unbatched control``
    A batching-disabled server (max_batch_size=1, no wait) under the same
    open-loop load — separates the batching win from scheduling effects.

The headline ``speedup`` is concurrent vs single-stream;
``speedup_vs_unbatched`` is reported alongside so the batching
contribution is visible on its own. Shared by ``repro bench-serve`` and
``benchmarks/bench_serve_throughput.py``.
"""

from __future__ import annotations

import time

from repro.serve.server import InferenceServer, ServeStats


def _open_loop(server: InferenceServer, payloads: list) -> float:
    """Open-loop load: every request in flight at once, drain to completion."""
    start = time.perf_counter()
    pending = [server.submit(p) for p in payloads]
    for handle in pending:
        handle.wait()
    return time.perf_counter() - start


def throughput_comparison(
    batch_fn,
    payloads: list,
    *,
    max_batch_size: int = 16,
    max_wait_ms: float = 10.0,
    num_workers: int = 1,
    warmup: int = 2,
) -> dict[str, float]:
    """Measure single-stream vs open-loop serving over one request set.

    Returns a flat metrics dict (req/s for all three runs, the speedups,
    batched latency percentiles, observed batch sizes) suitable for BENCH
    JSON.
    """
    n = len(payloads)
    if n == 0:
        raise ValueError("need at least one payload")
    for p in payloads[:warmup]:  # prime caches outside the timed region
        batch_fn([p])

    def production_server() -> InferenceServer:
        return InferenceServer(
            batch_fn,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            num_workers=num_workers,
            max_queue=max(n, 8),
        )

    # Imported here: repro.loadgen imports repro.serve.client, and the
    # repro.serve package imports this module.
    from repro.loadgen.closed_loop import drive_closed_loop

    with production_server() as server:
        single = drive_closed_loop(payloads, 1, lambda: server.infer)
    if single.failed:
        raise RuntimeError(f"single-stream requests failed: {single.failure_samples}")
    seq_s = single.wall_s
    with production_server() as server:
        dyn_s = _open_loop(server, payloads)
        dyn_stats: ServeStats = server.stats()
    with InferenceServer(
        batch_fn, max_batch_size=1, max_wait_ms=0.0, num_workers=num_workers,
        max_queue=max(n, 8),
    ) as server:
        unbatched_s = _open_loop(server, payloads)

    seq_rps, dyn_rps, unbatched_rps = n / seq_s, n / dyn_s, n / unbatched_s
    return {
        "requests": float(n),
        "max_batch_size": float(max_batch_size),
        "max_wait_ms": float(max_wait_ms),
        "num_workers": float(num_workers),
        "single_stream_s": seq_s,
        "dynamic_s": dyn_s,
        "unbatched_s": unbatched_s,
        "single_stream_rps": seq_rps,
        "sequential_rps": seq_rps,  # alias: the sequential single-request baseline
        "dynamic_rps": dyn_rps,
        "unbatched_concurrent_rps": unbatched_rps,
        "speedup": dyn_rps / seq_rps,
        "speedup_vs_unbatched": dyn_rps / unbatched_rps,
        "dynamic_latency_ms_p50": dyn_stats.latency_ms_p50,
        "dynamic_latency_ms_p99": dyn_stats.latency_ms_p99,
        "dynamic_mean_batch": dyn_stats.mean_batch_size,
        "dynamic_max_batch": float(dyn_stats.max_batch_size_seen),
    }


def format_comparison(metrics: dict[str, float]) -> str:
    """Human-readable table of a :func:`throughput_comparison` result."""
    return "\n".join(
        [
            f"serve throughput over {int(metrics['requests'])} requests "
            f"(batch<={int(metrics['max_batch_size'])}, "
            f"wait {metrics['max_wait_ms']:.1f} ms, "
            f"workers {int(metrics['num_workers'])}):",
            f"  single-stream (sequential)   {metrics['single_stream_rps']:8.1f} req/s",
            f"  unbatched server, open load  {metrics['unbatched_concurrent_rps']:8.1f} req/s",
            f"  dynamic batching, open load  {metrics['dynamic_rps']:8.1f} req/s",
            f"  speedup vs sequential        {metrics['speedup']:8.2f}x",
            f"  speedup vs unbatched         {metrics['speedup_vs_unbatched']:8.2f}x",
            f"  batched latency p50/p99      {metrics['dynamic_latency_ms_p50']:.2f} / "
            f"{metrics['dynamic_latency_ms_p99']:.2f} ms",
            f"  mean/max batch               {metrics['dynamic_mean_batch']:.2f} / "
            f"{int(metrics['dynamic_max_batch'])}",
        ]
    )
