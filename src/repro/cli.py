"""Command-line interface: ``python -m repro <command>``.

Commands
--------
models
    List the model zoo with cached full-precision metrics.
ptq
    Quantize a pretrained model under a W/A/ws/as config and report accuracy.
hw
    Report normalized energy/area/perf-per-area of hardware configs.
dse
    Enumerate the hardware design space and print the Pareto frontier.
sweep
    PTQ accuracy sweep for one model — the bitwidth grid or the Figs. 4-6
    design-space grid — optionally fanned across worker processes
    (``--workers`` / ``REPRO_SWEEP_WORKERS``).
export
    PTQ-quantize a model and save a bit-packed deployment artifact
    (manifest + packed weights) for the integer inference engine.
inspect
    Print an artifact's manifest summary and embedded quantization plan
    (format/version, topology source, per-layer formats, checksums).
serve
    Load an artifact into the integer engine and serve synthetic traffic
    through the dynamic-batching server; prints latency/throughput stats.
bench-serve
    Sequential vs dynamically-batched serving throughput on an artifact;
    optionally writes the metrics as a BENCH JSON.
gateway
    Multi-model HTTP serving gateway: load one or more artifacts into
    per-model replica pools behind the JSON API (``/v1/models``,
    ``/v1/models/<name>/predict``, ``/healthz``, ``/stats``), with
    admission control and an optional response cache. ``--autoscale``
    attaches a queue-depth autoscaler per model; ``--health`` a replica
    supervisor (probe/quarantine/restart); ``--swap`` (with
    ``--requests``) scripts a zero-downtime rollout mid-traffic —
    optionally staged behind a ``--canary`` with auto-rollback, with
    ``--fault-plan`` injecting seeded chaos into the new pool.
    ``--require-metrics`` makes a self-traffic run scrape ``/metrics``
    afterwards and fail unless the required families are present.
trace
    Fetch recorded request traces from a running gateway's
    ``/v1/traces`` and print their span timelines (slowest first by
    default) — the CLI face of the ``X-Request-Id`` tracing pipeline.
loadgen
    Generate a seeded workload trace (Poisson / bursty on-off / diurnal
    sinusoid) as a ``repro-trace/v1`` JSONL file and print its rate
    summary — input for ``repro plan`` and the replay bench.
plan
    Capacity planning: from a measured service time (``--service-ms``
    or a calibration run against ``--artifact``) and an offered load
    (``--trace`` or ``--rate``), print the replica count that holds a
    latency SLO, predicted p50/p99, and autoscale watermark seeds
    (M/M/c with a service-variability correction). ``--replay`` then
    serves the artifact at the planned replica count and replays the
    trace against it, comparing measured latency to the prediction;
    ``--check-slo`` turns that comparison into an exit code.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.eval import format_table
    from repro.models import MODEL_NAMES, pretrained

    rows = []
    for name in MODEL_NAMES:
        bundle = pretrained(name)
        rows.append(
            [name, bundle.task, bundle.metric_name, f"{bundle.fp32_metric:.2f}",
             f"{bundle.model.num_parameters():,}"]
        )
    print(format_table(["model", "task", "metric", "fp32", "params"], rows))
    return 0


def _parse_quant_label(label: str):
    """'4/8/6/10' or '4/8/-/-' -> PTQConfig (POC when both scales are '-')."""
    from repro.quant import PTQConfig

    parts = label.split("/")
    if len(parts) != 4:
        raise SystemExit(f"config must be W/A/ws/as, got {label!r}")
    wb, ab = int(parts[0]), int(parts[1])
    ws = None if parts[2] == "-" else parts[2]
    asc = None if parts[3] == "-" else parts[3]
    if ws is None and asc is None:
        return PTQConfig.per_channel(wb, ab)
    return PTQConfig.vs_quant(
        wb, ab, weight_scale=ws, act_scale=asc,
        weights=ws is not None, activations=asc is not None,
    )


def _cmd_ptq(args: argparse.Namespace) -> int:
    from repro.eval import quantized_accuracy
    from repro.models import pretrained

    bundle = pretrained(args.model)
    config = _parse_quant_label(args.config)
    acc = quantized_accuracy(bundle, config, eval_limit=args.eval_limit)
    print(f"model={args.model} config={config.label}")
    print(f"fp32 {bundle.metric_name}: {bundle.fp32_metric:.2f}")
    print(f"PTQ  {bundle.metric_name}: {acc:.2f}  (drop {bundle.fp32_metric - acc:+.2f})")
    return 0


def _cmd_hw(args: argparse.Namespace) -> int:
    from repro.eval import format_table
    from repro.hardware import AcceleratorConfig, normalized_metrics

    rows = []
    for label in args.configs:
        e, a, p = normalized_metrics(AcceleratorConfig.from_label(label))
        rows.append([label, e, a, p])
    print(format_table(["config", "energy/op", "area", "perf/area"], rows))
    return 0


def _cmd_dse(args: argparse.Namespace) -> int:
    from repro.eval import format_table
    from repro.hardware import enumerate_design_space, pareto_front

    points = enumerate_design_space()
    front = sorted(pareto_front(points), key=lambda p: p.energy)
    print(f"{len(points)} design points, {len(front)} Pareto-optimal")
    rows = [[p.label, p.scheme.name, p.energy, p.perf_per_area] for p in front[: args.top]]
    print(format_table(["config", "scheme", "energy/op", "perf/area"], rows))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import time

    from repro.eval import format_table
    from repro.eval.sweep import WEIGHT_BITS, WEIGHT_BITS_QA, run_dse, run_sweep
    from repro.models import pretrained
    from repro.quant import PTQConfig

    bundle = pretrained(args.model)
    print(f"fp32 {bundle.metric_name}: {bundle.fp32_metric:.2f}")

    if args.grid == "dse":
        # The design-space grid of Figs. 4-6 (fig4 for image models, fig5/6
        # weight bits for the transformer stand-ins). --bits narrows the
        # weight precisions; the grid's activation bits are fixed, so
        # --act-bits is rejected rather than silently ignored.
        if args.act_bits is not None:
            raise SystemExit("--act-bits does not apply to --grid dse "
                             "(the design-space grid fixes activation bits)")
        fp32 = bundle.fp32_metric
        if bundle.task == "image":
            weight_bits = WEIGHT_BITS
            thresholds = (fp32 - 2.5, fp32 - 1.5, fp32 - 1.0, fp32 - 0.5)
        else:
            weight_bits = WEIGHT_BITS_QA
            thresholds = (fp32 - 16.0, fp32 - 6.0, fp32 - 2.0, fp32 - 0.75)
        if args.bits is not None:
            weight_bits = tuple(args.bits)
        start = time.perf_counter()
        result = run_dse(
            bundle,
            thresholds,
            weight_bits=weight_bits,
            workers=args.workers,
            eval_limit=args.eval_limit,
        )
        elapsed = time.perf_counter() - start
        print(result.table)
        print(f"{len(result.points)} qualifying points in {elapsed:.2f}s "
              f"(workers={args.workers or 'env'})")
        return 0

    # Bitwidth sweep: per-channel vs VS-Quant at each weight precision,
    # evaluated as one flat grid so --workers parallelizes all of it.
    if args.bits is None:
        args.bits = [3, 4, 6, 8]
    pairs = []
    for bits in args.bits:
        ab = args.act_bits or bits
        pairs.append(PTQConfig.per_channel(bits, ab))
        pairs.append(PTQConfig.vs_quant(bits, ab, weight_scale="6", act_scale="10"))
    sweep = run_sweep(bundle, pairs, eval_limit=args.eval_limit, workers=args.workers)
    rows = []
    for i, bits in enumerate(args.bits):
        pc, vs = sweep.accuracies[2 * i], sweep.accuracies[2 * i + 1]
        rows.append([f"W{bits}/A{args.act_bits or bits}", pc, vs, vs - pc])
    print(format_table(["bits", "per-channel", "VS-Quant", "gain"], rows))
    print(f"{len(pairs)} points in {sweep.elapsed:.2f}s (workers={sweep.workers})")
    return 0


def _export_artifact(
    model_name: str,
    config_label: str,
    out: str,
    calib_limit: int,
    quantize_embeddings: bool = False,
    quantize_attention: bool = False,
):
    """Shared by the export/serve/bench-serve commands: PTQ + save."""
    import dataclasses

    from repro.deploy import save_artifact
    from repro.eval.experiments import make_task
    from repro.models import pretrained
    from repro.quant import quantize_model

    bundle = pretrained(model_name)
    config = _parse_quant_label(config_label)
    if quantize_embeddings or quantize_attention:
        config = dataclasses.replace(
            config,
            quantize_embeddings=quantize_embeddings,
            quantize_attention=quantize_attention,
        )
    task = make_task(bundle)
    calib = [tuple(a[:calib_limit] for a in task.calib_batches[0])]
    qmodel = quantize_model(bundle.model, config, calib_batches=calib, forward=task.forward)
    sample = bundle.eval_data[0]
    manifest = save_artifact(
        qmodel,
        out,
        name=model_name,
        task=bundle.task,
        quant_label=config.label,
        input_shape=tuple(sample.shape[1:]),
    )
    return bundle, manifest


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.deploy import ArtifactError

    try:
        _, manifest = _export_artifact(
            args.model,
            args.config,
            args.out,
            args.calib_limit,
            quantize_embeddings=args.quantize_embeddings,
            quantize_attention=args.quantize_attention,
        )
    except ArtifactError as exc:
        raise SystemExit(f"export failed: {exc}") from exc
    summary = manifest["summary"]
    payload = manifest["payload"]
    compression = summary["fp32_weight_bytes"] / max(summary["packed_weight_bytes"], 1)
    print(f"artifact: {args.out}")
    print(f"model={manifest['model']['name']} config={manifest['quant']['label']}")
    print(
        f"{summary['num_quantized_layers']} quantized layers, "
        f"{summary['num_float_params']} float tensors, "
        f"{payload['bytes']} payload bytes"
    )
    print(
        f"packed weights: {summary['packed_weight_bytes']} bytes "
        f"({compression:.1f}x vs fp32)"
    )
    print(f"sha256: {payload['sha256']}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.deploy import ArtifactError, inspect_artifact
    from repro.eval import format_table

    try:
        # Manifest + plan only: no payload bit-unpacking for a summary.
        manifest, plan = inspect_artifact(args.artifact, verify=not args.no_verify)
    except ArtifactError as exc:
        raise SystemExit(f"cannot inspect artifact: {exc}") from exc
    model = manifest["model"]
    print(f"artifact: {args.artifact}")
    print(f"format: {manifest['format']} v{manifest['format_version']}")
    print(f"model: {model['name']}  task={model.get('task')}")
    print(f"quant: {manifest['quant'].get('label') or '-'}")
    payload = manifest["payload"]
    checks = "skipped" if args.no_verify else "ok"
    print(
        f"payload: {payload['bytes']} bytes  sha256={payload['sha256'][:16]}…  "
        f"checksums {checks}"
    )
    s = manifest["summary"]
    print(
        f"{s['num_quantized_layers']} quantized layers, {s['num_float_params']} float "
        f"tensors, packed weights {s['packed_weight_bytes']} bytes "
        f"({s['fp32_weight_bytes'] / max(s['packed_weight_bytes'], 1):.1f}x vs fp32)"
    )

    def fmt(spec):
        if spec is None:
            return "-"
        return f"{'s' if spec.signed else 'u'}{spec.bits}/S{spec.scale_fmt.bits}"

    rows = []
    for entry in plan:
        if entry.skipped:
            rows.append([entry.name, entry.kind, "-", "-", "skipped"])
            continue
        extra = ",".join(entry.operands) if entry.operands else ""
        rows.append([entry.name, entry.kind, fmt(entry.weight), fmt(entry.inputs), extra])
    print(format_table(["layer", "kind", "weight", "act", "notes"], rows))
    _print_backend_report()
    return 0


def _print_backend_report() -> None:
    """Execution-backend availability, so operators can see at a glance
    why a model fell back to ``integer`` (e.g. no C toolchain)."""
    from repro.quant.backends import backend_names, backend_probe

    print("execution backends:")
    for name in backend_names():
        probe = backend_probe(name)
        if probe.get("available", False):
            detail = "available"
            if probe.get("compiler"):
                detail += (f" (compiler {probe['compiler']}: {probe.get('version', '?')}; "
                           f"kernel cache {probe.get('cache_dir', '?')}; "
                           f"gelu {probe.get('gelu', '-')})")
        else:
            detail = f"UNAVAILABLE: {probe.get('error', 'unknown reason')}"
        print(f"  {name}: {detail}")


def _synthetic_payloads(engine, count: int, seed: int = 0) -> list:
    """Synthesize single-request payloads matching the artifact's task."""
    from repro.serve.runners import synthetic_payloads

    model_meta = engine.manifest["model"]
    return synthetic_payloads(
        model_meta.get("task"),
        model_meta.get("arch") or {},
        model_meta.get("input_shape"),
        count,
        seed,
    )


def _load_engine(args: argparse.Namespace):
    from repro.deploy import ArtifactError, IntegerEngine

    try:
        return IntegerEngine.load(
            args.artifact,
            per_sample_scale=True,
            precision=args.precision,
            backend=args.backend,
        )
    except ArtifactError as exc:
        raise SystemExit(f"cannot load artifact: {exc}") from exc


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import serve_model

    engine = _load_engine(args)
    payloads = _synthetic_payloads(engine, args.requests)
    server = serve_model(
        engine.model,
        max_batch_size=args.batch_size,
        max_wait_ms=args.max_wait_ms,
        num_workers=args.workers,
        max_queue=max(args.requests, 8),
    )
    print(
        f"serving {engine.manifest['model']['name']} "
        f"({engine.manifest['quant']['label']}) — {args.requests} requests, "
        f"batch<={args.batch_size}, wait {args.max_wait_ms}ms, {args.workers} workers"
    )
    with server:
        pending = [server.submit(p) for p in payloads]
        for handle in pending:
            handle.wait()
        print(server.stats().format())
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.deploy import ArtifactError
    from repro.serve import serve_shard

    try:
        shard = serve_shard(
            args.artifact,
            host=args.host,
            port=args.port,
            ready_file=args.ready_file,
            precision=args.precision,
            backend=args.backend,
            max_batch_size=args.batch_size,
            max_wait_ms=args.max_wait_ms,
            num_workers=args.workers,
            max_queue=args.max_queue,
        )
    except (ArtifactError, OSError) as exc:
        raise SystemExit(f"cannot start shard: {exc}") from exc

    info = shard.info
    print(f"shard listening on {shard.address}")
    print(
        f"serving: {info['name']}@{info['version']}  task={info['task'] or 'image'}  "
        f"batch<={args.batch_size}, wait {args.max_wait_ms}ms, {args.workers} workers"
    )
    done = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: done.set())
    try:
        done.wait()
    except KeyboardInterrupt:
        pass
    print("\nshard shutting down")
    shard.stop()
    return 0


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    import json

    from repro.serve import format_comparison, model_batch_fn, throughput_comparison

    engine = _load_engine(args)
    payloads = _synthetic_payloads(engine, args.requests)
    metrics = throughput_comparison(
        model_batch_fn(engine.model),
        payloads,
        max_batch_size=args.batch_size,
        max_wait_ms=args.max_wait_ms,
        num_workers=args.workers,
    )
    print(format_comparison(metrics))
    if args.json:
        payload = {"bench": "serve_throughput", "artifact": str(args.artifact), "metrics": metrics}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


def _parse_model_specs(specs, flag: str = "--model") -> dict[str, str]:
    models: dict[str, str] = {}
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise SystemExit(f"{flag} must be name=artifact_dir, got {spec!r}")
        if name in models:
            raise SystemExit(f"duplicate model name {name!r}")
        models[name] = path
    return models


def _cmd_gateway(args: argparse.Namespace) -> int:
    import json as _json
    import threading
    from pathlib import Path

    from repro.deploy import ArtifactError
    from repro.loadgen import drive_closed_loop, gateway_sender
    from repro.serve import (
        AutoscalePolicy,
        GatewayClient,
        GatewayHTTPError,
        HealthPolicy,
        RetryPolicy,
        serve_gateway,
    )
    from repro.serve.runners import synthetic_payloads

    models = _parse_model_specs(args.model)
    swaps = _parse_model_specs(args.swap or [], flag="--swap")
    for name in swaps:
        if name not in models:
            raise SystemExit(f"--swap target {name!r} is not in --model")
    if swaps and args.requests is None:
        raise SystemExit("--swap drives a scripted rollout; it requires --requests")
    if args.canary is not None and not swaps:
        raise SystemExit("--canary stages a --swap rollout; add --swap")
    if args.fault_plan and not swaps:
        raise SystemExit("--fault-plan poisons the --swap pool; add --swap")
    if args.require_metrics and args.requests is None:
        raise SystemExit("--require-metrics scrapes after self-traffic; "
                         "it requires --requests")

    autoscale = None
    if args.autoscale:
        try:
            autoscale = AutoscalePolicy(
                min_replicas=args.min_replicas,
                max_replicas=args.max_replicas,
                high_watermark=args.scale_up_load,
                low_watermark=args.scale_down_load,
                cooldown_s=args.cooldown_s,
            )
        except ValueError as exc:
            raise SystemExit(f"bad autoscale policy: {exc}") from exc
    health = None
    if args.health:
        try:
            health = HealthPolicy(
                probe_timeout_s=args.probe_timeout_s,
                max_restarts=args.max_restarts,
            )
        except ValueError as exc:
            raise SystemExit(f"bad health policy: {exc}") from exc
    canary = None
    if args.canary is not None:
        canary = {
            "fraction": args.canary,
            "min_requests": args.canary_min_requests,
            "window_s": args.canary_window_s,
        }
    fault_plan = None
    if args.fault_plan:
        try:
            fault_plan = _json.loads(Path(args.fault_plan).read_text())
        except (OSError, _json.JSONDecodeError) as exc:
            raise SystemExit(f"cannot read --fault-plan: {exc}") from exc

    try:
        gateway = serve_gateway(
            models,
            replicas=args.replicas,
            routing=args.routing,
            host=args.host,
            port=args.port,
            cache_entries=args.cache_entries,
            autoscale=autoscale,
            health=health,
            max_batch_size=args.batch_size,
            max_wait_ms=args.max_wait_ms,
            max_queue=args.max_queue,
            precision=args.precision,
            backend=args.backend,
            replica_mode=args.replica_mode,
        )
    except ArtifactError as exc:
        raise SystemExit(f"cannot start gateway: {exc}") from exc
    except (ValueError, ConnectionError, RuntimeError) as exc:
        raise SystemExit(f"cannot start gateway: {exc}") from exc

    with gateway:
        names = ", ".join(
            f"{e.name}@{e.version} ({e.pool.num_replicas} replicas)"
            for e in gateway.registry.models()
        )
        print(f"gateway listening on {gateway.url}")
        line = f"serving: {names}  routing={args.routing}  cache={args.cache_entries}"
        if autoscale:
            line += f"  autoscale={args.min_replicas}..{args.max_replicas}"
        if health:
            line += "  health=supervised"
        print(line)

        if args.requests is None:
            try:  # serve until interrupted
                threading.Event().wait()
            except KeyboardInterrupt:
                print("\nshutting down (draining queues)")
            return 0

        # Self-traffic smoke: one closed-loop client per model over real
        # HTTP (repro.loadgen.closed_loop). With --swap the rollout is the
        # ``during`` action: it fires once half the model's
        # requests resolve, and traffic keeps flowing until it returns (a
        # --canary swap blocks through the window that judges it).
        retry = RetryPolicy(max_attempts=args.retries + 1) if args.retries else None
        client = GatewayClient(gateway.url)
        swap_options = {}
        if canary is not None:
            swap_options["canary"] = canary
        if fault_plan is not None:
            swap_options["fault_plan"] = fault_plan

        def _swap(name: str) -> dict:
            try:
                return client.swap(name, swaps[name], **swap_options)
            except GatewayHTTPError as exc:
                return {"error": str(exc)}

        loads = {}
        for entry in gateway.registry.models():
            payloads = synthetic_payloads(
                entry.task, entry.arch, entry.input_shape, args.requests
            )
            loads[entry.name] = drive_closed_loop(
                [(entry.name, p) for p in payloads], 1,
                gateway_sender(gateway.url, retry=retry),
                during=(lambda n=entry.name: _swap(n)) if entry.name in swaps else None,
            )
        for name, load in loads.items():
            report = load.during
            if report is None:
                continue
            if "error" in report:
                raise SystemExit(f"rollout failed: {report['error']}")
            if report.get("outcome") == "rolled_back":
                reasons = "; ".join((report.get("canary") or {}).get("reasons", []))
                print(
                    f"rollout: {name} canary {report['new_version']} rolled back, "
                    f"{report['old_version']} keeps serving ({reasons})"
                )
            else:
                print(
                    f"rollout: {name} {report['old_version']} -> {report['new_version']}"
                    f"{' (canary promoted)' if canary is not None else ''} in "
                    f"{report['duration_s']:.3f}s"
                )
        stats = client.stats()
        for name, s in stats["models"].items():
            # Lifetime counters: the top-level ones restart at a hot swap.
            c = s["cumulative"]
            print(
                f"{name}: {c['completed']} ok, {c['errors']} errored, "
                f"{c['rejected']} rejected  p50 {s['latency_ms_p50']:.2f} ms  "
                f"p99 {s['latency_ms_p99']:.2f} ms  {s['requests_per_s']:.1f} req/s"
            )
            if name in swaps:
                print(f"  versions served: {loads[name].versions}")
            scaler = s.get("autoscaler")
            if scaler:
                print(
                    f"  autoscaler: {s['replicas']} replicas, "
                    f"{scaler['scale_ups']} ups / {scaler['scale_downs']} downs"
                )
        if "cache" in stats:
            c = stats["cache"]
            print(f"cache: {c['hits']} hits / {c['misses']} misses, {c['entries']} entries")
        # drive_closed_loop retries 429s; a 503 (a crash casualty or a pool
        # mid-recovery) is retryable by contract, so a drive without
        # --retries counts it. Any other failure fails the command.
        retried = sum(load.overload_retries for load in loads.values())
        unavailable = sum(load.errors_by_class.get("unavailable", 0) for load in loads.values())
        print(
            f"client: {retried} 429s retried, {unavailable} retryable 503s "
            "(--retries N absorbs them)"
        )
        failed = sum(load.failed for load in loads.values()) - unavailable
        if failed:
            samples = [m for load in loads.values() for m in load.failure_samples]
            raise SystemExit(f"self-traffic: {failed} requests failed: {samples}")

        if args.require_metrics:
            missing = _missing_metric_families(
                client.metrics_text(), args.require_metrics
            )
            if missing:
                print(f"/metrics MISSING families: {', '.join(missing)}")
                return 1
            print("/metrics ok: all required families present")
    return 0


def _missing_metric_families(text: str, spec: str) -> list[str]:
    """Required families (``'default'`` or a comma list) absent from a
    ``/metrics`` scrape. Presence = a ``# TYPE`` line, which the registry
    emits for every declared family even at zero traffic."""
    from repro.serve import REQUIRED_FAMILIES

    if spec in ("default", "all"):
        required = list(REQUIRED_FAMILIES)
    else:
        required = [f.strip() for f in spec.split(",") if f.strip()]
    present = {
        line.split()[2]
        for line in text.splitlines()
        if line.startswith("# TYPE ") and len(line.split()) >= 3
    }
    return [f for f in required if f not in present]


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.serve import GatewayClient

    client = GatewayClient(args.url)
    payload = client.traces(sort=args.sort, limit=args.limit)
    traces = payload["traces"]
    if not traces:
        print("no traces recorded yet (send predicts through the gateway first)")
        return 0
    print(
        f"{len(traces)} of {payload['recorded']} recorded traces, "
        f"sort={args.sort}"
    )
    for tr in traces:
        meta = " ".join(
            f"{k}={tr[k]}" for k in ("outcome", "status", "version") if k in tr
        )
        print(f"\n{tr['request_id']}  model={tr.get('model') or '-'}  "
              f"total={tr['total_ms']:.2f}ms  {meta}".rstrip())
        for span in tr["spans"]:
            attrs = " ".join(
                f"{k}={v}" for k, v in span.items()
                if k not in ("name", "start_ms", "dur_ms")
            )
            print(f"  {span['name']:<12} @{span['start_ms']:>8.2f}ms  "
                  f"+{span['dur_ms']:.2f}ms  {attrs}".rstrip())
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.loadgen import (
        TraceError,
        bursty_trace,
        diurnal_trace,
        poisson_trace,
        trace_stats,
        write_trace,
    )

    shared = dict(
        model=args.model_name, kind=args.kind,
        shape=tuple(args.shape) if args.shape else None, seed=args.seed,
    )
    try:
        if args.pattern == "poisson":
            meta, events = poisson_trace(args.rate, args.duration, **shared)
        elif args.pattern == "bursty":
            meta, events = bursty_trace(
                args.on_rate, args.off_rate, args.on_s, args.off_s,
                args.duration, **shared,
            )
        else:
            meta, events = diurnal_trace(
                args.base_rate, args.amplitude, args.period_s,
                args.duration, **shared,
            )
        write_trace(args.out, meta, events)
        stats = trace_stats(events, meta=meta)
    except TraceError as exc:
        raise SystemExit(f"cannot generate trace: {exc}") from exc
    print(
        f"wrote {args.out}: {args.pattern} trace, {stats.events} events over "
        f"{stats.duration_s:.1f}s (mean {stats.mean_rate_rps:.1f} rps, peak "
        f"{stats.peak_rate_rps:.1f} rps over {stats.peak_window_s:.2f}s windows)"
    )
    return 0


def _plan_gateway(args: argparse.Namespace, replicas: int):
    """A dedicated single-model gateway for calibration or replay.

    ``max_batch_size=1``: the planner models one request per replica at
    a time, so the measurement must serve the same way — dynamic
    batching would make calibrated service times batch-size dependent.
    """
    from repro.deploy import ArtifactError
    from repro.serve import serve_gateway

    try:
        return serve_gateway(
            {args.model_name: args.artifact},
            replicas=replicas,
            replica_mode=args.replica_mode,
            max_batch_size=1,
            max_wait_ms=0.0,
            max_queue=args.max_queue,
            backend=args.backend,
        )
    except (ArtifactError, ValueError, ConnectionError, RuntimeError) as exc:
        raise SystemExit(f"cannot start gateway: {exc}") from exc


def _cmd_plan(args: argparse.Namespace) -> int:
    import json

    from repro.loadgen import TraceError
    from repro.plan import (
        PlanError,
        calibrate_service_time,
        plan_capacity,
        plan_for_trace,
    )

    meta, events = None, None
    if args.trace:
        from repro.loadgen import read_trace

        try:
            meta, events = read_trace(args.trace)
        except (OSError, TraceError) as exc:
            raise SystemExit(f"cannot read trace: {exc}") from exc
    elif args.rate is None:
        raise SystemExit("repro plan needs an offered load: --trace FILE or --rate RPS")
    if args.service_ms is None and not args.artifact:
        raise SystemExit(
            "repro plan needs a service time: --service-ms (+ --service-cv) "
            "or --artifact to run a calibration"
        )
    if args.replay and not args.artifact:
        raise SystemExit("--replay serves the artifact; add --artifact")
    if args.replay and events is None:
        raise SystemExit("--replay replays a recorded schedule; add --trace")

    # 1. service time: trusted flag, or a short calibration run.
    profile = None
    service_ms, service_cv = args.service_ms, args.service_cv
    if service_ms is None:
        gateway = _plan_gateway(args, replicas=1)
        with gateway:
            try:
                profile = calibrate_service_time(
                    gateway.url, args.model_name, samples=args.calibrate_samples
                )
            except PlanError as exc:
                raise SystemExit(f"calibration failed: {exc}") from exc
        service_ms, service_cv = profile.service_ms, profile.service_cv
        print(
            f"calibrated: {profile.samples} samples, service "
            f"{service_ms:.2f} ms (cv {service_cv:.2f}, p99 {profile.p99_ms:.2f} ms)"
        )

    # 2. the plan itself.
    try:
        if events is not None:
            plan = plan_for_trace(
                events, service_ms, args.slo_ms, meta=meta,
                model=args.model_name, slo_metric=args.slo_metric,
                service_cv=service_cv, max_replicas=args.max_replicas,
            )
        else:
            plan = plan_capacity(
                args.rate, service_ms, args.slo_ms,
                model=args.model_name, slo_metric=args.slo_metric,
                service_cv=service_cv, max_replicas=args.max_replicas,
            )
    except PlanError as exc:
        raise SystemExit(f"cannot plan: {exc}") from exc
    print(plan.format_report())
    if args.json:
        payload = plan.as_dict()
        if profile is not None:
            payload["calibration"] = profile.as_dict()
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    if not args.replay:
        return 0

    # 3. validate: serve at the planned count, replay the trace, compare.
    from repro.loadgen import replay_trace, write_replay_log

    gateway = _plan_gateway(args, replicas=plan.replicas)
    with gateway:
        report = replay_trace(gateway.url, events, timeout_s=args.timeout_s)
    measured = report.latency_stats_ms(report.records)
    key = {"mean": "mean_ms"}.get(args.slo_metric, f"{args.slo_metric}_ms")
    measured_ms = measured.get(key)
    predicted_ms = plan.predicted_ms.get(args.slo_metric)
    print(
        f"replay @ {plan.replicas} replicas: {len(report.ok_records())}/"
        f"{len(report.records)} ok, measured mean {measured['mean_ms']:.2f} / "
        f"p50 {measured['p50_ms']:.2f} / p99 {measured['p99_ms']:.2f} ms "
        f"(lateness mean {report.as_dict()['lateness_ms_mean']:.2f} ms)"
    )
    if args.replay_log:
        write_replay_log(
            args.replay_log, report,
            meta={"trace": str(args.trace), "replicas": plan.replicas},
        )
        print(f"wrote {args.replay_log}")
    if predicted_ms is not None and measured_ms:
        err = abs(measured_ms - predicted_ms) / predicted_ms
        print(
            f"prediction: {args.slo_metric} {predicted_ms:.2f} ms predicted vs "
            f"{measured_ms:.2f} ms measured ({err:+.0%} error)"
        )
    if args.check_slo:
        if measured_ms is None:
            print("SLO check FAILED: no successful requests to measure")
            return 1
        if measured_ms > args.slo_ms:
            print(
                f"SLO check FAILED: measured {args.slo_metric} "
                f"{measured_ms:.2f} ms > {args.slo_ms:.1f} ms"
            )
            return 1
        failed = len(report.records) - len(report.ok_records())
        if failed:
            print(f"SLO check FAILED: {failed} requests errored "
                  f"({report.errors_by_class()})")
            return 1
        print(
            f"SLO check ok: measured {args.slo_metric} {measured_ms:.2f} ms "
            f"<= {args.slo_ms:.1f} ms at {plan.replicas} replicas"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.deploy.engine import BACKEND_CHOICES

    parser = argparse.ArgumentParser(
        prog="repro", description="VS-Quant reproduction command-line interface"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the model zoo").set_defaults(fn=_cmd_models)

    p = sub.add_parser("ptq", help="quantize a model and report accuracy")
    p.add_argument("--model", required=True,
                   choices=("miniresnet", "minibert-base", "minibert-large"))
    p.add_argument("--config", required=True, help="W/A/ws/as, e.g. 4/8/6/10 or 4/4/-/-")
    p.add_argument("--eval-limit", type=int, default=400)
    p.set_defaults(fn=_cmd_ptq)

    p = sub.add_parser("hw", help="normalized hardware metrics")
    p.add_argument("configs", nargs="+", help="labels like 4/4/4/4")
    p.set_defaults(fn=_cmd_hw)

    p = sub.add_parser("dse", help="design-space Pareto frontier")
    p.add_argument("--top", type=int, default=12)
    p.set_defaults(fn=_cmd_dse)

    p = sub.add_parser("sweep", help="PTQ accuracy sweep (parallelizable)")
    p.add_argument("--model", required=True,
                   choices=("miniresnet", "minibert-base", "minibert-large"))
    p.add_argument("--grid", choices=("bits", "dse"), default="bits",
                   help="'bits': per-channel vs VS-Quant per bitwidth; "
                        "'dse': the Figs. 4-6 design-space grid")
    p.add_argument("--bits", type=int, nargs="+", default=None,
                   help="weight bitwidths (default 3 4 6 8; narrows the dse grid too)")
    p.add_argument("--act-bits", type=int, default=None)
    p.add_argument("--eval-limit", type=int, default=400)
    p.add_argument("--workers", type=int, default=None,
                   help="process count for the sweep (default: REPRO_SWEEP_WORKERS or 1)")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("export", help="save a bit-packed deployment artifact")
    p.add_argument("--model", required=True,
                   choices=("miniresnet", "minibert-base", "minibert-large"))
    p.add_argument("--config", required=True,
                   help="two-level W/A/ws/as config, e.g. 4/8/4/6 (integer scales required)")
    p.add_argument("--out", required=True, help="artifact directory to create")
    p.add_argument("--calib-limit", type=int, default=64)
    p.add_argument("--quantize-embeddings", action="store_true",
                   help="also quantize embedding tables (weight-only)")
    p.add_argument("--quantize-attention", action="store_true",
                   help="also quantize attention score/context matmul operands")
    p.set_defaults(fn=_cmd_export)

    p = sub.add_parser("inspect", help="print an artifact's manifest + embedded plan")
    p.add_argument("artifact", help="artifact directory from `repro export`")
    p.add_argument("--no-verify", action="store_true",
                   help="skip payload/segment checksum verification")
    p.set_defaults(fn=_cmd_inspect)

    serve_common = argparse.ArgumentParser(add_help=False)
    serve_common.add_argument("--artifact", required=True,
                              help="artifact directory from `repro export`")
    serve_common.add_argument("--requests", type=int, default=64)
    serve_common.add_argument("--batch-size", type=int, default=16)
    serve_common.add_argument("--max-wait-ms", type=float, default=10.0)
    serve_common.add_argument("--workers", type=int, default=1)
    serve_common.add_argument("--precision", choices=("float32", "float64"), default="float32",
                              help="engine glue precision (float32 = serving default)")
    serve_common.add_argument(
        "--backend", choices=BACKEND_CHOICES,
        default=os.environ.get("REPRO_BACKEND", "auto"),
        help="execution backend for quantized layers (default: $REPRO_BACKEND or "
             "'auto' = 'compiled' with a C toolchain, else 'integer'; an "
             "unavailable explicit backend falls back to 'integer' with a warning)")

    p = sub.add_parser("serve", parents=[serve_common],
                       help="serve synthetic traffic through the integer engine")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("bench-serve", parents=[serve_common],
                       help="sequential vs dynamic-batching serve throughput")
    p.add_argument("--json", default=None, help="also write metrics to this BENCH JSON path")
    p.set_defaults(fn=_cmd_bench_serve)

    p = sub.add_parser("shard", help="serve one artifact over the binary shard "
                                     "protocol (front with `repro gateway "
                                     "--replica-mode host:port`)")
    p.add_argument("--artifact", required=True,
                   help="artifact directory from `repro export`")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="bind port (default 0 = ephemeral, printed at startup)")
    p.add_argument("--batch-size", type=int, default=8,
                   help="dynamic-batching max batch size")
    p.add_argument("--max-wait-ms", type=float, default=2.0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--max-queue", type=int, default=256)
    p.add_argument("--precision", choices=("float32", "float64"), default="float32")
    p.add_argument(
        "--backend", choices=BACKEND_CHOICES,
        default=os.environ.get("REPRO_BACKEND", "auto"))
    p.add_argument("--ready-file", default=None, metavar="PATH",
                   help="write host:port here once listening (deploy/CI sync point)")
    p.set_defaults(fn=_cmd_shard)

    p = sub.add_parser("gateway", help="multi-model HTTP serving gateway")
    p.add_argument("--model", action="append", required=True, metavar="NAME=ARTIFACT_DIR",
                   help="serve this artifact under NAME (repeatable)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="bind port (default 0 = ephemeral, printed at startup)")
    p.add_argument("--replicas", type=int, default=1,
                   help="replica servers per model (shared read-only weights)")
    p.add_argument("--replica-mode", default="thread", metavar="MODE",
                   help="where replicas run: 'thread' (in-process), 'process' "
                        "(one forked worker process per replica — true "
                        "multi-core), or host:port[,host:port] of running "
                        "`repro shard` instances (applies to every --model; a "
                        "--model value that is itself host:port is remote "
                        "regardless)")
    p.add_argument("--routing", choices=("round_robin", "least_loaded"),
                   default="least_loaded")
    p.add_argument("--batch-size", type=int, default=8,
                   help="per-replica dynamic-batching max batch size")
    p.add_argument("--max-wait-ms", type=float, default=2.0)
    p.add_argument("--max-queue", type=int, default=64,
                   help="per-replica queue bound (admission control: 429 when all full)")
    p.add_argument("--cache-entries", type=int, default=0,
                   help="response-cache LRU capacity (0 = disabled)")
    p.add_argument("--precision", choices=("float32", "float64"), default="float32")
    p.add_argument(
        "--backend", choices=BACKEND_CHOICES,
        default=os.environ.get("REPRO_BACKEND", "auto"),
        help="execution backend for quantized layers (default: $REPRO_BACKEND or "
             "'auto' = 'compiled' with a C toolchain, else 'integer'; an "
             "unavailable explicit backend falls back to 'integer' with a warning)")
    p.add_argument("--requests", type=int, default=None,
                   help="self-traffic mode: send N requests per model over HTTP, "
                        "print /stats, exit (default: serve until Ctrl-C)")
    p.add_argument("--swap", action="append", metavar="NAME=ARTIFACT_DIR",
                   help="scripted rollout (requires --requests): hot-swap NAME to "
                        "this artifact halfway through its self-traffic (repeatable)")
    p.add_argument("--canary", type=float, default=None, metavar="FRACTION",
                   help="stage --swap rollouts behind a canary taking this traffic "
                        "fraction; a failing canary auto-rolls-back")
    p.add_argument("--canary-min-requests", type=int, default=16,
                   help="canary requests observed before the promote/rollback verdict")
    p.add_argument("--canary-window-s", type=float, default=10.0,
                   help="max seconds a canary waits for its min requests")
    p.add_argument("--fault-plan", default=None, metavar="PLAN_JSON",
                   help='chaos hook: JSON file ({"seed": n, "faults": [...]}) '
                        "injected into the --swap pool's replicas")
    p.add_argument("--health", action="store_true",
                   help="attach a replica supervisor (probe + restart) to every model")
    p.add_argument("--probe-timeout-s", type=float, default=5.0,
                   help="supervisor probe deadline; slower replicas earn strikes")
    p.add_argument("--max-restarts", type=int, default=5,
                   help="supervisor restart-storm cap per pool")
    p.add_argument("--retries", type=int, default=0,
                   help="client retries per predict in self-traffic mode "
                        "(429/503, exponential backoff)")
    p.add_argument("--autoscale", action="store_true",
                   help="attach a queue-depth autoscaler to every model")
    p.add_argument("--min-replicas", type=int, default=1)
    p.add_argument("--max-replicas", type=int, default=4)
    p.add_argument("--scale-up-load", type=float, default=4.0,
                   help="load per replica (queued+in-flight) to add a replica")
    p.add_argument("--scale-down-load", type=float, default=0.5,
                   help="load per replica to remove a replica")
    p.add_argument("--cooldown-s", type=float, default=2.0,
                   help="min seconds between autoscale actions")
    p.add_argument("--require-metrics", default=None, metavar="FAMILIES",
                   help="after self-traffic (--requests), scrape /metrics and exit "
                        "non-zero unless these comma-separated families are present "
                        "('default' = the documented required set)")
    p.set_defaults(fn=_cmd_gateway)

    p = sub.add_parser("trace", help="print request traces from a running gateway")
    p.add_argument("--url", required=True,
                   help="gateway base URL, e.g. http://127.0.0.1:8321")
    p.add_argument("--sort", choices=("slowest", "recent"), default="slowest")
    p.add_argument("--limit", type=int, default=10)
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("loadgen", help="generate a seeded workload trace (JSONL)")
    p.add_argument("--pattern", choices=("poisson", "bursty", "diurnal"),
                   required=True)
    p.add_argument("--out", required=True, help="trace file to write")
    p.add_argument("--duration", type=float, default=10.0,
                   help="trace length in seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model-name", default="model",
                   help="gateway model name the events target")
    p.add_argument("--kind", choices=("image", "qa"), default="image",
                   help="payload codec for replayed requests")
    p.add_argument("--shape", type=int, nargs="+", default=None,
                   help="per-request payload shape (default: the served "
                        "model's input shape at replay time)")
    p.add_argument("--rate", type=float, default=20.0,
                   help="[poisson] arrival rate, requests/s")
    p.add_argument("--on-rate", type=float, default=20.0,
                   help="[bursty] arrival rate inside a burst")
    p.add_argument("--off-rate", type=float, default=2.0,
                   help="[bursty] arrival rate between bursts")
    p.add_argument("--on-s", type=float, default=2.0,
                   help="[bursty] burst length, seconds")
    p.add_argument("--off-s", type=float, default=3.0,
                   help="[bursty] gap length, seconds")
    p.add_argument("--base-rate", type=float, default=20.0,
                   help="[diurnal] mean arrival rate of the sinusoid")
    p.add_argument("--amplitude", type=float, default=0.6,
                   help="[diurnal] relative swing in [0, 1)")
    p.add_argument("--period-s", type=float, default=10.0,
                   help="[diurnal] sinusoid period, seconds")
    p.set_defaults(fn=_cmd_loadgen)

    p = sub.add_parser(
        "plan",
        help="capacity plan: replicas needed to hold a latency SLO "
             "(M/M/c on measured service times); --replay validates it",
    )
    p.add_argument("--trace", default=None,
                   help="workload trace from `repro loadgen` (sized on its "
                        "peak-window rate)")
    p.add_argument("--rate", type=float, default=None,
                   help="constant offered rate (requests/s) instead of --trace")
    p.add_argument("--slo-ms", type=float, required=True,
                   help="latency SLO in milliseconds")
    p.add_argument("--slo-metric", choices=("mean", "p50", "p95", "p99"),
                   default="mean", help="which latency statistic the SLO bounds")
    p.add_argument("--service-ms", type=float, default=None,
                   help="known per-request service time (skips calibration)")
    p.add_argument("--service-cv", type=float, default=1.0,
                   help="service-time coefficient of variation for --service-ms "
                        "(1.0 = exponential/M/M/c, 0 = deterministic)")
    p.add_argument("--artifact", default=None,
                   help="artifact directory: calibrate service time against it "
                        "(and serve it under --replay)")
    p.add_argument("--model-name", default="model",
                   help="model name for the plan / temp gateway")
    p.add_argument("--calibrate-samples", type=int, default=30,
                   help="sequential requests in the calibration run")
    p.add_argument("--max-replicas", type=int, default=64,
                   help="give up if the SLO needs more replicas than this")
    p.add_argument("--replica-mode", default="thread", metavar="MODE",
                   help="temp-gateway replica mode: 'thread', 'process', or "
                        "host:port of running shards")
    p.add_argument("--max-queue", type=int, default=256,
                   help="temp-gateway per-replica queue bound")
    p.add_argument(
        "--backend", choices=BACKEND_CHOICES,
        default=os.environ.get("REPRO_BACKEND", "auto"))
    p.add_argument("--timeout-s", type=float, default=60.0,
                   help="per-request client timeout during --replay")
    p.add_argument("--json", default=None,
                   help="also write the plan (+ calibration) as JSON here")
    p.add_argument("--replay", action="store_true",
                   help="serve the artifact at the planned replica count and "
                        "replay the trace against it (requires --artifact "
                        "and --trace)")
    p.add_argument("--replay-log", default=None, metavar="PATH",
                   help="write the per-request replay log (JSONL) here")
    p.add_argument("--check-slo", action="store_true",
                   help="with --replay: exit non-zero unless the measured "
                        "--slo-metric meets --slo-ms and nothing errored")
    p.set_defaults(fn=_cmd_plan)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
