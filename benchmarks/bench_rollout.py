"""Rollout + autoscaling benchmark: requests in flight during a hot swap.

Two scenarios, both end-to-end over the real HTTP path:

**Rollout** — one model serving under closed-loop load from concurrent
HTTP clients; halfway through the tape the driver issues
``POST /v1/models/<name>/swap`` to a second artifact (same architecture,
different quantization -> different payload SHA, i.e. a genuinely new
version). Every response records the version that served it. The
contract being measured:

- **zero failed requests** across the whole rollout (429s are retried;
  anything else is a failure);
- the version histogram shows traffic served by *both* versions (the
  drain means old- and new-version completions legitimately interleave
  around the flip instant, so ordering itself is not asserted);
- post-swap predictions are **bitwise-identical** to a direct
  :class:`~repro.deploy.IntegerEngine` call on the new artifact.

**Autoscale** — the same model behind a 1-replica pool with a
queue-depth autoscaler (min 1, max 4, aggressive watermarks). A load
step (burst of concurrent closed-loop clients) must ramp the pool to
>= 2 replicas (a latency fault on the first replica holds each of its
batches for several autoscaler ticks, so a tick always sees the load);
after the load stops and the cooldown passes, the pool must return to
the floor. Scale events come from ``/stats``.

A third scenario, **chaos** (``--chaos-smoke``), is the PR 6 resilience
contract: the same closed-loop HTTP load while a seeded
:class:`~repro.serve.faults.FaultPlan` crashes a replica mid-tape (the
supervisor must restart it back into routing) and a deliberately bad
canary artifact ships mid-tape (the canary monitor must auto-roll-back,
leaving the old version serving bitwise-identical outputs). Clients
retry 429/500/503 with backoff; the contract is **zero failed client
requests** through all of it.

Run:    PYTHONPATH=src python benchmarks/bench_rollout.py
Smoke:  PYTHONPATH=src python benchmarks/bench_rollout.py --smoke
        (untrained tiny model; same assertions — the contracts here are
        correctness contracts, not machine-dependent perf floors.)
Chaos:  PYTHONPATH=src python benchmarks/bench_rollout.py --chaos-smoke

Emits ``benchmarks/results/BENCH_rollout.json`` (``BENCH_rollout_smoke``
for ``--smoke``, ``BENCH_rollout_chaos_smoke`` for ``--chaos-smoke``).
"""

from __future__ import annotations

import os
import tempfile
import threading
import time

import numpy as np

from repro.deploy import IntegerEngine, save_artifact
from repro.loadgen import drive_closed_loop, gateway_sender
from repro.quant import PTQConfig, quantize_model
from repro.serve import FaultPlan, FaultSpec, GatewayClient, RetryPolicy, serve_gateway
from repro.serve.runners import synthetic_payloads

#: v1 -> v2 differ in quantization config: same topology, different
#: packed weights, therefore different payload SHA = different version.
QUANT_V1 = dict(weight_bits=4, act_bits=4, weight_scale="4", act_scale="4")
QUANT_V2 = dict(weight_bits=8, act_bits=8, weight_scale="6", act_scale="10")

CLIENTS, REQUESTS_PER_CLIENT = 8, 24
SMOKE_CLIENTS, SMOKE_REQUESTS = 4, 8

AUTOSCALE_MAX = 4
#: Every batch on the autoscale run's first replica sleeps this long (a
#: latency fault, as bench_replay pads service time), so the load step
#: spans at least HOLD_MS / interval_s autoscaler ticks per batch there
#: instead of however few a 32-request burst happens to last.
AUTOSCALE_HOLD_MS = 30.0


def _build_model(smoke: bool):
    if smoke:
        from repro.models.resnet import MiniResNet

        model = MiniResNet(num_classes=4, width=1, depth=1, seed=0)
        hw = 16
    else:
        from repro.models import pretrained

        model = pretrained("miniresnet").model
        hw = 32
    model.eval()
    return model, hw


def _export(model, quant: dict, out_dir: str, hw: int) -> str:
    from repro.utils.rng import seeded_rng

    config = PTQConfig.vs_quant(
        quant["weight_bits"], quant["act_bits"],
        weight_scale=quant["weight_scale"], act_scale=quant["act_scale"],
    )
    calib = seeded_rng("rollout-bench").standard_normal((8, 3, hw, hw))
    qmodel = quantize_model(model, config, calib_batches=[(calib,)])
    save_artifact(qmodel, out_dir, task="image", quant_label=config.label,
                  input_shape=(3, hw, hw))
    return out_dir


def _run_rollout(artifact_v1: str, artifact_v2: str, clients: int, per_client: int) -> dict:
    gateway = serve_gateway(
        {"model": artifact_v1}, replicas=2, routing="least_loaded",
        max_batch_size=8, max_wait_ms=2.0, max_queue=max(16, clients * 2),
    )
    with gateway:
        entry = gateway.registry.get("model")
        payloads = synthetic_payloads(
            entry.task, entry.arch, entry.input_shape, clients * per_client
        )
        control = GatewayClient(gateway.url)
        control.predict("model", payloads[0])  # warm kernels off the clock

        # Halfway through the tape the model hot-swaps to v2; clients keep
        # sending across the whole swap (see repro.loadgen.closed_loop).
        load = drive_closed_loop(
            [("model", p) for p in payloads], clients, gateway_sender(gateway.url),
            during=lambda: control.swap("model", artifact_v2),
        )
        swap_report = load.during
        metrics = {
            "requests": load.sent,
            "completed": load.sent - load.failed,
            "failed_requests": load.failed,
            "failure_samples": load.failure_samples,
            "overload_retries": load.overload_retries,
            "elapsed_s": load.wall_s,
            "swap_duration_s": swap_report["duration_s"],
            "old_version": swap_report["old_version"],
            "new_version": swap_report["new_version"],
            "versions": load.versions,
        }

        # Post-swap parity: HTTP reply vs direct engine on the new artifact.
        engine_v2 = IntegerEngine.load(
            artifact_v2, per_sample_scale=True, precision="float32"
        )
        probe = payloads[0]
        via_http = np.asarray(control.predict("model", probe), dtype=np.float32)
        direct = engine_v2(np.asarray(probe)[None])[0].astype(np.float32)
        metrics["parity_ok"] = bool(np.array_equal(via_http, direct))
        metrics["served_both_versions"] = (
            metrics["versions"].get(metrics["old_version"], 0) > 0
            and metrics["versions"].get(metrics["new_version"], 0) > 0
        )
    return metrics


def _run_autoscale(artifact: str, clients: int, per_client: int) -> dict:
    """Load step against a 1-replica pool with an aggressive autoscaler."""
    policy = dict(
        min_replicas=1, max_replicas=AUTOSCALE_MAX,
        high_watermark=1.5, low_watermark=0.25,
        cooldown_s=0.05, interval_s=0.01,
    )
    gateway = serve_gateway(
        {"model": artifact}, replicas=1, autoscale=policy,
        max_batch_size=4, max_wait_ms=2.0, max_queue=max(16, clients * 4),
        fault_plan=FaultPlan([FaultSpec(
            kind="latency", replica=0, latency_ms=AUTOSCALE_HOLD_MS, count=None
        )]),
    )
    with gateway:
        entry = gateway.registry.get("model")
        client = GatewayClient(gateway.url)
        payloads = synthetic_payloads(
            entry.task, entry.arch, entry.input_shape, clients * per_client
        )
        client.predict("model", payloads[0])  # warm

        timeline: list[tuple[float, int]] = []
        stop_sampling = threading.Event()

        def sample() -> None:
            t0 = time.perf_counter()
            while not stop_sampling.wait(0.01):
                timeline.append((time.perf_counter() - t0, entry.pool.num_replicas))

        sampler = threading.Thread(target=sample)
        sampler.start()

        load = drive_closed_loop(
            [("model", p) for p in payloads], clients, gateway_sender(gateway.url)
        )

        # Load gone: wait for the scale-down leg back to the floor.
        deadline = time.perf_counter() + 30.0
        while entry.pool.num_replicas > policy["min_replicas"]:
            if time.perf_counter() > deadline:
                break
            time.sleep(0.02)
        stop_sampling.set()
        sampler.join()

        # The replica count drops before the autoscaler finishes draining
        # the removed replica (and recording the event); give the event a
        # beat to land so the stats snapshot reflects the full story.
        time.sleep(0.25)
        scaler_stats = entry.autoscaler.stats(tail=50)
        final_replicas = entry.pool.num_replicas
    max_replicas = max((n for _, n in timeline), default=1)
    return {
        "policy": policy,
        "requests": load.requests,
        "client_errors": load.failed,
        "overload_retries": load.overload_retries,
        "load_step_s": load.wall_s,
        "max_replicas_reached": max_replicas,
        "final_replicas": final_replicas,
        "scale_ups": scaler_stats["scale_ups"],
        "scale_downs": scaler_stats["scale_downs"],
        "events": scaler_stats["events"],
        "replica_timeline": [[round(t, 4), n] for t, n in timeline[:500]],
    }


CHAOS_CLIENTS, CHAOS_REQUESTS = 6, 12


def _run_chaos(artifact_v1: str, artifact_v2: str) -> dict:
    """Crash a replica + ship a bad canary under closed-loop load.

    Seeded fault plans make the run reproducible: the stable pool's
    replica 0 crashes once a quarter of the way through the tape
    (supervisor restarts it); the canary pool corrupts every output
    after its warm probe (the drift detector's non-finite check
    condemns it, the swap auto-rolls-back). Clients retry 429/500/503;
    the contract is zero failed requests end to end.
    """
    clients, per_client = CHAOS_CLIENTS, CHAOS_REQUESTS
    total = clients * per_client
    crash_plan = FaultPlan(
        [FaultSpec(kind="crash", replica=0, after_requests=total // 4, count=1)],
        seed=7,
    )
    canary_plan = FaultPlan(
        [FaultSpec(kind="corrupt", replica=None, after_requests=1, count=None)],
        seed=7,
    )
    health = dict(
        interval_s=0.02, probe_timeout_s=10.0, fail_threshold=2,
        max_restarts=5, backoff_base_s=0.01, backoff_max_s=0.2,
    )
    canary_policy = {
        "fraction": 0.25, "min_requests": 6, "window_s": 20.0,
        "interval_s": 0.01, "drift_probes": 4, "seed": 7,
    }
    gateway = serve_gateway(
        {"model": artifact_v1}, replicas=2, routing="least_loaded",
        health=health, fault_plan=crash_plan,
        max_batch_size=4, max_wait_ms=1.0, max_queue=max(16, clients * 4),
    )
    with gateway:
        entry = gateway.registry.get("model")
        payloads = synthetic_payloads(
            entry.task, entry.arch, entry.input_shape, total
        )
        control = GatewayClient(gateway.url)
        old_version = entry.version
        # Golden pins: pre-chaos outputs the old version must still serve
        # bitwise-identically after the canary rolls back.
        pins = payloads[:3]
        golden = [np.asarray(control.predict("model", p)) for p in pins]

        retry = RetryPolicy(
            max_attempts=8, backoff_base_s=0.01, backoff_max_s=0.25,
            retry_statuses=(429, 500, 503), seed=7,
        )

        def canary_swap() -> dict:
            # Blocks through the canary window while client traffic flows.
            try:
                return control.swap(
                    "model", artifact_v2,
                    canary=canary_policy, fault_plan=canary_plan.as_dict(),
                )
            except Exception as exc:  # noqa: BLE001 - recorded, asserted on
                return {"error": f"{type(exc).__name__}: {exc}"}

        # Clients that finish their slice keep offering traffic while the
        # canary window is open, so the canary arm serves a live slice.
        load = drive_closed_loop(
            [("model", p) for p in payloads], clients,
            gateway_sender(gateway.url, retry=retry), during=canary_swap,
        )
        swap_result = load.during

        # The supervisor must put the crashed replica's replacement back
        # into routing: poll /stats until the pool reports full health.
        deadline = time.perf_counter() + 20.0
        health_block: dict = {}
        while time.perf_counter() < deadline:
            health_block = control.stats()["models"]["model"]["health"]
            if (
                health_block["replacements"] >= 1
                and health_block["healthy_replicas"] == 2
                and health_block["state"] == "ready"
            ):
                break
            time.sleep(0.05)

        # Golden-pin check: the rolled-back model serves the pre-chaos
        # outputs bitwise-identically.
        pin_ok = True
        for p, want in zip(pins, golden):
            got = np.asarray(control.predict("model", p))
            pin_ok = pin_ok and bool(np.array_equal(got, want))
        final_version = control.model("model")["version"]

    canary_version = swap_result.get("new_version", "")
    return {
        "requests": total,
        "completed": load.completed,
        "window_requests": load.reoffered,
        "failed_requests": load.failed,
        "failure_samples": load.failure_samples,
        "elapsed_s": load.wall_s,
        "versions": load.versions,
        "old_version": old_version,
        "canary_version": canary_version,
        "canary_served": load.versions.get(canary_version, 0),
        "swap_outcome": swap_result.get("outcome", swap_result.get("error", "missing")),
        "rollback_reasons": (swap_result.get("canary") or {}).get("reasons", []),
        "canary_requests": (swap_result.get("canary") or {}).get("requests", 0),
        "crashes_fired": crash_plan.stats()["fired"]["crash"],
        "corruptions_fired": canary_plan.stats()["fired"]["corrupt"],
        "supervisor_replacements": health_block.get("replacements", 0),
        "healthy_replicas": health_block.get("healthy_replicas", 0),
        "pool_state": health_block.get("state", "unknown"),
        "golden_pin_ok": pin_ok,
        "final_version": final_version,
    }


def check_chaos(m: dict) -> list[str]:
    """The chaos-smoke acceptance contracts; empty list = pass."""
    c = m["chaos"]
    problems = []
    if c["failed_requests"]:
        problems.append(
            f"{c['failed_requests']} failed client requests under chaos: "
            f"{c['failure_samples']}"
        )
    if c["completed"] != c["requests"]:
        problems.append(f"only {c['completed']}/{c['requests']} completed")
    if c["crashes_fired"] < 1:
        problems.append("the crash fault never fired; the run proved nothing")
    if c["supervisor_replacements"] < 1:
        problems.append("supervisor never restarted the crashed replica")
    if c["healthy_replicas"] != 2 or c["pool_state"] != "ready":
        problems.append(
            f"pool did not recover: {c['healthy_replicas']}/2 healthy, "
            f"state {c['pool_state']}"
        )
    if c["swap_outcome"] != "rolled_back":
        problems.append(f"bad canary was not rolled back: {c['swap_outcome']}")
    if not c["rollback_reasons"]:
        problems.append("rollback happened without a recorded reason")
    if c["canary_served"] < 1:
        problems.append("the canary arm never served a live request")
    if c["final_version"] != c["old_version"]:
        problems.append(
            f"serving version after rollback is {c['final_version']}, "
            f"expected {c['old_version']}"
        )
    if not c["golden_pin_ok"]:
        problems.append("old version's outputs changed across the rollback")
    return problems


def run_chaos() -> dict:
    model, hw = _build_model(smoke=True)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-bench-") as tmpdir:
        v1 = _export(model, QUANT_V1, os.path.join(tmpdir, "v1"), hw)
        v2 = _export(model, QUANT_V2, os.path.join(tmpdir, "v2"), hw)
        chaos = _run_chaos(v1, v2)
    return {"clients": CHAOS_CLIENTS, "chaos": chaos}


def format_chaos_report(m: dict) -> str:
    c = m["chaos"]
    return "\n".join([
        f"chaos smoke ({m['clients']} closed-loop HTTP clients, seeded faults):",
        f"  {c['completed']}/{c['requests']} ok, {c['failed_requests']} failed",
        f"  crash faults fired: {c['crashes_fired']}, supervisor replacements: "
        f"{c['supervisor_replacements']}, pool {c['pool_state']} "
        f"({c['healthy_replicas']}/2 healthy)",
        f"  canary outcome: {c['swap_outcome']} "
        f"({c['canary_served']} live requests on the canary arm; "
        f"{'; '.join(c['rollback_reasons']) or 'no reasons'})",
        f"  golden pin: {'bitwise-identical' if c['golden_pin_ok'] else 'MISMATCH'} "
        f"on {c['final_version']}",
        f"  versions served: {c['versions']}",
    ])


def run(smoke: bool = False) -> dict:
    clients = SMOKE_CLIENTS if smoke else CLIENTS
    per_client = SMOKE_REQUESTS if smoke else REQUESTS_PER_CLIENT
    model, hw = _build_model(smoke)
    with tempfile.TemporaryDirectory(prefix="repro-rollout-bench-") as tmpdir:
        v1 = _export(model, QUANT_V1, os.path.join(tmpdir, "v1"), hw)
        v2 = _export(model, QUANT_V2, os.path.join(tmpdir, "v2"), hw)
        rollout = _run_rollout(v1, v2, clients, per_client)
        autoscale = _run_autoscale(v1, clients, per_client)
    return {"clients": clients, "rollout": rollout, "autoscale": autoscale}


def format_report(m: dict) -> str:
    r, a = m["rollout"], m["autoscale"]
    lines = [
        f"zero-downtime rollout ({m['clients']} closed-loop HTTP clients):",
        f"  {r['completed']}/{r['requests']} ok, {r['failed_requests']} failed, "
        f"{r['overload_retries']} overload retries",
        f"  swap {r['old_version']} -> {r['new_version']} in {r['swap_duration_s']:.3f}s",
        f"  versions served: {r['versions']}",
        f"  post-swap parity vs direct IntegerEngine: "
        f"{'bitwise-identical' if r['parity_ok'] else 'MISMATCH'}",
        "queue-depth autoscale (load step on a 1-replica pool):",
        f"  ramp 1 -> {a['max_replicas_reached']} replicas "
        f"(max {a['policy']['max_replicas']}), back to {a['final_replicas']} "
        f"after cooldown",
        f"  {a['scale_ups']} scale-ups / {a['scale_downs']} scale-downs, "
        f"{a['client_errors']} client errors",
    ]
    return "\n".join(lines)


def check(m: dict) -> list[str]:
    """The acceptance contracts; empty list = pass."""
    r, a = m["rollout"], m["autoscale"]
    problems = []
    if r["failed_requests"]:
        problems.append(
            f"{r['failed_requests']} failed requests during rollout: "
            f"{r['failure_samples']}"
        )
    if r["completed"] != r["requests"]:
        problems.append(f"only {r['completed']}/{r['requests']} completed")
    if not r["served_both_versions"]:
        problems.append(f"expected both versions in histogram, got {r['versions']}")
    if not r["parity_ok"]:
        problems.append("post-swap HTTP prediction differs from direct engine")
    if a["max_replicas_reached"] < 2:
        problems.append("autoscaler never scaled past 1 replica under the load step")
    if a["final_replicas"] != a["policy"]["min_replicas"]:
        problems.append(
            f"autoscaler did not return to the floor: {a['final_replicas']} "
            f"!= {a['policy']['min_replicas']}"
        )
    if a["client_errors"]:
        problems.append(f"{a['client_errors']} client errors during autoscale run")
    return problems


if __name__ == "__main__":
    import argparse
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parent))
    from conftest import save_bench_json, save_result

    parser = argparse.ArgumentParser()
    parser.add_argument("--smoke", action="store_true",
                        help="tiny untrained model (CI); same contracts")
    parser.add_argument("--chaos-smoke", action="store_true",
                        help="seeded fault injection: replica crash + bad "
                             "canary under load (CI resilience contract)")
    args = parser.parse_args()

    if args.chaos_smoke:
        metrics = run_chaos()
        print(format_chaos_report(metrics))
        problems = check_chaos(metrics)
        metrics["ok"] = not problems
        save_bench_json("rollout_chaos_smoke", metrics)
        if problems:
            raise SystemExit("FAIL: " + "; ".join(problems))
        print("chaos contracts OK")
        raise SystemExit(0)

    metrics = run(smoke=args.smoke)
    report = format_report(metrics)
    print(report)
    problems = check(metrics)
    metrics["ok"] = not problems
    if args.smoke:
        save_bench_json("rollout_smoke", metrics)
    else:
        save_result("rollout", report)
        save_bench_json("rollout", metrics)
    if problems:
        raise SystemExit("FAIL: " + "; ".join(problems))
    print("rollout contracts OK")
