"""Threaded inference serving: dynamic batching, replicas, HTTP gateway.

- :mod:`repro.serve.server` — :class:`InferenceServer`: a bounded request
  queue (backpressure), a worker pool whose workers coalesce requests into
  batches (max-batch-size + max-wait-ms), and latency/throughput stats
  (including the ``queue_depth``/``in_flight`` load signals).
- :mod:`repro.serve.replica` — :class:`ReplicaPool`: N servers sharing
  read-only weights behind round-robin or least-loaded routing with
  overload failover; the :class:`ReplicaHandle` contract makes replica
  *location* (thread/process/remote) a per-pool configuration.
- :mod:`repro.serve.worker` — :class:`ProcessReplica` (forked worker
  process, fork-shared weights) and :class:`RemoteReplica` (shard at
  host:port), both speaking a length-prefixed binary protocol with
  bitwise payload round-trips.
- :mod:`repro.serve.shard` — :class:`ShardServer` / :func:`serve_shard`:
  one artifact behind a TCP listener (``repro shard``), frontable by any
  gateway via ``replica_mode="host:port"``.
- :mod:`repro.serve.registry` — :class:`ModelRegistry`: hot-load/unload
  models (artifacts or raw ``batch_fn``\\ s) by name+version, plus
  ``swap()``: the zero-downtime rollout primitive (load new version,
  warm with a parity probe, atomic routing flip, drain the old pool).
- :mod:`repro.serve.autoscale` — :class:`Autoscaler` +
  :class:`AutoscalePolicy`: a per-model control loop growing/shrinking
  the replica pool off the ``queue_depth``/``in_flight`` load signal
  (high/low watermarks, min/max replicas, cooldown).
- :mod:`repro.serve.health` — :class:`Supervisor` + :class:`HealthPolicy`:
  per-model replica supervision (liveness, deadline probes, quarantine,
  bounded restarts with exponential backoff).
- :mod:`repro.serve.faults` — :class:`FaultPlan` + :class:`FaultSpec`:
  seeded, replica-targeted fault injection (crash/latency/error/corrupt)
  for chaos tests and the ``--chaos-smoke`` benchmark.
- :mod:`repro.serve.gateway` — :class:`Gateway`: the stdlib HTTP
  front-end (``/v1/models``, ``/v1/models/<name>/predict`` in JSON or
  binary frames, ``/healthz``, ``/stats``), admission control (429/413),
  and the optional response cache.
- :mod:`repro.serve.client` — :class:`GatewayClient`: stdlib client used
  by the CLI, benchmarks, and tests; binary predicts over one persistent
  connection per thread, opt-in :class:`RetryPolicy` (backoff + jitter),
  :class:`CircuitBreaker`, and per-call deadlines.
- :mod:`repro.serve.runners` — adapters that turn a model (or
  :class:`repro.deploy.IntegerEngine`) into the server's ``batch_fn``:
  stack single-sample payloads, run one forward, split the outputs.
- :mod:`repro.serve.bench` — sequential vs dynamically-batched throughput
  comparison used by ``repro bench-serve`` and
  ``benchmarks/bench_serve_throughput.py``.
- :mod:`repro.serve.instrument` — :class:`ServeMetrics`: the serve
  stack's Prometheus metric catalog (declared on the shared
  :class:`repro.obs.Observability` hub) plus its event-bus and
  scrape-time wiring; :data:`REQUIRED_FAMILIES` is the CI contract.

See ``docs/serving.md`` and ``docs/observability.md`` for the design.
"""

from repro.serve.autoscale import Autoscaler, AutoscalePolicy
from repro.serve.bench import format_comparison, throughput_comparison
from repro.serve.client import (
    CircuitBreaker,
    CircuitOpen,
    DeadlineExceeded,
    GatewayClient,
    GatewayHTTPError,
    GatewayOverloaded,
    RetryPolicy,
)
from repro.serve.faults import FaultInjected, FaultPlan, FaultSpec
from repro.serve.gateway import Gateway, GatewayError, ResponseCache, serve_gateway
from repro.serve.health import HealthPolicy, Supervisor, pool_health
from repro.serve.instrument import REQUIRED_FAMILIES, ServeMetrics
from repro.serve.registry import (
    CanaryPolicy,
    ModelEntry,
    ModelRegistry,
    ModelUnavailable,
    SwapError,
    SwapReport,
)
from repro.serve.replica import NoHealthyReplicas, ReplicaHandle, ReplicaPool
from repro.serve.runners import model_batch_fn, serve_artifact, serve_model
from repro.serve.server import (
    InferenceServer,
    PendingResponse,
    ServerClosed,
    ServerOverloaded,
    ServeStats,
    WorkerCrash,
)
from repro.serve.shard import ShardServer, serve_shard
from repro.serve.worker import ProcessReplica, RemoteReplica

__all__ = [
    "InferenceServer",
    "PendingResponse",
    "ServerClosed",
    "ServerOverloaded",
    "ServeStats",
    "WorkerCrash",
    "ReplicaPool",
    "ReplicaHandle",
    "ProcessReplica",
    "RemoteReplica",
    "ShardServer",
    "serve_shard",
    "NoHealthyReplicas",
    "Autoscaler",
    "AutoscalePolicy",
    "HealthPolicy",
    "Supervisor",
    "pool_health",
    "FaultPlan",
    "FaultSpec",
    "FaultInjected",
    "CanaryPolicy",
    "ModelEntry",
    "ModelRegistry",
    "ModelUnavailable",
    "SwapError",
    "SwapReport",
    "Gateway",
    "GatewayError",
    "ResponseCache",
    "serve_gateway",
    "GatewayClient",
    "GatewayHTTPError",
    "GatewayOverloaded",
    "RetryPolicy",
    "CircuitBreaker",
    "CircuitOpen",
    "DeadlineExceeded",
    "model_batch_fn",
    "serve_artifact",
    "serve_model",
    "format_comparison",
    "throughput_comparison",
    "ServeMetrics",
    "REQUIRED_FAMILIES",
]
