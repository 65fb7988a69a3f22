"""Multi-model registry: hot-load, serve, and unload models by name.

The registry is the gateway's model table. Each entry owns a
:class:`~repro.serve.replica.ReplicaPool` plus the metadata the HTTP
layer needs: the version string (derived from the artifact payload hash
unless given), the task type (which fixes the request codec), and the
input shape for synthetic traffic.

Lifecycle contract:

- ``load_artifact(name, path)`` loads the artifact **once** into an
  :class:`~repro.deploy.IntegerEngine` and fans it out to ``replicas``
  servers sharing the read-only weights. Loading a name that already
  exists raises; replacing a serving version is ``swap(name, path)``,
  not load/unload.
- ``unload(name)`` immediately removes the entry — new lookups raise
  :class:`ModelUnavailable` — then stops the pool with ``drain=True`` so
  every in-flight and queued request still completes with a valid
  response. Mid-flight unload therefore never corrupts responses; it
  only 404s *new* traffic.
- ``get(name)`` raises :class:`ModelUnavailable` (with the live model
  list in the message) for unknown or unloading names.
- ``swap(name, path)`` is the zero-downtime rollout primitive: it loads
  the new artifact into a *fresh* pool, warms it with a parity probe
  request, atomically flips the entry's routing to the new pool, then
  drains and retires the old pool. In-flight and queued requests finish
  on the old version; requests routed after the flip run on the new one;
  at no point does the name disappear from the table, so rollout traffic
  never sees a 404/503. Any failure before the flip (corrupt artifact,
  probe error) leaves the old version serving untouched.
- ``swap(name, path, canary=CanaryPolicy(...))`` adds a canary stage
  before the flip: a deterministic slice of live traffic runs on the new
  pool, its error rate / latency / output drift are compared against the
  stable pool over a bounded window, and a failing canary auto-rolls
  back (report ``outcome="rolled_back"``) without the old version ever
  having stopped serving.

Entries may also carry a :class:`~repro.serve.health.Supervisor`
(``health=HealthPolicy(...)``) that probes replicas and restarts
crashed/wedged ones — see ``repro.serve.health``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.obs import Observability
from repro.serve.autoscale import Autoscaler, AutoscalePolicy
from repro.serve.health import HealthPolicy, Supervisor, pool_health
from repro.serve.replica import ReplicaPool
from repro.serve.runners import model_batch_fn, synthetic_payloads
from repro.serve.server import ServeStats
from repro.utils.log import get_logger

logger = get_logger("registry")


class ModelUnavailable(KeyError):
    """No such model in the registry (never loaded, or unloaded)."""

    def __str__(self) -> str:  # KeyError quotes its args; keep it readable
        return self.args[0] if self.args else ""


class SwapError(RuntimeError):
    """A hot swap aborted before the flip; the old version keeps serving."""


def _decode_image(inputs) -> np.ndarray:
    return np.asarray(inputs, dtype=np.float32)


def _decode_qa(inputs) -> tuple:
    if not isinstance(inputs, (list, tuple)) or len(inputs) != 2:
        raise ValueError("qa payload must be [tokens, mask]")
    tokens, mask = inputs
    return (np.asarray(tokens, dtype=np.int64), np.asarray(mask, dtype=bool))


#: task name -> JSON ``inputs`` decoder producing a server payload.
PAYLOAD_CODECS: dict[str, Callable] = {"image": _decode_image, "qa": _decode_qa}


@dataclass(frozen=True)
class CanaryPolicy:
    """Knobs for a canary rollout (``swap(..., canary=...)``).

    A canary swap routes roughly ``fraction`` of the model's live
    traffic to the new pool (deterministically: every
    ``round(1/fraction)``-th routed request, so retries after a canary
    hiccup land on the stable version) until ``min_requests`` canary
    requests resolved or ``window_s`` elapsed, then judges:

    - canary error rate more than ``max_error_rate`` above the stable
      pool's error rate over the same window -> rollback;
    - canary p50 latency more than ``max_latency_ratio`` times the
      stable pool's -> rollback;
    - ``drift_probes`` seeded synthetic inputs run through both pools:
      any non-finite canary output -> rollback; if ``max_drift`` is set,
      an argmax-flip fraction above it -> rollback. ``None`` disables
      the argmax comparison (distinct quantization configs legitimately
      flip borderline argmaxes; non-finite outputs are never legitimate).

    Rollback retires the canary pool after draining it — accepted canary
    requests still resolve — and leaves the old version's pool untouched
    (bitwise-identical outputs before and after, the golden-pin
    guarantee).
    """

    fraction: float = 0.25
    min_requests: int = 16
    window_s: float = 30.0
    interval_s: float = 0.02
    max_error_rate: float = 0.02
    max_latency_ratio: float = 4.0
    drift_probes: int = 4
    max_drift: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.min_requests < 1:
            raise ValueError(f"min_requests must be >= 1, got {self.min_requests}")
        if self.window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {self.window_s}")
        if self.interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {self.interval_s}")
        if self.max_error_rate < 0:
            raise ValueError(f"max_error_rate must be >= 0, got {self.max_error_rate}")
        if self.max_latency_ratio <= 0:
            raise ValueError(
                f"max_latency_ratio must be > 0, got {self.max_latency_ratio}"
            )
        if self.drift_probes < 0:
            raise ValueError(f"drift_probes must be >= 0, got {self.drift_probes}")
        if self.max_drift is not None and not 0.0 <= self.max_drift <= 1.0:
            raise ValueError(f"max_drift must be in [0, 1] or None, got {self.max_drift}")

    @property
    def cycle(self) -> int:
        """Send every ``cycle``-th routed request to the canary pool."""
        return max(int(round(1.0 / self.fraction)), 1)


@dataclass
class _CanaryState:
    """Live canary routing state, installed on the entry under its lock."""

    pool: ReplicaPool
    version: str
    policy: CanaryPolicy
    counter: int = 0


@dataclass
class SwapReport:
    """What a completed hot swap did, for callers/logs/HTTP responses."""

    name: str
    old_version: str
    new_version: str
    replicas: int
    duration_s: float
    probe_checked: bool
    outcome: str = "promoted"  # "promoted" | "rolled_back"
    canary: dict | None = None

    def as_dict(self) -> dict:
        return {
            "model": self.name,
            "old_version": self.old_version,
            "new_version": self.new_version,
            "replicas": self.replicas,
            "duration_s": self.duration_s,
            "probe_checked": self.probe_checked,
            "outcome": self.outcome,
            "canary": self.canary,
        }


@dataclass
class ModelEntry:
    """One served model: its replica pool plus routing/codec metadata.

    The routing fields (``pool``, ``version``, codec metadata) are
    mutable — a hot swap replaces them together under ``lock`` — so
    readers that need a consistent (pool, version) pair must go through
    :meth:`snapshot` rather than reading the attributes twice.
    """

    name: str
    version: str
    task: str | None
    pool: ReplicaPool
    decode: Callable
    input_shape: tuple[int, ...] | None = None
    arch: dict = field(default_factory=dict)
    #: per-layer backend counts + attention-operand path of an artifact
    #: model (:attr:`repro.deploy.IntegerEngine.backends`); ``None`` otherwise
    backends: dict | None = None
    loaded_unix: float = field(default_factory=time.time)
    autoscaler: Autoscaler | None = None
    supervisor: Supervisor | None = None
    #: live canary split (set by ``swap(..., canary=...)`` for its window)
    canary: _CanaryState | None = None
    #: guards the routing fields; held only for field reads/writes, never
    #: across pool operations (the flip is a pointer swap, not a drain).
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    #: serializes swaps on this entry (a swap is seconds-long; holding
    #: ``lock`` that long would stall every predict).
    swap_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    history: list = field(default_factory=list)
    #: lifetime counters absorbed from retired pools (under ``lock``) —
    #: what makes per-model totals survive hot swaps. The *serving* pool's
    #: share is added on read (:meth:`cumulative`), so these fields alone
    #: only cover pools that have already been drained and retired.
    cum_completed: int = 0
    cum_errors: int = 0
    cum_rejected: int = 0
    cum_crashes: int = 0

    def snapshot(self) -> tuple[ReplicaPool, str]:
        """The current *stable* (pool, version) pair, read atomically.

        Canary-oblivious on purpose: the autoscaler, the supervisor, and
        ``/stats`` act on the stable pool; only request routing
        (:meth:`route`) participates in a canary split.
        """
        with self.lock:
            return self.pool, self.version

    def route(self) -> tuple[ReplicaPool, str]:
        """The (pool, version) this request should run on.

        Identical to :meth:`snapshot` except during a canary window,
        when every ``policy.cycle``-th call gets the canary pool. The
        deterministic counter (rather than a coin flip) means a request
        retried after a canary-side failure re-routes to the stable
        pool with certainty, not probability.
        """
        with self.lock:
            canary = self.canary
            if canary is not None and canary.pool.running:
                canary.counter += 1
                if canary.counter % canary.policy.cycle == 0:
                    return canary.pool, canary.version
            return self.pool, self.version

    def describe(self) -> dict:
        """JSON-ready summary for ``GET /v1/models``."""
        with self.lock:
            pool, version, task = self.pool, self.version, self.task
            input_shape, loaded_unix = self.input_shape, self.loaded_unix
            arch, canary = self.arch, self.canary
        return {
            "name": self.name,
            "version": version,
            "task": task,
            "replicas": pool.num_replicas,
            "routing": pool.routing,
            "input_shape": list(input_shape) if input_shape else None,
            "arch": dict(arch),
            "loaded_unix": loaded_unix,
            "swaps": len(self.history),
            "health": pool.health_state(),
            "supervised": self.supervisor is not None and self.supervisor.running,
            "canary": (
                {"version": canary.version, "fraction": canary.policy.fraction}
                if canary is not None
                else None
            ),
            "autoscale": (
                self.autoscaler.stats(tail=0)["policy"] if self.autoscaler else None
            ),
        }

    def stats(self) -> ServeStats:
        return self.pool.stats()

    def absorb_pool(self, stats: ServeStats) -> None:
        """Fold a retired (stopped, drained) pool's counters into the
        entry's lifetime totals. Called by ``swap`` after the old pool —
        or a rolled-back canary pool — finishes draining."""
        with self.lock:
            self.cum_completed += stats.completed
            self.cum_errors += stats.errors
            self.cum_rejected += stats.rejected
            self.cum_crashes += stats.crashes

    def cumulative(self) -> dict:
        """Lifetime per-model counters: retired pools + the serving pool.

        This is the swap-surviving view ``/stats`` exposes next to the
        per-pool (interval) numbers — the fix for the old "counters
        reset at a hot swap" wart.
        """
        pool, _ = self.snapshot()
        s = pool.stats()
        with self.lock:
            return {
                "completed": self.cum_completed + s.completed,
                "errors": self.cum_errors + s.errors,
                "rejected": self.cum_rejected + s.rejected,
                "crashes": self.cum_crashes + s.crashes,
                "swaps": sum(1 for h in self.history if h.get("event") == "swap"),
            }


def _make_probe_fn(task: str | None, arch: dict, input_shape) -> Callable | None:
    """A supervisor probe-payload factory, or ``None`` when the model's
    metadata cannot synthesize one (liveness-only supervision then)."""
    if (task or "image") != "qa" and not input_shape:
        return None
    try:
        payload = synthetic_payloads(task, arch, input_shape, 1)[0]
    except (KeyError, TypeError, ValueError) as exc:
        logger.warning("health probes disabled (cannot synthesize payload: %s)", exc)
        return None
    return lambda: payload


class ModelRegistry:
    """Thread-safe name -> :class:`ModelEntry` table.

    ``obs`` is the stack's shared :class:`~repro.obs.Observability` hub:
    every entry's supervisor, autoscaler, and fault plan publishes to
    ``obs.events``, and swap/canary decisions land there too, so one bus
    totally orders everything the control loops did. The gateway serves
    ``obs`` at ``/metrics`` / ``/v1/events`` / ``/v1/traces``.
    """

    def __init__(self, *, obs: Observability | None = None) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, ModelEntry] = {}
        self.obs = obs if obs is not None else Observability()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        batch_fn,
        *,
        version: str = "0",
        task: str | None = None,
        decode: Callable | None = None,
        input_shape: tuple[int, ...] | None = None,
        arch: dict | None = None,
        backends: dict | None = None,
        replicas: int = 1,
        routing: str = "least_loaded",
        start: bool = True,
        autoscale: AutoscalePolicy | dict | None = None,
        health: HealthPolicy | dict | None = None,
        fault_plan=None,
        **server_kwargs,
    ) -> ModelEntry:
        """Serve an arbitrary ``batch_fn`` under ``name``.

        The escape hatch under :meth:`load_artifact`: tests and custom
        deployments register any callable obeying the server's
        ``batch_fn(payloads) -> results`` contract. ``autoscale`` (an
        :class:`~repro.serve.autoscale.AutoscalePolicy` or its kwargs as
        a dict) attaches a queue-depth autoscaler to the entry;
        ``health`` (a :class:`~repro.serve.health.HealthPolicy` or its
        kwargs) attaches a replica supervisor. Both follow the entry
        across hot swaps. ``fault_plan`` wraps every replica's
        ``batch_fn`` with a :class:`~repro.serve.faults.FaultPlan` — the
        chaos-testing hook.
        """
        pool = ReplicaPool(
            batch_fn,
            replicas=replicas,
            routing=routing,
            fault_plan=fault_plan,
            **server_kwargs,
        )
        if isinstance(autoscale, dict):
            autoscale = AutoscalePolicy(**autoscale)
        if isinstance(health, dict):
            health = HealthPolicy(**health)
        entry = ModelEntry(
            name=name,
            version=version,
            task=task,
            pool=pool,
            decode=decode or PAYLOAD_CODECS.get(task or "", _decode_image),
            input_shape=tuple(input_shape) if input_shape else None,
            arch=dict(arch or {}),
            backends=backends,
        )
        if fault_plan is not None:
            fault_plan.bind(self.obs.events, model=name)
        if autoscale is not None:
            # pool_fn re-reads entry.pool so the loop targets whatever
            # pool a hot swap has most recently flipped in.
            entry.autoscaler = Autoscaler(
                lambda: entry.snapshot()[0], autoscale, name=name,
                events=self.obs.events,
            )
        if health is not None:
            entry.supervisor = Supervisor(
                lambda: entry.snapshot()[0],
                health,
                probe_fn=_make_probe_fn(task, dict(arch or {}), entry.input_shape),
                name=name,
                events=self.obs.events,
            )
        with self._lock:
            if name in self._entries:
                raise ValueError(
                    f"model {name!r} is already serving (version "
                    f"{self._entries[name].version}); unload it first"
                )
            self._entries[name] = entry
        self.obs.events.publish(
            "registry", "load", model=name, version=version, replicas=replicas
        )
        if start:
            pool.start()
            if entry.autoscaler is not None:
                entry.autoscaler.start()
            if entry.supervisor is not None:
                entry.supervisor.start()
        return entry

    def load_artifact(
        self,
        name: str,
        path: str | Path,
        *,
        version: str | None = None,
        replicas: int = 1,
        routing: str = "least_loaded",
        per_sample_scale: bool = True,
        precision: str = "float32",
        backend: str = "auto",
        start: bool = True,
        autoscale: AutoscalePolicy | dict | None = None,
        health: HealthPolicy | dict | None = None,
        fault_plan=None,
        **server_kwargs,
    ) -> ModelEntry:
        """Hot-load a deployment artifact and serve it under ``name``.

        The artifact is loaded once (checksums verified) and shared
        read-only by every replica. Defaults are the serving knobs:
        per-sample activation scales (batch-invariant replies) and
        float32 glue precision. ``version`` defaults to the first 12 hex
        chars of the payload SHA-256, so distinct weights always get
        distinct versions.
        """
        from repro.deploy import IntegerEngine

        with self._lock:  # fail fast before the (expensive) artifact load;
            if name in self._entries:  # register() still re-checks under lock
                raise ValueError(
                    f"model {name!r} is already serving (version "
                    f"{self._entries[name].version}); unload it first"
                )
        engine = IntegerEngine.load(
            path, per_sample_scale=per_sample_scale, precision=precision,
            backend=backend,
        )
        manifest_model = engine.manifest["model"]
        input_shape = manifest_model.get("input_shape")
        return self.register(
            name,
            model_batch_fn(engine.model),
            version=version or engine.manifest["payload"]["sha256"][:12],
            task=engine.task,
            input_shape=tuple(input_shape) if input_shape else None,
            arch=dict(manifest_model.get("arch") or {}),
            backends=engine.backends,
            replicas=replicas,
            routing=routing,
            start=start,
            autoscale=autoscale,
            health=health,
            fault_plan=fault_plan,
            **server_kwargs,
        )

    def load_remote(
        self,
        name: str,
        addresses,
        *,
        version: str | None = None,
        routing: str = "least_loaded",
        start: bool = True,
        autoscale: AutoscalePolicy | dict | None = None,
        health: HealthPolicy | dict | None = None,
        **server_kwargs,
    ) -> ModelEntry:
        """Serve ``name`` from running shards instead of a local artifact.

        ``addresses`` is ``host:port[,host:port]`` (or a list) of shards
        started with ``repro shard``. The first reachable shard's
        ``info`` frame supplies the task/arch/input-shape metadata the
        gateway codec and supervisor probe need, and the version (unless
        overridden) — every shard is assumed to serve the same artifact;
        mixed fleets are what canary/swap flows are for.
        """
        from repro.serve.replica import _parse_replica_mode
        from repro.serve.worker import RemoteReplica

        _, addrs = _parse_replica_mode(addresses)
        probe = RemoteReplica(addrs[0], **server_kwargs)
        probe.start()
        try:
            info = probe.info()
        finally:
            probe.stop()
        input_shape = info.get("input_shape")
        return self.register(
            name,
            None,
            version=version or info.get("version", "remote"),
            task=info.get("task"),
            input_shape=tuple(input_shape) if input_shape else None,
            arch=dict(info.get("arch") or {}),
            routing=routing,
            start=start,
            autoscale=autoscale,
            health=health,
            replica_mode=addrs,
            **server_kwargs,
        )

    # ------------------------------------------------------------------
    # hot swap (zero-downtime rollout)
    # ------------------------------------------------------------------
    def swap(
        self,
        name: str,
        path: str | Path,
        *,
        version: str | None = None,
        per_sample_scale: bool = True,
        precision: str = "float32",
        backend: str = "auto",
        probe: object | None = None,
        probe_timeout_s: float = 60.0,
        canary: CanaryPolicy | dict | None = None,
        fault_plan=None,
    ) -> SwapReport:
        """Replace ``name``'s serving version with the artifact at ``path``.

        The swap state machine (see ``docs/serving.md``):

        1. **load** — the new artifact is checksum-verified and loaded
           into a fresh :class:`~repro.deploy.IntegerEngine`; failure
           (missing/corrupt artifact) raises before anything changes.
        2. **warm** — a fresh :class:`ReplicaPool` is built with the old
           pool's replica count/routing/server knobs and started, and a
           synthetic probe request (or the caller's ``probe`` payload)
           runs through the *full* pool path. The pool's reply must be
           bitwise-equal to a direct engine call and finite; any
           mismatch or error raises :class:`SwapError` and retires the
           new pool — the old version never stopped serving. The probe
           also pre-faults the engine's kernels so the first real
           request after the flip pays no cold-start.
        3. **flip** — the entry's (pool, version, codec) routing fields
           are replaced atomically under the entry lock. New requests
           route to the new pool from this instant.
        4. **drain** — the old pool stops with ``drain=True``: everything
           it accepted completes on the old version, then its workers
           exit. The name never leaves the table, so no request sees a
           404/503 because of a rollout.

        With ``canary`` (a :class:`CanaryPolicy` or its kwargs as a
        dict), a **canary** stage runs between warm and flip: the new
        pool takes ``fraction`` of live traffic until the policy's
        window closes, then the registry compares error rate, latency,
        and output drift against the stable pool. A failing canary
        **auto-rolls-back** — the new pool drains and retires, the old
        version never stopped serving, and the returned report says
        ``outcome="rolled_back"`` instead of raising. The canary stays
        inside the swap lock, so swaps remain serialized while predicts
        flow freely through :meth:`ModelEntry.route`.

        ``fault_plan`` wraps the *new* pool's replicas with a
        :class:`~repro.serve.faults.FaultPlan` — the hook chaos tests
        use to ship a deliberately bad canary (arm faults with
        ``after_requests >= 1`` so the warm probe still passes).

        Swaps on one entry are serialized by the entry's swap lock;
        predicts are never blocked by it.
        """
        from repro.deploy import IntegerEngine

        if isinstance(canary, dict):
            canary = CanaryPolicy(**canary)
        entry = self.get(name)
        with entry.swap_lock:
            if name not in self:  # unloaded while waiting on the lock
                raise ModelUnavailable(f"no model {name!r} to swap")
            t0 = time.perf_counter()
            engine = IntegerEngine.load(
                path, per_sample_scale=per_sample_scale, precision=precision,
                backend=backend,
            )
            old_pool, old_version = entry.snapshot()
            new_version = version or engine.manifest["payload"]["sha256"][:12]
            manifest_model = engine.manifest["model"]
            task = engine.task
            if old_pool.replica_mode == "remote":
                raise SwapError(
                    f"model {name!r} is backed by remote shards "
                    f"({', '.join(old_pool.addresses)}); roll those shards "
                    "over to the new artifact instead of swapping the gateway"
                )
            batch_fn = model_batch_fn(engine.model)
            if fault_plan is not None:
                fault_plan.bind(self.obs.events, model=name)
            # replica_mode is cloned: a process-mode pool forks fresh
            # children whose inherited pages hold the *new* engine.
            new_pool = ReplicaPool(
                batch_fn,
                replicas=old_pool.num_replicas,
                routing=old_pool.routing,
                fault_plan=fault_plan,
                replica_mode=old_pool.replica_mode,
                **old_pool.server_kwargs,
            )
            new_pool.start()
            input_shape = manifest_model.get("input_shape")
            arch = dict(manifest_model.get("arch") or {})
            try:
                probe_checked = self._warm_probe(
                    new_pool,
                    batch_fn,
                    task,
                    arch,
                    input_shape,
                    probe=probe,
                    timeout_s=probe_timeout_s,
                )
                if canary is not None and task != entry.task:
                    raise SwapError(
                        f"canary rollout requires the new artifact to serve the "
                        f"same task (old {entry.task!r}, new {task!r}) — the "
                        "canary split decodes requests with one codec"
                    )
            except BaseException:
                new_pool.stop(drain=False)  # nothing real was routed here
                raise
            canary_metrics = None
            if canary is not None:
                canary_metrics = self._run_canary(
                    entry,
                    old_pool,
                    new_pool,
                    canary,
                    new_version=new_version,
                    task=task,
                    arch=arch,
                    input_shape=tuple(input_shape) if input_shape else None,
                )
                if canary_metrics["reasons"]:
                    replicas_n = new_pool.num_replicas
                    # accepted canary requests resolve before teardown
                    new_pool.stop(drain=True)
                    # canary requests were real client traffic; they count
                    # toward the model's lifetime totals
                    entry.absorb_pool(new_pool.stats())
                    report = SwapReport(
                        name=name,
                        old_version=old_version,
                        new_version=new_version,
                        replicas=replicas_n,
                        duration_s=time.perf_counter() - t0,
                        probe_checked=probe_checked,
                        outcome="rolled_back",
                        canary=canary_metrics,
                    )
                    with entry.lock:
                        entry.history.append(
                            {
                                "event": "canary_rollback",
                                "from": old_version,
                                "to": new_version,
                                "unix": time.time(),
                                "reasons": list(canary_metrics["reasons"]),
                            }
                        )
                    self.obs.events.publish(
                        "swap", "canary_rollback", model=name,
                        reasons=list(canary_metrics["reasons"]),
                        **{"from": old_version, "to": new_version},
                    )
                    logger.warning(
                        "canary rollback on %s: %s keeps serving, %s rejected (%s)",
                        name, old_version, new_version,
                        "; ".join(canary_metrics["reasons"]),
                    )
                    return report
            with entry.lock:
                entry.pool = new_pool
                entry.version = new_version
                entry.task = task
                entry.decode = PAYLOAD_CODECS.get(task or "", _decode_image)
                entry.input_shape = tuple(input_shape) if input_shape else None
                entry.arch = arch
                entry.backends = engine.backends
                entry.loaded_unix = time.time()
            # The supervisor follows the new pool via pool_fn; its probe
            # payload must follow the new artifact's input metadata too.
            if entry.supervisor is not None and entry.supervisor.policy.probe:
                entry.supervisor.probe_fn = _make_probe_fn(task, arch, input_shape)
            # In-flight and queued requests complete on the old version;
            # handlers that raced the flip and hit the retired pool see
            # ServerClosed and re-route via a fresh entry snapshot.
            old_pool.stop(drain=True)
            # now frozen: everything the old pool ever served rolls into
            # the entry's swap-surviving lifetime counters
            entry.absorb_pool(old_pool.stats())
            report = SwapReport(
                name=name,
                old_version=old_version,
                new_version=new_version,
                replicas=new_pool.num_replicas,
                duration_s=time.perf_counter() - t0,
                probe_checked=probe_checked,
                canary=canary_metrics,
            )
            with entry.lock:
                entry.history.append(
                    {
                        "event": "swap",
                        "from": old_version,
                        "to": new_version,
                        "unix": time.time(),
                        "duration_s": report.duration_s,
                        "canary": canary_metrics is not None,
                    }
                )
            self.obs.events.publish(
                "swap", "swap", model=name, duration_s=report.duration_s,
                canary=canary_metrics is not None,
                **{"from": old_version, "to": new_version},
            )
            logger.info(
                "swapped %s: %s -> %s in %.3fs (%d replicas)",
                name, old_version, new_version, report.duration_s, report.replicas,
            )
            return report

    @staticmethod
    def _warm_probe(
        pool: ReplicaPool,
        batch_fn,
        task: str | None,
        arch: dict,
        input_shape,
        *,
        probe,
        timeout_s: float,
    ) -> bool:
        """Run one request through the new pool and check parity.

        Returns ``True`` when a probe actually ran. When no probe was
        given and the artifact lacks the metadata to synthesize one
        (no input shape / QA arch), the probe is skipped with a warning
        rather than failing a swap that would likely have been fine.
        """
        if probe is None:
            if (task or "image") != "qa" and not input_shape:
                # synthetic_payloads would guess a (3, 32, 32) image and a
                # wrong guess must not veto a valid rollout
                logger.warning("swap warm-up probe skipped (artifact lacks input_shape)")
                return False
            try:
                probe = synthetic_payloads(task, arch, input_shape, 1)[0]
            except (KeyError, TypeError, ValueError) as exc:
                logger.warning("swap warm-up probe skipped (cannot synthesize: %s)", exc)
                return False
        try:
            served = np.asarray(pool.infer(probe, timeout=timeout_s))
            direct = np.asarray(batch_fn([probe])[0])
        except SwapError:
            raise
        except BaseException as exc:
            raise SwapError(f"warm-up probe failed: {type(exc).__name__}: {exc}") from exc
        if served.shape != direct.shape or not np.array_equal(served, direct):
            raise SwapError(
                "warm-up probe parity mismatch: pool reply differs from a "
                "direct engine call on the new artifact"
            )
        if served.dtype.kind == "f" and not np.all(np.isfinite(served)):
            raise SwapError("warm-up probe produced non-finite outputs")
        return True

    def _run_canary(
        self,
        entry: ModelEntry,
        old_pool: ReplicaPool,
        new_pool: ReplicaPool,
        policy: CanaryPolicy,
        *,
        new_version: str,
        task: str | None,
        arch: dict,
        input_shape,
    ) -> dict:
        """Route a traffic slice to ``new_pool``, watch it, and judge it.

        Returns the canary metrics dict; a non-empty ``reasons`` list is
        the rollback verdict. Routing is withdrawn (``entry.canary``
        cleared) *before* judging, so no new traffic lands on a pool
        about to be condemned.
        """
        base = old_pool.stats()
        with entry.lock:
            entry.canary = _CanaryState(
                pool=new_pool, version=new_version, policy=policy
            )
        reasons: list[str] = []
        t0 = time.monotonic()
        try:
            while True:
                time.sleep(policy.interval_s)
                cstats = new_pool.stats()
                if new_pool.healthy_replicas == 0:
                    reasons.append("canary pool lost all replicas")
                    break
                if cstats.completed + cstats.errors >= policy.min_requests:
                    break
                if time.monotonic() - t0 >= policy.window_s:
                    break
        finally:
            with entry.lock:
                entry.canary = None
        cstats = new_pool.stats()
        ostats = old_pool.stats()
        served = cstats.completed + cstats.errors
        canary_err = cstats.errors / max(served, 1)
        base_total = (ostats.completed + ostats.errors) - (base.completed + base.errors)
        base_err = max(ostats.errors - base.errors, 0) / max(base_total, 1)
        if canary_err > base_err + policy.max_error_rate:
            reasons.append(
                f"canary error rate {canary_err:.3f} exceeds stable "
                f"{base_err:.3f} + {policy.max_error_rate}"
            )
        if (
            cstats.latency_ms_p50 > 0
            and ostats.latency_ms_p50 > 0
            and cstats.latency_ms_p50 > policy.max_latency_ratio * ostats.latency_ms_p50
        ):
            reasons.append(
                f"canary p50 latency {cstats.latency_ms_p50:.2f}ms is more than "
                f"{policy.max_latency_ratio}x stable ({ostats.latency_ms_p50:.2f}ms)"
            )
        drift = self._canary_drift(
            old_pool, new_pool, policy,
            task=task, arch=arch, input_shape=input_shape, reasons=reasons,
        )
        return {
            "requests": served,
            "errors": cstats.errors,
            "error_rate": canary_err,
            "stable_error_rate": base_err,
            "latency_ms_p50": cstats.latency_ms_p50,
            "stable_latency_ms_p50": ostats.latency_ms_p50,
            "window_s": round(time.monotonic() - t0, 3),
            "fraction": policy.fraction,
            "drift": drift,
            "reasons": reasons,
        }

    @staticmethod
    def _canary_drift(
        old_pool: ReplicaPool,
        new_pool: ReplicaPool,
        policy: CanaryPolicy,
        *,
        task: str | None,
        arch: dict,
        input_shape,
        reasons: list[str],
    ) -> dict:
        """Seeded synthetic inputs through both pools: non-finite canary
        outputs always condemn; argmax flips condemn past ``max_drift``.

        Old-pool hiccups (or un-synthesizable payloads) skip the
        comparison instead of condemning the canary — the stable
        version's problems are not the canary's fault.
        """
        if policy.drift_probes <= 0:
            return {"checked": False}
        if (task or "image") != "qa" and not input_shape:
            return {"checked": False}
        try:
            probes = synthetic_payloads(
                task, arch, input_shape, policy.drift_probes, seed=policy.seed
            )
        except (KeyError, TypeError, ValueError):
            return {"checked": False}
        flips = nonfinite = compared = 0
        for payload in probes:
            try:
                new_out = np.asarray(new_pool.infer(payload, timeout=30.0))
            except BaseException as exc:  # noqa: BLE001 - verdict, not crash
                reasons.append(
                    f"canary failed a drift probe: {type(exc).__name__}: {exc}"
                )
                return {"checked": True, "probes": len(probes), "probe_error": str(exc)}
            if new_out.dtype.kind == "f" and not np.all(np.isfinite(new_out)):
                nonfinite += 1
                continue
            try:
                old_out = np.asarray(old_pool.infer(payload, timeout=30.0))
            except BaseException:  # noqa: BLE001 - see docstring
                continue
            compared += 1
            if new_out.ravel().argmax() != old_out.ravel().argmax():
                flips += 1
        if nonfinite:
            reasons.append(
                f"{nonfinite}/{len(probes)} drift probes returned non-finite outputs"
            )
        drift_fraction = flips / compared if compared else 0.0
        if policy.max_drift is not None and compared and drift_fraction > policy.max_drift:
            reasons.append(
                f"output drift {drift_fraction:.2f} exceeds max_drift {policy.max_drift}"
            )
        return {
            "checked": True,
            "probes": len(probes),
            "compared": compared,
            "argmax_flips": flips,
            "nonfinite": nonfinite,
            "drift_fraction": drift_fraction,
        }

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> ModelEntry:
        with self._lock:
            entry = self._entries.get(name)
            serving = sorted(self._entries) if entry is None else None
        if entry is None:
            raise ModelUnavailable(f"no model {name!r} (serving: {serving or 'none'})")
        return entry

    def models(self) -> list[ModelEntry]:
        with self._lock:
            return [self._entries[k] for k in sorted(self._entries)]

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # unload / shutdown
    # ------------------------------------------------------------------
    def unload(self, name: str, drain: bool = True) -> ModelEntry:
        """Remove ``name`` and stop its pool.

        The entry disappears from the table first (new requests 404),
        then the pool stops with ``drain=True`` so accepted requests
        still complete — the mid-flight-unload contract.
        """
        with self._lock:
            entry = self._entries.pop(name, None)
        if entry is None:
            raise ModelUnavailable(f"no model {name!r} to unload")
        # The autoscaler and supervisor stop before the pool drains: a
        # live loop could otherwise fight the drain (growing a pool that
        # is going away, or "restarting" replicas mid-teardown).
        if entry.autoscaler is not None:
            entry.autoscaler.stop()
        if entry.supervisor is not None:
            entry.supervisor.stop()
        # Serialize with swaps: a swap that already passed its liveness
        # check must finish its flip before we stop the (final) pool.
        with entry.swap_lock:
            pool, _ = entry.snapshot()
            pool.stop(drain=drain)
        self.obs.events.publish("registry", "unload", model=name, version=entry.version)
        return entry

    def stop_all(self, drain: bool = True) -> None:
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            if entry.autoscaler is not None:
                entry.autoscaler.stop()
            if entry.supervisor is not None:
                entry.supervisor.stop()
            with entry.swap_lock:
                pool, _ = entry.snapshot()
                pool.stop(drain=drain)
